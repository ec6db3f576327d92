"""Dataset IO, split protocols, metrics, fine-tuning, evaluation."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from ponziscan.encoding import build_mask
from ponziscan.errors import (
    DuplicateIdx,
    EmptyDataset,
    MalformedRecord,
    TooFewPositives,
)
from ponziscan.model.params import init_params
from ponziscan.pipeline import (
    ContractRecord,
    compute_metrics,
    cumulative_pairs,
    encode_record,
    evaluate,
    finetune,
    load_dataset,
    predict_one,
    split_fixed,
    split_partitions,
    split_random,
    subset_records,
    write_dataset,
)


def make_records(labels: list[int], start_idx: int = 1) -> list[ContractRecord]:
    out = []
    for k, label in enumerate(labels):
        src = f"contract K{k} {{ uint v{k}; }}"
        out.append(ContractRecord(idx=start_idx + k, source=src, label=label))
    return out


# --- dataset IO ----------------------------------------------------------------

def test_load_write_round_trip(tmp_path):
    records = make_records([0, 1, 0, 1])
    path = tmp_path / "data.jsonl"
    write_dataset(records, path)
    loaded = load_dataset(path)
    assert loaded == records


def test_load_sorts_by_idx(tmp_path):
    path = tmp_path / "data.jsonl"
    lines = [
        {"idx": 3, "source": "a;", "label": 0},
        {"idx": 1, "source": "b;", "label": 1},
        {"idx": 2, "source": "c;", "label": 0},
    ]
    path.write_text("\n".join(json.dumps(o) for o in lines) + "\n")
    loaded = load_dataset(path)
    assert [r.idx for r in loaded] == [1, 2, 3]


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"idx": 1, "source": "a;", "label": 0}\n\n'
                    '{"idx": 2, "source": "b;", "label": 1}\n')
    assert len(load_dataset(path)) == 2


@pytest.mark.parametrize("line,what", [
    ("not json", "invalid JSON"),
    ("[1, 2]", "not an object"),
    ('{"idx": "x", "source": "a;", "label": 0}', "idx"),
    ('{"idx": true, "source": "a;", "label": 0}', "idx"),
    ('{"idx": 1, "source": 5, "label": 0}', "source"),
    ('{"idx": 1, "source": "a;", "label": 2}', "label"),
    ('{"idx": 1, "source": "a;"}', "label"),
])
def test_malformed_records(tmp_path, line, what):
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(MalformedRecord) as err:
        load_dataset(path)
    assert err.value.line == 1


def test_malformed_record_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"idx": 1, "source": "a;", "label": 0}\nboom\n')
    with pytest.raises(MalformedRecord) as err:
        load_dataset(path)
    assert err.value.line == 2


def test_duplicate_idx(tmp_path):
    path = tmp_path / "dup.jsonl"
    path.write_text('{"idx": 1, "source": "a;", "label": 0}\n'
                    '{"idx": 1, "source": "b;", "label": 1}\n')
    with pytest.raises(DuplicateIdx):
        load_dataset(path)


def test_empty_dataset(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n")
    with pytest.raises(EmptyDataset):
        load_dataset(path)


# --- split protocols ------------------------------------------------------------

def test_split_fixed_hand_example():
    # Ponzi schemes on every even idx, so the 250th positive sits at idx 500
    records = [ContractRecord(idx=i + 1, source="a;", label=1 if (i + 1) % 2 == 0 else 0)
               for i in range(600)]
    plan = split_fixed(records)
    # 250th Ponzi is idx 500; train = idx 1..500, test = 501..600
    assert plan.subsets["train"] == list(range(1, 501))
    assert plan.subsets["test"] == list(range(501, 601))
    assert plan.sizes() == {"train": 500, "test": 100}


def test_split_fixed_needs_more_positives():
    records = make_records([1] * 250 + [0] * 50)
    with pytest.raises(TooFewPositives):
        split_fixed(records)


def test_split_partitions_structure():
    # 251 positives interleaved with negatives
    labels = ([1, 0] * 260)[:520]
    records = make_records(labels)
    plan = split_partitions(records)
    assert set(plan.subsets) == {f"P{k}" for k in range(6)}
    all_ids = sorted(i for ids in plan.subsets.values() for i in ids)
    assert all_ids == [r.idx for r in records]
    by_id = {r.idx: r for r in records}
    for k in range(5):
        n_pos = sum(by_id[i].label == 1 for i in plan.subsets[f"P{k}"])
        assert n_pos == 50
    tail_pos = sum(by_id[i].label == 1 for i in plan.subsets["P5"])
    assert tail_pos == 260 - 250


def test_partitions_tail_equals_fixed_test():
    labels = ([1, 0, 0] * 300)[:900]
    records = make_records(labels)
    fixed = split_fixed(records)
    parts = split_partitions(records)
    assert parts.subsets["P5"] == fixed.subsets["test"]


def test_cumulative_pair_names_and_contents():
    labels = ([1, 0] * 260)[:520]
    records = make_records(labels)
    plan = split_partitions(records)
    pairs = cumulative_pairs(plan)
    assert [name for name, _, _ in pairs] == [
        "P0+P1->P2", "P0+P1+P2->P3", "P0+P1+P2+P3->P4", "P0+P1+P2+P3+P4->P5"]
    for upto, (name, train, test) in enumerate(pairs, start=2):
        want_train = sorted(
            i for k in range(upto) for i in plan.subsets[f"P{k}"])
        assert train == want_train
        assert test == plan.subsets[f"P{upto}"]


def test_split_random_sizes_100():
    records = make_records([0, 1] * 50)
    plan = split_random(records, seed=0)
    assert plan.sizes() == {"train": 70, "val": 10, "test": 20}


def test_split_random_sizes_6498():
    n = 6498
    records = [ContractRecord(idx=i + 1, source="a;", label=0) for i in range(n)]
    plan = split_random(records, seed=1)
    n_val = n // 10
    n_test = int(math.floor(n / 5 + 0.5))
    assert plan.sizes() == {"train": n - n_val - n_test, "val": n_val,
                            "test": n_test}
    assert plan.sizes() == {"train": 4549, "val": 649, "test": 1300}


def test_split_random_partitions_everything_once():
    records = make_records([0] * 37)
    plan = split_random(records, seed=3)
    combined = sorted(plan.subsets["train"] + plan.subsets["val"]
                      + plan.subsets["test"])
    assert combined == [r.idx for r in records]


def test_split_random_seed_determinism_and_sensitivity():
    records = make_records([0, 1] * 30)
    a = split_random(records, seed=5)
    b = split_random(records, seed=5)
    c = split_random(records, seed=6)
    assert a.subsets == b.subsets
    assert a.subsets != c.subsets


def test_split_random_too_small():
    with pytest.raises(EmptyDataset):
        split_random(make_records([0] * 9), seed=0)


def test_subset_records_preserves_order():
    records = make_records([0, 1, 0, 1, 0])
    picked = subset_records(records, [4, 2])
    assert [r.idx for r in picked] == [2, 4]


# --- metrics ----------------------------------------------------------------------

def test_metric_formulas_spot():
    report = compute_metrics(tp=8, fp=2, fn=2, tn=88, threshold=0.5)
    assert report.precision == pytest.approx(0.8)
    assert report.recall == pytest.approx(0.8)
    assert report.f_score == pytest.approx(0.8)


def test_metric_identities_random_matrices():
    rng = np.random.default_rng(11)
    for _ in range(100):
        tp, fp, fn, tn = (int(x) for x in rng.integers(0, 40, size=4))
        r = compute_metrics(tp, fp, fn, tn, threshold=0.5)
        p = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * rec / (p + rec) if p + rec else 0.0
        assert r.precision == pytest.approx(p, abs=1e-12)
        assert r.recall == pytest.approx(rec, abs=1e-12)
        assert r.f_score == pytest.approx(f, abs=1e-12)
        assert r.precision_defined == ((tp + fp) > 0)


def test_no_positive_predictions_flagged():
    r = compute_metrics(tp=0, fp=0, fn=5, tn=10, threshold=0.5)
    assert not r.precision_defined
    assert r.precision == 0.0
    assert r.f_score == 0.0


def test_report_to_dict_round_trip():
    r = compute_metrics(3, 1, 2, 4, threshold=0.25, split_name="x")
    d = r.to_dict()
    assert d["tp"] == 3 and d["split_name"] == "x" and d["threshold"] == 0.25


# --- fine-tuning and evaluation ----------------------------------------------------

def test_zero_epoch_finetune_returns_init(small_corpus, small_vocab, tiny_config):
    result = finetune(small_corpus, small_vocab, tiny_config, epochs=0, seed=4)
    want = init_params(tiny_config, len(small_vocab))
    assert result.epoch_losses == []
    assert result.best_epoch == -1
    for name in want:
        assert np.array_equal(result.params[name], want[name])


def test_finetune_deterministic(small_corpus, small_vocab, tiny_config):
    a = finetune(small_corpus, small_vocab, tiny_config, epochs=2, lr=1e-3, seed=4)
    b = finetune(small_corpus, small_vocab, tiny_config, epochs=2, lr=1e-3, seed=4)
    assert a.epoch_losses == b.epoch_losses
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


def test_finetune_warm_start_differs_from_cold(small_corpus, small_vocab, tiny_config):
    warm_init = init_params(tiny_config, len(small_vocab),
                            rng=np.random.default_rng(99))
    warm = finetune(small_corpus, small_vocab, tiny_config, epochs=1,
                    lr=1e-3, seed=4, params=warm_init)
    cold = finetune(small_corpus, small_vocab, tiny_config, epochs=1,
                    lr=1e-3, seed=4)
    assert warm.epoch_losses != cold.epoch_losses


def test_finetune_empty_raises(small_vocab, tiny_config):
    with pytest.raises(EmptyDataset):
        finetune([], small_vocab, tiny_config, epochs=1)


def test_validation_selects_best_epoch(small_corpus, small_vocab, tiny_config):
    train, val = small_corpus[:12], small_corpus[12:]
    result = finetune(train, small_vocab, tiny_config, epochs=4, lr=1e-3,
                      seed=4, val_records=val)
    assert len(result.val_reports) == 4
    best_f = max(r.f_score for r in result.val_reports)
    assert result.val_reports[result.best_epoch].f_score == best_f
    # earliest epoch wins ties
    first_best = next(i for i, r in enumerate(result.val_reports)
                      if r.f_score == best_f)
    assert result.best_epoch == first_best


def test_evaluate_counts_sum(trained_model, small_corpus):
    params, vocab, config = trained_model
    report = evaluate(small_corpus, vocab, params, config, threshold=0.5)
    assert report.tp + report.fp + report.fn + report.tn == len(small_corpus)


def test_evaluate_empty_raises(trained_model):
    params, vocab, config = trained_model
    with pytest.raises(EmptyDataset):
        evaluate([], vocab, params, config)


def test_threshold_monotonicity(trained_model, small_corpus):
    """Lowering the threshold can only add positive predictions, so recall
    is non-decreasing while TP+FP grows."""
    params, vocab, config = trained_model
    reports = [evaluate(small_corpus, vocab, params, config, threshold=t)
               for t in (0.5, 0.15, 0.003)]
    for tighter, looser in zip(reports, reports[1:]):
        assert looser.recall >= tighter.recall
        assert looser.tp + looser.fp >= tighter.tp + tighter.fp
        assert looser.tp >= tighter.tp


def test_predict_one_matches_evaluate_decision(trained_model, small_corpus):
    params, vocab, config = trained_model
    record = small_corpus[0]
    pred = predict_one(record.source, vocab, params, config, threshold=0.5)
    assert pred.label in (0, 1)
    assert pred.probabilities.shape == (2,)
    assert pred.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_use_dataflow_false_changes_encoding(small_vocab, tiny_config, small_corpus):
    source = small_corpus[0].source
    with_flow = encode_record(source, small_vocab, tiny_config, use_dataflow=True)
    without = encode_record(source, small_vocab, tiny_config, use_dataflow=False)
    assert without.n_nodes == 0
    assert without.dfg_edges == []
    assert with_flow.n_nodes > 0
    assert not np.array_equal(build_mask(with_flow), build_mask(without))
