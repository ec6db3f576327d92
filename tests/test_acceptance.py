"""Release gate: one test per acceptance criterion.

Run `pytest tests/test_acceptance.py -v` to get exactly one PASS/FAIL line
per criterion. Each test states its tolerance inline and, where the
criterion sets a runtime budget, measures its own wall-clock time. The
tests prefer recomputation over trust: graphs against hand-derived edge
lists, masks against a per-entry oracle, gradients against central finite
differences, metrics against direct arithmetic, and determinism against
byte equality of the emitted files.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    mask_oracle,
    max_relative_error_two_scale,
    random_model_input,
)
from ponziscan import datasynth
from ponziscan.cli import main as cli_main
from ponziscan.dfg import extract_dfg
from ponziscan.encoding import build_mask, build_vocab
from ponziscan.model.adam import AdamState
from ponziscan.model.config import ModelConfig
from ponziscan.model.encoder import forward_hidden
from ponziscan.model.losses import (
    classification_loss_and_grads,
    mlm_loss_and_grads,
    pair_bce_loss_and_grads,
)
from ponziscan.model.params import init_params
from ponziscan.pipeline import (
    compute_metrics,
    encode_records,
    evaluate,
    finetune,
    split_chronological,
    write_dataset,
)
from ponziscan.pretrain import (
    CORRUPT_KEPT,
    CORRUPT_MASKED,
    CORRUPT_RANDOMIZED,
    PretrainFlags,
    pretrain_epoch,
    sample_align_mask,
    sample_edge_mask,
    sample_mlm,
)
from ponziscan.pipeline import encode_record
from ponziscan.solparse.lexer import lex
from ponziscan.solparse.parser import parse


# -- shared fixtures ----------------------------------------------------------


@pytest.fixture(scope="module")
def balanced_corpus():
    """32 synthetic contracts, 16 of each class."""
    return datasynth.generate_corpus(32, 16, seed=7)


@pytest.fixture(scope="module")
def desk_model(balanced_corpus):
    """The 2-layer, 64-wide, 4-head configuration trained to separate the
    balanced corpus; also records how many epochs and seconds that took."""
    vocab = build_vocab(balanced_corpus, 512)
    config = ModelConfig(n_layers=2, d_h=64, n_heads=4, d_ff=256,
                         code_len=96, flow_len=24, seed=0)
    started = time.perf_counter()
    params = None
    epochs_used = 0
    accuracy = 0.0
    while epochs_used < 200:
        result = finetune(balanced_corpus, vocab, config, epochs=10, lr=1e-3,
                          seed=1, params=params)
        params = result.params
        epochs_used += 10
        report = evaluate(balanced_corpus, vocab, params, config,
                          threshold=0.5)
        accuracy = (report.tp + report.tn) / len(balanced_corpus)
        if accuracy >= 0.95:
            break
    elapsed = time.perf_counter() - started
    return {"vocab": vocab, "config": config, "params": params,
            "epochs": epochs_used, "accuracy": accuracy, "seconds": elapsed}


# -- criterion 1: published headline metrics are out of scope ------------------


def test_criterion_01_headline_metrics_declared_not_reproducible():
    """The published benchmark figures (recall 0.887, precision 0.956,
    F 0.918) rest on externally pre-trained weights and GPU-scale
    fine-tuning; this package replaces them with the property checks
    below and must say so where users will read it."""
    readme = (Path(__file__).resolve().parent.parent / "README.md")
    raw = readme.read_text(encoding="utf-8")
    # collapse line wrapping and emphasis markers before phrase matching
    text = " ".join(raw.replace("*", " ").lower().split())
    for figure in ("0.887", "0.956", "0.918"):
        assert figure in text
    assert "not reproducible" in text


# -- criterion 2: data-flow graphs match hand-derived fixtures -----------------

# (source, variable occurrences, edges) triples; every extraction rule is
# exercised: declaration, strong and weak updates, compound assignment,
# branch merge, loop back-edges, calls, builtin sources, state threading,
# and the fee/net payout shape.
DFG_FIXTURES = [
    ("uint a = b;",
     ["a_1", "b_1"],
     [(1, 0)]),
    ("x = y; x = z; w = x;",
     ["x_1", "y_1", "x_2", "z_1", "w_1", "x_3"],
     [(1, 0), (2, 5), (3, 2), (5, 4)]),
    ("contract C { uint a; function f() public { a = 1; uint b = a; } }",
     ["a_1", "a_2", "b_1", "a_3"],
     [(1, 3), (3, 2)]),
    ("contract C { uint total; function f() public payable"
     " { total += msg.value; } }",
     ["total_1", "total_2", "msg.value_1"],
     [(0, 1), (2, 1)]),
    ("function f(uint c) public { uint x = 1; if (c > 0) { x = 2; }"
     " else { x = 3; } uint y = x; }",
     ["c_1", "x_1", "c_2", "x_2", "x_3", "y_1", "x_4"],
     [(0, 2), (3, 6), (4, 6), (6, 5)]),
    ("function f() public { uint i = 0; uint s = 0;"
     " while (i < 10) { s = s + i; i = i + 1; } uint t = s; }",
     ["i_1", "s_1", "i_2", "s_2", "s_3", "i_3", "i_4", "i_5", "t_1", "s_4"],
     [(0, 2), (0, 5), (0, 7), (1, 4), (1, 9), (3, 4), (3, 9),
      (4, 3), (5, 3), (6, 2), (6, 5), (6, 7), (7, 6), (9, 8)]),
    ("function f(uint n) public { uint s = 0;"
     " for (uint i = 0; i < n; i++) { s += i; } }",
     ["n_1", "s_1", "i_1", "i_2", "n_2", "i_3", "s_2", "i_4"],
     [(0, 4), (1, 6), (2, 3), (2, 5), (2, 7), (5, 3), (5, 5), (5, 7),
      (6, 6), (7, 6)]),
    ("function f() public { uint r = add(a, b); }",
     ["r_1", "a_1", "b_1"],
     [(1, 0), (2, 0)]),
    ("contract C { mapping(address => uint) m; function f(uint x) public"
     " { m[msg.sender] = x; uint y = m[msg.sender]; } }",
     ["m_1", "x_1", "m_2", "msg.sender_1", "x_2", "y_1", "m_3",
      "msg.sender_2"],
     [(0, 2), (0, 6), (1, 4), (2, 6), (4, 2), (6, 5), (7, 5)]),
    ("function f() public { msg.sender = x; }",
     ["msg.sender_1", "x_1"],
     []),
    ("contract C { uint a = 5;"
     " function f() public { a = 1; }"
     " function g() public { uint b = a; }"
     " function h() public { uint a = 2; }"
     " function k() public { uint c = a; } }",
     ["a_1", "a_2", "b_1", "a_3", "a_4", "c_1", "a_5"],
     [(1, 3), (1, 6), (3, 2), (6, 5)]),
    ("function pay(uint amount) public { uint fee = amount / 100;"
     " uint net = amount - fee; owner.transfer(fee); }",
     ["amount_1", "fee_1", "amount_2", "net_1", "amount_3", "fee_2",
      "owner_1", "fee_3"],
     [(0, 2), (0, 4), (1, 5), (1, 7), (2, 1), (4, 3), (5, 3)]),
]


def test_criterion_02_dfg_matches_hand_derived_graphs():
    assert len(DFG_FIXTURES) >= 10
    started = time.perf_counter()
    for source, want_names, want_edges in DFG_FIXTURES:
        tokens = lex(source)
        graph = extract_dfg(parse(tokens))
        got_names = [f"{v.name}_{v.occurrence}" for v in graph.vars]
        got_edges = [(e.src, e.dst) for e in graph.edges]
        assert got_names == want_names, source
        assert got_edges == want_edges, source
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"dfg fixtures took {elapsed:.3f}s"


# -- criterion 3: attention mask equals the per-entry oracle -------------------


def test_criterion_03_mask_equals_oracle_on_1000_instances():
    """The mask equals the oracle. With random withdrawn entries (half
    drawn from allowed ones), it equals the oracle with those entries
    cleared."""
    rng = np.random.default_rng(2024)
    pick = np.random.default_rng(2025)
    started = time.perf_counter()
    mismatched = 0
    for _ in range(1000):
        inp = random_model_input(rng)
        want = mask_oracle(inp)
        mismatched += int(np.sum(build_mask(inp) != want))
        n = len(inp)
        block = want.copy()
        allowed = np.argwhere(block)
        k = int(pick.integers(0, 4))
        chosen = np.concatenate([
            allowed[pick.choice(len(allowed), size=k, replace=False)],
            pick.integers(0, n, size=(k, 2))])
        withdrawn = tuple((int(q), int(key)) for q, key in chosen)
        for q, key in withdrawn:
            block[q, key] = False
        derived = build_mask(replace(inp, withdrawn=withdrawn))
        mismatched += int(np.sum(derived != block))
    elapsed = time.perf_counter() - started
    assert mismatched == 0
    assert elapsed < 10.0, f"mask oracle sweep took {elapsed:.3f}s"


# -- criterion 4: gradients of all four losses, every tensor -------------------

GRADIENT_TOLERANCE = 1e-4


def test_criterion_04_finite_difference_gradients_all_losses():
    """Central differences over every entry of every tensor of a 1-layer,
    8-wide, 2-head model, for the classification, masked-token,
    edge-prediction, and alignment losses. Relative error < 1e-4 at the
    better of two probe steps (1e-4 and 1e-5), in float64."""
    source = "uint a = b; b = a + c;"
    vocab = build_vocab([source], 32)
    config = ModelConfig(n_layers=1, d_h=8, n_heads=2, d_ff=16,
                         code_len=8, flow_len=2, seed=3)
    inp = encode_record(source, vocab, config)
    params = init_params(config, len(vocab))

    mlm_batch = sample_mlm(inp, vocab, np.random.default_rng(7))
    edge_batch = sample_edge_mask(inp, np.random.default_rng(8))
    align_batch = sample_align_mask(inp, np.random.default_rng(9))
    assert mlm_batch.targets and edge_batch.pairs and align_batch.pairs

    losses = {
        "classification": lambda: classification_loss_and_grads(
            inp, 1, params, config),
        "mlm": lambda: mlm_loss_and_grads(
            mlm_batch.input, mlm_batch.targets, params, config),
        "edgepred": lambda: pair_bce_loss_and_grads(
            edge_batch.input, edge_batch.pairs, params, config),
        "nodealign": lambda: pair_bce_loss_and_grads(
            align_batch.input, align_batch.pairs, params, config),
    }
    started = time.perf_counter()
    for name, fn in losses.items():
        _, grads = fn()
        worst = max_relative_error_two_scale(lambda: fn()[0], grads, params)
        assert worst < GRADIENT_TOLERANCE, f"{name}: rel err {worst:.3e}"
        assert all(g.dtype == np.float64 for g in grads.values())
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"gradient sweep took {elapsed:.1f}s"


# -- criterion 5: sampler statistics -------------------------------------------


def test_criterion_05_sampling_statistics(balanced_corpus):
    """10,000 masked-token draws over the corpus: aggregate target fraction
    within 15% +- 1% and corruption mix within 80/10/10 +- 3%. Every one of
    10,000 edge and 10,000 alignment batches is exactly balanced."""
    vocab = build_vocab(balanced_corpus, 512)
    config = ModelConfig(n_layers=1, d_h=8, n_heads=2, d_ff=16,
                         code_len=256, flow_len=64, seed=0)
    inputs = encode_records(balanced_corpus, vocab, config)
    usable = [i for i in inputs if i.n_code >= 1]
    with_nodes = [i for i in inputs if i.n_nodes >= 1]
    assert usable and with_nodes

    total_targets = total_code = 0
    mix = {CORRUPT_MASKED: 0, CORRUPT_RANDOMIZED: 0, CORRUPT_KEPT: 0}
    for draw in range(10_000):
        inp = usable[draw % len(usable)]
        batch = sample_mlm(inp, vocab, np.random.default_rng([123, draw]))
        total_targets += len(batch.targets)
        total_code += inp.n_code
        for _, kind in batch.corruption:
            mix[kind] += 1
    fraction = total_targets / total_code
    assert 0.14 <= fraction <= 0.16, f"target fraction {fraction:.4f}"
    drawn = sum(mix.values())
    assert 0.77 <= mix[CORRUPT_MASKED] / drawn <= 0.83
    assert 0.07 <= mix[CORRUPT_RANDOMIZED] / drawn <= 0.13
    assert 0.07 <= mix[CORRUPT_KEPT] / drawn <= 0.13

    for draw in range(10_000):
        inp = with_nodes[draw % len(with_nodes)]
        edge = sample_edge_mask(inp, np.random.default_rng([55, draw]))
        align = sample_align_mask(inp, np.random.default_rng([56, draw]))
        assert len(edge.positives) == len(edge.negatives)
        assert len(align.positives) == len(align.negatives)


# -- criterion 6: dataset split determinism ------------------------------------


def test_criterion_06_published_shape_split_determinism():
    """Each chronological pair P0..P(k-1) -> Pk holds 50k Ponzi schemes in
    training and the next 50 (k = 5, the fixed protocol: the last 68) in
    test; fixed splits 5,990 / 508."""
    records = datasynth.generate_published_shape(seed=0)
    pairs = {k: split_chronological(records, k) for k in range(2, 6)}
    assert {name: len(part) for name, part in pairs[5].items()} == {
        "train": 5990, "test": 508}
    ponzi_counts = {k: [sum(r.label == 1 for r in pair[part])
                        for part in ("train", "test")]
                    for k, pair in pairs.items()}
    assert ponzi_counts == {2: [100, 50], 3: [150, 50], 4: [200, 50],
                            5: [250, 68]}

    again = datasynth.generate_published_shape(seed=0)
    for k, pair in pairs.items():
        assert split_chronological(again, k) == pair


# -- criterion 7: the desk configuration can overfit ---------------------------


def test_criterion_07_overfit_balanced_subset(desk_model):
    assert desk_model["epochs"] <= 200
    assert desk_model["accuracy"] >= 0.95, (
        f"train accuracy {desk_model['accuracy']:.3f} after"
        f" {desk_model['epochs']} epochs")
    assert desk_model["seconds"] < 600.0


# -- criterion 8: metric identities and threshold monotonicity -----------------


def test_criterion_08_metric_identities_and_monotonicity(
        balanced_corpus, desk_model):
    rng = np.random.default_rng(99)
    for _ in range(100):
        tp = int(rng.integers(1, 60))
        fp, fn, tn = (int(rng.integers(0, 60)) for _ in range(3))
        report = compute_metrics(tp, fp, fn, tn, threshold=0.5)
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        assert report.precision == pytest.approx(precision, rel=1e-12)
        assert report.recall == pytest.approx(recall, rel=1e-12)
        assert report.f_score == pytest.approx(
            2 * precision * recall / (precision + recall), rel=1e-12)

    reports = [evaluate(balanced_corpus, desk_model["vocab"],
                        desk_model["params"], desk_model["config"],
                        threshold=t)
               for t in (0.5, 0.15, 0.003)]
    for tighter, looser in zip(reports, reports[1:]):
        assert looser.recall >= tighter.recall
        assert looser.tp >= tighter.tp
        assert looser.tp + looser.fp >= tighter.tp + tighter.fp


# -- criterion 9: ablations actually change behavior ---------------------------


def test_criterion_09_ablation_liveness(balanced_corpus, desk_model):
    vocab = desk_model["vocab"]
    config = desk_model["config"]
    params = desk_model["params"]

    with_flow = encode_records(balanced_corpus, vocab, config)
    without_flow = encode_records(balanced_corpus, vocab,
                                  replace(config, flow_len=0))
    deltas = []
    for a, b in zip(with_flow, without_flow):
        la = forward_hidden(a, params, config)[0][0] @ params["cls_w"]
        lb = forward_hidden(b, params, config)[0][0] @ params["cls_w"]
        deltas.append(float(np.max(np.abs(la - lb))))
    assert max(deltas) > 1e-9, "masking ablation left every logit unchanged"

    small = balanced_corpus[:8]
    pre_config = ModelConfig(n_layers=1, d_h=8, n_heads=2, d_ff=16,
                             code_len=96, flow_len=24, seed=0)
    pre_vocab = build_vocab(small, 512)
    inputs = encode_records(small, pre_vocab, pre_config)

    def trace(flags: PretrainFlags) -> list[float]:
        run_params = init_params(pre_config, len(pre_vocab))
        state = AdamState.for_params(run_params)
        totals: list[float] = []
        for epoch in range(2):
            records = pretrain_epoch(inputs, pre_vocab, run_params, state,
                                     pre_config, seed=4, epoch=epoch,
                                     flags=flags)
            totals.extend(r.get("total", 0.0) for r in records)
        return totals

    full = trace(PretrainFlags())
    assert trace(PretrainFlags(mlm=False)) != full
    assert trace(PretrainFlags(edgepred=False)) != full
    assert trace(PretrainFlags(nodealign=False)) != full


# -- criterion 10: end-to-end byte-identical determinism ------------------------

TINY_FLAGS = ["--layers", "1", "--d-h", "8", "--heads", "2", "--d-ff", "16",
              "--code-len", "48", "--flow-len", "12"]


def test_criterion_10_end_to_end_determinism(balanced_corpus, tmp_path):
    data = tmp_path / "data.jsonl"
    write_dataset(balanced_corpus, data)

    def run(tag: str) -> dict[str, bytes]:
        root = tmp_path / tag
        root.mkdir()
        pre = root / "pre.ckpt"
        model = root / "model.ckpt"
        report = root / "report.json"
        assert cli_main(["pretrain", "--dataset", str(data), "--out",
                         str(pre), "--epochs", "1", "--seed", "3",
                         *TINY_FLAGS]) == 0
        assert cli_main(["train", "--dataset", str(data), "--init", str(pre),
                         "--out", str(model), "--split", "all",
                         "--epochs", "2", "--seed", "3"]) == 0
        assert cli_main(["eval", "--dataset", str(data), "--checkpoint",
                         str(model), "--split", "all", "--out",
                         str(report)]) == 0
        return {p.name: p.read_bytes() for p in (pre, model, report)}

    first = run("first")
    second = run("second")
    assert first == second
