"""Pre-training samplers and the per-epoch loop."""

from __future__ import annotations

import numpy as np
import pytest

from ponziscan.dfg import extract_dfg
from ponziscan.encoding import (
    SEG_CODE,
    SEG_NODE,
    Vocabulary,
    build_mask,
    build_vocab,
    encode_input,
)
from ponziscan.model.adam import AdamState
from ponziscan.model.config import ModelConfig
from ponziscan.model.losses import pair_bce_loss_and_grads
from ponziscan.model.params import init_params
from ponziscan.pretrain import (
    CORRUPT_KEPT,
    CORRUPT_MASKED,
    CORRUPT_RANDOMIZED,
    MLM_FRACTION,
    TASK_EDGEPRED,
    PretrainFlags,
    _round_half_up,
    pretrain_epoch,
    sample_align_mask,
    sample_edge_mask,
    sample_mlm,
)

from helpers import random_model_input


@pytest.fixture(scope="module")
def encoded():
    src = ("contract C { uint total; mapping(address => uint) bal;"
           " function put() public payable { bal[msg.sender] += msg.value;"
           " total += msg.value; } function take(uint amount) public {"
           " uint fee = amount / 100; uint net = amount - fee; } }")
    vocab = build_vocab([src], cap=128)
    from ponziscan.solparse.lexer import lex
    from ponziscan.solparse.parser import parse
    tokens = lex(src)
    inp = encode_input(tokens, extract_dfg(parse(tokens)), vocab,
                       code_len=96, flow_len=24)
    return inp, vocab


# --- MLM sampler -------------------------------------------------------------

def test_mlm_target_count_rule(encoded):
    inp, vocab = encoded
    n_code = int((inp.segments == SEG_CODE).sum())
    want = max(1, _round_half_up(MLM_FRACTION * n_code))
    batch = sample_mlm(inp, vocab, np.random.default_rng(0))
    assert len(batch.targets) == want
    assert len(batch.corruption) == want


def test_mlm_targets_record_original_ids(encoded):
    inp, vocab = encoded
    batch = sample_mlm(inp, vocab, np.random.default_rng(1))
    for pos, orig in batch.targets:
        assert inp.segments[pos] == SEG_CODE
        assert orig == int(inp.token_ids[pos])
    # original input untouched, corrupted copy differs only at targets
    changed = np.flatnonzero(batch.input.token_ids != inp.token_ids)
    assert set(changed.tolist()) <= {pos for pos, _ in batch.targets}


def test_mlm_corruption_modes(encoded):
    inp, vocab = encoded
    batch = sample_mlm(inp, vocab, np.random.default_rng(2))
    for pos, mode in batch.corruption:
        tid = int(batch.input.token_ids[pos])
        orig = int(inp.token_ids[pos])
        if mode == CORRUPT_MASKED:
            assert tid == Vocabulary.MASK_ID
        elif mode == CORRUPT_RANDOMIZED:
            assert tid >= len(Vocabulary.RESERVED)
        else:
            assert mode == CORRUPT_KEPT
            assert tid == orig


def test_mlm_statistics_over_many_draws(encoded):
    """10,000 draws: target fraction 15% +- 1%, mix 80/10/10 +- 3%."""
    inp, vocab = encoded
    n_code = int((inp.segments == SEG_CODE).sum())
    total_targets = 0
    modes = {CORRUPT_MASKED: 0, CORRUPT_RANDOMIZED: 0, CORRUPT_KEPT: 0}
    n_draws = 10_000
    rng = np.random.default_rng(3)
    for _ in range(n_draws):
        batch = sample_mlm(inp, vocab, rng)
        total_targets += len(batch.targets)
        for _, mode in batch.corruption:
            modes[mode] += 1
    fraction = total_targets / (n_draws * n_code)
    assert abs(fraction - 0.15) < 0.01
    assert abs(modes[CORRUPT_MASKED] / total_targets - 0.80) < 0.03
    assert abs(modes[CORRUPT_RANDOMIZED] / total_targets - 0.10) < 0.03
    assert abs(modes[CORRUPT_KEPT] / total_targets - 0.10) < 0.03


def test_mlm_at_least_one_target_on_tiny_code():
    vocab = build_vocab(["a;"], cap=16)
    from ponziscan.solparse.lexer import lex
    from ponziscan.solparse.parser import parse
    tokens = lex("a;")
    inp = encode_input(tokens, extract_dfg(parse(tokens)), vocab,
                       code_len=4, flow_len=2)
    batch = sample_mlm(inp, vocab, np.random.default_rng(4))
    assert len(batch.targets) == 1


def test_mlm_seeded_determinism(encoded):
    inp, vocab = encoded
    a = sample_mlm(inp, vocab, np.random.default_rng(9))
    b = sample_mlm(inp, vocab, np.random.default_rng(9))
    assert a.targets == b.targets
    assert a.corruption == b.corruption
    assert np.array_equal(a.input.token_ids, b.input.token_ids)


# --- edge / alignment samplers ------------------------------------------------

def test_edge_batch_balance_and_masking(encoded):
    inp, vocab = encoded
    for seed in range(12):
        batch = sample_edge_mask(inp, np.random.default_rng(seed))
        assert len(batch.negatives) == len(batch.positives)
        edges = set(inp.dfg_edges)
        sampled = set(batch.sampled_nodes)
        # masked = exactly the true edges touching a sampled node
        assert set(batch.masked_relations) == {
            (s, d) for s, d in edges if s in sampled or d in sampled}
        for s, d in batch.positives:
            assert (s, d) in edges
            assert s in sampled or d in sampled
        for s, d in batch.negatives:
            assert (s, d) not in edges
            assert s in sampled or d in sampled
        # attention entries granted by masked edges are withdrawn
        before, after = build_mask(inp), build_mask(batch.input)
        for s, d in batch.masked_relations:
            assert before[d, s]
            assert not after[d, s]


def test_edge_candidates_brute_force():
    rng = np.random.default_rng(5)
    inp = random_model_input(rng, code_len=6, flow_len=4)
    while inp.n_nodes < 3 or not inp.dfg_edges:
        inp = random_model_input(rng, code_len=6, flow_len=4)
    batch = sample_edge_mask(inp, np.random.default_rng(6))
    nodes = np.flatnonzero(inp.segments == SEG_NODE).tolist()
    sampled = set(batch.sampled_nodes)
    want_candidates = ({(i, j) for i in sampled for j in nodes}
                       | {(i, j) for i in nodes for j in sampled})
    picked = set(batch.positives) | set(batch.negatives)
    assert picked <= want_candidates
    edges = set(inp.dfg_edges)
    assert set(batch.positives) == want_candidates & edges & set(batch.masked_relations)
    assert not (set(batch.negatives) & edges)


def test_align_batch_balance_and_masking(encoded):
    inp, vocab = encoded
    for seed in range(12):
        batch = sample_align_mask(inp, np.random.default_rng(seed))
        assert len(batch.negatives) == len(batch.positives)
        alignment = set(inp.node_alignment)
        sampled = set(batch.sampled_nodes)
        assert set(batch.masked_relations) == {
            (n, c) for n, c in alignment if n in sampled}
        for n, c in batch.positives:
            assert (n, c) in alignment and n in sampled
        for n, c in batch.negatives:
            assert (n, c) not in alignment and n in sampled
            assert inp.segments[c] == SEG_CODE
        before, after = build_mask(inp), build_mask(batch.input)
        for n, c in batch.masked_relations:
            assert before[n, c] and before[c, n]
            assert not after[n, c]
            assert not after[c, n]


def test_align_mask_withdraws_both_directions(encoded):
    inp, vocab = encoded
    batch = sample_align_mask(inp, np.random.default_rng(7))
    diff = build_mask(inp) & ~build_mask(batch.input)
    withdrawn = {(int(i), int(j)) for i, j in zip(*np.nonzero(diff))}
    want = set()
    for n, c in batch.masked_relations:
        want.add((n, c))
        want.add((c, n))
    assert withdrawn == want


def test_balance_subsamples_positives_when_pool_small():
    """A node set with nearly all pairs being true edges leaves few
    negatives; the positives must shrink to keep |neg| = |pos| exact."""
    rng = np.random.default_rng(8)
    inp = random_model_input(rng, code_len=4, flow_len=3)
    while inp.n_nodes != 3:
        inp = random_model_input(rng, code_len=4, flow_len=3)
    node_base = 2 + inp.n_code
    nodes = [node_base, node_base + 1, node_base + 2]
    inp.dfg_edges = sorted(
        {(i, j) for i in nodes for j in nodes} - {(nodes[0], nodes[1])})
    for seed in range(20):
        batch = sample_edge_mask(inp, np.random.default_rng(seed))
        assert len(batch.negatives) == len(batch.positives)
        assert len(batch.negatives) <= 1


def test_zero_node_input_yields_empty_batches():
    vocab = build_vocab(["return 1;"], cap=16)
    from ponziscan.solparse.lexer import lex
    from ponziscan.solparse.parser import parse
    tokens = lex("return 1;")
    inp = encode_input(tokens, extract_dfg(parse(tokens)), vocab,
                       code_len=4, flow_len=2)
    assert inp.n_nodes == 0
    batch = sample_edge_mask(inp, np.random.default_rng(0))
    assert batch.sampled_nodes == []
    assert batch.pairs == []
    assert batch.input.withdrawn == ()
    assert np.array_equal(build_mask(batch.input), build_mask(inp))


# --- epoch loop -----------------------------------------------------------------

@pytest.fixture(scope="module")
def pretrain_setup(encoded):
    inp, vocab = encoded
    config = ModelConfig(n_layers=1, d_h=8, n_heads=2, d_ff=16,
                         code_len=96, flow_len=24, seed=0)
    return inp, vocab, config


def test_epoch_returns_loss_records(pretrain_setup):
    inp, vocab, config = pretrain_setup
    params = init_params(config, len(vocab))
    state = AdamState.for_params(params)
    trace = pretrain_epoch([inp, inp], vocab, params, state, config,
                           seed=0, epoch=0, lr=1e-4)
    assert len(trace) == 2
    for record in trace:
        assert set(record) == {"mlm", "edgepred", "nodealign", "total"}
        assert record["total"] == pytest.approx(
            record["mlm"] + record["edgepred"] + record["nodealign"])
    assert state.t == 2


def test_epoch_determinism(pretrain_setup):
    inp, vocab, config = pretrain_setup

    def run():
        params = init_params(config, len(vocab))
        state = AdamState.for_params(params)
        trace = pretrain_epoch([inp], vocab, params, state, config,
                               seed=5, epoch=0, lr=1e-4)
        return trace, params

    t1, p1 = run()
    t2, p2 = run()
    assert t1 == t2
    for name in p1:
        assert np.array_equal(p1[name], p2[name])


def test_epoch_withdraws_masked_relations(pretrain_setup, monkeypatch):
    """The epoch's relation losses are computed with the sampled relations
    withdrawn from attention; a withdrawal that silently degraded to a
    no-op would give the loss of the unmodified input instead."""
    from dataclasses import replace

    import ponziscan.pretrain as pretrain

    inp, vocab, config = pretrain_setup
    params = init_params(config, len(vocab))
    flags = PretrainFlags(mlm=False, nodealign=False)

    def edge_loss() -> float:
        return pretrain_epoch([inp], vocab, params, AdamState.for_params(params),
                              config, seed=5, epoch=0, flags=flags,
                              lr=0.0)[0]["edgepred"]

    batch = sample_edge_mask(inp, np.random.default_rng([5, 0, 0, TASK_EDGEPRED]))
    assert batch.masked_relations and batch.input.withdrawn
    want, _ = pair_bce_loss_and_grads(batch.input, batch.pairs, params, config)
    assert edge_loss() == want

    def no_withdrawal(one, rng):
        drawn = sample_edge_mask(one, rng)
        return replace(drawn, input=replace(drawn.input, withdrawn=()))

    monkeypatch.setattr(pretrain, "sample_edge_mask", no_withdrawal)
    assert edge_loss() != want


def test_epoch_index_changes_draws(pretrain_setup):
    inp, vocab, config = pretrain_setup
    params = init_params(config, len(vocab))
    state = AdamState.for_params(params)
    t0 = pretrain_epoch([inp], vocab, params, state, config, seed=5,
                        epoch=0, lr=0.0)
    t1 = pretrain_epoch([inp], vocab, params, state, config, seed=5,
                        epoch=1, lr=0.0)
    assert t0 != t1


def test_disabling_a_task_preserves_others_at_step_zero(pretrain_setup):
    """With lr=0 the parameters never move, so each task's loss value must
    be identical whether or not the other tasks run."""
    inp, vocab, config = pretrain_setup

    def run(flags):
        params = init_params(config, len(vocab))
        state = AdamState.for_params(params)
        return pretrain_epoch([inp], vocab, params, state, config,
                              seed=7, epoch=0, flags=flags, lr=0.0)[0]

    full = run(None)
    no_edge = run(PretrainFlags(edgepred=False))
    assert "edgepred" not in no_edge
    assert no_edge["mlm"] == pytest.approx(full["mlm"], abs=1e-12)
    assert no_edge["nodealign"] == pytest.approx(full["nodealign"], abs=1e-12)
    only_mlm = run(PretrainFlags(edgepred=False, nodealign=False))
    assert set(only_mlm) == {"mlm", "total"}
    assert only_mlm["mlm"] == pytest.approx(full["mlm"], abs=1e-12)


def test_epoch_moves_parameters(pretrain_setup):
    inp, vocab, config = pretrain_setup
    params = init_params(config, len(vocab))
    before = {k: v.copy() for k, v in params.items()}
    state = AdamState.for_params(params)
    pretrain_epoch([inp], vocab, params, state, config, seed=0, epoch=0,
                   lr=1e-3)
    moved = any(not np.array_equal(params[k], before[k]) for k in params)
    assert moved


def test_loss_decreases_over_epochs(pretrain_setup):
    """Probe with the same fixed draws (epoch 0, lr=0) before and after
    training so the comparison is free of sampling noise."""
    inp, vocab, config = pretrain_setup
    params = init_params(config, len(vocab))
    state = AdamState.for_params(params)

    def probe():
        return pretrain_epoch([inp], vocab, params, AdamState.for_params(params),
                              config, seed=99, epoch=0, lr=0.0)[0]["total"]

    before = probe()
    for epoch in range(12):
        pretrain_epoch([inp], vocab, params, state, config, seed=1,
                       epoch=epoch, lr=5e-3)
    assert probe() < before
