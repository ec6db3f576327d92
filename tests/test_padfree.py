"""The encoder runs over each input's real prefix only.

The padded computation (all L slots, full (L, L) mask) is kept in helpers
as a reference; the trimmed encoder must agree with it for the forward
pass and the gradients of all four losses, padding must not enter the
computation at all, and the withdrawal corner case of a fully forbidden
row must stay finite and differentiable.
"""

from __future__ import annotations

import numpy as np
import pytest

import ponziscan.model.losses as losses
from ponziscan import datasynth
from ponziscan.encoding import SEG_PAD, build_mask, build_vocab
from ponziscan.model.config import ModelConfig
from ponziscan.model.encoder import forward, forward_hidden
from ponziscan.model.losses import (
    classification_loss_and_grads,
    mlm_loss_and_grads,
    pair_bce_loss_and_grads,
)
from ponziscan.model.params import init_params
from ponziscan.pipeline import encode_record
from ponziscan.pretrain import sample_align_mask, sample_edge_mask, sample_mlm

from helpers import (
    max_relative_error_two_scale,
    padded_backward_hidden,
    padded_forward_hidden,
    random_model_input,
)

EQUIVALENCE_TOL = 1e-12


@pytest.fixture(scope="module")
def corpus_setup():
    """Default-shape model over synthetic contracts that leave padding."""
    records = datasynth.generate_corpus(4, 2, seed=0)
    vocab = build_vocab(records, 2048)
    config = ModelConfig(seed=0)
    params = init_params(config, len(vocab))
    inputs = [encode_record(r.source, vocab, config) for r in records]
    assert all((inp.segments == SEG_PAD).any() for inp in inputs)
    return inputs, vocab, config, params


def _max_abs_diff(a: dict, b: dict) -> float:
    assert a.keys() == b.keys()
    return max(float(np.max(np.abs(a[k] - b[k]))) for k in a)


def test_trimmed_forward_matches_padded(corpus_setup):
    inputs, vocab, config, params = corpus_setup
    rng = np.random.default_rng(0)
    views = []
    for inp in inputs:
        views += [inp, sample_edge_mask(inp, rng).input,
                  sample_align_mask(inp, rng).input]
    for inp in views:
        H, _ = forward_hidden(inp, params, config)
        ref, _ = padded_forward_hidden(inp, params, config)
        assert H.shape == (inp.real_len, config.d_h)
        assert np.max(np.abs(H - ref[:inp.real_len])) <= EQUIVALENCE_TOL


def test_all_four_losses_match_padded_gradients(corpus_setup, monkeypatch):
    inputs, vocab, config, params = corpus_setup
    inp = inputs[0]
    mlm = sample_mlm(inp, vocab, np.random.default_rng(1))
    edge = sample_edge_mask(inp, np.random.default_rng(2))
    align = sample_align_mask(inp, np.random.default_rng(3))
    assert edge.input.withdrawn and align.input.withdrawn
    runs = {
        "classification": lambda: classification_loss_and_grads(
            [(inp, 1)], params, config),
        "mlm": lambda: mlm_loss_and_grads(mlm.input, mlm.targets, params, config),
        "edgepred": lambda: pair_bce_loss_and_grads(
            edge.input, edge.pairs, params, config),
        "nodealign": lambda: pair_bce_loss_and_grads(
            align.input, align.pairs, params, config),
    }
    trimmed = {name: run() for name, run in runs.items()}
    monkeypatch.setattr(losses, "forward_hidden", padded_forward_hidden)
    monkeypatch.setattr(losses, "backward_hidden", padded_backward_hidden)
    for name, run in runs.items():
        loss, grads = trimmed[name]
        ref_loss, ref_grads = run()
        assert abs(loss - ref_loss) <= EQUIVALENCE_TOL, name
        assert _max_abs_diff(grads, ref_grads) <= EQUIVALENCE_TOL, name


def test_padding_never_enters_the_computation():
    """One source encoded under a short and a long padded layout, scored
    with the same parameters: hidden states, probabilities and
    classification gradients are bit-identical."""
    source = ("contract C { uint total; mapping(address => uint) bal;"
              " function put() public payable { bal[msg.sender] += msg.value;"
              " total += msg.value; } function take(uint amount) public {"
              " uint fee = amount / 100; uint net = amount - fee; } }")
    vocab = build_vocab([source], cap=128)
    small = ModelConfig(code_len=96, flow_len=24, seed=0)
    large = ModelConfig(code_len=256, flow_len=64, seed=0)
    params = init_params(large, len(vocab))
    short, long = (encode_record(source, vocab, c) for c in (small, large))
    assert not short.truncated and not long.truncated
    assert len(short) < len(long) and short.real_len == long.real_len

    H_short, _ = forward_hidden(short, params, small)
    H_long, _ = forward_hidden(long, params, large)
    assert np.array_equal(H_short, H_long)
    p_short = forward(short, params, small).probabilities
    p_long = forward(long, params, large).probabilities
    assert np.array_equal(p_short, p_long)
    _, g_short = classification_loss_and_grads([(short, 1)], params, small)
    _, g_long = classification_loss_and_grads([(long, 1)], params, large)
    for name in g_short:
        assert np.array_equal(g_short[name], g_long[name]), name


def test_fully_forbidden_row_stays_finite_and_differentiable():
    """A node whose aligned token was truncated away and whose only
    incoming edge is a self-loop loses its whole row when edge prediction
    samples it: the self-loop's withdrawal clears the diagonal. The row's
    softmax then spreads over the n real slots; it must stay finite and
    its gradients must pass the finite-difference check."""
    source = "while (i < n) { i++; }"   # nodes i, n, i; edges 2->0, 2->2
    vocab = build_vocab([source], cap=32)
    config = ModelConfig(n_layers=1, d_h=8, n_heads=2, d_ff=16,
                         code_len=7, flow_len=4, seed=3)
    inp = encode_record(source, vocab, config)
    assert inp.truncated and inp.n_nodes == 3
    node = 2 + inp.n_code + 2          # the i of i++, its token truncated
    assert (node, node) in inp.dfg_edges
    assert all(n != node for n, _ in inp.node_alignment)

    seed = next(s for s in range(100)
                if sample_edge_mask(inp, np.random.default_rng(s)).sampled_nodes == [node])
    batch = sample_edge_mask(inp, np.random.default_rng(seed))
    assert not build_mask(batch.input, inp.real_len)[node].any()
    assert batch.pairs

    params = init_params(config, len(vocab))
    H, _ = forward_hidden(batch.input, params, config)
    assert np.isfinite(H).all()

    def run():
        return pair_bce_loss_and_grads(batch.input, batch.pairs, params, config)

    loss, grads = run()
    assert np.isfinite(loss)
    worst = max_relative_error_two_scale(lambda: run()[0], grads, params)
    assert worst < 1e-4, f"rel err {worst:.3e}"
