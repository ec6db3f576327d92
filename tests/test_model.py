"""Encoder numerics: primitives, masked attention, predictions, parameters,
memory."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from ponziscan import datasynth
from ponziscan.encoding import build_mask, build_vocab
from ponziscan.errors import IdOutOfRange, NonFiniteActivation, ShapeMismatch
from ponziscan.model.config import ModelConfig
from ponziscan.model.encoder import (
    embed,
    forward,
    forward_hidden,
    gelu,
    gelu_grad,
    layer_forward,
    layer_norm,
    mask_additive,
    softmax_rows,
)
from ponziscan.model.params import (
    init_params,
    param_shapes,
    validate_same_shapes,
    zeros_like_params,
)

from ponziscan.pipeline import ContractRecord, encode_records

from helpers import attention_oracle, mask_oracle, padded_layout, random_model_input


# --- primitives ---------------------------------------------------------------

def test_gelu_known_values():
    assert gelu(np.array([0.0]))[0] == 0.0
    assert gelu(np.array([1.0]))[0] == pytest.approx(0.8413447460685429, abs=1e-12)
    assert gelu(np.array([-1.0]))[0] == pytest.approx(-0.15865525393145707, abs=1e-12)
    assert gelu(np.array([3.0]))[0] == pytest.approx(2.99595030590511, abs=1e-12)


def test_gelu_grad_matches_finite_difference():
    xs = np.linspace(-3, 3, 13)
    eps = 1e-6
    fd = (gelu(xs + eps) - gelu(xs - eps)) / (2 * eps)
    assert np.allclose(gelu_grad(xs), fd, atol=1e-8)


def test_softmax_rows_normalized_and_shift_invariant():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 7))
    p = softmax_rows(x)
    assert np.allclose(p.sum(axis=-1), 1.0)
    assert np.allclose(softmax_rows(x + 123.0), p)


def test_softmax_rows_default_leaves_input_alone():
    x = np.random.default_rng(2).normal(size=(2, 5, 7))
    x0 = x.copy()
    softmax_rows(x)
    assert np.array_equal(x, x0)


def test_softmax_rows_in_place_is_bitwise_the_pure_call():
    x = np.random.default_rng(3).normal(size=(2, 5, 7))
    A = softmax_rows(x)
    got = softmax_rows(x, out=x)
    assert got is x
    assert np.array_equal(got, A)


def test_layer_norm_standardizes_rows():
    rng = np.random.default_rng(1)
    x = rng.normal(2.0, 3.0, size=(4, 16))
    y, _ = layer_norm(x, np.ones(16), np.zeros(16))
    assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(y.var(axis=-1), 1.0, atol=1e-6)


def test_mask_additive_values():
    allow = np.array([[True, False], [False, False]])
    add = mask_additive(allow)
    assert add[0, 0] == 0.0
    assert add[0, 1] == -1e9
    # a row with no allowed key is not shifted: same softmax, no rounding
    assert (add[1] == 0.0).all()


# --- attention vs oracle --------------------------------------------------------

def test_masked_attention_matches_oracle():
    rng = np.random.default_rng(2)
    d_h, n_heads, L = 8, 2, 10
    W = rng.normal(size=(L, d_h))
    allow = rng.random((L, L)) < 0.5
    np.fill_diagonal(allow, True)
    wq, wk, wv, wo = (rng.normal(size=(d_h, d_h)) * 0.3 for _ in range(4))
    params = {"t.wq": wq, "t.wk": wk, "t.wv": wv, "t.wo": wo,
              "t.ln1_g": np.ones(d_h), "t.ln1_b": np.zeros(d_h),
              "t.ln2_g": np.ones(d_h), "t.ln2_b": np.zeros(d_h),
              "t.ffn_w1": rng.normal(size=(d_h, 16)) * 0.3,
              "t.ffn_b1": np.zeros(16),
              "t.ffn_w2": rng.normal(size=(16, d_h)) * 0.3,
              "t.ffn_b2": np.zeros(d_h)}
    _, cache = layer_forward(W, mask_additive(allow), params, "t.", n_heads)
    attn = cache["ctx"] @ wo
    want = attention_oracle(W, allow, wq, wk, wv, wo, n_heads)
    assert np.allclose(attn, want, atol=1e-10)


def test_forbidden_attention_weights_vanish():
    """Checked on the encoder's mask and embeddings, and on the padded
    layout of the same input, which layer_forward also accepts."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        inp = random_model_input(rng)
        config = ModelConfig(n_layers=1, d_h=8, n_heads=2, d_ff=16,
                             code_len=8, flow_len=4, seed=0)
        params = init_params(config, vocab_size=24)
        token_ids, position_ids, padded_allow = padded_layout(inp, config)
        padded = params["tok_emb"][token_ids] + params["pos_emb"][position_ids]
        for W, allow in ((embed(inp, params), build_mask(inp)),
                         (padded, padded_allow)):
            _, cache = layer_forward(W, mask_additive(allow), params,
                                     "layer0.", config.n_heads)
            A = cache["A"]  # (heads, n, n)
            forbidden = ~allow
            rows_with_support = allow.any(axis=1)
            for h in range(A.shape[0]):
                weights = A[h][rows_with_support]
                blocked = forbidden[rows_with_support]
                assert (weights[blocked] < 1e-12).all()
                assert np.allclose(weights.sum(axis=-1), 1.0)


def test_node_permutation_leaves_cls_logits_unchanged(tiny_config):
    rng = np.random.default_rng(4)
    params = init_params(tiny_config, vocab_size=24)
    for _ in range(10):
        inp = random_model_input(rng, code_len=tiny_config.code_len,
                                 flow_len=tiny_config.flow_len)
        if inp.n_nodes < 2:
            continue
        node_base = 2 + inp.n_code
        perm = rng.permutation(inp.n_nodes)
        mapping = {node_base + k: node_base + int(perm[k])
                   for k in range(inp.n_nodes)}
        shuffled_ids = inp.token_ids.copy()
        for old, new in mapping.items():
            shuffled_ids[new] = inp.token_ids[old]
        from ponziscan.encoding import ModelInput
        other = ModelInput(
            token_ids=shuffled_ids,
            position_ids=inp.position_ids.copy(),
            segments=inp.segments.copy(),
            node_alignment=[(mapping[n], c) for n, c in inp.node_alignment],
            dfg_edges=[(mapping[s], mapping[d]) for s, d in inp.dfg_edges],
            n_code=inp.n_code, n_nodes=inp.n_nodes)
        h1, _ = forward_hidden(inp, params, tiny_config)
        h2, _ = forward_hidden(other, params, tiny_config)
        logits1 = h1[0] @ params["cls_w"]
        logits2 = h2[0] @ params["cls_w"]
        assert np.allclose(logits1, logits2, atol=1e-8)


# --- classification head -----------------------------------------------------

def test_zero_classifier_gives_even_split(tiny_config):
    params = init_params(tiny_config, vocab_size=24)
    params["cls_w"] = np.zeros_like(params["cls_w"])
    rng = np.random.default_rng(5)
    inp = random_model_input(rng, code_len=tiny_config.code_len,
                             flow_len=tiny_config.flow_len)
    pred = forward(inp, params, tiny_config, threshold=0.5)
    assert pred.probabilities[0] == pytest.approx(0.5, abs=1e-12)
    assert pred.probabilities[1] == pytest.approx(0.5, abs=1e-12)
    assert pred.label == 1  # p1 >= threshold at equality
    pred2 = forward(inp, params, tiny_config, threshold=0.51)
    assert pred2.label == 0


def test_prediction_is_deterministic(tiny_config):
    params = init_params(tiny_config, vocab_size=24)
    rng = np.random.default_rng(6)
    inp = random_model_input(rng, code_len=tiny_config.code_len,
                             flow_len=tiny_config.flow_len)
    a = forward(inp, params, tiny_config)
    b = forward(inp, params, tiny_config)
    assert np.array_equal(a.probabilities, b.probabilities)
    assert a.label == b.label


def test_probabilities_sum_to_one(tiny_config):
    params = init_params(tiny_config, vocab_size=24)
    rng = np.random.default_rng(7)
    for _ in range(5):
        inp = random_model_input(rng, code_len=tiny_config.code_len,
                                 flow_len=tiny_config.flow_len)
        pred = forward(inp, params, tiny_config)
        assert pred.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


# --- embeddings and parameters -----------------------------------------------

def test_embed_rejects_out_of_range_ids(tiny_config):
    params = init_params(tiny_config, vocab_size=24)
    rng = np.random.default_rng(8)
    inp = random_model_input(rng, code_len=tiny_config.code_len,
                             flow_len=tiny_config.flow_len)
    inp.token_ids[0] = 24
    with pytest.raises(IdOutOfRange):
        embed(inp, params)
    inp.token_ids[0] = -1
    with pytest.raises(IdOutOfRange):
        embed(inp, params)


def test_nonfinite_hidden_states_raise(tiny_config):
    params = init_params(tiny_config, vocab_size=24)
    params["layer0.ffn_w2"][:] = np.inf
    rng = np.random.default_rng(9)
    inp = random_model_input(rng, code_len=tiny_config.code_len,
                             flow_len=tiny_config.flow_len)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteActivation):
        forward_hidden(inp, params, tiny_config)


def test_forward_raises_nonfinite_activation(tiny_config):
    params = init_params(tiny_config, vocab_size=24)
    params["layer0.ffn_w2"][:] = np.inf
    rng = np.random.default_rng(9)
    inp = random_model_input(rng, code_len=tiny_config.code_len,
                             flow_len=tiny_config.flow_len)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteActivation):
        forward(inp, params, tiny_config)


def test_forward_probabilities_are_softmax_of_forward_hidden_cls(tiny_config):
    params = init_params(tiny_config, vocab_size=24)
    rng = np.random.default_rng(10)
    for _ in range(5):
        inp = random_model_input(rng, code_len=tiny_config.code_len,
                                 flow_len=tiny_config.flow_len)
        H, _ = forward_hidden(inp, params, tiny_config)
        expected = softmax_rows(H[0] @ params["cls_w"])
        assert np.array_equal(forward(inp, params, tiny_config).probabilities, expected)


def test_forward_peak_memory_is_about_one_attention_buffer():
    """forward holds one layer's (heads, n, n) scores at a time: its traced
    peak stays within 3 such buffers however many layers there are (keeping
    every layer's attention plus softmax temporaries took over 6)."""
    config = ModelConfig()
    rng = np.random.default_rng(0)
    source = "\n\n".join(datasynth.make_source(label, rng) for label in (1, 0, 0, 1, 0, 0))
    records = [ContractRecord(idx=1, source=source, label=1)]
    vocab = build_vocab(records, 2048)
    inp = encode_records(records, vocab, config)[0]
    n = len(inp)
    assert n >= 300
    params = init_params(config, len(vocab))
    forward(inp, params, config)
    tracemalloc.start()
    try:
        forward(inp, params, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * config.n_heads * n * n * 8


def test_init_params_structure(tiny_config):
    params = init_params(tiny_config, vocab_size=24)
    shapes = param_shapes(tiny_config, 24)
    assert set(params) == set(shapes)
    for name, arr in params.items():
        assert arr.shape == shapes[name]
        assert arr.dtype == np.float64
        base = name.rsplit(".", 1)[-1]
        if base.endswith("_b") or base.startswith("ffn_b"):
            assert not arr.any()
        elif base.endswith("_g"):
            assert (arr == 1.0).all()
        else:
            assert abs(arr.std() - 0.02) < 0.02


def test_init_params_seeded_determinism(tiny_config):
    a = init_params(tiny_config, vocab_size=24)
    b = init_params(tiny_config, vocab_size=24)
    for name in a:
        assert np.array_equal(a[name], b[name])


def test_param_count_formula():
    config = ModelConfig(n_layers=1, d_h=8, n_heads=2, d_ff=16,
                         code_len=8, flow_len=2, seed=0)
    total = sum(int(np.prod(s)) for s in param_shapes(config, 32).values())
    # tok 32*8 + pos 11*8 + cls 8*2 + attn 4*64 + ffn 128+16+128+8 + ln 4*8
    assert total == 928


def test_validate_same_shapes_raises(tiny_config):
    a = init_params(tiny_config, vocab_size=24)
    b = init_params(tiny_config, vocab_size=25)
    with pytest.raises(ShapeMismatch):
        validate_same_shapes(a, b)
    c = zeros_like_params(a)
    del c["cls_w"]
    with pytest.raises(ShapeMismatch):
        validate_same_shapes(a, c)


def test_config_validation():
    with pytest.raises(ShapeMismatch):
        ModelConfig(d_h=10, n_heads=4)
    with pytest.raises(ShapeMismatch):
        ModelConfig(n_layers=0)
    cfg = ModelConfig(d_h=12, n_heads=3, code_len=8, flow_len=2)
    assert cfg.d_k == 4
    assert cfg.n_positions == 11
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
