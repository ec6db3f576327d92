"""Encoder numerics: primitives, masked attention, predictions, parameters,
memory."""

from __future__ import annotations

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ponziscan import datasynth
from ponziscan.encoding import SEG_CODE, SEG_NODE, attention_plan, build_mask, build_vocab
from ponziscan.errors import IdOutOfRange, NonFiniteActivation, ShapeMismatch
from ponziscan.model import encoder
from ponziscan.model.config import ModelConfig
from ponziscan.model.encoder import (
    backward_hidden,
    embed,
    erf,
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

from helpers import attention_oracle, random_model_input, random_withdrawn


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


def _ulps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance in units in the last place between float64 arrays, counting
    across zero (+0 and -0 are 0 apart)."""
    def ordered(v):
        bits = np.asarray(v, dtype=np.float64).view(np.int64)
        return np.where(bits < 0, np.int64(np.iinfo(np.int64).min) - bits, bits)
    return np.abs(ordered(a) - ordered(b))


def _erf_edge_cases() -> np.ndarray:
    tiny = np.finfo(np.float64).smallest_subnormal
    near_one = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]
    saturation = np.linspace(5.8, 6.2, 401)
    edges = np.concatenate([[0.0, tiny, 2 * tiny, 1e-310, np.finfo(np.float64).tiny,
                             1e-300, 1e-8], near_one, saturation, [8.0, 1e300]])
    return np.concatenate([edges, -edges])


def test_erf_within_3_ulp_of_math_erf():
    xs = np.concatenate([np.linspace(-7.0, 7.0, 140_001), _erf_edge_cases()])
    want = np.array([math.erf(v) for v in xs])
    got = erf(xs)
    assert _ulps(got, want).max() <= 3
    assert np.array_equal(np.signbit(got), np.signbit(want))  # -0.0 stays -0.0


# Cephes' erf in compiled C (as scipy.special.erf 1.17 returns it): on
# |x| <= 1 the numpy evaluation does the same operations in the same order
CEPHES_ERF = [
    (-1.0, "-0x1.af767a741088ap-1"),
    (-0.9375, "-0x1.a1551a16aaeaep-1"),
    (-0.7, "-0x1.5b08c21171645p-1"),
    (-0.5, "-0x1.0a7ef5c18edd2p-1"),
    (-0.3, "-0x1.50838881dea0fp-2"),
    (-0.125, "-0x1.1f5e1a35c3b8ap-3"),
    (-0.001, "-0x1.27cc3804d374bp-10"),
    (0.001, "0x1.27cc3804d374bp-10"),
    (0.0625, "0x1.207d480e90658p-4"),
    (0.2, "0x1.c8184b8b25f1bp-3"),
    (0.4142135623730951, "0x1.c496a836ccae7p-2"),
    (0.55, "0x1.206beb96e0c0cp-1"),
    (0.8, "0x1.7bf4a85b7fb83p-1"),
    (0.99, "0x1.ad50ee005845bp-1"),
    (1.0, "0x1.af767a741088ap-1"),
]


def test_erf_is_cephes_bit_for_bit_on_the_unit_interval():
    xs = np.array([x for x, _ in CEPHES_ERF])
    assert [v.hex() for v in erf(xs).tolist()] == [
        float.fromhex(h).hex() for _, h in CEPHES_ERF]


def test_erf_non_finite_inputs_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = erf(np.array([np.inf, -np.inf, np.nan, 1e300, -1e300, 3.0]))
    assert got[0] == 1.0 and got[1] == -1.0
    assert np.isnan(got[2])
    assert got[3] == 1.0 and got[4] == -1.0
    assert got[5] == math.erf(3.0)


def test_erf_out_argument():
    """erf runs over blocks of rows; a shape of several blocks, the last
    one short, gives the values of one row at a time, and `out` may be x
    itself."""
    x = np.random.default_rng(4).normal(0.0, 2.0, size=(300, 3, 43))
    want = erf(x)
    assert np.array_equal(want, [erf(row) for row in x])
    into = np.empty_like(x)
    assert erf(x, out=into) is into and np.array_equal(into, want)
    x0 = x.copy()
    assert erf(x, out=x) is x and np.array_equal(x, want)
    assert not np.array_equal(x, x0)


def test_gelu_keeping_phi_is_bitwise_the_plain_gelu():
    """Training's gelu(x, phi=...) and gelu_grad(x, phi) round exactly as
    the one-argument calls, which form Phi themselves."""
    x = np.random.default_rng(5).normal(0.0, 2.0, size=(6, 11))
    phi = np.empty_like(x)
    G = gelu(x, phi=phi)
    assert np.array_equal(G, gelu(x))
    assert np.array_equal(phi, 0.5 * (1.0 + erf(x / np.sqrt(2.0))))
    assert np.array_equal(gelu_grad(x, phi=phi), gelu_grad(x))


def _softmax(x):
    E, s = softmax_rows(x)
    return E / s


def test_softmax_rows_normalized_and_shift_invariant():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 7))
    E, s = softmax_rows(x)
    assert np.array_equal(E.max(axis=-1), np.ones(5)) and (s >= 1.0).all()
    p = E / s
    assert np.allclose(p.sum(axis=-1), 1.0)
    assert np.allclose(_softmax(x + 123.0), p)


def test_softmax_rows_default_leaves_input_alone():
    x = np.random.default_rng(2).normal(size=(2, 5, 7))
    x0 = x.copy()
    softmax_rows(x)
    assert np.array_equal(x, x0)


def test_softmax_rows_in_place_is_bitwise_the_pure_call():
    x = np.random.default_rng(3).normal(size=(2, 5, 7))
    E, s = softmax_rows(x)
    got, got_s = softmax_rows(x, out=x)
    assert got is x
    assert np.array_equal(got, E) and np.array_equal(got_s, s)


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

def _layer_params(rng, d_h: int, d_ff: int, prefix: str = "t.") -> dict:
    params = {prefix + k: rng.normal(size=(d_h, d_h)) * 0.3
              for k in ("wq", "wk", "wv", "wo")}
    params.update({prefix + "ln1_g": np.ones(d_h), prefix + "ln1_b": np.zeros(d_h),
                   prefix + "ln2_g": np.ones(d_h), prefix + "ln2_b": np.zeros(d_h),
                   prefix + "ffn_w1": rng.normal(size=(d_h, d_ff)) * 0.3,
                   prefix + "ffn_b1": np.zeros(d_ff),
                   prefix + "ffn_w2": rng.normal(size=(d_ff, d_h)) * 0.3,
                   prefix + "ffn_b2": np.zeros(d_h)})
    return params


def _plan(inp, rows=slice(None)):
    """The attention plan of build_mask(inp)'s rows `rows`."""
    return attention_plan(build_mask(inp)[rows], inp.segments)


def _attention(W, inp, params, n_heads, rows=slice(None), prefix="t."):
    """The attention sublayer's output (ctx wo) for the query rows."""
    caches = []
    layer_forward(W, _plan(inp, rows), params, prefix, n_heads, rows=rows, caches=caches)
    return caches[0]["ctx"] @ params[prefix + "wo"]


def _withdrawn_cases(rng, count: int):
    """random_model_input instances with random withdrawn sets; asserts
    that the sweep held each case the plan treats apart."""
    seen = {"empty node row": 0, "code row without its node": 0,
            "code-code entry": 0, "[CLS] entry": 0}
    cases = []
    for _ in range(count):
        inp = random_withdrawn(random_model_input(rng), rng)
        allow, seg = build_mask(inp), inp.segments
        seen["empty node row"] += int(any(not allow[r].any()
                                          for r in np.flatnonzero(seg == SEG_NODE)))
        seen["code row without its node"] += int(any(
            (c, n) in inp.withdrawn for n, c in inp.node_alignment))
        seen["code-code entry"] += int(any(seg[q] == SEG_CODE and seg[k] == SEG_CODE
                                           for q, k in inp.withdrawn))
        seen["[CLS] entry"] += int(any(q == 0 for q, _ in inp.withdrawn))
        cases.append(inp)
    assert all(seen.values()), seen
    return cases


def test_masked_attention_matches_oracle():
    """The attention of every row equals the per-entry oracle over
    build_mask, with withdrawn entries anywhere in the mask."""
    rng = np.random.default_rng(2)
    d_h, n_heads = 8, 2
    params = _layer_params(rng, d_h, 16)
    wq, wk, wv, wo = (params["t." + k] for k in ("wq", "wk", "wv", "wo"))
    for inp in _withdrawn_cases(rng, 60):
        W = rng.normal(size=(len(inp), d_h))
        want = attention_oracle(W, build_mask(inp), wq, wk, wv, wo, n_heads)
        assert np.allclose(_attention(W, inp, params, n_heads), want, rtol=0.0, atol=1e-10)


def test_forbidden_attention_weights_vanish():
    """Moving the keys a row may not attend leaves that row's attention
    bit-identical, and it still equals the oracle; a row with no allowed
    key attends every key."""
    rng = np.random.default_rng(3)
    d_h, n_heads = 8, 2
    params = _layer_params(rng, d_h, 16)
    wq, wk, wv, wo = (params["t." + k] for k in ("wq", "wk", "wv", "wo"))
    for inp in _withdrawn_cases(rng, 40):
        allow = build_mask(inp)
        W = rng.normal(size=(len(inp), d_h))
        attn = _attention(W, inp, params, n_heads)
        want = attention_oracle(W, allow, wq, wk, wv, wo, n_heads)
        for q in range(len(inp)):
            forbidden = ~allow[q] if allow[q].any() else np.zeros(len(inp), dtype=bool)
            forbidden[q] = False
            moved = W.copy()
            moved[forbidden] += rng.normal(scale=10.0, size=(int(forbidden.sum()), d_h))
            again = _attention(moved, inp, params, n_heads)
            assert np.array_equal(again[q], attn[q])
            assert np.allclose(again[q], want[q], rtol=0.0, atol=1e-10)


def test_attention_plan_row_kinds(long_input):
    """[CLS] and [SEP] score every key; code rows score the code block plus
    at most their aligned node; node rows list themselves, their edge
    sources and their aligned token. A node row whose keys are all
    withdrawn scores every key, and a code row that loses a code key lists
    its keys."""
    _, inp, _ = long_input
    n, sep = len(inp), 1 + inp.n_code
    positions = np.arange(n)
    wide, code, listed = _plan(inp)
    assert positions[wide.out].tolist() == [0, sep] and wide.block == slice(None)
    assert positions[code.out].tolist() == list(range(1, sep)) and code.block == slice(1, sep)
    assert code.keys.shape == (inp.n_code, 1)
    assert positions[listed.out].tolist() == list(range(sep + 1, n))
    assert listed.block == slice(0, 0)
    allow = build_mask(inp)
    for part in (code, listed):
        for r, keys, pad in zip(positions[part.out], part.keys, part.pad):
            block = positions[part.block]
            assert sorted([*block, *keys[~pad]]) == np.flatnonzero(allow[r]).tolist()

    node = sep + 1
    keys = np.flatnonzero(allow[node])
    emptied = replace(inp, withdrawn=tuple((node, int(k)) for k in keys) + ((2, 3),))
    wide, code, listed = _plan(emptied)
    assert positions[wide.out].tolist() == [0, sep, node]
    listed_rows = positions[listed.out].tolist()
    assert 2 not in positions[code.out] and 2 in listed_rows and node not in listed_rows
    i = listed_rows.index(2)
    assert listed.keys[i][~listed.pad[i]].tolist() == np.flatnonzero(build_mask(emptied)[2]).tolist()


def test_attention_plan_of_some_rows_covers_each_row_once():
    """Planning rows of the mask, in order: every row, [CLS] alone, one
    listed row, a row with no allowed key, and random sorted subsets. Each
    planned row is in exactly one part; its block plus its unpadded keys
    are its allowed keys (every key for a wide row, which lists none), and
    the mask is not written."""
    rng = np.random.default_rng(5)
    seen = {"listed row": 0, "row with no key": 0}
    for inp in _withdrawn_cases(rng, 40):
        allow, n = build_mask(inp), len(inp)
        untouched = allow.copy()
        positions, is_code = np.arange(n), inp.segments == SEG_CODE
        empty = np.flatnonzero(~allow.any(axis=1))
        listed = np.flatnonzero(allow.any(axis=1) & ~allow.all(axis=1)
                                & ~(is_code.any() & allow[:, is_code].all(axis=1)))
        subsets = [slice(None), slice(0, 1), *(np.sort(rng.choice(n, size=k, replace=False))
                                               for k in (1, n // 3, n - 1))]
        if len(listed):
            subsets.append(rng.choice(listed, size=1))
            seen["listed row"] += 1
        if len(empty):
            subsets.append(empty[:1])
            seen["row with no key"] += 1
        for rows in subsets:
            mine = allow[rows]
            planned = np.zeros(len(mine), dtype=int)
            for part in attention_plan(mine, inp.segments):
                at = np.arange(len(mine))[part.out]
                planned[at] += 1
                assert part.keys.shape == part.pad.shape and len(part.keys) == len(at)
                for i, keys, pad in zip(at, part.keys, part.pad):
                    row = mine[i]
                    if row.all() or not row.any():
                        assert part.block == slice(None) and not (~pad).any()
                        want = positions
                    else:
                        code_row = is_code.any() and row[is_code].all()
                        block = positions[is_code] if code_row else positions[:0]
                        assert np.array_equal(positions[part.block], block)
                        want = np.flatnonzero(row)
                    assert sorted([*positions[part.block], *keys[~pad]]) == want.tolist()
            assert (planned == 1).all()
            assert np.array_equal(allow, untouched)
    assert all(seen.values()), seen


def test_encoder_rejects_out_of_range_positions(tiny_config):
    params = init_params(tiny_config, vocab_size=24)
    rng = np.random.default_rng(11)
    inp = random_model_input(rng, code_len=tiny_config.code_len,
                             flow_len=tiny_config.flow_len)
    for bad in (replace(inp, dfg_edges=inp.dfg_edges + [(-3, -2)]),
                replace(inp, withdrawn=((0, len(inp)),))):
        with pytest.raises(IdOutOfRange):
            forward(bad, params, tiny_config)
        with pytest.raises(IdOutOfRange):
            forward_hidden(bad, params, tiny_config)


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
        expected = _softmax(H[0] @ params["cls_w"])
        assert np.array_equal(forward(inp, params, tiny_config).probabilities, expected)


def test_forward_peak_memory_is_about_one_attention_buffer():
    """forward holds at most one layer's attention weights at a time, and
    only until that layer's A V is formed: its traced peak stays within 1.5
    (heads, n, n) buffers however many layers there are (keeping every
    layer's attention plus softmax temporaries took over 6, and dense
    attention scores with their weights held through the FFN 2.5)."""
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
    assert peak <= 1.5 * config.n_heads * n * n * 8


# --- [CLS]-row final layer at the default shape --------------------------------

@pytest.fixture(scope="module")
def long_input():
    """One multi-contract input of over 300 slots at the default ModelConfig,
    with seeded and with perturbed parameters (probabilities far from 0.5)."""
    config = ModelConfig()
    rng = np.random.default_rng(0)
    source = "\n\n".join(datasynth.make_source(label, rng) for label in (1, 0, 0, 1, 0, 0))
    records = [ContractRecord(idx=1, source=source, label=1)]
    vocab = build_vocab(records, 2048)
    inp = encode_records(records, vocab, config)[0]
    assert len(inp) >= 300
    params = init_params(config, len(vocab))
    perturbed = {k: v + rng.normal(scale=0.5, size=v.shape) for k, v in params.items()}
    return config, inp, (params, perturbed)


def test_forward_cls_row_matches_forward_hidden_at_default_shape(long_input):
    """The final layer of forward computes row 0 only; one-row matmuls may
    round differently from the all-rows pass, in the last digits only."""
    config, inp, param_sets = long_input
    spread = []
    for params in param_sets:
        H, _ = forward_hidden(inp, params, config)
        expected = _softmax(H[0] @ params["cls_w"])
        got = forward(inp, params, config).probabilities
        assert np.allclose(got, expected, rtol=0.0, atol=1e-12)
        spread.append(abs(expected[1] - 0.5))
    assert max(spread) > 0.1


def test_layer_forward_cls_row_equals_row_0_of_all_rows(long_input):
    """rows=slice(0, 1) gives row 0 of the all-rows layer, and its
    attention equals the oracle's row 0, also when row 0 has withdrawn
    keys and when it has no allowed key at all: on random_model_input
    instances, and on a default-shape input over 300 slots."""
    rng = np.random.default_rng(1)
    d_h, n_heads = 8, 2
    small = _layer_params(rng, d_h, 16)
    wq, wk, wv, wo = (small["t." + k] for k in ("wq", "wk", "wv", "wo"))
    for inp in _withdrawn_cases(rng, 30):
        n = len(inp)
        some = inp.withdrawn + tuple((0, int(k)) for k in np.flatnonzero(rng.random(n) < 0.5))
        none = inp.withdrawn + tuple((0, k) for k in range(n))
        W = rng.normal(size=(n, d_h))
        for case in (inp, replace(inp, withdrawn=some), replace(inp, withdrawn=none)):
            full = layer_forward(W, _plan(case), small, "t.", n_heads)
            row = layer_forward(W, _plan(case, slice(0, 1)), small, "t.", n_heads,
                                rows=slice(0, 1))
            assert np.allclose(row, full[:1], rtol=0.0, atol=1e-12)
            want = attention_oracle(W, build_mask(case), wq, wk, wv, wo, n_heads)
            assert np.allclose(_attention(W, case, small, n_heads, rows=slice(0, 1)),
                               want[:1], rtol=0.0, atol=1e-10)

    config, inp, param_sets = long_input
    n = len(inp)
    some = replace(inp, withdrawn=tuple((0, int(k)) for k in np.flatnonzero(rng.random(n) < 0.5)))
    none = replace(inp, withdrawn=tuple((0, k) for k in range(n)))
    assert build_mask(inp)[0].all() and not build_mask(some)[0].all()
    assert not build_mask(none)[0].any()
    for params in param_sets:
        W = embed(inp, params)
        for i in range(config.n_layers):
            prefix = f"layer{i}."
            for case in (inp, some, none):
                full = layer_forward(W, _plan(case), params, prefix, config.n_heads)
                row = layer_forward(W, _plan(case, slice(0, 1)), params, prefix,
                                    config.n_heads, rows=slice(0, 1))
                assert row.shape == (1, config.d_h)
                assert np.allclose(row, full[:1], rtol=0.0, atol=1e-12)
            W = layer_forward(W, _plan(inp), params, prefix, config.n_heads)


def _row_sets(inp):
    """(input, rows) cases: rows holding the first and the last slot; rows
    holding a node whose every key is withdrawn; a single node row."""
    n, node = len(inp), 2 + inp.n_code
    keys = np.flatnonzero(build_mask(inp)[node + 1])
    forbidden = replace(inp, withdrawn=tuple((node + 1, int(k)) for k in keys))
    assert not build_mask(forbidden)[node + 1].any()
    return [(inp, np.array([0, 3, node, n - 1])),
            (forbidden, np.array([1, node + 1, node + 2])),
            (inp, np.array([node + 4]))]


def test_forward_hidden_rows_equal_those_rows_of_all_rows(long_input):
    config, inp, param_sets = long_input
    for params in param_sets:
        for case, rows in _row_sets(inp):
            full, _ = forward_hidden(case, params, config)
            part, _ = forward_hidden(case, params, config, rows=rows)
            assert part.shape == (len(rows), config.d_h)
            assert np.allclose(part, full[rows], rtol=0.0, atol=1e-12)


def test_backward_from_rows_equals_backward_with_zero_dh_elsewhere(long_input):
    """Gradients from a pruned pass equal those of the all-rows pass whose
    dH is zero outside the rows."""
    config, inp, param_sets = long_input
    rng = np.random.default_rng(2)
    for params in param_sets:
        for case, rows in _row_sets(inp):
            dH_rows = rng.normal(size=(len(rows), config.d_h))
            pruned = zeros_like_params(params)
            _, caches = forward_hidden(case, params, config, rows=rows)
            backward_hidden(dH_rows, case, caches, params, config, pruned)
            full = zeros_like_params(params)
            H, caches = forward_hidden(case, params, config)
            dH = np.zeros_like(H)
            dH[rows] = dH_rows
            backward_hidden(dH, case, caches, params, config, full)
            for name in full:
                assert np.allclose(pruned[name], full[name],
                                   rtol=0.0, atol=1e-12), name


def test_backward_from_rows_matches_a_directional_difference(long_input):
    """An oracle that shares no code with layer_backward: the pruned
    gradients, projected on a random direction D of every parameter, equal
    the central difference of <dH, forward_hidden(rows)> along D."""
    config, inp, param_sets = long_input
    rng = np.random.default_rng(3)
    eps = 1e-6
    for params in param_sets:
        for case, rows in _row_sets(inp):
            dH_rows = rng.normal(size=(len(rows), config.d_h))
            grads = zeros_like_params(params)
            _, caches = forward_hidden(case, params, config, rows=rows)
            backward_hidden(dH_rows, case, caches, params, config, grads)
            D = {k: rng.normal(size=v.shape) for k, v in params.items()}

            def probe(step):
                moved = {k: v + step * D[k] for k, v in params.items()}
                H, _ = forward_hidden(case, moved, config, rows=rows)
                return float((dH_rows * H).sum())

            fd = (probe(eps) - probe(-eps)) / (2 * eps)
            an = sum(float((grads[k] * D[k]).sum()) for k in params)
            assert abs(an - fd) <= 1e-5 * abs(fd)


def test_backward_peak_memory_is_under_two_cached_attention_buffers(long_input):
    """backward_hidden forms the scores' gradient a block of query rows at
    a time and takes the softmax term from the context, so above its entry
    it holds less than twice layer 0's cached exponentials (the dense
    gradient and its product with the weights, kept whole, took over 3)."""
    config, inp, (params, _) = long_input
    H, caches = forward_hidden(inp, params, config)
    cached = sum(E.nbytes for E, _, _ in caches[0]["attended"])
    dH = np.random.default_rng(4).normal(size=H.shape)
    grads = zeros_like_params(params)
    tracemalloc.start()
    try:
        backward_hidden(dH, inp, caches, params, config, grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * cached


def test_backward_in_one_row_blocks_equals_one_block(long_input, monkeypatch):
    """The attention backward's query blocks change summation order only."""
    config, inp, param_sets = long_input
    dH = np.random.default_rng(5).normal(size=(len(inp), config.d_h))

    def grads_in_blocks_of(elements, params):
        monkeypatch.setattr(encoder, "_ATTN_BLOCK", elements)
        _, caches = forward_hidden(inp, params, config)
        grads = zeros_like_params(params)
        backward_hidden(dH, inp, caches, params, config, grads)
        return grads

    for params in param_sets:
        rows, whole = grads_in_blocks_of(1, params), grads_in_blocks_of(10 ** 9, params)
        for name in whole:
            assert np.allclose(rows[name], whole[name], rtol=0.0, atol=1e-12), name


def test_forward_finiteness_guard_sees_the_cls_row_of_the_last_layer():
    config = ModelConfig(n_layers=2, d_h=8, n_heads=2, d_ff=16, code_len=8,
                         flow_len=2, seed=0)
    params = init_params(config, vocab_size=24)
    params["layer1.ffn_w2"][:] = np.inf
    rng = np.random.default_rng(9)
    inp = random_model_input(rng, code_len=config.code_len,
                             flow_len=config.flow_len)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteActivation):
        forward(inp, params, config)


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
    assert cfg.n_positions == 11
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
