"""Attention permission matrix vs an independent per-entry oracle."""

from __future__ import annotations

import numpy as np

from ponziscan.dfg import extract_dfg
from ponziscan.encoding import (
    SEG_CLS,
    SEG_CODE,
    SEG_NODE,
    SEG_SEP,
    build_mask,
    build_vocab,
    encode_input,
)
from ponziscan.solparse.lexer import lex
from ponziscan.solparse.parser import parse

from helpers import mask_oracle, random_model_input


def encode(source: str, code_len: int = 16, flow_len: int = 8):
    vocab = build_vocab([source if source else "a;"], cap=256)
    tokens = lex(source)
    return encode_input(tokens, extract_dfg(parse(tokens)), vocab,
                        code_len=code_len, flow_len=flow_len)


def test_matches_oracle_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(200):
        inp = random_model_input(rng)
        assert np.array_equal(build_mask(inp), mask_oracle(inp))


def test_matches_oracle_on_real_encodings():
    sources = [
        "uint a = b;",
        "x = y; x = z; w = x;",
        "function f(uint c) public { uint x = 1; if (c > 0) { x = 2; }"
        " else { x = 3; } uint y = x; }",
        "contract C { uint total; function f() public payable"
        " { total += msg.value; } }",
        "",
    ]
    for src in sources:
        inp = encode(src)
        assert build_mask(inp).shape == (len(inp), len(inp))
        assert np.array_equal(build_mask(inp), mask_oracle(inp))


def test_single_edge_hand_example():
    inp = encode("uint a = b;", code_len=8, flow_len=4)
    node_base = 2 + inp.n_code
    a_pos, b_pos = node_base, node_base + 1
    allow = build_mask(inp)
    assert allow[a_pos, b_pos]          # a's value comes from b
    assert not allow[b_pos, a_pos]      # never the reverse
    assert allow[a_pos, a_pos] and allow[b_pos, b_pos]


def test_alignment_is_mutual():
    inp = encode("uint a = b;", code_len=8, flow_len=4)
    allow = build_mask(inp)
    for npos, cpos in inp.node_alignment:
        assert allow[npos, cpos]
        assert allow[cpos, npos]


def test_node_to_unaligned_code_forbidden():
    inp = encode("uint a = b;", code_len=8, flow_len=4)
    aligned = set(inp.node_alignment)
    node_rows = np.flatnonzero(inp.segments == SEG_NODE)
    code_cols = np.flatnonzero(inp.segments == SEG_CODE)
    allow = build_mask(inp)
    for i in node_rows:
        for j in code_cols:
            assert allow[i, j] == ((int(i), int(j)) in aligned)


def test_cls_and_sep_see_all_non_pad():
    inp = encode("x = y; z = x;", code_len=16, flow_len=8)
    allow = build_mask(inp)
    for row in (0, 1 + inp.n_code):
        assert allow[row].all()


def test_code_block_dense():
    inp = encode("x = y + z;", code_len=8, flow_len=4)
    code = inp.segments == SEG_CODE
    assert build_mask(inp)[np.ix_(code, code)].all()


def test_every_non_pad_query_can_reach_itself():
    rng = np.random.default_rng(4)
    for _ in range(50):
        inp = random_model_input(rng)
        assert build_mask(inp).diagonal().all()


def test_adding_an_edge_only_opens_one_entry():
    rng = np.random.default_rng(5)
    inp = random_model_input(rng, flow_len=4)
    while inp.n_nodes < 2:
        inp = random_model_input(rng, flow_len=4)
    base = build_mask(inp)
    node_base = 2 + inp.n_code
    new_edge = (node_base, node_base + 1)
    assert new_edge not in inp.dfg_edges
    inp.dfg_edges = inp.dfg_edges + [new_edge]
    grown = build_mask(inp)
    diff = grown & ~base
    assert base[grown].all() or diff.sum() <= 1
    assert grown[new_edge[1], new_edge[0]]


def test_zero_node_instance_reduces_to_code_only_rules():
    inp = encode("return 1 + 2;", code_len=8, flow_len=4)
    assert inp.n_nodes == 0
    allow = build_mask(inp)
    assert np.array_equal(allow, mask_oracle(inp))
    code = inp.segments == SEG_CODE
    assert allow[np.ix_(code, code)].all()
    # code queries still cannot look at the classifier or separator keys
    assert not allow[code, 0].any()
    assert not allow[code, 1 + inp.n_code].any()
