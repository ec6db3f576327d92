"""Data-flow extraction: frozen edge sets for each rule, plus invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from ponziscan.dfg import DataFlowGraph, DfEdge, extract_dfg, to_dot, to_jsonable
from ponziscan.solparse.lexer import lex
from ponziscan.solparse.parser import parse


def dfg_of(source: str) -> DataFlowGraph:
    tokens = lex(source)
    return extract_dfg(parse(tokens))


def names(g: DataFlowGraph) -> list[str]:
    return [f"{v.name}_{v.occurrence}" for v in g.vars]


def edges(g: DataFlowGraph) -> list[tuple[int, int]]:
    return [(e.src, e.dst) for e in g.edges]


# --- one frozen fixture per extraction rule --------------------------------

def test_decl_with_initializer():
    g = dfg_of("uint a = b;")
    assert names(g) == ["a_1", "b_1"]
    assert edges(g) == [(1, 0)]


def test_placeholder_named_decl_still_reads_its_initializer():
    # `_` is never a variable, so nothing is declared, but `b` is a use
    g = dfg_of("uint b = 1; uint _ = b;")
    assert names(g) == ["b_1", "b_2"]
    assert edges(g) == [(0, 1)]


def test_assignment_strong_update():
    g = dfg_of("x = y; x = z; w = x;")
    assert names(g) == ["x_1", "y_1", "x_2", "z_1", "w_1", "x_3"]
    assert edges(g) == [(1, 0), (2, 5), (3, 2), (5, 4)]


def test_state_var_assign_then_use():
    g = dfg_of("contract C { uint a; function f() public { a = 1; uint b = a; } }")
    assert names(g) == ["a_1", "a_2", "b_1", "a_3"]
    assert edges(g) == [(1, 3), (3, 2)]


def test_compound_assignment_self_update():
    g = dfg_of("contract C { uint total; function f() public payable { total += msg.value; } }")
    assert names(g) == ["total_1", "total_2", "msg.value_1"]
    assert edges(g) == [(0, 1), (2, 1)]


def test_if_else_union_merge():
    g = dfg_of("function f(uint c) public { uint x = 1; if (c > 0) { x = 2; }"
               " else { x = 3; } uint y = x; }")
    assert names(g) == ["c_1", "x_1", "c_2", "x_2", "x_3", "y_1", "x_4"]
    assert edges(g) == [(0, 2), (3, 6), (4, 6), (6, 5)]


def test_while_loop_back_edges():
    g = dfg_of("function f() public { uint i = 0; uint s = 0;"
               " while (i < 10) { s = s + i; i = i + 1; } uint t = s; }")
    assert names(g) == ["i_1", "s_1", "i_2", "s_2", "s_3", "i_3",
                        "i_4", "i_5", "t_1", "s_4"]
    assert edges(g) == [(0, 2), (0, 5), (0, 7), (1, 4), (1, 9), (3, 4), (3, 9),
                        (4, 3), (5, 3), (6, 2), (6, 5), (6, 7), (7, 6), (9, 8)]


def test_for_loop_self_updates():
    g = dfg_of("function f(uint n) public { uint s = 0;"
               " for (uint i = 0; i < n; i++) { s += i; } }")
    assert names(g) == ["n_1", "s_1", "i_1", "i_2", "n_2", "i_3", "s_2", "i_4"]
    assert edges(g) == [(0, 4), (1, 6), (2, 3), (2, 5), (2, 7), (5, 3),
                        (5, 5), (5, 7), (6, 6), (7, 6)]


def test_call_arguments_feed_target():
    g = dfg_of("function f() public { uint r = add(a, b); }")
    assert names(g) == ["r_1", "a_1", "b_1"]
    assert edges(g) == [(1, 0), (2, 0)]


def test_indexed_target_weak_update():
    g = dfg_of("contract C { mapping(address => uint) m; function f(uint x) public"
               " { m[msg.sender] = x; uint y = m[msg.sender]; } }")
    assert names(g) == ["m_1", "x_1", "m_2", "msg.sender_1", "x_2", "y_1",
                        "m_3", "msg.sender_2"]
    assert edges(g) == [(0, 2), (0, 6), (1, 4), (2, 6), (4, 2), (6, 5), (7, 5)]


def test_builtin_members_are_source_only():
    g = dfg_of("function f() public { msg.sender = x; }")
    assert names(g) == ["msg.sender_1", "x_1"]
    assert edges(g) == []


def test_state_variables_thread_across_functions():
    g = dfg_of("contract C { uint a = 5;"
               " function f() public { a = 1; }"
               " function g() public { uint b = a; }"
               " function h() public { uint a = 2; }"
               " function k() public { uint c = a; } }")
    assert names(g) == ["a_1", "a_2", "b_1", "a_3", "a_4", "c_1", "a_5"]
    assert edges(g) == [(1, 3), (1, 6), (3, 2), (6, 5)]


def test_tuple_target_index_is_read_before_any_target_is_defined():
    g = dfg_of("x = 1; (x, m[x]) = g();")
    assert names(g) == ["x_1", "x_2", "m_1", "x_3"]
    assert edges(g) == [(0, 3)]  # x_1 -> x_3, not x_2 -> x_3


def test_tuple_targets_each_take_every_source():
    g = dfg_of("(a, b) = f(c);")
    assert names(g) == ["a_1", "b_1", "c_1"]
    assert edges(g) == [(2, 0), (2, 1)]


def test_tuple_target_with_a_hole():
    g = dfg_of("(x, , y) = (1, 2, 3);")
    assert names(g) == ["x_1", "y_1"]
    assert edges(g) == []


@pytest.mark.parametrize("stmt", ["m[k]++;", "++m[k];", "delete m[k];"])
def test_indexed_increment_and_delete(stmt):
    g = dfg_of(stmt)
    assert names(g) == ["m_1", "k_1"]
    assert edges(g) == []
    # a weak update: the earlier m_1 still reaches the later use
    g = dfg_of(f"m = 1; {stmt} y = m;")
    assert names(g) == ["m_1", "m_2", "k_1", "y_1", "m_3"]
    assert edges(g) == [(0, 1), (0, 4), (1, 4), (4, 3)]


def test_delete_member_is_a_weak_update():
    g = dfg_of("delete s.x;")
    assert names(g) == ["s_1"]
    assert edges(g) == []
    g = dfg_of("s = 1; delete s.x; y = s;")
    assert names(g) == ["s_1", "s_2", "y_1", "s_3"]
    assert edges(g) == [(0, 1), (0, 3), (1, 3), (3, 2)]


def test_delete_variable_is_a_strong_update_without_a_read():
    g = dfg_of("x = 1; delete x; y = x;")
    assert names(g) == ["x_1", "x_2", "y_1", "x_3"]
    assert edges(g) == [(1, 3), (3, 2)]


def test_decrement_reads_then_redefines():
    g = dfg_of("x = 1; x--; y = x;")
    assert names(g) == ["x_1", "x_2", "y_1", "x_3"]
    assert edges(g) == [(0, 1), (1, 3), (3, 2)]


def test_increment_without_a_variable_base_passes_its_sources_on():
    g = dfg_of("y = this.m[k]++;")
    assert names(g) == ["y_1", "k_1"]
    assert edges(g) == [(1, 0)]  # k_1 -> y_1


def test_parenthesised_increment_is_a_use():
    assert edges(dfg_of("(x)++;")) == []
    g = dfg_of("x = 1; (x)++; y = x;")
    assert names(g) == ["x_1", "x_2", "y_1", "x_3"]
    assert edges(g) == [(0, 1), (0, 3), (3, 2)]  # x_1 still reaches x_3


def test_bare_modifier_argument_is_a_use():
    g = dfg_of("function f() public only(s) {}")
    assert names(g) == ["s_1"]
    assert edges(g) == []
    g = dfg_of("uint s = 1; function f() public only(s) {}")
    assert names(g) == ["s_1", "s_2"]
    assert edges(g) == [(0, 1)]


def test_parameter_shadows_a_top_level_definition_for_one_function():
    g = dfg_of("uint t = 1; function f(uint t) public { t = 2; }"
               " function g() public { uint u = t; }")
    assert names(g) == ["t_1", "t_2", "t_3", "u_1", "t_4"]
    assert edges(g) == [(0, 4), (4, 3)]  # t_1 -> t_4


def test_inheritance_argument_definition_reaches_every_member():
    g = dfg_of("contract A is B(x = 1) { function f() public { y = x; }"
               " function g() public { z = x; } }")
    assert names(g) == ["x_1", "y_1", "x_2", "z_1", "x_3"]
    assert edges(g) == [(0, 2), (0, 4), (2, 1), (4, 3)]  # x_1 -> x_3 too


def test_state_initializer_definition_reaches_every_member():
    g = dfg_of("contract A { uint a = b = 1; function f() public { y = b; }"
               " function g() public { z = b; } }")
    assert names(g) == ["a_1", "b_1", "y_1", "b_2", "z_1", "b_3"]
    assert edges(g) == [(1, 0), (1, 3), (1, 5), (3, 2), (5, 4)]  # b_1 -> b_3 too


def test_fee_and_net_payout_fragment():
    g = dfg_of("function pay(uint amount) public { uint fee = amount / 100;"
               " uint net = amount - fee; owner.transfer(fee); }")
    assert names(g) == ["amount_1", "fee_1", "amount_2", "net_1", "amount_3",
                        "fee_2", "owner_1", "fee_3"]
    assert edges(g) == [(0, 2), (0, 4), (1, 5), (1, 7), (2, 1), (4, 3), (5, 3)]


# --- structural invariants --------------------------------------------------

def test_empty_graph_dot():
    assert to_dot(dfg_of("")) == "digraph dfg {\n}\n"


def test_dot_contains_declared_nodes_and_edges():
    dot = to_dot(dfg_of("uint a = b;"))
    assert dot.startswith("digraph dfg {\n")
    assert '  "a_1";' in dot
    assert '  "b_1";' in dot
    assert '  "b_1" -> "a_1";' in dot
    assert dot.endswith("}\n")


def test_jsonable_shape():
    data = to_jsonable(dfg_of("uint a = b;"))
    assert data["edges"] == [[1, 0]]
    assert data["vars"][0]["name"] == "a"
    assert data["alignment"] == [[0, 1], [1, 3]]


def test_alignment_total_and_source_ordered():
    src = ("contract C { uint a; function f(uint x) public {"
           " a = x + 1; uint y = a; } }")
    g = dfg_of(src)
    assert len(g.alignment) == len(g.vars)
    assert [n for n, _ in g.alignment] == list(range(len(g.vars)))
    code_positions = [c for _, c in g.alignment]
    assert code_positions == sorted(code_positions)
    code = lex(src)
    for v in g.vars:
        root = v.name.split(".")[0]
        assert code[v.code_token_index].text == root


def test_occurrence_numbering_is_per_name():
    g = dfg_of("x = 1; y = x; x = y;")
    assert names(g) == ["x_1", "y_1", "x_2", "x_3", "y_2"]


def test_edges_sorted_and_unique():
    g = dfg_of("function f() public { uint i = 0;"
               " while (i < 3) { i = i + 1; } }")
    pairs = edges(g)
    assert pairs == sorted(set(pairs))


def test_extraction_deterministic():
    src = ("contract P { mapping(address => uint) bal; uint total;"
           " function put() public payable { bal[msg.sender] += msg.value;"
           " total += msg.value; } }")
    a = to_jsonable(dfg_of(src))
    b = to_jsonable(dfg_of(src))
    assert a == b


def test_edge_endpoints_in_range():
    src = ("function f(uint n) public { uint s = 0;"
           " for (uint i = 0; i < n; i++) { if (i > 2) { s += i; } else"
           " { s = s - 1; } } }")
    g = dfg_of(src)
    for e in g.edges:
        assert 0 <= e.src < len(g.vars)
        assert 0 <= e.dst < len(g.vars)


_STMT = st.sampled_from([
    "a = b;", "b = a + c;", "uint d = a * b;", "c += a;",
    "if (a > 0) { b = c; } else { c = b; }",
    "while (a < 9) { a = a + 1; }",
])


@settings(max_examples=30, deadline=None)
@given(st.lists(_STMT, min_size=0, max_size=6))
def test_random_programs_keep_invariants(stmts):
    src = "function f(uint a, uint b, uint c) public { " + " ".join(stmts) + " }"
    g = dfg_of(src)
    seen = set()
    for v in g.vars:
        assert v.node_index == len(seen)
        seen.add((v.name, v.occurrence))
    assert len(seen) == len(g.vars)
    for e in g.edges:
        assert 0 <= e.src < len(g.vars)
        assert 0 <= e.dst < len(g.vars)
    assert len(g.alignment) == len(g.vars)
    assert to_jsonable(dfg_of(src)) == to_jsonable(g)
