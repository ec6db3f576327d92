"""Parser contract: leaf totality, structure, opaque fallback, leaf roles."""

from __future__ import annotations

import pytest

from ponziscan.datasynth import generate_corpus
from ponziscan.errors import DomainError, ParseError, UnbalancedBrackets
from ponziscan.solparse import astnodes as A
from ponziscan.solparse import parser
from ponziscan.solparse.lexer import KIND_IDENTIFIER, Token, is_type_keyword, lex
from ponziscan.solparse.parser import parse as parse_tokens, var_occurrences

from helpers import perfbench_module, time_limit


def parse(source: str):
    return parse_tokens(lex(source))


def walk(node):
    yield node
    for child in node.children:
        yield from walk(child)


def leaves(ast):
    return list(A.iter_leaves(ast))


def assert_leaf_totality(source: str):
    """Every token appears as exactly one leaf, in source order."""
    ast = parse(source)
    toks = lex(source)
    got = [leaf.token.index for leaf in leaves(ast)]
    assert got == [t.index for t in toks]


@pytest.mark.parametrize("source", [
    "",
    "uint a = b;",
    "contract C {}",
    "pragma solidity ^0.4.19;",
    'import "lib.sol";',
    "contract C { uint a; function f() public { a = 1; } }",
    "function f(uint c) public { if (c > 0) { c = 1; } else { c = 2; } }",
    "function f() public { while (x < 10) { x = x + 1; } }",
    "function f() public { for (uint i = 0; i < n; i++) { s += i; } }",
    "function f() public returns (uint) { return a + b; }",
    "function f() public { assembly { let x := mload(0x40) } }",
    "contract C is Base, Other { struct P { uint a; address b; } enum E { X, Y } }",
    "contract C { event Paid(address who, uint amount); modifier only() { _; } }",
    "contract C { mapping(address => uint256) balances; }",
    "function f() public { owner.transfer(msg.value); }",
    "function f() public { (a, b) = (b, a); }",
    "function f() public { delete m[k]; }",
    "contract C { constructor() public { owner = msg.sender; } }",
    "function f() public { do { i++; } while (i < 3); }",
    "interface I { function g() external; } library L { function h() internal {} }",
    "contract C { uint[] xs; function f() public { xs.push(1); emit E(xs[0]); } }",
    "function f() public { require(msg.value > 0, \"no value\"); }",
    "function f() public { uint x = a > b ? a : b; }",
])
def test_leaf_totality(source):
    assert_leaf_totality(source)


def test_empty_source_unit():
    ast = parse("")
    assert ast.kind == A.SOURCE_UNIT
    assert ast.children == []


def test_contract_shape():
    ast = parse("contract C { uint a; }")
    contract = ast.children[0]
    assert contract.kind == A.CONTRACT
    assert A.STATE_VAR in [c.kind for c in contract.children]


def test_function_shape():
    ast = parse("contract C { function f(uint x) public returns (uint) { return x; } }")
    fn = next(c for c in ast.children[0].children if c.kind == A.FUNCTION)
    kinds = [c.kind for c in fn.children]
    assert A.PARAM in kinds
    assert A.BLOCK in kinds


def test_if_else_shape():
    ast = parse("function f() public { if (a) { b = 1; } else { b = 2; } }")
    block = next(c for c in ast.children[0].children if c.kind == A.BLOCK)
    node = next(c for c in block.children if c.kind == A.IF_STMT)
    kinds = [c.kind for c in node.children]
    assert kinds.count(A.BLOCK) == 2


def test_assembly_block_is_single_opaque_statement():
    src = "function f() public { assembly { let x := mload(0x40) } }"
    ast = parse(src)
    block = next(c for c in ast.children[0].children if c.kind == A.BLOCK)
    opaque = [n for n in block.children if n.kind == A.OPAQUE]
    assert len(opaque) == 1
    inner = [leaf.token.text for leaf in A.iter_leaves(opaque[0])]
    assert inner[0] == "assembly" and inner[-1] == "}"


def test_callee_leaf_is_name_not_var():
    ast = parse("function f() public { uint r = add(a, b); }")
    roles = {}
    for leaf in leaves(ast):
        if leaf.token.text in ("add", "a", "b", "r"):
            roles.setdefault(leaf.token.text, leaf.kind)
    assert roles["add"] == A.LEAF_NAME
    assert roles["a"] == A.LEAF_VAR
    assert roles["b"] == A.LEAF_VAR
    assert roles["r"] == A.LEAF_VAR


def test_member_access_roles():
    ast = parse("function f() public { owner.transfer(fee); }")
    roles = [(l.token.text, l.kind) for l in leaves(ast)
             if l.token.text in ("owner", "transfer", "fee")]
    assert ("owner", A.LEAF_VAR) in roles
    assert ("transfer", A.LEAF_NAME) in roles
    assert ("fee", A.LEAF_VAR) in roles


def test_builtin_reference_grouped():
    ast = parse("function f() public { a = msg.sender; }")
    refs = [n for n in walk(ast) if n.kind == A.BUILTIN_REF]
    assert len(refs) == 1
    texts = [l.token.text for l in A.iter_leaves(refs[0])]
    assert texts == ["msg", ".", "sender"]


@pytest.mark.parametrize("expr", ["block.timestamp", "tx.origin", "msg.value"])
def test_builtin_reference_variants(expr):
    ast = parse(f"function f() public {{ a = {expr}; }}")
    refs = [n for n in walk(ast) if n.kind == A.BUILTIN_REF]
    assert len(refs) == 1
    assert "".join(l.token.text for l in A.iter_leaves(refs[0])) == expr


def test_placeholder_underscore_is_name():
    ast = parse("contract C { modifier only() { _; } }")
    underscore = [l for l in leaves(ast) if l.token.text == "_"]
    assert len(underscore) == 1
    assert underscore[0].kind == A.LEAF_NAME


def test_leaf_variable_order():
    ast = parse("uint a = b + c;")
    names = [l.token.text for l in leaves(ast) if l.kind == A.LEAF_VAR]
    assert names == ["a", "b", "c"]


def test_unbalanced_brackets_raise():
    with pytest.raises(UnbalancedBrackets):
        parse("assembly { let x")


def test_mangled_nesting_still_raises_parse_error():
    with pytest.raises(ParseError):
        parse("function f() public { if (a { } }")


def test_parse_error_has_offset():
    with pytest.raises(ParseError) as err:
        parse("contract {")
    assert isinstance(err.value.offset, int)
    assert err.value.offset >= 0


def test_expression_cut_at_the_end_of_input_is_a_parse_error():
    source = "contract C is B(x ="  # inheritance arguments have no fallback
    with pytest.raises(ParseError, match="^expected expression at byte 19 ") as err:
        parse(source)
    assert err.value.offset == len(source)


def test_to_jsonable_shape():
    ast = parse("uint a;")
    data = A.to_jsonable(ast)
    assert data["kind"] == A.SOURCE_UNIT
    assert isinstance(data["children"], list)
    node = data
    while "children" in node:
        node = node["children"][0]
    assert node["text"] == "uint"
    assert node["span"] == [0, 4]


def leaf_walk_jsonable(node):
    """to_jsonable as first defined: each inner node's span read off a walk
    of all the leaves below it."""
    if node.is_leaf:
        return {"kind": node.kind, "span": [node.token.start, node.token.end],
                "text": node.token.text}
    below = leaves(node)
    span = [below[0].token.start, below[-1].token.end] if below else [0, 0]
    return {"kind": node.kind, "span": span,
            "children": [leaf_walk_jsonable(c) for c in node.children]}


def test_to_jsonable_matches_leaf_walk_on_corpus_and_deep_chain():
    sources = [r.source for r in generate_corpus(64, 16, 0)]
    sources.append("function f() public { x = " + " + ".join(["a"] * 145) + "; }")
    for source in sources:
        ast = parse(source)
        assert A.to_jsonable(ast) == leaf_walk_jsonable(ast)


def test_to_jsonable_spans_skip_children_without_leaves():
    def tok(text, start):
        return Token(KIND_IDENTIFIER, text, start, start + len(text), start)

    empty = A.AstNode(A.BLOCK)
    inner = A.AstNode(A.EXPR_STMT, [A.AstNode(A.BLOCK, [A.AstNode(A.TUPLE)]),
                                    A.AstNode(A.LEAF_VAR, token=tok("ab", 3))])
    root = A.AstNode(A.SOURCE_UNIT, [empty, inner, A.AstNode(A.LEAF_VAR, token=tok("c", 7)),
                                     A.AstNode(A.BLOCK)])
    data = A.to_jsonable(root)
    assert data == leaf_walk_jsonable(root)
    assert data["span"] == [3, 8]
    assert data["children"][0]["span"] == [0, 0]
    assert data["children"][1]["span"] == [3, 5]
    assert A.to_jsonable(empty) == {"kind": A.BLOCK, "span": [0, 0], "children": []}


@pytest.mark.parametrize("stray", [")", "]"])
def test_stray_closer_in_contract_body_is_opaque_leaf(stray):
    with time_limit(2):
        ast = parse(f"contract C {{ {stray} }}")
    contract = ast.children[0]
    opaque = [c for c in contract.children if c.kind == A.OPAQUE]
    assert len(opaque) == 1
    assert [(l.kind, l.token.text) for l in leaves(opaque[0])] == [(A.LEAF_PUNCT, stray)]
    assert [l.token.text for l in leaves(contract)][-1] == "}"


def test_var_occurrences_are_the_var_leaves_in_order():
    ast = parse("contract C { uint a; function f(uint x) public {"
                " a = x + msg.value; owner.transfer(a); _; } }")
    found = var_occurrences(ast)
    assert [leaf for leaf, _ in found] == [l for l in leaves(ast) if l.kind == A.LEAF_VAR]
    assert [name for _, name in found] == ["a", "x", "a", "x", "msg.value", "owner", "a"]


def test_builtin_ref_named_alike_in_expression_and_opaque_code():
    parsed = parse("function f() public { a = msg.sender; }")
    opaque = parse("function f() public { assembly { let x := msg.sender } }")
    assert [n for n in walk(opaque) if n.kind == A.OPAQUE]
    for ast in (parsed, opaque):
        refs = [n for n in walk(ast) if n.kind == A.BUILTIN_REF]
        assert len(refs) == 1
        assert [name for leaf, name in var_occurrences(ast)
                if leaf is refs[0].children[0]] == ["msg.sender"]


# Constructs the grammar handles without the opaque fallback: each source
# with the graph node names (var_occurrences) it must give.
@pytest.mark.parametrize("source, node_names", [
    ("contract A is B(s, 2), C { }", ["s"]),  # inheritance arguments
    ("function f(uint[] memory xs, string calldata t) public { }", ["xs", "t"]),
    ("contract C { function f() public override(A, B) { }"
     " function g() public override { } }", []),
    ("contract C { event E(uint indexed a) anonymous; }", ["a"]),
    ("contract C { address payable o; function f() public"
     " { address payable p = address payable(s); } }", ["o", "p", "s"]),
    ("function f() public { while (a) { if (b) { break; } continue; } throw; }",
     ["a", "b"]),
    ("function f() public { unchecked { i = i + 1; } }", ["i", "i"]),
    ("function f() public { for (; i < n; i++) { s += i; } }",
     ["i", "n", "i", "s", "i"]),
    ("function f() public { D d = new D(s); }", ["d", "s"]),
    ("function f() public { g({a: s, b: t}); }", ["s", "t"]),  # named arguments
    ("function f() public { (, uint b) = g(); (x, , y) = (1, 2, 3); }",
     ["b", "x", "y"]),  # tuple holes
    ("function f() public { (uint a, uint b) = g(); }", ["a", "b"]),
    ("function f() public { uint8[3] memory xs = [a, 2, b]; }", ["xs", "a", "b"]),
    # a statement that starts with a type name and declares nothing
    ("function f(uint amount) public { address(owner).transfer(amount); }",
     ["amount", "owner", "amount"]),
    ("function f() public { uint(x); }", ["x"]),
    ("function f() public { bytes32(h); }", ["h"]),
])
def test_handled_construct_parses_without_opaque_statements(source, node_names):
    ast = parse(source)
    assert [n for n in walk(ast) if n.kind == A.OPAQUE] == []
    assert [name for _, name in var_occurrences(ast)] == node_names
    assert_leaf_totality(source)


@pytest.mark.parametrize("statement", ["uint a = b;", "mapping(uint => uint) m;"])
def test_declaration_at_a_type_name_keeps_its_parse(statement):
    body = next(c for c in parse("function f() public { " + statement + " }").children[0]
                .children if c.kind == A.BLOCK)
    assert [c.kind for c in body.children[1:-1]] == [A.VAR_DECL_STMT]


def test_for_header_declaration_keeps_its_parse():
    ast = parse("function f() public { for (uint i = 0; i < n; i++) { } }")
    loop = next(n for n in walk(ast) if n.kind == A.FOR_STMT)
    assert loop.children[2].kind == A.VAR_DECL_STMT
    assert " ".join(leaf.token.text for leaf in leaves(loop.children[2])) == "uint i = 0 ;"


def test_file_level_constant_is_a_state_variable():
    ast = parse("uint constant FEE = 10; uint256 public constant X = FEE;"
                " contract A { }")
    assert [m.kind for m in ast.children] == [A.STATE_VAR, A.STATE_VAR, A.CONTRACT]
    assert [name for _, name in var_occurrences(ast)] == ["FEE", "X", "FEE"]


@pytest.mark.parametrize("source, kind", [
    ("uint x = 1;", A.VAR_DECL_STMT),        # a statement stays a statement
    ("uint public x = 1;", A.OPAQUE),        # a state variable needs `constant`
    ("uint constant;", A.OPAQUE),
])
def test_other_file_level_declarations_keep_their_parse(source, kind):
    assert [m.kind for m in parse(source).children] == [kind]


CUT_SOURCE = ("contract A { uint a; function f() public { a = a + 1; }"
              " function g() public { a = 2; } }"
              " contract B { uint b; }")


@pytest.mark.parametrize("nodes, kept", [
    (0, "uint a;"),                              # 1 > 0 after the state variable
    (1, "function f() public { a = a + 1; }"),   # 3 > 1
    (3, "function g() public { a = 2; }"),       # 4 > 3
    (4, None),                                   # 4 + 1 in contract B
])
def test_parse_stops_after_the_member_that_passes_nodes(nodes, kept):
    full = parse(CUT_SOURCE)
    cut = parse_tokens(lex(CUT_SOURCE), nodes)
    assert len(var_occurrences(cut)) > nodes
    got = [leaf.token.index for leaf in leaves(cut)]
    assert got == [leaf.token.index for leaf in leaves(full)][:len(got)]
    if kept is None:
        assert len(cut.children) == 2
        assert leaves(cut.children[1])[-1].token.text == ";"  # B ends without '}'
    else:
        contract = cut.children[0]
        last = " ".join(leaf.token.text for leaf in leaves(contract.children[-1]))
        assert (len(cut.children), last) == (1, " ".join(t.text for t in lex(kept)))


def test_parse_error_past_the_cut_is_not_raised():
    tokens = lex("contract A { uint a; function f() public { a = 1; } }"
                 " contract B { function g( }")
    with pytest.raises(ParseError):
        parse_tokens(tokens)
    assert len(var_occurrences(parse_tokens(tokens, 1))) == 2


def test_callee_demotion_is_not_counted():
    # f is a callee, no variable, so only x and y count
    ast = parse_tokens(lex("contract A { function g() public { f(x); y = 1; } }"
                           " contract B { uint b; }"), 1)
    assert [name for _, name in var_occurrences(ast)] == ["x", "y"]
    assert len(ast.children) == 1


# --- where a declaration is attempted -----------------------------------------

def _failed_attempts(sources, nodes):
    """try_parse calls that fail while parsing sources, and all calls."""
    counts = [0, 0]
    attempt = parser._Parser.try_parse

    def counted(self, fn):
        result = attempt(self, fn)
        counts[0] += result is None
        counts[1] += 1
        return result

    parser._Parser.try_parse = counted
    try:
        for source in sources:
            parser.parse(lex(source), nodes)
    finally:
        parser._Parser.try_parse = attempt
    return tuple(counts)


def test_indexed_statements_make_no_failing_declaration_attempt():
    # `balanceOf[to] += value;` is no declaration, seen at its `+=`; every
    # statement of these sources parses on its first attempt
    flattened = perfbench_module("workloads").flattened_records(0)
    failed, calls = _failed_attempts([r.source for r in flattened], 64)
    assert calls > 5000 and failed == 0


def _attempt_at_every_bracket(self, keywords):
    """The rule without the look past bracket groups: `name [` may declare."""
    keys, p = self.keys, self.pos
    if keys[p] != parser.IDENT:
        return keys[p] == "mapping" or is_type_keyword(keys[p])
    p += 1
    while keys[p] == "." and keys[p + 1] == parser.IDENT:
        p += 2
    return keys[p] in (parser.IDENT, "[") or keys[p] in keywords


def _outcome(tokens):
    try:
        return A.to_jsonable(parser.parse(tokens))
    except DomainError as err:
        return type(err).__name__, err.offset


@pytest.mark.parametrize("index", ["-" * 60 + "1", "(" * 30 + "1" + ")" * 30,
                                   " + ".join(["1"] * 40), "a[" * 20 + "1" + "]" * 20],
                         ids=["prefix", "parens", "chain", "indices"])
@pytest.mark.parametrize("name, tail", [("x", " += 1;"), ("x.y", "++;"), ("m", " memory z;"),
                                        ("x", "[2] y;"), ("x", ".f();")],
                         ids=["assign", "postfix", "decl", "decl2d", "call"])
def test_looking_past_brackets_keeps_every_tree_and_nesting_error(index, name, tail,
                                                                 monkeypatch):
    # near the nesting limit an attempt can fail by nesting too deep inside
    # the index, which the expression parse nests one level deeper still
    sources = []
    for depth in range(60, parser.MAX_NESTING, 3):
        statement = f"{name}[{index}]{tail}"
        sources.append("contract C { function f() public { " + "{" * depth + statement
                       + "}" * depth + " } }")
    sources.append(f"contract C {{ {name}[{index}]{tail} }}")
    with monkeypatch.context() as patched:
        patched.setattr(parser._Parser, "_at_decl", _attempt_at_every_bracket)
        want = [_outcome(lex(source)) for source in sources]
    assert [_outcome(lex(source)) for source in sources] == want
    assert any(isinstance(w, tuple) and w[0] == "NestingTooDeep" for w in want)
