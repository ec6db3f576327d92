"""The model input does not depend on how much of the source is parsed.

`pipeline.encode_record` must equal the full front end, lex -> parse ->
extract_dfg -> encode_input, field by field, for every source whose full
parse succeeds: on the synthetic, flattened and mutated corpora, and on
hand-written sources where graph node `flow_len` falls in a loop body, a
later function, an inheritance argument, next to an opaque member or in a
free function.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from ponziscan import datasynth
from ponziscan.dfg import extract_dfg
from ponziscan.encoding import ModelInput, build_vocab, encode_input
from ponziscan.errors import DomainError
from ponziscan.model.config import ModelConfig
from ponziscan.pipeline import encode_record
from ponziscan.solparse.lexer import lex
from ponziscan.solparse.parser import parse

from helpers import mutated_sources, perfbench_module

BUDGETS = [(256, 64), (64, 16), (256, 1)]


def full_input(source: str, vocab, config: ModelConfig) -> ModelInput | None:
    """The input built from a parse of the whole source, or None when that
    parse fails."""
    try:
        tokens = lex(source)
        graph = extract_dfg(parse(tokens))
    except DomainError:
        return None
    return encode_input(tokens, graph, vocab, code_len=config.code_len,
                        flow_len=config.flow_len)


def assert_same_input(got: ModelInput, want: ModelInput) -> None:
    for f in fields(ModelInput):
        g, w = getattr(got, f.name), getattr(want, f.name)
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and np.array_equal(g, w), f.name
        else:
            assert g == w, f.name


@pytest.fixture(scope="module")
def corpora() -> dict[str, tuple[list[str], object]]:
    corpus = datasynth.generate_corpus(64, 16, seed=0)
    flattened = perfbench_module("workloads").flattened_records(0)
    vocab = build_vocab(corpus, 2048)
    return {
        "generate_corpus_64_16_0": ([r.source for r in corpus], vocab),
        "flattened_records_0": ([r.source for r in flattened],
                                build_vocab(flattened, 2048)),
        "mutated_400": (mutated_sources(400), vocab),
    }


@pytest.mark.parametrize("code_len,flow_len", BUDGETS)
@pytest.mark.parametrize("name", ["generate_corpus_64_16_0",
                                  "flattened_records_0", "mutated_400"])
def test_encode_record_equals_the_full_front_end(corpora, name, code_len, flow_len):
    sources, vocab = corpora[name]
    config = ModelConfig(code_len=code_len, flow_len=flow_len)
    checked = 0
    for source in sources:
        want = full_input(source, vocab, config)
        if want is None:
            continue
        assert_same_input(encode_record(source, vocab, config), want)
        checked += 1
    assert checked >= len(sources) // 3


# (source, name, occurrence): graph node `flow_len` is that occurrence of
# that variable, counted from 1 in source order.
STRADDLING = {
    "for_body_with_back_edge": (
        "contract A { uint total;"
        " function f(uint n) public { uint s = 0;"
        " for (uint i = 0; i < n; i++) { s = s + i; total = s; }"
        " total = total + s; }"
        " function g() public { total = total * 2; } }",
        "s", 3),
    "second_function_after_state_var": (
        "contract A { uint a; function f() public { a = 1; }"
        " uint b = a; function g() public { b = a + b; } }",
        "b", 2),
    "inheritance_argument": (
        "contract B { } contract A is B(y = 1, w = 2), C(y) {"
        " function f() public { y = y + w; } }",
        "y", 2),
    "next_to_receive": (
        "contract A { uint x; function f() public { x = 1; }"
        " receive() external payable { x = x + msg.value; }"
        " function g() public { x = x * 2; } }",
        "x", 4),
    "next_to_using_for": (
        "library S { } contract A { uint x; using S for uint;"
        " function f() public { x = x + 1; } }",
        "x", 2),
    "free_function_after_contract": (
        "contract A { uint x; function f() public { x = 1; } }"
        " function g(uint y) pure returns (uint) { y = y + 1; return y; }",
        "y", 2),
}


def _node_index(source: str, name: str, occurrence: int) -> int:
    graph = extract_dfg(parse(lex(source)))
    return next(v.node_index for v in graph.vars
                if v.name == name and v.occurrence == occurrence)


@pytest.mark.parametrize("case", sorted(STRADDLING))
def test_straddling_node_gives_the_full_front_end_input(case):
    source, name, occurrence = STRADDLING[case]
    k = _node_index(source, name, occurrence)
    vocab = build_vocab([source], 256)
    assert k >= 2  # flow_len 0 means no graph, and encode_record parses nothing
    for flow_len in (k - 1, k, k + 1):
        config = ModelConfig(code_len=256, flow_len=flow_len)
        assert_same_input(encode_record(source, vocab, config),
                          full_input(source, vocab, config))
