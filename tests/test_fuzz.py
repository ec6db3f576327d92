"""Mutated synthetic contracts through lex -> parse -> dfg -> encode ->
forward: whatever the damage, only a DomainError may escape, and no stage
may hang. Examples are derandomized so every run checks the same inputs;
raise max_examples locally to search further."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ponziscan import datasynth
from ponziscan.dfg import extract_dfg, to_dot, to_jsonable as dfg_to_jsonable
from ponziscan.encoding import encode_input
from ponziscan.errors import DomainError, NestingTooDeep
from ponziscan.model.encoder import forward
from ponziscan.model.params import init_params
from ponziscan.solparse.astnodes import iter_leaves, to_jsonable
from ponziscan.solparse.lexer import lex
from ponziscan.solparse.parser import MAX_NESTING, parse, var_occurrences

from helpers import ALPHABET, deep_sources, mutate, time_limit

DEEP = deep_sources(MAX_NESTING)

MUTATION = st.tuples(st.sampled_from(("delete", "copy", "insert")),
                     st.integers(0, 10 ** 6), st.integers(0, 40),
                     st.integers(0, 10 ** 6), st.sampled_from(ALPHABET))


@st.composite
def mutated_sources(draw) -> str:
    label = draw(st.integers(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return mutate(datasynth.make_source(label, rng),
                  draw(st.lists(MUTATION, min_size=1, max_size=4)))


@pytest.fixture(scope="module")
def tiny_params(tiny_config, small_vocab):
    return init_params(tiny_config, len(small_vocab), np.random.default_rng(0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(source=mutated_sources())
@example(source="contract C { ) }")
@example(source="contract C { ] }")
@example(source=DEEP["blocks"][0])
@example(source=DEEP["blocks"][1])
@example(source=DEEP["ifs"][0])
@example(source=DEEP["ifs"][1])
@example(source=DEEP["parens"][0])
@example(source=DEEP["parens"][1])
@example(source=DEEP["chain"][0])
@example(source=DEEP["chain"][1])
@example(source=DEEP["ifs_around_parens"][0])
@example(source=DEEP["ifs_around_parens"][1])
def test_only_domain_errors_escape(source, tiny_config, small_vocab, tiny_params):
    with time_limit(2):
        try:
            tokens = lex(source)
            graph = extract_dfg(parse(tokens))
            inp = encode_input(tokens, graph, small_vocab,
                               code_len=tiny_config.code_len,
                               flow_len=tiny_config.flow_len)
            pred = forward(inp, tiny_params, tiny_config)
        except DomainError:
            return
    assert np.isfinite(pred.probabilities).all()


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_nesting_limit(shape, tiny_config, small_vocab, tiny_params):
    """At MAX_NESTING every stage, the recursive walks included, succeeds;
    a level deeper is a NestingTooDeep parse error, not a RecursionError."""
    at_limit, deeper = DEEP[shape]
    tokens = lex(at_limit)
    ast = parse(tokens)
    to_jsonable(ast)
    assert list(iter_leaves(ast))
    assert var_occurrences(ast)
    graph = extract_dfg(ast)
    dfg_to_jsonable(graph)
    to_dot(graph)
    inp = encode_input(tokens, graph, small_vocab,
                       code_len=tiny_config.code_len,
                       flow_len=tiny_config.flow_len)
    assert np.isfinite(forward(inp, tiny_params, tiny_config).probabilities).all()
    with pytest.raises(NestingTooDeep):
        parse(lex(deeper))
