"""Mutated synthetic contracts through lex -> parse -> dfg -> encode ->
forward: whatever the damage, only a DomainError may escape, and no stage
may hang. Examples are derandomized so every run checks the same inputs;
raise max_examples locally to search further."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ponziscan import datasynth
from ponziscan.dfg import extract_dfg
from ponziscan.encoding import encode_input
from ponziscan.errors import DomainError
from ponziscan.model.encoder import forward
from ponziscan.model.params import init_params
from ponziscan.solparse import lex, parse

from helpers import time_limit

# stray closers and openers, builtin roots, loop heads, and openers of
# comments and strings that may never close
ALPHABET = (")", "]", "}", "{", "(", "msg.", "for(", "do{", "/*", '"',
            ";", "=", "_", "while(", "++", "[", ".")

MUTATION = st.tuples(st.sampled_from(("delete", "copy", "insert")),
                     st.integers(0, 10 ** 6), st.integers(0, 40),
                     st.integers(0, 10 ** 6), st.sampled_from(ALPHABET))


def mutate(source: str, mutations) -> str:
    """Span deletes, span copies and single inserts; positions wrap."""
    for kind, at, length, to, text in mutations:
        at %= len(source) + 1
        if kind == "delete":
            source = source[:at] + source[at + length:]
        elif kind == "copy":
            to %= len(source) + 1
            source = source[:to] + source[at:at + length] + source[to:]
        else:
            source = source[:at] + text + source[at:]
    return source


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
def test_only_domain_errors_escape(source, tiny_config, small_vocab, tiny_params):
    with time_limit(2):
        try:
            tokens = lex(source)
            graph = extract_dfg(parse(tokens), tokens)
            inp = encode_input(tokens, graph, small_vocab,
                               code_len=tiny_config.code_len,
                               flow_len=tiny_config.flow_len)
            pred = forward(inp, tiny_params, tiny_config)
        except DomainError:
            return
    assert np.isfinite(pred.probabilities).all()
