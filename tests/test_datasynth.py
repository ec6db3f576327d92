"""Synthetic corpus generation: shape, parseability, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from ponziscan.datasynth import (
    PUBLISHED_PONZI,
    PUBLISHED_TOTAL,
    PUBLISHED_TRAIN,
    generate_corpus,
    generate_published_shape,
    make_source,
)
from ponziscan.dfg import extract_dfg
from ponziscan.pipeline import split_chronological
from ponziscan.solparse.lexer import lex
from ponziscan.solparse.parser import parse


def test_generate_corpus_counts():
    records = generate_corpus(64, 16, seed=0)
    assert len(records) == 64
    assert sum(r.label for r in records) == 16
    assert [r.idx for r in records] == list(range(1, 65))


def test_generate_corpus_deterministic():
    a = generate_corpus(32, 8, seed=7)
    b = generate_corpus(32, 8, seed=7)
    assert a == b
    c = generate_corpus(32, 8, seed=8)
    assert a != c


def test_generated_sources_parse_and_have_flow():
    for record in generate_corpus(24, 8, seed=1):
        tokens = lex(record.source)
        graph = extract_dfg(parse(tokens))
        assert len(tokens) > 20
        if record.label == 1:
            assert len(graph.edges) > 10  # payout loops are data-flow heavy


def test_make_source_label_styles():
    rng = np.random.default_rng(0)
    ponzi = make_source(1, rng)
    assert "payable" in ponzi
    benign = make_source(0, np.random.default_rng(0))
    assert isinstance(benign, str) and benign


def test_published_shape_counts():
    records = generate_published_shape(seed=0)
    assert len(records) == PUBLISHED_TOTAL == 6498
    assert sum(r.label for r in records) == PUBLISHED_PONZI == 318


def test_published_shape_fixed_split_sizes():
    records = generate_published_shape(seed=0)
    split = split_chronological(records)
    assert {name: len(part) for name, part in split.items()} == {
        "train": PUBLISHED_TRAIN, "test": 508}
    # the 250th positive closes the training window exactly
    train_pos = sum(r.label for r in records[:PUBLISHED_TRAIN])
    assert train_pos == 250
    assert records[PUBLISHED_TRAIN - 1].label == 1


def test_published_shape_partition_counts():
    records = generate_published_shape(seed=0)
    tests = [split_chronological(records, k)["test"] for k in range(2, 6)]
    pos_counts = [sum(r.label for r in test) for test in tests]
    assert pos_counts == [50, 50, 50, PUBLISHED_PONZI - 250]


def test_published_shape_deterministic():
    a = generate_published_shape(seed=0)
    b = generate_published_shape(seed=0)
    assert a == b


def test_published_shape_sources_lex():
    records = generate_published_shape(seed=0)
    for record in records[:20] + records[-20:]:
        assert len(lex(record.source)) > 20


def test_generate_corpus_rejects_bad_args():
    with pytest.raises(ValueError):
        generate_corpus(8, 9, seed=0)
