"""Vocabulary construction, serialization, and input assembly."""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from ponziscan.datasynth import generate_corpus
from ponziscan.dfg import extract_dfg
from ponziscan.encoding import (
    NODE_POSITION_ID,
    SEG_CLS,
    SEG_CODE,
    SEG_NODE,
    SEG_SEP,
    ModelInput,
    Vocabulary,
    build_vocab,
    encode_input,
)
from ponziscan.errors import CapTooSmall, EmptyCorpus, IdOutOfRange, LexError
from ponziscan.pipeline import ContractRecord
from ponziscan.solparse.lexer import lex
from ponziscan.solparse.parser import parse

from helpers import mutated_sources


def encode(source: str, vocab: Vocabulary, code_len: int = 32, flow_len: int = 8):
    tokens = lex(source)
    return encode_input(tokens, extract_dfg(parse(tokens)), vocab,
                        code_len=code_len, flow_len=flow_len)


# --- vocabulary -------------------------------------------------------------

def test_reserved_ids_fixed():
    v = build_vocab(["a;"], cap=16)
    assert v.id_of("[CLS]") == 0
    assert v.id_of("[SEP]") == 1
    assert v.id_of("[PAD]") == 2
    assert v.id_of("[UNK]") == 3
    assert v.id_of("[MASK]") == 4


def test_frequency_rank_then_lexical():
    v = build_vocab(["b b b a a ;"], cap=16)
    assert v.id_of("b") == 5   # most frequent
    assert v.id_of("a") == 6
    assert v.id_of(";") == 7
    tied = build_vocab(["c a c a"], cap=16)
    assert tied.id_of("a") == 5  # equal counts break lexicographically
    assert tied.id_of("c") == 6


def test_cap_includes_reserved():
    v = build_vocab(["a b c d e f g;"], cap=8)
    assert len(v) == 8


def test_cap_not_exceeded_when_corpus_small():
    v = build_vocab(["a;"], cap=100)
    assert len(v) == 7  # five reserved + "a" + ";"


def test_cap_too_small():
    with pytest.raises(CapTooSmall):
        build_vocab(["a;"], cap=5)
    build_vocab(["a;"], cap=6)


def test_empty_corpus():
    with pytest.raises(EmptyCorpus):
        build_vocab([], cap=16)


def test_oov_maps_to_unk():
    v = build_vocab(["a;"], cap=16)
    assert v.id_of("zzz") == Vocabulary.UNK_ID


def test_lines_inverse_and_range():
    """Line i of to_lines holds the token whose id is i, one line per id."""
    v = build_vocab(["a;"], cap=16)
    lines = v.to_lines()
    assert len(lines) == len(v)
    for text in ("a", ";", "[PAD]"):
        assert json.loads(lines[v.id_of(text)].rsplit("\t", 1)[0]) == text
        assert Vocabulary.from_lines(lines).id_of(text) == v.id_of(text)


def test_lines_round_trip():
    v = build_vocab(['s = "tab\\t\\"q\\"";', "a; b;"], cap=32)
    lines = v.to_lines()
    assert all(line.rsplit("\t", 1)[1] == str(i) for i, line in enumerate(lines))
    w = Vocabulary.from_lines(lines)
    assert len(w) == len(v)
    assert w.to_lines() == lines


def test_from_lines_rejects_gaps():
    with pytest.raises(IdOutOfRange):
        Vocabulary.from_lines(['"[CLS]"\t0', '"[SEP]"\t1', '"[PAD]"\t2',
                               '"[UNK]"\t3', '"[MASK]"\t4', '"a"\t9'])


def test_reserved_must_sit_at_fixed_ids():
    with pytest.raises(IdOutOfRange):
        Vocabulary({"[CLS]": 1, "[SEP]": 0, "[PAD]": 2, "[UNK]": 3, "[MASK]": 4})


def test_builder_accepts_strings_and_records():
    v1 = build_vocab([ContractRecord(idx=1, source="a;", label=0)], cap=16)
    v2 = build_vocab(["a;"], cap=16)
    assert v1.to_lines() == v2.to_lines()


def _lines_from_lex(sources: list[str], cap: int) -> list[str]:
    """build_vocab's ranking, stated over the texts of lex's tokens."""
    counts = Counter(tok.text for source in sources for tok in lex(source))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    texts = [*Vocabulary.RESERVED, *(t for t, _ in ranked[:cap - len(Vocabulary.RESERVED)])]
    return [f"{json.dumps(text)}\t{i}" for i, text in enumerate(texts)]


def _lexable(sources: list[str]) -> list[str]:
    out = []
    for source in sources:
        try:
            lex(source)
        except LexError:
            continue
        out.append(source)
    return out


# the golden corpora, the mutated one without the sources that do not lex
GOLDEN_CORPORA = {
    "generate_corpus_64_16_0": lambda: [r.source for r in generate_corpus(64, 16, 0)],
    "mutated_48": lambda: _lexable(mutated_sources()),
}


@pytest.mark.parametrize("cap", [64, 4096])
@pytest.mark.parametrize("corpus", sorted(GOLDEN_CORPORA))
def test_vocab_counts_what_lex_returns(corpus, cap):
    """Counting token texts without building tokens ranks the same
    vocabulary."""
    sources = GOLDEN_CORPORA[corpus]()
    assert len(sources) > 16
    assert build_vocab(sources, cap).to_lines() == _lines_from_lex(sources, cap)


def test_vocab_raises_what_lex_raises():
    errors = 0
    for source in mutated_sources():
        try:
            lex(source)
        except LexError as err:
            errors += 1
            with pytest.raises(type(err)) as raised:
                build_vocab(["a;", source], cap=64)
            assert (str(raised.value), raised.value.offset) == (str(err), err.offset)
    assert errors


def test_vocab_ignores_comments():
    v = build_vocab(["a; // noise tokens here\n"], cap=64)
    assert "noise" not in v


# --- input assembly ---------------------------------------------------------

def test_packed_layout():
    v = build_vocab(["uint a = b;"], cap=64)
    inp = encode("uint a = b;", v, code_len=8, flow_len=4)
    # [CLS], five code tokens, [SEP], two nodes: no slot beyond them
    assert len(inp) == 2 + 5 + 2 == 2 + inp.n_code + inp.n_nodes
    assert inp.position_ids.shape == inp.segments.shape == (len(inp),)
    assert inp.token_ids[0] == Vocabulary.CLS_ID
    assert inp.segments[0] == SEG_CLS
    assert inp.position_ids[0] == 1
    # five code tokens at slots 1..5 with positions 2..6
    assert list(inp.segments[1:6]) == [SEG_CODE] * 5
    assert list(inp.position_ids[1:6]) == [2, 3, 4, 5, 6]
    sep_at = 1 + inp.n_code
    assert inp.token_ids[sep_at] == Vocabulary.SEP_ID
    assert inp.segments[sep_at] == SEG_SEP
    assert inp.position_ids[sep_at] == 2 + inp.n_code
    node_base = sep_at + 1
    assert list(inp.segments[node_base:]) == [SEG_NODE, SEG_NODE]
    assert all(inp.position_ids[node_base:] == NODE_POSITION_ID)


def test_node_token_ids_use_name_lookup():
    v = build_vocab(["uint a = b;"], cap=64)
    inp = encode("uint a = b;", v, code_len=8, flow_len=4)
    node_base = 2 + inp.n_code
    assert inp.token_ids[node_base] == v.id_of("a")
    assert inp.token_ids[node_base + 1] == v.id_of("b")


def test_edges_and_alignment_are_sequence_positions():
    v = build_vocab(["uint a = b;"], cap=64)
    inp = encode("uint a = b;", v, code_len=8, flow_len=4)
    node_base = 2 + inp.n_code
    assert inp.dfg_edges == [(node_base + 1, node_base)]
    assert (node_base, 1 + 1) in inp.node_alignment      # a at code slot 1
    assert (node_base + 1, 1 + 3) in inp.node_alignment  # b at code slot 3


def test_code_truncation_sets_flag_and_keeps_layout():
    src = "x = " + " + ".join(["y"] * 30) + ";"
    v = build_vocab([src], cap=64)
    inp = encode(src, v, code_len=8, flow_len=4)
    assert inp.truncated
    assert inp.n_code == 8
    assert inp.segments[9] == SEG_SEP
    assert inp.n_nodes == 4
    assert len(inp) == 2 + 8 + 4


def test_truncation_restricts_edges_to_survivors():
    src = "x = " + " + ".join(["y"] * 30) + ";"
    v = build_vocab([src], cap=64)
    inp = encode(src, v, code_len=8, flow_len=4)
    node_base = 2 + inp.n_code
    hi = node_base + inp.n_nodes
    for s, d in inp.dfg_edges:
        assert node_base <= s < hi and node_base <= d < hi
    for n, c in inp.node_alignment:
        assert node_base <= n < hi
        assert 1 <= c <= inp.n_code


def test_exact_fit_is_not_truncated():
    src = "a = b;"
    v = build_vocab([src], cap=64)
    inp = encode(src, v, code_len=4, flow_len=2)
    assert not inp.truncated
    assert inp.n_code == 4 and inp.n_nodes == 2


def test_empty_source_still_encodes():
    v = build_vocab(["a;"], cap=16)
    inp = encode("", v, code_len=4, flow_len=2)
    assert inp.n_code == 0 and inp.n_nodes == 0
    assert inp.token_ids[0] == Vocabulary.CLS_ID
    assert inp.token_ids[1] == Vocabulary.SEP_ID
    assert len(inp) == 2
    assert list(inp.segments) == [SEG_CLS, SEG_SEP]


def test_oov_code_tokens_become_unk():
    v = build_vocab(["a;"], cap=16)
    inp = encode("q;", v, code_len=4, flow_len=2)
    assert inp.token_ids[1] == Vocabulary.UNK_ID
    assert inp.token_ids[2] == v.id_of(";")
