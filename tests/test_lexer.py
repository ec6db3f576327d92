"""Lexer contract: byte-accurate spans, comments dropped, round-trip."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from ponziscan.datasynth import generate_corpus
from ponziscan.dfg import extract_dfg, to_jsonable as dfg_to_jsonable
from ponziscan.encoding import build_vocab, encode_input
from ponziscan.errors import (
    IllegalCharacter,
    LexError,
    UnterminatedComment,
    UnterminatedString,
)
from ponziscan.model.config import ModelConfig
from ponziscan.solparse.lexer import (
    KIND_IDENTIFIER,
    KIND_KEYWORD,
    KIND_NUMBER,
    KIND_PUNCT,
    KIND_STRING,
    is_type_keyword,
    lex,
    render,
    token_texts,
)
from ponziscan.solparse.astnodes import to_jsonable as ast_to_jsonable
from ponziscan.solparse.parser import parse

from helpers import PUNCTUATION, reference_lex


def kinds(source: str) -> list[tuple[str, str]]:
    return [(t.kind, t.text) for t in lex(source)]


def test_empty_source():
    assert lex("") == []


def test_simple_declaration():
    assert kinds("uint total;") == [
        (KIND_KEYWORD, "uint"),
        (KIND_IDENTIFIER, "total"),
        (KIND_PUNCT, ";"),
    ]


def test_block_comment_dropped():
    toks = lex("x = /*c*/ 1;")
    assert [t.kind for t in toks] == [
        KIND_IDENTIFIER, KIND_PUNCT, KIND_NUMBER, KIND_PUNCT]
    assert [t.start for t in toks] == [0, 2, 10, 11]
    assert [t.index for t in toks] == [0, 1, 2, 3]


def test_line_comment_runs_to_newline():
    toks = lex("a; // trailing note\nb;")
    assert [t.text for t in toks] == ["a", ";", "b", ";"]
    assert [t.start for t in toks] == [0, 1, 20, 21]
    assert [t.index for t in toks] == [0, 1, 2, 3]


def test_spans_strictly_increasing():
    toks = lex("function f() public { return a + 1; }")
    for prev, cur in zip(toks, toks[1:]):
        assert prev.end <= cur.start
        assert prev.index + 1 == cur.index


def test_round_trip_exact():
    src = 'contract C {\n  // fee\n  uint fee = 3; /* block */\n  string s = "a\\"b";\n}\n'
    toks = lex(src)
    assert render(toks, src) == src


def test_round_trip_non_ascii_bytes():
    src = 'a = "héllo – wörld"; // смарт\nb = 1;'
    toks = lex(src)
    assert render(toks, src) == src
    raw = src.encode("utf-8")
    for t in toks:
        assert raw[t.start:t.end].decode("utf-8") == t.text


def test_two_char_and_three_char_punct():
    texts = [t.text for t in lex("a >>= b; c => d; e ** f; g != h;")]
    assert ">>=" in texts and "=>" in texts and "**" in texts and "!=" in texts


def test_number_forms():
    toks = lex("x = 0x1F; y = 10_000; z = 1.5e3;")
    nums = [t.text for t in toks if t.kind == KIND_NUMBER]
    assert nums == ["0x1F", "10_000", "1.5e3"]


def test_string_with_escapes():
    toks = lex(r'''s = "say \"hi\""; t = 'it\'s';''')
    strings = [t.text for t in toks if t.kind == KIND_STRING]
    assert strings == [r'"say \"hi\""', r"'it\'s'"]


def test_keyword_classification():
    toks = {t.text: t.kind for t in lex("uint256 x; address a; mapping m; foo f;")}
    assert toks["uint256"] == KIND_KEYWORD
    assert toks["address"] == KIND_KEYWORD
    assert toks["mapping"] == KIND_KEYWORD
    assert toks["foo"] == KIND_IDENTIFIER


def test_is_type_keyword():
    assert is_type_keyword("uint")
    assert is_type_keyword("uint8")
    assert is_type_keyword("bytes32")
    assert is_type_keyword("address")
    assert not is_type_keyword("mapping")
    assert not is_type_keyword("total")


def test_unterminated_string_offset():
    with pytest.raises(UnterminatedString) as err:
        lex('x = "oops')
    assert err.value.offset == 4


def test_unterminated_comment_offset():
    with pytest.raises(UnterminatedComment) as err:
        lex("a; /* never closed")
    assert err.value.offset == 3


def test_illegal_character_offset():
    with pytest.raises(IllegalCharacter) as err:
        lex("a = #;")
    assert err.value.offset == 4


@pytest.mark.parametrize("source, offset", [
    ("\ud800", 0),
    ('x = "a\udfff";', 6),
    ("// é \ud800\nx", 6),
    ("/* \udfff */ x", 3),
    ("é @ \ud800", 5),  # refused before tokenizing, so ahead of the @
])
def test_lone_surrogate_is_illegal_character(source, offset):
    """json.loads admits a lone surrogate (\\ud800), which has no UTF-8
    form: lex and token_texts refuse it at its byte offset wherever it
    sits, inside a string or a comment too."""
    for lexer in (lex, token_texts):
        with pytest.raises(IllegalCharacter) as err:
            lexer(source)
        assert err.value.offset == offset


def test_only_ascii_digits_start_a_number():
    """str.isdigit and str.isnumeric hold for hundreds of code points
    besides 0-9 (superscripts, other scripts' digits); each of those is an
    IllegalCharacter, never a crash or a number."""
    numeric = [c for c in map(chr, range(sys.maxunicode + 1))
               if c.isdigit() or c.isnumeric()]
    assert len(numeric) > 10
    for c in numeric:
        if c in "0123456789":
            assert lex(f"x = {c};")[2].kind == KIND_NUMBER
        else:
            with pytest.raises(IllegalCharacter) as err:
                lex(f"x = {c};")
            assert err.value.offset == 4


_SOURCE_ALPHABET = st.sampled_from(
    list("abcxyz_ ;=+-*/(){}[]<>!&|,.0123456789\n\t") + ["uint", "return", '"s"'])


@given(st.lists(_SOURCE_ALPHABET, max_size=40))
def test_round_trip_property(pieces):
    src = "".join(pieces)
    try:
        toks = lex(src)
    except (UnterminatedString, UnterminatedComment, IllegalCharacter):
        return
    assert render(toks, src) == src
    for prev, cur in zip(toks, toks[1:]):
        assert prev.end <= cur.start


def _lex_outcome(lexer, source: str):
    """The tokens as plain tuples, or the error's type, message and offset."""
    try:
        return [(t.kind, t.text, t.start, t.end, t.index) for t in lexer(source)]
    except LexError as err:
        return type(err), str(err), err.offset


# the characters where the token classes meet, repeated to draw them often,
# with the pairs that open and close comments or start a hex number or an
# exponent, and a few ordinary characters. U+00B2, U+0663 and U+3000 are a
# digit, a digit and a space to str.isdigit and str.isspace, but illegal here
_EDGE_PIECES = st.sampled_from(
    list('"\'\\/*\r\n') * 4 + ["//", "/*", "*/", "\r\n", "0x", "1e"] * 2
    + list("0123456789xXeE._") * 2
    + list("\u00b2\u0663\u3000\u00a0\ufeff@\u00e9\v\f\t $+-=<>!&|^%~?:;,(){}[]aZ"))


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.lists(_EDGE_PIECES, max_size=24).map("".join))
@example('"a\\\nb"')
@example("/*/")
@example("/**/")
@example("/**")
@example("//*")
@example("0x")
@example("1e+")
@example("1._")
@example("'\\''")
@example('x = "a\\')
@example("\v\f")
def test_lex_matches_reference(source):
    """lex gives the dispatch loop's tokens, or its error type, message and
    byte offset, on text dense in quotes, escapes, comment openers and
    number edges."""
    assert _lex_outcome(lex, source) == _lex_outcome(reference_lex, source)


def _texts_outcome(source: str):
    try:
        return token_texts(source)
    except LexError as err:
        return type(err), str(err), err.offset


# comment delimiters, quotes, escapes and newlines, the two non-ASCII
# spaces the grammar skips, and five characters it refuses (two non-ASCII
# digits, @ and two lone surrogates), with a few characters that make tokens
_TEXT_PIECES = st.sampled_from(
    ["//", "/*", "*/", '"', "'", "\\", "\n"] * 3
    + ["\u00a0", "\ufeff", "\u00b2", "\u0663", "@", "\ud800", "\udfff"]
    + list(" \t/*=+-;.(){}aZ_$09xe"))


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.lists(_TEXT_PIECES, max_size=24).map("".join))
@example("")
@example("a // c")
@example("a /* c */ ")
@example("/*/")
@example("x = '\\'")
@example("\u00b2")
def test_token_texts_match_lex(source):
    """token_texts gives the texts of lex's tokens, or raises lex's error:
    its type, message and byte offset."""
    lexed = _lex_outcome(lex, source)
    want = [text for _, text, *_ in lexed] if isinstance(lexed, list) else lexed
    assert _texts_outcome(source) == want


def test_lex_matches_reference_on_operator_pairs():
    """Every punctuation token next to every other, so each longest match
    and each split of a longer operator is checked."""
    for a in PUNCTUATION:
        for b in PUNCTUATION:
            for source in (a + b, f"x{a}y{b}1"):
                assert _lex_outcome(lex, source) == _lex_outcome(reference_lex, source)


_LINE_COMMENTS = ("//", "// note", "// a // b", "// \"open 'quote", "// смарт – wörld")
_BLOCK_COMMENTS = ("/**/", "/* c */", "/* a // b */", "/* \"q\" 'r' */",
                   "/* 日本 — smart\n contract */")


def _with_comments(source: str, rng: random.Random) -> tuple[str, str]:
    """(source with comments put into token gaps, the same source with
    every comment's bytes replaced by as many spaces)."""
    raw = source.encode("utf-8")
    gaps = sorted(rng.sample([0] + [t.end for t in lex(source)], 12))
    commented, blanked, prev = bytearray(), bytearray(), 0
    for gap in gaps:
        commented += raw[prev:gap]
        blanked += raw[prev:gap]
        line = rng.random() < 0.5
        text = rng.choice(_LINE_COMMENTS if line else _BLOCK_COMMENTS).encode("utf-8")
        end = b"\n" if line else b" "
        commented += b" " + text + end
        blanked += b" " + b" " * len(text) + end
        prev = gap
    commented += raw[prev:]
    blanked += raw[prev:]
    return commented.decode("utf-8"), blanked.decode("utf-8")


@pytest.mark.parametrize("seed", range(6))
def test_comments_change_nothing_downstream(seed):
    """A comment and as many bytes of spaces give the same tokens, parse
    tree, data-flow graph, vocabulary and model input."""
    rng = random.Random(seed)
    pairs = [_with_comments(r.source, rng) for r in generate_corpus(4, 2, seed)]
    vocab = build_vocab([c for c, _ in pairs], cap=256)
    config = ModelConfig()
    assert vocab.to_lines() == build_vocab([b for _, b in pairs], cap=256).to_lines()
    for commented, blanked in pairs:
        assert commented != blanked
        outputs = []
        for source in (commented, blanked):
            tokens = lex(source)
            ast = parse(tokens)
            graph = extract_dfg(ast)
            inp = encode_input(tokens, graph, vocab, code_len=config.code_len,
                               flow_len=config.flow_len)
            outputs.append((tokens, ast_to_jsonable(ast), dfg_to_jsonable(graph),
                            inp.token_ids.tolist(), inp.position_ids.tolist(),
                            inp.segments.tolist(), inp.node_alignment, inp.dfg_edges,
                            inp.truncated))
        assert outputs[0] == outputs[1]
