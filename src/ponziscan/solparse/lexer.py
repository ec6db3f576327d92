"""Lexer for the supported Solidity subset.

Comments are scanned and dropped here, so the token list `lex` returns is
the code sequence that the parser, the data-flow graph and the encoder all
consume. Tokens carry byte spans into the original source, so `render`
rebuilds the input exactly from the tokens and the bytes between them,
comments included.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate

from ponziscan.errors import IllegalCharacter, UnterminatedComment, UnterminatedString

KIND_IDENTIFIER = "identifier"
KIND_KEYWORD = "keyword"
KIND_NUMBER = "number"
KIND_STRING = "string"
KIND_PUNCT = "punctuation"

KEYWORDS = frozenset({
    "pragma", "import", "using", "contract", "interface", "library", "is",
    "function", "constructor", "modifier", "event", "struct", "enum",
    "mapping", "public", "private", "internal", "external", "pure", "view",
    "payable", "constant", "immutable", "anonymous", "indexed", "virtual",
    "override", "returns", "return", "if", "else", "for", "while", "do",
    "break", "continue", "throw", "emit", "new", "delete", "var", "memory",
    "storage", "calldata", "assembly", "unchecked", "true", "false", "this",
    "address", "bool", "string", "bytes", "byte",
    "wei", "szabo", "finney", "ether", "gwei",
    "seconds", "minutes", "hours", "days", "weeks", "years",
})

# Sized elementary types (uint8..uint256, bytes1..bytes32, fixed/ufixed).
_SIZED_TYPE_RE = re.compile(
    r"^(u?int(?:8|16|24|32|40|48|56|64|72|80|88|96|104|112|120|128|136|144"
    r"|152|160|168|176|184|192|200|208|216|224|232|240|248|256)?"
    r"|bytes(?:[1-9]|1\d|2\d|3[0-2])"
    r"|u?fixed(?:\d+x\d+)?)$"
)

_IDENT_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
_HEX_RE = re.compile(r"0[xX][0-9a-fA-F_]+")
_NUM_RE = re.compile(r"[0-9][0-9_]*(?:\.[0-9_]+)?(?:[eE][+-]?[0-9]+)?")

_PUNCT3 = (">>=", "<<=", "**=")
_PUNCT2 = ("=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=",
           "%=", "&=", "|=", "^=", "<<", ">>", "++", "--", "->", "**")
_PUNCT1 = frozenset("+-*/%=<>!&|^~?:;,.(){}[]")

_WHITESPACE = frozenset(" \t\r\n ﻿")


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    start: int  # byte offset, inclusive
    end: int    # byte offset, exclusive
    index: int  # position in the code sequence


def is_type_keyword(text: str) -> bool:
    """True for elementary type names (uint, uint8, bytes32, address, ...)."""
    return text in {"address", "bool", "string", "bytes", "byte", "var"} or bool(
        _SIZED_TYPE_RE.match(text)
    )


def _classify_word(text: str) -> str:
    if text in KEYWORDS or _SIZED_TYPE_RE.match(text):
        return KIND_KEYWORD
    return KIND_IDENTIFIER


def lex(source: str) -> list[Token]:
    """Tokenize Solidity source; comments are skipped like whitespace."""
    # Byte offset of each codepoint; spans must be byte-accurate even for
    # non-ASCII text inside strings and comments.
    if source.isascii():
        byte_of = None
    else:
        byte_of = list(accumulate((len(c.encode("utf-8")) for c in source), initial=0))

    def boff(cp: int) -> int:
        return cp if byte_of is None else byte_of[cp]

    tokens: list[Token] = []
    n = len(source)
    i = 0

    def emit(kind: str, start_cp: int, end_cp: int) -> None:
        tokens.append(Token(kind, source[start_cp:end_cp], boff(start_cp),
                            boff(end_cp), len(tokens)))

    while i < n:
        c = source[i]
        if c in _WHITESPACE:
            i += 1
            continue
        if c == "/" and i + 1 < n and source[i + 1] == "/":
            j = source.find("\n", i)
            i = n if j < 0 else j
            continue
        if c == "/" and i + 1 < n and source[i + 1] == "*":
            close = source.find("*/", i + 2)
            if close < 0:
                raise UnterminatedComment("unterminated block comment", boff(i))
            i = close + 2
            continue
        if c in "\"'":
            j = i + 1
            while True:
                if j >= n or source[j] == "\n":
                    raise UnterminatedString("unterminated string literal", boff(i))
                if source[j] == "\\" and j + 1 < n:
                    j += 2
                    continue
                if source[j] == c:
                    break
                j += 1
            emit(KIND_STRING, i, j + 1)
            i = j + 1
            continue
        if "0" <= c <= "9":
            m = _HEX_RE.match(source, i) or _NUM_RE.match(source, i)
            emit(KIND_NUMBER, i, m.end())
            i = m.end()
            continue
        m = _IDENT_RE.match(source, i)
        if m:
            emit(_classify_word(m.group()), i, m.end())
            i = m.end()
            continue
        three = source[i:i + 3]
        if three in _PUNCT3:
            emit(KIND_PUNCT, i, i + 3)
            i += 3
            continue
        two = source[i:i + 2]
        if two in _PUNCT2:
            emit(KIND_PUNCT, i, i + 2)
            i += 2
            continue
        if c in _PUNCT1:
            emit(KIND_PUNCT, i, i + 1)
            i += 1
            continue
        raise IllegalCharacter(f"illegal character {c!r}", boff(i))

    return tokens


def render(tokens: list[Token], source: str) -> str:
    """Rebuild the source from tokens plus the bytes between their spans."""
    raw = source.encode("utf-8")
    out = bytearray()
    prev_end = 0
    for tok in tokens:
        out += raw[prev_end:tok.start]
        out += tok.text.encode("utf-8")
        prev_end = tok.end
    out += raw[prev_end:]
    return out.decode("utf-8")
