"""Lexer for the supported Solidity subset.

Comments are scanned and dropped here, so the token list `lex` returns is
the code sequence that the parser, the data-flow graph and the encoder all
consume. Tokens carry byte spans into the original source, so `render`
rebuilds the input exactly from the tokens and the bytes between them,
comments included. `token_texts` gives only the tokens' texts, for
counting a vocabulary.
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

# The token grammar. Whitespace and comments are skipped; they are runs of
# space, \t, \n, \v, \f, \r, U+00A0 and U+FEFF, `//...` and `/*...*/`.
# Character classes are spelled out: \s, \d and \w would admit non-ASCII
# spaces, digits and letters.
_SKIP = r"(?:[ \t\n\v\f\r\u00a0\ufeff]+ | //[^\n]* | /\*.*?\*/)+"

# One alternative per kind, tried in this order at each position. A kind
# named after a token kind is that kind; `open_comment` is a `/*` that never
# closes, and `mismatch` is any other character, a quote among them when its
# string never closes. Both are errors, so an error's text is `/*` or one
# character.
_GRAMMAR = (
    ("open_comment", r"/\*"),
    (KIND_STRING, r""" "(?:\\.|[^"\\\n])*" | '(?:\\.|[^'\\\n])*' """),
    (KIND_NUMBER, r"0[xX][0-9a-fA-F_]+ | [0-9][0-9_]*(?:\.[0-9_]+)?(?:[eE][+-]?[0-9]+)?"),
    ("word", r"[A-Za-z_$][A-Za-z0-9_$]*"),
    (KIND_PUNCT, r""">>= | <<= | \*\*= | [-+*/%=!<>&|^]= | => | && | \|\| | << | >> | \+\+
                    | -- | -> | \*\* | [-+*/%=<>!&|^~?:;,.(){}\[\]]"""),
    ("mismatch", r"."),
)
_ERRORS = ("open_comment", "mismatch")


def _compile(alternatives: str) -> re.Pattern:
    """One match per token: the skipped text before it, then the token. The
    last match is the trailing skipped text and the end of the source;
    without that alternative, a trailing comment would be cut short to
    find a token inside it."""
    return re.compile(rf"(?:{_SKIP})?(?:{alternatives}|\Z)", re.VERBOSE | re.DOTALL)


# `lex` reads the kind from the named group that matched; `token_texts`
# reads the text from findall, "" at the end of the source.
_TOKEN_RE = _compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _GRAMMAR))
_TEXT_RE = _compile("(" + "|".join(pattern for _, pattern in _GRAMMAR) + ")")


@dataclass(slots=True)
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


def _refuse_surrogates(source: str) -> None:
    """A lone surrogate (json.loads reads \\ud800 as one) has no UTF-8
    form, so it is an illegal character wherever it sits, even inside a
    string or a comment. It is looked for before tokenizing, so it is
    reported ahead of any other lex error."""
    try:
        source.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise IllegalCharacter(f"illegal character {source[exc.start]!r}",
                               len(source[:exc.start].encode("utf-8"))) from None


def lex(source: str) -> list[Token]:
    """Tokenize Solidity source; comments are skipped like whitespace."""
    # Byte offset of each codepoint; spans must be byte-accurate even for
    # non-ASCII text inside strings and comments.
    if source.isascii():
        byte_of = range(len(source) + 1)
    else:
        _refuse_surrogates(source)
        byte_of = list(accumulate((len(c.encode("utf-8")) for c in source), initial=0))

    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind is None:  # the end of the source
            break
        start, end = m.span(kind)
        text = m.group(kind)
        if kind == "word":
            kind = _classify_word(text)
        elif kind == "open_comment":
            raise UnterminatedComment("unterminated block comment", byte_of[start])
        elif kind == "mismatch":
            if text in "\"'":
                raise UnterminatedString("unterminated string literal", byte_of[start])
            raise IllegalCharacter(f"illegal character {text!r}", byte_of[start])
        tokens.append(Token(kind, text, byte_of[start], byte_of[end], len(tokens)))
    return tokens


def token_texts(source: str) -> list[str]:
    """The texts of `lex(source)`'s tokens, without building the tokens;
    raises what `lex` raises."""
    if not source.isascii():
        _refuse_surrogates(source)
    texts = _TEXT_RE.findall(source)
    # the end of the source matches as "", once more after trailing skipped text
    while texts and not texts[-1]:
        texts.pop()
    # a text matched alone is of the kind it was in the source
    for text in set(texts):
        if len(text) <= 2 and _TOKEN_RE.fullmatch(text).lastgroup in _ERRORS:
            lex(source)  # raises the first error, with its byte offset
    return texts


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
