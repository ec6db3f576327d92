"""Lexing and parsing for the supported Solidity subset."""

from ponziscan.solparse import astnodes
from ponziscan.solparse.astnodes import AstNode, iter_leaves, to_jsonable
from ponziscan.solparse.lexer import (
    KIND_COMMENT,
    KIND_IDENTIFIER,
    KIND_KEYWORD,
    KIND_NUMBER,
    KIND_PUNCT,
    KIND_STRING,
    Token,
    code_tokens,
    is_type_keyword,
    lex,
    render,
)
from ponziscan.solparse.parser import parse, var_occurrences

__all__ = [
    "astnodes",
    "AstNode",
    "Token",
    "KIND_COMMENT",
    "KIND_IDENTIFIER",
    "KIND_KEYWORD",
    "KIND_NUMBER",
    "KIND_PUNCT",
    "KIND_STRING",
    "code_tokens",
    "is_type_keyword",
    "iter_leaves",
    "lex",
    "parse",
    "render",
    "to_jsonable",
    "var_occurrences",
]
