"""Lexing and parsing for the supported Solidity subset."""

from ponziscan.solparse import astnodes
from ponziscan.solparse.astnodes import AstNode, iter_leaves, to_jsonable
from ponziscan.solparse.lexer import (
    KIND_IDENTIFIER,
    KIND_KEYWORD,
    KIND_NUMBER,
    KIND_PUNCT,
    KIND_STRING,
    Token,
    is_type_keyword,
    lex,
    render,
    token_texts,
)
from ponziscan.solparse.parser import parse, var_occurrences

__all__ = [
    "astnodes",
    "AstNode",
    "Token",
    "KIND_IDENTIFIER",
    "KIND_KEYWORD",
    "KIND_NUMBER",
    "KIND_PUNCT",
    "KIND_STRING",
    "is_type_keyword",
    "iter_leaves",
    "lex",
    "parse",
    "render",
    "to_jsonable",
    "token_texts",
    "var_occurrences",
]
