"""Concrete syntax tree nodes.

Every token of `lex`'s output becomes exactly one leaf, in source order, so
the tree is lossless: an in-order walk of the leaves reproduces the token
list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ponziscan.solparse.lexer import Token

# Internal node kinds.
SOURCE_UNIT = "source_unit"
PRAGMA = "pragma_directive"
IMPORT = "import_directive"
CONTRACT = "contract_decl"
STATE_VAR = "state_var_decl"
FUNCTION = "function_decl"
MODIFIER_DECL = "modifier_decl"
EVENT_DECL = "event_decl"
STRUCT_DECL = "struct_decl"
ENUM_DECL = "enum_decl"
TYPE_NAME = "type_name"
PARAM = "param"
BLOCK = "block"
IF_STMT = "if_stmt"
FOR_STMT = "for_stmt"
WHILE_STMT = "while_stmt"
RETURN_STMT = "return_stmt"
EMIT_STMT = "emit_stmt"
VAR_DECL_STMT = "var_decl_stmt"
EXPR_STMT = "expr_stmt"
OPAQUE = "opaque_statement"
ASSIGN = "assign_expr"
TERNARY = "ternary_expr"
BINARY = "binary_expr"
UNARY = "unary_expr"
POSTFIX = "postfix_expr"
CALL = "call_expr"
MEMBER = "member_expr"
INDEX = "index_expr"
TUPLE = "tuple_expr"
ARRAY_LITERAL = "array_literal"
UNIT_LITERAL = "unit_literal"
NEW_EXPR = "new_expr"
BUILTIN_REF = "builtin_ref"  # msg.sender / block.timestamp / tx.origin style

# Leaf kinds. "var" marks an identifier in variable position; "name" covers
# every excluded identifier role (declared names, fields, callees, types).
LEAF_VAR = "var"
LEAF_NAME = "name"
LEAF_KW = "kw"
LEAF_PUNCT = "punct"
LEAF_NUMBER = "number"
LEAF_STRING = "string"


@dataclass(slots=True)
class AstNode:
    kind: str
    children: list["AstNode"] = field(default_factory=list)
    token: Token | None = None

    @property
    def is_leaf(self) -> bool:
        return self.token is not None

    def add(self, *nodes: "AstNode") -> None:
        self.children.extend(nodes)


def iter_leaves(node: AstNode) -> Iterator[AstNode]:
    if node.is_leaf:
        yield node
        return
    for child in node.children:
        yield from iter_leaves(child)


def to_jsonable(node: AstNode) -> dict:
    """JSON shape used by the `parse` subcommand: kind, span, children/text.
    An inner node spans its first leaf's start to its last leaf's end, or
    (0, 0) when it has no leaves."""
    return _jsonable(node)[0]


def _jsonable(node: AstNode) -> tuple[dict, tuple[int, int] | None]:
    """to_jsonable's dict plus the node's leaf span (None without leaves),
    so that a parent's span comes from its children's in one walk."""
    if node.is_leaf:
        span = (node.token.start, node.token.end)
        return {"kind": node.kind, "span": list(span), "text": node.token.text}, span
    children, spans = [], []
    for child in node.children:
        d, child_span = _jsonable(child)
        children.append(d)
        if child_span is not None:
            spans.append(child_span)
    span = (spans[0][0], spans[-1][1]) if spans else None
    return {"kind": node.kind, "span": list(span or (0, 0)), "children": children}, span
