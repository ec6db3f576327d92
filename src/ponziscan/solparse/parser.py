"""Recursive-descent parser for the supported Solidity subset.

Robustness contract: anything outside the grammar is swallowed into an
OpaqueStatement (bracket-balanced), with identifier leaves still tagged as
variable occurrences where plausible, so downstream graph extraction
degrades gracefully instead of dropping the contract.

Identifier leaves are tagged at parse time: kind "var" for identifiers in
variable positions, "name" for every excluded role (declared function,
contract, event, struct, enum and modifier names, member fields, callees,
user type names). msg/block/tx member accesses become a single dotted
variable rooted at the first token.
"""

from __future__ import annotations

from typing import Callable

from ponziscan.errors import NestingTooDeep, ParseError, UnbalancedBrackets
from ponziscan.solparse import astnodes as a
from ponziscan.solparse.astnodes import AstNode, leaf
from ponziscan.solparse.lexer import (
    KIND_IDENTIFIER,
    KIND_KEYWORD,
    KIND_NUMBER,
    KIND_PUNCT,
    KIND_STRING,
    Token,
    is_type_keyword,
)

BUILTIN_ROOTS = frozenset({"msg", "block", "tx"})
UNIT_KEYWORDS = frozenset({"wei", "szabo", "finney", "ether", "gwei",
                           "seconds", "minutes", "hours", "days", "weeks", "years"})

ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>="})
_BINARY_BP = {
    "||": 6, "&&": 8, "==": 10, "!=": 10,
    "<": 12, ">": 12, "<=": 12, ">=": 12,
    "|": 14, "^": 16, "&": 18, "<<": 20, ">>": 20,
    "+": 22, "-": 22, "*": 24, "/": 24, "%": 24, "**": 26,
}
_RIGHT_ASSOC = frozenset({"**"})
_ASSIGN_BP = 2
_TERNARY_BP = 4
_PREFIX_OPS = frozenset({"!", "~", "-", "+", "++", "--"})

_VISIBILITY_KWS = frozenset({"public", "private", "internal", "external"})
_MUTABILITY_KWS = frozenset({"pure", "view", "payable", "constant", "immutable", "virtual"})
_STORAGE_KWS = frozenset({"memory", "storage", "calldata"})
_STATE_VAR_KWS = frozenset({"public", "private", "internal", "constant",
                            "immutable", "override"})

# Deepest nesting parse accepts. A statement, expression, operand or type
# name being parsed is one level, and so is each operator or postfix that
# wraps an operand. That bounds the parser's recursion and the depth of the
# tree that the walks after it recurse over (extract_dfg, to_jsonable,
# iter_leaves) to about 600 of Python's default 1,000 frames.
MAX_NESTING = 150


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0
        self.depth = 0

    # -- token navigation ---------------------------------------------

    def peek(self, offset: int = 0) -> Token | None:
        i = self.pos + offset
        return self.toks[i] if i < len(self.toks) else None

    def at_end(self) -> bool:
        return self.pos >= len(self.toks)

    def _offset(self) -> int:
        if self.pos < len(self.toks):
            return self.toks[self.pos].start
        return self.toks[-1].end if self.toks else 0

    def advance(self) -> Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, expected: frozenset[str] = frozenset()) -> ParseError:
        return ParseError(message, self._offset(), expected)

    def at_punct(self, *texts: str) -> bool:
        t = self.peek()
        return t is not None and t.kind == KIND_PUNCT and t.text in texts

    def at_kw(self, *texts: str) -> bool:
        t = self.peek()
        return t is not None and t.kind == KIND_KEYWORD and t.text in texts

    def at_ident(self) -> bool:
        t = self.peek()
        return t is not None and t.kind == KIND_IDENTIFIER

    def at_type_kw(self) -> bool:
        t = self.peek()
        return t is not None and t.kind == KIND_KEYWORD and is_type_keyword(t.text)

    def _at_builtin_ref(self) -> bool:
        """At `msg.x`, `block.x` or `tx.x`."""
        t, dot, member = self.peek(), self.peek(1), self.peek(2)
        return (t is not None and t.kind == KIND_IDENTIFIER and t.text in BUILTIN_ROOTS
                and dot is not None and dot.kind == KIND_PUNCT and dot.text == "."
                and member is not None and member.kind == KIND_IDENTIFIER)

    # -- leaf constructors ----------------------------------------------

    def take(self, kind: str) -> AstNode:
        return leaf(kind, self.advance())

    def take_auto(self) -> AstNode:
        """Consume one token as a leaf with a role-free classification."""
        return self.take(_generic_leaf_kind(self.peek()))

    def expect_punct(self, text: str) -> AstNode:
        if not self.at_punct(text):
            raise self.error(f"expected {text!r}", frozenset({text}))
        return self.take(a.LEAF_PUNCT)

    def expect_name(self) -> AstNode:
        if not self.at_ident():
            raise self.error("expected identifier", frozenset({"identifier"}))
        return self.take(a.LEAF_NAME)

    def expect_var(self) -> AstNode:
        if not self.at_ident():
            raise self.error("expected identifier", frozenset({"identifier"}))
        # Bare "_" is the modifier body placeholder, never a value.
        kind = a.LEAF_NAME if self.peek().text == "_" else a.LEAF_VAR
        return self.take(kind)

    def nest(self) -> None:
        """One level deeper, until the enclosing try_parse, parse_expression
        or parse_type_name call ends."""
        if self.depth >= MAX_NESTING:
            raise NestingTooDeep(f"nested deeper than {MAX_NESTING} levels",
                                 self._offset())
        self.depth += 1

    def try_parse(self, fn: Callable[[], AstNode]) -> AstNode | None:
        save, depth = self.pos, self.depth
        try:
            return fn()
        except NestingTooDeep:
            raise  # no fallback parses what is too deep
        except ParseError:
            self.pos = save
            return None
        finally:
            self.depth = depth

    # -- top level -------------------------------------------------------

    def parse_source_unit(self) -> AstNode:
        unit = AstNode(a.SOURCE_UNIT)
        while not self.at_end():
            if self.at_kw("pragma"):
                unit.add(self._directive(a.PRAGMA))
            elif self.at_kw("import"):
                unit.add(self._directive(a.IMPORT))
            elif self.at_kw("contract", "interface", "library"):
                unit.add(self.parse_contract())
            elif self.at_kw("function", "constructor", "modifier", "event",
                            "struct", "enum"):
                unit.add(self.parse_contract_member())
            else:
                unit.add(self.parse_statement_or_opaque())
        return unit

    def _directive(self, kind: str) -> AstNode:
        """pragma/import: consumed through ';', no variable occurrences."""
        node = AstNode(kind)
        node.add(self.take(a.LEAF_KW))
        while not self.at_end():
            if self.at_punct(";"):
                node.add(self.take(a.LEAF_PUNCT))
                break
            node.add(self.take_auto())
        return node

    def parse_contract(self) -> AstNode:
        node = AstNode(a.CONTRACT)
        node.add(self.take(a.LEAF_KW))
        node.add(self.expect_name())
        if self.at_kw("is"):
            node.add(self.take(a.LEAF_KW))
            while True:
                node.add(self.expect_name())
                if self.at_punct("("):
                    node.add(self.take(a.LEAF_PUNCT))
                    self._parse_call_args(node)
                    node.add(self.expect_punct(")"))
                if self.at_punct(","):
                    node.add(self.take(a.LEAF_PUNCT))
                    continue
                break
        node.add(self.expect_punct("{"))
        while not self.at_end() and not self.at_punct("}"):
            node.add(self.parse_contract_member())
        node.add(self.expect_punct("}"))
        return node

    def parse_contract_member(self) -> AstNode:
        if self.at_kw("function", "constructor"):
            return self.parse_function()
        if self.at_kw("modifier"):
            return self.parse_modifier()
        if self.at_kw("event"):
            return self.parse_event()
        if self.at_kw("struct"):
            return self.parse_struct()
        if self.at_kw("enum"):
            return self.parse_enum()
        # `using ... for ...;` lands here too: it is no type name
        return self.try_parse(self.parse_state_var) or self.parse_opaque_statement()

    def parse_state_var(self) -> AstNode:
        return self._var_decl(a.STATE_VAR, _STATE_VAR_KWS)

    def parse_function(self) -> AstNode:
        node = AstNode(a.FUNCTION)
        node.add(self.take(a.LEAF_KW))
        if self.at_ident():
            node.add(self.take(a.LEAF_NAME))
        node.add(self.expect_punct("("))
        self._parse_params(node)
        node.add(self.expect_punct(")"))
        self._parse_function_attrs(node)
        if self.at_punct(";"):
            node.add(self.take(a.LEAF_PUNCT))
        else:
            node.add(self.parse_block())
        return node

    def _parse_params(self, node: AstNode) -> None:
        while not self.at_punct(")") and not self.at_end():
            param = AstNode(a.PARAM)
            param.add(self.parse_type_name())
            while self.at_kw("memory", "storage", "calldata", "indexed", "payable"):
                param.add(self.take(a.LEAF_KW))
            if self.at_ident():
                param.add(self.expect_var())
            node.add(param)
            if self.at_punct(","):
                node.add(self.take(a.LEAF_PUNCT))
            else:
                break

    def _parse_function_attrs(self, node: AstNode) -> None:
        while True:
            if self.at_kw(*(_VISIBILITY_KWS | _MUTABILITY_KWS)):
                node.add(self.take(a.LEAF_KW))
            elif self.at_kw("override"):
                node.add(self.take(a.LEAF_KW))
                if self.at_punct("("):
                    node.add(self.take(a.LEAF_PUNCT))
                    while self.at_ident() or self.at_punct(","):
                        node.add(self.take_auto())
                    node.add(self.expect_punct(")"))
            elif self.at_kw("returns"):
                node.add(self.take(a.LEAF_KW))
                node.add(self.expect_punct("("))
                self._parse_params(node)
                node.add(self.expect_punct(")"))
            elif self.at_ident():
                # custom modifier invocation; its arguments are real uses
                node.add(self.take(a.LEAF_NAME))
                if self.at_punct("("):
                    node.add(self.take(a.LEAF_PUNCT))
                    self._parse_call_args(node)
                    node.add(self.expect_punct(")"))
            else:
                break

    def parse_modifier(self) -> AstNode:
        node = AstNode(a.MODIFIER_DECL)
        node.add(self.take(a.LEAF_KW))
        node.add(self.expect_name())
        if self.at_punct("("):
            node.add(self.take(a.LEAF_PUNCT))
            self._parse_params(node)
            node.add(self.expect_punct(")"))
        if self.at_punct(";"):
            node.add(self.take(a.LEAF_PUNCT))
        else:
            node.add(self.parse_block())
        return node

    def parse_event(self) -> AstNode:
        node = AstNode(a.EVENT_DECL)
        node.add(self.take(a.LEAF_KW))
        node.add(self.expect_name())
        node.add(self.expect_punct("("))
        self._parse_params(node)
        node.add(self.expect_punct(")"))
        if self.at_kw("anonymous"):
            node.add(self.take(a.LEAF_KW))
        node.add(self.expect_punct(";"))
        return node

    def parse_struct(self) -> AstNode:
        node = AstNode(a.STRUCT_DECL)
        node.add(self.take(a.LEAF_KW))
        node.add(self.expect_name())
        node.add(self.expect_punct("{"))
        while not self.at_punct("}") and not self.at_end():
            member = AstNode(a.VAR_DECL_STMT)
            member.add(self.parse_type_name())
            member.add(self.expect_var())
            member.add(self.expect_punct(";"))
            node.add(member)
        node.add(self.expect_punct("}"))
        return node

    def parse_enum(self) -> AstNode:
        node = AstNode(a.ENUM_DECL)
        node.add(self.take(a.LEAF_KW))
        node.add(self.expect_name())
        node.add(self.expect_punct("{"))
        while not self.at_punct("}") and not self.at_end():
            node.add(self.take_auto())
        node.add(self.expect_punct("}"))
        return node

    # -- types ----------------------------------------------------------

    def parse_type_name(self) -> AstNode:
        depth = self.depth
        self.nest()
        try:
            node = AstNode(a.TYPE_NAME)
            if self.at_kw("mapping"):
                node.add(self.take(a.LEAF_KW))
                node.add(self.expect_punct("("))
                node.add(self.parse_type_name())
                node.add(self.expect_punct("=>"))
                node.add(self.parse_type_name())
                node.add(self.expect_punct(")"))
            elif self.at_type_kw():
                node.add(self.take(a.LEAF_KW))
                if node.children[-1].token.text == "address" and self.at_kw("payable"):
                    node.add(self.take(a.LEAF_KW))
            elif self.at_ident():
                node.add(self.take(a.LEAF_NAME))
                while self.at_punct(".") and self.peek(1) is not None and self.peek(1).kind == KIND_IDENTIFIER:
                    node.add(self.take(a.LEAF_PUNCT))
                    node.add(self.take(a.LEAF_NAME))
            else:
                raise self.error("expected type name", frozenset({"type"}))
            while self.at_punct("["):
                node.add(self.take(a.LEAF_PUNCT))
                if not self.at_punct("]"):
                    node.add(self.parse_expression())
                node.add(self.expect_punct("]"))
            return node
        finally:
            self.depth = depth

    # -- statements -------------------------------------------------------

    def parse_block(self) -> AstNode:
        node = AstNode(a.BLOCK)
        node.add(self.expect_punct("{"))
        while not self.at_end() and not self.at_punct("}"):
            node.add(self.parse_statement_or_opaque())
        node.add(self.expect_punct("}"))
        return node

    def parse_statement_or_opaque(self) -> AstNode:
        return self.try_parse(self.parse_statement) or self.parse_opaque_statement()

    def parse_statement(self) -> AstNode:
        self.nest()  # only try_parse calls this
        if self.at_punct("{"):
            return self.parse_block()
        if self.at_kw("if"):
            return self.parse_if()
        if self.at_kw("for"):
            return self.parse_for()
        if self.at_kw("while"):
            return self.parse_while()
        if self.at_kw("return"):
            node = AstNode(a.RETURN_STMT)
            node.add(self.take(a.LEAF_KW))
            if not self.at_punct(";"):
                node.add(self.parse_expression())
            node.add(self.expect_punct(";"))
            return node
        if self.at_kw("emit"):
            node = AstNode(a.EMIT_STMT)
            node.add(self.take(a.LEAF_KW))
            node.add(self.parse_expression())
            node.add(self.expect_punct(";"))
            return node
        if self.at_kw("throw", "break", "continue"):
            node = AstNode(a.EXPR_STMT)
            node.add(self.take(a.LEAF_KW))
            node.add(self.expect_punct(";"))
            return node
        if self.at_kw("unchecked"):
            node = AstNode(a.BLOCK)
            node.add(self.take(a.LEAF_KW))
            node.add(self.parse_block())
            return node
        if self.at_kw("mapping") or self.at_type_kw():
            return self.parse_var_decl_stmt()
        if self.at_ident():
            decl = self.try_parse(self.parse_var_decl_stmt)
            if decl is not None:
                return decl
        return self.parse_expr_stmt()

    def parse_var_decl_stmt(self) -> AstNode:
        return self._var_decl(a.VAR_DECL_STMT, _STORAGE_KWS)

    def _var_decl(self, kind: str, keywords: frozenset[str]) -> AstNode:
        """`type keyword* name (= expression)? ;`"""
        node = AstNode(kind)
        node.add(self.parse_type_name())
        while self.at_kw(*keywords):
            node.add(self.take(a.LEAF_KW))
        node.add(self.expect_var())
        if self.at_punct("="):
            node.add(self.take(a.LEAF_PUNCT))
            node.add(self.parse_expression())
        node.add(self.expect_punct(";"))
        return node

    def parse_expr_stmt(self) -> AstNode:
        node = AstNode(a.EXPR_STMT)
        node.add(self.parse_expression())
        node.add(self.expect_punct(";"))
        return node

    def parse_if(self) -> AstNode:
        node = AstNode(a.IF_STMT)
        node.add(self.take(a.LEAF_KW))
        node.add(self.expect_punct("("))
        node.add(self.parse_expression())
        node.add(self.expect_punct(")"))
        node.add(self.parse_statement_or_opaque())
        if self.at_kw("else"):
            node.add(self.take(a.LEAF_KW))
            node.add(self.parse_statement_or_opaque())
        return node

    def parse_while(self) -> AstNode:
        node = AstNode(a.WHILE_STMT)
        node.add(self.take(a.LEAF_KW))
        node.add(self.expect_punct("("))
        node.add(self.parse_expression())
        node.add(self.expect_punct(")"))
        node.add(self.parse_statement_or_opaque())
        return node

    def parse_for(self) -> AstNode:
        node = AstNode(a.FOR_STMT)
        node.add(self.take(a.LEAF_KW))
        node.add(self.expect_punct("("))
        if self.at_punct(";"):
            node.add(self.take(a.LEAF_PUNCT))
        else:
            init = self.try_parse(self.parse_var_decl_stmt)
            if init is None:
                init = self.parse_expr_stmt()
            node.add(init)
        if not self.at_punct(";"):
            node.add(self.parse_expression())
        node.add(self.expect_punct(";"))
        if not self.at_punct(")"):
            node.add(self.parse_expression())
        node.add(self.expect_punct(")"))
        node.add(self.parse_statement_or_opaque())
        return node

    # -- opaque fallback ---------------------------------------------------

    def parse_opaque_statement(self) -> AstNode:
        """Consume a bracket-balanced run of tokens we cannot parse.

        Stops after a ';' at depth 0 or after a balanced '{...}' closes
        (except do-while, which continues to the trailing ';'). Identifier
        leaves are still harvested: callee-looking ones (followed by '(')
        become plain names, the rest variable occurrences. Unless at the end
        of input it consumes at least one token, so a stray closer becomes
        a one-leaf statement and every loop over statements makes progress.
        """
        node = AstNode(a.OPAQUE)
        start_offset = self._offset()
        depth = 0
        is_do = self.at_kw("do")
        while True:
            t = self.peek()
            if t is None:
                if depth > 0:
                    raise UnbalancedBrackets("unbalanced brackets", start_offset)
                break
            text = t.text if t.kind == KIND_PUNCT else ""
            if depth == 0 and text in (")", "]", "}"):
                break
            self._consume_opaque_unit(node)
            if text in ("(", "[", "{"):
                depth += 1
            elif text in (")", "]", "}"):
                depth -= 1
                if (depth == 0 and text == "}"
                        and not (is_do and self.at_kw("while"))):
                    break
            elif text == ";" and depth == 0:
                break
        if not node.children and not self.at_end():
            node.add(self.take_auto())  # a stray ')', ']' or '}'
        return node

    def _consume_opaque_unit(self, node: AstNode) -> None:
        t, nxt = self.peek(), self.peek(1)
        if self._at_builtin_ref():
            node.add(self._builtin_ref())
        elif t.kind != KIND_IDENTIFIER:
            node.add(self.take(_generic_leaf_kind(t)))
        elif t.text == "_" or (nxt is not None and nxt.kind == KIND_PUNCT and nxt.text == "("):
            node.add(self.take(a.LEAF_NAME))  # modifier placeholder or callee
        else:
            node.add(self.take(a.LEAF_VAR))

    def _builtin_ref(self) -> AstNode:
        """One dotted variable rooted at msg/block/tx: the root is its leaf."""
        node = AstNode(a.BUILTIN_REF)
        node.add(self.take(a.LEAF_VAR), self.take(a.LEAF_PUNCT), self.take(a.LEAF_NAME))
        return node

    # -- expressions --------------------------------------------------------

    def parse_expression(self, min_bp: int = 0) -> AstNode:
        depth = self.depth
        self.nest()
        try:
            lhs = self.parse_unary()
            while True:
                t = self.peek()
                if t is None or t.kind != KIND_PUNCT:
                    break
                text = t.text
                if text in ASSIGN_OPS:
                    if _ASSIGN_BP < min_bp:
                        break
                    node = AstNode(a.ASSIGN)
                    node.add(lhs, self.take(a.LEAF_PUNCT), self.parse_expression(_ASSIGN_BP))
                    lhs = node
                elif text == "?":
                    if _TERNARY_BP < min_bp:
                        break
                    node = AstNode(a.TERNARY)
                    node.add(lhs, self.take(a.LEAF_PUNCT), self.parse_expression())
                    node.add(self.expect_punct(":"), self.parse_expression(_TERNARY_BP))
                    lhs = node
                elif text in _BINARY_BP:
                    bp = _BINARY_BP[text]
                    if (bp < min_bp) or (bp == min_bp and text not in _RIGHT_ASSOC):
                        break
                    node = AstNode(a.BINARY)
                    node.add(lhs, self.take(a.LEAF_PUNCT))
                    node.add(self.parse_expression(bp if text in _RIGHT_ASSOC else bp + 1))
                    lhs = node
                else:
                    break
                self.nest()  # every wrap is one level deeper
            return lhs
        finally:
            self.depth = depth

    def parse_unary(self) -> AstNode:
        self.nest()  # only parse_expression and parse_unary call this
        t = self.peek()
        if t is not None and t.kind == KIND_PUNCT and t.text in _PREFIX_OPS:
            node = AstNode(a.UNARY)
            node.add(self.take(a.LEAF_PUNCT), self.parse_unary())
            return node
        if self.at_kw("delete"):
            node = AstNode(a.UNARY)
            node.add(self.take(a.LEAF_KW), self.parse_unary())
            return node
        if self.at_kw("new"):
            node = AstNode(a.NEW_EXPR)
            node.add(self.take(a.LEAF_KW), self.parse_type_name())
            return self.parse_postfix(node)
        return self.parse_postfix(self.parse_primary())

    def parse_postfix(self, node: AstNode) -> AstNode:
        while True:
            if self.at_punct("("):
                if node.is_leaf and node.kind == a.LEAF_VAR:
                    node.kind = a.LEAF_NAME  # bare identifier in callee position
                call = AstNode(a.CALL)
                call.add(node, self.take(a.LEAF_PUNCT))
                self._parse_call_args(call)
                call.add(self.expect_punct(")"))
                node = call
            elif self.at_punct("["):
                idx = AstNode(a.INDEX)
                idx.add(node, self.take(a.LEAF_PUNCT))
                if not self.at_punct("]"):
                    idx.add(self.parse_expression())
                idx.add(self.expect_punct("]"))
                node = idx
            elif self.at_punct(".") and self.peek(1) is not None and self.peek(1).kind in (KIND_IDENTIFIER, KIND_KEYWORD):
                member = AstNode(a.MEMBER)
                member.add(node, self.take(a.LEAF_PUNCT))
                member.add(self.take(a.LEAF_NAME) if self.peek().kind == KIND_IDENTIFIER
                           else self.take(a.LEAF_KW))
                node = member
            elif self.at_punct("++", "--"):
                post = AstNode(a.POSTFIX)
                post.add(node, self.take(a.LEAF_PUNCT))
                node = post
            else:
                return node
            self.nest()  # every wrap is one level deeper

    def _parse_call_args(self, node: AstNode) -> None:
        if self.at_punct("{"):
            node.add(self.take(a.LEAF_PUNCT))
            while not self.at_punct("}") and not self.at_end():
                node.add(self.expect_name())
                node.add(self.expect_punct(":"))
                node.add(self.parse_expression())
                if self.at_punct(","):
                    node.add(self.take(a.LEAF_PUNCT))
            node.add(self.expect_punct("}"))
            return
        while not self.at_punct(")") and not self.at_end():
            node.add(self.parse_expression())
            if self.at_punct(","):
                node.add(self.take(a.LEAF_PUNCT))
            else:
                break

    def parse_primary(self) -> AstNode:
        t = self.peek()
        if t is None:
            raise self.error("expected expression", frozenset({"expression"}))
        if self._at_builtin_ref():
            return self._builtin_ref()
        if t.kind == KIND_IDENTIFIER:
            return self.expect_var()
        if t.kind == KIND_NUMBER:
            num = self.take(a.LEAF_NUMBER)
            if self.at_kw(*UNIT_KEYWORDS):
                node = AstNode(a.UNIT_LITERAL)
                node.add(num, self.take(a.LEAF_KW))
                return node
            return num
        if t.kind == KIND_STRING:
            return self.take(a.LEAF_STRING)
        if t.kind == KIND_KEYWORD:
            if t.text in ("true", "false", "this"):
                return self.take(a.LEAF_KW)
            if is_type_keyword(t.text) or t.text == "payable":
                # elementary type in expression position: a cast callee
                node = self.take(a.LEAF_KW)
                if t.text == "address" and self.at_kw("payable"):
                    wrap = AstNode(a.TYPE_NAME)
                    wrap.add(node, self.take(a.LEAF_KW))
                    node = wrap
                return node
            if t.text == "mapping":
                return self.parse_type_name()
            raise self.error(f"unexpected keyword {t.text!r} in expression")
        if t.kind == KIND_PUNCT and t.text == "(":
            node = AstNode(a.TUPLE)
            node.add(self.take(a.LEAF_PUNCT))
            while not self.at_punct(")") and not self.at_end():
                if self.at_punct(","):
                    node.add(self.take(a.LEAF_PUNCT))  # empty tuple slot
                    continue
                node.add(self.parse_expression())
                if self.at_punct(","):
                    node.add(self.take(a.LEAF_PUNCT))
            node.add(self.expect_punct(")"))
            return node
        if t.kind == KIND_PUNCT and t.text == "[":
            node = AstNode(a.ARRAY_LITERAL)
            node.add(self.take(a.LEAF_PUNCT))
            while not self.at_punct("]") and not self.at_end():
                node.add(self.parse_expression())
                if self.at_punct(","):
                    node.add(self.take(a.LEAF_PUNCT))
            node.add(self.expect_punct("]"))
            return node
        raise self.error(f"unexpected token {t.text!r} in expression")


def _generic_leaf_kind(t: Token) -> str:
    """Leaf kind by token kind alone; identifiers are plain names."""
    return {
        KIND_KEYWORD: a.LEAF_KW,
        KIND_NUMBER: a.LEAF_NUMBER,
        KIND_STRING: a.LEAF_STRING,
        KIND_PUNCT: a.LEAF_PUNCT,
    }.get(t.kind, a.LEAF_NAME)


def parse(tokens: list[Token]) -> AstNode:
    """Parse a token stream (from lex) into a lossless syntax tree."""
    return _Parser(tokens).parse_source_unit()


def var_occurrences(ast: AstNode) -> list[tuple[AstNode, str]]:
    """Leaves in variable positions, in source order, each with its variable
    name: dotted (msg.sender) for the root leaf of a msg/block/tx reference."""
    out: list[tuple[AstNode, str]] = []

    def visit(node: AstNode) -> None:
        for child in node.children:
            if not child.is_leaf:
                visit(child)
            elif child.kind == a.LEAF_VAR:
                name = child.token.text
                if node.kind == a.BUILTIN_REF:  # children: root, '.', member
                    name = f"{name}.{node.children[2].token.text}"
                out.append((child, name))

    visit(ast)
    return out
