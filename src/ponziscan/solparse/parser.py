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

The parser reads one key per token, built once up front: the token's text
for punctuation and keywords, a fixed tag for identifiers, numbers and
strings, and an end key after the last token. Testing the current token is
one list read, and no key of one kind equals a key of another.

A declaration is attempted only where one can follow: at a type keyword or
`mapping`, or at an identifier or dotted identifier (`a.b`) and its bracket
groups (`a[2][]`) followed by an identifier or a declaration keyword
(`memory`, `storage`, `calldata` in a statement; `public`, `constant`, ...
in a contract). Anywhere else it would fail, so skipping it changes no tree;
groups long enough that it could nest too deep first are still tried.

Given `nodes`, parse stops after the first top-level or contract member
that takes the count of variable occurrences (as var_occurrences counts
them, msg.x roots included) above `nodes`; a contract cut there ends
without its `}`. Graph definitions flow forward only (members in order,
loop back-edges inside one member), so graph nodes 0..nodes-1, with their
edges and alignment, are the same as from the whole source. Parse errors
past the cut are not seen.
"""

from __future__ import annotations

import math
from typing import Callable

from ponziscan.errors import NestingTooDeep, ParseError, UnbalancedBrackets
from ponziscan.solparse import astnodes as a
from ponziscan.solparse.astnodes import AstNode
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
_PARAM_KWS = _STORAGE_KWS | {"indexed", "payable"}
_FUNCTION_ATTR_KWS = _VISIBILITY_KWS | _MUTABILITY_KWS

# Token keys: punctuation and keywords are keyed by their text, the other
# kinds by a tag no token text equals; END follows the last token.
IDENT, NUMBER, STRING, END = "<identifier>", "<number>", "<string>", "<end>"
_TAGS = {KIND_IDENTIFIER: IDENT, KIND_NUMBER: NUMBER, KIND_STRING: STRING}
# leaf kind by token kind alone; identifiers are plain names
_LEAF_KINDS = {KIND_KEYWORD: a.LEAF_KW, KIND_NUMBER: a.LEAF_NUMBER,
               KIND_STRING: a.LEAF_STRING, KIND_PUNCT: a.LEAF_PUNCT}

# Deepest nesting parse accepts. A statement, expression, operand or type
# name being parsed is one level, and so is each operator or postfix that
# wraps an operand. That bounds the parser's recursion and the depth of the
# tree that the walks after it recurse over (extract_dfg, to_jsonable,
# iter_leaves) to about 600 of Python's default 1,000 frames.
MAX_NESTING = 150


class _Parser:
    def __init__(self, tokens: list[Token], nodes: int | None = None):
        self.toks = tokens
        self.keys = [_TAGS.get(t.kind, t.text) for t in tokens] + [END]
        self.n = len(tokens)
        self.pos = 0
        self.depth = 0
        self.vars = 0  # variable occurrences so far, as var_occurrences counts
        self.limit = math.inf if nodes is None else nodes

    # -- token navigation ---------------------------------------------

    def at_end(self) -> bool:
        return self.pos >= self.n

    def _offset(self) -> int:
        if self.pos < self.n:
            return self.toks[self.pos].start
        return self.toks[-1].end if self.toks else 0

    def error(self, message: str, expected: frozenset[str] = frozenset()) -> ParseError:
        return ParseError(message, self._offset(), expected)

    def at(self, *texts: str) -> bool:
        """At a punctuation or keyword token with one of these texts."""
        return self.keys[self.pos] in texts

    def at_ident(self) -> bool:
        return self.keys[self.pos] == IDENT

    def _at_builtin_ref(self) -> bool:
        """At `msg.x`, `block.x` or `tx.x`."""
        p, keys = self.pos, self.keys
        return (keys[p] == IDENT and keys[p + 1] == "." and keys[p + 2] == IDENT
                and self.toks[p].text in BUILTIN_ROOTS)

    def _at_decl(self, keywords: frozenset[str]) -> bool:
        """Whether `type keyword* name` can start here: at a type keyword or
        `mapping`, or at a dotted identifier (`a.b.c`, as parse_type_name
        reads it) and its bracket groups followed by an identifier or one of
        `keywords` (`x[i] += 1;` is none), or where the groups are long."""
        keys, p = self.keys, self.pos
        if keys[p] != IDENT:
            return keys[p] == "mapping" or is_type_keyword(keys[p])
        p += 1
        while keys[p] == "." and keys[p + 1] == IDENT:
            p += 2
        end, open_ = p, 0
        while keys[end] != END and (open_ or keys[end] == "["):  # array dimensions
            open_ += (keys[end] == "[") - (keys[end] == "]")
            end += 1
        # an index of t tokens nests at most 3 t + 2 levels below the type name
        deep = self.depth + 3 * (end - p) + 4 >= MAX_NESTING
        return deep or keys[end] == IDENT or keys[end] in keywords

    # -- leaf constructors ----------------------------------------------

    def take(self, kind: str) -> AstNode:
        tok = self.toks[self.pos]
        self.pos += 1
        return AstNode(kind, [], tok)  # positional: a keyword call costs more

    def take_var(self) -> AstNode:
        self.vars += 1
        return self.take(a.LEAF_VAR)

    def take_auto(self) -> AstNode:
        """Consume one token as a leaf with a role-free classification."""
        return self.take(_LEAF_KINDS.get(self.toks[self.pos].kind, a.LEAF_NAME))

    def expect_punct(self, text: str) -> AstNode:
        if self.keys[self.pos] != text:
            raise self.error(f"expected {text!r}", frozenset({text}))
        return self.take(a.LEAF_PUNCT)

    def expect_name(self) -> AstNode:
        if self.keys[self.pos] != IDENT:
            raise self.error("expected identifier", frozenset({"identifier"}))
        return self.take(a.LEAF_NAME)

    def expect_var(self) -> AstNode:
        if self.keys[self.pos] != IDENT:
            raise self.error("expected identifier", frozenset({"identifier"}))
        # Bare "_" is the modifier body placeholder, never a value.
        if self.toks[self.pos].text == "_":
            return self.take(a.LEAF_NAME)
        return self.take_var()

    def nest(self) -> None:
        """One level deeper, until the enclosing try_parse, parse_expression
        or parse_type_name call ends."""
        if self.depth >= MAX_NESTING:
            raise NestingTooDeep(f"nested deeper than {MAX_NESTING} levels",
                                 self._offset())
        self.depth += 1

    def try_parse(self, fn: Callable[[], AstNode]) -> AstNode | None:
        save, depth, n_vars = self.pos, self.depth, self.vars
        try:
            return fn()
        except NestingTooDeep:
            raise  # no fallback parses what is too deep
        except ParseError:
            self.pos, self.vars = save, n_vars
            return None
        finally:
            self.depth = depth

    # -- top level -------------------------------------------------------

    def parse_source_unit(self) -> AstNode:
        unit = AstNode(a.SOURCE_UNIT)
        while not self.at_end() and self.vars <= self.limit:
            k = self.keys[self.pos]
            if k in ("pragma", "import"):
                unit.add(self._directive(a.PRAGMA if k == "pragma" else a.IMPORT))
            elif k in ("contract", "interface", "library"):
                unit.add(self.parse_contract())
            elif k in _MEMBER_PARSERS:
                unit.add(self.parse_contract_member())
            else:
                unit.add(self.try_parse(self.parse_statement)
                         or self.try_parse(self.parse_file_constant)
                         or self.parse_opaque_statement())
        return unit

    def _directive(self, kind: str) -> AstNode:
        """pragma/import: consumed through ';', no variable occurrences."""
        node = AstNode(kind, [self.take(a.LEAF_KW)])
        while not self.at_end():
            if self.at(";"):
                node.add(self.take(a.LEAF_PUNCT))
                break
            node.add(self.take_auto())
        return node

    def _declared(self, kind: str) -> AstNode:
        """A node started with its keyword and declared name."""
        return AstNode(kind, [self.take(a.LEAF_KW), self.expect_name()])

    def parse_contract(self) -> AstNode:
        node = self._declared(a.CONTRACT)
        if self.at("is"):
            node.add(self.take(a.LEAF_KW))
            while True:
                node.add(self.expect_name())
                if self.at("("):
                    self._parse_call_args(node)
                if not self.at(","):
                    break
                node.add(self.take(a.LEAF_PUNCT))
        node.add(self.expect_punct("{"))
        while self.keys[self.pos] not in ("}", END) and self.vars <= self.limit:
            node.add(self.parse_contract_member())
        if self.vars <= self.limit:
            node.add(self.expect_punct("}"))
        return node

    def parse_contract_member(self) -> AstNode:
        parse_member = _MEMBER_PARSERS.get(self.keys[self.pos])
        if parse_member is not None:
            return parse_member(self)
        # `using ... for ...;` lands here too: it is no type name
        decl = self.try_parse(self.parse_state_var) if self._at_decl(_STATE_VAR_KWS) else None
        return decl or self.parse_opaque_statement()

    def parse_state_var(self) -> AstNode:
        return self._var_decl(a.STATE_VAR, _STATE_VAR_KWS)

    def parse_file_constant(self) -> AstNode:
        """A state variable declared `constant` outside any contract."""
        node = self.parse_state_var()
        if not any(c.kind == a.LEAF_KW and c.token.text == "constant"
                   for c in node.children):
            raise self.error("expected a constant")
        return node

    def parse_function(self) -> AstNode:
        node = AstNode(a.FUNCTION, [self.take(a.LEAF_KW)])
        if self.at_ident():
            node.add(self.take(a.LEAF_NAME))
        self._parse_params(node)
        self._parse_function_attrs(node)
        node.add(self.take(a.LEAF_PUNCT) if self.at(";") else self.parse_block())
        return node

    def _parse_params(self, node: AstNode) -> None:
        """`(type keyword* name?, ...)`"""
        node.add(self.expect_punct("("))
        while self.keys[self.pos] not in (")", END):
            param = AstNode(a.PARAM, [self.parse_type_name()])
            while self.keys[self.pos] in _PARAM_KWS:
                param.add(self.take(a.LEAF_KW))
            if self.at_ident():
                param.add(self.expect_var())
            node.add(param)
            if not self.at(","):
                break
            node.add(self.take(a.LEAF_PUNCT))
        node.add(self.expect_punct(")"))

    def _parse_function_attrs(self, node: AstNode) -> None:
        while True:
            k = self.keys[self.pos]
            if k in _FUNCTION_ATTR_KWS:
                node.add(self.take(a.LEAF_KW))
            elif k == "override":
                node.add(self.take(a.LEAF_KW))
                if self.at("("):
                    node.add(self.take(a.LEAF_PUNCT))
                    while self.keys[self.pos] in (IDENT, ","):
                        node.add(self.take_auto())
                    node.add(self.expect_punct(")"))
            elif k == "returns":
                node.add(self.take(a.LEAF_KW))
                self._parse_params(node)
            elif k == IDENT:
                # custom modifier invocation; its arguments are real uses
                node.add(self.take(a.LEAF_NAME))
                if self.at("("):
                    self._parse_call_args(node)
            else:
                break

    def parse_modifier(self) -> AstNode:
        node = self._declared(a.MODIFIER_DECL)
        if self.at("("):
            self._parse_params(node)
        node.add(self.take(a.LEAF_PUNCT) if self.at(";") else self.parse_block())
        return node

    def parse_event(self) -> AstNode:
        node = self._declared(a.EVENT_DECL)
        self._parse_params(node)
        if self.at("anonymous"):
            node.add(self.take(a.LEAF_KW))
        node.add(self.expect_punct(";"))
        return node

    def parse_struct(self) -> AstNode:
        node = self._declared(a.STRUCT_DECL)
        node.add(self.expect_punct("{"))
        while self.keys[self.pos] not in ("}", END):
            node.add(AstNode(a.VAR_DECL_STMT, [self.parse_type_name(), self.expect_var(),
                                               self.expect_punct(";")]))
        node.add(self.expect_punct("}"))
        return node

    def parse_enum(self) -> AstNode:
        node = self._declared(a.ENUM_DECL)
        node.add(self.expect_punct("{"))
        while self.keys[self.pos] not in ("}", END):
            node.add(self.take_auto())
        node.add(self.expect_punct("}"))
        return node

    # -- types ----------------------------------------------------------

    def parse_type_name(self) -> AstNode:
        depth = self.depth
        self.nest()
        try:
            node = AstNode(a.TYPE_NAME)
            keys = self.keys
            k = keys[self.pos]
            if k == "mapping":
                node.add(self.take(a.LEAF_KW), self.expect_punct("("), self.parse_type_name(),
                         self.expect_punct("=>"), self.parse_type_name(),
                         self.expect_punct(")"))
            elif k == IDENT:
                node.add(self.take(a.LEAF_NAME))
                while keys[self.pos] == "." and keys[self.pos + 1] == IDENT:
                    node.add(self.take(a.LEAF_PUNCT), self.take(a.LEAF_NAME))
            elif is_type_keyword(k):
                node.add(self.take(a.LEAF_KW))
                if k == "address" and keys[self.pos] == "payable":
                    node.add(self.take(a.LEAF_KW))
            else:
                raise self.error("expected type name", frozenset({"type"}))
            while keys[self.pos] == "[":
                node.add(self.take(a.LEAF_PUNCT))
                if keys[self.pos] != "]":
                    node.add(self.parse_expression())
                node.add(self.expect_punct("]"))
            return node
        finally:
            self.depth = depth

    # -- statements -------------------------------------------------------

    def parse_block(self) -> AstNode:
        node = AstNode(a.BLOCK, [self.expect_punct("{")])
        while self.keys[self.pos] not in ("}", END):
            node.add(self.parse_statement_or_opaque())
        node.add(self.expect_punct("}"))
        return node

    def parse_statement_or_opaque(self) -> AstNode:
        return self.try_parse(self.parse_statement) or self.parse_opaque_statement()

    def parse_statement(self) -> AstNode:
        self.nest()  # only try_parse calls this
        k = self.keys[self.pos]
        if k == "{":
            return self.parse_block()
        if k == "if":
            return self.parse_if()
        if k == "for":
            return self.parse_for()
        if k == "while":
            return self.parse_while()
        if k == "return":
            node = AstNode(a.RETURN_STMT, [self.take(a.LEAF_KW)])
            if not self.at(";"):
                node.add(self.parse_expression())
            node.add(self.expect_punct(";"))
            return node
        if k == "emit":
            return AstNode(a.EMIT_STMT, [self.take(a.LEAF_KW), self.parse_expression(),
                                         self.expect_punct(";")])
        if k in ("throw", "break", "continue"):
            return AstNode(a.EXPR_STMT, [self.take(a.LEAF_KW), self.expect_punct(";")])
        if k == "unchecked":
            return AstNode(a.BLOCK, [self.take(a.LEAF_KW), self.parse_block()])
        if k == "mapping" or is_type_keyword(k):
            return self.parse_var_decl_stmt()
        if self._at_decl(_STORAGE_KWS):
            decl = self.try_parse(self.parse_var_decl_stmt)
            if decl is not None:
                return decl
        return self.parse_expr_stmt()

    def parse_var_decl_stmt(self) -> AstNode:
        return self._var_decl(a.VAR_DECL_STMT, _STORAGE_KWS)

    def _var_decl(self, kind: str, keywords: frozenset[str]) -> AstNode:
        """`type keyword* name (= expression)? ;`"""
        node = AstNode(kind, [self.parse_type_name()])
        while self.keys[self.pos] in keywords:
            node.add(self.take(a.LEAF_KW))
        node.add(self.expect_var())
        if self.at("="):
            node.add(self.take(a.LEAF_PUNCT), self.parse_expression())
        node.add(self.expect_punct(";"))
        return node

    def parse_expr_stmt(self) -> AstNode:
        return AstNode(a.EXPR_STMT, [self.parse_expression(), self.expect_punct(";")])

    def _guarded(self, kind: str) -> AstNode:
        """`keyword ( expression ) statement`: an if without its else, or a while."""
        return AstNode(kind, [self.take(a.LEAF_KW), self.expect_punct("("),
                              self.parse_expression(), self.expect_punct(")"),
                              self.parse_statement_or_opaque()])

    def parse_if(self) -> AstNode:
        node = self._guarded(a.IF_STMT)
        if self.at("else"):
            node.add(self.take(a.LEAF_KW), self.parse_statement_or_opaque())
        return node

    def parse_while(self) -> AstNode:
        return self._guarded(a.WHILE_STMT)

    def parse_for(self) -> AstNode:
        node = AstNode(a.FOR_STMT, [self.take(a.LEAF_KW), self.expect_punct("(")])
        if self.at(";"):
            node.add(self.take(a.LEAF_PUNCT))
        else:
            init = None
            if self._at_decl(_STORAGE_KWS):
                init = self.try_parse(self.parse_var_decl_stmt)
            node.add(init or self.parse_expr_stmt())
        if not self.at(";"):
            node.add(self.parse_expression())
        node.add(self.expect_punct(";"))
        if not self.at(")"):
            node.add(self.parse_expression())
        node.add(self.expect_punct(")"), self.parse_statement_or_opaque())
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
        is_do = self.at("do")
        while True:
            k = self.keys[self.pos]
            if k == END:
                if depth > 0:
                    raise UnbalancedBrackets("unbalanced brackets", start_offset)
                break
            if depth == 0 and k in (")", "]", "}"):
                break
            self._consume_opaque_unit(node)
            if k in ("(", "[", "{"):
                depth += 1
            elif k in (")", "]", "}"):
                depth -= 1
                if depth == 0 and k == "}" and not (is_do and self.at("while")):
                    break
            elif k == ";" and depth == 0:
                break
        if not node.children and not self.at_end():
            node.add(self.take_auto())  # a stray ')', ']' or '}'
        return node

    def _consume_opaque_unit(self, node: AstNode) -> None:
        if self._at_builtin_ref():
            node.add(self._builtin_ref())
        elif self.keys[self.pos] != IDENT:
            node.add(self.take_auto())
        elif self.toks[self.pos].text == "_" or self.keys[self.pos + 1] == "(":
            node.add(self.take(a.LEAF_NAME))  # modifier placeholder or callee
        else:
            node.add(self.take_var())

    def _builtin_ref(self) -> AstNode:
        """One dotted variable rooted at msg/block/tx: the root is its leaf."""
        return AstNode(a.BUILTIN_REF, [self.take_var(), self.take(a.LEAF_PUNCT),
                                       self.take(a.LEAF_NAME)])

    # -- expressions --------------------------------------------------------

    def parse_expression(self, min_bp: int = 0) -> AstNode:
        depth = self.depth
        self.nest()
        try:
            lhs = self.parse_unary()
            keys = self.keys
            while True:
                k = keys[self.pos]
                if k in ASSIGN_OPS:
                    if _ASSIGN_BP < min_bp:
                        break
                    lhs = AstNode(a.ASSIGN, [lhs, self.take(a.LEAF_PUNCT),
                                             self.parse_expression(_ASSIGN_BP)])
                elif k == "?":
                    if _TERNARY_BP < min_bp:
                        break
                    lhs = AstNode(a.TERNARY, [lhs, self.take(a.LEAF_PUNCT),
                                              self.parse_expression(), self.expect_punct(":"),
                                              self.parse_expression(_TERNARY_BP)])
                elif k in _BINARY_BP:
                    bp = _BINARY_BP[k]
                    if (bp < min_bp) or (bp == min_bp and k not in _RIGHT_ASSOC):
                        break
                    lhs = AstNode(a.BINARY, [lhs, self.take(a.LEAF_PUNCT), self.parse_expression(
                        bp if k in _RIGHT_ASSOC else bp + 1)])
                else:
                    break
                self.nest()  # every wrap is one level deeper
            return lhs
        finally:
            self.depth = depth

    def parse_unary(self) -> AstNode:
        self.nest()  # only parse_expression and parse_unary call this
        k = self.keys[self.pos]
        if k in _PREFIX_OPS or k == "delete":
            return AstNode(a.UNARY, [self.take(a.LEAF_PUNCT if k in _PREFIX_OPS else a.LEAF_KW),
                                     self.parse_unary()])
        if k == "new":
            return self.parse_postfix(AstNode(a.NEW_EXPR, [self.take(a.LEAF_KW),
                                                           self.parse_type_name()]))
        return self.parse_postfix(self.parse_primary())

    def parse_postfix(self, node: AstNode) -> AstNode:
        keys = self.keys
        while True:
            k = keys[self.pos]
            if k == "(":
                if node.kind == a.LEAF_VAR:
                    node.kind = a.LEAF_NAME  # bare identifier in callee position
                    self.vars -= 1
                node = AstNode(a.CALL, [node])
                self._parse_call_args(node)
            elif k == "[":
                node = AstNode(a.INDEX, [node, self.take(a.LEAF_PUNCT)])
                if keys[self.pos] != "]":
                    node.add(self.parse_expression())
                node.add(self.expect_punct("]"))
            elif (k == "." and keys[self.pos + 1] != END
                    and self.toks[self.pos + 1].kind in (KIND_IDENTIFIER, KIND_KEYWORD)):
                node = AstNode(a.MEMBER, [node, self.take(a.LEAF_PUNCT), self.take(
                    a.LEAF_NAME if keys[self.pos] == IDENT else a.LEAF_KW)])
            elif k in ("++", "--"):
                node = AstNode(a.POSTFIX, [node, self.take(a.LEAF_PUNCT)])
            else:
                return node
            self.nest()  # every wrap is one level deeper

    def _parse_call_args(self, node: AstNode) -> None:
        """`(expression, ...)` or `({name: expression, ...})`"""
        keys = self.keys
        node.add(self.take(a.LEAF_PUNCT))
        if keys[self.pos] == "{":
            node.add(self.take(a.LEAF_PUNCT))
            while keys[self.pos] not in ("}", END):
                node.add(self.expect_name(), self.expect_punct(":"), self.parse_expression())
                if keys[self.pos] == ",":
                    node.add(self.take(a.LEAF_PUNCT))
            node.add(self.expect_punct("}"))
        else:
            while keys[self.pos] not in (")", END):
                node.add(self.parse_expression())
                if keys[self.pos] != ",":
                    break
                node.add(self.take(a.LEAF_PUNCT))
        node.add(self.expect_punct(")"))

    def parse_primary(self) -> AstNode:
        k = self.keys[self.pos]
        if k == IDENT:
            return self._builtin_ref() if self._at_builtin_ref() else self.expect_var()
        if k == NUMBER:
            num = self.take(a.LEAF_NUMBER)
            if self.keys[self.pos] in UNIT_KEYWORDS:
                return AstNode(a.UNIT_LITERAL, [num, self.take(a.LEAF_KW)])
            return num
        if k == STRING:
            return self.take(a.LEAF_STRING)
        if k == END:
            raise self.error("expected expression", frozenset({"expression"}))
        if self.toks[self.pos].kind == KIND_KEYWORD:
            if k in ("true", "false", "this"):
                return self.take(a.LEAF_KW)
            if is_type_keyword(k) or k == "payable":
                # elementary type in expression position: a cast callee
                node = self.take(a.LEAF_KW)
                if k == "address" and self.at("payable"):
                    node = AstNode(a.TYPE_NAME, [node, self.take(a.LEAF_KW)])
                return node
            if k == "mapping":
                return self.parse_type_name()
            raise self.error(f"unexpected keyword {k!r} in expression")
        if k == "(":
            node = AstNode(a.TUPLE, [self.take(a.LEAF_PUNCT)])
            while self.keys[self.pos] not in (")", END):
                if self.at(","):
                    node.add(self.take(a.LEAF_PUNCT))  # empty tuple slot
                    continue
                node.add(self.parse_expression())
                if self.at(","):
                    node.add(self.take(a.LEAF_PUNCT))
            node.add(self.expect_punct(")"))
            return node
        if k == "[":
            node = AstNode(a.ARRAY_LITERAL, [self.take(a.LEAF_PUNCT)])
            while self.keys[self.pos] not in ("]", END):
                node.add(self.parse_expression())
                if self.at(","):
                    node.add(self.take(a.LEAF_PUNCT))
            node.add(self.expect_punct("]"))
            return node
        raise self.error(f"unexpected token {k!r} in expression")


_MEMBER_PARSERS = {"function": _Parser.parse_function, "constructor": _Parser.parse_function,
                   "modifier": _Parser.parse_modifier, "event": _Parser.parse_event,
                   "struct": _Parser.parse_struct, "enum": _Parser.parse_enum}


def parse(tokens: list[Token], nodes: int | None = None) -> AstNode:
    """Parse a token stream (from lex) into a lossless syntax tree. With
    `nodes`, stop after the first top-level or contract member that takes
    the count of variable occurrences above `nodes`."""
    return _Parser(tokens, nodes).parse_source_unit()


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
