"""Data-flow graph extraction over parsed contracts.

Nodes are textual variable occurrences (every occurrence gets its own node,
source-ordered). A directed edge (src, dst) records that the value of the
dst occurrence comes from the src occurrence. Reaching definitions are
tracked per function. Definitions made outside functions (state variables,
top-level statements, inheritance arguments) reach the functions after
them in declaration order, and so do a function's definitions of those
names unless it declares the name itself. msg/block/tx member reads are
source-only nodes.

Edge rules:
  - declaration with initializer: initializer occurrences -> declared occurrence
  - assignment: RHS occurrences -> LHS occurrence, which becomes the sole
    reaching definition (strong update); indexed/member targets keep prior
    definitions and read the base first (weak update, read-modify-write)
  - tuple assignment: every RHS occurrence feeds every target; the index and
    member chains of all targets are read before any target is defined
  - compound assignment and ++/--: previous definitions also feed the new
    occurrence (self-update; may yield self-loops inside loops)
  - delete x: a strong update that reads nothing; delete m[k] and
    delete s.x are weak updates of m and s, as m[k]++ is
  - ++/--/delete of an operand without a variable base (this.m[k]++,
    (x)++) is a use of the operand and defines nothing
  - use: an occurrence in an expression gets edges from all reaching
    definitions of its name
  - if/else: the exit environment is the union of both branch exits
  - for/while: body processed twice, so definitions at body exit reach uses
    at body entry (back-edges); duplicates collapse
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import NamedTuple

from ponziscan.solparse import astnodes as a
from ponziscan.solparse.astnodes import AstNode
from ponziscan.solparse.parser import var_occurrences

Env = dict[str, set[int]]


@dataclass(frozen=True)
class VarNode:
    """One variable occurrence. name may be dotted (msg.sender); the aligned
    token is the name's root identifier. occurrence is 1-based per name."""

    name: str
    occurrence: int
    node_index: int
    code_token_index: int


class DfEdge(NamedTuple):
    src: int
    dst: int


@dataclass
class DataFlowGraph:
    vars: list[VarNode] = field(default_factory=list)
    edges: list[DfEdge] = field(default_factory=list)
    alignment: list[tuple[int, int]] = field(default_factory=list)


def extract_dfg(ast: AstNode) -> DataFlowGraph:
    """Build the graph. A node's code_token_index is its root leaf's
    Token.index, its position in the code sequence the model consumes."""
    vars_: list[VarNode] = []
    counts: dict[str, int] = {}
    token_to_node: dict[int, int] = {}
    for i, (leaf, name) in enumerate(var_occurrences(ast)):
        counts[name] = counts.get(name, 0) + 1
        vars_.append(VarNode(name, counts[name], i, leaf.token.index))
        token_to_node[leaf.token.index] = i
    walker = _Walker(token_to_node)
    walker.walk_members(ast, {})
    edges = [DfEdge(s, d) for s, d in sorted(walker.edges)]
    alignment = [(v.node_index, v.code_token_index) for v in vars_]
    return DataFlowGraph(vars_, edges, alignment)


def to_dot(dfg: DataFlowGraph) -> str:
    lines = ["digraph dfg {"]
    labels = [f'"{v.name}_{v.occurrence}"' for v in dfg.vars]
    for label in labels:
        lines.append(f"  {label};")
    for e in dfg.edges:
        lines.append(f"  {labels[e.src]} -> {labels[e.dst]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_jsonable(dfg: DataFlowGraph) -> dict:
    return {
        "vars": [
            {"name": v.name, "occurrence": v.occurrence,
             "node_index": v.node_index, "code_token_index": v.code_token_index}
            for v in dfg.vars
        ],
        "edges": [[e.src, e.dst] for e in dfg.edges],
        "alignment": [[n, c] for n, c in dfg.alignment],
    }


def _merge_into(env: Env, other: Env) -> None:
    for name, defs in other.items():
        env[name] = (env[name] | defs) if name in env else set(defs)


# Members that carry no data flow. An event's parameters and a struct's
# fields declare no variable.
_NO_FLOW = (a.PRAGMA, a.IMPORT, a.STRUCT_DECL, a.ENUM_DECL, a.EVENT_DECL)


def _chain_base(node: AstNode) -> AstNode | None:
    """The variable at the root of an index/member chain (m in m[k].x), the
    node itself when it is a variable, or None when the root is no variable
    (this.m[k], f()[k], (x))."""
    while node.kind in (a.INDEX, a.MEMBER) and node.children:
        node = node.children[0]
    if node.is_leaf and node.kind == a.LEAF_VAR:
        return node
    return None


class _Walker:
    def __init__(self, token_to_node: dict[int, int]):
        self.t2n = token_to_node
        self.edges: set[tuple[int, int]] = set()
        self.declared: set[str] = set()  # names the current function declares

    def _node(self, leaf: AstNode) -> int:
        return self.t2n[leaf.token.index]

    def _define(self, leaf: AstNode, sources: Iterable[int], env: Env,
                strong: bool) -> int:
        """Make the occurrence `leaf` a definition of its name, fed by
        `sources`. A strong definition replaces the name's reaching
        definitions; a weak one (indexed or member target) joins them."""
        idx = self._node(leaf)
        for s in sources:
            self.edges.add((s, idx))
        name = leaf.token.text
        env[name] = {idx} if strong else env.get(name, set()) | {idx}
        return idx

    # -- structure ---------------------------------------------------------

    def walk_members(self, node: AstNode, env: Env) -> None:
        """A source unit's or a contract's members, in order. A contract
        starts from no definitions; a function or modifier sees the
        definitions made before it; every other member is a statement."""
        for member in node.children:
            if member.is_leaf or member.kind in _NO_FLOW:
                continue
            if member.kind == a.CONTRACT:
                self.walk_members(member, {})
            elif member.kind in (a.FUNCTION, a.MODIFIER_DECL):
                env = self._walk_function(member, env)
            else:
                self.exec_stmt(member, env)

    def _walk_function(self, fn: AstNode, outer: Env) -> Env:
        """Walk one function; return the definitions of outer's names that
        reach the next member. Locals do not escape, and a name the
        function declares keeps its definitions from before the function."""
        env = dict(outer)
        self.declared = set()
        for child in fn.children:
            if child.kind == a.LEAF_VAR:
                self.eval_expr(child, env)  # bare modifier argument
            elif not child.is_leaf:
                self.exec_stmt(child, env)  # parameters, modifier arguments, body
        return {name: (outer if name in self.declared else env)[name] for name in outer}

    # -- statements ---------------------------------------------------------

    def exec_stmt(self, node: AstNode, env: Env) -> None:
        kind = node.kind
        if kind == a.BLOCK:
            for child in node.children:
                if not child.is_leaf:
                    self.exec_stmt(child, env)
        elif kind in (a.VAR_DECL_STMT, a.STATE_VAR, a.PARAM):
            self.exec_decl(node, env)
        elif kind == a.IF_STMT:
            self._exec_if(node, env)
        elif kind == a.WHILE_STMT:
            self._loop(node.children[2], node.children[4], None, env)
        elif kind == a.FOR_STMT:
            self._exec_for(node, env)
        elif kind in (a.EXPR_STMT, a.RETURN_STMT, a.EMIT_STMT):
            for child in node.children:
                if not child.is_leaf or child.kind == a.LEAF_VAR:
                    self.eval_expr(child, env)
        else:
            self.eval_expr(node, env)

    def exec_decl(self, node: AstNode, env: Env) -> None:
        """A local, state or struct-member variable, or a parameter:
        everything after '=' is the initializer."""
        declared: AstNode | None = None
        sources: list[int] | None = None  # set at '='
        for child in node.children:
            if sources is not None:
                sources += self.eval_expr(child, env)
            elif child.is_leaf and child.token.text == "=":
                sources = []
            elif child.kind == a.LEAF_VAR:
                declared = child
            else:
                self.eval_expr(child, env)  # type subtree (array sizes)
        if declared is not None:
            self.declared.add(declared.token.text)
            self._define(declared, sources or (), env, strong=True)

    def _exec_if(self, node: AstNode, env: Env) -> None:
        cond, then_stmt = node.children[2], node.children[4]
        self.eval_expr(cond, env)
        env_then, env_else = dict(env), dict(env)
        self.exec_stmt(then_stmt, env_then)
        if len(node.children) >= 7:
            self.exec_stmt(node.children[6], env_else)
        _merge_into(env_then, env_else)
        env.clear()
        env.update(env_then)

    def _exec_for(self, node: AstNode, env: Env) -> None:
        # for ( init-statement-or-';' cond? ';' update? ) body
        ch = node.children
        header = ch[3:-2]
        semi = next(i for i, c in enumerate(header) if c.is_leaf and c.token.text == ";")
        if not ch[2].is_leaf:
            self.exec_stmt(ch[2], env)
        self._loop(header[0] if semi else None, ch[-1],
                   header[-1] if semi < len(header) - 1 else None, env)

    def _loop(self, cond: AstNode | None, body: AstNode,
              update: AstNode | None, env: Env) -> None:
        """Two passes, so definitions at body exit reach uses at entry."""
        entry = dict(env)
        for _ in range(2):
            if cond is not None:
                self.eval_expr(cond, env)
            self.exec_stmt(body, env)
            if update is not None:
                self.eval_expr(update, env)
            _merge_into(env, entry)

    # -- expressions ----------------------------------------------------------

    def eval_expr(self, node: AstNode, env: Env) -> list[int]:
        """Add use edges throughout an expression subtree; return the node
        indices of occurrences that act as value sources for an enclosing
        definition."""
        if node.is_leaf:
            if node.kind != a.LEAF_VAR:
                return []
            idx = self._node(node)
            for d in env.get(node.token.text, ()):
                self.edges.add((d, idx))
            return [idx]
        kind = node.kind
        if kind == a.BUILTIN_REF:
            return [self._node(node.children[0])]
        if kind == a.ASSIGN:
            return self._exec_assign(node, env)
        if kind in (a.UNARY, a.POSTFIX):
            return self._exec_unary(node, env)
        out: list[int] = []
        for child in node.children:
            out.extend(self.eval_expr(child, env))
        return out

    def _exec_assign(self, node: AstNode, env: Env) -> list[int]:
        lhs, op, rhs = node.children
        sources = self.eval_expr(rhs, env)
        targets: list[tuple[AstNode, bool]] = []
        self._collect_targets(lhs, env, targets)
        defined = []
        for leaf, strong in targets:
            # a compound assignment also reads the target's old value
            old = env.get(leaf.token.text, ()) if strong and op.token.text != "=" else ()
            defined.append(self._define(leaf, [*old, *sources], env, strong))
        return defined or sources

    def _collect_targets(self, lhs: AstNode, env: Env,
                         out: list[tuple[AstNode, bool]]) -> None:
        """Assignment targets as (leaf, strong), in source order. Index and
        member chains are read here, before any target is defined."""
        if lhs.kind == a.TUPLE:
            for child in lhs.children:
                self._collect_targets(child, env, out)
        elif lhs.kind == a.LEAF_VAR:
            out.append((lhs, True))
        else:
            self.eval_expr(lhs, env)
            base = _chain_base(lhs)
            if base is not None:
                out.append((base, False))

    def _exec_unary(self, node: AstNode, env: Env) -> list[int]:
        op, operand = node.children if node.kind == a.UNARY else node.children[::-1]
        base = _chain_base(operand) if op.token.text in ("++", "--", "delete") else None
        if base is None:
            return self.eval_expr(operand, env)
        if op.token.text != "delete" or base is not operand:
            self.eval_expr(operand, env)  # the old value is read, except by `delete x`
        return [self._define(base, (), env, strong=base is operand)]
