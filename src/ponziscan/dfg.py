"""Data-flow graph extraction over parsed contracts.

Nodes are textual variable occurrences (every occurrence gets its own node,
source-ordered). A directed edge (src, dst) records that the value of the
dst occurrence comes from the src occurrence. Reaching definitions are
tracked per function; state variables persist across a contract's functions
in declaration order. msg/block/tx member reads are source-only nodes.

Edge rules:
  - declaration with initializer: initializer occurrences -> declared occurrence
  - assignment: RHS occurrences -> LHS occurrence, which becomes the sole
    reaching definition (strong update); indexed/member targets keep prior
    definitions and read the base first (weak update, read-modify-write)
  - compound assignment and ++/--: previous definitions also feed the new
    occurrence (self-update; may yield self-loops inside loops)
  - use: an occurrence in an expression gets edges from all reaching
    definitions of its name
  - if/else: the exit environment is the union of both branch exits
  - for/while: body processed twice, so definitions at body exit reach uses
    at body entry (back-edges); duplicates collapse
"""

from __future__ import annotations

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
    walker.walk_source_unit(ast)
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


def _chain_base(node: AstNode) -> AstNode | None:
    while node.kind in (a.INDEX, a.MEMBER) and node.children:
        node = node.children[0]
    if node.is_leaf and node.kind == a.LEAF_VAR:
        return node
    return None


class _Walker:
    def __init__(self, token_to_node: dict[int, int]):
        self.t2n = token_to_node
        self.edges: set[tuple[int, int]] = set()
        self.declared: set[str] | None = None

    def _node(self, leaf: AstNode) -> int:
        return self.t2n[leaf.token.index]

    # -- structure ---------------------------------------------------------

    def walk_source_unit(self, unit: AstNode) -> None:
        env: Env = {}
        for child in unit.children:
            if child.is_leaf:
                continue
            kind = child.kind
            if kind == a.CONTRACT:
                self.walk_contract(child)
            elif kind in (a.PRAGMA, a.IMPORT, a.STRUCT_DECL, a.ENUM_DECL,
                          a.EVENT_DECL):
                continue
            elif kind in (a.FUNCTION, a.MODIFIER_DECL):
                # free functions thread the top-level definitions the same
                # way contract members thread state variables
                env = self._walk_function(child, env, set(env))
            else:
                self.declared = None
                self.exec_stmt(child, env)

    def walk_contract(self, contract: AstNode) -> None:
        state_env: Env = {}
        state_names: set[str] = set()
        for member in contract.children:
            if member.is_leaf:
                continue
            kind = member.kind
            if kind == a.STATE_VAR:
                self.declared = None
                name = self.exec_decl(member, state_env)
                if name is not None:
                    state_names.add(name)
            elif kind in (a.FUNCTION, a.MODIFIER_DECL):
                state_env = self._walk_function(member, state_env, state_names)
            elif kind in (a.STRUCT_DECL, a.ENUM_DECL, a.EVENT_DECL):
                continue
            else:
                self.eval_expr(member, state_env)

    def _walk_function(self, fn: AstNode, state_env: Env, state_names: set[str]) -> Env:
        snapshot = {k: set(v) for k, v in state_env.items()}
        env = dict(state_env)
        self.declared = set()
        for child in fn.children:
            if child.is_leaf:
                if child.kind == a.LEAF_VAR:
                    self.eval_expr(child, env)  # bare modifier argument
                continue
            if child.kind == a.PARAM:
                self._bind_param(child, env)
            elif child.kind == a.BLOCK:
                self.exec_stmt(child, env)
            else:
                self.eval_expr(child, env)
        # thread state variables to the next member; locals do not escape,
        # and a shadowing local restores the pre-function state definition
        next_env: Env = {}
        for name in state_names:
            if name in self.declared:
                if name in snapshot:
                    next_env[name] = snapshot[name]
            elif name in env:
                next_env[name] = env[name]
        self.declared = None
        return next_env

    def _bind_param(self, param: AstNode, env: Env) -> None:
        for child in param.children:
            if child.is_leaf and child.kind == a.LEAF_VAR:
                name = child.token.text
                env[name] = {self._node(child)}
                if self.declared is not None:
                    self.declared.add(name)
            elif not child.is_leaf:
                self.eval_expr(child, env)  # array sizes in the type

    # -- statements ---------------------------------------------------------

    def exec_stmt(self, node: AstNode, env: Env) -> None:
        kind = node.kind
        if kind == a.BLOCK:
            for child in node.children:
                if not child.is_leaf:
                    self.exec_stmt(child, env)
        elif kind == a.VAR_DECL_STMT:
            self.exec_decl(node, env)
        elif kind == a.IF_STMT:
            self._exec_if(node, env)
        elif kind == a.WHILE_STMT:
            self._exec_while(node, env)
        elif kind == a.FOR_STMT:
            self._exec_for(node, env)
        elif kind in (a.EXPR_STMT, a.RETURN_STMT, a.EMIT_STMT):
            for child in node.children:
                if not child.is_leaf or child.kind == a.LEAF_VAR:
                    self.eval_expr(child, env)
        else:
            self.eval_expr(node, env)

    def exec_decl(self, node: AstNode, env: Env) -> str | None:
        """Shared by local and state variable declarations (and struct
        members, which simply have no initializer): everything after '='
        is the initializer."""
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
        if declared is None:
            return None
        idx = self._node(declared)
        name = declared.token.text
        for s in sources or ():
            self.edges.add((s, idx))
        env[name] = {idx}
        if self.declared is not None:
            self.declared.add(name)
        return name

    def _exec_if(self, node: AstNode, env: Env) -> None:
        cond, then_stmt = node.children[2], node.children[4]
        else_stmt = node.children[6] if len(node.children) >= 7 else None
        self.eval_expr(cond, env)
        env_then = dict(env)
        self.exec_stmt(then_stmt, env_then)
        env_else = dict(env)
        if else_stmt is not None:
            self.exec_stmt(else_stmt, env_else)
        merged: Env = {}
        _merge_into(merged, env_then)
        _merge_into(merged, env_else)
        env.clear()
        env.update(merged)

    def _exec_while(self, node: AstNode, env: Env) -> None:
        self._loop(node.children[2], node.children[4], None, env)

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
        entry = {k: set(v) for k, v in env.items()}
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
        lhs, op_leaf, rhs = node.children[0], node.children[1], node.children[2]
        op = op_leaf.token.text
        rhs_src = self.eval_expr(rhs, env)
        targets: list[tuple[str, int, str]] = []
        self._collect_targets(lhs, env, targets)
        result: list[int] = []
        for mode, idx, name in targets:
            if mode == "simple":
                if op != "=":
                    for d in env.get(name, ()):
                        self.edges.add((d, idx))
                for s in rhs_src:
                    self.edges.add((s, idx))
                env[name] = {idx}
            else:  # weak: base use edges were added while collecting
                for s in rhs_src:
                    self.edges.add((s, idx))
                env[name] = env.get(name, set()) | {idx}
            result.append(idx)
        return result or rhs_src

    def _collect_targets(self, lhs: AstNode, env: Env,
                         out: list[tuple[str, int, str]]) -> None:
        if lhs.is_leaf:
            if lhs.kind == a.LEAF_VAR:
                out.append(("simple", self._node(lhs), lhs.token.text))
            return
        if lhs.kind == a.BUILTIN_REF:
            return  # source-only, never a target
        if lhs.kind == a.TUPLE:
            for child in lhs.children:
                if child.is_leaf and child.kind != a.LEAF_VAR:
                    continue
                self._collect_targets(child, env, out)
            return
        if lhs.kind in (a.INDEX, a.MEMBER):
            self.eval_expr(lhs, env)
            base = _chain_base(lhs)
            if base is not None:
                out.append(("weak", self._node(base), base.token.text))
            return
        self.eval_expr(lhs, env)

    def _exec_unary(self, node: AstNode, env: Env) -> list[int]:
        op_leaf = next((c for c in node.children
                        if c.is_leaf and c.kind in (a.LEAF_PUNCT, a.LEAF_KW)), None)
        operand = next((c for c in node.children if c is not op_leaf), None)
        if operand is None:
            return []
        op = op_leaf.token.text if op_leaf is not None else ""
        if op not in ("++", "--", "delete"):
            return self.eval_expr(operand, env)
        if operand.is_leaf and operand.kind == a.LEAF_VAR:
            idx = self._node(operand)
            name = operand.token.text
            if op != "delete":
                for d in env.get(name, ()):
                    self.edges.add((d, idx))
            env[name] = {idx}
            return [idx]
        if operand.kind in (a.INDEX, a.MEMBER):
            sources = self.eval_expr(operand, env)
            base = _chain_base(operand)
            if base is not None:
                idx = self._node(base)
                env[base.token.text] = env.get(base.token.text, set()) | {idx}
                return [idx]
            return sources
        return self.eval_expr(operand, env)
