"""Vocabulary, model-input assembly, and the graph-guided attention mask.

The model input is X = [CLS] + code tokens + [SEP] + graph nodes, one slot
each, so an input of n_code tokens and n_nodes nodes has length
2 + n_code + n_nodes; there is no padding.

The attention mask is not stored: it is derived from the segments, the
graph edges, the alignment and the input's withdrawn entries. It permits
attention only along: classifier/separator queries (any key), code-to-code
pairs, graph edges (a node attends itself and the nodes its value comes
from) and node<->code alignment pairs (both ways), as `granted_entries`
states them, minus the withdrawn (query, key) entries. `build_mask` states
it as an (n, n) matrix, the one statement of the rule; `attention_plan`
groups the rows it is given (all of them, or the few a final layer
computes) into the few layouts the encoder scores.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ponziscan.dfg import DataFlowGraph
from ponziscan.errors import CapTooSmall, EmptyCorpus, IdOutOfRange
from ponziscan.solparse.lexer import Token, token_texts

SEG_CLS = 0
SEG_CODE = 1
SEG_SEP = 2
SEG_NODE = 3
# no input slot has this role; kept because perfbench/tracer.py imports it
SEG_PAD = 4

# position id 0 is reserved: shared by every NODE slot
NODE_POSITION_ID = 0


class Vocabulary:
    """Frequency-ranked token ids with five fixed reserved entries.

    The size cap is the total entry count, reserved entries included.
    """

    CLS_ID = 0
    SEP_ID = 1
    PAD_ID = 2
    UNK_ID = 3
    MASK_ID = 4
    RESERVED = ("[CLS]", "[SEP]", "[PAD]", "[UNK]", "[MASK]")

    def __init__(self, token_to_id: dict[str, int]):
        for i, text in enumerate(self.RESERVED):
            if token_to_id.get(text) != i:
                raise IdOutOfRange(f"reserved token {text} must have id {i}")
        ids = sorted(token_to_id.values())
        if ids != list(range(len(ids))):
            raise IdOutOfRange("vocabulary ids must be contiguous from 0")
        self._token_to_id = dict(token_to_id)
        self._id_to_token = {i: t for t, i in token_to_id.items()}

    def __len__(self) -> int:
        return len(self._token_to_id)

    def id_of(self, text: str) -> int:
        return self._token_to_id.get(text, self.UNK_ID)

    def to_lines(self) -> list[str]:
        """One line per entry, id-ordered, token json-escaped (token text
        may contain tabs or quotes inside string literals)."""
        return [f"{json.dumps(self._id_to_token[i])}\t{i}"
                for i in range(len(self._id_to_token))]

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "Vocabulary":
        mapping: dict[str, int] = {}
        for line in lines:
            line = line.rstrip("\n")
            if not line:
                continue
            text_json, _, id_text = line.rpartition("\t")
            text = json.loads(text_json)
            if not isinstance(text, str):
                raise TypeError(f"vocabulary token {text_json} is no JSON string")
            mapping[text] = int(id_text)
        return cls(mapping)


def build_vocab(training_contracts: Iterable, cap: int) -> Vocabulary:
    """Rank the token texts of the training split (source strings or
    records), as `lex` would return them, by frequency (ties broken
    lexicographically) and keep the top entries up to `cap` total, after
    the five reserved ids. `token_texts` gives the texts without building
    the tokens."""
    if cap < len(Vocabulary.RESERVED) + 1:
        raise CapTooSmall(f"cap {cap} leaves no room beyond reserved ids")
    counts: Counter[str] = Counter()
    n_contracts = 0
    for item in training_contracts:
        n_contracts += 1
        source = item if isinstance(item, str) else item.source
        counts.update(token_texts(source))
    if n_contracts == 0:
        raise EmptyCorpus("no training contracts to build a vocabulary from")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    mapping = {text: i for i, text in enumerate(Vocabulary.RESERVED)}
    for text, _ in ranked[: cap - len(Vocabulary.RESERVED)]:
        mapping[text] = len(mapping)
    return Vocabulary(mapping)


@dataclass
class ModelInput:
    """Encoder input: one slot each for [CLS], the code tokens, [SEP] and
    the graph nodes, so len() is 2 + n_code + n_nodes. node_alignment and
    dfg_edges hold slot positions, not graph indices. withdrawn lists
    (query, key) entries that the mask forbids after its rules have been
    applied; the pre-training samplers use it to hide the relations a batch
    asks the model to predict."""

    token_ids: np.ndarray        # (n,) int64
    position_ids: np.ndarray     # (n,) int64
    segments: np.ndarray         # (n,) int8, SEG_* role per slot
    node_alignment: list[tuple[int, int]] = field(default_factory=list)
    dfg_edges: list[tuple[int, int]] = field(default_factory=list)
    withdrawn: tuple[tuple[int, int], ...] = ()
    truncated: bool = False
    n_code: int = 0
    n_nodes: int = 0

    def __len__(self) -> int:
        return int(self.token_ids.shape[0])


def encode_input(tokens: list[Token], dfg: DataFlowGraph, vocab: Vocabulary,
                 code_len: int, flow_len: int) -> ModelInput:
    """Assemble the input sequence.

    Code keeps its first code_len tokens and the graph its first flow_len
    nodes (source order); edges and alignment are restricted to surviving
    endpoints. A node whose aligned code token was truncated away stays in
    the sequence but loses its alignment pair.
    """
    truncated = len(tokens) > code_len or len(dfg.vars) > flow_len
    code = tokens[:code_len]
    nodes = dfg.vars[:flow_len]
    n_code, n_nodes = len(code), len(nodes)
    node_base = 2 + n_code

    token_ids = np.array([Vocabulary.CLS_ID, *(vocab.id_of(t.text) for t in code),
                          Vocabulary.SEP_ID, *(vocab.id_of(v.name) for v in nodes)],
                         dtype=np.int64)
    position_ids = np.array([*range(1, node_base + 1), *[NODE_POSITION_ID] * n_nodes],
                            dtype=np.int64)
    segments = np.array([SEG_CLS, *[SEG_CODE] * n_code, SEG_SEP, *[SEG_NODE] * n_nodes],
                        dtype=np.int8)
    dfg_edges = [(node_base + e.src, node_base + e.dst)
                 for e in dfg.edges if e.src < n_nodes and e.dst < n_nodes]
    node_alignment = [(node_base + n, 1 + c)
                      for n, c in dfg.alignment if n < n_nodes and c < n_code]

    return ModelInput(token_ids=token_ids, position_ids=position_ids,
                      segments=segments, node_alignment=node_alignment,
                      dfg_edges=dfg_edges, truncated=truncated,
                      n_code=n_code, n_nodes=n_nodes)


def _positions(pairs, n: int, what: str) -> np.ndarray:
    """The (position, position) pairs as a (k, 2) int64 array; a position
    outside [0, n) raises instead of wrapping around as a numpy index."""
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise IdOutOfRange(f"{what} outside the {n} slots of the input")
    return arr


def granted_entries(relations, directed: bool) -> np.ndarray:
    """The (query, key) entries that graph relations open in attention, as
    a (k, 2) int64 array: a data-flow edge (src, dst), directed, lets dst
    attend src, whose value it reads; an alignment pair (node, code) lets
    each side attend the other."""
    pairs = np.asarray(relations, dtype=np.int64).reshape(-1, 2)
    return pairs[:, ::-1] if directed else np.concatenate([pairs[:, ::-1], pairs])


def build_mask(inp: ModelInput) -> np.ndarray:
    """(n, n) boolean permission matrix, n = len(inp), rows = queries,
    columns = keys.

    Allowed pairs: [CLS]/[SEP] query over any key, code query with code
    key, a node over itself, and the entries the graph edges and the
    alignment pairs grant (`granted_entries`). The input's withdrawn
    entries are forbidden last, whatever the rules above granted.
    """
    n, seg = len(inp), inp.segments
    edges = granted_entries(_positions(inp.dfg_edges, n, "dfg edge"), directed=True)
    align = granted_entries(_positions(inp.node_alignment, n, "alignment pair"),
                            directed=False)
    withdrawn = _positions(inp.withdrawn, n, "withdrawn entry")
    allow = np.zeros((n, n), dtype=bool)

    allow[(seg == SEG_CLS) | (seg == SEG_SEP), :] = True
    code = seg == SEG_CODE
    allow[code] = code
    node_positions = np.flatnonzero(seg == SEG_NODE)
    allow[node_positions, node_positions] = True
    allow[edges[:, 0], edges[:, 1]] = True
    allow[align[:, 0], align[:, 1]] = True
    allow[withdrawn[:, 0], withdrawn[:, 1]] = False
    return allow


def _index(positions: np.ndarray) -> slice | np.ndarray:
    """Sorted unique positions, as a slice when they are contiguous so that
    indexing with them gives a view."""
    if len(positions) and positions[-1] - positions[0] + 1 == len(positions):
        return slice(int(positions[0]), int(positions[-1]) + 1)
    return positions


@dataclass(frozen=True)
class AttentionPart:
    """Query rows that share one score layout: the keys `block` (every
    key, the code keys, or none), then per row the keys listed in `keys`,
    padded to the longest list; `pad` is True on the padding."""

    out: slice | np.ndarray        # where the rows sit among the planned rows
    block: slice | np.ndarray
    keys: np.ndarray               # (r, m) key positions
    pad: np.ndarray                # (r, m) bool


def attention_plan(allow: np.ndarray, segments: np.ndarray) -> tuple[AttentionPart, ...]:
    """The boolean mask rows `allow` (all of build_mask(inp), or some of
    its rows, in order), grouped into three kinds; each row's kind follows
    from that row alone, and `allow` is not written.

    Wide rows (allowed every key, or no key) score every key: a row with no
    allowed key attends every key by its raw score. Code rows (allowed the
    whole, non-empty code block) score that block densely, plus their other
    allowed keys. Listed rows score their allowed keys alone."""
    n, is_code = allow.shape[1], segments == SEG_CODE
    code = _index(np.flatnonzero(is_code))
    wide_rows = allow.all(axis=1) | ~allow.any(axis=1)
    code_rows = ~wide_rows & is_code.any() & allow[:, code].all(axis=1)
    listed = ~(wide_rows | code_rows)
    # the keys outside each row's block
    extra = allow & ~wide_rows[:, None]
    extra[np.flatnonzero(code_rows)[:, None], code] = False
    granted_q, granted_k = np.divmod(np.flatnonzero(extra), n)
    count = np.bincount(granted_q, minlength=len(allow))

    def part(kind: np.ndarray, block: slice | np.ndarray) -> AttentionPart:
        rows = np.flatnonzero(kind)
        pad = np.arange(count[rows].max(initial=0)) >= count[rows][:, None]
        keys = np.zeros(pad.shape, dtype=np.int64)
        keys[~pad] = granted_k[kind[granted_q]]
        return AttentionPart(_index(rows), block, keys, pad)

    parts = (part(wide_rows, slice(None)),
             part(code_rows, code),
             part(listed, slice(0, 0)))
    return tuple(p for p in parts if len(p.keys))
