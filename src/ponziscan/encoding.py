"""Vocabulary, model-input assembly, and the graph-guided attention mask.

The model input is X = [CLS] + code tokens + [SEP] + graph nodes, one slot
each, so an input of n_code tokens and n_nodes nodes has length
2 + n_code + n_nodes; there is no padding.

The attention mask is not stored: `build_mask` derives it from the
segments, the graph edges, the alignment and the input's withdrawn
entries. It permits attention only along: classifier/separator queries (any
key), code-to-code pairs, graph edges (a node attends the nodes its value
comes from, plus itself), and node<->code alignment pairs, minus the
withdrawn (query, key) entries.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ponziscan.dfg import DataFlowGraph
from ponziscan.errors import CapTooSmall, EmptyCorpus, IdOutOfRange
from ponziscan.solparse.lexer import Token, code_tokens, lex

DEFAULT_CODE_LEN = 256
DEFAULT_FLOW_LEN = 64

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

    def __contains__(self, text: str) -> bool:
        return text in self._token_to_id

    def id_of(self, text: str) -> int:
        return self._token_to_id.get(text, self.UNK_ID)

    def token_of(self, token_id: int) -> str:
        if token_id not in self._id_to_token:
            raise IdOutOfRange(f"no token with id {token_id}")
        return self._id_to_token[token_id]

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
            mapping[json.loads(text_json)] = int(id_text)
        return cls(mapping)


def _source_of(item) -> str:
    if isinstance(item, str):
        return item
    if isinstance(item, dict):
        return item["source"]
    return item.source


def build_vocab(training_contracts: Iterable, cap: int) -> Vocabulary:
    """Rank comment-stripped lexical tokens of the training split by
    frequency (ties broken lexicographically) and keep the top entries up
    to `cap` total, after the five reserved ids."""
    if cap < len(Vocabulary.RESERVED) + 1:
        raise CapTooSmall(f"cap {cap} leaves no room beyond reserved ids")
    counts: Counter[str] = Counter()
    n_contracts = 0
    for item in training_contracts:
        n_contracts += 1
        counts.update(tok.text for tok in code_tokens(lex(_source_of(item))))
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
                 code_len: int = DEFAULT_CODE_LEN,
                 flow_len: int = DEFAULT_FLOW_LEN) -> ModelInput:
    """Assemble the input sequence.

    Code keeps its first code_len tokens and the graph its first flow_len
    nodes (source order); edges and alignment are restricted to surviving
    endpoints. A node whose aligned code token was truncated away stays in
    the sequence but loses its alignment pair.
    """
    code = code_tokens(tokens)
    truncated = len(code) > code_len or len(dfg.vars) > flow_len
    code = code[:code_len]
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


def build_mask(inp: ModelInput) -> np.ndarray:
    """(n, n) boolean permission matrix, n = len(inp), rows = queries,
    columns = keys.

    Allowed pairs: [CLS]/[SEP] query over any key, code query with code
    key, node i over node j when an edge j->i exists or i == j, and
    node/code pairs that are aligned (both directions). The input's
    withdrawn entries are forbidden last, whatever the rules above granted.
    """
    seg = inp.segments
    allow = np.zeros((len(inp), len(inp)), dtype=bool)

    wide = (seg == SEG_CLS) | (seg == SEG_SEP)
    allow[wide, :] = True
    code = seg == SEG_CODE
    allow[np.ix_(code, code)] = True
    node_positions = np.flatnonzero(seg == SEG_NODE)
    allow[node_positions, node_positions] = True
    for src, dst in inp.dfg_edges:
        allow[dst, src] = True  # the value of dst comes from src
    for npos, cpos in inp.node_alignment:
        allow[npos, cpos] = True
        allow[cpos, npos] = True
    for query, key in inp.withdrawn:
        allow[query, key] = False
    return allow
