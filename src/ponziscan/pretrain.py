"""Self-supervised objectives: masked-token prediction, data-flow edge
prediction, and node-code alignment prediction.

Samplers are pure functions of (input, rng) so a per-sample, per-task
seeded generator makes every batch reproducible and order-independent.
Edge and alignment batches carry an input whose `withdrawn` entries name
the attention entries the masked relations granted, so the mask the
encoder derives forbids them; the model must reconstruct those relations
from structure rather than read them off the mask.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ponziscan.encoding import (
    ModelInput,
    SEG_CODE,
    SEG_NODE,
    Vocabulary,
)
from ponziscan.model.adam import DEFAULT_LR, AdamState, adam_step
from ponziscan.model.config import ModelConfig
from ponziscan.model.losses import (
    add_grads,
    mlm_loss_and_grads,
    pair_bce_loss_and_grads,
)
from ponziscan.model.params import Params, zeros_like_params

MLM_FRACTION = 0.15
MASK_PROB = 0.8
RANDOM_PROB = 0.1  # remaining 0.1 keeps the original token
NODE_FRACTION = 0.20

CORRUPT_MASKED = "masked"
CORRUPT_RANDOMIZED = "randomized"
CORRUPT_KEPT = "kept"


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


@dataclass
class MlmBatch:
    input: ModelInput                      # corrupted copy
    targets: list[tuple[int, int]]         # (position, original id)
    corruption: list[tuple[int, str]]      # (position, what happened)


@dataclass
class PairMaskBatch:
    """Shared shape of the edge-prediction and alignment batches."""

    input: ModelInput                      # masked relations withdrawn
    sampled_nodes: list[int]               # node positions drawn
    masked_relations: list[tuple[int, int]]
    positives: list[tuple[int, int]]
    negatives: list[tuple[int, int]]

    @property
    def pairs(self) -> list[tuple[int, int, int]]:
        return ([(i, j, 1) for i, j in self.positives]
                + [(i, j, 0) for i, j in self.negatives])


def sample_mlm(inp: ModelInput, vocab: Vocabulary,
               rng: np.random.Generator) -> MlmBatch:
    """Corrupt 15% of CODE positions (nearest, at least one): 80% become
    [MASK], 10% a random non-reserved token, 10% stay unchanged."""
    code_positions = np.flatnonzero(inp.segments == SEG_CODE)
    n_targets = max(1, _round_half_up(MLM_FRACTION * len(code_positions)))
    chosen = np.sort(rng.choice(code_positions, size=n_targets, replace=False))
    token_ids = inp.token_ids.copy()
    n_reserved = len(Vocabulary.RESERVED)
    targets: list[tuple[int, int]] = []
    corruption: list[tuple[int, str]] = []
    for pos in chosen.tolist():
        targets.append((pos, int(token_ids[pos])))
        roll = rng.random()
        if roll < MASK_PROB:
            token_ids[pos] = Vocabulary.MASK_ID
            corruption.append((pos, CORRUPT_MASKED))
        elif roll < MASK_PROB + RANDOM_PROB and len(vocab) > n_reserved:
            token_ids[pos] = int(rng.integers(n_reserved, len(vocab)))
            corruption.append((pos, CORRUPT_RANDOMIZED))
        else:
            corruption.append((pos, CORRUPT_KEPT))
    return MlmBatch(input=replace(inp, token_ids=token_ids),
                    targets=targets, corruption=corruption)


def _balance(positives: list, pool: list, rng: np.random.Generator):
    """Exact |neg| = |pos|. When the negative pool is too small, the
    positive side is subsampled to match, keeping the balance strict."""
    positives = sorted(positives)
    pool = sorted(pool)
    if len(pool) < len(positives):
        keep = rng.choice(len(positives), size=len(pool), replace=False)
        positives = [positives[k] for k in sorted(keep.tolist())]
    if positives:
        picked = rng.choice(len(pool), size=len(positives), replace=False)
        negatives = [pool[k] for k in sorted(picked.tolist())]
    else:
        negatives = []
    return positives, negatives


def _sample_node_subset(inp: ModelInput, rng: np.random.Generator) -> list[int]:
    node_positions = np.flatnonzero(inp.segments == SEG_NODE)
    if len(node_positions) == 0:
        return []
    n = max(1, _round_half_up(NODE_FRACTION * len(node_positions)))
    return sorted(rng.choice(node_positions, size=n, replace=False).tolist())


def sample_edge_mask(inp: ModelInput, rng: np.random.Generator) -> PairMaskBatch:
    """Draw 20% of nodes (at least one); their incident graph edges are
    masked out of attention and become the positives. Candidates are every
    ordered node pair touching a sampled node; negatives come uniformly
    from candidates that are not true edges."""
    sampled = _sample_node_subset(inp, rng)
    sampled_set = set(sampled)
    edges = set(inp.dfg_edges)
    masked = sorted((s, d) for s, d in edges
                    if s in sampled_set or d in sampled_set)
    node_positions = np.flatnonzero(inp.segments == SEG_NODE).tolist()
    candidates = {(i, j) for i in sampled for j in node_positions}
    candidates |= {(i, j) for i in node_positions for j in sampled}
    masked_set = set(masked)
    positives = [c for c in candidates if c in masked_set]
    pool = [c for c in candidates if c not in edges]
    positives, negatives = _balance(positives, pool, rng)
    # the allow entry each edge granted; a self-loop's is the diagonal
    withdrawn = inp.withdrawn + tuple((d, s) for s, d in masked)
    return PairMaskBatch(input=replace(inp, withdrawn=withdrawn),
                         sampled_nodes=sampled,
                         masked_relations=masked, positives=positives,
                         negatives=negatives)


def sample_align_mask(inp: ModelInput, rng: np.random.Generator) -> PairMaskBatch:
    """Same scheme over node-code alignment: alignment pairs of sampled
    nodes are hidden from attention (both directions) and predicted
    against non-aligned (sampled node, code token) candidates."""
    sampled = _sample_node_subset(inp, rng)
    sampled_set = set(sampled)
    alignment = set(inp.node_alignment)
    masked = sorted((n, c) for n, c in alignment if n in sampled_set)
    code_positions = np.flatnonzero(inp.segments == SEG_CODE).tolist()
    candidates = {(n, c) for n in sampled for c in code_positions}
    masked_set = set(masked)
    positives = [c for c in candidates if c in masked_set]
    pool = [c for c in candidates if c not in alignment]
    positives, negatives = _balance(positives, pool, rng)
    withdrawn = inp.withdrawn + tuple(entry for n, c in masked
                                      for entry in ((n, c), (c, n)))
    return PairMaskBatch(input=replace(inp, withdrawn=withdrawn),
                         sampled_nodes=sampled,
                         masked_relations=masked, positives=positives,
                         negatives=negatives)


TASK_MLM = 0
TASK_EDGEPRED = 1
TASK_NODEALIGN = 2


@dataclass
class PretrainFlags:
    mlm: bool = True
    edgepred: bool = True
    nodealign: bool = True


def pretrain_epoch(inputs: list[ModelInput], vocab: Vocabulary, params: Params,
                   state: AdamState, config: ModelConfig, seed: int, epoch: int,
                   flags: PretrainFlags | None = None,
                   lr: float = DEFAULT_LR) -> list[dict[str, float]]:
    """One pass over the corpus: per sample, run each enabled task as its
    own forward/backward (so disabling one task never changes another's
    step-0 value), sum the losses and gradients unweighted, and take one
    Adam step. Returns the per-sample loss records."""
    flags = flags or PretrainFlags()
    trace: list[dict[str, float]] = []
    for sample_idx, inp in enumerate(inputs):
        grads = zeros_like_params(params)
        record: dict[str, float] = {}
        if flags.mlm and inp.n_code >= 1:
            rng = np.random.default_rng([seed, epoch, sample_idx, TASK_MLM])
            batch = sample_mlm(inp, vocab, rng)
            loss, g = mlm_loss_and_grads(batch.input, batch.targets, params, config)
            record["mlm"] = loss
            add_grads(grads, g)
        if flags.edgepred and inp.n_nodes >= 1:
            rng = np.random.default_rng([seed, epoch, sample_idx, TASK_EDGEPRED])
            batch = sample_edge_mask(inp, rng)
            loss, g = pair_bce_loss_and_grads(batch.input, batch.pairs, params, config)
            record["edgepred"] = loss
            add_grads(grads, g)
        if flags.nodealign and inp.n_nodes >= 1:
            rng = np.random.default_rng([seed, epoch, sample_idx, TASK_NODEALIGN])
            batch = sample_align_mask(inp, rng)
            loss, g = pair_bce_loss_and_grads(batch.input, batch.pairs, params, config)
            record["nodealign"] = loss
            add_grads(grads, g)
        if record:
            record["total"] = sum(record.values())
            adam_step(params, grads, state, lr)
        trace.append(record)
    return trace

