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
    granted_entries,
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


def _balance(positives: list, pool: set, rng: np.random.Generator):
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


def _sample_relation_mask(inp: ModelInput, rng: np.random.Generator,
                          relations: list[tuple[int, int]], partner: int,
                          directed: bool) -> PairMaskBatch:
    """Draw 20% of the nodes (at least one). The relations touching a drawn
    node are masked: they are the positives, and the entries they granted
    (a self-loop's is the diagonal) are withdrawn from attention.
    Candidates pair each drawn node with each position of the `partner`
    segment, in both orders when the relation is directed; negatives come
    uniformly from the candidates that are no relation."""
    node_positions = np.flatnonzero(inp.segments == SEG_NODE)
    sampled: list[int] = []
    if len(node_positions):
        n = max(1, _round_half_up(NODE_FRACTION * len(node_positions)))
        sampled = sorted(rng.choice(node_positions, size=n, replace=False).tolist())
    sampled_set = set(sampled)
    masked = sorted(r for r in set(relations)
                    if r[0] in sampled_set or r[1] in sampled_set)
    partners = np.flatnonzero(inp.segments == partner).tolist()
    candidates = {(i, j) for i in sampled for j in partners}
    if directed:
        candidates |= {(j, i) for i, j in candidates}
    positives, negatives = _balance(masked, candidates - set(relations), rng)
    granted = granted_entries(masked, directed).tolist()
    withdrawn = inp.withdrawn + tuple(map(tuple, granted))
    return PairMaskBatch(input=replace(inp, withdrawn=withdrawn),
                         sampled_nodes=sampled, masked_relations=masked,
                         positives=positives, negatives=negatives)


def sample_edge_mask(inp: ModelInput, rng: np.random.Generator) -> PairMaskBatch:
    """Data-flow edges touching the drawn nodes, predicted against the
    other ordered node pairs that touch one."""
    return _sample_relation_mask(inp, rng, inp.dfg_edges, SEG_NODE, directed=True)


def sample_align_mask(inp: ModelInput, rng: np.random.Generator) -> PairMaskBatch:
    """Alignment pairs of the drawn nodes, predicted against the other
    (drawn node, code token) pairs."""
    return _sample_relation_mask(inp, rng, inp.node_alignment, SEG_CODE, directed=False)


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
    Adam step. Returns the per-sample loss records; a sample whose input
    has nothing an enabled task reads gets an empty record and no step."""
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
        # looked up per call, so a rebound module attribute is the one used
        for task, key, sample in ((TASK_EDGEPRED, "edgepred", sample_edge_mask),
                                  (TASK_NODEALIGN, "nodealign", sample_align_mask)):
            if getattr(flags, key) and inp.n_nodes >= 1:
                rng = np.random.default_rng([seed, epoch, sample_idx, task])
                batch = sample(inp, rng)
                loss, g = pair_bce_loss_and_grads(batch.input, batch.pairs, params, config)
                record[key] = loss
                add_grads(grads, g)
        if record:
            record["total"] = sum(record.values())
            adam_step(params, grads, state, lr)
        trace.append(record)
    return trace

