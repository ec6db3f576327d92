"""Loss heads with analytic gradients.

Classification reads the [CLS] row through the linear classifier
(cross-entropy of one input). The masked-token head is weight-tied to the
token embedding table (mean cross-entropy over targets). Edge and
alignment prediction score position pairs with sigmoid(h_i . h_j) and sum
binary cross-entropy over the sampled candidates.

Each loss asks forward_hidden for the final-layer rows it reads (sorted,
unique positions) and finds a position's row with np.searchsorted.
"""

from __future__ import annotations

import math

import numpy as np

from ponziscan.encoding import ModelInput
from ponziscan.errors import NoTargets, NonFiniteGradient
from ponziscan.model.config import ModelConfig
from ponziscan.model.encoder import backward_hidden, forward_hidden
from ponziscan.model.params import Params, check_finite, zeros_like_params


def _logistic(z: float) -> float:
    """1 / (1 + e^-z) for a finite z, rounded as the C expression rounds
    it: 0.0 where e^-z overflows (z below about -709.78)."""
    try:
        return 1.0 / (1.0 + math.exp(-z))
    except OverflowError:
        return 0.0


def _log_softmax_pick(logits: np.ndarray, target: int) -> tuple[float, np.ndarray]:
    """Cross-entropy of one softmax row and its dLoss/dlogits."""
    m = logits.max()
    lse = m + np.log(np.exp(logits - m).sum())
    dlogits = np.exp(logits - lse)
    dlogits[target] -= 1.0
    return float(lse - logits[target]), dlogits


def classification_loss_and_grads(inp: ModelInput, label: int,
                                  params: Params, config: ModelConfig):
    """Label cross-entropy of one input, with gradients."""
    H, caches = forward_hidden(inp, params, config, rows=slice(0, 1))
    h = H[0]
    cls_w = params["cls_w"]
    loss, dlogits = _log_softmax_pick(h @ cls_w, label)
    grads = zeros_like_params(params)
    grads["cls_w"] += np.outer(h, dlogits)
    dH = np.zeros_like(H)
    dH[0] = cls_w @ dlogits
    backward_hidden(dH, inp, caches, params, config, grads)
    check_finite(grads, NonFiniteGradient)
    return loss, grads


def mlm_loss_and_grads(inp: ModelInput, targets: list[tuple[int, int]],
                       params: Params, config: ModelConfig):
    """targets: (sequence position, original token id). inp carries the
    already-corrupted token ids. Mean cross-entropy over targets."""
    if not targets:
        raise NoTargets("no masked positions to predict")
    positions = [pos for pos, _ in targets]
    rows = np.unique(positions)
    H, caches = forward_hidden(inp, params, config, rows=rows)
    tok_emb = params["tok_emb"]
    grads = zeros_like_params(params)
    dH = np.zeros_like(H)
    total = 0.0
    scale = 1.0 / len(targets)
    for r, (_, true_id) in zip(np.searchsorted(rows, positions).tolist(), targets):
        h = H[r]
        loss, dlogits = _log_softmax_pick(tok_emb @ h, true_id)
        total += loss
        dlogits *= scale
        grads["tok_emb"] += np.outer(dlogits, h)
        dH[r] += tok_emb.T @ dlogits
    backward_hidden(dH, inp, caches, params, config, grads)
    check_finite(grads, NonFiniteGradient)
    return total * scale, grads


def pair_bce_loss_and_grads(inp: ModelInput, pairs: list[tuple[int, int, int]],
                            params: Params, config: ModelConfig):
    """pairs: (position i, position j, label). p = sigmoid(h_i . h_j);
    binary cross-entropy summed over the pairs. An empty candidate list is
    a valid degenerate case contributing zero loss and zero gradients."""
    grads = zeros_like_params(params)
    if not pairs:
        return 0.0, grads
    ends = np.array([(i, j) for i, j, _ in pairs])
    rows = np.unique(ends)
    H, caches = forward_hidden(inp, params, config, rows=rows)
    dH = np.zeros_like(H)
    total = 0.0
    at = np.searchsorted(rows, ends).tolist()
    for (ri, rj), (_, _, y) in zip(at, pairs):
        z = float(H[ri] @ H[rj])
        total += float(np.logaddexp(0.0, z)) - y * z
        dz = _logistic(z) - y
        dH[ri] += dz * H[rj]
        dH[rj] += dz * H[ri]
    backward_hidden(dH, inp, caches, params, config, grads)
    check_finite(grads, NonFiniteGradient)
    return total, grads


def add_grads(into: Params, more: Params) -> None:
    for name, g in more.items():
        into[name] += g
