"""Loss heads with analytic gradients.

Classification reads the [CLS] row through the linear classifier
(cross-entropy of one input). The masked-token head is weight-tied to the
token embedding table (mean cross-entropy over targets). Edge and
alignment prediction score position pairs with sigmoid(h_i . h_j) and sum
binary cross-entropy over the sampled candidates.

Every loss is one round trip (`_round_trip`): forward_hidden over the
unique final-layer rows the loss reads, a head over those rows as arrays,
and backward_hidden of the head's gradient scattered back onto the rows.
"""

from __future__ import annotations

import numpy as np

from ponziscan.encoding import ModelInput
from ponziscan.errors import NoTargets, NonFiniteGradient
from ponziscan.model.config import ModelConfig
from ponziscan.model.encoder import backward_hidden, forward_hidden
from ponziscan.model.params import Params, check_finite, zeros_like_params


def _round_trip(inp: ModelInput, positions: np.ndarray, head,
                params: Params, config: ModelConfig):
    """Loss and gradients of head(h, grads) over the final-layer rows at
    positions (any shape, repeats allowed): h holds one hidden row per
    position, positions.shape + (d_h,). The head adds its own parameters'
    gradients into grads and returns (loss, dLoss/dh)."""
    rows, at = np.unique(positions, return_inverse=True)
    at = at.reshape(positions.shape)
    H, caches = forward_hidden(inp, params, config, rows=rows)
    grads = zeros_like_params(params)
    loss, dh = head(H[at], grads)
    dH = np.zeros_like(H)
    np.add.at(dH, at, dh)
    backward_hidden(dH, inp, caches, params, config, grads)
    check_finite(grads, NonFiniteGradient)
    return loss, grads


def _cross_entropy(h: np.ndarray, weight: np.ndarray, dweight: np.ndarray,
                   targets) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of the rows of h @ weight at their target
    columns. Adds dLoss/dweight into dweight; returns (loss, dLoss/dh)."""
    logits = h @ weight
    m = logits.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    dlogits = np.exp(logits - lse)
    picked = np.arange(len(targets)), targets
    dlogits[picked] -= 1.0
    dlogits /= len(targets)
    dweight += h.T @ dlogits
    return float((lse[:, 0] - logits[picked]).mean()), dlogits @ weight.T


def _pair_bce(h: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Summed binary cross-entropy of sigmoid(h_i . h_j) over pair rows
    h[:, 0] and h[:, 1]; returns (loss, dLoss/dh). The sigmoid is 0.0
    where e^-z overflows, without a warning."""
    z = np.einsum("pd,pd->p", h[:, 0], h[:, 1])
    with np.errstate(over="ignore"):
        dz = 1.0 / (1.0 + np.exp(-z)) - labels
    loss = float((np.logaddexp(0.0, z) - labels * z).sum())
    return loss, dz[:, None, None] * h[:, ::-1]


def classification_loss_and_grads(inp: ModelInput, label: int,
                                  params: Params, config: ModelConfig):
    """Label cross-entropy of one input, with gradients."""
    def head(h, grads):
        return _cross_entropy(h, params["cls_w"], grads["cls_w"], [label])
    return _round_trip(inp, np.array([0]), head, params, config)  # the [CLS] row


def mlm_loss_and_grads(inp: ModelInput, targets: list[tuple[int, int]],
                       params: Params, config: ModelConfig):
    """targets: (sequence position, original token id). inp carries the
    already-corrupted token ids. Mean cross-entropy over targets."""
    if not targets:
        raise NoTargets("no masked positions to predict")
    positions, ids = np.array(targets).T

    def head(h, grads):
        return _cross_entropy(h, params["tok_emb"].T, grads["tok_emb"].T, ids)
    return _round_trip(inp, positions, head, params, config)


def pair_bce_loss_and_grads(inp: ModelInput, pairs: list[tuple[int, int, int]],
                            params: Params, config: ModelConfig):
    """pairs: (position i, position j, label). p = sigmoid(h_i . h_j);
    binary cross-entropy summed over the pairs. An empty candidate list is
    a valid degenerate case contributing zero loss and zero gradients."""
    if not pairs:
        return 0.0, zeros_like_params(params)
    table = np.array(pairs)
    return _round_trip(inp, table[:, :2], lambda h, _: _pair_bce(h, table[:, 2]),
                       params, config)


def add_grads(into: Params, more: Params) -> None:
    for name, g in more.items():
        into[name] += g
