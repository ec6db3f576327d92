"""Bidirectional transformer encoder in plain numpy, float64.

Per layer: U = LayerNorm(MultiHeadAttention(W) + W), then
W' = LayerNorm(FFN(U) + U); attention scores are Q K^T / sqrt(d_k) plus an
additive mask (-1e9 on forbidden pairs) before the row softmax. The
classifier reads the [CLS] row of the final layer. Backward passes are
analytic, written to mirror each forward step, and are validated against
central finite differences in the test suite.

An input holds exactly its n = len(inp) slots ([CLS], code, [SEP],
nodes), so hidden states are (n, d_h) and the mask is derived at n x n for
each pass.

One (heads, n, n) buffer per layer: the scores are scaled, masked and
softmaxed in place (`softmax_rows(..., out=)`). Each in-place step keeps
the operands and order of the expression it replaces, so results are
bit-identical to the allocating form; what it saves is the page faults of
freshly allocated multi-megabyte temporaries. `forward` keeps no layer
caches, so a prediction holds one layer's attention at a time.

One rule for the final layer: it computes only the query rows its caller
reads. `forward` reads the [CLS] row (`rows=slice(0, 1)`), and each loss
passes the rows it reads: [CLS] for classification, the target positions
for masked tokens, the pair ends for edge and alignment prediction. Keys
and values are still projected from all n rows of the layer below, but Q,
the scores (a (heads, r, n) buffer), the softmax, A V, the output
projection, both layer norms and the FFN run on those r rows alone, and
the backward pass takes the query-side gradient through those rows only.
`rows` is a slice or an array of sorted, unique positions; every lower
layer computes all n rows. Fewer rows change the shapes of the BLAS
products (a one-row product takes the matrix-vector path), so results may
differ from the all-rows pass in the last digits (rounding only, about
1e-16 to 1e-15 absolute; still deterministic run to run).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from ponziscan.encoding import ModelInput, build_mask
from ponziscan.errors import IdOutOfRange, NonFiniteActivation
from ponziscan.model.config import ModelConfig
from ponziscan.model.params import Params

LN_EPS = 1e-12
MASK_FORBID = -1e9
_SQRT2 = np.sqrt(2.0)
_SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class Prediction:
    probabilities: np.ndarray  # (2,), sums to 1
    label: int
    threshold: float


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / _SQRT2))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + erf(x / _SQRT2)) + x * np.exp(-0.5 * x * x) / _SQRT_2PI


def softmax_rows(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, written into `out` (which may be x) or a
    new array; x itself is left alone unless it is `out`."""
    out = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def softmax_rows_backward(dA: np.ndarray, A: np.ndarray) -> np.ndarray:
    return A * (dA - (dA * A).sum(axis=-1, keepdims=True))


def layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv
    return g * xhat + b, (xhat, inv)


def layer_norm_backward(dy: np.ndarray, g: np.ndarray, cache):
    xhat, inv = cache
    dg = (dy * xhat).sum(axis=0)
    db = dy.sum(axis=0)
    dxhat = dy * g
    dx = inv * (dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, dg, db


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    L, d_h = x.shape
    return x.reshape(L, n_heads, d_h // n_heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    m, L, d_k = x.shape
    return x.transpose(1, 0, 2).reshape(L, m * d_k)


def mask_additive(allow: np.ndarray) -> np.ndarray:
    """0 on allowed pairs, MASK_FORBID on forbidden ones. A row with no
    allowed key is left at 0: a constant row shift does not change its
    softmax, and adding -1e9 would round its scores to the 1.2e-7 spacing
    of doubles near 1e9, which finite differences can see."""
    return np.where(allow | ~allow.any(axis=-1, keepdims=True), 0.0, MASK_FORBID)


def embed(inp: ModelInput, params: Params) -> np.ndarray:
    """(n, d_h) embeddings of the input's slots."""
    tok_emb, pos_emb = params["tok_emb"], params["pos_emb"]
    ids, pos = inp.token_ids, inp.position_ids
    if ids.min() < 0 or ids.max() >= tok_emb.shape[0]:
        raise IdOutOfRange(f"token id outside embedding table of {tok_emb.shape[0]}")
    if pos.min() < 0 or pos.max() >= pos_emb.shape[0]:
        raise IdOutOfRange(f"position id outside table of {pos_emb.shape[0]}")
    return tok_emb[ids] + pos_emb[pos]


def layer_forward(W: np.ndarray, mask_add: np.ndarray, params: Params,
                  prefix: str, n_heads: int,
                  rows: slice | np.ndarray = slice(None)):
    """One encoder layer for the query rows W[rows] (a slice, or positions
    that must be sorted and unique); keys and values come from every row of
    W. Returns the (len(rows), d_h) output and the cache."""
    wq, wk, wv, wo = (params[prefix + k] for k in ("wq", "wk", "wv", "wo"))
    d_k = wq.shape[1] // n_heads
    Qh = _split_heads(W[rows] @ wq, n_heads)
    Kh = _split_heads(W @ wk, n_heads)
    Vh = _split_heads(W @ wv, n_heads)
    scores = Qh @ Kh.transpose(0, 2, 1)
    scores /= np.sqrt(d_k)
    scores += mask_add[rows]
    A = softmax_rows(scores, out=scores)
    ctx = _merge_heads(A @ Vh)
    attn = ctx @ wo
    res1 = attn + W[rows]
    U, ln1_cache = layer_norm(res1, params[prefix + "ln1_g"], params[prefix + "ln1_b"])
    Z1 = U @ params[prefix + "ffn_w1"] + params[prefix + "ffn_b1"]
    G = gelu(Z1)
    F = G @ params[prefix + "ffn_w2"] + params[prefix + "ffn_b2"]
    res2 = F + U
    W_out, ln2_cache = layer_norm(res2, params[prefix + "ln2_g"], params[prefix + "ln2_b"])
    cache = {"W": W, "rows": rows, "Qh": Qh, "Kh": Kh, "Vh": Vh, "A": A,
             "ctx": ctx, "U": U, "Z1": Z1, "G": G, "ln1": ln1_cache,
             "ln2": ln2_cache, "d_k": d_k}
    return W_out, cache


def layer_backward(dW_out: np.ndarray, cache: dict, params: Params,
                   prefix: str, n_heads: int, grads: Params) -> np.ndarray:
    """Gradients of one layer_forward, given dLoss/d(output) for its query
    rows; returns dLoss/dW for every row of its input."""
    W, rows, U = cache["W"], cache["rows"], cache["U"]
    dres2, dg2, db2 = layer_norm_backward(dW_out, params[prefix + "ln2_g"], cache["ln2"])
    grads[prefix + "ln2_g"] += dg2
    grads[prefix + "ln2_b"] += db2
    dF = dres2
    dU = dres2.copy()

    w2 = params[prefix + "ffn_w2"]
    grads[prefix + "ffn_w2"] += cache["G"].T @ dF
    grads[prefix + "ffn_b2"] += dF.sum(axis=0)
    dG = dF @ w2.T
    dZ1 = dG * gelu_grad(cache["Z1"])
    w1 = params[prefix + "ffn_w1"]
    grads[prefix + "ffn_w1"] += U.T @ dZ1
    grads[prefix + "ffn_b1"] += dZ1.sum(axis=0)
    dU += dZ1 @ w1.T

    dres1, dg1, db1 = layer_norm_backward(dU, params[prefix + "ln1_g"], cache["ln1"])
    grads[prefix + "ln1_g"] += dg1
    grads[prefix + "ln1_b"] += db1
    dattn = dres1

    wo = params[prefix + "wo"]
    grads[prefix + "wo"] += cache["ctx"].T @ dattn
    dctx = dattn @ wo.T
    dctxh = _split_heads(dctx, n_heads)
    A, Vh = cache["A"], cache["Vh"]
    dA = dctxh @ Vh.transpose(0, 2, 1)
    dVh = A.transpose(0, 2, 1) @ dctxh
    dS = softmax_rows_backward(dA, A)
    scale = 1.0 / np.sqrt(cache["d_k"])
    dQh = dS @ cache["Kh"] * scale
    dKh = dS.transpose(0, 2, 1) @ cache["Qh"] * scale
    dQ, dK, dV = _merge_heads(dQh), _merge_heads(dKh), _merge_heads(dVh)
    wq, wk, wv = (params[prefix + k] for k in ("wq", "wk", "wv"))
    grads[prefix + "wq"] += W[rows].T @ dQ
    grads[prefix + "wk"] += W.T @ dK
    grads[prefix + "wv"] += W.T @ dV
    # the query rows get the residual and Q terms, every row the K and V
    # terms, in the order of the all-rows sum dres1 + dQ wq' + dK wk' + dV wv'
    dW = np.zeros_like(W)
    dW[rows] = dres1 + dQ @ wq.T
    dW += dK @ wk.T
    dW += dV @ wv.T
    return dW


def _run_layers(inp: ModelInput, params: Params, config: ModelConfig,
                caches: list | None, rows: slice | np.ndarray) -> np.ndarray:
    """Embedding + all layers, the final one on the query rows `rows` only,
    so the result is (len(rows), d_h). Appends each layer's cache to
    `caches`; with `caches` None (prediction) each cache is dropped as soon
    as its layer returns."""
    mask_add = mask_additive(build_mask(inp))
    W = embed(inp, params)
    last = config.n_layers - 1
    for i in range(config.n_layers):
        W, cache = layer_forward(W, mask_add, params, f"layer{i}.", config.n_heads,
                                 rows=rows if i == last else slice(None))
        if caches is not None:
            caches.append(cache)
        del cache
    if not np.isfinite(W).all():
        raise NonFiniteActivation("non-finite hidden states after final layer")
    return W


def forward_hidden(inp: ModelInput, params: Params, config: ModelConfig,
                   rows: slice | np.ndarray = slice(None)):
    """Run embedding + all layers; returns the final layer's hidden states
    for the query rows `rows` (a slice, or positions that must be sorted
    and unique), shape (len(rows), d_h), and the caches needed by
    backward_hidden. The final layer computes those rows only; keys and
    values still come from every row of the layer below."""
    caches: list = []
    return _run_layers(inp, params, config, caches, rows), caches


def backward_hidden(dH: np.ndarray, inp: ModelInput, caches: list,
                    params: Params, config: ModelConfig, grads: Params) -> None:
    """Accumulate parameter gradients given dLoss/dH for the rows that
    forward_hidden returned, shape (len(rows), d_h)."""
    dW = dH
    for i in reversed(range(config.n_layers)):
        dW = layer_backward(dW, caches[i], params, f"layer{i}.", config.n_heads, grads)
    np.add.at(grads["tok_emb"], inp.token_ids, dW)
    np.add.at(grads["pos_emb"], inp.position_ids, dW)


def forward(inp: ModelInput, params: Params, config: ModelConfig,
            threshold: float = 0.5) -> Prediction:
    """Full classification pass; label = 1 iff p(positive) >= threshold.

    The final layer computes only the rows its caller reads (a slice, or
    sorted unique positions), as it does for each loss; here that is the
    [CLS] row alone, so its scores buffer is (heads, 1, n). Its one-row
    matrix products may round differently from the all-rows pass, so the
    probabilities can differ from softmax(forward_hidden(...)[0][0] @ cls_w)
    in the last digits."""
    H = _run_layers(inp, params, config, caches=None, rows=slice(0, 1))
    logits = H[0] @ params["cls_w"]
    probs = softmax_rows(logits[None, :])[0]
    return Prediction(probabilities=probs,
                      label=int(probs[1] >= threshold),
                      threshold=threshold)
