"""Bidirectional transformer encoder in plain numpy, float64.

Per layer: U = LayerNorm(MultiHeadAttention(W) + W), then
W' = LayerNorm(FFN(U) + U); attention scores are Q K^T / sqrt(d_k) plus an
additive mask (-1e9 on forbidden pairs) before the row softmax. The
classifier reads the [CLS] row of the final layer. Backward passes are
analytic, written to mirror each forward step, and are validated against
central finite differences in the test suite.

The encoder runs over the real prefix of an input only: its n = real_len
slots ([CLS], code, [SEP], nodes), so hidden states are (n, d_h) and the
mask is derived at n x n for each pass. Padding never enters the
computation; an input encoded at any padded length gives the same result.
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


def softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


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
    """(n, d_h) embeddings of the input's real prefix."""
    tok_emb, pos_emb = params["tok_emb"], params["pos_emb"]
    n = inp.real_len
    ids, pos = inp.token_ids[:n], inp.position_ids[:n]
    if ids.min() < 0 or ids.max() >= tok_emb.shape[0]:
        raise IdOutOfRange(f"token id outside embedding table of {tok_emb.shape[0]}")
    if pos.min() < 0 or pos.max() >= pos_emb.shape[0]:
        raise IdOutOfRange(f"position id outside table of {pos_emb.shape[0]}")
    return tok_emb[ids] + pos_emb[pos]


def layer_forward(W: np.ndarray, mask_add: np.ndarray, params: Params,
                  prefix: str, n_heads: int):
    wq, wk, wv, wo = (params[prefix + k] for k in ("wq", "wk", "wv", "wo"))
    d_k = wq.shape[1] // n_heads
    Qh = _split_heads(W @ wq, n_heads)
    Kh = _split_heads(W @ wk, n_heads)
    Vh = _split_heads(W @ wv, n_heads)
    scores = Qh @ Kh.transpose(0, 2, 1) / np.sqrt(d_k) + mask_add
    A = softmax_rows(scores)
    ctx = _merge_heads(A @ Vh)
    attn = ctx @ wo
    res1 = attn + W
    U, ln1_cache = layer_norm(res1, params[prefix + "ln1_g"], params[prefix + "ln1_b"])
    Z1 = U @ params[prefix + "ffn_w1"] + params[prefix + "ffn_b1"]
    G = gelu(Z1)
    F = G @ params[prefix + "ffn_w2"] + params[prefix + "ffn_b2"]
    res2 = F + U
    W_out, ln2_cache = layer_norm(res2, params[prefix + "ln2_g"], params[prefix + "ln2_b"])
    cache = {"W": W, "Qh": Qh, "Kh": Kh, "Vh": Vh, "A": A, "ctx": ctx,
             "U": U, "Z1": Z1, "G": G, "ln1": ln1_cache, "ln2": ln2_cache,
             "d_k": d_k}
    return W_out, cache


def layer_backward(dW_out: np.ndarray, cache: dict, params: Params,
                   prefix: str, n_heads: int, grads: Params) -> np.ndarray:
    W, U = cache["W"], cache["U"]
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
    dW = dres1.copy()

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
    for name, dproj in (("wq", dQ), ("wk", dK), ("wv", dV)):
        w = params[prefix + name]
        grads[prefix + name] += W.T @ dproj
        dW += dproj @ w.T
    return dW


def forward_hidden(inp: ModelInput, params: Params, config: ModelConfig):
    """Run embedding + all layers over the real prefix; returns the final
    (n, d_h) hidden states and the caches needed by backward_hidden."""
    mask_add = mask_additive(build_mask(inp, inp.real_len))
    W = embed(inp, params)
    caches = []
    for i in range(config.n_layers):
        W, cache = layer_forward(W, mask_add, params, f"layer{i}.", config.n_heads)
        caches.append(cache)
    if not np.isfinite(W).all():
        raise NonFiniteActivation("non-finite hidden states after final layer")
    return W, caches


def backward_hidden(dH: np.ndarray, inp: ModelInput, caches: list,
                    params: Params, config: ModelConfig, grads: Params) -> None:
    """Accumulate parameter gradients given the (n, d_h) dLoss/dH at the
    final layer."""
    dW = dH
    for i in reversed(range(config.n_layers)):
        dW = layer_backward(dW, caches[i], params, f"layer{i}.", config.n_heads, grads)
    n = inp.real_len
    np.add.at(grads["tok_emb"], inp.token_ids[:n], dW)
    np.add.at(grads["pos_emb"], inp.position_ids[:n], dW)


def forward(inp: ModelInput, params: Params, config: ModelConfig,
            threshold: float = 0.5) -> Prediction:
    """Full classification pass; label = 1 iff p(positive) >= threshold."""
    H, _ = forward_hidden(inp, params, config)
    logits = H[0] @ params["cls_w"]
    probs = softmax_rows(logits[None, :])[0]
    return Prediction(probabilities=probs,
                      label=int(probs[1] >= threshold),
                      threshold=threshold)
