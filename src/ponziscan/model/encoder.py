"""Bidirectional transformer encoder in plain numpy, float64.

Per layer: U = LayerNorm(MultiHeadAttention(W) + W), then
W' = LayerNorm(FFN(U) + U); each query row softmaxes the scores
Q K^T / sqrt(d_k) of the keys the graph-guided mask allows it. The
classifier reads the [CLS] row of the final layer. Backward passes are
analytic, written to mirror each forward step, and are validated against
central finite differences in the test suite.

An input holds exactly its n = len(inp) slots ([CLS], code, [SEP],
nodes), so hidden states are (n, d_h).

Attention over the allowed keys only. Once per pass, `attention_plan`
groups the rows of `build_mask` into three kinds of query row (every row
for the lower layers, the final layer's rows for it), and each layer
scores each kind in its own buffer:
- wide rows (allowed every key, as [CLS] and [SEP] are, or no key) score
  every key, unmasked: (heads, r, n);
- code rows (allowed the whole code block, as code tokens are) score that
  block densely, plus gathered columns for their other allowed keys (a
  token's aligned node unless that entry is withdrawn):
  (heads, r, n_code + 1), padded alike for rows without one;
- listed rows (every other row, such as the nodes) score their allowed
  keys, gathered and padded to the longest list (a node attends itself,
  its edge sources and its aligned token): (heads, r, max degree).
Padding scores are -inf, no forbidden entry is scored or exp'ed, and the
only (n, n) array is the boolean mask, built once per pass. Rows are
normalised late, as in FlashAttention-2 (Dao, 2023): `softmax_rows` turns
a part's scores into E = exp(S - rowmax S) in place, with row sums s, and
only the small context (E V) / s is divided. Prediction scores each part a
block of query rows at a time, in one reused buffer; training scores all
its rows as one block, into the E it caches. `layer_backward` forms the
scores' gradient E (g V' - g . ctx), g = dctx / s, over blocks of query
rows of the cached E (the few gathered columns at once, their key and
value gradients summed into their key rows). Skipping the forbidden
entries' zeros changes summation order only, in the last digits, and so
do prediction's blocks, whose products have other shapes.

GELU is x Phi(x), with Phi(x) = 0.5 (1 + erf(x / sqrt 2)) the normal CDF.
`erf` is evaluated here in numpy, with the rational approximations of the
Cephes library (ndtr.c) and Cephes' order of operations: bit for bit
Cephes' erf where |x| <= 1, within 1 ulp of it beyond (where exp(-x^2)
comes from np.exp), and within 3 ulp of `math.erf` everywhere, as Cephes'
own erf is. numpy is the only runtime dependency. Training evaluates each
GELU once: the forward pass caches Phi in place of the GELU output, and
`layer_backward` forms G = x Phi and the derivative Phi + x exp(-x^2 / 2)
/ sqrt(2 pi) from it.

Few large temporaries: `forward` keeps no layer caches and holds no
(heads, n, n) array: a part's scores take one buffer of about
_ATTN_BLOCK elements (256 KB), freed before the next part's (training
caches each part's whole E, s and context). Each layer runs as an attention sub-layer and an FFN sub-layer,
so prediction frees Q, K, V, the context, the first residual and layer
norm's xhat before the FFN runs. The FFN adds its biases and its residual
in place, and prediction forms GELU in place over Z1 a block of rows at a
time (Phi's and erf's temporaries are 128 KB blocks; training keeps Phi
in one fresh (n, d_ff) array). Layer norm centres x once and scales in
place, and the attention backward reuses one block-sized buffer. A
prediction's peak heap then stays under glibc's trim threshold, so the
memory one pass frees is not returned to the kernel only to be
page-faulted back in by the next.

One rule for the final layer: it computes only the query rows its caller
reads. `forward` reads the [CLS] row (`rows=slice(0, 1)`), and each loss
passes the rows it reads: [CLS] for classification, the target positions
for masked tokens, the pair ends for edge and alignment prediction. Keys
and values are still projected from all n rows of the layer below, but Q,
the scores (planned from `build_mask(inp)[rows]`), the softmax, A V, the
output projection, both layer norms and the FFN run on those r rows
alone, and the backward pass takes the query-side gradient through those
rows only.
`rows` is a slice or an array of sorted, unique positions; every lower
layer computes all n rows. Fewer rows change the shapes of the BLAS
products (a one-row product takes the matrix-vector path), so results may
differ from the all-rows pass in the last digits (rounding only, about
1e-16 to 1e-15 absolute; still deterministic run to run).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ponziscan.encoding import AttentionPart, ModelInput, attention_plan, build_mask
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


# The Cephes library's rational approximations (ndtr.c): erf(x) =
# x T(x^2) / U(x^2) for |x| <= 1, and
# erf(x) = 1 - exp(-x^2) P(|x|) / Q(|x|) with the sign of x beyond; U and Q
# have a leading coefficient of 1.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
# past this |x|, exp(-x^2) P / Q is below half an ulp of 1, so erf is +-1.0
_ERF_SATURATES = 6.0
# elements per block of erf: its two 128 KB temporaries stay in cache and
# are not page-faulted in afresh on every call; on one core of a 2-vCPU
# Xeon (4 MiB L2), GELU over a (322, 256) array took 0.85 ms this way
# against 1.30 ms in one whole-array pass
_ERF_BLOCK = 16384
# elements of scores per block of query rows in attention and its backward:
# a 256 KB block stays in L2
_ATTN_BLOCK = 32768


def _row_step(row_size: int, elements: int) -> int:
    """Rows per block of about `elements` elements, for rows of `row_size`
    elements; at least one."""
    return max(1, elements // max(row_size, 1))


def _horner(coef: tuple, x: np.ndarray, out: np.ndarray | None = None,
            monic: bool = False) -> np.ndarray:
    """The polynomial coef (highest power first, after an implicit leading
    1 if monic) at x, into `out` (which must not be x) or a new array, in
    Cephes' polevl/p1evl order of operations."""
    if monic:
        out = np.add(x, coef[0], out=out)
        rest = coef[1:]
    else:
        out = np.multiply(x, coef[0], out=out)
        out += coef[1]
        rest = coef[2:]
    for c in rest:
        out *= x
        out += c
    return out


def erf(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The error function of every element of x (at least one axis),
    written into `out` (which may be x) or a new array: Cephes' erf, bit
    for bit where |x| <= 1, and within 1 ulp of it beyond (np.exp may round
    exp(-x^2) differently from the C library's exp); within 3 ulp of
    math.erf. +-inf gives +-1 and NaN stays NaN, without floating-point
    warnings. Runs over blocks of rows of about _ERF_BLOCK elements, so its
    two temporaries stay small and in cache."""
    if out is None:
        out = np.empty(x.shape)
    step = _row_step(x.size // max(len(x), 1), _ERF_BLOCK)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(x), step):
            _erf_block(x[i:i + step], out[i:i + step])
    return out


def _erf_block(x: np.ndarray, out: np.ndarray) -> None:
    z = np.multiply(x, x)
    far = z > 1.0  # |x| > 1 (and +-inf); NaN compares False
    x_far = x[far]  # gathered before `out`, which may be x, is written
    t = _horner(_ERF_T, z)
    t *= x
    _horner(_ERF_U, z, out=out, monic=True)
    np.divide(t, out, out=out)
    if x_far.size:
        a = np.minimum(np.abs(x_far), _ERF_SATURATES)
        tail = np.exp(-(a * a))
        tail *= _horner(_ERFC_P, a)
        tail /= _horner(_ERFC_Q, a, monic=True)
        out[far] = np.copysign(1.0 - tail, x_far)


def _normal_cdf(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Phi(x) = 0.5 (1 + erf(x / sqrt 2)), into `out` or a new array."""
    out = np.divide(x, _SQRT2, out=out)
    erf(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def gelu(x: np.ndarray, phi: np.ndarray | None = None,
         out: np.ndarray | None = None) -> np.ndarray:
    """x Phi(x), Phi the standard normal CDF, into `out` (which may be x)
    or a new array. Training passes `phi` (shaped like x) to keep Phi(x)
    there for gelu_grad; without it, Phi is formed a block of rows of about
    _ERF_BLOCK elements at a time and each block scaled by x at once, so
    prediction forms GELU in place. Scaling by 0.5 is exact, so this rounds
    as 0.5 x (1 + erf(x / sqrt 2)) does."""
    if phi is not None:
        return np.multiply(x, _normal_cdf(x, out=phi), out=out)
    if out is None:
        out = np.empty(x.shape)
    step = _row_step(x.size // max(len(x), 1), _ERF_BLOCK)
    for i in range(0, len(x), step):
        b = slice(i, i + step)
        np.multiply(x[b], _normal_cdf(x[b]), out=out[b])
    return out


def gelu_grad(x: np.ndarray, phi: np.ndarray | None = None) -> np.ndarray:
    """dGELU/dx = Phi(x) + x exp(-x^2 / 2) / sqrt(2 pi) in one new array;
    `phi` is Phi(x) as gelu kept it, or None to compute it here."""
    if phi is None:
        phi = _normal_cdf(x)
    out = np.multiply(x, -0.5)
    out *= x
    np.exp(out, out=out)
    out *= x
    out /= _SQRT_2PI
    out += phi
    return out


def softmax_rows(x: np.ndarray, out: np.ndarray | None = None):
    """The softmax over the last axis as (E, s), the softmax being E / s:
    E = exp(x - rowmax(x)) in `out` (which may be x) or a new array, and
    its row sums s >= 1 (keepdims). x is left alone unless it is `out`."""
    out = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    return out, out.sum(axis=-1, keepdims=True)


def softmax_rows_backward(dA: np.ndarray, A: np.ndarray, delta: np.ndarray,
                          out: np.ndarray | None = None) -> np.ndarray:
    """The scores' gradient A * (dA - delta), into `out` (which may be dA)
    or a new array: delta = rowsum(dA * A) for weights A, or (dO / s) . O
    for A = E of softmax_rows and O = (E / s) V, with dA = dO V' / s."""
    out = np.subtract(dA, delta, out=out)
    out *= A
    return out


def layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    """g xhat + b over the last axis, x centred once, and (xhat, inv)."""
    xhat = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.einsum("...i,...i->...", xhat, xhat)[..., None] / x.shape[-1]
                        + LN_EPS)
    xhat *= inv
    y = xhat * g
    y += b
    return y, (xhat, inv)


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
    """A dense (n, n) mask as additive scores: 0 on allowed pairs,
    MASK_FORBID on forbidden ones. A row with no allowed key is left at 0,
    so it attends every key by its raw score, as attention_plan's wide rows
    do: a constant row shift does not change its softmax, and adding -1e9
    would round its scores to the 1.2e-7 spacing of doubles near 1e9,
    which finite differences can see. The encoder itself builds no dense
    mask; this states the rule for dense references."""
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


def _scatter_keys(contrib: np.ndarray, keys: np.ndarray, n: int) -> np.ndarray:
    """Sum contrib (heads, r, m, d_k) into a zero (heads, n, d_k) array at
    the key positions keys (r, m); a key gathered by several rows gets the
    sum of their terms."""
    heads, _, _, d_k = contrib.shape
    at = (np.arange(heads)[:, None] * n + keys.ravel())[:, :, None] * d_k + np.arange(d_k)
    return np.bincount(at.ravel(), contrib.ravel(),
                       minlength=heads * n * d_k).reshape(heads, n, d_k)


def _attend(Qp: np.ndarray, Kh: np.ndarray, Vh: np.ndarray, part: AttentionPart,
            keep: bool):
    """One part's attention for its scaled query rows Qp, as (E, s, ctx),
    a block of query rows at a time: softmax_rows (E, s) of the block's
    scores of its key block, then of its gathered keys (-inf on padding),
    and the context ctx = (E V) / s, (heads, r, d_k). Prediction scores
    blocks of about _ATTN_BLOCK scores in one reused buffer and returns E
    None. With `keep` (training) the one block is every row, written into
    the (heads, r, block + m) E that _attend_backward reads: that E is
    kept whole anyway, and one block rounds as the all-rows products
    always have."""
    heads, r, _ = Qp.shape
    Kb, Vb = Kh[:, part.block], Vh[:, part.block]
    nb, m = Kb.shape[1], part.keys.shape[1]
    step = max(r, 1) if keep else _row_step(heads * (nb + m), _ATTN_BLOCK)
    buf = np.empty((heads, min(step, r), nb + m))
    s = np.empty((heads, r, 1))
    ctx = np.empty(Qp.shape)
    for i in range(0, r, step):
        b = slice(i, i + step)
        Qb, keys = Qp[:, b], part.keys[b]
        S = buf[:, :min(step, r - i)]
        np.matmul(Qb, Kb.transpose(0, 2, 1), out=S[..., :nb])
        if m:
            gathered = S[..., nb:]
            gathered[...] = (Kh[:, keys] * Qb[:, :, None, :]).sum(axis=-1)
            gathered[:, part.pad[b]] = -np.inf
        _, s[:, b] = softmax_rows(S, out=S)
        np.matmul(S[..., :nb], Vb, out=ctx[:, b])
        if m:
            ctx[:, b] += (S[..., nb:, None] * Vh[:, keys]).sum(axis=-2)
    ctx /= s
    return (buf if keep else None), s, ctx


def _attend_backward(dctx: np.ndarray, Qp: np.ndarray, Kh: np.ndarray, Vh: np.ndarray,
                     E: np.ndarray, s: np.ndarray, ctx: np.ndarray, part: AttentionPart,
                     dKh: np.ndarray, dVh: np.ndarray) -> np.ndarray:
    """Gradients of one part's _attend, which returned (E, s, ctx), given
    dctx: adds the key and value terms into dKh and dVh and returns Qp's.
    The key block's score gradient is formed in blocks of query rows of
    about _ATTN_BLOCK elements of E, in one reused buffer."""
    heads, r, cols = E.shape
    n, nb = Kh.shape[1], cols - part.keys.shape[1]
    Kb, Vb = Kh[:, part.block], Vh[:, part.block]
    g = dctx / s
    delta = (g * ctx).sum(axis=-1, keepdims=True)
    dQp = np.zeros(Qp.shape)
    if part.keys.size:  # the gathered columns, (heads, r, m), in one go
        Eg = E[..., nb:]
        dVh += _scatter_keys(Eg[..., None] * g[:, :, None, :], part.keys, n)
        dS = (Vh[:, part.keys] * g[:, :, None, :]).sum(axis=-1)
        softmax_rows_backward(dS, Eg, delta, out=dS)
        dQp += (dS[..., None] * Kh[:, part.keys]).sum(axis=-2)
        dKh += _scatter_keys(dS[..., None] * Qp[:, :, None, :], part.keys, n)
    step = _row_step(heads * nb, _ATTN_BLOCK)
    buf = np.empty((heads, min(step, r), nb))
    for i in range(0, r if nb else 0, step):
        b = slice(i, i + step)
        Eb, gb, dS = E[:, b, :nb], g[:, b], buf[:, :min(step, r - i)]
        np.matmul(gb, Vb.transpose(0, 2, 1), out=dS)
        dVh[:, part.block] += Eb.transpose(0, 2, 1) @ gb
        softmax_rows_backward(dS, Eb, delta[:, b], out=dS)
        dQp[:, b] += dS @ Kb
        dKh[:, part.block] += dS.transpose(0, 2, 1) @ Qp[:, b]
    return dQp


def layer_forward(W: np.ndarray, parts: tuple[AttentionPart, ...], params: Params,
                  prefix: str, n_heads: int,
                  rows: slice | np.ndarray = slice(None),
                  caches: list | None = None) -> np.ndarray:
    """One encoder layer for the query rows W[rows] (a slice, or positions
    that must be sorted and unique); keys and values come from every row of
    W, and each query row attends the keys that `parts`, the attention plan
    of the mask rows `rows`, allows it. Returns the (len(rows), d_h)
    output. Appends what layer_backward needs to `caches`.

    The layer runs as two sub-layers, each of which writes its part of
    the cache. With `caches` None (prediction) nothing of the attention
    sub-layer (Q, K, V, the context, its residual, layer norm's xhat)
    outlives it, so none of it is held while the FFN runs."""
    cache = None if caches is None else {"W": W, "rows": rows, "parts": parts}
    U = _attention_sublayer(W, parts, params, prefix, n_heads, rows, cache)
    W_out = _ffn_sublayer(U, params, prefix, cache)
    if caches is not None:
        caches.append(cache)
    return W_out


def _attention_sublayer(W: np.ndarray, parts: tuple[AttentionPart, ...], params: Params,
                        prefix: str, n_heads: int, rows: slice | np.ndarray,
                        cache: dict | None) -> np.ndarray:
    """U = LayerNorm(MultiHeadAttention(W)[rows] + W[rows]). Training's
    `cache` takes Q, K, V, each part's (E, s, ctx), the merged context and
    layer norm's; prediction (`cache` None) keeps no part's E."""
    wq, wk, wv, wo = (params[prefix + k] for k in ("wq", "wk", "wv", "wo"))
    d_k = wq.shape[1] // n_heads
    Q = W[rows] @ wq
    Q /= np.sqrt(d_k)  # scales every score; bit-exact when sqrt(d_k) is a power of 2
    Qh = _split_heads(Q, n_heads)
    Kh = _split_heads(W @ wk, n_heads)
    Vh = _split_heads(W @ wv, n_heads)
    ctxh = np.empty(Qh.shape)
    attended = []
    for part in parts:
        E, s, part_ctx = _attend(Qh[:, part.out], Kh, Vh, part, keep=cache is not None)
        ctxh[:, part.out] = part_ctx
        if cache is not None:
            attended.append((E, s, part_ctx))
    ctx = _merge_heads(ctxh)
    res1 = ctx @ wo
    res1 += W[rows]
    U, ln1_cache = layer_norm(res1, params[prefix + "ln1_g"], params[prefix + "ln1_b"])
    if cache is not None:
        cache.update(Qh=Qh, Kh=Kh, Vh=Vh, attended=attended, ctx=ctx, ln1=ln1_cache)
    return U


def _ffn_sublayer(U: np.ndarray, params: Params, prefix: str,
                  cache: dict | None) -> np.ndarray:
    """LayerNorm(FFN(U) + U). Training's `cache` takes U, Z1 and Phi(Z1)
    for gelu_grad (layer_backward forms G = Z1 Phi again) and layer norm's;
    prediction (`cache` None) forms GELU in place over Z1."""
    Z1 = U @ params[prefix + "ffn_w1"]
    Z1 += params[prefix + "ffn_b1"]
    Phi = None if cache is None else np.empty_like(Z1)
    G = gelu(Z1, phi=Phi, out=Z1 if cache is None else None)
    F = G @ params[prefix + "ffn_w2"]
    F += params[prefix + "ffn_b2"]
    F += U
    W_out, ln2_cache = layer_norm(F, params[prefix + "ln2_g"], params[prefix + "ln2_b"])
    if cache is not None:
        cache.update(U=U, Z1=Z1, Phi=Phi, ln2=ln2_cache)
    return W_out


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
    Z1, Phi = cache["Z1"], cache["Phi"]
    grads[prefix + "ffn_w2"] += (Z1 * Phi).T @ dF
    grads[prefix + "ffn_b2"] += dF.sum(axis=0)
    dZ1 = dF @ w2.T
    dZ1 *= gelu_grad(Z1, phi=Phi)
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
    dctxh = _split_heads(dattn @ wo.T, n_heads)
    Qh, Kh, Vh = cache["Qh"], cache["Kh"], cache["Vh"]
    dQh = np.empty(Qh.shape)
    dKh = np.zeros(Kh.shape)
    dVh = np.zeros(Vh.shape)
    for part, attended in zip(cache["parts"], cache["attended"]):
        dQh[:, part.out] = _attend_backward(dctxh[:, part.out], Qh[:, part.out], Kh, Vh,
                                            *attended, part, dKh, dVh)
    dQh /= np.sqrt(Qh.shape[-1])  # the factor layer_forward scaled Q by
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
    so the result is (len(rows), d_h). Each layer appends its cache to
    `caches`; with `caches` None (prediction) no layer keeps one."""
    allow = build_mask(inp)
    lower_parts = attention_plan(allow, inp.segments)
    final_parts = attention_plan(allow[rows], inp.segments)
    del allow
    W = embed(inp, params)
    last = config.n_layers - 1
    for i in range(config.n_layers):
        W = layer_forward(W, final_parts if i == last else lower_parts, params,
                          f"layer{i}.", config.n_heads,
                          rows=rows if i == last else slice(None), caches=caches)
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
    probs = np.divide(*softmax_rows(H[0] @ params["cls_w"]))  # E / s
    return Prediction(probabilities=probs,
                      label=int(probs[1] >= threshold),
                      threshold=threshold)
