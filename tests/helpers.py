"""Independent oracles shared by the unit and acceptance tests.

Each oracle restates a contract from scratch (per-entry loops, no shared
code with the implementation) so that agreement is evidence, not tautology.
"""

from __future__ import annotations

import numpy as np

from ponziscan.encoding import (
    NODE_POSITION_ID,
    SEG_CLS,
    SEG_CODE,
    SEG_NODE,
    SEG_PAD,
    SEG_SEP,
    ModelInput,
    Vocabulary,
    build_mask,
)
from ponziscan.model.config import ModelConfig
from ponziscan.model.encoder import layer_backward, layer_forward, mask_additive


def mask_oracle(inp: ModelInput) -> np.ndarray:
    """Literal case-by-case attention permission, evaluated per entry."""
    seg = inp.segments
    L = len(seg)
    edges = set(inp.dfg_edges)          # (src position, dst position)
    aligned = set(inp.node_alignment)   # (node position, code position)
    out = np.zeros((L, L), dtype=bool)
    for i in range(L):          # query
        for j in range(L):      # key
            if seg[i] == SEG_PAD or seg[j] == SEG_PAD:
                allowed = False
            elif seg[i] in (SEG_CLS, SEG_SEP):
                allowed = True
            elif seg[i] == SEG_CODE and seg[j] == SEG_CODE:
                allowed = True
            elif seg[i] == SEG_NODE and seg[j] == SEG_NODE:
                # query node i may look at key node j when i's value comes
                # from j, or at itself
                allowed = (i == j) or ((j, i) in edges)
            elif seg[i] == SEG_NODE and seg[j] == SEG_CODE:
                allowed = (i, j) in aligned
            elif seg[i] == SEG_CODE and seg[j] == SEG_NODE:
                allowed = (j, i) in aligned
            else:
                allowed = False
            out[i, j] = allowed
    return out


def random_model_input(rng: np.random.Generator, code_len: int = 8,
                       flow_len: int = 4, vocab_size: int = 24) -> ModelInput:
    """Small synthetic instance: <= code_len code tokens, <= flow_len nodes,
    random edges (self loops included) and at most one alignment per node."""
    n_code = int(rng.integers(0, code_len + 1))
    n_nodes = int(rng.integers(0, flow_len + 1))
    L = 1 + code_len + 1 + flow_len

    token_ids = np.full(L, Vocabulary.PAD_ID, dtype=np.int64)
    position_ids = np.full(L, NODE_POSITION_ID, dtype=np.int64)
    segments = np.full(L, SEG_PAD, dtype=np.int8)
    token_ids[0] = Vocabulary.CLS_ID
    position_ids[0] = 1
    segments[0] = SEG_CLS
    for t in range(n_code):
        token_ids[1 + t] = int(rng.integers(5, vocab_size))
        position_ids[1 + t] = 2 + t
        segments[1 + t] = SEG_CODE
    sep = 1 + n_code
    token_ids[sep] = Vocabulary.SEP_ID
    position_ids[sep] = 2 + n_code
    segments[sep] = SEG_SEP
    node_base = sep + 1
    for k in range(n_nodes):
        token_ids[node_base + k] = int(rng.integers(5, vocab_size))
        segments[node_base + k] = SEG_NODE

    edges = []
    if n_nodes:
        for _ in range(int(rng.integers(0, 2 * n_nodes + 1))):
            s = node_base + int(rng.integers(0, n_nodes))
            d = node_base + int(rng.integers(0, n_nodes))
            edges.append((s, d))
    alignment = []
    if n_code:
        for k in range(n_nodes):
            if rng.random() < 0.8:
                alignment.append((node_base + k,
                                  1 + int(rng.integers(0, n_code))))

    return ModelInput(token_ids=token_ids, position_ids=position_ids,
                      segments=segments, node_alignment=alignment,
                      dfg_edges=sorted(set(edges)),
                      n_code=n_code, n_nodes=n_nodes)


def attention_oracle(W: np.ndarray, allow: np.ndarray, wq: np.ndarray,
                     wk: np.ndarray, wv: np.ndarray, wo: np.ndarray,
                     n_heads: int) -> np.ndarray:
    """Per-entry multi-head attention: explicit loops over heads, queries,
    and keys, with forbidden keys excluded from the softmax support."""
    L, d_h = W.shape
    d_k = d_h // n_heads
    out = np.zeros((L, d_h))
    for h in range(n_heads):
        cols = slice(h * d_k, (h + 1) * d_k)
        Q = W @ wq[:, cols]
        K = W @ wk[:, cols]
        V = W @ wv[:, cols]
        for q in range(L):
            scores = np.array([
                (Q[q] @ K[k]) / np.sqrt(d_k) if allow[q, k] else -1e9
                for k in range(L)
            ])
            scores -= scores.max()
            weights = np.exp(scores)
            weights /= weights.sum()
            for k in range(L):
                out[q, cols] += weights[k] * V[k]
    return out @ wo


def padded_forward_hidden(inp: ModelInput, params: dict[str, np.ndarray],
                          config: ModelConfig):
    """Reference encoder over all L padded slots with the full (L, L)
    mask, as forward_hidden ran before it trimmed inputs to their real
    length. Same signature and return shape convention."""
    mask_add = mask_additive(build_mask(inp))
    W = params["tok_emb"][inp.token_ids] + params["pos_emb"][inp.position_ids]
    caches = []
    for i in range(config.n_layers):
        W, cache = layer_forward(W, mask_add, params, f"layer{i}.", config.n_heads)
        caches.append(cache)
    return W, caches


def padded_backward_hidden(dH: np.ndarray, inp: ModelInput, caches: list,
                           params: dict[str, np.ndarray], config: ModelConfig,
                           grads: dict[str, np.ndarray]) -> None:
    """Backward pass matching padded_forward_hidden, (L, d_h) dH."""
    dW = dH
    for i in reversed(range(config.n_layers)):
        dW = layer_backward(dW, caches[i], params, f"layer{i}.", config.n_heads, grads)
    np.add.at(grads["tok_emb"], inp.token_ids, dW)
    np.add.at(grads["pos_emb"], inp.position_ids, dW)


def finite_difference_grads(loss_fn, params: dict[str, np.ndarray],
                            names: list[str] | None = None,
                            eps: float = 1e-4,
                            sample: int | None = None,
                            rng: np.random.Generator | None = None):
    """Central differences for every entry (or `sample` random entries per
    tensor). loss_fn() reads `params` by reference. Yields
    (name, flat_index, fd_value)."""
    for name in (names or sorted(params)):
        tensor = params[name]
        flat = tensor.reshape(-1)
        if sample is None or sample >= flat.size:
            indices = range(flat.size)
        else:
            indices = sorted(rng.choice(flat.size, size=sample,
                                        replace=False).tolist())
        for idx in indices:
            keep = flat[idx]
            flat[idx] = keep + eps
            up = loss_fn()
            flat[idx] = keep - eps
            down = loss_fn()
            flat[idx] = keep
            yield name, idx, (up - down) / (2.0 * eps)


def _relative_error(an: float, fd: float) -> float:
    return abs(an - fd) / max(abs(an), abs(fd), 1e-6)


def max_relative_error(loss_fn, grads: dict[str, np.ndarray],
                       params: dict[str, np.ndarray],
                       names: list[str] | None = None,
                       eps: float = 1e-4, sample: int | None = None,
                       rng: np.random.Generator | None = None) -> float:
    worst = 0.0
    for name, idx, fd in finite_difference_grads(loss_fn, params, names,
                                                 eps, sample, rng):
        worst = max(worst, _relative_error(grads[name].reshape(-1)[idx], fd))
    return worst


def max_relative_error_two_scale(loss_fn, grads: dict[str, np.ndarray],
                                 params: dict[str, np.ndarray],
                                 names: list[str] | None = None,
                                 sample: int | None = None,
                                 rng: np.random.Generator | None = None) -> float:
    """Per-entry error at the better of two probe steps.

    The probe itself errs: truncation grows as eps^2 on steep coordinates
    and cancellation noise grows as 1/eps on tiny ones, so no single step
    suits every entry. A correct analytic gradient agrees at one of the two
    scales; a wrong one disagrees at both, since its mismatch does not
    shrink with eps.
    """
    if sample is not None and rng is not None:
        state = rng.bit_generator.state
    fine = {}
    for name, idx, fd in finite_difference_grads(loss_fn, params, names,
                                                 1e-5, sample, rng):
        fine[(name, idx)] = fd
    if sample is not None and rng is not None:
        rng.bit_generator.state = state  # probe the same entries again
    worst = 0.0
    for name, idx, fd in finite_difference_grads(loss_fn, params, names,
                                                 1e-4, sample, rng):
        an = grads[name].reshape(-1)[idx]
        err = min(_relative_error(an, fd),
                  _relative_error(an, fine[(name, idx)]))
        worst = max(worst, err)
    return worst


def count_params(config: ModelConfig, vocab_size: int) -> int:
    from ponziscan.model.params import param_shapes

    return sum(int(np.prod(shape))
               for shape in param_shapes(config, vocab_size).values())
