"""Independent oracles shared by the unit and acceptance tests, a time
limit for tests of inputs that once hung, the source mutator that the fuzz
and golden tests share, the byte editor of the input-boundary sweeps, and a
loader for the benchmark's modules.

Each oracle restates a contract from scratch (per-entry loops, no shared
code with the implementation) so that agreement is evidence, not tautology.
"""

from __future__ import annotations

import math
import random
import re
import signal
import sys
import types
from contextlib import contextmanager
from dataclasses import replace
from itertools import accumulate
from pathlib import Path

import numpy as np

from ponziscan import datasynth
from ponziscan.encoding import (
    NODE_POSITION_ID,
    SEG_CLS,
    SEG_CODE,
    SEG_NODE,
    SEG_SEP,
    ModelInput,
    Vocabulary,
    build_mask,
)
from ponziscan.errors import IllegalCharacter, UnterminatedComment, UnterminatedString
from ponziscan.model.config import ModelConfig
from ponziscan.model.encoder import (
    backward_hidden,
    forward_hidden,
    gelu,
    gelu_grad,
    layer_norm,
    layer_norm_backward,
    mask_additive,
    softmax_rows,
    softmax_rows_backward,
)
from ponziscan.solparse.lexer import (
    KIND_NUMBER,
    KIND_PUNCT,
    KIND_STRING,
    Token,
    _classify_word,
)


def mask_oracle(inp: ModelInput) -> np.ndarray:
    """Literal case-by-case attention permission, evaluated per entry."""
    seg = inp.segments
    L = len(seg)
    edges = set(inp.dfg_edges)          # (src position, dst position)
    aligned = set(inp.node_alignment)   # (node position, code position)
    out = np.zeros((L, L), dtype=bool)
    for i in range(L):          # query
        for j in range(L):      # key
            if seg[i] in (SEG_CLS, SEG_SEP):
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
    n = 2 + n_code + n_nodes

    token_ids = np.empty(n, dtype=np.int64)
    position_ids = np.full(n, NODE_POSITION_ID, dtype=np.int64)
    segments = np.empty(n, dtype=np.int8)
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


def random_withdrawn(inp: ModelInput, rng: np.random.Generator) -> ModelInput:
    """inp with random withdrawn entries: up to three allowed entries drawn
    at random, and where the input has them, every key of one node row
    (its row is then empty), the aligned node of one code row, one
    code-code entry and, half the time, one entry of the [CLS] row."""
    allow = mask_oracle(inp)
    seg = inp.segments
    allowed = [tuple(e) for e in np.argwhere(allow).tolist()]
    picked = rng.choice(len(allowed), size=int(rng.integers(0, 4)), replace=False)
    entries = {allowed[i] for i in picked.tolist()}
    nodes = np.flatnonzero(seg == SEG_NODE)
    code = np.flatnonzero(seg == SEG_CODE)
    if len(nodes):
        node = int(rng.choice(nodes))
        entries |= {(node, int(k)) for k in np.flatnonzero(allow[node])}
    if inp.node_alignment:
        node, token = inp.node_alignment[int(rng.integers(len(inp.node_alignment)))]
        entries.add((token, node))
    if len(code):
        entries.add((int(rng.choice(code)), int(rng.choice(code))))
    if rng.random() < 0.5:
        entries.add((0, int(rng.integers(len(inp)))))
    return replace(inp, withdrawn=tuple(sorted(entries)))


def attention_oracle(W: np.ndarray, allow: np.ndarray, wq: np.ndarray,
                     wk: np.ndarray, wv: np.ndarray, wo: np.ndarray,
                     n_heads: int) -> np.ndarray:
    """Per-entry multi-head attention: explicit loops over heads, queries,
    and keys, with forbidden keys excluded from the softmax support. A
    query with no allowed key attends every key by its raw score."""
    L, d_h = W.shape
    d_k = d_h // n_heads
    out = np.zeros((L, d_h))
    for h in range(n_heads):
        cols = slice(h * d_k, (h + 1) * d_k)
        Q = W @ wq[:, cols]
        K = W @ wk[:, cols]
        V = W @ wv[:, cols]
        for q in range(L):
            support = allow[q] if allow[q].any() else np.ones(L, dtype=bool)
            scores = np.array([
                (Q[q] @ K[k]) / np.sqrt(d_k) if support[k] else -1e9
                for k in range(L)
            ])
            scores -= scores.max()
            weights = np.exp(scores)
            weights /= weights.sum()
            for k in range(L):
                out[q, cols] += weights[k] * V[k]
    return out @ wo


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    L, d_h = x.shape
    return x.reshape(L, n_heads, d_h // n_heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    m, L, d_k = x.shape
    return x.transpose(1, 0, 2).reshape(L, m * d_k)


def dense_layer_forward(W: np.ndarray, mask_add: np.ndarray, params, prefix: str,
                        n_heads: int):
    """One encoder layer over all rows of W, with attention over the full
    (L, L) score matrix plus the additive mask `mask_add`: the dense form
    of the encoder's layer_forward. Returns the output and the cache."""
    wq, wk, wv, wo = (params[prefix + k] for k in ("wq", "wk", "wv", "wo"))
    d_k = wq.shape[1] // n_heads
    Qh = _split_heads(W @ wq, n_heads)
    Kh = _split_heads(W @ wk, n_heads)
    Vh = _split_heads(W @ wv, n_heads)
    scores = Qh @ Kh.transpose(0, 2, 1) / np.sqrt(d_k) + mask_add
    E, s = softmax_rows(scores)
    A = E / s
    ctx = _merge_heads(A @ Vh)
    U, ln1_cache = layer_norm(ctx @ wo + W, params[prefix + "ln1_g"], params[prefix + "ln1_b"])
    Z1 = U @ params[prefix + "ffn_w1"] + params[prefix + "ffn_b1"]
    G = gelu(Z1)
    F = G @ params[prefix + "ffn_w2"] + params[prefix + "ffn_b2"]
    W_out, ln2_cache = layer_norm(F + U, params[prefix + "ln2_g"], params[prefix + "ln2_b"])
    cache = {"W": W, "Qh": Qh, "Kh": Kh, "Vh": Vh, "A": A, "ctx": ctx, "U": U,
             "Z1": Z1, "G": G, "ln1": ln1_cache, "ln2": ln2_cache, "d_k": d_k}
    return W_out, cache


def dense_layer_backward(dW_out: np.ndarray, cache: dict, params, prefix: str,
                         n_heads: int, grads) -> np.ndarray:
    """Gradients of one dense_layer_forward; returns dLoss/dW."""
    W, U = cache["W"], cache["U"]
    dres2, dg2, db2 = layer_norm_backward(dW_out, params[prefix + "ln2_g"], cache["ln2"])
    grads[prefix + "ln2_g"] += dg2
    grads[prefix + "ln2_b"] += db2
    grads[prefix + "ffn_w2"] += cache["G"].T @ dres2
    grads[prefix + "ffn_b2"] += dres2.sum(axis=0)
    dZ1 = (dres2 @ params[prefix + "ffn_w2"].T) * gelu_grad(cache["Z1"])
    grads[prefix + "ffn_w1"] += U.T @ dZ1
    grads[prefix + "ffn_b1"] += dZ1.sum(axis=0)
    dU = dres2 + dZ1 @ params[prefix + "ffn_w1"].T
    dres1, dg1, db1 = layer_norm_backward(dU, params[prefix + "ln1_g"], cache["ln1"])
    grads[prefix + "ln1_g"] += dg1
    grads[prefix + "ln1_b"] += db1

    wq, wk, wv, wo = (params[prefix + k] for k in ("wq", "wk", "wv", "wo"))
    grads[prefix + "wo"] += cache["ctx"].T @ dres1
    dctxh = _split_heads(dres1 @ wo.T, n_heads)
    A = cache["A"]
    dA = dctxh @ cache["Vh"].transpose(0, 2, 1)
    dVh = A.transpose(0, 2, 1) @ dctxh
    dS = softmax_rows_backward(dA, A, (dA * A).sum(axis=-1, keepdims=True))
    scale = 1.0 / np.sqrt(cache["d_k"])
    dQ = _merge_heads(dS @ cache["Kh"] * scale)
    dK = _merge_heads(dS.transpose(0, 2, 1) @ cache["Qh"] * scale)
    dV = _merge_heads(dVh)
    grads[prefix + "wq"] += W.T @ dQ
    grads[prefix + "wk"] += W.T @ dK
    grads[prefix + "wv"] += W.T @ dV
    return dres1 + dQ @ wq.T + dK @ wk.T + dV @ wv.T


def padded_layout(inp: ModelInput, config: ModelConfig):
    """The input padded to the budget length L = code_len + flow_len + 2:
    (token_ids, position_ids, allow). Pad slots hold the [PAD] token at
    position id 0, and the (L, L) mask forbids every pad row and column,
    with build_mask(inp) as its top-left block; a real row with no allowed
    key there allows every real key instead, since such a row attends the
    n slots of the input by their raw scores."""
    n, L = len(inp), config.code_len + config.flow_len + 2
    token_ids = np.full(L, Vocabulary.PAD_ID, dtype=np.int64)
    position_ids = np.full(L, NODE_POSITION_ID, dtype=np.int64)
    token_ids[:n], position_ids[:n] = inp.token_ids, inp.position_ids
    allow = np.zeros((L, L), dtype=bool)
    allow[:n, :n] = build_mask(inp)
    allow[:n, :n] |= ~allow[:n, :n].any(axis=1, keepdims=True)
    return token_ids, position_ids, allow


def padded_forward_hidden(inp: ModelInput, params: dict[str, np.ndarray],
                          config: ModelConfig, rows=slice(None)):
    """Reference encoder over all L slots of padded_layout with the full
    (L, L) mask and dense attention (dense_layer_forward). Same signature
    as forward_hidden: every layer computes all L rows and the result is
    H[rows]. The caches carry `rows` for padded_backward_hidden."""
    token_ids, position_ids, allow = padded_layout(inp, config)
    mask_add = mask_additive(allow)
    W = params["tok_emb"][token_ids] + params["pos_emb"][position_ids]
    caches = []
    for i in range(config.n_layers):
        W, cache = dense_layer_forward(W, mask_add, params, f"layer{i}.", config.n_heads)
        caches.append(cache)
    return W[rows], (caches, rows)


def padded_backward_hidden(dH: np.ndarray, inp: ModelInput, caches,
                           params: dict[str, np.ndarray], config: ModelConfig,
                           grads: dict[str, np.ndarray]) -> None:
    """Backward pass matching padded_forward_hidden: dH holds the rows it
    returned and is scattered into a zero (L, d_h) array first."""
    layer_caches, rows = caches
    dW = np.zeros_like(layer_caches[-1]["W"])
    dW[rows] = dH
    for i in reversed(range(config.n_layers)):
        dW = dense_layer_backward(dW, layer_caches[i], params, f"layer{i}.",
                                  config.n_heads, grads)
    token_ids, position_ids, _ = padded_layout(inp, config)
    np.add.at(grads["tok_emb"], token_ids, dW)
    np.add.at(grads["pos_emb"], position_ids, dW)


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


def _loop_cross_entropy(logits: np.ndarray, target: int) -> tuple[float, np.ndarray]:
    lse = math.log(sum(math.exp(v) for v in logits.tolist()))
    dlogits = np.exp(logits - lse)
    dlogits[target] -= 1.0
    return lse - float(logits[target]), dlogits


def _loop_round_trip(inp, positions, params, config, head):
    """head(dH, h_row, k) per position k: adds into dH and the grads it
    closes over and returns that position's loss."""
    H, caches = forward_hidden(inp, params, config, rows=slice(None))
    grads = {name: np.zeros_like(p) for name, p in params.items()}
    dH = np.zeros_like(H)
    total = sum(head(H, dH, grads, k) for k in range(len(positions)))
    backward_hidden(dH, inp, caches, params, config, grads)
    return total, grads


def loop_classification_loss(inp, label, params, config):
    """classification_loss_and_grads as a loop over logits, on every row."""
    def head(H, dH, grads, k):
        loss, dlogits = _loop_cross_entropy(H[0] @ params["cls_w"], label)
        grads["cls_w"] += np.outer(H[0], dlogits)
        dH[0] += params["cls_w"] @ dlogits
        return loss
    return _loop_round_trip(inp, [0], params, config, head)


def loop_mlm_loss(inp, targets, params, config):
    """mlm_loss_and_grads as a loop over targets, on every row."""
    scale = 1.0 / len(targets)

    def head(H, dH, grads, k):
        pos, true_id = targets[k]
        loss, dlogits = _loop_cross_entropy(params["tok_emb"] @ H[pos], true_id)
        grads["tok_emb"] += np.outer(dlogits * scale, H[pos])
        dH[pos] += params["tok_emb"].T @ (dlogits * scale)
        return loss * scale
    return _loop_round_trip(inp, targets, params, config, head)


def loop_pair_bce_loss(inp, pairs, params, config):
    """pair_bce_loss_and_grads as a loop over pairs, on every row."""
    def head(H, dH, grads, k):
        i, j, y = pairs[k]
        z = float(H[i] @ H[j])
        p = 1.0 / (1.0 + math.exp(-z))
        dH[i] += (p - y) * H[j]
        dH[j] += (p - y) * H[i]
        return math.log1p(math.exp(z)) - y * z
    return _loop_round_trip(inp, pairs, params, config, head)


def count_params(config: ModelConfig, vocab_size: int) -> int:
    from ponziscan.model.params import param_shapes

    return sum(int(np.prod(shape))
               for shape in param_shapes(config, vocab_size).values())


@contextmanager
def time_limit(seconds: int):
    """Fail with TimeoutError instead of hanging when the body overruns."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# stray closers and openers, builtin roots, loop heads, and openers of
# comments and strings that may never close
ALPHABET = (")", "]", "}", "{", "(", "msg.", "for(", "do{", "/*", '"',
            ";", "=", "_", "while(", "++", "[", ".")


def mutate(source: str, mutations) -> str:
    """Span deletes, span copies and single inserts; positions wrap."""
    for kind, at, length, to, text in mutations:
        at %= len(source) + 1
        if kind == "delete":
            source = source[:at] + source[at + length:]
        elif kind == "copy":
            to %= len(source) + 1
            source = source[:to] + source[at:at + length] + source[to:]
        else:
            source = source[:at] + text + source[at:]
    return source


def mutated_sources(n: int = 48) -> list[str]:
    """Synthetic contracts damaged by one to four seeded mutations."""
    out = []
    for k in range(n):
        rng = np.random.default_rng([7, k])
        source = datasynth.make_source(k % 2, rng)
        mutations = [(("delete", "copy", "insert")[int(rng.integers(3))],
                      int(rng.integers(10 ** 6)), int(rng.integers(41)),
                      int(rng.integers(10 ** 6)),
                      ALPHABET[int(rng.integers(len(ALPHABET)))])
                     for _ in range(1 + int(rng.integers(4)))]
        out.append(mutate(source, mutations))
    return out


# a JSON array nested deeper than the recursion limit: json.loads raises
# RecursionError on it, which is no ValueError
NESTED_TOO_DEEP = b"[" * 200_000 + b"]" * 200_000


def edit_bytes(data: bytes, rng: random.Random, deep: bool = True) -> bytes:
    """One seeded edit: a bit flip, a truncation, an insertion or a deletion
    of up to 8 bytes, or (when deep) NESTED_TOO_DEEP inserted whole."""
    at = rng.randrange(len(data) + 1)
    kind = rng.randrange(5 if deep else 4)
    if kind == 0 and at < len(data):
        return data[:at] + bytes([data[at] ^ (1 << rng.randrange(8))]) + data[at + 1:]
    if kind == 1:
        return data[:at]
    if kind == 2:
        return data[:at] + rng.randbytes(rng.randint(1, 8)) + data[at:]
    if kind == 4:
        return data[:at] + NESTED_TOO_DEEP + data[at:]
    return data[:at] + data[at + rng.randint(1, 8):]


def perfbench_module(name: str) -> types.ModuleType:
    """perfbench/<name>.py, read from its file and executed without writing
    anything next to it (no bytecode cache under perfbench/)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def deep_sources(max_nesting: int) -> dict[str, tuple[str, str]]:
    """By shape, a source nested as deep as max_nesting admits and one
    nested a level deeper, as parser.MAX_NESTING counts levels: the
    statement x = 1 takes five, an if with its block two, a pair of
    parentheses two, and each + one."""
    def in_function(body: str) -> str:
        return "contract C { function f() public { " + body + " } }"

    shapes = {
        "blocks": (lambda n: in_function("{ " * n + "x = 1;" + " }" * n),
                   max_nesting - 5),
        "ifs": (lambda n: in_function("if (a) { " * n + "x = 1;" + " }" * n),
                (max_nesting - 5) // 2),
        "parens": (lambda n: in_function("x = " + "(" * n + "1" + ")" * n + ";"),
                   (max_nesting - 5) // 2),
        "chain": (lambda n: in_function("x = " + " + ".join(["a"] * n) + ";"),
                  max_nesting - 5),
        "ifs_around_parens": (lambda n: in_function(
            "if (a) { " * n + "x = " + "(" * n + "1" + ")" * n + ";" + " }" * n),
            (max_nesting - 5) // 4),
    }
    return {name: (make(n), make(n + 1)) for name, (make, n) in shapes.items()}


_IDENT_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
_HEX_RE = re.compile(r"0[xX][0-9a-fA-F_]+")
_NUM_RE = re.compile(r"[0-9][0-9_]*(?:\.[0-9_]+)?(?:[eE][+-]?[0-9]+)?")

_PUNCT3 = (">>=", "<<=", "**=")
_PUNCT2 = ("=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=",
           "%=", "&=", "|=", "^=", "<<", ">>", "++", "--", "->", "**")
_PUNCT1 = frozenset("+-*/%=<>!&|^~?:;,.(){}[]")
PUNCTUATION = (*_PUNCT3, *_PUNCT2, *sorted(_PUNCT1))

_WHITESPACE = frozenset(" \t\r\n\v\f\u00a0\ufeff")


def reference_lex(source: str) -> list[Token]:
    """The lexer as a character-by-character dispatch loop: one branch per
    token class, strings scanned escape by escape. Only the keyword test
    (_classify_word) is shared with lex, so agreement checks the scanner."""
    if source.isascii():
        byte_of = None
    else:
        byte_of = list(accumulate((len(c.encode("utf-8")) for c in source), initial=0))

    def boff(cp: int) -> int:
        return cp if byte_of is None else byte_of[cp]

    tokens: list[Token] = []
    n = len(source)
    i = 0

    def emit(kind: str, start_cp: int, end_cp: int) -> None:
        tokens.append(Token(kind, source[start_cp:end_cp], boff(start_cp),
                            boff(end_cp), len(tokens)))

    while i < n:
        c = source[i]
        if c in _WHITESPACE:
            i += 1
            continue
        if c == "/" and i + 1 < n and source[i + 1] == "/":
            j = source.find("\n", i)
            i = n if j < 0 else j
            continue
        if c == "/" and i + 1 < n and source[i + 1] == "*":
            close = source.find("*/", i + 2)
            if close < 0:
                raise UnterminatedComment("unterminated block comment", boff(i))
            i = close + 2
            continue
        if c in "\"'":
            j = i + 1
            while True:
                if j >= n or source[j] == "\n":
                    raise UnterminatedString("unterminated string literal", boff(i))
                if source[j] == "\\" and j + 1 < n:
                    j += 2
                    continue
                if source[j] == c:
                    break
                j += 1
            emit(KIND_STRING, i, j + 1)
            i = j + 1
            continue
        if "0" <= c <= "9":
            m = _HEX_RE.match(source, i) or _NUM_RE.match(source, i)
            emit(KIND_NUMBER, i, m.end())
            i = m.end()
            continue
        m = _IDENT_RE.match(source, i)
        if m:
            emit(_classify_word(m.group()), i, m.end())
            i = m.end()
            continue
        three = source[i:i + 3]
        if three in _PUNCT3:
            emit(KIND_PUNCT, i, i + 3)
            i += 3
            continue
        two = source[i:i + 2]
        if two in _PUNCT2:
            emit(KIND_PUNCT, i, i + 2)
            i += 2
            continue
        if c in _PUNCT1:
            emit(KIND_PUNCT, i, i + 1)
            i += 1
            continue
        raise IllegalCharacter(f"illegal character {c!r}", boff(i))

    return tokens
