"""Parameter tensors, kept as a flat name->array dict.

Flat naming keeps the optimizer, checkpoint format, and finite-difference
checks generic over every tensor. All tensors are float64.
"""

from __future__ import annotations

import numpy as np

from ponziscan.errors import NonFiniteActivation, ShapeMismatch
from ponziscan.model.config import ModelConfig

INIT_STD = 0.02

Params = dict[str, np.ndarray]


def param_shapes(config: ModelConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    d_h, d_ff = config.d_h, config.d_ff
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (vocab_size, d_h),
        "pos_emb": (config.n_positions, d_h),
        "cls_w": (d_h, 2),
    }
    for i in range(config.n_layers):
        p = f"layer{i}."
        shapes[p + "wq"] = (d_h, d_h)
        shapes[p + "wk"] = (d_h, d_h)
        shapes[p + "wv"] = (d_h, d_h)
        shapes[p + "wo"] = (d_h, d_h)
        shapes[p + "ffn_w1"] = (d_h, d_ff)
        shapes[p + "ffn_b1"] = (d_ff,)
        shapes[p + "ffn_w2"] = (d_ff, d_h)
        shapes[p + "ffn_b2"] = (d_h,)
        shapes[p + "ln1_g"] = (d_h,)
        shapes[p + "ln1_b"] = (d_h,)
        shapes[p + "ln2_g"] = (d_h,)
        shapes[p + "ln2_b"] = (d_h,)
    return shapes


def init_params(config: ModelConfig, vocab_size: int,
                rng: np.random.Generator | None = None) -> Params:
    """normal(0, 0.02) weights, zero biases, unit layer-norm gains.
    Draw order is fixed by sorted tensor names, so a given seed always
    produces the same parameters."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    params: Params = {}
    for name, shape in sorted(param_shapes(config, vocab_size).items()):
        base = name.rsplit(".", 1)[-1]
        if base.endswith("_b") or base.startswith("ffn_b"):
            params[name] = np.zeros(shape, dtype=np.float64)
        elif base.endswith("_g"):
            params[name] = np.ones(shape, dtype=np.float64)
        else:
            params[name] = rng.normal(0.0, INIT_STD, size=shape).astype(np.float64)
    return params


def zeros_like_params(params: Params) -> Params:
    return {name: np.zeros_like(arr) for name, arr in params.items()}


def validate_same_shapes(params: Params, other: Params) -> None:
    if params.keys() != other.keys():
        missing = params.keys() ^ other.keys()
        raise ShapeMismatch(f"tensor name sets differ: {sorted(missing)}")
    for name, arr in params.items():
        if arr.shape != other[name].shape:
            raise ShapeMismatch(
                f"{name}: {arr.shape} vs {other[name].shape}")


def check_finite(tensors: Params, error: type[Exception] = NonFiniteActivation) -> None:
    for name, arr in tensors.items():
        if not np.isfinite(arr).all():
            raise error(f"non-finite values in {name}")
