"""Adam optimizer over flat parameter dicts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ponziscan.model.params import Params, validate_same_shapes, zeros_like_params

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
DEFAULT_LR = 2e-5


@dataclass
class AdamState:
    m: Params
    v: Params
    t: int = 0

    @classmethod
    def for_params(cls, params: Params) -> "AdamState":
        return cls(m=zeros_like_params(params), v=zeros_like_params(params), t=0)


def adam_step(params: Params, grads: Params, state: AdamState,
              lr: float = DEFAULT_LR) -> tuple[Params, AdamState]:
    """One bias-corrected update. Mutates params and state in place and
    returns them."""
    validate_same_shapes(params, grads)
    validate_same_shapes(params, state.m)
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for name in sorted(params):
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        params[name] -= lr * m_hat / (np.sqrt(v_hat) + EPS)
    return params, state
