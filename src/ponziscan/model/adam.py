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
    """One bias-corrected update. Mutates params and state in place, each
    tensor's step formed in one scratch array, and returns them."""
    validate_same_shapes(params, grads)
    validate_same_shapes(params, state.m)
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for name in sorted(params):
        g, m, v = grads[name], state.m[name], state.v[name]
        tmp = np.multiply(g, 1.0 - BETA1)
        m *= BETA1
        m += tmp
        np.multiply(g, 1.0 - BETA2, out=tmp)
        tmp *= g
        v *= BETA2
        v += tmp
        np.sqrt(np.divide(v, bc2, out=tmp), out=tmp)
        tmp += EPS
        np.divide(m, tmp, out=tmp)
        tmp *= lr / bc1
        params[name] -= tmp
    return params, state
