"""Adam update: closed-form first step, scale-invariant limit, state rules."""

from __future__ import annotations

import numpy as np
import pytest

from ponziscan.errors import ShapeMismatch
from ponziscan.model.adam import BETA1, BETA2, EPS, AdamState, adam_step


def small_params():
    return {"w": np.array([1.0, -2.0, 0.5]), "b": np.array([[0.1, 0.2]])}


def zeros_like(params):
    return {k: np.zeros_like(v) for k, v in params.items()}


def test_zero_gradients_leave_params_unchanged():
    params = small_params()
    before = {k: v.copy() for k, v in params.items()}
    state = AdamState.for_params(params)
    for _ in range(5):
        adam_step(params, zeros_like(params), state, lr=0.1)
    for name in params:
        assert np.array_equal(params[name], before[name])
    assert state.t == 5


def test_first_step_closed_form():
    """After one step from zero state, m_hat = g and v_hat = g*g, so the
    update is exactly -lr * g / (|g| + eps)."""
    params = small_params()
    before = {k: v.copy() for k, v in params.items()}
    grads = {"w": np.array([0.3, -0.7, 0.0]), "b": np.array([[1.5, -0.01]])}
    lr = 0.05
    adam_step(params, grads, AdamState.for_params(params), lr=lr)
    for name in params:
        g = grads[name]
        want = before[name] - lr * g / (np.abs(g) + EPS)
        assert np.allclose(params[name], want, atol=1e-15)


def test_constant_gradient_step_magnitude_approaches_lr():
    """With a constant gradient g, m_hat -> g and v_hat -> g*g, so the step
    size tends to lr * |g| / (|g| + eps): effectively lr at any scale where
    |g| dwarfs the stabilizer."""
    lr = 0.01
    for scale in (1e-6, 1.0, 1e6):
        params = {"w": np.array([0.0])}
        grads = {"w": np.array([scale])}
        state = AdamState.for_params(params)
        prev = params["w"].copy()
        for _ in range(400):
            prev = params["w"].copy()
            adam_step(params, grads, state, lr=lr)
        step = abs(float(params["w"][0] - prev[0]))
        assert step == pytest.approx(lr * scale / (scale + EPS), rel=1e-6)
    assert lr * 1.0 / (1.0 + EPS) == pytest.approx(lr, rel=1e-7)


def test_moment_accumulators_follow_definitions():
    params = small_params()
    state = AdamState.for_params(params)
    g1 = {"w": np.array([1.0, 0.0, -1.0]), "b": np.array([[0.5, 0.5]])}
    g2 = {"w": np.array([0.0, 2.0, 0.0]), "b": np.array([[0.0, -0.5]])}
    adam_step(params, g1, state, lr=0.1)
    adam_step(params, g2, state, lr=0.1)
    for name in params:
        want_m = (1 - BETA1) * (BETA1 * g1[name] + g2[name])
        want_v = (1 - BETA2) * (BETA2 * g1[name] ** 2 + g2[name] ** 2)
        assert np.allclose(state.m[name], want_m, atol=1e-15)
        assert np.allclose(state.v[name], want_v, atol=1e-15)


def test_shape_mismatch_rejected():
    params = small_params()
    bad = {"w": np.zeros(4), "b": np.zeros((1, 2))}
    with pytest.raises(ShapeMismatch):
        adam_step(params, bad, AdamState.for_params(params))
    missing = {"w": np.zeros(3)}
    with pytest.raises(ShapeMismatch):
        adam_step(params, missing, AdamState.for_params(params))


def test_update_is_in_place():
    params = small_params()
    grads = {"w": np.ones(3), "b": np.ones((1, 2))}
    state = AdamState.for_params(params)
    out_params, out_state = adam_step(params, grads, state)
    assert out_params is params
    assert out_state is state
