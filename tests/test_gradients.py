"""Analytic gradients vs central finite differences (spot checks).

The acceptance suite runs the exhaustive every-entry sweep; here a random
sample of entries per tensor keeps the unit run fast while still touching
all four loss heads and every tensor name. The two-layer checks cover a
final layer pruned to the rows a loss reads, fed by a full-row layer.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from ponziscan.errors import NoTargets
from ponziscan.model.config import ModelConfig
from ponziscan.model.losses import (
    _logistic,
    add_grads,
    classification_loss_and_grads,
    mlm_loss_and_grads,
    pair_bce_loss_and_grads,
)
from ponziscan.model.params import init_params, zeros_like_params

from helpers import (
    max_relative_error,
    max_relative_error_two_scale,
    random_model_input,
)

TOL = 1e-4


def _setup(n_layers: int):
    config = ModelConfig(n_layers=n_layers, d_h=8, n_heads=2, d_ff=16,
                         code_len=8, flow_len=2, seed=3)
    params = init_params(config, vocab_size=16)
    rng = np.random.default_rng(13)
    inp = random_model_input(rng, code_len=8, flow_len=2, vocab_size=16)
    while inp.n_code < 3 or inp.n_nodes < 2:
        inp = random_model_input(rng, code_len=8, flow_len=2, vocab_size=16)
    return config, params, inp, rng


@pytest.fixture(scope="module")
def setup():
    return _setup(n_layers=1)


@pytest.fixture(scope="module")
def setup_two_layers():
    return _setup(n_layers=2)


def test_classification_gradients(setup):
    config, params, inp, rng = setup
    _, grads = classification_loss_and_grads(inp, 1, params, config)
    err = max_relative_error(
        lambda: classification_loss_and_grads(inp, 1, params, config)[0],
        grads, params, sample=6, rng=np.random.default_rng(0))
    assert err < TOL


def test_mlm_gradients(setup):
    config, params, inp, rng = setup
    targets = [(1, 5), (2, 7)]
    _, grads = mlm_loss_and_grads(inp, targets, params, config)
    err = max_relative_error(
        lambda: mlm_loss_and_grads(inp, targets, params, config)[0],
        grads, params, sample=6, rng=np.random.default_rng(1))
    assert err < TOL


def test_edge_pair_gradients(setup):
    # pair BCE is steep through the hidden dot products, so the probe uses
    # the better of two step sizes per entry (see helpers)
    config, params, inp, rng = setup
    node_base = 2 + inp.n_code
    pairs = [(node_base, node_base + 1, 1), (node_base + 1, node_base, 0)]
    _, grads = pair_bce_loss_and_grads(inp, pairs, params, config)
    err = max_relative_error_two_scale(
        lambda: pair_bce_loss_and_grads(inp, pairs, params, config)[0],
        grads, params, sample=6, rng=np.random.default_rng(2))
    assert err < TOL


def test_alignment_pair_gradients(setup):
    config, params, inp, rng = setup
    node_base = 2 + inp.n_code
    pairs = [(node_base, 1, 1), (node_base + 1, 2, 0), (node_base, 3, 0)]
    _, grads = pair_bce_loss_and_grads(inp, pairs, params, config)
    err = max_relative_error_two_scale(
        lambda: pair_bce_loss_and_grads(inp, pairs, params, config)[0],
        grads, params, sample=6, rng=np.random.default_rng(3))
    assert err < TOL


def test_mlm_gradients_two_layers(setup_two_layers):
    config, params, inp, _ = setup_two_layers
    targets = [(2, 5), (1, 7)]
    _, grads = mlm_loss_and_grads(inp, targets, params, config)
    err = max_relative_error(
        lambda: mlm_loss_and_grads(inp, targets, params, config)[0],
        grads, params, sample=6, rng=np.random.default_rng(5))
    assert err < TOL


def test_pair_gradients_two_layers(setup_two_layers):
    config, params, inp, _ = setup_two_layers
    node_base = 2 + inp.n_code
    pairs = [(node_base + 1, node_base, 1), (node_base, 1, 0), (node_base + 1, 2, 0)]
    _, grads = pair_bce_loss_and_grads(inp, pairs, params, config)
    err = max_relative_error_two_scale(
        lambda: pair_bce_loss_and_grads(inp, pairs, params, config)[0],
        grads, params, sample=6, rng=np.random.default_rng(6))
    assert err < TOL


def test_two_scale_check_catches_corrupted_gradients(setup):
    config, params, inp, _ = setup
    node_base = 2 + inp.n_code
    pairs = [(node_base, node_base + 1, 1)]
    _, grads = pair_bce_loss_and_grads(inp, pairs, params, config)
    grads["layer0.wq"] = grads["layer0.wq"] + 0.05
    err = max_relative_error_two_scale(
        lambda: pair_bce_loss_and_grads(inp, pairs, params, config)[0],
        grads, params, names=["layer0.wq"], sample=6,
        rng=np.random.default_rng(4))
    assert err > TOL


def test_empty_pair_list_gives_zero(setup):
    config, params, inp, _ = setup
    loss, grads = pair_bce_loss_and_grads(inp, [], params, config)
    assert loss == 0.0
    for g in grads.values():
        assert not g.any()


def test_empty_targets_raise(setup):
    config, params, inp, _ = setup
    with pytest.raises(NoTargets):
        mlm_loss_and_grads(inp, [], params, config)


def test_add_grads_accumulates(setup):
    config, params, inp, _ = setup
    _, g1 = classification_loss_and_grads(inp, 0, params, config)
    total = zeros_like_params(params)
    add_grads(total, g1)
    add_grads(total, g1)
    for name in g1:
        assert np.allclose(total[name], 2.0 * g1[name], atol=1e-15)


def test_gradients_flow_into_every_tensor(setup):
    """Any tensor with zero gradient on all four heads would be dead weight."""
    config, params, inp, _ = setup
    node_base = 2 + inp.n_code
    total = zeros_like_params(params)
    for loss_grads in (
        classification_loss_and_grads(inp, 1, params, config)[1],
        mlm_loss_and_grads(inp, [(1, 5)], params, config)[1],
        pair_bce_loss_and_grads(inp, [(node_base, node_base + 1, 1)],
                                params, config)[1],
    ):
        add_grads(total, loss_grads)
    for name, g in total.items():
        assert g.any(), f"no gradient reached {name}"


def test_logistic_is_total_over_finite_scores():
    """The pair loss's sigmoid raises nothing and warns nothing however
    far a score lies from 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = {z: _logistic(z) for z in (800.0, -800.0, 1e308, -1e308, -709.79, 0.0)}
    assert values[800.0] == 1.0 and values[1e308] == 1.0
    assert values[-800.0] == 0.0 and values[-1e308] == 0.0 and values[-709.79] == 0.0
    assert values[0.0] == 0.5
    for z in (-30.0, -1.5, 0.25, 2.0, 40.0):
        assert _logistic(z) == 1.0 / (1.0 + math.exp(-z))
