"""Analytic gradients vs central finite differences (spot checks).

The acceptance suite runs the exhaustive every-entry sweep; here a random
sample of entries per tensor keeps the unit run fast while still touching
all four loss heads and every tensor name.
"""

from __future__ import annotations

import numpy as np
import pytest

from ponziscan.errors import NoTargets
from ponziscan.model.config import ModelConfig
from ponziscan.model.losses import (
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


@pytest.fixture(scope="module")
def setup():
    config = ModelConfig(n_layers=1, d_h=8, n_heads=2, d_ff=16,
                         code_len=8, flow_len=2, seed=3)
    params = init_params(config, vocab_size=16)
    rng = np.random.default_rng(13)
    inp = random_model_input(rng, code_len=8, flow_len=2, vocab_size=16)
    while inp.n_code < 3 or inp.n_nodes < 2:
        inp = random_model_input(rng, code_len=8, flow_len=2, vocab_size=16)
    return config, params, inp, rng


def test_classification_gradients(setup):
    config, params, inp, rng = setup
    batch = [(inp, 1)]
    _, grads = classification_loss_and_grads(batch, params, config)
    err = max_relative_error(
        lambda: classification_loss_and_grads(batch, params, config)[0],
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


def test_batch_mean_scaling(setup):
    config, params, inp, _ = setup
    loss1, grads1 = classification_loss_and_grads([(inp, 1)], params, config)
    loss2, grads2 = classification_loss_and_grads([(inp, 1), (inp, 1)],
                                                  params, config)
    assert loss2 == pytest.approx(loss1, abs=1e-12)
    for name in grads1:
        assert np.allclose(grads1[name], grads2[name], atol=1e-12)


def test_empty_pair_list_gives_zero(setup):
    config, params, inp, _ = setup
    loss, grads = pair_bce_loss_and_grads(inp, [], params, config)
    assert loss == 0.0
    for g in grads.values():
        assert not g.any()


def test_empty_targets_raise(setup):
    config, params, inp, _ = setup
    with pytest.raises(NoTargets):
        classification_loss_and_grads([], params, config)
    with pytest.raises(NoTargets):
        mlm_loss_and_grads(inp, [], params, config)


def test_add_grads_accumulates(setup):
    config, params, inp, _ = setup
    _, g1 = classification_loss_and_grads([(inp, 0)], params, config)
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
        classification_loss_and_grads([(inp, 1)], params, config)[1],
        mlm_loss_and_grads(inp, [(1, 5)], params, config)[1],
        pair_bce_loss_and_grads(inp, [(node_base, node_base + 1, 1)],
                                params, config)[1],
    ):
        add_grads(total, loss_grads)
    for name, g in total.items():
        assert g.any(), f"no gradient reached {name}"
