"""Coefficient-correction network: forward pass, exact gradients, Adam."""
import tracemalloc

import numpy as np
import pytest

import oracles
from pdfisp import network
from pdfisp.network import (AdamState, NetworkParams, adam_step, flatten_params,
                            forward_net, grad_loss, init_network, unflatten_params)
from pdfisp.reconstruct import bp_initialize, init_alpha


@pytest.fixture(scope="module")
def tiny_alpha0(tiny_setup, tiny_sim):
    _, r0 = bp_initialize(tiny_sim.data, tiny_setup.e_inc, tiny_setup.ops,
                          tiny_setup.config.beta)
    return init_alpha(r0, tiny_sim.data, tiny_setup.e_inc, tiny_setup.ops,
                      tiny_setup.basis, tiny_setup.config.beta)


def test_init_deterministic_and_sized():
    a = init_network(36, np.random.default_rng(0))
    b = init_network(36, np.random.default_rng(0))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert a.in_dim == 72                       # real and imaginary channels
    assert a.weights[-1].shape[0] == 72
    assert a.n_params() == flatten_params(a).size


def test_zero_output_layer_gives_zero_correction(tiny_alpha0):
    params = init_network(36, np.random.default_rng(1))
    assert not params.weights[-1].any() and not params.biases[-1].any()
    delta = forward_net(params, tiny_alpha0)
    assert np.array_equal(delta, np.zeros_like(tiny_alpha0))


def test_forward_shapes_and_width_check(tiny_alpha0):
    params = init_network(36, np.random.default_rng(2))
    assert forward_net(params, tiny_alpha0).shape == tiny_alpha0.shape
    with pytest.raises(ValueError):
        forward_net(params, tiny_alpha0[:, :10])


def test_flatten_round_trip():
    params = init_network(36, np.random.default_rng(4))
    flat = flatten_params(params)
    back = unflatten_params(flat, params)
    for w1, w2 in zip(params.weights, back.weights):
        assert np.array_equal(w1, w2)
    for b1, b2 in zip(params.biases, back.biases):
        assert np.array_equal(b1, b2)
    with pytest.raises(ValueError):
        unflatten_params(flat[:-1], params)


def test_feature_scales_floor_dead_modes(tiny_alpha0):
    alpha = tiny_alpha0.copy()
    alpha[:, 0] = 0.0                            # kill one mode across views
    params = init_network(alpha.shape[1], np.random.default_rng(5))
    flat = flatten_params(params)
    flat += 0.05 * np.random.default_rng(5).standard_normal(flat.size)
    delta = forward_net(unflatten_params(flat, params), alpha)
    assert np.isfinite(delta).all()


def _check_weight_gradient(ctx, alpha0, seed):
    """Parameter gradient of grad_loss against central differences."""
    rng = np.random.default_rng(seed)
    params = init_network(alpha0.shape[1], rng)
    flat = flatten_params(params)
    flat = flat + 0.05 * rng.standard_normal(flat.size)
    params = unflatten_params(flat, params)

    g, state = grad_loss(params, alpha0, ctx)
    assert np.isfinite(state.breakdown.total)

    from pdfisp.losses import loss_total

    def f(v):
        p = unflatten_params(v, params)
        return loss_total(alpha0 + forward_net(p, alpha0), ctx).total

    idx = np.random.default_rng(seed + 1).choice(flat.size, size=12, replace=False)
    fd = oracles.central_diff(f, flat, idx, h=1e-5)
    rel = np.abs(fd - g[idx]) / np.maximum(np.abs(fd), 1e-12)
    assert rel.max() < 1e-5
    return params


def test_gradient_matches_finite_differences(tiny_setup, tiny_sim, tiny_alpha0):
    ctx = tiny_setup.loss_context(tiny_sim.data)
    _check_weight_gradient(ctx, tiny_alpha0, 6)


def test_gradient_past_the_pole_matches_finite_differences(tiny_ctx, pole_alpha):
    """Network iterate whose contrast crosses -1/beta: finite loss, |R| < 1
    on the physical branch, exact weight gradient through the clamp."""
    from pdfisp.losses import pipeline_forward

    params = _check_weight_gradient(tiny_ctx, pole_alpha, 12)
    state = pipeline_forward(pole_alpha + forward_net(params, pole_alpha), tiny_ctx)
    assert (state.rec.chi.real < -1.0 / tiny_ctx.beta).sum() >= 10
    assert np.abs(state.r_hat).max() < 1.0


def test_nonfinite_gradient_raises(tiny_setup, tiny_sim, tiny_alpha0):
    ctx = tiny_setup.loss_context(tiny_sim.data)
    params = init_network(tiny_alpha0.shape[1], np.random.default_rng(8))
    bad = [w.copy() for w in params.weights]
    bad[0][0, 0] = np.nan
    params = NetworkParams(weights=bad, biases=[b.copy() for b in params.biases])
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
        grad_loss(params, tiny_alpha0, ctx)


# ----------------------------------------------------------------------
# Optimizer


def test_adam_matches_reference_sequence():
    rng = np.random.default_rng(9)
    params = init_network(16, rng)
    state = AdamState.for_params(params, lr=1e-2)
    flat0 = flatten_params(params)
    grads = [rng.standard_normal(flat0.size) for _ in range(5)]

    p = params
    for g in grads:
        p, state = adam_step(state, p, g)
    want = oracles.adam_sequence(flat0, grads, lr=1e-2)
    assert np.abs(flatten_params(p) - want).max() < 1e-14
    assert state.step == 5


def test_adam_state_shapes():
    params = init_network(16, np.random.default_rng(10))
    state = AdamState.for_params(params, lr=3e-3)
    assert state.lr == 3e-3
    assert state.m.shape == state.v.shape == (params.n_params(),)
    assert not state.m.any() and not state.v.any()


def test_adam_matches_reference_across_blocks():
    """120 600 parameters: three full blocks and a 22 296-element tail."""
    rng = np.random.default_rng(11)
    params = init_network(100, rng)
    assert params.n_params() // network.ADAM_BLOCK == 3
    assert params.n_params() % network.ADAM_BLOCK == 22296
    state = AdamState.for_params(params, lr=1e-2)
    flat0 = flatten_params(params)
    grads = [rng.standard_normal(flat0.size) for _ in range(5)]
    for g in grads:
        before = flatten_params(params)
        params, state = adam_step(state, params, g)
    want = oracles.adam_sequence(flat0, grads, lr=1e-2)
    assert np.abs(params.flat - want).max() < 1e-14
    assert state.update_norm == pytest.approx(np.linalg.norm(params.flat - before), rel=1e-12)
    assert state.grad_norm == pytest.approx(np.linalg.norm(grads[-1]), rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_step_leaves_weights_untouched(bad):
    rng = np.random.default_rng(12)
    params = init_network(64, rng)
    state = AdamState.for_params(params)
    params, state = adam_step(state, params, rng.standard_normal(params.n_params()))
    before = params.flat.tobytes()
    g = rng.standard_normal(params.n_params())
    g[-1] = bad                                   # in the tail block
    with pytest.raises(FloatingPointError):
        adam_step(state, params, g)
    assert params.flat.tobytes() == before
    assert state.step == 1
    # the moments took the bad value, so the state cannot step again
    assert not np.isfinite(state.m[-1]) and not np.isfinite(state.v[-1])
    with pytest.raises(FloatingPointError):
        adam_step(state, params, rng.standard_normal(params.n_params()))
    assert params.flat.tobytes() == before


def test_adam_work_buffer_allocated_once():
    rng = np.random.default_rng(13)
    params = init_network(64, rng)
    state = AdamState.for_params(params)
    work = state.work
    grads = [rng.standard_normal(params.n_params()) for _ in range(3)]
    tracemalloc.start()
    try:
        for g in grads:
            params, state = adam_step(state, params, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.work is work
    assert peak < params.flat.nbytes // 8          # no parameter-sized temporary
