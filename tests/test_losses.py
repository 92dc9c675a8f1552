"""Loss terms, their contrast-space gradients, and the coefficient pipeline."""
import dataclasses

import numpy as np
import pytest

import oracles
from pdfisp.forward import ScatteredData
from pdfisp.losses import (ZeroDataError, bound_term, bridge_term, loss_total,
                           pipeline_backward, pipeline_forward, tv_term)


def _rand_chi(rng, m=8):
    return (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))


# ----------------------------------------------------------------------
# Term values against direct summation


def test_bound_term_value():
    rng = np.random.default_rng(0)
    chi = _rand_chi(rng)
    want = sum(min(v, 0.0) ** 2 for v in chi.real.ravel())
    assert bound_term(chi)[0] == pytest.approx(want, rel=1e-12)


def test_tv_term_value():
    rng = np.random.default_rng(1)
    chi = _rand_chi(rng)
    eps_tv = 1e-12
    total = 0.0
    m, n = chi.shape
    for i in range(m):
        for j in range(n):
            dx = chi[i, j + 1] - chi[i, j] if j + 1 < n else 0.0
            dy = chi[i + 1, j] - chi[i, j] if i + 1 < m else 0.0
            total += np.sqrt(abs(dx) ** 2 + abs(dy) ** 2 + eps_tv)
    assert tv_term(chi, eps_tv)[0] == pytest.approx(total, rel=1e-12)


def test_bridge_term_value():
    rng = np.random.default_rng(2)
    # unequal sides so rows and columns scale apart; tau keeps the
    # flatness factors of these O(1) random differences away from zero
    chi = _rand_chi(rng)[:, :6]
    tau = 2.0
    m_f = 2
    a = np.abs(chi)
    m, n = chi.shape
    ly, lx = m / (2 * m_f), n / (2 * m_f)    # shortest basis half-period, cells
    total = 0.0
    for i in range(m):
        for j in range(n):
            gx = a[i, j + 1] - a[i, j] if j + 1 < n else 0.0
            gy = a[i + 1, j] - a[i, j] if i + 1 < m else 0.0
            sig = 1.0 / (1.0 + np.exp(-(a[i, j] - tau) / tau))
            total += sig * np.exp(-((lx * gx) ** 2 + (ly * gy) ** 2) / tau ** 2)
    assert bridge_term(chi, tau, m_f)[0] == pytest.approx(total, rel=1e-12)


# ----------------------------------------------------------------------
# Contrast-space gradients by central differences
# (convention g = dL/dRe + i*dL/dIm per pixel)


def _fd_chi_grad(term, chi, h=1e-6):
    """Central differences of the value `term(chi)[0]`."""
    g = np.zeros_like(chi)
    it = np.nditer(np.zeros(chi.shape), flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        for part, unit in ((0, 1.0), (1, 1.0j)):
            cp = chi.copy()
            cm = chi.copy()
            cp[idx] += h * unit
            cm[idx] -= h * unit
            d = (term(cp)[0] - term(cm)[0]) / (2.0 * h)
            g[idx] += d if part == 0 else 1j * d
    return g


def test_bound_gradient():
    rng = np.random.default_rng(3)
    chi = _rand_chi(rng, 5)
    got = bound_term(chi)[1]
    want = _fd_chi_grad(bound_term, chi)
    assert np.abs(got - want).max() < 1e-6


def test_tv_gradient():
    rng = np.random.default_rng(4)
    chi = _rand_chi(rng, 5)
    got = tv_term(chi, 1e-6)[1]
    want = _fd_chi_grad(lambda c: tv_term(c, 1e-6), chi, h=1e-7)
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-5


def test_bridge_gradient():
    rng = np.random.default_rng(5)
    chi = _rand_chi(rng, 5)[:, :4] + 0.3    # keep |chi| away from the modulus kink at 0
    got = bridge_term(chi, 2.0, 1)[1]
    want = _fd_chi_grad(lambda c: bridge_term(c, 2.0, 1), chi)
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-5


# ----------------------------------------------------------------------
# Normalized data / state terms


def _dense_terms(setup, alpha, r_hat, data, homogeneous=False):
    """`oracles.loss_residual_terms` at coefficients alpha: currents by direct
    inverse DFT of the corner blocks, dense Green's operators."""
    n, (m1, m2) = alpha.shape[0], (setup.basis.m1, setup.basis.m2)
    spec = np.zeros((n, m1, m2), dtype=complex)
    rows, cols = oracles.corner_indices(m1, m2, setup.basis.m_f)
    spec[:, rows, cols] = alpha
    j = np.stack([oracles.idft2_direct(s) for s in spec]).reshape(n, -1)
    k0, centers, cs = setup.config.wavenumber, setup.grid.centers, setup.grid.cell_size
    return oracles.loss_residual_terms(
        j, setup.e_inc.views.reshape(n, -1), oracles.dense_domain_greens(k0, centers, cs),
        oracles.dense_measurement_greens(k0, centers, cs, setup.array.rx_positions),
        np.ravel(r_hat), setup.config.beta, data.matrix, data.mask, homogeneous=homogeneous)


def _frozen_objective(setup, data, r0):
    """The fixed-R objective (`reconstruct.CsiObjective`) of `data` at R = r0."""
    from pdfisp.reconstruct import CsiObjective

    return CsiObjective(r0=r0, e_inc=setup.e_inc.views, data=data, ops=setup.ops,
                        basis=setup.basis, beta=setup.config.beta, maps=setup.maps)


def test_data_term_with_mask(tiny_setup, tiny_sim):
    """State and data terms at a fixed R against dense matrices, with
    half the receivers unmeasured and garbage in their entries."""
    setup = tiny_setup
    rng = np.random.default_rng(6)
    n, m0 = setup.config.n_tx, setup.basis.m0
    mask = np.zeros(tiny_sim.data.matrix.shape)
    mask[:, ::2] = 1.0
    data = ScatteredData(matrix=np.where(mask > 0, tiny_sim.data.matrix, 1e3), mask=mask)
    r_hat = 0.5 * (rng.uniform(size=(16, 16)) + 1j * rng.uniform(size=(16, 16)))
    obj = _frozen_objective(setup, data, r_hat)
    alpha = 0.1 * (rng.standard_normal((n, m0)) + 1j * rng.standard_normal((n, m0)))
    got_state, got_data = obj.value_parts(alpha)
    state, data_term = _dense_terms(setup, alpha, r_hat, data)
    assert got_state == pytest.approx(state, rel=1e-10)
    assert got_data == pytest.approx(data_term, rel=1e-10)


@pytest.mark.parametrize("case", ["free", "pole", "frozen", "curvature"])
def test_terms_match_dense_residuals(case, tiny_setup, tiny_sim, tiny_ctx, pole_alpha):
    """The state term from per-pixel view sums and the data term equal the
    powers of the explicit dense residuals: with R from the iterate, past the
    pole (pixels on the clamped branch), and in the frozen-contrast objective
    with R fixed, as its value and as its curvature (homogeneous part)."""
    from pdfisp.reconstruct import bp_initialize

    setup = tiny_setup
    rng = np.random.default_rng(9)
    n, m0 = setup.config.n_tx, setup.basis.m0
    alpha = 0.1 * (rng.standard_normal((n, m0)) + 1j * rng.standard_normal((n, m0)))
    _, r0 = bp_initialize(tiny_sim.data, setup.e_inc, setup.ops, setup.config.beta)
    if case in ("frozen", "curvature"):
        obj = _frozen_objective(setup, tiny_sim.data, r0)
        if case == "curvature":
            want = _dense_terms(setup, alpha, r0, tiny_sim.data, homogeneous=True)
            assert obj.curvature(alpha) == pytest.approx(sum(want), rel=1e-12)
        else:
            want = _dense_terms(setup, alpha, r0, tiny_sim.data)
            assert obj.value_parts(alpha) == pytest.approx(want, rel=1e-12)
        return
    if case == "pole":
        alpha = pole_alpha
    state = pipeline_forward(alpha, tiny_ctx)
    if case == "pole":
        assert (state.rec.chi.real < 0.0).sum() >= 10
    want = _dense_terms(setup, alpha, state.r_hat, tiny_sim.data)
    assert state.breakdown.state == pytest.approx(want[0], rel=1e-12)
    assert state.breakdown.data == pytest.approx(want[1], rel=1e-12)


def test_zero_data_power_rejected(tiny_setup):
    data = ScatteredData(matrix=np.zeros((8, 8), dtype=complex))
    with pytest.raises(ZeroDataError):
        tiny_setup.loss_context(data)


def test_view_count_mismatch_rejected(tiny_setup, tiny_sim):
    data = ScatteredData(matrix=tiny_sim.data.matrix[:5])
    with pytest.raises(ValueError, match="data has 5 rows, incident fields have 8"):
        tiny_setup.loss_context(data)


def test_state_term_zero_for_zero_modified_contrast(tiny_setup, tiny_sim):
    r_hat = np.zeros((16, 16), dtype=complex)
    obj = _frozen_objective(tiny_setup, tiny_sim.data, r_hat)
    zero = np.zeros((8, tiny_setup.basis.m0), dtype=complex)
    assert obj.value_parts(zero)[0] == 0.0
    assert _dense_terms(tiny_setup, zero, r_hat, tiny_sim.data)[0] == 0.0


# ----------------------------------------------------------------------
# Composite pipeline gradient with respect to the coefficients


def _check_alpha_gradient(ctx, alpha, rng, n_idx):
    """Analytic coefficient gradient against central differences."""
    n, m0 = alpha.shape
    state = pipeline_forward(alpha, ctx)
    g = pipeline_backward(state, ctx)
    assert g.shape == alpha.shape
    assert np.isfinite(state.breakdown.total)

    flat = np.concatenate([alpha.real.ravel(), alpha.imag.ravel()])

    def f(v):
        half = v.size // 2
        a = (v[:half] + 1j * v[half:]).reshape(n, m0)
        return loss_total(a, ctx).total

    idx = rng.choice(flat.size, size=n_idx, replace=False)
    fd = oracles.central_diff(f, flat, idx, h=1e-6)
    gflat = np.concatenate([g.real.ravel(), g.imag.ravel()])
    rel = np.abs(fd - gflat[idx]) / np.maximum(np.abs(fd), 1e-9)
    assert rel.max() < 1e-5


def test_pipeline_gradient_matches_finite_differences(tiny_ctx):
    rng = np.random.default_rng(7)
    n = tiny_ctx.e_inc.shape[0]
    m0 = tiny_ctx.basis.m0
    alpha = 0.1 * (rng.standard_normal((n, m0)) + 1j * rng.standard_normal((n, m0)))
    _check_alpha_gradient(tiny_ctx, alpha, rng, 24)


def test_pipeline_gradient_with_weighty_penalties(tiny_ctx):
    """At the default weights the penalties make under 0.05% of the loss
    here, so the check above hardly sees their gradients; at these weights
    bound, TV and bridge each make at least a tenth of state + data."""
    ctx = dataclasses.replace(tiny_ctx, lambdas=(1.0, 0.02, 0.005))
    rng = np.random.default_rng(7)
    n, m0 = ctx.e_inc.shape[0], ctx.basis.m0
    alpha = 0.1 * (rng.standard_normal((n, m0)) + 1j * rng.standard_normal((n, m0)))
    bd = loss_total(alpha, ctx)
    shares = np.multiply(ctx.lambdas, (bd.bound, bd.tv, bd.bridge)) / (bd.state + bd.data)
    assert shares.min() >= 0.1, shares
    _check_alpha_gradient(ctx, alpha, rng, 24)


def test_pipeline_past_the_pole_stays_on_physical_branch(tiny_ctx, pole_alpha):
    """Least-squares contrast below -1/beta: the modified contrast is taken
    on the physical branch, so the loss stays finite with |R| < 1, and the
    gradient through the clamp still matches central differences."""
    state = pipeline_forward(pole_alpha, tiny_ctx)
    assert (state.rec.chi.real < -1.0 / tiny_ctx.beta).sum() >= 10
    assert np.isfinite(state.breakdown.total)
    assert np.abs(state.r_hat).max() < 1.0
    _check_alpha_gradient(tiny_ctx, pole_alpha, np.random.default_rng(11), 24)


# ----------------------------------------------------------------------
# The loss at the truth's projection (a yardstick; it reads chi_true)


@pytest.mark.slow
@pytest.mark.parametrize("eps, rel, state_loss", [(2.0, 0.1167, 0.06687), (5.0, 0.2157, 1.4712)])
def test_truncated_truth_probe(eps, rel, state_loss, default_config, austria2_sim):
    """The true currents chi_true*E truncated to m_f modes, through the loss
    pipeline on the default austria scene: the contrast they recover and
    their state term. Neither depends on the data (only the data term does),
    so the eps 2 data serve both. At eps 5 the state term is far from
    cancellation in its view-sum form."""
    from pdfisp.reconstruct import Problem, relative_error
    from pdfisp.scenes import builtin_scene, rasterize

    scene = builtin_scene("austria", eps)
    problem = Problem.build(default_config)
    state = pipeline_forward(oracles.truncated_truth_coefficients(default_config, scene),
                             problem.loss_context(austria2_sim.data))
    chi_true = rasterize(scene, problem.grid).values
    assert relative_error(state.rec.chi.real + 1.0, chi_true.real + 1.0) == pytest.approx(
        rel, abs=5e-5)
    assert state.breakdown.state == pytest.approx(state_loss, rel=1e-4)
