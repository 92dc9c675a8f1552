"""Modified-contrast algebra and per-pixel contrast recovery."""
import numpy as np
import pytest

import oracles
from pdfisp.cie import (PoleError, chi_to_r, default_eps_reg, pixel_least_squares,
                        r_to_chi)
from pdfisp.forward import ScatteredData, apply_gd, solve_total_field
from pdfisp.losses import LossContext
from pdfisp.spectral import expand


def _random_physical_chi(rng, n):
    return rng.uniform(0.0, 9.0, n) + 1j * rng.uniform(0.0, 2.0, n)


def test_round_trip_and_contraction():
    rng = np.random.default_rng(0)
    chi = _random_physical_chi(rng, 1000)
    r = chi_to_r(chi, 6.0)
    back = r_to_chi(r, 6.0)
    assert (np.abs(back - chi) / (1.0 + np.abs(chi))).max() < 1e-13
    assert np.abs(r).max() < 1.0


def test_zero_contrast_maps_to_zero():
    assert chi_to_r(np.zeros(4), 6.0) == pytest.approx(np.zeros(4))
    assert r_to_chi(np.zeros(4), 6.0) == pytest.approx(np.zeros(4))


def test_pole_detection():
    with pytest.raises(PoleError):
        chi_to_r(np.array([-1.0 / 6.0]), 6.0)
    with pytest.raises(PoleError):
        r_to_chi(np.array([1.0]), 6.0)


def test_pixel_least_squares_recovers_consistent_contrast():
    rng = np.random.default_rng(1)
    chi = _random_physical_chi(rng, 64).reshape(8, 8)
    e = rng.standard_normal((5, 8, 8)) + 1j * rng.standard_normal((5, 8, 8))
    j = chi[None] * e
    rec = pixel_least_squares(j, e)
    assert np.abs(rec.chi - chi).max() < 1e-8
    assert not rec.degenerate.any()
    assert (rec.denominator > rec.sums.pee).all()   # a positive regularizer


def test_pixel_least_squares_degenerate_pixels_flagged():
    e = np.ones((3, 4, 4), dtype=complex)
    e[:, 2, 2] = 0.0
    j = 0.5 * e
    rec = pixel_least_squares(j, e)
    assert rec.degenerate[2, 2]
    assert rec.chi[2, 2] == 0.0
    assert not rec.degenerate[0, 0]


def test_default_regularizer_formula():
    rng = np.random.default_rng(2)
    e = rng.standard_normal((3, 6, 6)) + 1j * rng.standard_normal((3, 6, 6))
    e[:, 0, 0] = 0.0                 # a dead pixel's denominator is the regularizer alone
    power = np.einsum("nij,nij->n", np.conj(e), e).real
    assert default_eps_reg(power, 36) == pytest.approx(1e-10 * power.max() / 36.0)
    rec = pixel_least_squares(0.5 * e, e)
    assert rec.denominator[0, 0] == pytest.approx(default_eps_reg(power, 36))


def test_single_view_state_residual_vanishes(tiny_setup, tiny_sim):
    """With one view, the recovered contrast satisfies J = chi*E exactly
    (up to the floor), so the rewritten state equation must balance, in the
    explicit residual and in the loss's view-sum state term."""
    setup = tiny_setup
    rng = np.random.default_rng(4)
    alpha = rng.standard_normal((1, setup.basis.m0)) + 1j * rng.standard_normal((1, setup.basis.m0))
    e_inc = setup.e_inc.views[:1]
    j = expand(setup.basis, alpha)
    gd = oracles.dense_domain_greens(setup.config.wavenumber, setup.grid.centers,
                                     setup.grid.cell_size)
    e = e_inc + (j.reshape(1, -1) @ gd.T).reshape(j.shape)
    rec = pixel_least_squares(j, e)
    r_hat = chi_to_r(rec.chi, 6.0)
    res = oracles.state_residuals(j.reshape(1, -1), e_inc.reshape(1, -1), gd, r_hat.ravel(), 6.0)
    assert np.linalg.norm(res) / np.linalg.norm(j) < 1e-6

    ctx = LossContext(data=ScatteredData(matrix=tiny_sim.data.matrix[:1]), e_inc=e_inc,
                      maps=setup.maps, beta=6.0, lambdas=(0.0, 0.0, 0.0))
    state = ctx.term_values(r_hat, rec.sums, ctx.data_residual(alpha))[0]
    assert abs(state) * ctx.c_inc / np.linalg.norm(j) ** 2 < 1e-12


def test_state_residual_zero_for_true_solution(tiny_setup, tiny_sim):
    """Currents of the actual scattering solution satisfy the rewritten
    state equation when paired with the true modified contrast."""
    setup = tiny_setup
    chi = tiny_sim.chi_true
    e_tot = solve_total_field(chi, setup.e_inc, setup.ops)
    # exact currents, not basis-projected: the identity is algebraic
    j = chi.values[None] * e_tot.views
    r_true = chi_to_r(chi.values, setup.config.beta)
    beta = setup.config.beta
    p = setup.e_inc.views + apply_gd(setup.ops, j) + beta * j
    res = r_true * p - beta * j
    assert np.linalg.norm(res) / np.linalg.norm(setup.e_inc.views) < 1e-8

