"""Low-frequency spectral basis: truncation, expansion, adjoint scaling."""
import numpy as np
import pytest

import oracles
from pdfisp.spectral import (SpectralBasis, SpectralOperators, expand, truncate,
                             truncate_adjoint_scale)


def test_basis_validation():
    SpectralBasis(16, 16, 8)
    with pytest.raises(ValueError):
        SpectralBasis(16, 16, 9)      # corner blocks would overlap
    with pytest.raises(ValueError):
        SpectralBasis(16, 16, 0)


def test_coefficient_count():
    basis = SpectralBasis(16, 12, 3)
    assert basis.m0 == 36 == len(oracles.corner_indices(16, 12, 3)[0])
    assert basis.row_factor.shape == (16, 6) and basis.col_factor.shape == (12, 6)
    assert truncate(basis, np.zeros((2, 16, 12))).shape == (2, 36)
    assert expand(basis, np.zeros(36)).shape == (16, 12)


def test_truncate_picks_corner_spectrum():
    rng = np.random.default_rng(0)
    basis = SpectralBasis(10, 8, 3)
    img = rng.standard_normal((10, 8)) + 1j * rng.standard_normal((10, 8))
    spec = oracles.dft2_direct(img)
    # in coefficient order: the network's weights depend on it
    want = spec[oracles.corner_indices(10, 8, 3)]
    assert np.abs(truncate(basis, img) - want).max() < 1e-10


def test_expand_then_truncate_round_trip():
    rng = np.random.default_rng(1)
    basis = SpectralBasis(16, 16, 4)
    alpha = rng.standard_normal((5, basis.m0)) + 1j * rng.standard_normal((5, basis.m0))
    back = truncate(basis, expand(basis, alpha))
    assert np.abs(back - alpha).max() < 1e-12


def test_expansion_matches_corner_limited_inverse_dft():
    rng = np.random.default_rng(2)
    basis = SpectralBasis(12, 10, 3)
    img = rng.standard_normal((12, 10)) + 1j * rng.standard_normal((12, 10))
    low = expand(basis, truncate(basis, img))
    spec = oracles.dft2_direct(img)
    spec[~oracles.corner_mask(12, 10, 3)] = 0.0
    assert np.abs(low - oracles.idft2_direct(spec)).max() < 1e-10


def test_projection_idempotent():
    rng = np.random.default_rng(3)
    basis = SpectralBasis(16, 16, 5)
    img = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    once = expand(basis, truncate(basis, img))
    twice = expand(basis, truncate(basis, once))
    assert np.abs(twice - once).max() < 1e-12


def test_adjoint_scale_identity():
    rng = np.random.default_rng(4)
    basis = SpectralBasis(14, 14, 4)
    alpha = rng.standard_normal(basis.m0) + 1j * rng.standard_normal(basis.m0)
    x = rng.standard_normal((14, 14)) + 1j * rng.standard_normal((14, 14))
    lhs = np.vdot(x, expand(basis, alpha))
    rhs = truncate_adjoint_scale(basis) * np.vdot(truncate(basis, x), alpha)
    assert abs(lhs - rhs) / abs(lhs) < 1e-12
    assert truncate_adjoint_scale(basis) == pytest.approx(1.0 / (14 * 14))


def test_shape_errors(tiny_setup):
    basis = SpectralBasis(8, 8, 2)
    with pytest.raises(ValueError):
        truncate(basis, np.zeros((8, 9), dtype=complex))
    with pytest.raises(ValueError):
        expand(basis, np.zeros(basis.m0 + 1, dtype=complex))
    with pytest.raises(ValueError, match="on a 16x16 grid and spectral basis on a 8x8 grid"):
        SpectralOperators.build(tiny_setup.ops, basis)


def _rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def test_precomputed_maps_match_fft_operators(tiny_setup):
    """The dense coefficient-space maps reproduce G_D and G_S of the
    expanded currents, and their pull-back reproduces the FFT adjoints, to
    rounding."""
    from pdfisp.forward import apply_gd, apply_gs_adjoint, dense_gd_matrix
    from pdfisp.spectral import SpectralOperators

    basis, ops = tiny_setup.basis, tiny_setup.ops
    maps = SpectralOperators.build(ops, basis)
    rng = np.random.default_rng(5)
    n, m1, m2 = 8, basis.m1, basis.m2
    alpha = rng.standard_normal((n, basis.m0)) + 1j * rng.standard_normal((n, basis.m0))
    j = expand(basis, alpha)
    assert _rel(maps.scattered_field(alpha), apply_gd(ops, j)) <= 1e-12
    assert _rel(maps.measure(alpha), j.reshape(n, -1) @ ops.gs_matrix.T) <= 1e-12

    g_img = rng.standard_normal((n, m1, m2)) + 1j * rng.standard_normal((n, m1, m2))
    n_rx = ops.gs_matrix.shape[0]
    g_rows = rng.standard_normal((n, n_rx)) + 1j * rng.standard_normal((n, n_rx))
    zero_img, zero_rows = np.zeros_like(g_img), np.zeros_like(g_rows)
    scale = truncate_adjoint_scale(basis)
    pull_j = scale * truncate(basis, g_img)
    gd_adjoint = np.conj(dense_gd_matrix(ops)).T
    pull_e = scale * truncate(basis, (g_img.reshape(n, -1) @ gd_adjoint.T).reshape(n, m1, m2))
    pull_rows = scale * truncate(basis, apply_gs_adjoint(ops, g_rows))
    assert _rel(maps.coefficient_grad(g_img, zero_img, zero_rows), pull_j) <= 1e-12
    assert _rel(maps.coefficient_grad(zero_img, g_img, zero_rows), pull_e) <= 1e-12
    assert _rel(maps.coefficient_grad(zero_img, zero_img, g_rows), pull_rows) <= 1e-12
    assert _rel(maps.coefficient_grad(g_img, g_img, g_rows),
                pull_j + pull_e + pull_rows) <= 1e-12
