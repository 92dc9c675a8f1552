"""Windowed means, the guided filter, and post-loop contrast compensation."""
import numpy as np
import pytest

import oracles
from pdfisp.filters import apply_cco, box_mean, guided_filter


def test_box_mean_matches_direct_loops():
    rng = np.random.default_rng(0)
    for shape, radius in [((7, 9), 1), ((12, 5), 2), ((6, 6), 4)]:
        img = rng.standard_normal(shape)
        got = box_mean(img, radius)
        want = oracles.box_mean_direct(img, radius)
        assert np.abs(got - want).max() < 1e-12, (shape, radius)


def test_box_mean_constant_preserved():
    img = np.full((9, 9), 3.5)
    assert np.abs(box_mean(img, 3) - 3.5).max() < 1e-12


def test_box_mean_input_validation():
    with pytest.raises(ValueError):
        box_mean(np.zeros((4, 4)), 0)
    with pytest.raises(ValueError):
        box_mean(np.zeros(16), 1)


def test_guided_filter_matches_direct_loops():
    rng = np.random.default_rng(1)
    inp = rng.standard_normal((10, 11))
    guide = rng.standard_normal((10, 11))
    got = guided_filter(inp, guide, 2, 1e-3)
    want = oracles.guided_filter_direct(inp, guide, 2, 1e-3)
    assert np.abs(got - want).max() < 1e-12


def test_guided_filter_reproduces_smooth_guide():
    # with tiny eps and input == guide the filter is near-identity
    rng = np.random.default_rng(2)
    img = rng.standard_normal((16, 16)).cumsum(axis=0).cumsum(axis=1) / 50.0
    out = guided_filter(img, img, 2, 1e-8)
    assert np.abs(out - img).max() < 1e-3


def test_guided_filter_large_eps_tends_to_double_box_mean():
    # as eps grows, a -> 0 and b -> window mean, so the output approaches
    # the box mean applied twice
    rng = np.random.default_rng(3)
    img = rng.standard_normal((12, 12))
    out = guided_filter(img, img, 2, 1e9)
    want = oracles.box_mean_direct(oracles.box_mean_direct(img, 2), 2)
    assert np.abs(out - want).max() < 1e-6


def test_cco_inactive_below_threshold():
    rng = np.random.default_rng(4)
    chi = 0.05 * (rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
    out = apply_cco(chi)
    # far below tau the gain collapses: output is just the self-guided smooth
    gf = (guided_filter(chi.real, chi.real, 2, 1e-3)
          + 1j * guided_filter(chi.imag, chi.imag, 2, 1e-3))
    assert np.abs(out - gf).max() < 1e-3


def test_cco_amplifies_bright_plateau():
    chi = np.zeros((16, 16), dtype=complex)
    chi[4:12, 4:12] = 7.0
    out = apply_cco(chi)
    # plateau interior: guided filter is identity-like, eta saturates at eta_max
    inner = out[7:9, 7:9].real
    assert np.all(inner > 7.0 * 1.15)
    assert np.all(inner < 7.0 * (1.0 + 2 * 0.1) + 1e-6)


def test_cco_preserves_shape_and_dtype():
    chi = np.zeros((8, 8), dtype=complex)
    out = apply_cco(chi)
    assert out.shape == (8, 8) and out.dtype == np.complex128
    assert np.abs(out).max() == 0.0
