"""Grid layout, antenna rings, and the validated complex image container."""
import numpy as np
import pytest

from pdfisp.config import ImagingConfig
from pdfisp.geometry import ComplexGrid, build_array, build_grid, perturb_array


def test_grid_centers_row_major():
    cfg = ImagingConfig(m1=4, m2=6, m_f=2, ring_radius=3.0)
    grid = build_grid(cfg)
    assert grid.centers.shape == (24, 2)
    cs = 1.5 / 4
    assert grid.cell_size == pytest.approx(cs)
    # entry i*m2 + j carries (x_j, y_i); six square cells span 2.25 m of x
    i, j = 2, 5
    x = -1.125 + cs * (j + 0.5)
    y = -0.75 + cs * (i + 0.5)
    assert grid.centers[i * 6 + j] == pytest.approx([x, y])


def test_grid_symmetric_about_origin():
    grid = build_grid(ImagingConfig(m1=8, m2=8, m_f=3))
    assert abs(grid.centers.mean(axis=0)).max() < 1e-12


def test_rectangular_grid_symmetric_about_origin():
    grid = build_grid(ImagingConfig(m1=12, m2=20, m_f=3))
    xy = grid.centers.reshape(12, 20, 2)
    assert np.allclose(xy[:, ::-1, 0], -xy[:, :, 0], rtol=0, atol=1e-12)
    assert np.allclose(xy[::-1, :, 1], -xy[:, :, 1], rtol=0, atol=1e-12)
    assert xy[0, -1, 0] == pytest.approx(1.5 / 12 * 9.5)     # 20 cells of 0.125 m


def test_array_on_ring():
    cfg = ImagingConfig(n_tx=12, n_rx=7, ring_radius=2.5)
    arr = build_array(cfg)
    assert arr.n_tx == 12 and arr.n_rx == 7
    assert np.allclose(np.hypot(*arr.tx_positions.T), 2.5)
    assert np.allclose(np.hypot(*arr.rx_positions.T), 2.5)
    # element k at angle 2*pi*k/n, starting on the +x axis
    assert arr.tx_positions[0] == pytest.approx([2.5, 0.0])
    th = np.arctan2(arr.tx_positions[:, 1], arr.tx_positions[:, 0])
    assert np.allclose(np.mod(th, 2 * np.pi), 2 * np.pi * np.arange(12) / 12)


def test_perturb_array_statistics_and_determinism():
    arr = build_array(ImagingConfig(n_tx=36, n_rx=36, ring_radius=3.0))
    a = perturb_array(arr, 1e-3, np.random.default_rng(5))
    b = perturb_array(arr, 1e-3, np.random.default_rng(5))
    assert np.array_equal(a.tx_positions, b.tx_positions)
    d = a.tx_positions - arr.tx_positions
    assert 0.2e-3 < np.std(d) < 5e-3
    c = perturb_array(arr, 0.0, np.random.default_rng(5))
    assert np.array_equal(c.tx_positions, arr.tx_positions)
    with pytest.raises(ValueError):
        perturb_array(arr, -1.0, np.random.default_rng(0))


def test_complex_grid_validation():
    ComplexGrid(values=np.zeros((3, 3)), cell_size=0.1)
    with pytest.raises(ValueError):
        ComplexGrid(values=np.zeros(9), cell_size=0.1)
    bad = np.zeros((3, 3), dtype=complex)
    bad[1, 1] = np.nan
    with pytest.raises(ValueError):
        ComplexGrid(values=bad, cell_size=0.1)


def test_complex_grid_casts_to_complex128():
    g = ComplexGrid(values=np.ones((2, 2), dtype=np.float32), cell_size=0.1)
    assert g.values.dtype == np.complex128
