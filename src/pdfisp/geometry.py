"""Imaging geometry: pixel grids, antenna rings, and complex image containers."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ImagingConfig


@dataclass(frozen=True)
class GridGeometry:
    """Uniform pixel grid tiling the square domain of interest.

    centers has shape (m1*m2, 2) in row-major order: entry i*m2 + j is the
    (x, y) center of row i, column j. Row index increases with y, column
    index with x, so centers.reshape(m1, m2, 2) aligns with image arrays.
    """

    centers: np.ndarray
    cell_size: float
    m1: int
    m2: int

    @property
    def n_cells(self) -> int:
        return self.m1 * self.m2


@dataclass(frozen=True)
class AntennaArray:
    """Transmitter and receiver coordinates in meters, shapes (n, 2)."""

    tx_positions: np.ndarray
    rx_positions: np.ndarray

    @property
    def n_tx(self) -> int:
        return len(self.tx_positions)

    @property
    def n_rx(self) -> int:
        return len(self.rx_positions)


@dataclass(frozen=True)
class ComplexGrid:
    """An m1 x m2 complex image on the domain (contrast or a field slice)."""

    values: np.ndarray
    cell_size: float

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.complex128)
        if values.ndim != 2:
            raise ValueError("ComplexGrid expects a 2-D array")
        if not np.isfinite(values).all():
            raise ValueError("ComplexGrid admits finite entries only")
        object.__setattr__(self, "values", values)


def build_grid(config: ImagingConfig) -> GridGeometry:
    """Lay out cell centers tiling the domain of interest uniformly.

    Cells are square with cell_size = doi_side / m1, so the rows span
    doi_side and the columns m2 cells; both are centred on the origin.
    """
    cs = config.doi_side / config.m1
    half = config.doi_side / 2.0
    xs = -half * (config.m2 / config.m1) + cs * (np.arange(config.m2) + 0.5)
    ys = -half + cs * (np.arange(config.m1) + 0.5)
    gx, gy = np.meshgrid(xs, ys)  # row-major: gy varies down rows
    centers = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return GridGeometry(centers=centers, cell_size=cs, m1=config.m1, m2=config.m2)


def ring_points(theta: np.ndarray, radius: float) -> np.ndarray:
    """(x, y) points at angles theta (radians) on a circle about the origin, shape (n, 2)."""
    return radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)


def build_array(config: ImagingConfig) -> AntennaArray:
    """Place antennas equally spaced on the measurement circle.

    Element k of n sits at angle 2*pi*k/n; the default radius is 20
    wavelengths (see ImagingConfig.radius).
    """
    def ring(n: int) -> np.ndarray:
        return ring_points(2.0 * np.pi * np.arange(n) / n, config.radius)

    return AntennaArray(tx_positions=ring(config.n_tx), rx_positions=ring(config.n_rx))


def perturb_array(array: AntennaArray, sigma: float, rng: np.random.Generator) -> AntennaArray:
    """Displace every antenna coordinate by independent N(0, sigma^2) noise.

    Models imperfect knowledge of antenna positions; deterministic for a
    fixed generator state.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return AntennaArray(array.tx_positions.copy(), array.rx_positions.copy())
    tx = array.tx_positions + rng.normal(0.0, sigma, array.tx_positions.shape)
    rx = array.rx_positions + rng.normal(0.0, sigma, array.rx_positions.shape)
    return AntennaArray(tx_positions=tx, rx_positions=rx)
