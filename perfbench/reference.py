"""Independent references for the benchmark's correctness checks.

Nothing here imports pdfisp. The geometry is rebuilt from the config's
numbers (cells centred on a uniform grid, row index along y; antennas
equally spaced on one ring), the special functions come from
scipy.special and the domain convolution from scipy.signal.fftconvolve,
so a fault in the package's own Bessel stack, circulant embedding or
Krylov solver cannot hide in the check.
"""
from __future__ import annotations

import numpy as np
from scipy import ndimage, special as sp
from scipy.signal import fftconvolve


def cell_centers(doi_side: float, m1: int, m2: int) -> tuple[np.ndarray, np.ndarray, float]:
    """x (m2,) and y (m1,) coordinates of the cell centres, and the cell size."""
    cs = doi_side / m1
    half = doi_side / 2.0
    xs = -half + cs * (np.arange(m2) + 0.5)
    ys = -half + cs * (np.arange(m1) + 0.5)
    return xs, ys, cs


def ring(n: int, radius: float) -> np.ndarray:
    """n antenna positions at angles 2*pi*k/n on a circle, shape (n, 2)."""
    theta = 2.0 * np.pi * np.arange(n) / n
    return radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)


def incident_field(k0: float, tx: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Unit line-source field (i/4) H0(k0 |r - r_tx|), shape (n_tx, m1, m2)."""
    dx = xs[None, None, :] - tx[:, 0, None, None]
    dy = ys[None, :, None] - tx[:, 1, None, None]
    return 0.25j * sp.hankel1(0, k0 * np.hypot(dx, dy))


def domain_kernel(k0: float, cell_size: float, m1: int, m2: int) -> np.ndarray:
    """Richmond G_D kernel over displacements -(m-1)..(m-1), shape (2m1-1, 2m2-1).

    Equal-area disk of radius a = cell_size/sqrt(pi): the off-diagonal
    cell integral is (i pi k0 a / 2) J1(k0 a) H0(k0 rho), the self term
    (i pi k0 a / 2) H1(k0 a) - 1.
    """
    a = cell_size / np.sqrt(np.pi)
    coef = 0.5j * np.pi * k0 * a
    di = np.arange(-(m1 - 1), m1)[:, None]
    dj = np.arange(-(m2 - 1), m2)[None, :]
    rho = cell_size * np.hypot(di, dj)
    with np.errstate(invalid="ignore", divide="ignore"):
        kernel = coef * sp.j1(k0 * a) * sp.hankel1(0, k0 * rho)
    kernel[m1 - 1, m2 - 1] = coef * sp.hankel1(1, k0 * a) - 1.0
    return kernel


def state_residuals(chi: np.ndarray, e_tot: np.ndarray, e_inc: np.ndarray,
                    kernel: np.ndarray) -> np.ndarray:
    """Per-view ||E - E_inc - G_D(chi E)|| / ||E_inc|| with a linear convolution."""
    m1, m2 = chi.shape
    conv = fftconvolve(chi[None] * e_tot, kernel[None], mode="full", axes=(-2, -1))
    gd = conv[:, m1 - 1:2 * m1 - 1, m2 - 1:2 * m2 - 1]
    num = np.linalg.norm((e_tot - e_inc - gd).reshape(len(e_tot), -1), axis=1)
    return num / np.linalg.norm(e_inc.reshape(len(e_inc), -1), axis=1)


def cylinder_scattered(k0: float, eps_r: complex, radius: float, tx: np.ndarray,
                       rx: np.ndarray, n_terms: int = 45) -> np.ndarray:
    """Analytic scattered field (n_tx, n_rx) of a centred dielectric cylinder.

    Outside the cylinder each harmonic is J_n(k0 r) + b_n H_n(k0 r); the
    b_n follow from continuity of E_z and its radial derivative. A unit
    line source (i/4) H0(k0 |r - r_tx|) expands by the addition theorem,
    which gives (i/4) sum_n b_n H_n(k0 r_tx) H_n(k0 r_rx) e^{i n (phi_rx - phi_tx)}.
    """
    k1 = k0 * np.sqrt(complex(eps_r))
    n = np.arange(-n_terms, n_terms + 1)
    num = (k1 * sp.jvp(n, k1 * radius) * sp.jv(n, k0 * radius)
           - k0 * sp.jv(n, k1 * radius) * sp.jvp(n, k0 * radius))
    den = (k0 * sp.jv(n, k1 * radius) * sp.h1vp(n, k0 * radius)
           - k1 * sp.jvp(n, k1 * radius) * sp.hankel1(n, k0 * radius))
    b = num / den
    r_tx, phi_tx = np.hypot(tx[:, 0], tx[:, 1]), np.arctan2(tx[:, 1], tx[:, 0])
    r_rx, phi_rx = np.hypot(rx[:, 0], rx[:, 1]), np.arctan2(rx[:, 1], rx[:, 0])
    w_tx = b * sp.hankel1(n, k0 * r_tx[:, None]) * np.exp(-1j * np.outer(phi_tx, n))
    w_rx = sp.hankel1(n, k0 * r_rx[:, None]) * np.exp(1j * np.outer(phi_rx, n))
    return 0.25j * (w_tx @ w_rx.T)


def relative_error(eps_hat: np.ndarray, eps_true: np.ndarray) -> float:
    """Frobenius relative error of Re eps_hat against Re eps_true."""
    return float(np.linalg.norm(eps_hat.real - eps_true.real) / np.linalg.norm(eps_true.real))


def components(eps: np.ndarray, threshold: float) -> int:
    """4-connected components of {Re eps > threshold}."""
    _, n = ndimage.label(eps.real > threshold)
    return int(n)
