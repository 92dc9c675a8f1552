"""Contraction-integral-equation algebra.

The state equation is rewritten in terms of the modified contrast
R = beta*chi / (beta*chi + 1), which for physical media (Re{chi} >= 0,
beta > 0) satisfies |R| < 1 everywhere, weakening the nonlinearity at high
contrast. This module holds the chi <-> R mappings and the per-pixel
least-squares recovery of chi from paired current/field views; the
rewritten state residual itself lives with the loss
(`losses.LossContext.residuals`).

The least-squares contrast of an intermediate iterate is not physical in
general: its real part goes negative, and at chi = -1/beta the map has a
pole (|R| > 1 already below Re{chi} = -1/(2*beta)). The loss therefore
evaluates R on the physical branch, `physical_branch(chi)`, which clamps
Re{chi} at zero; there |beta*chi + 1| >= 1 and |R| < 1. Negative contrast
itself is penalized by the bound term of the loss, not by the map.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PoleError(ValueError):
    """Raised when a mapping is evaluated at (numerically) its pole."""


def chi_to_r(chi: np.ndarray, beta: complex) -> np.ndarray:
    """Modified contrast R = beta*chi / (beta*chi + 1)."""
    chi = np.asarray(chi, dtype=np.complex128)
    den = beta * chi + 1.0
    if (np.abs(den) < 1e-14).any():
        raise PoleError("beta*chi + 1 vanishes at some pixel")
    return beta * chi / den


def physical_branch(chi: np.ndarray) -> np.ndarray:
    """Contrast with Re{chi} clamped at zero, the domain where chi_to_r contracts."""
    chi = np.asarray(chi, dtype=np.complex128)
    return np.maximum(chi.real, 0.0) + 1j * chi.imag


def r_to_chi(r: np.ndarray, beta: complex) -> np.ndarray:
    """Inverse mapping chi = R / (beta * (1 - R))."""
    r = np.asarray(r, dtype=np.complex128)
    den = 1.0 - r
    if (np.abs(den) < 1e-14).any():
        raise PoleError("1 - R vanishes at some pixel")
    return r / (beta * den)


def default_eps_reg(view_power: np.ndarray, n_cells: int) -> float:
    """Regularizer floor 1e-10 * max_view ||E||^2 / n_cells.

    `view_power` holds the per-view powers ||E_i||^2. Keeps the per-pixel
    least squares finite at field nulls without biasing bright pixels.
    """
    return float(1e-10 * np.max(view_power) / n_cells)


@dataclass
class ContrastRecovery:
    """Per-pixel least-squares contrast with its reusable intermediates."""

    chi: np.ndarray           # (m1, m2)
    j_views: np.ndarray       # (n, m1, m2) currents expand(alpha)
    e_views: np.ndarray       # (n, m1, m2) total fields E_inc + G_D J
    denominator: np.ndarray   # (m1, m2) real, sum_i |E_i|^2 + eps_reg
    eps_reg: float
    degenerate: np.ndarray    # (m1, m2) bool, denominator <= 10*eps_reg


def pixel_least_squares(j_views: np.ndarray, e_views: np.ndarray) -> ContrastRecovery:
    """Per-pixel LS contrast from paired current/field views.

    chi[m] = sum_i J_i[m] conj(E_i[m]) / (sum_i |E_i[m]|^2 + eps_reg), the
    least-squares solution of J_i = chi * E_i across views at each pixel,
    with eps_reg from `default_eps_reg`. |E_i|^2 is formed once and feeds
    both the floor and the denominator.
    """
    power = e_views.real ** 2 + e_views.imag ** 2
    eps_reg = default_eps_reg(power.sum((1, 2)), power[0].size)
    num = np.einsum("nij,nij->ij", j_views, np.conj(e_views))
    den = power.sum(0) + eps_reg
    chi = num / den
    return ContrastRecovery(chi=chi, j_views=j_views, e_views=e_views, denominator=den,
                            eps_reg=eps_reg, degenerate=den <= 10.0 * eps_reg)
