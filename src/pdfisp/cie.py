"""Contraction-integral-equation algebra.

The state equation is rewritten in terms of the modified contrast
R = beta*chi / (beta*chi + 1), which for physical media (Re{chi} >= 0,
beta > 0) satisfies |R| < 1 everywhere, weakening the nonlinearity at high
contrast. This module holds the chi <-> R mappings and the per-pixel
least-squares recovery of chi from paired current/field views, whose
per-pixel view sums (`view_sums`) also give the loss its state term
(`losses.LossContext.term_values`) without forming the rewritten state
residual.

The least-squares contrast of an intermediate iterate is not physical in
general: its real part goes negative, and at chi = -1/beta the map has a
pole (|R| > 1 already below Re{chi} = -1/(2*beta)). The loss therefore
evaluates R on the physical branch, `physical_branch(chi)`, which clamps
Re{chi} at zero; there |beta*chi + 1| >= 1 and |R| < 1. Negative contrast
itself is penalized by the bound term of the loss, not by the map.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class ViewSums(NamedTuple):
    """Per-pixel sums over views of paired currents J_n and fields E_n, each (m1, m2)."""

    pee: np.ndarray   # real, sum_n |E_n|^2
    pjj: np.ndarray   # real, sum_n |J_n|^2
    pej: np.ndarray   # complex, sum_n conj(E_n) J_n


def _float_rows(views: np.ndarray) -> np.ndarray:
    """The (n, 2*m1*m2) float64 view of an (n, m1, m2) complex stack (a copy if it must be)."""
    views = np.ascontiguousarray(views, dtype=np.complex128)
    return views.reshape(views.shape[0], -1).view(np.float64)


def _pixel_power(rows: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """sum_n |X_n|^2 per pixel, from the float rows of X."""
    s = np.einsum("nk,nk->k", rows, rows)
    return (s[0::2] + s[1::2]).reshape(shape)


def view_sums(j_views: np.ndarray, e_views: np.ndarray) -> ViewSums:
    """The per-pixel view sums of currents `j_views` and fields `e_views`."""
    j, e = _float_rows(j_views), _float_rows(e_views)
    shape = np.shape(e_views)[1:]
    pej = np.einsum("nk,nk->k", j.view(np.complex128), np.conj(e.view(np.complex128)))
    return ViewSums(pee=_pixel_power(e, shape), pjj=_pixel_power(j, shape),
                    pej=pej.reshape(shape))


@dataclass
class ContrastRecovery:
    """Per-pixel least-squares contrast with its reusable intermediates."""

    chi: np.ndarray           # (m1, m2)
    j_views: np.ndarray       # (n, m1, m2) currents expand(alpha)
    e_views: np.ndarray       # (n, m1, m2) total fields E_inc + G_D J
    sums: ViewSums            # per-pixel view sums of (j_views, e_views)
    denominator: np.ndarray   # (m1, m2) real, sums.pee + eps_reg
    eps_reg: float
    degenerate: np.ndarray    # (m1, m2) bool, denominator <= 10*eps_reg


def pixel_least_squares(j_views: np.ndarray, e_views: np.ndarray) -> ContrastRecovery:
    """Per-pixel LS contrast from paired current/field views.

    chi[m] = sum_i J_i[m] conj(E_i[m]) / (sum_i |E_i[m]|^2 + eps_reg), the
    least-squares solution of J_i = chi * E_i across views at each pixel,
    with eps_reg from `default_eps_reg`: numerator and denominator are the
    view sums Pej and Pee + eps_reg (`view_sums`).
    """
    sums = view_sums(j_views, e_views)
    e = _float_rows(e_views)
    eps_reg = default_eps_reg(np.einsum("nk,nk->n", e, e), sums.pee.size)
    den = sums.pee + eps_reg
    return ContrastRecovery(chi=sums.pej / den, j_views=j_views, e_views=e_views, sums=sums,
                            denominator=den, eps_reg=eps_reg,
                            degenerate=den <= 10.0 * eps_reg)
