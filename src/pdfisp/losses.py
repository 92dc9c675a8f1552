"""Composite physics loss over spectral current coefficients.

The scalar objective is

    total = state + data + lambda1*bound + lambda2*tv + lambda3*bridge

where `state` penalizes the contraction-form state-equation residual,
`data` the measurement residual, `bound` negative real contrast, `tv` the
(smoothed) total variation of the contrast, and `bridge` high-amplitude
flat regions that spuriously connect nearby scatterers. State and data
terms are normalized by the total incident / measured power over all views
jointly, so view weighting is uniform and global field scaling cancels.

The state term takes the modified contrast R of the least-squares contrast
on its physical branch (Re{chi} clamped at zero, cie.physical_branch):
intermediate iterates recover negative contrast, and the unclamped map has
a pole at chi = -1/beta. The bridge term judges flatness against the
resolution of the spectral basis, see `loss_bridge`.

The state and data residuals are computed only in `LossContext.residuals`,
and their coefficient gradient at fixed R only in `LossContext.residual_grad`.
`pipeline_forward` adds the least-squares contrast, the physical-branch map
and the regularizers, keeping the intermediates the hand-derived reverse
pass `pipeline_backward` needs; the frozen-contrast objective
(`reconstruct.CsiObjective`) uses the residual functions alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import expit as _sigmoid

from .cie import ContrastRecovery, chi_to_r, physical_branch, pixel_least_squares
from .forward import GreensOperators, ScatteredData
from .spectral import SpectralBasis, SpectralOperators, expand

EPS_TV = 1e-12  # smoothing inside the TV square root


class ZeroDataError(ValueError):
    """Raised when a normalizer (measured or incident power) is zero."""


@dataclass(frozen=True)
class LossBreakdown:
    """One evaluation of the composite loss; bound/tv/bridge are pre-weighting."""

    total: float
    state: float
    data: float
    bound: float
    tv: float
    bridge: float
    weights: tuple[float, float, float]

    def as_row(self) -> tuple[float, ...]:
        return (self.state, self.data, self.bound, self.tv, self.bridge, self.total)


class Residuals(NamedTuple):
    """State and data residuals at one set of coefficients, per view."""

    state: np.ndarray    # (n, m1, m2) R*(E + beta*J) - beta*J
    data: np.ndarray     # (n, n_rx) mask * (G_S J - d)


@dataclass
class LossContext:
    """Everything a loss evaluation needs besides the coefficients.

    `maps` holds the precomputed coefficient-space operators of (ops,
    basis); it is built on construction unless a caller that already has
    them passes them in. `c_sca` and `c_inc` are the measured (masked) and
    incident powers over all views jointly, the normalizers of the data
    and state terms.
    """

    data: ScatteredData
    e_inc: np.ndarray          # (n_views, m1, m2)
    ops: GreensOperators
    basis: SpectralBasis
    beta: float
    lambdas: tuple[float, float, float]
    tau_b: float
    r_fixed: np.ndarray | None = None   # freeze the modified contrast here
    maps: SpectralOperators | None = None
    c_sca: float = field(init=False)
    c_inc: float = field(init=False)

    def __post_init__(self):
        if self.data.matrix.shape[0] != self.e_inc.shape[0]:
            raise ValueError(
                f"view count mismatch: data has {self.data.matrix.shape[0]} rows, "
                f"incident fields have {self.e_inc.shape[0]}")
        if self.maps is None:
            self.maps = SpectralOperators.build(self.ops, self.basis)
        self.c_sca = _power(self._masked(self.data.matrix))
        self.c_inc = _power(self.e_inc)
        if self.c_sca <= 0:
            raise ZeroDataError("measured scattered power is zero")
        if self.c_inc <= 0:
            raise ZeroDataError("incident power is zero")

    @property
    def n_views(self) -> int:
        return self.e_inc.shape[0]

    def _masked(self, rows: np.ndarray) -> np.ndarray:
        return rows if self.data.mask is None else rows * self.data.mask

    def fields(self, alpha: np.ndarray, homogeneous: bool = False):
        """Currents J = alpha B and total fields E = E_inc + alpha K.

        With homogeneous=True, E is the scattered part alpha K alone.
        """
        j = expand(self.basis, alpha)
        e = self.maps.scattered_field(alpha)
        return j, (e if homogeneous else self.e_inc + e)

    def residuals(self, alpha: np.ndarray, r_hat: np.ndarray,
                  fields: tuple[np.ndarray, np.ndarray] | None = None,
                  homogeneous: bool = False) -> Residuals:
        """Contraction-form state residual and masked data residual.

        The rewritten state equation asks R*(E + beta*J) = beta*J, so the
        state residual R*E + beta*(R - 1)*J vanishes exactly when J and R
        are mutually consistent; the data residual is G_S J - d on the
        measured entries. (J, E) come from `fields` unless the caller
        already has them. homogeneous=True drops E_inc and d, leaving the
        linear part of the map.
        """
        j, e = self.fields(alpha, homogeneous) if fields is None else fields
        state = r_hat * e + (self.beta * (r_hat - 1.0)) * j
        rows = self.maps.measure(alpha)
        if not homogeneous:
            rows = rows - self.data.matrix
        return Residuals(state=state, data=self._masked(rows))

    def term_values(self, res: Residuals) -> tuple[float, float]:
        """Normalized (state, data) loss terms of the residuals."""
        return _power(res.state) / self.c_inc, _power(res.data) / self.c_sca

    def residual_grad(self, r_hat: np.ndarray, res: Residuals,
                      g_j: np.ndarray | None = None,
                      g_e: np.ndarray | None = None) -> np.ndarray:
        """Gradient of state + data terms with respect to the coefficients, R fixed.

        g_j and g_e are gradients that reach J and E by other paths (the
        least-squares contrast); they are pulled back together with the
        residuals' own. Shape (n, m0).
        """
        scale = 2.0 / self.c_inc
        all_j = (scale * self.beta * (np.conj(r_hat) - 1.0)) * res.state
        all_e = (scale * np.conj(r_hat)) * res.state
        if g_j is not None:
            all_j += g_j
        if g_e is not None:
            all_e += g_e
        g_rows = self._masked((2.0 / self.c_sca) * res.data)
        return self.maps.coefficient_grad(g_j=all_j, g_e=all_e, g_rows=g_rows)


def _power(x: np.ndarray) -> float:
    return float(np.vdot(x, x).real)


# ----------------------------------------------------------------------
# Regularizer terms


def loss_bound(chi: np.ndarray) -> float:
    """Squared hinge on negative real contrast."""
    neg = np.minimum(chi.real, 0.0)
    return float(np.sum(neg * neg))


def loss_tv(chi: np.ndarray, eps_tv: float = EPS_TV) -> float:
    """Smoothed isotropic total variation, forward differences.

    The last row/column differences are zero (replicate boundary); complex
    images contribute |dx|^2 + |dy|^2.
    """
    dx, dy = _forward_diffs(chi)
    s = np.sqrt(np.abs(dx) ** 2 + np.abs(dy) ** 2 + eps_tv)
    return float(s.sum())


def loss_bridge(chi: np.ndarray, tau_b: float, m_f: int) -> float:
    """Penalty on bright flat regions.

    sum sigmoid((|chi| - tau_b)/tau_b) * exp(-(lx*gx)^2/tau_b^2 - (ly*gy)^2/tau_b^2)
    with (gx, gy) the forward differences of |chi| per cell and (ly, lx) =
    (m1, m2) / (2*m_f) the shortest half-period of the m_f-mode basis along
    rows and columns, in cells. The flatness factor compares the slope with
    that of a resolved edge: an edge of height tau_b in a map drawn from
    the m_f-mode basis rises over about one shortest half-period of the
    basis, so such an edge scores exp(-1) while a flat bright bridge scores
    one. Per-cell differences alone cannot tell the two apart, because a
    band-limited map changes little from one cell to the next.
    """
    sig, damp, _ = _bridge_parts(chi, tau_b, m_f)
    return float(np.sum(sig * damp))


def _bridge_parts(chi: np.ndarray, tau_b: float, m_f: int):
    a = np.abs(chi)
    gx, gy = _forward_diffs(a)
    kx = (a.shape[1] / (2.0 * m_f * tau_b)) ** 2
    ky = (a.shape[0] / (2.0 * m_f * tau_b)) ** 2
    sig = _sigmoid((a - tau_b) / tau_b)
    damp = np.exp(-(kx * gx * gx + ky * gy * gy))
    return sig, damp, (a, gx, gy, kx, ky)


def _forward_diffs(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dx = np.zeros_like(img)
    dy = np.zeros_like(img)
    dx[:, :-1] = img[:, 1:] - img[:, :-1]
    dy[:-1, :] = img[1:, :] - img[:-1, :]
    return dx, dy


# ----------------------------------------------------------------------
# Regularizer gradients with respect to the contrast image
# (convention: g = dL/dRe + i*dL/dIm, unweighted)


def bound_chi_grad(chi: np.ndarray) -> np.ndarray:
    return (2.0 * np.minimum(chi.real, 0.0)).astype(np.complex128)


def tv_chi_grad(chi: np.ndarray, eps_tv: float = EPS_TV) -> np.ndarray:
    dx, dy = _forward_diffs(chi)
    s = np.sqrt(np.abs(dx) ** 2 + np.abs(dy) ** 2 + eps_tv)
    wx, wy = dx / s, dy / s
    g = np.zeros_like(chi)
    g[:, 1:] += wx[:, :-1]
    g[:, :-1] -= wx[:, :-1]
    g[1:, :] += wy[:-1, :]
    g[:-1, :] -= wy[:-1, :]
    return g


def bridge_chi_grad(chi: np.ndarray, tau_b: float, m_f: int) -> np.ndarray:
    sig, damp, (a, gx, gy, kx, ky) = _bridge_parts(chi, tau_b, m_f)
    ga = sig * (1.0 - sig) / tau_b * damp
    cx = sig * damp * (-2.0 * kx * gx)
    cy = sig * damp * (-2.0 * ky * gy)
    ga[:, 1:] += cx[:, :-1]
    ga[:, :-1] -= cx[:, :-1]
    ga[1:, :] += cy[:-1, :]
    ga[:-1, :] -= cy[:-1, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        phase = np.where(a > 0, chi / np.where(a > 0, a, 1.0), 0.0)
    return ga * phase


def regularizer_chi_grad(chi: np.ndarray, lambdas: tuple[float, float, float],
                         tau_b: float, m_f: int) -> np.ndarray:
    l1, l2, l3 = lambdas
    g = np.zeros_like(chi)
    if l1:
        g += l1 * bound_chi_grad(chi)
    if l2:
        g += l2 * tv_chi_grad(chi)
    if l3:
        g += l3 * bridge_chi_grad(chi, tau_b, m_f)
    return g


# ----------------------------------------------------------------------
# Shared forward pipeline


@dataclass
class PipelineState:
    """Intermediates of one composite-loss evaluation at coefficients alpha_hat."""

    alpha_hat: np.ndarray      # (n, m0)
    rec: ContrastRecovery
    r_hat: np.ndarray          # (m1, m2)
    res: Residuals
    breakdown: LossBreakdown


def pipeline_forward(alpha_hat: np.ndarray, ctx: LossContext) -> PipelineState:
    """Evaluate the composite loss, keeping what the reverse pass reuses."""
    alpha_hat = np.atleast_2d(np.asarray(alpha_hat, dtype=np.complex128))
    j, e = ctx.fields(alpha_hat)
    rec = pixel_least_squares(j, e)
    chi = rec.chi
    if ctx.r_fixed is not None:
        r_hat = ctx.r_fixed
    else:
        r_hat = chi_to_r(physical_branch(chi), ctx.beta)
    res = ctx.residuals(alpha_hat, r_hat, fields=(j, e))
    l_state, l_data = ctx.term_values(res)

    l_bound = loss_bound(chi)
    l_tv = loss_tv(chi)
    l_bridge = loss_bridge(chi, ctx.tau_b, ctx.basis.m_f)
    l1, l2, l3 = ctx.lambdas
    total = l_state + l_data + l1 * l_bound + l2 * l_tv + l3 * l_bridge
    if not np.isfinite(total):
        parts = {"state": l_state, "data": l_data, "bound": l_bound, "tv": l_tv,
                 "bridge": l_bridge}
        bad = [k for k, v in parts.items() if not np.isfinite(v)]
        raise FloatingPointError(f"nonfinite loss term(s): {bad}")
    bd = LossBreakdown(total=total, state=l_state, data=l_data, bound=l_bound,
                       tv=l_tv, bridge=l_bridge, weights=ctx.lambdas)
    return PipelineState(alpha_hat=alpha_hat, rec=rec, r_hat=r_hat, res=res, breakdown=bd)


def loss_total(alpha: np.ndarray, ctx: LossContext) -> LossBreakdown:
    """Composite loss at coefficients alpha (no network in the path)."""
    return pipeline_forward(alpha, ctx).breakdown


# ----------------------------------------------------------------------
# Reverse pass
#
# Gradients of complex quantities use the convention
# g(u) = dL/dRe{u} + i*dL/dIm{u}; for a product v = w*u the contribution is
# g(u) += conj(w)*g(v), for a linear operator v = A u it is g(u) += A^H g(v),
# and for the squared norm L = ||u||^2/c it starts as g(u) = 2u/c. The
# regularizer eps_reg inside the per-pixel least squares is treated as a
# constant (its drift with the fields is ~1e-10 relative, far below the
# finite-difference gate).


def pipeline_backward(state: PipelineState, ctx: LossContext) -> np.ndarray:
    """Gradient of the composite loss with respect to alpha_hat, shape (n, m0)."""
    j = state.rec.j_views
    e = state.rec.e_views
    chi = state.rec.chi
    den = state.rec.denominator

    # contrast chain: regularizers plus (unless frozen) the modified-contrast
    # map on the physical branch, whose clamp passes no real-part gradient;
    # the state residual R*(E + beta*J) - beta*J gives
    # dL/dR = sum_views conj(E + beta*J) * 2 res / c_inc
    g_chi = regularizer_chi_grad(chi, ctx.lambdas, ctx.tau_b, ctx.basis.m_f)
    if ctx.r_fixed is None:
        res = state.res.state
        g_r = (2.0 / ctx.c_inc) * (np.einsum("nij,nij->ij", np.conj(e), res)
                                   + ctx.beta * np.einsum("nij,nij->ij", np.conj(j), res))
        g_phys = np.conj(ctx.beta / (ctx.beta * physical_branch(chi) + 1.0) ** 2) * g_r
        g_chi = g_chi + np.where(chi.real > 0.0, g_phys, 1j * g_phys.imag)

    # chi = num/den with num = sum_i J_i conj(E_i), den real
    g_num = g_chi / den
    g_den = -(np.conj(g_chi) * chi).real / den
    return ctx.residual_grad(state.r_hat, state.res, g_j=e * g_num,
                             g_e=np.conj(g_num) * j + 2.0 * g_den * e)
