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
resolution of the spectral basis, see `bridge_term`.

The state term is never formed as a residual array. Per pixel, with
b = beta*(R - 1), it is sum_n |R*E_n + b*J_n|^2 = |R|^2 Pee + |b|^2 Pjj
+ 2 Re(conj(R) b Pej), with the view sums Pee, Pjj and Pej of
`cie.view_sums` (the per-pixel least squares forms them anyway). So
`LossContext.term_values` needs only those sums and the (n, n_rx) data
residual, and the gradient at fixed R pulls back through one Hermitian
2x2 map per pixel (`LossContext.residual_grad`). Each penalty is one
function returning its value and its contrast gradient together
(`bound_term`, `tv_term`, `bridge_term`). `pipeline_forward` adds the
least-squares contrast, the physical-branch map and the penalties, keeping
the intermediates the hand-derived reverse pass `pipeline_backward` needs,
the weighted penalty gradient among them; the frozen-contrast objective
(`reconstruct.CsiObjective`) uses the same functions without the
least-squares contrast.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit as _sigmoid

from .cie import (ContrastRecovery, ViewSums, chi_to_r, physical_branch,
                  pixel_least_squares)
from .forward import ScatteredData
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

    def as_row(self) -> tuple[float, ...]:
        return (self.state, self.data, self.bound, self.tv, self.bridge, self.total)


@dataclass
class LossContext:
    """Everything a loss evaluation needs besides the coefficients.

    `maps` holds the precomputed coefficient-space operators of one
    geometry and spectral basis (`reconstruct.Problem` builds them once);
    the basis is read from it. `c_sca` and `c_inc` are the measured
    (masked) and incident powers over all views jointly, the normalizers
    of the data and state terms.
    """

    data: ScatteredData
    e_inc: np.ndarray          # (n_views, m1, m2)
    maps: SpectralOperators
    beta: float
    lambdas: tuple[float, float, float]
    tau_b: float
    r_fixed: np.ndarray | None = None   # freeze the modified contrast here
    c_sca: float = field(init=False)
    c_inc: float = field(init=False)

    def __post_init__(self):
        if self.data.matrix.shape[0] != self.e_inc.shape[0]:
            raise ValueError(
                f"view count mismatch: data has {self.data.matrix.shape[0]} rows, "
                f"incident fields have {self.e_inc.shape[0]}")
        self.c_sca = _power(self._masked(self.data.matrix))
        self.c_inc = _power(self.e_inc)
        if self.c_sca <= 0:
            raise ZeroDataError("measured scattered power is zero")
        if self.c_inc <= 0:
            raise ZeroDataError("incident power is zero")

    @property
    def basis(self) -> SpectralBasis:
        return self.maps.basis

    def _masked(self, rows: np.ndarray) -> np.ndarray:
        return rows if self.data.mask is None else rows * self.data.mask

    def fields(self, alpha: np.ndarray, homogeneous: bool = False):
        """Currents J = alpha B and total fields E = E_inc + alpha K.

        With homogeneous=True, E is the scattered part alpha K alone.
        """
        e = self.maps.scattered_field(alpha)
        if not homogeneous:
            e += self.e_inc
        return expand(self.basis, alpha), e

    def data_residual(self, alpha: np.ndarray, homogeneous: bool = False) -> np.ndarray:
        """Masked data residual G_S J - d, shape (n, n_rx).

        homogeneous=True drops d, leaving the linear part of the map.
        """
        rows = self.maps.measure(alpha)
        if not homogeneous:
            rows = rows - self.data.matrix
        return self._masked(rows)

    def term_values(self, r_hat: np.ndarray, sums: ViewSums,
                    data_res: np.ndarray) -> tuple[float, float]:
        """Normalized (state, data) loss terms.

        The rewritten state equation asks R*(E + beta*J) = beta*J, so the
        state residual R*E_n + b*J_n, b = beta*(R - 1), vanishes exactly
        when J and R are mutually consistent. Its power over views is a
        quadratic form in the view sums of (J, E), see the module docstring.
        """
        b = self.beta * (r_hat - 1.0)
        state = (_abs2(r_hat) * sums.pee + _abs2(b) * sums.pjj
                 + 2.0 * (np.conj(r_hat) * b * sums.pej).real)
        return float(state.sum()) / self.c_inc, _power(data_res) / self.c_sca

    def residual_grad(self, r_hat: np.ndarray, fields: tuple[np.ndarray, np.ndarray],
                      data_res: np.ndarray, g_num: np.ndarray | None = None,
                      g_den: np.ndarray | None = None) -> np.ndarray:
        """Gradient of state + data terms with respect to the coefficients, R fixed.

        The state term pulls back to the fields (J, E) as one Hermitian map
        per pixel, g_E = p E + q J and g_J = conj(q) E + v J, with
        p = c|R|^2, q = c conj(R) b and v = c|b|^2 (c = 2/c_inc). g_num and
        g_den are gradients that reach the least-squares numerator
        sum J conj(E) and denominator sum |E|^2 by other paths; they enter
        the same map, as q += conj(g_num) and p += 2 g_den. Shape (n, m0).
        """
        j, e = fields
        scale = 2.0 / self.c_inc
        b = self.beta * (r_hat - 1.0)
        p = scale * _abs2(r_hat)
        q = scale * np.conj(r_hat) * b
        if g_num is not None:
            p = p + 2.0 * g_den
            q = q + np.conj(g_num)
        g_e = p * e + q * j
        g_j = np.conj(q) * e + (scale * _abs2(b)) * j
        g_rows = self._masked((2.0 / self.c_sca) * data_res)
        return self.maps.coefficient_grad(g_j=g_j, g_e=g_e, g_rows=g_rows)


def _abs2(x: np.ndarray) -> np.ndarray:
    return x.real * x.real + x.imag * x.imag


def _power(x: np.ndarray) -> float:
    return float(np.vdot(x, x).real)


# ----------------------------------------------------------------------
# Regularizer terms: each returns its value and its gradient with respect
# to the contrast image (convention: g = dL/dRe + i*dL/dIm, unweighted)


def bound_term(chi: np.ndarray) -> tuple[float, np.ndarray]:
    """Squared hinge on negative real contrast."""
    neg = np.minimum(chi.real, 0.0)
    return float(np.sum(neg * neg)), (2.0 * neg).astype(np.complex128)


def tv_term(chi: np.ndarray, eps_tv: float = EPS_TV) -> tuple[float, np.ndarray]:
    """Smoothed isotropic total variation, forward differences.

    The last row/column differences are zero (replicate boundary); complex
    images contribute |dx|^2 + |dy|^2.
    """
    dx, dy = _forward_diffs(chi)
    s = np.sqrt(np.abs(dx) ** 2 + np.abs(dy) ** 2 + eps_tv)
    g = np.zeros_like(chi)
    _add_diffs_adjoint(g, dx / s, dy / s)
    return float(s.sum()), g


def bridge_term(chi: np.ndarray, tau_b: float, m_f: int) -> tuple[float, np.ndarray]:
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
    a = np.abs(chi)
    gx, gy = _forward_diffs(a)
    kx = (a.shape[1] / (2.0 * m_f * tau_b)) ** 2
    ky = (a.shape[0] / (2.0 * m_f * tau_b)) ** 2
    sig = _sigmoid((a - tau_b) / tau_b)
    damp = np.exp(-(kx * gx * gx + ky * gy * gy))
    terms = sig * damp
    g_a = sig * (1.0 - sig) / tau_b * damp
    _add_diffs_adjoint(g_a, terms * (-2.0 * kx * gx), terms * (-2.0 * ky * gy))
    with np.errstate(invalid="ignore", divide="ignore"):
        phase = np.where(a > 0, chi / np.where(a > 0, a, 1.0), 0.0)
    return float(np.sum(terms)), g_a * phase


def _forward_diffs(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dx = np.zeros_like(img)
    dy = np.zeros_like(img)
    dx[:, :-1] = img[:, 1:] - img[:, :-1]
    dy[:-1, :] = img[1:, :] - img[:-1, :]
    return dx, dy


def _add_diffs_adjoint(g: np.ndarray, wx: np.ndarray, wy: np.ndarray) -> None:
    """g += the adjoint of `_forward_diffs` applied to (wx, wy), in place."""
    g[:, 1:] += wx[:, :-1]
    g[:, :-1] -= wx[:, :-1]
    g[1:, :] += wy[:-1, :]
    g[:-1, :] -= wy[:-1, :]


# ----------------------------------------------------------------------
# Shared forward pipeline


@dataclass
class PipelineState:
    """Intermediates of one composite-loss evaluation at coefficients alpha_hat."""

    rec: ContrastRecovery
    r_hat: np.ndarray          # (m1, m2)
    data_res: np.ndarray       # (n, n_rx) masked data residual
    breakdown: LossBreakdown
    penalty_grad: np.ndarray   # (m1, m2) weighted penalty gradient w.r.t. chi


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
    data_res = ctx.data_residual(alpha_hat)
    l_state, l_data = ctx.term_values(r_hat, rec.sums, data_res)

    l_bound, g_bound = bound_term(chi)
    l_tv, g_tv = tv_term(chi)
    l_bridge, g_bridge = bridge_term(chi, ctx.tau_b, ctx.basis.m_f)
    l1, l2, l3 = ctx.lambdas
    total = l_state + l_data + l1 * l_bound + l2 * l_tv + l3 * l_bridge
    penalty_grad = np.zeros_like(chi)
    for weight, g in ((l1, g_bound), (l2, g_tv), (l3, g_bridge)):
        if weight:
            penalty_grad += weight * g
    if not np.isfinite(total):
        parts = {"state": l_state, "data": l_data, "bound": l_bound, "tv": l_tv,
                 "bridge": l_bridge}
        bad = [k for k, v in parts.items() if not np.isfinite(v)]
        raise FloatingPointError(f"nonfinite loss term(s): {bad}")
    bd = LossBreakdown(total=total, state=l_state, data=l_data, bound=l_bound,
                       tv=l_tv, bridge=l_bridge)
    return PipelineState(rec=rec, r_hat=r_hat, data_res=data_res, breakdown=bd,
                         penalty_grad=penalty_grad)


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
    rec, r_hat, beta = state.rec, state.r_hat, ctx.beta
    chi = rec.chi

    # contrast chain: the weighted penalty gradient kept by the forward pass
    # plus (unless frozen) the modified-contrast map on the physical branch,
    # whose clamp passes no real-part gradient; from the view-sum form of the
    # state term, dL/dR = (2/c_inc) [R (Pee + 2 beta Re Pej + beta^2 Pjj)
    # - beta (Pej + beta Pjj)]
    g_chi = state.penalty_grad
    if ctx.r_fixed is None:
        s = rec.sums
        g_r = (2.0 / ctx.c_inc) * (
            r_hat * (s.pee + 2.0 * beta * s.pej.real + beta * beta * s.pjj)
            - beta * (s.pej + beta * s.pjj))
        g_phys = np.conj(beta / (beta * physical_branch(chi) + 1.0) ** 2) * g_r
        g_chi = g_chi + np.where(chi.real > 0.0, g_phys, 1j * g_phys.imag)

    # chi = num/den with num = sum_i J_i conj(E_i), den real
    g_num = g_chi / rec.denominator
    g_den = -(np.conj(g_chi) * chi).real / rec.denominator
    return ctx.residual_grad(r_hat, (rec.j_views, rec.e_views), state.data_res,
                             g_num=g_num, g_den=g_den)
