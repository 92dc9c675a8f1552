"""End-to-end reconstruction pipeline.

Stages: backprojection imaging for a coarse contrast estimate, a single
exact-line-search step of the frozen-contrast quadratic objective to seed
the spectral coefficients, k iterations of network-parameterized descent on
the composite loss, per-pixel contrast recovery, and contrast-compensated
post-filtering.
"""
from __future__ import annotations

import time
import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np
from scipy import ndimage

from .cie import chi_to_r, pixel_least_squares
from .config import ImagingConfig
from .filters import apply_cco
from .forward import (FieldSet, GreensOperators, ScatteredData, apply_gd,
                      apply_gs_adjoint, build_greens, incident_fields)
from .geometry import AntennaArray, ComplexGrid, build_array, build_grid
from .losses import LossBreakdown, LossContext, pipeline_forward
from .network import (AdamState, adam_step, forward_net, grad_loss, init_network)
from .spectral import SpectralBasis, SpectralOperators

FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


@dataclass
class ReconstructionResult:
    chi_hat: ComplexGrid          # contrast before compensation
    chi_cco: ComplexGrid          # after contrast compensation
    chi0: ComplexGrid             # backprojection initialization
    trace: list[LossBreakdown]    # one entry per iteration
    final_loss: LossBreakdown     # at the returned coefficients
    wall_time: float
    rel_error: float | None = None

    @property
    def eps_r(self) -> np.ndarray:
        """Relative permittivity map chi_cco + 1 (complex)."""
        return self.chi_cco.values + 1.0


# ----------------------------------------------------------------------
# Initialization


def bp_initialize(data: ScatteredData, e_inc: FieldSet, ops: GreensOperators,
                  beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Backprojection imaging: adjoint currents with per-view scalar gains.

    Per view, J = gamma * G_S^H d with gamma minimizing ||gamma G_S G_S^H d
    - d||; the contrast follows from the per-pixel least squares over the
    induced fields, and the modified contrast from the contraction mapping.
    """
    d = data.matrix if data.mask is None else data.matrix * data.mask
    b = apply_gs_adjoint(ops, d)
    w = b.reshape(d.shape[0], -1) @ ops.gs_matrix.T
    if data.mask is not None:
        w = w * data.mask
    num = np.einsum("nr,nr->n", np.conj(w), d)
    den = np.einsum("nr,nr->n", np.conj(w), w).real
    gamma = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    j = gamma[:, None, None] * b
    e = e_inc.views + apply_gd(ops, j)
    chi0 = pixel_least_squares(j, e).chi
    return chi0, chi_to_r(chi0, beta)


@dataclass
class CsiObjective:
    """Data+state quadratic in the coefficients, modified contrast frozen at r0.

    Shared by the spectral initializer (one exact step from zero) and the
    plain-descent reference solver. It is the loss context with
    r_fixed=r0 and no regularizers, evaluated through the residual
    functions alone (no least-squares contrast), plus the curvature of the
    quadratic for the exact line search. Uses the same precomputed
    coefficient-space maps as the main loop (built here unless passed).
    """

    r0: np.ndarray
    e_inc: np.ndarray
    data: ScatteredData
    ops: GreensOperators
    basis: SpectralBasis
    beta: float
    maps: InitVar[SpectralOperators | None] = None
    ctx: LossContext = field(init=False)

    def __post_init__(self, maps):
        # tau_b only shapes the bridge term, which zero weights switch off
        self.ctx = LossContext(data=self.data, e_inc=self.e_inc, ops=self.ops,
                               basis=self.basis, beta=self.beta, lambdas=(0.0, 0.0, 0.0),
                               tau_b=1.0, r_fixed=self.r0, maps=maps)

    def value_parts(self, alpha: np.ndarray) -> tuple[float, float]:
        """Normalized (state, data) terms at coefficients alpha."""
        return self.ctx.term_values(self.ctx.residuals(alpha, self.r0))

    def grad(self, alpha: np.ndarray) -> np.ndarray:
        return self.ctx.residual_grad(self.r0, self.ctx.residuals(alpha, self.r0))

    def curvature(self, direction: np.ndarray) -> float:
        """Q(d) = ||A d||^2 in the normalized residual metric (homogeneous part)."""
        return sum(self.ctx.term_values(
            self.ctx.residuals(direction, self.r0, homogeneous=True)))

    def exact_step(self, grad: np.ndarray) -> float:
        """Minimizer of the objective along -grad (valid at any iterate)."""
        q = self.curvature(grad)
        gnorm2 = float(np.vdot(grad, grad).real)
        if q <= 0 or gnorm2 <= 0:
            return 0.0
        return gnorm2 / (2.0 * q)


def init_alpha(r0: np.ndarray, data: ScatteredData, e_inc: FieldSet,
               ops: GreensOperators, basis: SpectralBasis, beta: float,
               maps: SpectralOperators | None = None) -> np.ndarray:
    """One exact-line-search descent step from zero coefficients.

    The frozen-contrast objective is quadratic, so the optimal step along
    the negative gradient is closed-form and parameter-free. `maps` are the
    precomputed operators of (ops, basis), built here when not given.
    """
    obj = CsiObjective(r0=r0, e_inc=e_inc.views, data=data, ops=ops, basis=basis,
                       beta=beta, maps=maps)
    zero = np.zeros((e_inc.views.shape[0], basis.m0), dtype=np.complex128)
    g = obj.grad(zero)
    t = obj.exact_step(g)
    if t == 0.0:
        warnings.warn("zero initial gradient; starting from zero coefficients")
        return zero
    return -t * g


def csi_descent(obj: CsiObjective, n_views: int, target_data_loss: float,
                time_limit: float, max_iters: int = 2_000_000) -> dict:
    """Steepest descent with exact line search on the frozen-contrast objective.

    Reference solver for speed comparisons: runs until its data term matches
    target_data_loss or the wall-clock limit expires.
    """
    alpha = np.zeros((n_views, obj.basis.m0), dtype=np.complex128)
    t0 = time.perf_counter()
    iters = 0
    state_l, data_l = obj.value_parts(alpha)
    while data_l > target_data_loss and iters < max_iters:
        if time.perf_counter() - t0 > time_limit:
            break
        g = obj.grad(alpha)
        step = obj.exact_step(g)
        if step == 0.0:
            break
        alpha = alpha - step * g
        state_l, data_l = obj.value_parts(alpha)
        iters += 1
    return {"reached": data_l <= target_data_loss, "iters": iters,
            "elapsed": time.perf_counter() - t0, "data_loss": data_l,
            "state_loss": state_l}


# ----------------------------------------------------------------------
# Main loop


def reconstruct(config: ImagingConfig, data: ScatteredData,
                array: AntennaArray | None = None,
                chi_true: ComplexGrid | None = None) -> ReconstructionResult:
    """Full pipeline from measured data to a permittivity map.

    Deterministic under config.rng_seed. chi_true (when available) only
    feeds the reported relative error; it never influences the solve.
    """
    config.validate()
    t0 = time.perf_counter()
    if array is None:
        array = build_array(config)
    grid = build_grid(config)
    ops = build_greens(config, array, grid)
    e_inc = incident_fields(config, array, grid)
    basis = SpectralBasis(config.m1, config.m2, config.m_f)
    if data.matrix.shape != (array.n_tx, array.n_rx):
        raise ValueError("data matrix does not match the antenna array")

    maps = SpectralOperators.build(ops, basis)
    chi0, r0 = bp_initialize(data, e_inc, ops, config.beta)
    alpha0 = init_alpha(r0, data, e_inc, ops, basis, config.beta, maps=maps)

    rng = np.random.default_rng(config.rng_seed)
    m0_eff = basis.m0 * (e_inc.views.shape[0] if config.joint_views else 1)
    net = init_network(m0_eff, rng)
    adam = AdamState.for_params(net, lr=config.learn_rate)
    ctx = LossContext(data=data, e_inc=e_inc.views, ops=ops, basis=basis,
                      beta=config.beta, lambdas=(config.lambda1, config.lambda2,
                                                 config.lambda3),
                      tau_b=config.tau_b, r_fixed=r0 if config.freeze_r else None,
                      maps=maps)

    trace: list[LossBreakdown] = []
    for _ in range(config.k_iters):
        g, bd = grad_loss(net, alpha0, ctx, joint=config.joint_views)
        trace.append(bd)
        net, adam = adam_step(adam, net, g)

    alpha_hat = alpha0 + forward_net(net, alpha0, joint=config.joint_views)
    final = pipeline_forward(alpha_hat, ctx)
    final_bd = final.breakdown
    chi_hat = final.rec.chi
    chi_cco = apply_cco(chi_hat, config.cco) if config.use_cco else chi_hat.copy()
    wall = time.perf_counter() - t0

    rel = None
    if chi_true is not None:
        rel = relative_error(chi_cco.real + 1.0, chi_true.values.real + 1.0)
    cs = grid.cell_size
    return ReconstructionResult(chi_hat=ComplexGrid(chi_hat, cs),
                                chi_cco=ComplexGrid(chi_cco, cs),
                                chi0=ComplexGrid(chi0, cs), trace=trace,
                                final_loss=final_bd, wall_time=wall, rel_error=rel)


# ----------------------------------------------------------------------
# Metrics


def relative_error(eps_hat: np.ndarray, eps_true: np.ndarray) -> float:
    """Frobenius-norm relative error between real permittivity maps."""
    num = np.linalg.norm(np.real(eps_hat) - np.real(eps_true))
    den = np.linalg.norm(np.real(eps_true))
    return float(num / den)


def count_components(eps_map: np.ndarray, threshold: float) -> int:
    """4-connected components of {Re(eps) > threshold}."""
    mask = np.real(eps_map) > threshold
    _, n = ndimage.label(mask, structure=FOUR_CONN)
    return int(n)
