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
from dataclasses import InitVar, dataclass, field, replace as dc_replace
from typing import ClassVar

import numpy as np
from scipy import ndimage

from .cie import chi_to_r, pixel_least_squares, view_sums
from .config import ImagingConfig
from .filters import apply_cco
from .forward import (FieldSet, GreensOperators, ScatteredData, apply_gd,
                      apply_gs_adjoint, build_greens, incident_fields)
from .geometry import AntennaArray, ComplexGrid, GridGeometry, build_array, build_grid
from .losses import LossBreakdown, LossContext, pipeline_forward
from .network import (AdamState, adam_step, forward_net, grad_loss, init_network)
from .spectral import SpectralBasis, SpectralOperators

FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
CONVERGED_GRAD = 1e-14   # csi_descent stops at this gradient norm relative to the first


@dataclass
class ReconstructionResult:
    chi_hat: ComplexGrid          # contrast before compensation
    chi_cco: ComplexGrid          # after contrast compensation
    trace: list[LossBreakdown]    # one entry per iteration
    final_loss: LossBreakdown     # at the returned coefficients
    wall_time: float
    grad_norms: list[float]       # loss gradient 2-norm per iteration
    update_norms: list[float]     # Adam step 2-norm per iteration
    clamped_counts: list[int]     # pixels with Re chi < 0 (clamped branch) per iteration
    degenerate_counts: list[int]  # degenerate least-squares pixels per iteration
    rel_error: float | None = None

    @property
    def eps_r(self) -> np.ndarray:
        """Relative permittivity map chi_cco + 1 (complex)."""
        return self.chi_cco.values + 1.0


# ----------------------------------------------------------------------
# Geometry


@dataclass(frozen=True)
class Problem:
    """What the geometry fixes (antennas, grid, Green's operators, incident
    fields, spectral basis and coefficient-space maps), plus a config.

    `build` keeps the last geometry of the process, keyed by frequency,
    domain, grid and basis sizes and antenna positions, with its arrays
    read-only, and returns it with the caller's config swapped in.
    """

    config: ImagingConfig
    array: AntennaArray
    grid: GridGeometry
    ops: GreensOperators
    e_inc: FieldSet
    basis: SpectralBasis
    maps: SpectralOperators
    _cache: ClassVar[dict] = {}

    @classmethod
    def build(cls, config: ImagingConfig, array: AntennaArray | None = None) -> "Problem":
        """The problem of `config` on `array` (the config's ring when None)."""
        array = build_array(config) if array is None else array
        tx, rx = (np.array(p, dtype=float) for p in (array.tx_positions, array.rx_positions))
        key = (config.frequency, config.doi_side, config.m1, config.m2, config.m_f,
               tx.tobytes(), rx.tobytes())
        if key not in cls._cache:
            array = AntennaArray(tx_positions=tx, rx_positions=rx)
            grid = build_grid(config)
            ops = build_greens(config, array, grid)
            e_inc = incident_fields(config, array, grid)
            basis = SpectralBasis(config.m1, config.m2, config.m_f)
            maps = SpectralOperators.build(ops, basis)
            for a in (tx, rx, grid.centers, ops.gd_kernel, ops.gd_kernel_hat, ops.gs_matrix,
                      e_inc.views, basis.row_factor, basis.col_factor, maps.fields,
                      maps.receivers):
                a.flags.writeable = False
            cls._cache.clear()
            cls._cache[key] = cls(config, array, grid, ops, e_inc, basis, maps)
        return dc_replace(cls._cache[key], config=config)

    def loss_context(self, data: ScatteredData,
                     r_fixed: np.ndarray | None = None) -> LossContext:
        """The composite loss of `data` under this problem's config."""
        cfg = self.config
        return LossContext(data=data, e_inc=self.e_inc.views, maps=self.maps,
                           beta=cfg.beta, lambdas=(cfg.lambda1, cfg.lambda2, cfg.lambda3),
                           tau_b=cfg.tau_b, r_fixed=r_fixed)


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
    r_fixed=r0 and no regularizers, evaluated through the view sums and the
    context's term and gradient functions, as the main loop is, but without
    the least-squares contrast; plus the curvature of the quadratic for the
    exact line search. Takes the main loop's precomputed maps when given,
    and builds them from (ops, basis) otherwise.
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
        if maps is None:
            maps = SpectralOperators.build(self.ops, self.basis)
        # tau_b only shapes the bridge term, which zero weights switch off
        self.ctx = LossContext(data=self.data, e_inc=self.e_inc, maps=maps, beta=self.beta,
                               lambdas=(0.0, 0.0, 0.0), tau_b=1.0, r_fixed=self.r0)

    def value_parts(self, alpha: np.ndarray, homogeneous: bool = False) -> tuple[float, float]:
        """Normalized (state, data) terms at coefficients alpha.

        homogeneous=True drops E_inc and d, leaving the linear part of the map.
        """
        fields = self.ctx.fields(alpha, homogeneous)
        return self.ctx.term_values(self.r0, view_sums(*fields),
                                    self.ctx.data_residual(alpha, homogeneous))

    def grad(self, alpha: np.ndarray) -> np.ndarray:
        return self.ctx.residual_grad(self.r0, self.ctx.fields(alpha),
                                      self.ctx.data_residual(alpha))

    def curvature(self, direction: np.ndarray) -> float:
        """Q(d) = ||A d||^2 in the normalized residual metric (homogeneous part)."""
        return sum(self.value_parts(direction, homogeneous=True))

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
    precomputed operators of (ops, basis), passed on to `CsiObjective`.
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
                time_limit: float) -> dict:
    """Steepest descent with exact line search on the frozen-contrast objective.

    Reference solver for speed comparisons: runs until its data term matches
    target_data_loss, the wall-clock limit expires, or it has converged
    (gradient norm at most CONVERGED_GRAD times the first, or a zero step):
    the objective is a convex quadratic, so no later step moves the data term.
    """
    alpha = np.zeros((n_views, obj.basis.m0), dtype=np.complex128)
    t0 = time.perf_counter()
    iters = 0
    g_stop = None
    state_l, data_l = obj.value_parts(alpha)
    while data_l > target_data_loss:
        if time.perf_counter() - t0 > time_limit:
            break
        g = obj.grad(alpha)
        g_norm = np.linalg.norm(g)
        g_stop = CONVERGED_GRAD * g_norm if g_stop is None else g_stop
        step = obj.exact_step(g)
        if step == 0.0 or g_norm <= g_stop:
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
    feeds the reported relative error; it never influences the solve. The
    geometry comes from `Problem.build`, which reuses the last one built in
    this process.
    """
    t0 = time.perf_counter()
    problem = Problem.build(config, array)
    if data.matrix.shape != (problem.array.n_tx, problem.array.n_rx):
        raise ValueError("data matrix does not match the antenna array")

    _, r0 = bp_initialize(data, problem.e_inc, problem.ops, config.beta)
    alpha0 = init_alpha(r0, data, problem.e_inc, problem.ops, problem.basis, config.beta,
                        maps=problem.maps)

    rng = np.random.default_rng(config.rng_seed)
    net = init_network(problem.basis.m0, rng)
    adam = AdamState.for_params(net, lr=config.learn_rate)
    ctx = problem.loss_context(data, r_fixed=r0 if config.freeze_r else None)

    trace: list[LossBreakdown] = []
    grad_norms: list[float] = []
    update_norms: list[float] = []
    clamped_counts: list[int] = []
    degenerate_counts: list[int] = []
    for _ in range(config.k_iters):
        g, state = grad_loss(net, alpha0, ctx)
        trace.append(state.breakdown)
        clamped_counts.append(int(np.count_nonzero(state.rec.chi.real < 0.0)))
        degenerate_counts.append(int(np.count_nonzero(state.rec.degenerate)))
        net, adam = adam_step(adam, net, g)
        grad_norms.append(adam.grad_norm)
        update_norms.append(adam.update_norm)

    alpha_hat = alpha0 + forward_net(net, alpha0)
    final = pipeline_forward(alpha_hat, ctx)
    final_bd = final.breakdown
    chi_hat = final.rec.chi
    chi_cco = apply_cco(chi_hat, config.cco) if config.use_cco else chi_hat.copy()
    wall = time.perf_counter() - t0

    rel = None
    if chi_true is not None:
        rel = relative_error(chi_cco.real + 1.0, chi_true.values.real + 1.0)
    cs = problem.grid.cell_size
    return ReconstructionResult(chi_hat=ComplexGrid(chi_hat, cs),
                                chi_cco=ComplexGrid(chi_cco, cs), trace=trace,
                                final_loss=final_bd, wall_time=wall,
                                grad_norms=grad_norms, update_norms=update_norms,
                                clamped_counts=clamped_counts,
                                degenerate_counts=degenerate_counts, rel_error=rel)


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
