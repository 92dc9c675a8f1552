"""End-to-end reconstruction pipeline.

Stages: backprojection imaging for a coarse contrast estimate, a single
exact-line-search step of the frozen-contrast quadratic objective to seed
the spectral coefficients, the incident fields' principal views of fully
measured data (see `principal_views`), k iterations of network-parameterized
descent on the composite loss, per-pixel contrast recovery, and
contrast-compensated post-filtering.
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
from .spectral import SpectralBasis, SpectralOperators, expand

FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
CONVERGED_GRAD = 1e-14   # csi_descent stops at this gradient norm relative to the first
NOISE_FREE_RANK = 1e-10  # data with s_min <= this * s_0 count as noise free
NOISE_FREE_TAIL_ENERGY = 3e-3  # their principal views drop at most this share of E_inc's energy
NOISY_TAIL_ENERGY = 1e-4       # those of other data
SCATTERER_EPS = 1.5      # the reported metrics count Re eps above this as scatterer


@dataclass(frozen=True)
class IterationRecord(LossBreakdown):
    """One iteration of the main loop, one row of `trace.csv` in field order:
    its loss terms, the 2-norm of their gradient over the network weights,
    the 2-norm of the Adam step taken after it, and the pixel counts of its
    least-squares contrast on the clamped branch (Re chi < 0) and degenerate
    (`cie.ContrastRecovery.degenerate`)."""

    grad_norm: float
    update_norm: float
    n_clamped: int
    n_degenerate: int


@dataclass
class ReconstructionResult:
    chi_hat: ComplexGrid          # contrast before compensation
    chi_cco: ComplexGrid          # after contrast compensation
    trace: list[IterationRecord]  # one entry per iteration
    final_loss: LossBreakdown     # at the returned coefficients
    wall_time: float
    n_views: int                  # views the main loop ran on, see `principal_views`
    config: ImagingConfig         # the config it ran with
    chi_true: ComplexGrid | None  # the truth given to `reconstruct`, or None

    @property
    def eps_r(self) -> np.ndarray:
        """Relative permittivity map chi_cco + 1 (complex)."""
        return self.chi_cco.values + 1.0

    @property
    def rel_error(self) -> float | None:
        """`relative_error` of Re eps_r against `chi_true`, None without it."""
        truth = self.chi_true
        return None if truth is None else relative_error(self.eps_r.real, truth.values.real + 1.0)


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

    def loss_context(self, data: ScatteredData, e_inc: np.ndarray | None = None) -> LossContext:
        """The composite loss of `data` under this problem's config, with the
        problem's incident fields unless the views `e_inc` are given."""
        cfg = self.config
        e_inc = self.e_inc.views if e_inc is None else e_inc
        return LossContext(data=data, e_inc=e_inc, maps=self.maps,
                           beta=cfg.beta, lambdas=(cfg.lambda1, cfg.lambda2, cfg.lambda3))


# ----------------------------------------------------------------------
# Initialization


def bp_initialize(data: ScatteredData, e_inc: FieldSet, ops: GreensOperators,
                  beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Backprojection imaging: adjoint currents with per-view scalar gains.

    Per view, J = gamma * G_S^H d with gamma minimizing ||gamma G_S G_S^H d
    - d||; the contrast follows from the per-pixel least squares over the
    induced fields, and the modified contrast from the contraction mapping.
    """
    d = data.masked(data.matrix)
    b = apply_gs_adjoint(ops, d)
    w = data.masked(b.reshape(d.shape[0], -1) @ ops.gs_matrix.T)
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

    The package's one fixed-R objective, shared by the spectral initializer
    (one exact step from zero) and the plain-descent reference solver. It
    is a loss context without regularizers, evaluated at R = r0 through the
    view sums and the context's term and gradient functions, as the main
    loop is, but without the least-squares contrast; plus the curvature of
    the quadratic for the exact line search. Takes the main loop's
    precomputed maps when given, and builds them from (ops, basis) otherwise.
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
        self.ctx = LossContext(data=self.data, e_inc=self.e_inc, maps=maps, beta=self.beta,
                               lambdas=(0.0, 0.0, 0.0))

    def value_parts(self, alpha: np.ndarray) -> tuple[float, float]:
        """Normalized (state, data) terms at coefficients alpha."""
        return self.ctx.term_values(self.r0, view_sums(*self.ctx.fields(alpha)),
                                    self.ctx.data_residual(alpha))

    def grad(self, alpha: np.ndarray) -> np.ndarray:
        return self.ctx.residual_grad(self.r0, self.ctx.fields(alpha),
                                      self.ctx.data_residual(alpha))

    def curvature(self, direction: np.ndarray) -> float:
        """Q(d) = ||A d||^2 in the normalized residual metric: the terms of the
        linear part of the map, without E_inc and d."""
        ctx = self.ctx
        fields = expand(ctx.basis, direction), ctx.maps.scattered_field(direction)
        return sum(ctx.term_values(self.r0, view_sums(*fields),
                                   ctx.data.masked(ctx.maps.measure(direction))))

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


def principal_views(data: ScatteredData, e_inc: np.ndarray, alpha0: np.ndarray
                    ) -> tuple[ScatteredData, np.ndarray, np.ndarray]:
    """The incident fields' principal view directions of fully measured data,
    or the inputs themselves.

    A unitary mix U^H of the views, applied to the data rows, the incident
    fields (n, m1, m2) and the coefficients alpha0 (n, m0), leaves every
    loss term unchanged: the view sums, the data residual and the
    penalties. The clean data are E_inc-linear (D = E_inc M), so their view
    space lies in that of the incident fields, whose direction energies are
    the eigenvalues of the n x n Gram matrix E_inc E_inc^H. The loop keeps
    the smallest q whose tail is at most a share of the total and drops the
    rest, which carry noise and little signal: NOISE_FREE_TAIL_ENERGY on
    noise-free data (s_min <= NOISE_FREE_RANK * s_0), 17 of 36 views on the
    default ring, and NOISY_TAIL_ENERGY on other data, 21 views. The clean
    eps 2 / 5 / 8 data hold 5.5e-4 / 1.45e-3 / 6.5e-4 of their energy
    outside the 17, and 6.5e-6 / 5.1e-5 / 2.8e-5 outside the 21. The mix
    depends on the geometry and the noise state only. Partly measured data
    (a mix does not keep a partial mask) and geometries that need every
    view, such as the 16x16 test ring's 8, come back as the same objects.

    The network is not invariant: it maps each row alone, with per-mode
    scales shared by all rows, so the kept rows should look like views.
    The rows of U_q^H do not (their energies span decades, and on the
    default eps 2 data they merged the map on 10 of 40 network seeds).
    The kept rows are therefore the orthonormal rows of the kept subspace
    closest to q evenly spaced physical views (orthogonal Procrustes: the
    polar factor of those views' rows of U_q), which leaves no trace of the
    basis and phases the decomposition happened to return.
    """
    if not data.mask.all():
        return data, e_inc, alpha0
    s = np.linalg.svd(data.matrix, compute_uv=False)
    share = NOISE_FREE_TAIL_ENERGY if s[-1] <= NOISE_FREE_RANK * s[0] else NOISY_TAIL_ENERGY
    n = e_inc.shape[0]
    flat = e_inc.reshape(n, -1)
    w, v = np.linalg.eigh(flat @ flat.conj().T)        # ascending
    u, tail = v[:, ::-1], np.cumsum(w)[::-1]           # descending; tail[k] = sum_{j>=k}
    q = int(np.count_nonzero(tail > share * tail[0]))
    if not 0 < q < n:
        return data, e_inc, alpha0
    u_q = u[:, :q]
    x, _, yh = np.linalg.svd(u_q[np.rint(np.arange(q) * n / q).astype(int)])
    mix = (x @ yh) @ u_q.conj().T
    rows = ScatteredData(matrix=mix @ data.matrix, snr_db=data.snr_db)
    fields = (mix @ flat).reshape((q,) + e_inc.shape[1:])
    return rows, fields, mix @ alpha0


# ----------------------------------------------------------------------
# Main loop


def reconstruct(config: ImagingConfig, data: ScatteredData,
                array: AntennaArray | None = None,
                chi_true: ComplexGrid | None = None) -> ReconstructionResult:
    """Full pipeline from measured data to a permittivity map.

    Deterministic under config.rng_seed. The result keeps the config and
    chi_true (when available), which feeds only its truth-based metrics and
    never influences the solve. The geometry comes from `Problem.build`,
    which reuses the last one built in this process.
    """
    t0 = time.perf_counter()
    problem = Problem.build(config, array)
    if data.matrix.shape != (problem.array.n_tx, problem.array.n_rx):
        raise ValueError(f"data matrix of shape {data.matrix.shape} does not match the antenna "
                         f"array of {problem.array.n_tx} transmitters and "
                         f"{problem.array.n_rx} receivers")
    grid_shape = (problem.grid.m1, problem.grid.m2)
    if chi_true is not None and chi_true.values.shape != grid_shape:
        raise ValueError(f"truth grid of shape {chi_true.values.shape} does not match the "
                         f"imaging grid of shape {grid_shape}")
    ctx = problem.loss_context(data)   # rejects unusable data before any numerics

    _, r0 = bp_initialize(data, problem.e_inc, problem.ops, config.beta)
    alpha0 = init_alpha(r0, data, problem.e_inc, problem.ops, problem.basis, config.beta,
                        maps=problem.maps)
    views, e_inc, alpha0 = principal_views(data, problem.e_inc.views, alpha0)
    if views is not data:
        ctx = problem.loss_context(views, e_inc)

    rng = np.random.default_rng(config.rng_seed)
    net = init_network(problem.basis.m0, rng)
    adam = AdamState.for_params(net, lr=config.learn_rate)

    trace: list[IterationRecord] = []
    for _ in range(config.k_iters):
        g, state = grad_loss(net, alpha0, ctx)
        net, adam = adam_step(adam, net, g)
        trace.append(IterationRecord(
            **vars(state.breakdown), grad_norm=adam.grad_norm, update_norm=adam.update_norm,
            n_clamped=int(np.count_nonzero(state.rec.chi.real < 0.0)),
            n_degenerate=int(np.count_nonzero(state.rec.degenerate))))

    alpha_hat = alpha0 + forward_net(net, alpha0)
    final = pipeline_forward(alpha_hat, ctx)
    final_bd = final.breakdown
    chi_hat = final.rec.chi
    chi_cco = apply_cco(chi_hat) if config.use_cco else chi_hat.copy()
    wall = time.perf_counter() - t0

    cs = problem.grid.cell_size
    return ReconstructionResult(chi_hat=ComplexGrid(chi_hat, cs),
                                chi_cco=ComplexGrid(chi_cco, cs), trace=trace,
                                final_loss=final_bd, wall_time=wall,
                                n_views=alpha0.shape[0], config=config, chi_true=chi_true)


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


def gap_mask(chi_true: np.ndarray, dilate: int = 5) -> np.ndarray:
    """Pixels between nearby scatterers where bridging artifacts would sit.

    Each 4-connected component of the true support is dilated separately;
    gap pixels are covered by at least two dilated components yet lie
    outside the support itself.
    """
    support = np.abs(chi_true) > 0
    labels, n = ndimage.label(support, structure=FOUR_CONN)
    cover = np.zeros(support.shape, dtype=np.int32)
    for lab in range(1, n + 1):
        cover += ndimage.binary_dilation(labels == lab, structure=FOUR_CONN,
                                         iterations=dilate).astype(np.int32)
    return (cover >= 2) & ~support


def spurious_gap_pixels(eps_map: np.ndarray, chi_true: np.ndarray,
                        threshold: float = SCATTERER_EPS, dilate: int = 5) -> int:
    mask = gap_mask(chi_true, dilate=dilate)
    return int(np.sum((np.real(eps_map) > threshold) & mask))


def result_metrics(result: ReconstructionResult) -> dict:
    """A reconstruction's reported numbers, `metrics.json` and every study row:
    each final loss term as `loss_<term>`, the `components` of Re eps above
    SCATTERER_EPS, the `n_below_one` pixels below 1. The truth-based
    `rel_error` and `gap_spurious` are read against the result's `chi_true`
    and are None without one."""
    eps = result.eps_r.real
    gap = None if result.chi_true is None else spurious_gap_pixels(eps, result.chi_true.values)
    return {"rel_error": result.rel_error,
            **{f"loss_{term}": value for term, value in vars(result.final_loss).items()},
            "components": count_components(eps, SCATTERER_EPS), "peak_eps": float(eps.max()),
            "min_eps": float(eps.min()), "n_below_one": int(np.sum(eps < 1.0)),
            "gap_spurious": gap, "views": result.n_views}
