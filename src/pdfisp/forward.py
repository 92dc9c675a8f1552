"""Method-of-moments forward model for 2-D TM scattering.

Pulse-basis / point-matching discretization of the Lippmann-Schwinger
equations with the equivalent-circle cell quadrature: each square cell is
replaced by the equal-area disk (radius a = cell_size/sqrt(pi)), for which
the Green's integrals have closed Bessel/Hankel forms. The domain operator
G_D is block-Toeplitz and is applied through a padded FFT convolution; the
receiver operator G_S is a small dense matrix.

Time convention exp(-i*omega*t); the scalar Green's function is
g(r, r') = (i/4) * H0(k0 |r - r'|) with H0 the first-kind Hankel function.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace as dc_replace

import numpy as np
import scipy.fft as sfft
from scipy.special import j0, j1, y0, y1

from .config import ImagingConfig
from .geometry import AntennaArray, ComplexGrid, GridGeometry, build_array, build_grid
from .scenes import Scene, rasterize

DENSE_MAX_CELLS = 1024      # LU up to here: 32x32 takes ~0.1 s, GMRES 0.4-2.5 s
GMRES_RESTART = 100         # restart 30 needs 7-10x more matvecs at eps 5


class GeometryError(ValueError):
    """Raised when antennas sit too close to (or inside) grid cells."""


class NoConvergenceError(RuntimeError):
    """Raised when the Krylov forward solve exceeds its iteration cap."""


@dataclass(frozen=True)
class FieldSet:
    """Per-transmitter stacks of complex field images, shape (n_views, m1, m2).

    residuals (when present) stores the relative equation residual of each
    solved view.
    """

    views: np.ndarray
    residuals: np.ndarray | None = None

    @property
    def n_views(self) -> int:
        return self.views.shape[0]


@dataclass
class ScatteredData:
    """Measured scattered fields, shape (n_views, n_rx).

    mask marks which entries were actually measured (None means all);
    unmeasured entries are zero and excluded from every data residual.
    """

    matrix: np.ndarray
    snr_db: float | None = None
    mask: np.ndarray | None = None


@dataclass(frozen=True)
class GreensOperators:
    """Discretized Green's operators for one geometry.

    gd_kernel is the (2*m1, 2*m2) circular-convolution kernel indexed by
    cell displacement (row/column offsets modulo the padded size); its
    [0, 0] entry is the analytic self term. gd_kernel_hat caches its 2-D
    FFT. gs_matrix maps flattened cell currents to receiver fields.
    """

    gd_kernel: np.ndarray
    gd_kernel_hat: np.ndarray
    gs_matrix: np.ndarray
    m1: int
    m2: int

    @property
    def n_cells(self) -> int:
        return self.m1 * self.m2


# ----------------------------------------------------------------------
# Operator construction


def hankel1_0(x: np.ndarray) -> np.ndarray:
    """Outgoing cylinder wave H0 = J0 + i*Y0 for real x > 0.

    Cheaper than scipy.special.hankel1(0, x), which takes the complex-argument
    path, for the same values.
    """
    return j0(x) + 1j * y0(x)


def line_source(k0: float, d: np.ndarray) -> np.ndarray:
    """Field (i/4) * H0(k0 d) of a unit line source at distances d > 0."""
    return 0.25j * hankel1_0(k0 * d)


def build_greens(config: ImagingConfig, array: AntennaArray, grid: GridGeometry) -> GreensOperators:
    """Assemble the domain kernel and the receiver matrix.

    The off-diagonal cell integral is (i*pi*k0*a/2) * J1(k0*a) * H0(k0*rho)
    and the self integral is (i*pi*k0*a/2) * H1(k0*a) - 1, both exact for
    the equal-area disk of radius a = cell_size/sqrt(pi).
    """
    k0 = config.wavenumber
    cs = grid.cell_size
    a = cs / np.sqrt(np.pi)
    coef = 1j * np.pi * k0 * a / 2.0

    # displacement kernel on the doubled grid; row m1 / col m2 are never
    # reached by valid displacements and stay zero
    m1, m2 = grid.m1, grid.m2
    di = np.arange(2 * m1)
    dj = np.arange(2 * m2)
    di = np.where(di < m1, di, di - 2 * m1).astype(float)
    dj = np.where(dj < m2, dj, dj - 2 * m2).astype(float)
    rho = cs * np.hypot(di[:, None], dj[None, :])
    kernel = np.zeros((2 * m1, 2 * m2), dtype=np.complex128)
    off = rho > 0
    kernel[off] = coef * j1(k0 * a) * hankel1_0(k0 * rho[off])
    kernel[0, 0] = coef * (j1(k0 * a) + 1j * y1(k0 * a)) - 1.0
    kernel[m1, :] = 0.0
    kernel[:, m2] = 0.0

    # receiver matrix: same off-diagonal integral evaluated at rx positions
    d_rx = np.linalg.norm(array.rx_positions[:, None, :] - grid.centers[None, :, :], axis=2)
    if (d_rx < cs / 2.0).any():
        raise GeometryError("a receiver lies inside the pixel grid")
    gs = coef * j1(k0 * a) * hankel1_0(k0 * d_rx)

    return GreensOperators(gd_kernel=kernel, gd_kernel_hat=sfft.fft2(kernel),
                           gs_matrix=gs, m1=m1, m2=m2)


def apply_gd(ops: GreensOperators, x: np.ndarray) -> np.ndarray:
    """G_D applied to one or more images, shape (..., m1, m2) -> same."""
    m1, m2 = ops.m1, ops.m2
    pad = np.zeros(x.shape[:-2] + (2 * m1, 2 * m2), dtype=np.complex128)
    pad[..., :m1, :m2] = x
    out = sfft.ifft2(sfft.fft2(pad, axes=(-2, -1)) * ops.gd_kernel_hat, axes=(-2, -1))
    return out[..., :m1, :m2]


def dense_gd_matrix(ops: GreensOperators) -> np.ndarray:
    """Explicit (M, M) domain operator for small grids (tests, LU solves).

    Entry (p, q) is the kernel at the wrapped displacement of cells p and q
    (row-major cell order), the same entries the FFT application uses.
    """
    if ops.n_cells > 4096:
        raise ValueError("dense G_D limited to grids of at most 4096 cells")
    i, j = np.divmod(np.arange(ops.n_cells), ops.m2)
    return ops.gd_kernel[(i[:, None] - i[None, :]) % (2 * ops.m1),
                         (j[:, None] - j[None, :]) % (2 * ops.m2)]


# ----------------------------------------------------------------------
# Fields


def incident_fields(config: ImagingConfig, array: AntennaArray, grid: GridGeometry) -> FieldSet:
    """Unit line-source illumination: E(r) = (i/4) * H0(k0 |r - r_tx|)."""
    d = np.linalg.norm(array.tx_positions[:, None, :] - grid.centers[None, :, :], axis=2)
    if (d <= 0).any():
        raise GeometryError("a transmitter coincides with a cell center")
    views = line_source(config.wavenumber, d)
    return FieldSet(views=views.reshape(array.n_tx, grid.m1, grid.m2))


def _solve_dense(chi: np.ndarray, e_inc: np.ndarray, ops: GreensOperators) -> np.ndarray:
    gd = dense_gd_matrix(ops)
    m = gd.shape[0]
    a_mat = np.eye(m, dtype=np.complex128) - gd * chi.ravel()[None, :]
    sol = np.linalg.solve(a_mat, e_inc.reshape(-1, m).T)
    return sol.T.reshape(e_inc.shape)


def _solve_gmres(chi: np.ndarray, b: np.ndarray, ops: GreensOperators,
                 tol: float, maxiter: int) -> np.ndarray:
    """Restarted GMRES on (I - G_D chi) x = b, one view at a time.

    maxiter caps the Krylov iterations per view; the restart length is
    GMRES_RESTART, or maxiter when that is smaller.
    """
    # imported here: scipy.sparse adds about 0.1 s to `import pdfisp`
    from scipy.sparse.linalg import LinearOperator, gmres

    shape = b.shape[-2:]
    n = chi.size

    def op(v):
        return v - apply_gd(ops, chi * v.reshape(shape)).ravel()

    a_op = LinearOperator((n, n), matvec=op, dtype=np.complex128)
    restart = min(GMRES_RESTART, maxiter)
    cycles = -(-maxiter // restart)
    x = np.empty_like(b)
    failed = 0
    for view in range(b.shape[0]):
        sol, info = gmres(a_op, b[view].ravel(), rtol=tol, atol=0.0,
                          restart=restart, maxiter=cycles)
        x[view] = sol.reshape(shape)
        failed += info > 0
    if failed:
        worst = _relative_residuals(chi, x, b, ops).max()
        raise NoConvergenceError(
            f"forward solve: {failed} view(s) above tol after {maxiter} "
            f"iterations (max residual {worst:.3e})")
    return x


def solve_total_field(chi: ComplexGrid, e_inc: FieldSet, ops: GreensOperators,
                      tol: float = 1e-8, maxiter: int = 2000) -> FieldSet:
    """Solve the state equation E = E_inc + G_D(chi * E) for every view.

    Grids of at most DENSE_MAX_CELLS cells assemble the explicit operator
    and LU-solve all views at once; larger grids run restarted GMRES per
    view with the FFT-applied G_D, stopping at relative residual tol and
    raising NoConvergenceError past maxiter iterations on any view.
    """
    chi_arr = chi.values
    b = e_inc.views
    if chi_arr.shape != b.shape[-2:]:
        raise ValueError("contrast grid and incident views disagree in shape")
    if chi_arr.size <= DENSE_MAX_CELLS:
        x = _solve_dense(chi_arr, b, ops)
    else:
        x = _solve_gmres(chi_arr, b, ops, tol, maxiter)
    return FieldSet(views=x, residuals=_relative_residuals(chi_arr, x, b, ops))


def _relative_residuals(chi: np.ndarray, e_tot: np.ndarray, e_inc: np.ndarray,
                        ops: GreensOperators) -> np.ndarray:
    num = e_tot - e_inc - apply_gd(ops, chi * e_tot)
    nn = np.sqrt(np.einsum("nij,nij->n", np.conj(num), num).real)
    dd = np.sqrt(np.einsum("nij,nij->n", np.conj(e_inc), e_inc).real)
    return nn / np.where(dd > 0, dd, 1.0)


def synthesize_scattered(chi: ComplexGrid, e_tot: FieldSet, ops: GreensOperators) -> ScatteredData:
    """Receiver measurements E_sca = G_S (chi * E_tot), one row per view."""
    j = (chi.values * e_tot.views).reshape(e_tot.n_views, -1)
    if j.shape[1] != ops.gs_matrix.shape[1]:
        raise ValueError("current vectors and G_S disagree in size")
    return ScatteredData(matrix=j @ ops.gs_matrix.T)


def apply_gs_adjoint(ops: GreensOperators, rows: np.ndarray) -> np.ndarray:
    """G_S^H applied to receiver vectors (..., n_rx) -> (..., m1, m2) images."""
    out = rows @ np.conj(ops.gs_matrix)
    return out.reshape(rows.shape[:-1] + (ops.m1, ops.m2))


def add_awgn(data: ScatteredData, snr_db: float, rng: np.random.Generator) -> ScatteredData:
    """Inject circular white Gaussian noise at the stated signal-to-noise ratio.

    The expected total noise power equals the total signal power divided by
    10^(snr_db/10), both over the measured entries (all of them without a
    mask); unmeasured entries stay zero. An infinite snr_db returns the data
    unchanged.
    """
    if np.isinf(snr_db):
        return ScatteredData(matrix=data.matrix.copy(), snr_db=float("inf"), mask=data.mask)
    shape = data.matrix.shape
    n_meas = data.matrix.size if data.mask is None else np.count_nonzero(data.mask)
    p_sig = np.vdot(data.matrix, data.matrix).real
    var = p_sig / (n_meas * 10.0 ** (snr_db / 10.0))
    s = np.sqrt(var / 2.0)
    noise = rng.normal(0.0, s, shape) + 1j * rng.normal(0.0, s, shape)
    if data.mask is not None:
        noise = np.where(data.mask, noise, 0.0)
    return ScatteredData(matrix=data.matrix + noise, snr_db=snr_db, mask=data.mask)


# ----------------------------------------------------------------------
# One-call synthetic dataset


@dataclass
class SimulationResult:
    data: ScatteredData
    chi_true: ComplexGrid


def simulate(config: ImagingConfig, scene: Scene, snr_db: float = float("inf"),
             rng: np.random.Generator | None = None,
             array: AntennaArray | None = None) -> SimulationResult:
    """Rasterize, solve, measure, and (optionally) add noise.

    With config.fine_forward the fields are solved on a 2x finer grid to
    keep simulated data off the inversion grid; chi_true is always returned
    on the inversion grid.
    """
    # _solve_gmres's import, made before the operators are built: made
    # mid-solve, its long-lived objects pin about 20 MB of freed solver
    # scratch memory for the rest of the process
    import scipy.sparse.linalg  # noqa: F401
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    if array is None:
        array = build_array(config)
    chi_true = rasterize(scene, build_grid(config))
    sim_cfg = config
    if config.fine_forward:
        sim_cfg = dc_replace(config, m1=2 * config.m1, m2=2 * config.m2,
                             ring_radius=config.radius, fine_forward=False)
    grid = build_grid(sim_cfg)
    chi_sim = chi_true if sim_cfg is config else rasterize(scene, grid)
    ops = build_greens(sim_cfg, array, grid)
    e_inc = incident_fields(sim_cfg, array, grid)

    e_tot = solve_total_field(chi_sim, e_inc, ops, tol=sim_cfg.solver_tol,
                              maxiter=sim_cfg.solver_maxiter)
    data = synthesize_scattered(chi_sim, e_tot, ops)
    worst = float(e_tot.residuals.max())
    if worst > sim_cfg.solver_tol * 10:
        warnings.warn(f"forward residual {worst:.2e} above tolerance")
    data = add_awgn(data, snr_db, rng)
    return SimulationResult(data=data, chi_true=chi_true)
