"""Method-of-moments forward model for 2-D TM scattering.

Pulse-basis / point-matching discretization of the Lippmann-Schwinger
equations with the equivalent-circle cell quadrature: each square cell is
replaced by the equal-area disk (radius a = cell_size/sqrt(pi)), for which
the Green's integrals have closed Bessel/Hankel forms. The domain operator
G_D is block-Toeplitz and is applied through a padded FFT convolution; the
receiver operator G_S is a small dense matrix.

The state equation E = E_inc + G_D(chi E) couples only the support, the
cells with nonzero contrast. When the support has at most DENSE_MAX_CELLS
cells, it is solved there: one complex64 LU of I - G_SS diag(chi_S) serves
every view, and refinement on the support unknowns applies G_D once per step,
which gives both the field on the whole grid and the next residual. Larger
supports run restarted GMRES per view on the whole grid.

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

DENSE_MAX_CELLS = 2048      # support cells LU-solved: a 33.5 MB complex64 factor
GMRES_RESTART = 100         # restart 30 needs 7-10x more matvecs at eps 5
GD_CHUNK = 4                # images per padded FFT in apply_gd
LU_BLOCK = 128              # support-matrix columns assembled at a time


class GeometryError(ValueError):
    """Raised when antennas sit too close to (or inside) grid cells."""


class NoConvergenceError(RuntimeError):
    """Raised when a forward solve exceeds its iteration cap above tol."""


@dataclass(frozen=True)
class FieldSet:
    """Per-transmitter stacks of complex field images, shape (n_views, m1, m2).

    A solved set also records the relative equation residual of each view,
    the path that solved it ("support-lu" or "gmres") and its steps, which
    count G_D applications on both paths: "support-lu" refines on the
    support with one application (of all views) per step, "gmres" sums its
    applications over the views.
    """

    views: np.ndarray
    residuals: np.ndarray | None = None
    path: str | None = None
    steps: int = 0

    @property
    def n_views(self) -> int:
        return self.views.shape[0]


@dataclass
class ScatteredData:
    """Measured scattered fields, shape (n_views, n_rx).

    mask, a boolean array of the matrix's shape, marks the measured entries
    (all of them when not given); `masked` is the one rule that keeps the
    unmeasured ones, whatever they hold, out of residuals, powers and noise.
    """

    matrix: np.ndarray
    snr_db: float | None = None
    mask: np.ndarray | None = None

    def __post_init__(self):
        shape, given = np.shape(self.matrix), self.mask
        self.mask = np.ones(shape, bool) if given is None else np.asarray(given, bool)
        if self.mask.shape != shape:
            raise ValueError(f"mask shape {self.mask.shape} differs from matrix shape {shape}")

    def masked(self, rows: np.ndarray) -> np.ndarray:
        """Receiver rows (n_views, n_rx) with the unmeasured entries zeroed."""
        return np.where(self.mask, rows, 0)


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
    """G_D applied to one or more images, shape (..., m1, m2) -> same.

    A stack is transformed GD_CHUNK images at a time into one output, so
    the padded FFT scratch is a few images deep, not the whole stack.
    """
    m1, m2 = ops.m1, ops.m2
    flat = x.reshape(-1, m1, m2)
    out = np.empty(flat.shape, dtype=np.complex128)
    for k in range(0, len(flat), GD_CHUNK):
        chunk = flat[k:k + GD_CHUNK]
        pad = np.zeros((len(chunk), 2 * m1, 2 * m2), dtype=np.complex128)
        pad[:, :m1, :m2] = chunk
        spec = sfft.fft2(pad, overwrite_x=True)
        spec *= ops.gd_kernel_hat
        out[k:k + GD_CHUNK] = sfft.ifft2(spec, overwrite_x=True)[:, :m1, :m2]
    return out.reshape(x.shape)


def _gd_entries(ops: GreensOperators, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """G_D entries between row-major cells p and q (broadcast together): the
    kernel at their displacement, as the FFT application uses it.

    One gather from the unwrapped (2*m1-1, 2*m2-1) kernel, whose entry
    (di + m1-1, dj + m2-1) belongs to displacement (di, dj).
    """
    m1, m2 = ops.m1, ops.m2
    width = 2 * m2 - 1
    unwrapped = np.roll(ops.gd_kernel, (m1 - 1, m2 - 1), axis=(0, 1))[:2 * m1 - 1, :width]
    (pi, pj), (qi, qj) = np.divmod(p, m2), np.divmod(q, m2)
    return unwrapped.ravel().take((pi + m1 - 1) * width + pj + m2 - 1 - (qi * width + qj))


def dense_gd_matrix(ops: GreensOperators) -> np.ndarray:
    """Explicit (M, M) domain operator for small grids (tests)."""
    if ops.n_cells > 4096:
        raise ValueError("dense G_D limited to grids of at most 4096 cells")
    cells = np.arange(ops.n_cells)
    return _gd_entries(ops, cells[:, None], cells[None, :])


# ----------------------------------------------------------------------
# Fields


def incident_fields(config: ImagingConfig, array: AntennaArray, grid: GridGeometry) -> FieldSet:
    """Unit line-source illumination: E(r) = (i/4) * H0(k0 |r - r_tx|)."""
    d = np.linalg.norm(array.tx_positions[:, None, :] - grid.centers[None, :, :], axis=2)
    if (d <= 0).any():
        raise GeometryError("a transmitter coincides with a cell center")
    views = line_source(config.wavenumber, d)
    return FieldSet(views=views.reshape(array.n_tx, grid.m1, grid.m2))


def _support_lu(chi_s: np.ndarray, support: np.ndarray, ops: GreensOperators):
    """LU factor of A_S = I - G_SS diag(chi_S) over the support cells.

    Stored as complex64 in Fortran order and factored in place. The columns
    are assembled LU_BLOCK at a time, each block one gather written as
    contiguous rows of A_S^T, so no complex128 copy of A_S exists.
    """
    from scipy.linalg import lu_factor

    n = support.size
    a_t = np.empty((n, n), dtype=np.complex64)
    for k in range(0, n, LU_BLOCK):
        cols = slice(k, k + LU_BLOCK)
        np.multiply(_gd_entries(ops, support[None, :], support[cols, None]),
                    -chi_s[cols, None], out=a_t[cols], casting="same_kind")
    a_t.flat[::n + 1] += 1.0
    return lu_factor(a_t.T, overwrite_a=True, check_finite=False)


def _solve_support(chi: np.ndarray, support: np.ndarray, b: np.ndarray,
                   ops: GreensOperators, tol: float,
                   maxiter: int) -> tuple[np.ndarray, np.ndarray, int]:
    """E = E_inc + G_D(chi E) through one LU on the support, for all views.

    Iterative refinement on the support unknowns E_S (complex128). Each step
    solves A_S d_S = r_S with the complex64 factor, adds d_S to E_S and
    applies G_D once, y = G_D(chi E): the field is E_inc + y off the support
    and E_S on it, and the residual E_inc - E + y is zero off the support.
    Steps stop once every view's relative residual is at most tol;
    NoConvergenceError is raised after maxiter steps, or when a step does not
    lower the worst residual (the single-precision factor is then too
    inaccurate to refine). Returns the fields, their relative residuals and
    the number of steps, which is the number of G_D applications.
    """
    from scipy.linalg import lu_solve

    n_views = b.shape[0]
    if support.size == 0:
        return b.copy(), np.zeros(n_views), 0
    chi_s = chi.ravel()[support]
    factor = _support_lu(chi_s, support, ops)
    e_s = np.zeros((n_views, support.size), dtype=np.complex128)
    r_s = b.reshape(n_views, -1)[:, support]
    src = np.zeros(b.shape, dtype=np.complex128)
    worst, steps = np.inf, 0
    while True:
        e_s += lu_solve(factor, r_s.T.astype(np.complex64), overwrite_b=True,
                        check_finite=False).T
        src.reshape(n_views, -1)[:, support] = e_s * chi_s
        e_tot = r_s = None          # the previous step's buffers, freed before G_D
        e_tot = apply_gd(ops, src)
        e_tot += b
        e_flat = e_tot.reshape(n_views, -1)
        r_s = e_flat[:, support] - e_s
        e_flat[:, support] = e_s
        steps += 1
        rel = _relative_norms(r_s, b)
        last, worst = worst, rel.max()
        # a step that does not lower the worst residual (or a nonfinite one) ends it
        if worst <= tol or steps >= maxiter or not worst < last:
            break
    if not worst <= tol:
        raise NoConvergenceError(
            f"forward solve: {np.count_nonzero(~(rel <= tol))} view(s) above tol after "
            f"{steps} support LU refinement step(s) (max residual {worst:.3e})")
    return e_tot, rel, steps


def _solve_gmres(chi: np.ndarray, b: np.ndarray, ops: GreensOperators,
                 tol: float, maxiter: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Restarted GMRES on (I - G_D chi) x = b, one view at a time.

    maxiter caps the Krylov iterations per view; the restart length is
    GMRES_RESTART, or maxiter when that is smaller. Returns the fields, their
    relative residuals and the number of G_D applications over all views.
    """
    # imported here: scipy.sparse adds about 0.1 s to `import pdfisp`
    from scipy.sparse.linalg import LinearOperator, gmres

    shape = b.shape[-2:]
    n = chi.size
    matvecs = 0

    def op(v):
        nonlocal matvecs
        matvecs += 1
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
    rel = _relative_norms(_state_residual(chi, x, b, ops), b)
    if failed:
        raise NoConvergenceError(
            f"forward solve: {failed} view(s) above tol after {maxiter} "
            f"iterations (max residual {rel.max():.3e})")
    return x, rel, matvecs


def solve_total_field(chi: ComplexGrid, e_inc: FieldSet, ops: GreensOperators,
                      tol: float = 1e-8, maxiter: int = 2000) -> FieldSet:
    """Solve the state equation E = E_inc + G_D(chi * E) for every view.

    Every path stops at relative residual tol and raises NoConvergenceError
    past the cap maxiter, whose default is the one `simulate` runs with. A
    support of at most DENSE_MAX_CELLS cells is LU-solved for all views at
    once and refined, and maxiter caps the refinement steps; a larger one
    runs restarted GMRES per view with the FFT-applied G_D, and maxiter caps
    the iterations per view.
    """
    chi_arr = chi.values
    b = e_inc.views
    if chi_arr.shape != b.shape[-2:]:
        raise ValueError(f"contrast grid of shape {chi_arr.shape} and incident views of "
                         f"shape {b.shape} disagree in shape")
    support = np.flatnonzero(chi_arr)
    if support.size <= DENSE_MAX_CELLS:
        path, solved = "support-lu", _solve_support(chi_arr, support, b, ops, tol, maxiter)
    else:
        path, solved = "gmres", _solve_gmres(chi_arr, b, ops, tol, maxiter)
    x, residuals, steps = solved
    return FieldSet(views=x, residuals=residuals, path=path, steps=steps)


def _state_residual(chi: np.ndarray, e_tot: np.ndarray, e_inc: np.ndarray,
                    ops: GreensOperators) -> np.ndarray:
    """E_inc - E + G_D(chi E) per view: zero for the exact total field."""
    r = apply_gd(ops, chi * e_tot)
    r += e_inc
    r -= e_tot
    return r


def _relative_norms(r: np.ndarray, e_inc: np.ndarray) -> np.ndarray:
    """Per-view norm of r over that of E_inc (over 1 for a zero E_inc); r may
    hold only the nonzero part of each view, shape (n_views, ...)."""
    r = r.reshape(len(r), -1)
    e_inc = e_inc.reshape(len(e_inc), -1)
    num = np.sqrt(np.einsum("ij,ij->i", np.conj(r), r).real)
    den = np.sqrt(np.einsum("ij,ij->i", np.conj(e_inc), e_inc).real)
    return num / np.where(den > 0, den, 1.0)


def synthesize_scattered(chi: ComplexGrid, e_tot: FieldSet, ops: GreensOperators) -> ScatteredData:
    """Receiver measurements E_sca = G_S (chi * E_tot), one row per view."""
    j = (chi.values * e_tot.views).reshape(e_tot.n_views, -1)
    if j.shape[1] != ops.gs_matrix.shape[1]:
        raise ValueError(f"current vectors of length {j.shape[1]} and G_S of shape "
                         f"{ops.gs_matrix.shape} disagree in size")
    return ScatteredData(matrix=j @ ops.gs_matrix.T)


def apply_gs_adjoint(ops: GreensOperators, rows: np.ndarray) -> np.ndarray:
    """G_S^H applied to receiver vectors (..., n_rx) -> (..., m1, m2) images."""
    out = rows @ np.conj(ops.gs_matrix)
    return out.reshape(rows.shape[:-1] + (ops.m1, ops.m2))


def add_awgn(data: ScatteredData, snr_db: float, rng: np.random.Generator) -> ScatteredData:
    """Inject circular white Gaussian noise at the stated signal-to-noise ratio.

    The expected total noise power equals the total signal power divided by
    10^(snr_db/10), both over the measured entries; unmeasured entries get
    no noise. An snr_db of +inf returns the data unchanged; NaN and -inf
    raise ValueError.
    """
    if np.isnan(snr_db) or snr_db == -np.inf:
        raise ValueError(f"snr_db must be finite or +inf, got {snr_db}")
    if snr_db == np.inf:
        return ScatteredData(matrix=data.matrix.copy(), snr_db=float("inf"), mask=data.mask)
    shape = data.matrix.shape
    signal = data.masked(data.matrix)
    p_sig = np.vdot(signal, signal).real
    var = p_sig / (np.count_nonzero(data.mask) * 10.0 ** (snr_db / 10.0))
    s = np.sqrt(var / 2.0)
    noise = rng.normal(0.0, s, shape) + 1j * rng.normal(0.0, s, shape)
    return ScatteredData(matrix=data.matrix + data.masked(noise), snr_db=snr_db,
                         mask=data.mask)


# ----------------------------------------------------------------------
# One-call synthetic dataset


@dataclass
class SimulationResult:
    """A simulated dataset, its truth on the inversion grid, and how hard the
    forward solve worked: the relative residual per view, the solver path
    and its step count (see FieldSet)."""

    data: ScatteredData
    chi_true: ComplexGrid
    solver_residuals: np.ndarray
    solver_path: str
    solver_steps: int


# the config fields `simulate` reads: configs that agree on these (and on the
# scene and the array passed in) give the same noise-free dataset
SIMULATE_FIELDS = ("frequency", "doi_side", "m1", "m2", "n_tx", "n_rx", "ring_radius",
                   "solver_tol", "fine_forward")


def simulate(config: ImagingConfig, scene: Scene, snr_db: float = float("inf"),
             rng: np.random.Generator | None = None,
             array: AntennaArray | None = None) -> SimulationResult:
    """Rasterize, solve, measure, and (optionally) add noise.

    With config.fine_forward the fields are solved on a 2x finer grid to
    keep simulated data off the inversion grid; chi_true is always returned
    on the inversion grid.
    """
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
    # the solver's scipy import, made before the operators are built: made
    # mid-solve, its long-lived objects pin about 20 MB of freed solver
    # scratch memory for the rest of the process
    if np.count_nonzero(chi_sim.values) > DENSE_MAX_CELLS:
        import scipy.sparse.linalg  # noqa: F401
    else:
        import scipy.linalg  # noqa: F401
    ops = build_greens(sim_cfg, array, grid)
    e_inc = incident_fields(sim_cfg, array, grid)

    e_tot = solve_total_field(chi_sim, e_inc, ops, tol=sim_cfg.solver_tol)
    data = synthesize_scattered(chi_sim, e_tot, ops)
    worst = float(e_tot.residuals.max())
    if worst > sim_cfg.solver_tol * 10:
        warnings.warn(f"forward residual {worst:.2e} above tolerance")
    data = add_awgn(data, snr_db, rng)
    return SimulationResult(data=data, chi_true=chi_true, solver_residuals=e_tot.residuals,
                            solver_path=e_tot.path, solver_steps=e_tot.steps)
