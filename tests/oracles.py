"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: direct summation, dense matrices,
scipy special functions. Slow but transparently correct, so the optimized
in-package code can be validated against it. Nothing in this module imports
from pdfisp, except `truncated_truth_coefficients`: a yardstick built on the
package's own forward solve, not a cross-check.
"""
import numpy as np
from scipy import special as sp


# ----------------------------------------------------------------------
# Analytic scattering by a centered homogeneous dielectric cylinder


def cylinder_reflection_coeffs(k0: float, eps_r: complex, radius: float,
                               n_terms: int) -> np.ndarray:
    """Cylindrical-harmonic reflection coefficients b_n, n = -N..N.

    Convention: outside field J_n(k0 r) + b_n H1_n(k0 r) per harmonic,
    inside c_n J_n(k1 r); continuity of the field and its radial
    derivative at r = radius (TM polarization, nonmagnetic media).
    """
    k1 = k0 * np.sqrt(complex(eps_r))
    a = radius
    n = np.arange(-n_terms, n_terms + 1)
    num = (k1 * sp.jvp(n, k1 * a) * sp.jv(n, k0 * a)
           - k0 * sp.jv(n, k1 * a) * sp.jvp(n, k0 * a))
    den = (k0 * sp.jv(n, k1 * a) * sp.h1vp(n, k0 * a)
           - k1 * sp.jvp(n, k1 * a) * sp.hankel1(n, k0 * a))
    return num / den


def cylinder_scattered(k0: float, eps_r: complex, radius: float,
                       tx_xy: np.ndarray, rx_xy: np.ndarray,
                       n_terms: int = 45) -> np.ndarray:
    """Scattered field matrix (n_tx, n_rx) for unit line sources.

    Each transmitter radiates E_inc(r) = (i/4) H1_0(k0 |r - r_tx|); the
    addition theorem turns that into harmonics J_n(k0 r) weighted by
    (i/4) H1_n(k0 r_tx) e^{-i n phi_tx}, so the scattered field observed
    at a receiver outside the cylinder is

        (i/4) sum_n b_n H1_n(k0 r_rx) H1_n(k0 r_tx) e^{i n (phi_rx - phi_tx)}.

    All antennas must lie outside the cylinder.
    """
    tx_xy = np.asarray(tx_xy, dtype=float)
    rx_xy = np.asarray(rx_xy, dtype=float)
    r_tx = np.hypot(tx_xy[:, 0], tx_xy[:, 1])
    r_rx = np.hypot(rx_xy[:, 0], rx_xy[:, 1])
    if (r_tx <= radius).any() or (r_rx <= radius).any():
        raise ValueError("antennas must sit outside the cylinder")
    phi_tx = np.arctan2(tx_xy[:, 1], tx_xy[:, 0])
    phi_rx = np.arctan2(rx_xy[:, 1], rx_xy[:, 0])

    n = np.arange(-n_terms, n_terms + 1)
    b = cylinder_reflection_coeffs(k0, eps_r, radius, n_terms)
    h_tx = sp.hankel1(n[None, :], k0 * r_tx[:, None])     # (n_tx, 2N+1)
    h_rx = sp.hankel1(n[None, :], k0 * r_rx[:, None])     # (n_rx, 2N+1)
    phase = np.exp(1j * np.outer(phi_rx, n))              # (n_rx, 2N+1)
    # sum over harmonics of b_n h_tx h_rx e^{i n (phi_rx - phi_tx)}
    w_tx = b[None, :] * h_tx * np.exp(-1j * np.outer(phi_tx, n))
    return 0.25j * (w_tx @ (h_rx * phase).T)


# ----------------------------------------------------------------------
# Direct discrete Fourier transforms (no FFT)


def dft2_direct(img: np.ndarray) -> np.ndarray:
    """Unnormalized forward 2-D DFT by explicit summation matrices."""
    m1, m2 = img.shape
    p = np.arange(m1)
    q = np.arange(m2)
    wr = np.exp(-2j * np.pi * np.outer(p, p) / m1)
    wc = np.exp(-2j * np.pi * np.outer(q, q) / m2)
    return wr @ img.astype(np.complex128) @ wc.T


def idft2_direct(spec: np.ndarray) -> np.ndarray:
    """Inverse 2-D DFT carrying the 1/(m1*m2) factor, by explicit matrices."""
    m1, m2 = spec.shape
    p = np.arange(m1)
    q = np.arange(m2)
    wr = np.exp(2j * np.pi * np.outer(p, p) / m1)
    wc = np.exp(2j * np.pi * np.outer(q, q) / m2)
    return (wr @ spec.astype(np.complex128) @ wc.T) / (m1 * m2)


def corner_mask(m1: int, m2: int, m_f: int) -> np.ndarray:
    """Boolean (m1, m2) mask of the four low-frequency corner blocks."""
    rows = np.zeros(m1, dtype=bool)
    cols = np.zeros(m2, dtype=bool)
    rows[:m_f] = rows[m1 - m_f:] = True
    cols[:m_f] = cols[m2 - m_f:] = True
    return np.outer(rows, cols)


def corner_indices(m1: int, m2: int, m_f: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) DFT indices of the 4*m_f**2 coefficients, in coefficient order.

    Blocks top-left, top-right, bottom-left, bottom-right; row-major
    inside each block.
    """
    rows, cols = [], []
    for r0 in (0, m1 - m_f):
        for c0 in (0, m2 - m_f):
            for r in range(r0, r0 + m_f):
                for c in range(c0, c0 + m_f):
                    rows.append(r)
                    cols.append(c)
    return np.array(rows), np.array(cols)


# ----------------------------------------------------------------------
# Dense domain Green operator from first principles


def dense_domain_greens(k0: float, centers: np.ndarray, cell_size: float) -> np.ndarray:
    """Integrated-square-cell discretization of the 2-D domain operator.

    Each cell is replaced by the equal-area disk of radius
    a = cell_size / sqrt(pi). Off-diagonal entries integrate the free-space
    kernel k0^2 (i/4) H1_0 over the source disk:
    (i pi k0 a / 2) J_1(k0 a) H1_0(k0 rho_mn); the self term is
    (i pi k0 a / 2) H1_1(k0 a) - 1.
    """
    a = cell_size / np.sqrt(np.pi)
    rho = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
    np.fill_diagonal(rho, 1.0)                 # placeholder, overwritten below
    g = 0.5j * np.pi * k0 * a * sp.jv(1, k0 * a) * sp.hankel1(0, k0 * rho)
    diag = 0.5j * np.pi * k0 * a * sp.hankel1(1, k0 * a) - 1.0
    np.fill_diagonal(g, diag)
    return g


def dense_measurement_greens(k0: float, centers: np.ndarray, cell_size: float,
                             rx_xy: np.ndarray) -> np.ndarray:
    """Receiver operator rows: same integrated-cell kernel, observation
    points on the measurement ring."""
    a = cell_size / np.sqrt(np.pi)
    rho = np.linalg.norm(rx_xy[:, None, :] - centers[None, :, :], axis=2)
    return 0.5j * np.pi * k0 * a * sp.jv(1, k0 * a) * sp.hankel1(0, k0 * rho)


def state_residuals(j: np.ndarray, e_inc: np.ndarray, gd: np.ndarray,
                    r_hat: np.ndarray, beta: float) -> np.ndarray:
    """Per-view contraction-form state residuals R*(E + beta*J) - beta*J.

    Rows of j and e_inc are per-view current and incident-field vectors
    (cells in row-major order), gd the dense domain operator, and
    E = E_inc + G_D J.
    """
    e = e_inc + j @ gd.T
    return r_hat * (e + beta * j) - beta * j


def loss_residual_terms(j: np.ndarray, e_inc: np.ndarray, gd: np.ndarray,
                        gs: np.ndarray, r_hat: np.ndarray, beta: float,
                        d: np.ndarray, mask: np.ndarray,
                        homogeneous: bool = False) -> tuple[float, float]:
    """Normalized state and data terms of the physics loss, by dense products.

    gs is the dense receiver operator, the rest as in `state_residuals`.
    The state term is ||state_residuals||^2 / ||E_inc||^2, summed over
    views; the data term is ||mask*(G_S J - d)||^2 / ||mask*d||^2.
    homogeneous=True drops E_inc and d from the residuals (not from the
    normalizers), leaving the linear part of the map.
    """
    keep = 0.0 if homogeneous else 1.0
    state = state_residuals(j, keep * e_inc, gd, r_hat, beta)
    data = mask * (j @ gs.T - keep * d)
    return (float(np.sum(np.abs(state) ** 2) / np.sum(np.abs(e_inc) ** 2)),
            float(np.sum(np.abs(data) ** 2) / np.sum(np.abs(mask * d) ** 2)))


def truncated_truth_coefficients(config, scene) -> np.ndarray:
    """Corner-block coefficients of the true currents chi_true * E, per view.

    E is the total field of `scene` from the package's forward solve on the
    inversion grid of `config`; the coefficients are the m_f corner blocks
    of each current's direct DFT, in coefficient order. A probe of the loss:
    it reads chi_true, so it may only report, never steer a solve.
    """
    from pdfisp.forward import solve_total_field
    from pdfisp.reconstruct import Problem
    from pdfisp.scenes import rasterize

    problem = Problem.build(config)
    chi = rasterize(scene, problem.grid)
    e_tot = solve_total_field(chi, problem.e_inc, problem.ops, tol=config.solver_tol,
                              maxiter=config.solver_maxiter)
    rows, cols = corner_indices(config.m1, config.m2, config.m_f)
    return np.stack([dft2_direct(chi.values * e)[rows, cols] for e in e_tot.views])


# ----------------------------------------------------------------------
# Windowed means and the guided filter, by direct loops


def box_mean_direct(img: np.ndarray, radius: int) -> np.ndarray:
    pad = np.pad(img, radius, mode="edge")
    out = np.empty(img.shape, dtype=np.asarray(img).dtype)
    w = 2 * radius + 1
    for i in range(img.shape[0]):
        for j in range(img.shape[1]):
            out[i, j] = pad[i:i + w, j:j + w].mean()
    return out


def guided_filter_direct(inp: np.ndarray, guide: np.ndarray, radius: int,
                         eps_gf: float) -> np.ndarray:
    mean_i = box_mean_direct(guide, radius)
    mean_p = box_mean_direct(inp, radius)
    var_i = box_mean_direct(guide * guide, radius) - mean_i * mean_i
    cov_ip = box_mean_direct(guide * inp, radius) - mean_i * mean_p
    a = cov_ip / (var_i + eps_gf)
    b = mean_p - a * mean_i
    return box_mean_direct(a, radius) * guide + box_mean_direct(b, radius)


# ----------------------------------------------------------------------
# Optimizer reference


def adam_sequence(x0: np.ndarray, grads: list[np.ndarray], lr: float = 1e-2,
                  b1: float = 0.9, b2: float = 0.999, eps: float = 1e-8) -> np.ndarray:
    """Apply a sequence of gradients with textbook bias-corrected updates."""
    x = np.array(x0, dtype=float, copy=True)
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
    return x


# ----------------------------------------------------------------------
# Finite differences


def central_diff(f, x: np.ndarray, indices, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function at selected entries
    of a flat real vector."""
    out = np.empty(len(indices))
    for k, i in enumerate(indices):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        out[k] = (f(xp) - f(xm)) / (2.0 * h)
    return out
