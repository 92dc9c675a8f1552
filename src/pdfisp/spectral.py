"""Truncated Fourier parameterization of induced-current images.

Currents are represented by the four m_f x m_f corner blocks of their 2-D
DFT plane (the lowest spatial frequencies, positive and negative). The DFT
convention is forward-unnormalized / inverse-scaled-by-1/(M1*M2), which
makes truncate(expand(alpha)) the exact identity and keeps coefficient
magnitudes grid-size-stable.

Block order is fixed (network weights are ordering-sensitive): top-left,
top-right, bottom-left, bottom-right in DFT index space, row-major inside
each block. Both maps are separable partial DFTs over the 2*m_f retained
frequencies per axis; no full-size spectrum is formed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forward import GreensOperators, apply_gd


def _inverse_dft_factor(m: int, m_f: int) -> np.ndarray:
    """(m, 2*m_f) inverse-DFT columns of frequencies 0..m_f-1, m-m_f..m-1, over m."""
    freqs = np.concatenate([np.arange(m_f), np.arange(m - m_f, m)])
    phase = np.outer(np.arange(m), freqs) % m     # exact, keeps the angle in [0, 2 pi)
    return np.exp(2j * np.pi * phase / m) / m


@dataclass(frozen=True)
class SpectralBasis:
    m1: int
    m2: int
    m_f: int
    row_factor: np.ndarray = field(init=False, repr=False, compare=False)  # (m1, 2*m_f)
    col_factor: np.ndarray = field(init=False, repr=False, compare=False)  # (m2, 2*m_f)

    def __post_init__(self):
        if self.m_f < 1 or 2 * self.m_f > min(self.m1, self.m2):
            raise ValueError("corner blocks must not overlap: need 2*m_f <= min(m1, m2)")
        object.__setattr__(self, "row_factor", _inverse_dft_factor(self.m1, self.m_f))
        object.__setattr__(self, "col_factor", _inverse_dft_factor(self.m2, self.m_f))

    @property
    def m0(self) -> int:
        """Coefficient count 4*m_f**2."""
        return 4 * self.m_f * self.m_f


def truncate(basis: SpectralBasis, j_view: np.ndarray) -> np.ndarray:
    """Corner-block DFT coefficients of one or more current images.

    Accepts (..., m1, m2); returns (..., m0). Forward DFT is unnormalized.
    """
    j_view = np.asarray(j_view)
    if j_view.shape[-2:] != (basis.m1, basis.m2):
        raise ValueError(f"expected trailing dims ({basis.m1}, {basis.m2})")
    f = basis.m_f
    lead = j_view.shape[:-2]
    # the column factor acts on all rows of all images as one flat GEMM
    cols = (j_view.reshape(-1, basis.m2) @ np.conj(basis.col_factor)).reshape(
        lead + (basis.m1, 2 * f))
    blocks = np.conj(basis.row_factor.T) @ cols
    blocks *= basis.m1 * basis.m2
    return blocks.reshape(lead + (2, f, 2, f)).swapaxes(-3, -2).reshape(lead + (basis.m0,))


def expand(basis: SpectralBasis, alpha: np.ndarray) -> np.ndarray:
    """Current image(s) whose DFT is alpha on the corner blocks, zero elsewhere.

    Accepts (..., m0); returns (..., m1, m2). Inverse DFT carries the
    1/(M1*M2) factor, so truncate(expand(alpha)) == alpha.
    """
    alpha = np.asarray(alpha, dtype=np.complex128)
    if alpha.shape[-1] != basis.m0:
        raise ValueError(f"expected trailing dim {basis.m0}")
    f = basis.m_f
    lead = alpha.shape[:-1]
    blocks = alpha.reshape(lead + (2, 2, f, f)).swapaxes(-3, -2).reshape(lead + (2 * f, 2 * f))
    rows = (basis.row_factor @ blocks).reshape(-1, 2 * f)
    # the column factor acts on all rows of all images as one flat GEMM
    return (rows @ basis.col_factor.T).reshape(lead + (basis.m1, basis.m2))


def truncate_adjoint_scale(basis: SpectralBasis) -> float:
    """Constant c with <expand(alpha), x> = c * <alpha, truncate(x)>.

    Under the fixed convention c = 1/(m1*m2); gradient code relies on it.
    """
    return 1.0 / (basis.m1 * basis.m2)


@dataclass(frozen=True)
class SpectralOperators:
    """Dense coefficient-space maps of one geometry and spectral basis.

    With B = expand(I) (J = alpha B, not stored: `expand` is cheaper), row
    k of each map is the image of the k-th unit coefficient vector:

    - fields    K = G_D B,     shape (m0, m1*m2): G_D J = alpha @ K
    - receivers S = B G_S^T,   shape (m0, n_rx):  G_S J = alpha @ S

    The coefficient space has only m0 = 4*m_f**2 dimensions, so a dense
    product replaces the padded FFT convolution of apply_gd in the inner
    loop. The adjoints (convention g(u) = A^H g(v) for v = A u) are
    products with the conjugate transposes, see `coefficient_grad`.
    """

    fields: np.ndarray
    receivers: np.ndarray
    basis: SpectralBasis

    @classmethod
    def build(cls, ops: GreensOperators, basis: SpectralBasis) -> "SpectralOperators":
        """Precompute the maps for Green's operators `ops` (m0 FFT convolutions)."""
        if (ops.m1, ops.m2) != (basis.m1, basis.m2):
            raise ValueError(f"Green's operators on a {ops.m1}x{ops.m2} grid and spectral basis "
                             f"on a {basis.m1}x{basis.m2} grid disagree in grid size")
        b_img = expand(basis, np.eye(basis.m0, dtype=np.complex128))
        b_rows = b_img.reshape(basis.m0, -1)
        return cls(fields=apply_gd(ops, b_img).reshape(basis.m0, -1),
                   receivers=b_rows @ ops.gs_matrix.T, basis=basis)

    def scattered_field(self, alpha: np.ndarray) -> np.ndarray:
        """Domain fields G_D J, shape (n, m1, m2)."""
        return (alpha @ self.fields).reshape(alpha.shape[:-1] + (self.basis.m1, self.basis.m2))

    def measure(self, alpha: np.ndarray) -> np.ndarray:
        """Receiver fields G_S J, shape (n, n_rx)."""
        return alpha @ self.receivers

    def coefficient_grad(self, g_j: np.ndarray, g_e: np.ndarray,
                         g_rows: np.ndarray) -> np.ndarray:
        """Pull gradients on J, on G_D J and on G_S J back to the coefficients.

        Returns B^H g_j + K^H g_e + S^H g_rows in row form, shape (n, m0).
        B^H g_j is truncate(g_j) / (m1*m2), see `truncate_adjoint_scale`.
        For the dense maps, conjugating the (n, .) gradients is cheaper than
        the (m0, .) maps; the K product runs as K @ conj(g_e)^T, which keeps
        K as the row-major left operand and is faster than conj(g_e) @ K^T.
        """
        n = g_rows.shape[0]
        acc = (self.fields @ np.conj(g_e).reshape(n, -1).T).T
        acc += np.conj(g_rows) @ self.receivers.T
        return np.conj(acc) + truncate_adjoint_scale(self.basis) * truncate(self.basis, g_j)
