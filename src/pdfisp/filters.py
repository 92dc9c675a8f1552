"""Edge-preserving post-processing of reconstructed contrast images.

The spectral truncation of the currents rolls off the amplitude of small
bright scatterers. A self-guided filter with a contrast-aware gain
compensates: pixels whose magnitude approaches the gain threshold get
boosted, while the background stays untouched.
"""
from __future__ import annotations

import numpy as np
from scipy.ndimage import uniform_filter
from scipy.special import expit as _sigmoid

from .config import CcoParams


def box_mean(img: np.ndarray, radius: int) -> np.ndarray:
    """Mean over (2r+1)^2 windows with edge-replicate padding, same shape.

    scipy's separable running-mean filter, so the cost is independent of
    the radius.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if img.ndim != 2:
        raise ValueError("box_mean expects a 2-D array")
    return uniform_filter(img, 2 * radius + 1, mode="nearest")


def guided_filter(inp: np.ndarray, guide: np.ndarray, radius: int, eps_gf: float) -> np.ndarray:
    """Local-linear-model filter of a real image steered by a real guide.

    Classic construction: per window, fit inp ~ a*guide + b with ridge
    eps_gf on a, then average the per-window (a, b) before applying them at
    each pixel.
    """
    if inp.shape != guide.shape:
        raise ValueError("input and guide must share a shape")
    mean_i = box_mean(guide, radius)
    mean_p = box_mean(inp, radius)
    corr_ip = box_mean(guide * inp, radius)
    corr_ii = box_mean(guide * guide, radius)
    cov_ip = corr_ip - mean_i * mean_p
    var_i = corr_ii - mean_i * mean_i
    a = cov_ip / (var_i + eps_gf)
    b = mean_p - a * mean_i
    return box_mean(a, radius) * guide + box_mean(b, radius)


def apply_cco(chi: np.ndarray, params: CcoParams) -> np.ndarray:
    """Contrast-compensated sharpening of a complex contrast image.

    Per-pixel gain eta = eta_max * sigmoid((|chi| - tau)/delta); the output
    is (1 + eta) * G(chi|chi) + eta * chi with G the self-guided filter
    applied to the real and imaginary channels separately.
    """
    chi = np.asarray(chi, dtype=np.complex128)
    eta = params.eta_max * _sigmoid((np.abs(chi) - params.tau) / params.delta)
    smoothed = (guided_filter(chi.real, chi.real, params.gf_radius, params.gf_eps)
                + 1j * guided_filter(chi.imag, chi.imag, params.gf_radius, params.gf_eps))
    return (1.0 + eta) * smoothed + eta * chi
