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

# the fixed settings of `apply_cco`: gain threshold, ceiling and transition
# width; self-guided filter radius (pixels) and ridge
CCO_TAU = 3.0
CCO_ETA_MAX = 0.1
CCO_DELTA = 0.5
CCO_RADIUS = 2
CCO_GF_EPS = 1e-3


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


def apply_cco(chi: np.ndarray) -> np.ndarray:
    """Contrast-compensated sharpening of a complex contrast image.

    Per-pixel gain eta = CCO_ETA_MAX * sigmoid((|chi| - CCO_TAU)/CCO_DELTA);
    the output is (1 + eta) * G(chi|chi) + eta * chi with G the self-guided
    filter of radius CCO_RADIUS and ridge CCO_GF_EPS, applied to the real and
    imaginary channels separately.
    """
    chi = np.asarray(chi, dtype=np.complex128)
    eta = CCO_ETA_MAX * _sigmoid((np.abs(chi) - CCO_TAU) / CCO_DELTA)
    smoothed = (guided_filter(chi.real, chi.real, CCO_RADIUS, CCO_GF_EPS)
                + 1j * guided_filter(chi.imag, chi.imag, CCO_RADIUS, CCO_GF_EPS))
    return (1.0 + eta) * smoothed + eta * chi
