"""Untrained corrective network and its optimizer.

A small fully connected network maps the initial spectral coefficients of
each view to a corrective update, so the optimized variable is the network's
weights rather than the coefficients directly. The output layer starts at
zero, making the first iterate exactly the physics-derived initialization.
Gradients are hand-derived reverse mode through the full composite loss
(see losses.pipeline_backward for the physics half); the optimizer is
bias-corrected Adam with the corrections folded into two scalars, run in
cache-sized blocks over preallocated memory (`adam_step`), whose step norm
is the one finiteness check of an iteration.

Widths are [2*m0, 2*m0, 2*m0, 2*m0] with tanh hidden activations; the two
halves of the input/output are the real and imaginary coefficient parts.
Two scalings keep the optimization well conditioned independently of m0
and of the coefficient dynamic range (the DC mode is orders of magnitude
larger than the high modes):

- per-mode whitening: every input feature is divided by that mode's rms
  magnitude over the view batch (floored at a tenth of the global rms),
  and the matching output coordinate is multiplied by the same factor, so
  the network works in O(1) units while updates stay proportional to each
  mode's natural size;
- the linear output layer carries a 1/sqrt(hidden_width) factor. Adam
  moves every output weight by about learn_rate per step, so without it an
  output coordinate would move by O(learn_rate * width); with it the move
  is O(learn_rate * sqrt(width)) times OUTPUT_GAIN. That is still not
  small: on the default austria eps 2 scene the second step moves the
  coefficients by 0.53 * ||alpha0||.

Both factors are deterministic functions of the (fixed) initial
coefficients, so they are recomputed per call and carry no state.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .losses import LossContext, PipelineState, pipeline_backward, pipeline_forward


@dataclass
class NetworkParams:
    """Affine layers (weight, bias) with weights shaped (fan_out, fan_in).

    The layers are views into one contiguous buffer `flat` (layer by layer,
    weight then bias), so the optimizer updates every layer in place. The
    arrays passed in are copied into that buffer.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        shapes = [(np.shape(w), np.shape(b)) for w, b in zip(self.weights, self.biases)]
        self.flat = np.concatenate([np.ravel(a) for w, b in zip(self.weights, self.biases)
                                    for a in (w, b)]).astype(np.float64)
        self.weights, self.biases = _layer_views(self.flat, shapes)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    def n_params(self) -> int:
        return self.flat.size

    def layer_shapes(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        return [(w.shape, b.shape) for w, b in zip(self.weights, self.biases)]


def _layer_views(flat: np.ndarray, shapes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Weight and bias views into a flat buffer laid out as in NetworkParams."""
    weights, biases = [], []
    k = 0
    for w_shape, b_shape in shapes:
        n_w, n_b = int(np.prod(w_shape)), int(np.prod(b_shape))
        weights.append(flat[k:k + n_w].reshape(w_shape))
        k += n_w
        biases.append(flat[k:k + n_b].reshape(b_shape))
        k += n_b
    if k != flat.size:
        raise ValueError("flat parameter vector has the wrong length")
    return weights, biases


def init_network(m0: int, rng: np.random.Generator) -> NetworkParams:
    """Fresh network for coefficient length m0.

    Hidden weights are Gaussian with std sqrt(1/fan_in); the output layer is
    zero so the initial corrective update vanishes identically.
    """
    if m0 < 1:
        raise ValueError("m0 must be >= 1")
    widths = [2 * m0] * 4
    weights, biases = [], []
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        if i == len(widths) - 2:
            w = np.zeros((fan_out, fan_in))
        else:
            w = rng.normal(0.0, np.sqrt(1.0 / fan_in), (fan_out, fan_in))
        weights.append(w)
        biases.append(np.zeros(fan_out))
    return NetworkParams(weights=weights, biases=biases)


# Feature conditioning constants. The spectral coefficients span about four
# decades across modes, so the network runs on whitened features and its
# output is scaled back up. SCALE_MIX blends per-mode rms with the global rms
# (the needed corrections are flatter across modes than alpha0 itself),
# SCALE_FLOOR keeps near-dead modes from exploding after division, and
# OUTPUT_GAIN sets the optimization velocity in coefficient space under the
# fixed Adam step. Values fixed by a stability/accuracy scan on the default
# synthetic scene. The modified-contrast map is evaluated on its physical
# branch (cie.physical_branch), so large steps cannot reach its pole at
# chi = -1/beta; the gain trades speed of descent against overshoot.
SCALE_MIX = 0.7
SCALE_FLOOR = 0.1
OUTPUT_GAIN = 8.0


def _feature_scales(alpha0: np.ndarray) -> np.ndarray:
    """Per-feature whitening scales matching the [Re | Im] input layout.

    One scale per spectral mode (shared by its real and imaginary
    channels): a geometric blend of that mode's rms magnitude over the view
    batch with the global rms, floored at SCALE_FLOOR times the global rms
    so near-dead modes do not blow up.
    """
    mode_rms = np.sqrt(np.mean(np.abs(alpha0) ** 2, axis=0))
    global_rms = float(np.sqrt(np.mean(np.abs(alpha0) ** 2)))
    if global_rms == 0.0:
        return np.ones(2 * alpha0.shape[1])
    s = np.maximum(mode_rms ** SCALE_MIX * global_rms ** (1.0 - SCALE_MIX),
                   SCALE_FLOOR * global_rms)
    return np.concatenate([s, s])


def _net_forward(params: NetworkParams, x: np.ndarray, scales: np.ndarray):
    """Affine-tanh-affine-tanh-affine on rows of x; returns output and cache.

    Inputs are divided by the whitening scales; the output is multiplied
    back by OUTPUT_GAIN * scales / sqrt(hidden_width). The cache holds the
    whitened input.
    """
    w1, w2, w3 = params.weights
    b1, b2, b3 = params.biases
    xn = x / scales
    h1 = np.tanh(xn @ w1.T + b1)
    h2 = np.tanh(h1 @ w2.T + b2)
    y = (h2 @ w3.T + b3) * (OUTPUT_GAIN * scales / np.sqrt(w3.shape[1]))
    return y, (xn, h1, h2)


def _split_views(alpha0: np.ndarray) -> np.ndarray:
    """Real rows concat(Re, Im), one per view: the layout of the network's
    input and output and of the loss gradient at its output."""
    return np.concatenate([alpha0.real, alpha0.imag], axis=1)


def _merge_views(y: np.ndarray) -> np.ndarray:
    half = y.shape[1] // 2
    return y[:, :half] + 1j * y[:, half:]


def forward_net(params: NetworkParams, alpha0: np.ndarray) -> np.ndarray:
    """Corrective update delta-alpha, same shape as alpha0.

    The shared weights apply independently to every view's coefficient
    vector.
    """
    alpha0 = np.atleast_2d(alpha0)
    x = _split_views(alpha0)
    if x.shape[1] != params.in_dim:
        raise ValueError(f"network expects input width {params.in_dim}, got {x.shape[1]}")
    y, _ = _net_forward(params, x, _feature_scales(alpha0))
    return _merge_views(y)


# ----------------------------------------------------------------------
# Flat parameter view


def flatten_params(params: NetworkParams) -> np.ndarray:
    """Copy of the parameters as one vector (layer by layer, weight then bias)."""
    return params.flat.copy()


def unflatten_params(flat: np.ndarray, like: NetworkParams) -> NetworkParams:
    """Network shaped like `like` holding a copy of the vector `flat`."""
    flat = np.asarray(flat, dtype=np.float64)
    if flat.size != like.n_params():
        raise ValueError("flat parameter vector has the wrong length")
    weights, biases = _layer_views(flat, like.layer_shapes())
    return NetworkParams(weights=weights, biases=biases)


# ----------------------------------------------------------------------
# Gradient of the composite loss with respect to the weights


def grad_loss(params: NetworkParams, alpha0: np.ndarray,
              ctx: LossContext) -> tuple[np.ndarray, PipelineState]:
    """Exact reverse-mode gradient over the flattened parameters.

    Runs the network forward, evaluates the composite loss at
    alpha0 + delta-alpha, pulls the loss gradient back to the network output
    (real/imaginary channels), then through the affine-tanh stack. Returns
    the gradient and the `losses.PipelineState` of the evaluation. A
    nonfinite loss raises in `pipeline_forward`; the gradient itself is
    checked by `adam_step`, before any weight moves.
    """
    alpha0 = np.atleast_2d(np.asarray(alpha0, dtype=np.complex128))
    scales = _feature_scales(alpha0)
    y, (x0, h1, h2) = _net_forward(params, _split_views(alpha0), scales)
    alpha_hat = alpha0 + _merge_views(y)

    state = pipeline_forward(alpha_hat, ctx)
    gy = _split_views(pipeline_backward(state, ctx))

    w1, w2, w3 = params.weights
    flat = np.empty(params.n_params())
    (gw1, gb1), (gw2, gb2), (gw3, gb3) = zip(*_layer_views(flat, params.layer_shapes()))
    gy = gy * (OUTPUT_GAIN * scales / np.sqrt(w3.shape[1]))   # through the output rescale
    np.matmul(gy.T, h2, out=gw3)
    np.sum(gy, axis=0, out=gb3)
    gh2 = gy @ w3
    gz2 = gh2 * (1.0 - h2 * h2)
    np.matmul(gz2.T, h1, out=gw2)
    np.sum(gz2, axis=0, out=gb2)
    gh1 = gz2 @ w2
    gz1 = gh1 * (1.0 - h1 * h1)
    np.matmul(gz1.T, x0, out=gw1)
    np.sum(gz1, axis=0, out=gb1)
    return flat, state


# ----------------------------------------------------------------------
# Adam

ADAM_B1 = 0.9     # first-moment decay
ADAM_B2 = 0.999   # second-moment decay
ADAM_EPS = 1e-8   # added to the root of the second moment
# Elements per block of the Adam step: the block's slices of m, v, the
# gradient and the work buffer (256 KB each) fit in a core's L2 together.
ADAM_BLOCK = 32768


@dataclass
class AdamState:
    """First/second moment accumulators over the flattened parameters.

    adam_step updates the moments and the step count in place, forms each
    step in the preallocated `work` buffer and records the step's 2-norm in
    `update_norm`, and the norm of the gradient it was given in `grad_norm`
    (both nan before the first step).
    """

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-2
    update_norm: float = field(init=False, default=float("nan"))
    grad_norm: float = field(init=False, default=float("nan"))
    work: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.work = np.empty_like(self.m)

    @classmethod
    def for_params(cls, params: NetworkParams, lr: float = 1e-2) -> "AdamState":
        n = params.n_params()
        return cls(m=np.zeros(n), v=np.zeros(n), lr=lr)


def adam_step(state: AdamState, params: NetworkParams,
              grad: np.ndarray) -> tuple[NetworkParams, AdamState]:
    """One bias-corrected Adam update, in place; returns params and state.

    The bias corrections fold into two scalars,
    lr*(m/c1)/(sqrt(v/c2) + eps) = a*m/(sqrt(v) + b) with a = lr*sqrt(c2)/c1
    and b = eps*sqrt(c2), and the step runs over ADAM_BLOCK elements at a
    time, so every pass but the final subtraction works on data in cache.
    The step is formed in `state.work` and its squared norm summed on the
    way, as is the gradient's while its block is in cache; the step's sum is
    its one finiteness check. A nonfinite gradient or step raises
    FloatingPointError before any weight moves. The moments are already
    updated by then, so after a nonfinite gradient they hold nonfinite
    entries and every later step with this state raises too.
    """
    if grad.shape != params.flat.shape:
        raise ValueError("gradient length does not match parameter count")
    t = state.step + 1
    root_c2 = np.sqrt(1.0 - ADAM_B2 ** t)
    a = state.lr * root_c2 / (1.0 - ADAM_B1 ** t)
    b = ADAM_EPS * root_c2
    norm2 = g_norm2 = 0.0
    with np.errstate(invalid="ignore"):       # inf/inf: reported by the check below
        for lo in range(0, grad.size, ADAM_BLOCK):
            blk = slice(lo, lo + ADAM_BLOCK)
            g, m, v, w = grad[blk], state.m[blk], state.v[blk], state.work[blk]
            g_norm2 += float(np.dot(g, g))
            m *= ADAM_B1
            np.multiply(g, 1.0 - ADAM_B1, out=w)
            m += w
            np.multiply(g, g, out=w)
            w *= 1.0 - ADAM_B2
            v *= ADAM_B2
            v += w
            np.sqrt(v, out=w)
            w += b
            np.divide(m, w, out=w)
            w *= a
            norm2 += float(np.dot(w, w))
    if not np.isfinite(norm2):
        raise FloatingPointError("nonfinite optimizer step")
    params.flat -= state.work
    state.step = t
    state.update_norm = float(np.sqrt(norm2))
    state.grad_norm = float(np.sqrt(g_norm2))
    return params, state
