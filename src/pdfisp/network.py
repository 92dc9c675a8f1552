"""Untrained corrective network and its optimizer.

A small fully connected network maps the initial spectral coefficients of
each view to a corrective update, so the optimized variable is the network's
weights rather than the coefficients directly. The output layer starts at
zero, making the first iterate exactly the physics-derived initialization.
Gradients are hand-derived reverse mode through the full composite loss
(see losses.pipeline_backward for the physics half); the optimizer is
bias-corrected Adam with the corrections folded into two scalars, run
over preallocated memory (`adam_step`), whose step norm is the one
finiteness check of an iteration.

The network is N_LAYERS = 3 square affine layers of width 2*m0 (tanh,
tanh, linear) held in one parameter vector; the two halves of the
input/output are the real and imaginary coefficient parts.
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


N_LAYERS = 3   # affine layers: two tanh hidden layers, then the linear output


@dataclass
class NetworkParams:
    """N_LAYERS square affine layers of size `width` in one vector `flat`.

    `flat` holds the layers one after another, each as its (width, width)
    weight (fan_out, fan_in) followed by its bias. `weights` and `biases`
    are views into it, so the optimizer updates every layer in place.
    """

    flat: np.ndarray
    width: int

    def __post_init__(self):
        if self.flat.shape != (N_LAYERS * self.width * (self.width + 1),):
            raise ValueError("flat parameter vector has the wrong length")

    @property
    def weights(self) -> np.ndarray:
        """(N_LAYERS, width, width) view of the weights."""
        return self.flat.reshape(N_LAYERS, self.width + 1, self.width)[:, :-1]

    @property
    def biases(self) -> np.ndarray:
        """(N_LAYERS, width) view of the biases."""
        return self.flat.reshape(N_LAYERS, self.width + 1, self.width)[:, -1]

    def n_params(self) -> int:
        return self.flat.size


def init_network(m0: int, rng: np.random.Generator) -> NetworkParams:
    """Fresh network for coefficient length m0.

    Hidden weights are Gaussian with std sqrt(1/fan_in); the output layer is
    zero so the initial corrective update vanishes identically.
    """
    if m0 < 1:
        raise ValueError("m0 must be >= 1")
    width = 2 * m0
    params = NetworkParams(np.zeros(N_LAYERS * width * (width + 1)), width)
    for w in params.weights[:-1]:
        w[...] = rng.normal(0.0, np.sqrt(1.0 / width), (width, width))
    return params


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
    back by OUTPUT_GAIN * scales / sqrt(width). The cache holds the input
    of each layer: the whitened x, then each hidden activation.
    """
    h = x / scales
    inputs = []
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        h = h @ w.T + b
        if i < N_LAYERS - 1:
            h = np.tanh(h)
    return h * (OUTPUT_GAIN * scales / np.sqrt(params.width)), inputs


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
    if x.shape[1] != params.width:
        raise ValueError(f"network expects input width {params.width}, got {x.shape[1]}")
    y, _ = _net_forward(params, x, _feature_scales(alpha0))
    return _merge_views(y)


# ----------------------------------------------------------------------
# Flat parameter view


def flatten_params(params: NetworkParams) -> np.ndarray:
    """Copy of the parameters as one vector (layer by layer, weight then bias)."""
    return params.flat.copy()


def unflatten_params(flat: np.ndarray, like: NetworkParams) -> NetworkParams:
    """Network shaped like `like` holding a copy of the vector `flat`."""
    return NetworkParams(np.array(flat, dtype=np.float64), like.width)


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
    y, inputs = _net_forward(params, _split_views(alpha0), scales)
    alpha_hat = alpha0 + _merge_views(y)

    state = pipeline_forward(alpha_hat, ctx)
    g = _split_views(pipeline_backward(state, ctx))

    grad = NetworkParams(np.empty_like(params.flat), params.width)
    g = g * (OUTPUT_GAIN * scales / np.sqrt(params.width))   # through the output rescale
    for i in reversed(range(N_LAYERS)):
        h = inputs[i]
        np.matmul(g.T, h, out=grad.weights[i])
        np.sum(g, axis=0, out=grad.biases[i])
        if i:   # back through layer i and the tanh that produced its input
            g = (g @ params.weights[i]) * (1.0 - h * h)
    return grad.flat, state


# ----------------------------------------------------------------------
# Adam

ADAM_B1 = 0.9     # first-moment decay
ADAM_B2 = 0.999   # second-moment decay
ADAM_EPS = 1e-8   # added to the root of the second moment


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
    and b = eps*sqrt(c2). The step is formed in `state.work`, so no pass
    allocates, and its squared norm is its one finiteness check. A nonfinite
    gradient or step raises FloatingPointError before any weight moves. The
    moments are already updated by then, so after a nonfinite gradient they
    hold nonfinite entries and every later step with this state raises too.
    """
    if grad.shape != params.flat.shape:
        raise ValueError(f"gradient of shape {grad.shape} does not match the "
                         f"{params.flat.size} network parameters")
    t = state.step + 1
    root_c2 = np.sqrt(1.0 - ADAM_B2 ** t)
    a = state.lr * root_c2 / (1.0 - ADAM_B1 ** t)
    b = ADAM_EPS * root_c2
    m, v, w = state.m, state.v, state.work
    with np.errstate(invalid="ignore"):       # inf/inf: reported by the check below
        g_norm2 = float(np.dot(grad, grad))
        m *= ADAM_B1
        np.multiply(grad, 1.0 - ADAM_B1, out=w)
        m += w
        np.multiply(grad, grad, out=w)
        w *= 1.0 - ADAM_B2
        v *= ADAM_B2
        v += w
        np.sqrt(v, out=w)
        w += b
        np.divide(m, w, out=w)
        w *= a
        norm2 = float(np.dot(w, w))
    if not np.isfinite(norm2):
        raise FloatingPointError("nonfinite optimizer step")
    params.flat -= w
    state.step = t
    state.update_norm = float(np.sqrt(norm2))
    state.grad_norm = float(np.sqrt(g_norm2))
    return params, state
