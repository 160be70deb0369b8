"""Losses, analytic gradients, and optimizers on flat parameter vectors.

Everything is float64. Probability-vector arguments must be normalized
(checked to 1e-8) and non-negative; non-finite inputs raise instead of
propagating. The gradient engine follows prototype precision, which the
forward kernel reads from the prototype: a binary_ste prototype's forward
pass uses binarized weights and the backward pass treats binarization as
identity (straight-through estimator), so the gradient applies directly to
the full-precision master values.

Checks live at the public entry points: grad, opt_step, and flcore's two
training loops, client_local_update and feddf_fuse, which check their fixed
data once per call. Beneath them is one private kernel: the unchecked
forward pass models._forward, the logit-gradient rule _dlogits, (softmax -
target) / batch, with cross-entropy as the rule on one-hot label rows,
_backward into per-layer views of a flat buffer, and the optimizer rule
_step_in_place. grad and opt_step run these pieces on fresh buffers; the
step that _trainer makes once per client or per fusion runs them on
buffers it owns: the gradient, two optimizer scratch vectors, and one set
per batch size of the forward's (z, a) per layer, the backward's deltas and
a (batch, 1) softmax column. Softmax runs in place on the logits buffer, so
a step's logits and caches are valid only until the next step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._errors import ShapeError
from .models import ParamVector, _forward, forward_cached, unflatten

_NORM_TOL = 1e-8
_KL_FLOOR = 1e-12


def softmax(logits: np.ndarray, out: np.ndarray | None = None, col: np.ndarray | None = None) -> np.ndarray:
    """Row-wise stable softmax of a single vector or a batch of rows, into out (may be logits)
    if given; col, if given, is a (rows, 1) scratch column for the row max and sum."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim not in (1, 2):
        raise ShapeError(f"softmax expects a vector or matrix, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("softmax input contains non-finite values")
    single = z.ndim == 1
    if single:
        z, out = z[None, :], None if out is None else out[None, :]
    col = np.maximum.reduce(z, axis=1, keepdims=True, out=col)
    out = np.subtract(z, col, out=out)
    np.exp(out, out=out)
    np.divide(out, np.add.reduce(out, axis=1, keepdims=True, out=col), out=out)
    return out[0] if single else out


def _check_probs(p: np.ndarray, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """p as float64 of the given shape: finite, non-negative, each row summing to 1."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != shape:
        raise ShapeError(f"{name} has shape {p.shape}, expected {shape}")
    if not np.isfinite(p).all():
        raise ValueError(f"{name} contains non-finite values")
    if (p < 0).any():
        raise ValueError(f"{name} has negative entries")
    if np.abs(p.sum(axis=-1) - 1.0).max() > _NORM_TOL:
        raise ValueError(f"{name} is not normalized")
    return p


def kl_div(target: np.ndarray, pred: np.ndarray) -> float:
    """KL(target || pred) for probability vectors, with 0 * log(0/q) = 0."""
    t = _check_probs(target, "target", (np.size(target),))
    q = _check_probs(pred, "pred", t.shape)
    support = t > 0
    q_safe = np.maximum(q[support], _KL_FLOOR)
    val = float(np.sum(t[support] * np.log(t[support] / q_safe)))
    return val


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(z).all():
        raise ValueError("log_softmax input contains non-finite values")
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy(labels: np.ndarray, logits: np.ndarray) -> float:
    """Mean negative log-likelihood of integer labels under softmax(logits)."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels)
    if z.ndim != 2:
        raise ShapeError(f"logits must be (batch, classes), got shape {z.shape}")
    if y.shape != (z.shape[0],):
        raise ShapeError(f"labels must have shape ({z.shape[0]},), got {y.shape}")
    if not np.issubdtype(y.dtype, np.integer):
        raise ShapeError("labels must be integers")
    if z.shape[0] == 0:
        raise ShapeError("cross_entropy needs a non-empty batch")
    if y.min() < 0 or y.max() >= z.shape[1]:
        raise IndexError(f"labels must lie in [0, {z.shape[1]})")
    logp = log_softmax(z)
    return float(-logp[np.arange(z.shape[0]), y].mean())


@dataclass
class OptimizerState:
    """Immutable-style optimizer state; opt_step returns an updated copy."""

    kind: str
    base_lr: float
    schedule: str = "constant"
    total_steps: int | None = None
    step_count: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"optimizer kind must be 'sgd' or 'adam', got {self.kind!r}")
        if not 0 < self.base_lr < np.inf:
            raise ValueError("base_lr must be finite and positive")
        if self.schedule not in ("constant", "cosine"):
            raise ValueError(f"schedule must be 'constant' or 'cosine', got {self.schedule!r}")
        if self.schedule == "cosine" and (self.total_steps is None or self.total_steps < 1):
            raise ValueError("cosine schedule needs total_steps >= 1")

    @staticmethod
    def sgd(base_lr: float, schedule: str = "constant", total_steps: int | None = None) -> "OptimizerState":
        return OptimizerState(kind="sgd", base_lr=base_lr, schedule=schedule, total_steps=total_steps)

    @staticmethod
    def adam(
        base_lr: float,
        n_params: int,
        schedule: str = "constant",
        total_steps: int | None = None,
    ) -> "OptimizerState":
        return OptimizerState(
            kind="adam",
            base_lr=base_lr,
            schedule=schedule,
            total_steps=total_steps,
            m=np.zeros(n_params, dtype=np.float64),
            v=np.zeros(n_params, dtype=np.float64),
        )


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Cosine annealing from base_lr toward zero over total_steps, clamped at zero after."""
    if step >= total_steps:
        return 0.0
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * step / total_steps))


def current_lr(state: OptimizerState) -> float:
    if state.schedule == "cosine":
        return cosine_lr(state.base_lr, state.step_count, state.total_steps)
    return state.base_lr


def opt_step(state: OptimizerState, params: ParamVector, grad_flat: np.ndarray) -> tuple[ParamVector, OptimizerState]:
    """One optimizer update; returns (new params, new state), inputs untouched."""
    g = np.asarray(grad_flat, dtype=np.float64)
    if g.shape != params.values.shape:
        raise ShapeError(f"gradient shape {g.shape} != parameter shape {params.values.shape}")
    if not np.isfinite(g).all():
        raise ValueError("gradient contains non-finite values")
    new_values = params.values.copy()
    new_state = replace(state)
    if state.kind == "adam":
        new_state.m, new_state.v = state.m.copy(), state.v.copy()
    _step_in_place(new_state, new_values, g, (np.empty_like(g), np.empty_like(g)))
    return ParamVector(params.prototype, new_values), new_state


def _step_in_place(state: OptimizerState, values: np.ndarray, g: np.ndarray, scratch) -> None:
    """The optimizer rule: updates values, and Adam's m and v, in place; advances state.
    Its temporaries go to scratch, two vectors shaped like values."""
    lr = current_lr(state)
    t = state.step_count + 1
    s, r = scratch
    if state.kind == "sgd":
        values -= np.multiply(lr, g, out=s)
    else:
        state.m *= state.beta1
        state.m += np.multiply(1.0 - state.beta1, g, out=s)
        state.v *= state.beta2
        state.v += np.multiply(np.multiply(1.0 - state.beta2, g, out=s), g, out=s)
        m_hat = np.divide(state.m, 1.0 - state.beta1**t, out=s)
        v_hat = np.divide(state.v, 1.0 - state.beta2**t, out=r)
        denom = np.sqrt(v_hat, out=r)
        denom += state.eps
        values -= np.divide(np.multiply(lr, m_hat, out=s), denom, out=s)
    state.step_count = t


def _dlogits(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Logit gradient of the batch-mean KL(target row || softmax row), in probs' buffer;
    on one-hot target rows, that of cross-entropy."""
    probs -= targets
    probs /= probs.shape[0]
    return probs


def _backward(proto, caches, dlogits: np.ndarray, grads: list[tuple[np.ndarray, np.ndarray]], da=None) -> None:
    """Backpropagate dlogits through forward caches into grads.

    grads holds per-layer (dW, db) views of one flat buffer (unflatten of
    it); every entry of the buffer is overwritten. da, if given, holds one
    (batch, width) buffer per hidden layer for the backpropagated deltas.
    """
    layer_inputs, preacts, eff_weights = caches
    delta = dlogits
    for l in range(proto.n_layers - 1, -1, -1):
        gw, gb = grads[l]
        np.dot(layer_inputs[l].T, delta, out=gw)  # np.dot: see models._forward
        np.add.reduce(delta, axis=0, out=gb)
        if l > 0:
            delta = np.dot(delta, eff_weights[l].T, out=None if da is None else da[l - 1])
            if proto.activation == "relu":
                delta *= preacts[l - 1] > 0.0
            else:
                delta *= 1.0 - layer_inputs[l] * layer_inputs[l]


def grad(
    loss_kind: str,
    params: ParamVector,
    inputs: np.ndarray,
    labels: np.ndarray | None = None,
    target_probs: np.ndarray | None = None,
) -> np.ndarray:
    """Analytic gradient of a batch-mean loss w.r.t. the flat parameters.

    loss_kind "ce": mean cross-entropy against integer labels, the target
    rule on their one-hot rows.
    loss_kind "kl_vs_target": mean KL(target_probs_row || softmax(logits_row)),
    the distillation objective; target rows must be normalized probabilities.
    """
    proto = params.prototype
    logits, caches = forward_cached(proto, params.values, inputs)
    batch = logits.shape[0]
    if batch == 0:
        raise ShapeError("grad needs a non-empty batch")
    probs = softmax(logits)
    if loss_kind == "ce":
        if labels is None:
            raise ValueError("loss_kind 'ce' requires labels")
        y = np.asarray(labels)
        if y.shape != (batch,):
            raise ShapeError(f"labels must have shape ({batch},), got {y.shape}")
        if y.min() < 0 or y.max() >= proto.n_classes:
            raise IndexError(f"labels must lie in [0, {proto.n_classes})")
        targets = np.eye(proto.n_classes)[y]
    elif loss_kind == "kl_vs_target":
        if target_probs is None:
            raise ValueError("loss_kind 'kl_vs_target' requires target_probs")
        targets = _check_probs(target_probs, "target_probs", logits.shape)
    else:
        raise ValueError(f"unknown loss_kind {loss_kind!r}")
    grad_flat = np.empty(proto.n_params, dtype=np.float64)
    _backward(proto, caches, _dlogits(probs, targets), unflatten(proto, grad_flat))
    return grad_flat


def _trainer(proto, values: np.ndarray, state: OptimizerState, prox_mu=0.0, anchor_values=None):
    """The one training step of local SGD and distillation, step(x, target).

    It trains values in place: forward, softmax, (softmax - target) / batch,
    backward into one gradient buffer, prox_mu * (values - anchor_values), the
    finite-gradient check and the optimizer rule, all in buffers it owns (see
    the module docstring). The caller vouches for x and target.
    """
    layers, g = unflatten(proto, values), np.empty_like(values)
    grads = unflatten(proto, g)
    scratch = (np.empty_like(values), np.empty_like(values))
    buffers = {}

    def step(x: np.ndarray, target: np.ndarray) -> None:
        batch = x.shape[0]
        if batch not in buffers:
            widths = proto.layer_widths[1:]
            pairs = [(np.empty((batch, w)), np.empty((batch, w))) for w in widths]
            buffers[batch] = (pairs, [np.empty((batch, w)) for w in widths[:-1]], np.empty((batch, 1)))
        out, da, col = buffers[batch]
        logits, caches = _forward(proto, layers, x, out)
        probs = softmax(logits, out=logits, col=col)
        _backward(proto, caches, _dlogits(probs, target), grads, da)
        if prox_mu != 0.0:
            pull = np.subtract(values, anchor_values, out=scratch[0])
            np.add(g, np.multiply(prox_mu, pull, out=pull), out=g)
        if not np.isfinite(g).all():
            raise ValueError("gradient contains non-finite values")
        _step_in_place(state, values, g, scratch)

    return step
