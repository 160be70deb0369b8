"""Losses, analytic gradients, and optimizers on flat parameter vectors.

Everything is float64. Probability-vector arguments must be normalized
(checked to 1e-8) and non-negative; non-finite inputs raise instead of
propagating. The gradient engine follows prototype precision: a binary_ste
prototype's forward pass uses binarized weights and the backward pass treats
binarization as identity (straight-through estimator), so the gradient
applies directly to the full-precision master values.

Checks live at the public entry points (grad, opt_step, and
flcore.client_local_update). Beneath them is one private kernel: the
unchecked forward pass models._forward, the cross-entropy logit gradient
_ce_dlogits, _backward, which writes into per-layer views of a flat
buffer, and the optimizer rule _step_in_place. grad and opt_step run it
once per call on fresh buffers; client_local_update validates a client's
shard once and then runs every local step through it on buffers made once
per client.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._errors import ShapeError
from .models import ParamVector, forward_cached, unflatten

_NORM_TOL = 1e-8
_KL_FLOOR = 1e-12


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax; accepts a single vector or a batch of rows."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim not in (1, 2):
        raise ShapeError(f"softmax expects a vector or matrix, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("softmax input contains non-finite values")
    single = z.ndim == 1
    if single:
        z = z[None, :]
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    return out[0] if single else out


def _check_prob_vector(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ShapeError(f"{name} must be a 1-D probability vector, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError(f"{name} contains non-finite values")
    if (p < 0).any():
        raise ValueError(f"{name} has negative entries")
    if abs(p.sum() - 1.0) > _NORM_TOL:
        raise ValueError(f"{name} is not normalized (sum {p.sum()!r})")
    return p


def kl_div(target: np.ndarray, pred: np.ndarray) -> float:
    """KL(target || pred) for probability vectors, with 0 * log(0/q) = 0."""
    t = _check_prob_vector(target, "target")
    q = _check_prob_vector(pred, "pred")
    if t.shape != q.shape:
        raise ShapeError(f"target shape {t.shape} != pred shape {q.shape}")
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
        if not self.base_lr > 0:
            raise ValueError("base_lr must be positive")
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
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> "OptimizerState":
        return OptimizerState(
            kind="adam",
            base_lr=base_lr,
            schedule=schedule,
            total_steps=total_steps,
            m=np.zeros(n_params, dtype=np.float64),
            v=np.zeros(n_params, dtype=np.float64),
            beta1=beta1,
            beta2=beta2,
            eps=eps,
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
    _step_in_place(new_state, new_values, g)
    return ParamVector(params.prototype, new_values), new_state


def _step_in_place(state: OptimizerState, values: np.ndarray, g: np.ndarray) -> None:
    """The optimizer rule: updates values in place and advances state.

    Adam rebinds state.m and state.v to new arrays rather than writing into
    them, so a shallow copy of the state leaves the original untouched.
    """
    lr = current_lr(state)
    t = state.step_count + 1
    if state.kind == "sgd":
        values -= lr * g
    else:
        state.m = state.beta1 * state.m + (1.0 - state.beta1) * g
        state.v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
        m_hat = state.m / (1.0 - state.beta1**t)
        v_hat = state.v / (1.0 - state.beta2**t)
        values -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
    state.step_count = t


def _ce_dlogits(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of mean cross-entropy w.r.t. the logits, built in probs' buffer."""
    batch = probs.shape[0]
    probs[np.arange(batch), labels] -= 1.0
    probs /= batch
    return probs


def _backward(proto, caches, dlogits: np.ndarray, grads: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """Backpropagate dlogits through forward caches into grads.

    grads holds per-layer (dW, db) views of one flat buffer (unflatten of
    it); every entry of the buffer is overwritten.
    """
    layer_inputs, preacts, eff_weights = caches
    delta = dlogits
    for l in range(proto.n_layers - 1, -1, -1):
        gw, gb = grads[l]
        np.matmul(layer_inputs[l].T, delta, out=gw)
        delta.sum(axis=0, out=gb)
        if l > 0:
            da = delta @ eff_weights[l].T
            if proto.activation == "relu":
                delta = da * (preacts[l - 1] > 0.0)
            else:
                delta = da * (1.0 - layer_inputs[l] * layer_inputs[l])


def grad(
    loss_kind: str,
    params: ParamVector,
    inputs: np.ndarray,
    labels: np.ndarray | None = None,
    target_probs: np.ndarray | None = None,
) -> np.ndarray:
    """Analytic gradient of a batch-mean loss w.r.t. the flat parameters.

    loss_kind "ce": mean cross-entropy against integer labels.
    loss_kind "kl_vs_target": mean KL(target_probs_row || softmax(logits_row)),
    the distillation objective; target rows must be normalized probabilities.
    """
    proto = params.prototype
    binarize = proto.precision == "binary_ste"
    logits, caches = forward_cached(proto, params.values, inputs, binarize)
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
        dlogits = _ce_dlogits(probs, y)
    elif loss_kind == "kl_vs_target":
        if target_probs is None:
            raise ValueError("loss_kind 'kl_vs_target' requires target_probs")
        q = np.asarray(target_probs, dtype=np.float64)
        if q.shape != logits.shape:
            raise ShapeError(f"target_probs shape {q.shape} != logits shape {logits.shape}")
        if not np.isfinite(q).all():
            raise ValueError("target_probs contain non-finite values")
        if (q < 0).any():
            raise ValueError("target_probs have negative entries")
        if np.abs(q.sum(axis=1) - 1.0).max() > _NORM_TOL:
            raise ValueError("target_probs rows are not normalized")
        dlogits = (probs - q) / batch
    else:
        raise ValueError(f"unknown loss_kind {loss_kind!r}")
    grad_flat = np.empty(proto.n_params, dtype=np.float64)
    _backward(proto, caches, dlogits, unflatten(proto, grad_flat))
    return grad_flat
