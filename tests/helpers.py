"""Shared test utilities: finite-difference oracle and small builders."""

import numpy as np

from fedfusion.models import ParamVector, Prototype, init_params
from fedfusion import numerics


def fd_grad(loss_fn, values: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of loss_fn at values, one coordinate at a time."""
    out = np.empty_like(values)
    for i in range(values.shape[0]):
        up = values.copy()
        dn = values.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (loss_fn(up) - loss_fn(dn)) / (2.0 * h)
    return out


def max_rel_err(approx: np.ndarray, exact: np.ndarray, floor: float = 1e-6) -> float:
    """Max elementwise relative error with a denominator floor for near-zeros."""
    denom = np.maximum(np.abs(exact), floor)
    return float(np.max(np.abs(approx - exact) / denom))


def random_case(rng: np.random.Generator):
    """Random (params, inputs, labels, target_probs) for gradient checks.

    Relu cases are resampled until every preactivation sits well away from the
    kink at zero; central differences are only a valid oracle where the loss is
    differentiable, and a 1e-6 perturbation must not cross the kink.
    """
    from fedfusion.models import forward_cached

    n_in = int(rng.integers(1, 4))
    n_hidden = int(rng.integers(2, 7))
    n_classes = int(rng.integers(2, 5))
    depth = int(rng.integers(1, 3))
    widths = (n_in,) + (n_hidden,) * depth + (n_classes,)
    activation = ("relu", "tanh")[int(rng.integers(0, 2))]
    proto = Prototype("g", widths, activation=activation)
    batch = int(rng.integers(1, 6))
    while True:
        params = ParamVector(proto, rng.normal(scale=0.7, size=proto.n_params))
        inputs = rng.normal(size=(batch, n_in))
        if activation != "relu":
            break
        _, (_, preacts, _) = forward_cached(proto, params.values, inputs)
        if min(np.abs(z).min() for z in preacts[:-1]) > 1e-3:
            break
    labels = rng.integers(0, n_classes, size=batch)
    target_logits = rng.normal(size=(batch, n_classes))
    target_probs = numerics.softmax(target_logits)
    return params, inputs, labels, target_probs


def ce_at(params: ParamVector, inputs, labels):
    def loss(values):
        from fedfusion.models import predict_logits

        return numerics.cross_entropy(labels, predict_logits(ParamVector(params.prototype, values), inputs))

    return loss


def kl_at(params: ParamVector, inputs, target_probs):
    def loss(values):
        from fedfusion.models import predict_logits

        logits = predict_logits(ParamVector(params.prototype, values), inputs)
        probs = numerics.softmax(logits)
        total = 0.0
        for t_row, p_row in zip(target_probs, probs):
            total += numerics.kl_div(t_row, p_row)
        return total / target_probs.shape[0]

    return loss


def tiny_proto(classes: int = 3, hidden: int = 8) -> Prototype:
    return Prototype("tiny", (2, hidden, classes))


def random_params(proto: Prototype, seed: int) -> ParamVector:
    return init_params(proto, seed)
