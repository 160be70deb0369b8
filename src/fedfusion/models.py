"""Fully connected model prototypes and flat parameter vectors.

A Prototype is an immutable architecture description: layer widths from input
to logits, hidden activation, and weight precision. Parameters always travel
as flat float64 vectors (ParamVector) so that averaging, serialization, and
optimizer state stay trivially shaped. Flattening order is, per layer, the
row-major weight matrix followed by the bias vector.

Precision "binary_ste" means the forward pass sees per-layer binarized
weights, sign(w) scaled by the layer's mean absolute weight, while the flat
vector keeps full-precision master values that gradients are applied to
(straight-through estimator). Biases are never binarized.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ._errors import PrototypeMismatchError, ShapeError

ACTIVATIONS = ("relu", "tanh")
PRECISIONS = ("full", "binary_ste")


@dataclass(frozen=True)
class Prototype:
    """Architecture description shared by every client of one model family."""

    id: str
    layer_widths: tuple[int, ...]
    activation: str = "relu"
    precision: str = "full"

    def __post_init__(self) -> None:
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if not self.id:
            raise ValueError("prototype id must be a non-empty string")
        if len(self.layer_widths) < 2:
            raise ValueError("layer_widths needs at least input and output widths")
        if any(w < 1 for w in self.layer_widths):
            raise ValueError(f"layer widths must be positive, got {self.layer_widths}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.precision not in PRECISIONS:
            raise ValueError(f"precision must be one of {PRECISIONS}, got {self.precision!r}")
        # derived once: every gradient step reads them, and the fields are frozen
        slices = []
        pos = 0
        for fan_in, fan_out in zip(self.layer_widths, self.layer_widths[1:]):
            w_sl = slice(pos, pos + fan_in * fan_out)
            pos += fan_in * fan_out
            b_sl = slice(pos, pos + fan_out)
            pos += fan_out
            slices.append((w_sl, b_sl, (fan_in, fan_out)))
        object.__setattr__(self, "_layer_slices", tuple(slices))
        object.__setattr__(self, "_n_params", pos)

    @property
    def n_inputs(self) -> int:
        return self.layer_widths[0]

    @property
    def n_classes(self) -> int:
        return self.layer_widths[-1]

    @property
    def n_layers(self) -> int:
        return len(self.layer_widths) - 1

    @property
    def n_params(self) -> int:
        return self._n_params


@dataclass
class ParamVector:
    """Flat float64 parameter vector bound to its prototype."""

    prototype: Prototype
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ShapeError(f"parameter values must be 1-D, got shape {vals.shape}")
        if vals.shape[0] != self.prototype.n_params:
            raise ShapeError(
                f"prototype {self.prototype.id!r} expects {self.prototype.n_params} "
                f"parameters, got {vals.shape[0]}"
            )
        self.values = vals

    def copy(self) -> "ParamVector":
        return ParamVector(self.prototype, self.values.copy())


def layer_slices(proto: Prototype) -> tuple[tuple[slice, slice, tuple[int, int]], ...]:
    """Per-layer (weight_slice, bias_slice, (fan_in, fan_out)) into the flat vector.

    Computed once per prototype; every call returns the same tuple.
    """
    return proto._layer_slices


def unflatten(proto: Prototype, values: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of the flat vector as per-layer (W, b) arrays. No copies."""
    if values.shape != (proto.n_params,):
        raise ShapeError(f"expected {proto.n_params} values for {proto.id!r}, got {values.shape}")
    layers = []
    for w_sl, b_sl, (fan_in, fan_out) in layer_slices(proto):
        layers.append((values[w_sl].reshape(fan_in, fan_out), values[b_sl]))
    return layers


def init_params(proto: Prototype, seed: int) -> ParamVector:
    """He-uniform weights (bound sqrt(6/fan_in)), zero biases, seeded."""
    rng = np.random.default_rng(seed)
    values = np.zeros(proto.n_params, dtype=np.float64)
    for w_sl, _b_sl, (fan_in, fan_out) in layer_slices(proto):
        bound = np.sqrt(6.0 / fan_in)
        values[w_sl] = rng.uniform(-bound, bound, size=fan_in * fan_out)
    return ParamVector(proto, values)


def binarize_layer(w: np.ndarray) -> np.ndarray:
    # zero weights count as positive so every binarized entry is +-scale
    return np.where(w >= 0.0, 1.0, -1.0) * np.mean(np.abs(w))


def binarize_values(proto: Prototype, values: np.ndarray) -> np.ndarray:
    """Flat copy with every weight matrix binarized; biases pass through.

    Idempotent, and forward passes of a binary_ste prototype are identical
    on the original and the binarized copy.
    """
    out = values.copy()
    for w_sl, _b_sl, (fan_in, fan_out) in layer_slices(proto):
        out[w_sl] = binarize_layer(values[w_sl].reshape(fan_in, fan_out)).reshape(fan_in * fan_out)
    return out


def forward_cached(
    proto: Prototype, values: np.ndarray, inputs: np.ndarray, binarize: bool
) -> tuple[np.ndarray, tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]]:
    """Forward pass returning (logits, (layer_inputs, preactivations, effective_weights)).

    layer_inputs[l] is the input to layer l (layer_inputs[0] is the batch),
    preactivations[l] is the affine output of layer l before activation, and
    effective_weights[l] is the weight matrix the pass actually multiplied by
    (binarized when requested). The caches are what a backward pass needs.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != proto.n_inputs:
        raise ShapeError(
            f"inputs must have shape (batch, {proto.n_inputs}), got {x.shape}"
        )
    if not np.isfinite(x).all():
        raise ValueError("inputs contain non-finite values")
    return _forward(proto, unflatten(proto, values), x, binarize)


def _forward(
    proto: Prototype, layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray, binarize: bool, out=None
) -> tuple[np.ndarray, tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]]:
    """forward_cached without its checks, over per-layer (W, b) views of unflatten.

    The caller vouches for x: float64, (batch, n_inputs), finite. out, if
    given, holds per-layer (preactivation, activation) buffers of shape
    (batch, layer width) that the pass writes into instead of allocating.
    """
    layer_inputs = [x]
    preacts: list[np.ndarray] = []
    eff_weights: list[np.ndarray] = []
    a = x
    last = proto.n_layers - 1
    for l, (w, b) in enumerate(layers):
        if binarize:
            w = binarize_layer(w)
        z_out, a_out = (None, None) if out is None else out[l]
        z = np.dot(a, w, out=z_out)  # np.matmul's BLAS product, bit for bit, with less dispatch
        z += b
        preacts.append(z)
        eff_weights.append(w)
        if l < last:
            a = np.maximum(z, 0.0, out=a_out) if proto.activation == "relu" else np.tanh(z, out=a_out)
            layer_inputs.append(a)
    return preacts[-1], (layer_inputs, preacts, eff_weights)


def predict_logits(params: ParamVector, inputs: np.ndarray) -> np.ndarray:
    """Logits for a batch, honoring the prototype's precision."""
    binarize = params.prototype.precision == "binary_ste"
    logits, _ = forward_cached(params.prototype, params.values, inputs, binarize)
    return logits


def average_params(models: list[ParamVector], weights) -> ParamVector:
    """Weighted average of same-prototype parameter vectors.

    Computed anchored on the first vector, base + sum_i w_i * (x_i - base),
    so averaging identical inputs reproduces them bit for bit.
    """
    if len(models) == 0:
        raise ValueError("average_params needs at least one model")
    proto = models[0].prototype
    for m in models[1:]:
        if m.prototype != proto:
            raise PrototypeMismatchError(
                f"cannot average prototypes {proto.id!r} and {m.prototype.id!r}"
            )
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (len(models),):
        raise ShapeError(f"need {len(models)} weights, got shape {w.shape}")
    if (w < 0).any():
        raise ValueError("averaging weights must be non-negative")
    total = w.sum()
    if not total > 0:
        raise ValueError("averaging weights must not sum to zero")
    wn = w / total
    base = models[0].values
    acc = np.zeros_like(base)
    for wi, m in zip(wn[1:], models[1:]):
        if wi != 0.0:
            acc += wi * (m.values - base)
    return ParamVector(proto, base + acc)


_MAGIC = b"FFPV"


def save_params(params: ParamVector, path) -> None:
    """Write a parameter vector: magic, length-prefixed prototype id (utf-8),
    u64 count, then count little-endian float64 values."""
    ident = params.prototype.id.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(ident)))
        fh.write(ident)
        fh.write(struct.pack("<Q", params.values.shape[0]))
        fh.write(params.values.astype("<f8").tobytes())


def load_params(path, prototypes) -> ParamVector:
    """Read a parameter vector; prototypes maps id -> Prototype (or is an iterable).

    A file that is truncated or has bytes after its values raises ValueError.
    """
    if not isinstance(prototypes, dict):
        prototypes = {p.id: p for p in prototypes}
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"not a parameter file: bad magic {magic!r}")
        (id_len,) = struct.unpack("<I", fh.read(4))
        ident = fh.read(id_len).decode("utf-8")
        (count,) = struct.unpack("<Q", fh.read(8))
        raw = fh.read(count * 8)
        if len(raw) != count * 8:
            raise ValueError("parameter file truncated")
        if fh.read(1):
            raise ValueError("parameter file has trailing bytes after its values")
        values = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if ident not in prototypes:
        raise KeyError(f"unknown prototype id {ident!r} in {path}")
    proto = prototypes[ident]
    if count != proto.n_params:
        raise ShapeError(
            f"file holds {count} values but prototype {ident!r} expects {proto.n_params}"
        )
    return ParamVector(proto, values)
