"""MLP prototypes: forward passes, binarization, averaging, serialization."""

import math
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedfusion import numerics
from fedfusion._errors import PrototypeMismatchError, ShapeError
from fedfusion.models import (
    ParamVector,
    Prototype,
    average_params,
    binarize_layer,
    binarize_values,
    init_params,
    layer_slices,
    load_params,
    predict_logits,
    save_params,
    unflatten,
)

from helpers import tiny_proto


def hand_params():
    """Frozen 2-2-2 network: W1=I, b1=[0.5,-1], W2=[[2,-1],[1,0]], b2=[0,0.1]."""
    vals = np.array([1.0, 0.0, 0.0, 1.0, 0.5, -1.0, 2.0, -1.0, 1.0, 0.0, 0.0, 0.1])
    return vals


def test_prototype_param_count():
    proto = Prototype("p", (2, 32, 3))
    assert proto.n_params == 2 * 32 + 32 + 32 * 3 + 3 == 195
    assert proto.n_inputs == 2 and proto.n_classes == 3 and proto.n_layers == 2


def test_prototype_validation():
    with pytest.raises(ValueError):
        Prototype("p", (4,))
    with pytest.raises(ValueError):
        Prototype("p", (4, 0, 2))
    with pytest.raises(ValueError):
        Prototype("p", (4, 3, 2), activation="sigmoid")
    with pytest.raises(ValueError):
        Prototype("p", (4, 3, 2), precision="int8")
    with pytest.raises(ValueError):
        Prototype("", (4, 3, 2))


def test_param_vector_validation_and_copy():
    proto = tiny_proto()
    with pytest.raises(ShapeError):
        ParamVector(proto, np.zeros(proto.n_params + 1))
    with pytest.raises(ShapeError):
        ParamVector(proto, np.zeros((proto.n_params, 1)))
    pv = ParamVector(proto, np.zeros(proto.n_params))
    cp = pv.copy()
    cp.values[0] = 5.0
    assert pv.values[0] == 0.0


def test_layer_slices_tile_the_vector():
    proto = Prototype("p", (3, 5, 4, 2))
    slices = layer_slices(proto)
    total = 0
    for w_sl, b_sl, (fi, fo) in slices:
        assert w_sl.stop - w_sl.start == fi * fo
        assert b_sl.stop - b_sl.start == fo
        assert w_sl.start == total
        total = b_sl.stop
    assert total == proto.n_params
    views = unflatten(proto, np.arange(proto.n_params, dtype=np.float64))
    assert [w.shape for w, _ in views] == [(3, 5), (5, 4), (4, 2)]


def test_layer_slices_are_computed_once_per_prototype():
    proto = Prototype("p", (3, 5, 4, 2))
    slices = layer_slices(proto)
    assert layer_slices(proto) is slices
    assert isinstance(slices, tuple) and all(isinstance(s, tuple) for s in slices)
    binary = replace(proto, precision="binary_ste")
    assert layer_slices(binary) == slices and binary.n_params == proto.n_params == 54
    wider = replace(proto, layer_widths=(3, 6, 2))
    assert [(w.stop - w.start, b.stop - b.start) for w, b, _ in layer_slices(wider)] == [(18, 6), (12, 2)]
    assert wider.n_params == 38


def test_init_params_deterministic_with_zero_biases():
    proto = Prototype("p", (50, 40, 10))
    a = init_params(proto, 3)
    b = init_params(proto, 3)
    c = init_params(proto, 4)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    for w, bias in unflatten(proto, a.values):
        assert np.all(bias == 0.0)
        bound = math.sqrt(6.0 / w.shape[0])
        assert np.abs(w).max() <= bound
        # uniform(-bound, bound) has std bound/sqrt(3)
        assert 0.8 < w.std() / (bound / math.sqrt(3.0)) < 1.2


def test_forward_hand_computed_relu():
    proto = Prototype("h", (2, 2, 2))
    pv = ParamVector(proto, hand_params())
    logits = predict_logits(pv, np.array([[-0.25, 0.6]]))
    # hidden preact [0.25, -0.4] -> relu [0.25, 0]; output [0.5, -0.15]
    assert np.abs(logits[0] - np.array([0.5, -0.15])).max() < 1e-15


def test_forward_hand_computed_tanh():
    proto = Prototype("h", (2, 2, 2), activation="tanh")
    pv = ParamVector(proto, hand_params())
    logits = predict_logits(pv, np.array([[-0.25, 0.6]]))
    a = [math.tanh(0.25), math.tanh(-0.4)]
    expect = np.array([2.0 * a[0] + a[1], -a[0] + 0.1])
    assert np.abs(logits[0] - expect).max() < 1e-15


def test_predict_logits_batch_order_equivariant():
    proto = Prototype("p", (2, 32, 32, 3))
    pv = init_params(proto, 0)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(50, 2))
    perm = rng.permutation(50)
    assert np.abs(predict_logits(pv, x)[perm] - predict_logits(pv, x[perm])).max() < 1e-12


def test_forward_validation():
    proto = tiny_proto()
    pv = init_params(proto, 0)
    with pytest.raises(ShapeError):
        predict_logits(pv, np.zeros((3, 5)))
    with pytest.raises(ValueError):
        predict_logits(pv, np.array([[np.nan, 0.0]]))


def test_binarize_layer_hand_case():
    w = np.array([[0.5, -1.5], [2.0, -0.1]])
    out = binarize_layer(w)
    s = (0.5 + 1.5 + 2.0 + 0.1) / 4.0
    assert np.array_equal(out, np.array([[s, -s], [s, -s]]))


def test_binarize_values_leaves_biases_and_is_idempotent():
    proto = Prototype("b", (3, 4, 2), precision="binary_ste")
    rng = np.random.default_rng(2)
    vals = rng.normal(size=proto.n_params)
    once = binarize_values(proto, vals)
    twice = binarize_values(proto, once)
    assert np.array_equal(once, twice)
    for (_, b0), (_, b1) in zip(unflatten(proto, vals), unflatten(proto, once)):
        assert np.array_equal(b0, b1)
    for w, _ in unflatten(proto, once):
        mags = np.unique(np.abs(w))
        assert mags.shape[0] == 1


def test_binarized_forward_depends_only_on_sign_and_scale():
    proto = Prototype("b", (2, 6, 3), precision="binary_ste")
    pv = init_params(proto, 5)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(8, 2))
    base = predict_logits(pv, x)

    # shift mass between two same-sign weights: sign pattern and mean|w| unchanged
    vals = pv.values.copy()
    w_sl, _, _ = layer_slices(proto)[0]
    w = vals[w_sl]
    pos = np.flatnonzero(w > 0.05)
    w[pos[0]] += 0.01
    w[pos[1]] -= 0.01
    shifted = predict_logits(ParamVector(proto, vals), x)
    assert np.abs(shifted - base).max() < 1e-12

    # doubling the last layer's weights doubles its scale and the logit gap
    vals2 = pv.values.copy()
    w_sl2, b_sl2, _ = layer_slices(proto)[-1]
    vals2[w_sl2] *= 2.0
    doubled = predict_logits(ParamVector(proto, vals2), x)
    b2 = pv.values[b_sl2]
    assert np.abs(doubled - (2.0 * (base - b2) + b2)).max() < 1e-12


def test_ste_gradient_matches_engine_on_binarized_copy():
    rng = np.random.default_rng(7)
    for _ in range(10):
        widths = (2, int(rng.integers(3, 8)), int(rng.integers(2, 4)))
        proto = Prototype("b", widths, precision="binary_ste")
        full = Prototype("f", widths)
        pv = ParamVector(proto, rng.normal(scale=0.8, size=proto.n_params))
        x = rng.normal(size=(5, 2))
        y = rng.integers(0, widths[-1], size=5)
        ste = numerics.grad("ce", pv, x, labels=y)
        engine = numerics.grad(
            "ce", ParamVector(full, binarize_values(proto, pv.values)), x, labels=y
        )
        assert np.abs(ste - engine).max() < 1e-12


def test_ste_training_reaches_high_accuracy():
    import fedfusion as ff
    from fedfusion.flcore import client_local_update, top1_accuracy

    proto = Prototype("b", (2, 16, 2), precision="binary_ste")
    blobs = ff.make_gaussian_blobs(2, 100, np.array([[-1.5, 0.0], [1.5, 0.0]]), 0.5, seed=0)
    model = client_local_update(
        init_params(proto, 0), blobs, 30, 0.05, 32, np.random.default_rng(1)
    )
    assert top1_accuracy(model, blobs) > 0.9


def test_average_identical_models_is_bitwise_idempotent():
    proto = tiny_proto()
    pv = init_params(proto, 11)
    avg = average_params([pv.copy(), pv.copy(), pv.copy()], [1.0, 2.0, 5.0])
    assert np.array_equal(avg.values, pv.values)


def test_average_permutation_invariance():
    proto = tiny_proto()
    models = [init_params(proto, s) for s in range(4)]
    weights = [1.0, 3.0, 2.0, 0.5]
    a = average_params(models, weights)
    order = [2, 0, 3, 1]
    b = average_params([models[i] for i in order], [weights[i] for i in order])
    assert np.abs(a.values - b.values).max() < 1e-12


@st.composite
def models_and_weights(draw, values=st.floats(-10.0, 10.0)):
    """A random prototype, 1-6 parameter vectors of it and positive weights."""
    widths = tuple(draw(st.lists(st.integers(1, 5), min_size=2, max_size=4)))
    proto = Prototype("h", widths)
    vectors = st.lists(values, min_size=proto.n_params, max_size=proto.n_params)
    count = draw(st.integers(1, 6))
    models = [ParamVector(proto, np.array(draw(vectors))) for _ in range(count)]
    weights = draw(st.lists(st.floats(1e-3, 1e3), min_size=count, max_size=count))
    return models, weights


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=models_and_weights(), data=st.data())
def test_average_is_idempotent_bitwise_and_permutation_invariant(case, data):
    models, weights = case
    same = average_params([models[0].copy() for _ in models], weights)
    assert np.array_equal(same.values, models[0].values)
    order = data.draw(st.permutations(range(len(models))))
    a = average_params(models, weights)
    b = average_params([models[i] for i in order], [weights[i] for i in order])
    assert np.abs(a.values - b.values).max() < 1e-12  # anchored on the first model, so not bitwise


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    ident=st.text(min_size=1, max_size=12),
    case=models_and_weights(values=st.floats(allow_nan=True, allow_infinity=True)),
)
def test_save_and_load_params_round_trip(ident, case):
    model = case[0][0]
    proto = replace(model.prototype, id=ident)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.params"
        save_params(ParamVector(proto, model.values), path)
        back = load_params(path, [proto])
    assert back.prototype is proto
    assert back.values.tobytes() == model.values.tobytes()


def test_average_degenerate_weights():
    proto = tiny_proto()
    m0, m1 = init_params(proto, 0), init_params(proto, 1)
    picked = average_params([m0, m1], [1.0, 0.0])
    assert np.array_equal(picked.values, m0.values)

    small = Prototype("s", (1, 1))
    lo = ParamVector(small, np.zeros(2))
    hi = ParamVector(small, np.full(2, 4.0))
    mix = average_params([lo, hi], [1.0, 3.0])
    assert np.array_equal(mix.values, np.full(2, 3.0))


def test_average_validation():
    proto = tiny_proto()
    other = Prototype("other", proto.layer_widths)
    with pytest.raises(PrototypeMismatchError):
        average_params([init_params(proto, 0), init_params(other, 0)], [1.0, 1.0])
    with pytest.raises(ValueError, match="finite and non-negative"):
        average_params([init_params(proto, 0)], [-1.0])
    with pytest.raises(ValueError, match="must not sum to zero"):
        average_params([init_params(proto, 0)], [0.0])
    for weights in ([1.0, np.inf], [1.0, np.nan], [np.nan, 0.0], [-np.inf, 1.0]):  # refused, with no RuntimeWarning
        with pytest.raises(ValueError, match="^averaging weights must be finite and non-negative$"):
            average_params([init_params(proto, 0), init_params(proto, 1)], weights)
    with pytest.raises(ValueError):
        average_params([], [])


def test_serialization_roundtrip_bitwise(tmp_path):
    proto = Prototype("net-a", (3, 7, 4))
    pv = init_params(proto, 9)
    path = tmp_path / "model.params"
    save_params(pv, path)
    back = load_params(path, {proto.id: proto})
    assert back.prototype is proto
    assert np.array_equal(back.values, pv.values)


def test_serialization_byte_layout(tmp_path):
    proto = Prototype("ab", (1, 1))
    pv = ParamVector(proto, np.array([1.5, -2.0]))
    path = tmp_path / "tiny.params"
    save_params(pv, path)
    raw = path.read_bytes()
    assert raw[:4] == b"FFPV"
    (id_len,) = struct.unpack("<I", raw[4:8])
    assert raw[8 : 8 + id_len] == b"ab"
    (count,) = struct.unpack("<Q", raw[8 + id_len : 16 + id_len])
    assert count == 2
    assert struct.unpack("<2d", raw[16 + id_len :]) == (1.5, -2.0)


def test_serialization_errors(tmp_path):
    proto = Prototype("known", (1, 1))
    pv = ParamVector(proto, np.array([0.0, 1.0]))
    path = tmp_path / "m.params"
    save_params(pv, path)
    with pytest.raises(KeyError):
        load_params(path, {"different": Prototype("different", (1, 1))})
    truncated = tmp_path / "short.params"
    truncated.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError):
        load_params(truncated, {proto.id: proto})
    with pytest.raises(ShapeError):
        load_params(path, {"known": Prototype("known", (2, 3))})
    garbage = tmp_path / "garbage.params"
    garbage.write_bytes(b"JUNK" + path.read_bytes()[4:])
    with pytest.raises(ValueError):
        load_params(garbage, {proto.id: proto})
    trailing = tmp_path / "trailing.params"
    trailing.write_bytes(path.read_bytes() + b"garbage")
    with pytest.raises(ValueError, match="trailing"):
        load_params(trailing, {proto.id: proto})


def test_load_params_refuses_every_corrupt_file(tmp_path):
    """Each corrupt 2-4-3 file raises ValueError, or KeyError for an unknown id; a huge count allocates nothing."""
    proto = Prototype("p", (2, 4, 3))
    path = tmp_path / "m.params"
    save_params(init_params(proto, 0), path)
    good = path.read_bytes()  # FFPV, u32 id length 1, b"p", u64 count at byte 9, 27 float64 values
    count_at = 9
    cases = [(good[:n], ValueError, "bad magic" if n < 4 else "truncated") for n in range(len(good))]
    cases += [
        (good[:count_at] + struct.pack("<Q", 2**61) + good[count_at + 8 :], ValueError, "truncated"),
        (good[:count_at] + struct.pack("<Q", 10**12) + good[count_at + 8 :], ValueError, "truncated"),
        (good + b"\0", ValueError, "trailing"),
        (good[:8] + b"q" + good[9:], KeyError, "unknown prototype id 'q'"),
    ]
    for data, error, match in cases:
        path.write_bytes(data)
        with pytest.raises(error, match=match):
            load_params(path, [proto])
