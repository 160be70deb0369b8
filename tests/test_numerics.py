"""Losses, gradients, and optimizer steps against closed forms and finite differences."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fedfusion import numerics
from fedfusion._errors import ShapeError
from fedfusion.models import ParamVector
from fedfusion.numerics import (
    OptimizerState,
    cosine_lr,
    cross_entropy,
    current_lr,
    grad,
    kl_div,
    log_softmax,
    opt_step,
    softmax,
)

from helpers import ce_at, fd_grad, kl_at, max_rel_err, random_case


def test_softmax_matches_closed_form():
    out = softmax(np.array([0.0, math.log(2.0)]))
    assert np.abs(out - np.array([1.0 / 3.0, 2.0 / 3.0])).max() < 1e-12


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = rng.normal(scale=3.0, size=5)
        c = float(rng.normal(scale=50.0))
        assert np.abs(softmax(z) - softmax(z + c)).max() < 1e-12


def test_softmax_rows_are_distributions():
    rng = np.random.default_rng(1)
    for _ in range(50):
        z = rng.normal(scale=10.0, size=(int(rng.integers(1, 6)), int(rng.integers(2, 7))))
        p = softmax(z)
        assert p.shape == z.shape
        assert (p >= 0.0).all()
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
    v = softmax(np.array([1.0, 2.0, 3.0]))
    assert v.ndim == 1 and abs(v.sum() - 1.0) < 1e-12


def test_softmax_rejects_bad_input():
    with pytest.raises(ValueError):
        softmax(np.array([0.0, np.nan]))
    with pytest.raises(ShapeError):
        softmax(np.zeros((2, 2, 2)))


def test_kl_known_values():
    assert abs(kl_div([1.0, 0.0], [0.5, 0.5]) - math.log(2.0)) < 1e-12
    assert abs(kl_div([0.25, 0.75], [0.25, 0.75])) < 1e-12
    # zero-mass prediction on the support hits the 1e-12 clamp floor
    assert abs(kl_div([1.0, 0.0], [0.0, 1.0]) - math.log(1e12)) < 1e-9


def test_kl_nonnegative_on_random_pairs():
    rng = np.random.default_rng(2)
    for _ in range(100):
        k = int(rng.integers(2, 8))
        t = softmax(rng.normal(scale=4.0, size=k))
        q = softmax(rng.normal(scale=4.0, size=k))
        assert kl_div(t, q) >= -1e-12


def test_kl_validation():
    with pytest.raises(ShapeError):
        kl_div([0.5, 0.5], [0.25, 0.25, 0.5])
    with pytest.raises(ValueError):
        kl_div([0.9, 0.3], [0.5, 0.5])
    with pytest.raises(ValueError):
        kl_div([-0.5, 1.5], [0.5, 0.5])


def test_cross_entropy_uniform_logits_is_log_class_count():
    z = np.zeros((6, 7))
    y = np.arange(6) % 7
    assert abs(cross_entropy(y, z) - math.log(7.0)) < 1e-12


def test_cross_entropy_hand_value():
    # softmax([0, ln 3]) = [1/4, 3/4]; label 1 -> -ln(3/4)
    z = np.array([[0.0, math.log(3.0)]])
    assert abs(cross_entropy(np.array([1]), z) - (-math.log(0.75))) < 1e-12


def test_cross_entropy_is_batch_mean():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(4, 3))
    y = rng.integers(0, 3, size=4)
    per_row = [cross_entropy(y[i : i + 1], z[i : i + 1]) for i in range(4)]
    assert abs(cross_entropy(y, z) - np.mean(per_row)) < 1e-12


def test_cross_entropy_validation():
    with pytest.raises(ShapeError):
        cross_entropy(np.array([0.5]), np.zeros((1, 2)))
    with pytest.raises(IndexError):
        cross_entropy(np.array([2]), np.zeros((1, 2)))
    with pytest.raises(ShapeError):
        cross_entropy(np.array([], dtype=np.int64), np.zeros((0, 2)))


def test_log_softmax_consistent_with_softmax():
    rng = np.random.default_rng(4)
    z = rng.normal(scale=20.0, size=(3, 5))
    assert np.abs(np.exp(log_softmax(z)) - softmax(z)).max() < 1e-12


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    worst = 0.0
    for i in range(50):
        params, inputs, labels, target_probs = random_case(rng)
        if i % 2 == 0:
            analytic = grad("ce", params, inputs, labels=labels)
            loss = ce_at(params, inputs, labels)
        else:
            analytic = grad("kl_vs_target", params, inputs, target_probs=target_probs)
            loss = kl_at(params, inputs, target_probs)
        numeric = fd_grad(loss, params.values.copy())
        worst = max(worst, max_rel_err(numeric, analytic))
    assert worst <= 1e-4, f"finite-difference mismatch, worst relative error {worst:.3e}"


def test_grad_is_batch_size_invariant():
    rng = np.random.default_rng(6)
    params, inputs, labels, _ = random_case(rng)
    g1 = grad("ce", params, inputs, labels=labels)
    g2 = grad("ce", params, np.vstack([inputs, inputs]), labels=np.concatenate([labels, labels]))
    assert np.abs(g1 - g2).max() < 1e-12


def test_grad_zero_when_model_already_matches_target():
    # zero parameters give uniform softmax rows; uniform targets zero the gradient
    from helpers import tiny_proto

    proto = tiny_proto(classes=4, hidden=5)
    params = ParamVector(proto, np.zeros(proto.n_params))
    rng = np.random.default_rng(7)
    inputs = rng.normal(size=(6, 2))
    targets = np.full((6, 4), 0.25)
    g = grad("kl_vs_target", params, inputs, target_probs=targets)
    assert np.abs(g).max() == 0.0


def test_grad_validation():
    rng = np.random.default_rng(8)
    params, inputs, labels, target_probs = random_case(rng)
    with pytest.raises(ValueError):
        grad("ce", params, inputs)
    with pytest.raises(ValueError):
        grad("kl_vs_target", params, inputs)
    with pytest.raises(ValueError):
        grad("nope", params, inputs, labels=labels)
    bad = target_probs.copy()
    bad[0] = bad[0] * 3.0
    with pytest.raises(ValueError):
        grad("kl_vs_target", params, inputs, target_probs=bad)


def test_opt_step_sgd_exact():
    from helpers import tiny_proto

    proto = tiny_proto()
    one = ParamVector(proto, np.ones(proto.n_params))
    state = OptimizerState.sgd(0.1)
    new, state2 = opt_step(state, one, np.ones(proto.n_params))
    assert np.all(new.values == 0.9)
    assert state2.step_count == 1 and state.step_count == 0
    assert np.all(one.values == 1.0)


def test_opt_step_adam_first_step_is_signed_lr():
    from helpers import tiny_proto

    proto = tiny_proto()
    x = ParamVector(proto, np.zeros(proto.n_params))
    state = OptimizerState.adam(1e-3, proto.n_params)
    g = np.full(proto.n_params, 3.0)
    new, _ = opt_step(state, x, g)
    # bias-corrected first step: -lr * g / (|g| + eps) ~ -lr * sign(g)
    assert np.abs(new.values + 1e-3).max() < 1e-8


def test_opt_step_deterministic_and_pure():
    rng = np.random.default_rng(9)
    params, inputs, labels, _ = random_case(rng)
    g = grad("ce", params, inputs, labels=labels)
    state = OptimizerState.adam(1e-2, params.values.shape[0])
    a1, s1 = opt_step(state, params, g)
    a2, s2 = opt_step(state, params, g)
    assert np.array_equal(a1.values, a2.values)
    assert np.array_equal(s1.m, s2.m) and np.array_equal(s1.v, s2.v)
    assert np.all(state.m == 0.0)


def test_cosine_schedule_values():
    assert cosine_lr(0.4, 0, 100) == 0.4
    assert abs(cosine_lr(0.4, 50, 100) - 0.2) < 1e-15
    assert cosine_lr(0.4, 100, 100) == 0.0
    assert cosine_lr(0.4, 250, 100) == 0.0


def test_cosine_schedule_drives_opt_step():
    from helpers import tiny_proto

    proto = tiny_proto()
    params = ParamVector(proto, np.zeros(proto.n_params))
    state = OptimizerState.sgd(1.0, schedule="cosine", total_steps=10)
    lrs = []
    for _ in range(10):
        lrs.append(current_lr(state))
        params, state = opt_step(state, params, np.ones(proto.n_params))
    assert lrs[0] == 1.0
    assert all(a > b for a, b in zip(lrs, lrs[1:]))


def test_opt_step_validation():
    from helpers import tiny_proto

    proto = tiny_proto()
    params = ParamVector(proto, np.zeros(proto.n_params))
    state = OptimizerState.sgd(0.1)
    with pytest.raises(ShapeError):
        opt_step(state, params, np.zeros(3))
    with pytest.raises(ValueError):
        opt_step(state, params, np.full(proto.n_params, np.inf))
    with pytest.raises(ValueError):
        OptimizerState.sgd(0.1, schedule="cosine")
    with pytest.raises(ValueError):
        OptimizerState(kind="rmsprop", base_lr=0.1)


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_in_place_rule_equals_opt_step_bitwise(kind):
    from helpers import tiny_proto

    proto = tiny_proto()
    rng = np.random.default_rng(12)
    grads = rng.normal(size=(7, proto.n_params))

    def fresh():
        if kind == "sgd":
            return OptimizerState.sgd(0.1)
        return OptimizerState.adam(1e-2, proto.n_params, schedule="cosine", total_steps=5)

    params, state = ParamVector(proto, rng.normal(size=proto.n_params)), fresh()
    values, live = params.values.copy(), fresh()
    for g in grads:  # seven steps run past the cosine schedule's end
        params, state = opt_step(state, params, g)
        numerics._step_in_place(live, values, g, (np.empty_like(g), np.empty_like(g)))
        assert np.array_equal(values, params.values)
        assert live.step_count == state.step_count
        if kind == "adam":
            assert np.array_equal(live.m, state.m) and np.array_equal(live.v, state.v)


def test_logit_gradient_rule_is_the_batch_mean_formula_bitwise():
    rng = np.random.default_rng(14)
    probs = softmax(rng.normal(size=(7, 4)))
    targets = softmax(rng.normal(size=(7, 4)))
    labels = rng.integers(0, 4, 7)
    assert np.array_equal(numerics._dlogits(probs.copy(), targets), (probs - targets) / 7)
    # one-hot rows give cross-entropy's rule: subtract 1 at the label, then divide
    ce = probs.copy()
    ce[np.arange(7), labels] -= 1.0
    assert np.array_equal(numerics._dlogits(probs.copy(), np.eye(4)[labels]), ce / 7)


def test_adam_rule_updates_its_moments_in_place_with_the_same_float_ops():
    rng = np.random.default_rng(13)
    state = OptimizerState.adam(1e-2, 20, schedule="cosine", total_steps=4)
    m, v, values = state.m, state.v, rng.normal(size=20)
    for g in rng.normal(size=(6, 20)):
        lr, t = numerics.current_lr(state), state.step_count + 1
        expect_m = state.beta1 * m + (1.0 - state.beta1) * g
        expect_v = state.beta2 * v + (1.0 - state.beta2) * g * g
        m_hat, v_hat = expect_m / (1.0 - state.beta1**t), expect_v / (1.0 - state.beta2**t)
        expect_values = values - lr * m_hat / (np.sqrt(v_hat) + state.eps)
        numerics._step_in_place(state, values, g, (np.empty(20), np.empty(20)))
        assert state.m is m and state.v is v
        assert np.array_equal(m, expect_m) and np.array_equal(v, expect_v)
        assert np.array_equal(values, expect_values)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_in=st.integers(1, 3),
    hidden=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    n_classes=st.integers(2, 4),
    activation=st.sampled_from(["relu", "tanh"]),
    batch=st.integers(1, 6),
)
def test_grad_matches_finite_differences_on_random_shapes(seed, n_in, hidden, n_classes, activation, batch):
    """Both losses against central differences (h = 1e-6), relative error <= 1e-4."""
    from fedfusion.models import Prototype, forward_cached

    rng = np.random.default_rng(seed)
    proto = Prototype("h", (n_in, *hidden, n_classes), activation=activation)
    params = ParamVector(proto, rng.normal(scale=0.7, size=proto.n_params))
    inputs = rng.normal(size=(batch, n_in))
    if activation == "relu":
        # the finite-difference oracle is only valid away from the kink at 0
        _, (_, preacts, _) = forward_cached(proto, params.values, inputs)
        assume(min(np.abs(z).min() for z in preacts[:-1]) > 1e-3)
    labels = rng.integers(0, n_classes, size=batch)
    target_probs = softmax(rng.normal(size=(batch, n_classes)))
    for analytic, loss in (
        (grad("ce", params, inputs, labels=labels), ce_at(params, inputs, labels)),
        (
            grad("kl_vs_target", params, inputs, target_probs=target_probs),
            kl_at(params, inputs, target_probs),
        ),
    ):
        numeric = fd_grad(loss, params.values.copy())
        assert max_rel_err(numeric, analytic) <= 1e-4
