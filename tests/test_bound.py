"""Finite-class generalization-bound machinery checked against hand arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedfusion._errors import ShapeError
from fedfusion.data import Dataset
from fedfusion.bound import (
    BoundReport,
    HypothesisClass,
    Stump,
    axis_stumps_2d,
    check_bound,
    empirical_risk,
    ensemble_risk,
    erm,
    h_delta_h_divergence,
    lambda_k,
    make_bound_instance,
    sauer_growth,
    signed_thresholds_1d,
    thresholds_1d,
)


def line_sample(xs, ys):
    return Dataset(np.asarray(xs, dtype=np.float64).reshape(-1, 1), np.asarray(ys), 2)


def bound_args(inst):
    keys = ("k_clients", "m", "delta", "hclass", "global_sample", "local_samples")
    return {k: inst[k] for k in keys}


def test_stump_predicts_threshold_rule():
    h = Stump(axis=0, threshold=1.5, sign=1)
    x = np.array([[0.0], [1.5], [2.0]])
    assert np.array_equal(h.predict(x), np.array([0, 1, 1]))
    flipped = Stump(axis=0, threshold=1.5, sign=-1)
    assert np.array_equal(flipped.predict(x), np.array([1, 1, 0]))


def test_hypothesis_families_and_vc_dims():
    grid = np.linspace(-3.0, 3.0, 15)
    t = thresholds_1d(grid)
    s = signed_thresholds_1d(grid)
    a = axis_stumps_2d(grid)
    assert (t.vc_dim, s.vc_dim, a.vc_dim) == (1, 2, 3)
    assert len(t) == 15
    assert len(s) == 30
    assert len(a) == 60
    x = np.array([[-4.0], [4.0]])
    preds = t.predictions(x)
    assert preds.shape == (15, 2)
    assert np.array_equal(preds[:, 0], np.zeros(15))  # -4 below every threshold
    assert np.array_equal(preds[:, 1], np.ones(15))


def test_empirical_risk_trivials():
    sample = line_sample([0.0, 1.0, 2.0, 3.0], [0, 0, 1, 1])
    assert empirical_risk(Stump(0, 2.0, 1), sample) == 0.0
    flipped = line_sample([0.0, 1.0, 2.0, 3.0], [1, 1, 0, 0])
    assert empirical_risk(Stump(0, 2.0, 1), flipped) == 1.0
    assert empirical_risk(Stump(0, -1.0, 1), sample) == 0.5


def test_ensemble_risk_hand_case():
    # predictions on x = [0,1,2,3]: h1 [0,0,1,1], h2 [1,1,1,1], h3 [0,0,0,0]
    # y = [0,1,1,1]; mean votes [1/3,1/3,2/3,2/3]; risk = mean |vote - y| = 5/12
    sample = line_sample([0.0, 1.0, 2.0, 3.0], [0, 1, 1, 1])
    hyps = [Stump(0, 2.0, 1), Stump(0, -1.0, 1), Stump(0, 10.0, 1)]
    assert ensemble_risk(hyps, sample) == pytest.approx(5.0 / 12.0, abs=1e-12)
    mean_individual = np.mean([empirical_risk(h, sample) for h in hyps])
    assert ensemble_risk(hyps, sample) == pytest.approx(mean_individual, abs=1e-12)


def test_ensemble_risk_never_exceeds_mean_individual():
    rng = np.random.default_rng(0)
    grid = np.linspace(-2.0, 2.0, 9)
    hclass = thresholds_1d(grid)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        sample = line_sample(rng.normal(size=n), rng.integers(0, 2, size=n))
        hyps = [hclass.hypotheses[i] for i in rng.integers(0, len(hclass), size=3)]
        ens = ensemble_risk(list(hyps), sample)
        mean_ind = np.mean([empirical_risk(h, sample) for h in hyps])
        assert ens <= mean_ind + 1e-12


def test_erm_picks_minimum_and_breaks_ties_first():
    sample = line_sample([0.0, 1.0, 2.0, 3.0], [0, 0, 1, 1])
    grid = np.array([-10.0, 1.5, 1.7, 10.0])
    hclass = thresholds_1d(grid)
    best = erm(hclass, sample)
    assert best.threshold == 1.5  # 1.7 also has zero risk; first index wins
    assert empirical_risk(best, sample) == 0.0


def test_sauer_growth_values():
    assert sauer_growth(10, 1) == 11.0
    assert sauer_growth(10, 2) == 1 + 10 + 45
    assert sauer_growth(4, 17) == 16.0  # vc >= n collapses to 2^n
    assert sauer_growth(0, 3) == 1.0
    ns = [2, 5, 9, 14]
    for d in (1, 2, 3):
        vals = [sauer_growth(n, d) for n in ns]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        sauer_growth(-1, 2)


def test_divergence_zero_for_identical_samples():
    rng = np.random.default_rng(1)
    hclass = thresholds_1d(np.linspace(-2, 2, 11))
    x = rng.normal(size=12)
    a = line_sample(x, rng.integers(0, 2, size=12))
    b = line_sample(x.copy(), np.zeros(12, dtype=np.int64))  # labels are ignored
    assert h_delta_h_divergence(a, b, hclass) == 0.0


def test_divergence_zero_for_single_hypothesis():
    hclass = HypothesisClass((Stump(0, 0.0, 1),), vc_dim=1, name="solo")
    a = line_sample([-1.0, 1.0], [0, 1])
    b = line_sample([5.0, 6.0], [0, 1])
    assert h_delta_h_divergence(a, b, hclass) == 0.0


def test_divergence_reaches_two_on_separated_supports():
    # thresholds {0.5, 1.5}: the pair disagrees exactly on (0.5, 1.5), which
    # covers all of sample A and none of sample B
    hclass = thresholds_1d(np.array([0.5, 1.5]))
    a = line_sample(np.linspace(0.6, 1.4, 9), np.zeros(9, dtype=np.int64))
    b = line_sample(np.linspace(1.6, 2.4, 9), np.zeros(9, dtype=np.int64))
    assert h_delta_h_divergence(a, b, hclass) == 2.0


def test_divergence_symmetry_and_range():
    rng = np.random.default_rng(2)
    hclass = signed_thresholds_1d(np.linspace(-2, 2, 7))
    for _ in range(50):
        a = line_sample(rng.normal(size=8), rng.integers(0, 2, size=8))
        b = line_sample(rng.normal(loc=rng.uniform(-2, 2), size=8), rng.integers(0, 2, size=8))
        d_ab = h_delta_h_divergence(a, b, hclass)
        d_ba = h_delta_h_divergence(b, a, hclass)
        assert d_ab == d_ba
        assert 0.0 <= d_ab <= 2.0


def test_divergence_monotone_under_class_refinement():
    # a richer hypothesis class can only raise the pairwise supremum
    rng = np.random.default_rng(3)
    coarse_grid = np.linspace(-2, 2, 5)
    fine_grid = np.linspace(-2, 2, 17)  # contains the coarse grid
    assert set(np.round(coarse_grid, 12)).issubset(set(np.round(fine_grid, 12)))
    for _ in range(25):
        a = line_sample(rng.normal(size=10), rng.integers(0, 2, size=10))
        b = line_sample(rng.normal(loc=1.0, size=10), rng.integers(0, 2, size=10))
        d_coarse = h_delta_h_divergence(a, b, thresholds_1d(coarse_grid))
        d_fine = h_delta_h_divergence(a, b, thresholds_1d(fine_grid))
        assert d_coarse <= d_fine + 1e-12


def test_lambda_k_hand_case():
    # two hypotheses: perfect on global, each half-wrong locally
    hclass = thresholds_1d(np.array([1.5, 2.5]))
    global_sample = line_sample([0.0, 1.0, 2.0, 3.0], [0, 0, 1, 1])
    local = line_sample([1.0, 2.0], [1, 0])  # both labels disagree with x >= 1.5
    # h(1.5): global risk 0, local risk 1.0; h(2.5): global 1/4, local 1/2
    assert lambda_k(hclass, global_sample, local) == pytest.approx(0.75, abs=1e-12)


def test_check_bound_terms_add_up():
    inst = make_bound_instance(0)
    report = check_bound(**bound_args(inst))
    disc = np.mean([h + l for h, l in report.discrepancy_terms])
    assert report.rhs == pytest.approx(report.erm_term + report.complexity_term + disc, abs=1e-12)
    assert report.holds == (report.lhs <= report.rhs + 1e-12)
    d = report.to_dict()
    assert d["slack"] == pytest.approx(report.rhs - report.lhs, abs=1e-12)
    assert len(report.discrepancy_terms) == inst["k_clients"]


def test_check_bound_holds_on_random_instances():
    for seed in range(20):
        inst = make_bound_instance(seed)
        report = check_bound(**bound_args(inst))
        assert report.holds, f"seed {seed}: lhs {report.lhs} > rhs {report.rhs}"
        assert report.lhs >= 0.0
        for half_d, lam in report.discrepancy_terms:
            assert 0.0 <= half_d <= 1.0  # half of a [0, 2] divergence
            assert lam >= 0.0


def test_check_bound_validation():
    inst = make_bound_instance(1)
    with pytest.raises(ValueError):
        check_bound(
            inst["k_clients"] + 1, inst["m"], inst["delta"], inst["hclass"],
            inst["global_sample"], inst["local_samples"],
        )
    with pytest.raises(ValueError):
        check_bound(
            inst["k_clients"], inst["m"] + 1, inst["delta"], inst["hclass"],
            inst["global_sample"], inst["local_samples"],
        )
    with pytest.raises(ValueError):
        check_bound(
            inst["k_clients"], inst["m"], 1.5, inst["hclass"],
            inst["global_sample"], inst["local_samples"],
        )


def test_make_bound_instance_deterministic_and_family_rotation():
    a = make_bound_instance(3)
    b = make_bound_instance(3)
    assert np.array_equal(a["global_sample"].inputs, b["global_sample"].inputs)
    assert a["m"] == b["m"] and a["k_clients"] == b["k_clients"]
    names = {make_bound_instance(s)["hclass"].name for s in range(6)}
    assert len(names) == 3  # mixed family rotates through all three classes


# --- per-row reference formulas ---------------------------------------------
# The bound module counts risks and disagreements per cell; these are the
# per-row formulas it replaced, kept as the reference it must equal bitwise.


def reference_risks(hclass, sample):
    return (hclass.predictions(sample.inputs) != sample.labels[None, :]).mean(axis=1)


def reference_disagreement_matrix(preds):
    s = (2.0 * preds - 1.0).astype(np.float64)
    agree = (s @ s.T) / preds.shape[1]
    return (1.0 - agree) / 2.0


def reference_erm(hclass, sample):
    return hclass.hypotheses[int(np.argmin(reference_risks(hclass, sample)))]


def reference_divergence(sample_a, sample_b, hclass):
    da = reference_disagreement_matrix(hclass.predictions(sample_a.inputs))
    db = reference_disagreement_matrix(hclass.predictions(sample_b.inputs))
    return float(2.0 * np.abs(da - db).max())


def reference_lambda(hclass, global_sample, local_sample):
    return float((reference_risks(hclass, global_sample) + reference_risks(hclass, local_sample)).min())


def reference_check_bound(k_clients, m, delta, hclass, global_sample, local_samples):
    local_erms = [reference_erm(hclass, s) for s in local_samples]
    pooled = Dataset(
        np.concatenate([s.inputs for s in local_samples]),
        np.concatenate([s.labels for s in local_samples]),
        2,
    )
    erm_term = empirical_risk(reference_erm(hclass, pooled), pooled)
    lhs = ensemble_risk(local_erms, global_sample)
    growth = sauer_growth(2 * m, hclass.vc_dim)
    complexity = (4.0 + math.sqrt(math.log(growth))) / ((delta / k_clients) * math.sqrt(2.0 * m))
    terms = [
        (0.5 * reference_divergence(s, global_sample, hclass), reference_lambda(hclass, global_sample, s))
        for s in local_samples
    ]
    rhs = erm_term + complexity + float(np.mean([h + l for h, l in terms]))
    return BoundReport(lhs, erm_term, complexity, terms, rhs, bool(lhs <= rhs + 1e-12), bool(rhs >= 1.0))


GRID = st.lists(st.integers(-8, 8).map(lambda v: v / 4.0), min_size=1, max_size=6)
FAMILIES = {
    "thresholds_1d": thresholds_1d,
    "signed_thresholds_1d": signed_thresholds_1d,
    "axis_stumps_2d": axis_stumps_2d,
}


@st.composite
def bound_cases(draw):
    """A class (a family, or raw stumps with unsorted and repeated thresholds)
    and samples whose inputs often sit exactly on a threshold."""
    grid = draw(GRID)
    kind = draw(st.sampled_from(sorted(FAMILIES) + ["raw"]))
    if kind == "raw":
        stump = st.builds(Stump, st.integers(0, 1), st.sampled_from(grid), st.sampled_from([1, -1]))
        hclass = HypothesisClass(tuple(draw(st.lists(stump, min_size=1, max_size=6))), 2, "raw")
    else:
        hclass = FAMILIES[kind](grid)
    dim = 1 + max(h.axis for h in hclass.hypotheses)
    value = st.one_of(st.sampled_from(grid), st.floats(-3.0, 3.0, allow_nan=False))

    def sample(n):
        rows = draw(st.lists(st.lists(value, min_size=dim, max_size=dim), min_size=n, max_size=n))
        labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        return Dataset(np.array(rows), np.array(labels), 2)

    k, m = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    local_samples = [sample(m) for _ in range(k)]
    return hclass, sample(draw(st.integers(1, 24))), local_samples, k, m


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=bound_cases())
def test_cell_counts_equal_the_per_row_formulas_bitwise(case):
    hclass, global_sample, local_samples, k, m = case
    for s in [global_sample] + local_samples:
        stack = np.stack([h.predict(s.inputs) for h in hclass.hypotheses])
        assert np.array_equal(hclass.predictions(s.inputs), stack)
        assert erm(hclass, s) is reference_erm(hclass, s)
        assert lambda_k(hclass, global_sample, s) == reference_lambda(hclass, global_sample, s)
        assert h_delta_h_divergence(s, global_sample, hclass) == reference_divergence(
            s, global_sample, hclass
        )
    got = check_bound(k, m, 0.5, hclass, global_sample, local_samples)
    want = reference_check_bound(k, m, 0.5, hclass, global_sample, local_samples)
    assert got.to_dict() == want.to_dict()


def test_cell_counts_equal_the_per_row_formulas_on_default_instances():
    for seed in range(6):
        inst = make_bound_instance(seed)
        got = check_bound(**bound_args(inst)).to_dict()
        assert got == reference_check_bound(**bound_args(inst)).to_dict()


@pytest.mark.parametrize("family", [thresholds_1d, signed_thresholds_1d, axis_stumps_2d])
def test_class_predictions_equal_the_per_stump_stack_bitwise(family):
    grid = np.linspace(-3.0, 3.0, 15)
    hclass = family(grid)
    rng = np.random.default_rng(3)
    x = rng.normal(scale=2.0, size=(500, 2))
    x[::5] = rng.choice(grid, size=(100, 2))  # rows exactly on a threshold
    x[7] = [-0.0, 0.0]
    want = np.stack([h.predict(x) for h in hclass.hypotheses])
    got = hclass.predictions(x)
    assert got.dtype == want.dtype == np.int8
    assert np.array_equal(got, want)


def test_missing_axis_raises_the_stump_shape_error():
    # the first stump that does not fit names the axis, as in Stump.predict
    hclass = HypothesisClass((Stump(0, 0.0, 1), Stump(3, 0.0, 1), Stump(2, 0.0, 1)), 3, "gap")
    sample = Dataset(np.zeros((3, 2)), np.array([0, 1, 0]), 2)
    with pytest.raises(ShapeError) as from_predict:
        hclass.predictions(sample.inputs)
    assert "lacks axis 3" in str(from_predict.value)
    with pytest.raises(ShapeError, match=r"inputs shape \(3,\) lacks axis 0"):
        hclass.predictions(np.zeros(3))
    for call in (
        lambda: erm(hclass, sample),
        lambda: lambda_k(hclass, sample, sample),
        lambda: h_delta_h_divergence(sample, sample, hclass),
        lambda: check_bound(1, 3, 0.5, hclass, sample, [sample]),
    ):
        with pytest.raises(ShapeError) as raised:
            call()
        assert str(raised.value) == str(from_predict.value)


def test_hypothesis_class_rejects_empty_tuple_and_negative_vc_dim():
    with pytest.raises(ValueError):
        HypothesisClass((), 1, "empty")
    with pytest.raises(ValueError):
        HypothesisClass((Stump(0, 0.0, 1),), -1, "negative")


# make_bound_instance(seed, k_clients=1, m=2000, delta=0.5) is non-vacuous for
# every seed in 0..59 but these; on the other 55 the smallest slack is 0.3047
VACUOUS_AT_M2000 = {3, 27, 45, 54, 57}


def test_bound_holds_with_margin_where_it_is_not_vacuous():
    """Unlike the default instances (all vacuous, so any risk 'holds'), these
    can fail: a dropped term eats the margin, an inflated one makes rhs >= 1."""
    for seed in range(60):
        report = check_bound(**bound_args(make_bound_instance(seed, k_clients=1, m=2000, delta=0.5)))
        if seed in VACUOUS_AT_M2000:
            assert report.vacuous, seed
            continue
        assert report.holds and not report.vacuous, seed
        assert report.rhs - report.lhs >= 0.3, seed
