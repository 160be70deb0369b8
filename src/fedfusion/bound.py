"""Brute-force diagnostics for an ensemble generalization bound.

Everything here works on finite hypothesis classes (axis-aligned threshold
rules) and binary-labeled samples, small enough that every quantity in the
bound is computed exactly:

    L_D(avg of local ERMs) <= L_Dhat(pooled ERM)
                              + (4 + sqrt(log growth(2m))) / ((delta/K) * sqrt(2m))
                              + (1/K) * sum_k [ d_k / 2 + lambda_k ]

with growth the Sauer bound on the class's growth function, d_k the
symmetric-difference divergence between client k's distribution and the
global one, and lambda_k the best joint risk achievable on both. True
distributions are approximated by large reference samples; client
distributions by the client samples themselves.

Risks and disagreement rates are integer counts over cells (sets of rows that
every hypothesis labels alike), divided by the row count: bitwise the per-row
means. ensemble_risk stays per row: its sum of non-integer |votes - y| depends on order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._errors import ShapeError
from .data import Dataset


@dataclass(frozen=True)
class Stump:
    """Axis-aligned threshold rule: predict 1 iff sign * (x[axis] - threshold) >= 0."""

    axis: int
    threshold: float
    sign: int = 1

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.axis < 0:
            raise ValueError("axis must be non-negative")

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim != 2 or self.axis >= x.shape[1]:
            raise ShapeError(f"inputs shape {x.shape} lacks axis {self.axis}")
        return (self.sign * (x[:, self.axis] - self.threshold) >= 0).astype(np.int8)


@dataclass(frozen=True)
class HypothesisClass:
    """Finite tuple of stumps with a documented VC dimension."""

    hypotheses: tuple[Stump, ...]
    vc_dim: int
    name: str

    def __post_init__(self) -> None:
        if not self.hypotheses or self.vc_dim < 0:
            raise ValueError("a hypothesis class needs a hypothesis and a non-negative vc_dim")
        # built once: predictions compares every stump with every row in one broadcast
        object.__setattr__(self, "_axes", np.array([h.axis for h in self.hypotheses]))
        object.__setattr__(self, "_thresholds", np.array([[h.threshold] for h in self.hypotheses]))
        object.__setattr__(self, "_signs", np.array([[h.sign] for h in self.hypotheses]))

    def __len__(self) -> int:
        return len(self.hypotheses)

    def predictions(self, inputs: np.ndarray) -> np.ndarray:
        """(|H|, n) 0/1 prediction matrix: row i is hypotheses[i].predict(inputs) bit for bit."""
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim != 2 or self._axes.max() >= x.shape[1]:
            axis = next(h.axis for h in self.hypotheses if x.ndim != 2 or h.axis >= x.shape[1])
            raise ShapeError(f"inputs shape {x.shape} lacks axis {axis}")
        return (self._signs * (x.T[self._axes] - self._thresholds) >= 0).astype(np.int8)


def thresholds_1d(grid) -> HypothesisClass:
    """{ 1[x >= t] : t in grid }. VC dimension 1 (cannot realize high-then-low)."""
    hyps = tuple(Stump(0, float(t), 1) for t in sorted(grid))
    return HypothesisClass(hyps, 1, "thresholds_1d")


def signed_thresholds_1d(grid) -> HypothesisClass:
    """Thresholds in both orientations. VC dimension 2 (no non-monotone triple)."""
    ts = sorted(grid)
    hyps = tuple(Stump(0, float(t), s) for s in (1, -1) for t in ts)
    return HypothesisClass(hyps, 2, "signed_thresholds_1d")


def axis_stumps_2d(grid) -> HypothesisClass:
    """Two-axis stumps, both orientations. VC dimension 3: a triangle with the
    middle-x point extreme in y is shattered; on any 4 points each axis only
    realizes the 8 rank-monotone labelings, so at most 14 of the 16 appear."""
    ts = sorted(grid)
    hyps = tuple(
        Stump(axis, float(t), s) for axis in (0, 1) for s in (1, -1) for t in ts
    )
    return HypothesisClass(hyps, 3, "axis_stumps_2d")


# family name -> class builder; "mixed" picks the (seed % 3)-th in this order
FAMILIES = {f.__name__: f for f in (thresholds_1d, signed_thresholds_1d, axis_stumps_2d)}


def _check_binary(sample: Dataset, name: str) -> None:
    if sample.class_count != 2:
        raise ValueError(f"{name} must be binary-labeled, has class_count {sample.class_count}")


def empirical_risk(h: Stump, sample: Dataset) -> float:
    """Mean zero-one loss of a single hypothesis."""
    _check_binary(sample, "sample")
    return float((h.predict(sample.inputs) != sample.labels).mean())


def ensemble_risk(hypotheses: list[Stump], sample: Dataset) -> float:
    """Risk of the averaged predictor: mean over x of |mean_k h_k(x) - y|.

    This is the prediction-averaged (not majority-vote) ensemble, so by
    convexity it never exceeds the mean of the individual risks.
    """
    if not hypotheses:
        raise ValueError("ensemble_risk needs at least one hypothesis")
    _check_binary(sample, "sample")
    votes = np.stack([h.predict(sample.inputs) for h in hypotheses]).mean(axis=0)
    return float(np.abs(votes - sample.labels).mean())


def _cells(hclass: HypothesisClass, sample: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(|H|, C) predictions on one row per cell, rows per cell, (|H|,) error counts.

    A cell is one code per axis the class reads, in order of first use (so a missing
    axis fails as in Stump.predict): 2i below distinct threshold i and above i - 1, 2i + 1 on it.
    """
    x = sample.inputs
    cell = np.zeros(len(x), dtype=np.int64)
    for axis in dict.fromkeys(h.axis for h in hclass.hypotheses):
        if axis >= x.shape[1]:
            raise ShapeError(f"inputs shape {x.shape} lacks axis {axis}")
        ts = np.unique(np.array([h.threshold for h in hclass.hypotheses if h.axis == axis], np.float64))
        pos = np.searchsorted(ts, x[:, axis])
        key = cell * (2 * len(ts) + 1) + 2 * pos + (ts[np.minimum(pos, len(ts) - 1)] == x[:, axis])
        cell = (np.cumsum(np.bincount(key) > 0) - 1)[key]
    counts = np.bincount(cell)
    rep = np.empty(len(counts), dtype=np.int64)
    rep[cell] = np.arange(len(x))  # any row of a cell represents it
    ones = np.bincount(cell[sample.labels == 1], minlength=len(counts))
    preds = hclass.predictions(x[rep])
    return preds, counts, np.where(preds == 1, counts - ones, ones).sum(axis=1)


def _disagreements(cells: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Pairwise disagreement rates: (1 - agreement sum / rows) / 2."""
    s, counts = 2.0 * cells[0] - 1.0, cells[1]
    return (1.0 - ((s * counts) @ s.T) / counts.sum()) / 2.0


def erm(hclass: HypothesisClass, sample: Dataset) -> Stump:
    """Empirical risk minimizer; ties break to the earliest hypothesis."""
    _check_binary(sample, "sample")
    return hclass.hypotheses[int(np.argmin(_cells(hclass, sample)[2] / len(sample)))]


def sauer_growth(n: int, vc_dim: int) -> float:
    """Sauer bound on the growth function: sum_{i<=vc_dim} C(n, i)."""
    if n < 0 or vc_dim < 0:
        raise ValueError("n and vc_dim must be non-negative")
    return float(sum(math.comb(n, i) for i in range(min(n, vc_dim) + 1)))


def h_delta_h_divergence(sample_a: Dataset, sample_b: Dataset, hclass: HypothesisClass) -> float:
    """2 * max over hypothesis pairs of |disagreement rate on A - on B|.

    Labels are ignored; only the input marginals matter. Zero when A and B
    are the same sample, and zero for a single-hypothesis class.
    """
    da, db = (_disagreements(_cells(hclass, s)) for s in (sample_a, sample_b))
    return float(2.0 * np.abs(da - db).max())


def lambda_k(hclass: HypothesisClass, global_sample: Dataset, local_sample: Dataset) -> float:
    """min over H of (risk on the global sample + risk on the local sample)."""
    _check_binary(global_sample, "global_sample")
    _check_binary(local_sample, "local_sample")
    rg = _cells(hclass, global_sample)[2] / len(global_sample)
    rl = _cells(hclass, local_sample)[2] / len(local_sample)
    return float((rg + rl).min())


@dataclass
class BoundReport:
    """Every term of one bound evaluation, plus the verdict."""

    lhs: float
    erm_term: float
    complexity_term: float
    discrepancy_terms: list[tuple[float, float]]
    rhs: float
    holds: bool
    vacuous: bool

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "erm_term": self.erm_term,
            "complexity_term": self.complexity_term,
            "discrepancy_terms": [
                {"half_divergence": h, "lambda": l} for h, l in self.discrepancy_terms
            ],
            "rhs": self.rhs,
            "holds": self.holds,
            "vacuous": self.vacuous,
            "slack": self.rhs - self.lhs,
        }


def check_bound(
    k_clients: int,
    m: int,
    delta: float,
    hclass: HypothesisClass,
    global_sample: Dataset,
    local_samples: list[Dataset],
) -> BoundReport:
    """Evaluate every term of the bound exactly on the given samples.

    local_samples are the K client samples of m points each; they double as
    the empirical stand-ins for the client distributions. global_sample is a
    (large) reference draw from the global distribution.
    """
    if k_clients < 1:
        raise ValueError("k_clients must be >= 1")
    if len(local_samples) != k_clients:
        raise ValueError(f"expected {k_clients} local samples, got {len(local_samples)}")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    _check_binary(global_sample, "global_sample")
    for i, s in enumerate(local_samples):
        _check_binary(s, f"local sample {i}")
        if len(s) != m:
            raise ValueError(f"local sample {i} has {len(s)} points, expected m={m}")
        if s.dim != global_sample.dim:
            raise ShapeError("local and global samples must share input dimension")

    local_cells = [_cells(hclass, s) for s in local_samples]
    local_erms = [hclass.hypotheses[int(np.argmin(c[2] / m))] for c in local_cells]
    # the pooled ERM's risk, from the pooled error counts: the sums of the clients'
    erm_term = float((sum(c[2] for c in local_cells) / (k_clients * m)).min())
    lhs = ensemble_risk(local_erms, global_sample)

    growth = sauer_growth(2 * m, hclass.vc_dim)
    complexity = (4.0 + math.sqrt(math.log(growth))) / ((delta / k_clients) * math.sqrt(2.0 * m))

    global_cells = _cells(hclass, global_sample)
    dis_global = _disagreements(global_cells)
    risks_global = global_cells[2] / len(global_sample)
    terms: list[tuple[float, float]] = []
    for c in local_cells:
        d_val = float(2.0 * np.abs(_disagreements(c) - dis_global).max())
        lam = float((risks_global + c[2] / m).min())
        terms.append((0.5 * d_val, lam))

    rhs = erm_term + complexity + float(np.mean([h + l for h, l in terms]))
    return BoundReport(
        lhs=lhs,
        erm_term=erm_term,
        complexity_term=complexity,
        discrepancy_terms=terms,
        rhs=rhs,
        holds=bool(lhs <= rhs + 1e-12),
        vacuous=bool(rhs >= 1.0),
    )


def make_bound_instance(
    seed: int,
    family: str = "mixed",
    grid_size: int = 15,
    k_clients: int | None = None,
    m: int | None = None,
    ref_size: int = 20000,
    delta: float = 0.05,
) -> dict:
    """Random bound-check instance: shifted Gaussian clients, mixture global.

    Client input distributions are Gaussians with distinct means; the global
    distribution is their uniform mixture. Labels come from a hidden
    threshold rule plus symmetric label noise. family picks the hypothesis
    class (a FAMILIES name, or "mixed" to rotate by seed).
    """
    rng = np.random.default_rng(seed)
    if family == "mixed":
        family = list(FAMILIES)[seed % len(FAMILIES)]
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    dim = 2 if family == "axis_stumps_2d" else 1
    k = int(k_clients) if k_clients is not None else int(rng.integers(1, 6))
    m_val = int(m) if m is not None else int(rng.integers(16, 129))
    mus = rng.uniform(-1.5, 1.5, size=(k, dim))
    sigmas = rng.uniform(0.5, 1.5, size=(k, dim))
    noise = float(rng.uniform(0.0, 0.1))
    rule_axis = int(rng.integers(dim))
    rule_sign = int(rng.choice([1, -1]))
    rule_threshold = float(rng.uniform(-1.0, 1.0))
    rule = Stump(rule_axis, rule_threshold, rule_sign)

    def labeled(x: np.ndarray) -> Dataset:
        y = rule.predict(x).astype(np.int64)
        flip = rng.random(len(y)) < noise
        y[flip] = 1 - y[flip]
        return Dataset(x, y, 2)

    locals_ = []
    for i in range(k):
        x = mus[i] + sigmas[i] * rng.standard_normal((m_val, dim))
        locals_.append(labeled(x))
    comp = rng.integers(k, size=ref_size)
    xg = mus[comp] + sigmas[comp] * rng.standard_normal((ref_size, dim))
    global_sample = labeled(xg)

    return {
        "hclass": FAMILIES[family](np.linspace(-3.0, 3.0, grid_size)),
        "global_sample": global_sample,
        "local_samples": locals_,
        "k_clients": k,
        "m": m_val,
        "delta": delta,
        "family": family,
    }
