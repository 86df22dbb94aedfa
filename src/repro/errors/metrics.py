"""Arithmetic error metrics, including the paper's WMED.

All metrics operate on two integer truth tables in vector order (see
:mod:`repro.errors.truth_tables`): the exact function and a candidate
approximation.  The central metric is the **weighted mean error distance**:

.. math::

    \\mathrm{WMED}_D(\\tilde M) \\propto \\sum_{i,j}
        \\alpha_{i,j} \\, | i \\cdot j - \\tilde M(i, j) |,
    \\qquad \\alpha_{i,j} = D(i)

Normalization: the paper divides by :math:`2^{2w}` and reports percent.
Taken literally that constant does not bound the metric by 1, so for
percentage reporting we normalize the weighted expected error distance by
the maximum exact product magnitude, which *is* bounded by 1 and preserves
the paper's threshold semantics.  Both conventions are exposed:

* :func:`wmed` — ``E_{i~D, j~U}[|err|] / max|product|``   (used everywhere),
* :func:`wmed_paper` — the literal Eq. (WMED) value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distributions import Distribution
from .truth_tables import max_product_magnitude, vector_weights

__all__ = [
    "MetricEstimate",
    "estimate_from_distances",
    "t_critical",
    "error_distances",
    "relative_error_distances",
    "weighted_sum",
    "mean_error_distance",
    "normalized_med",
    "wmed",
    "wmed_paper",
    "mean_relative_error",
    "error_rate",
    "worst_case_error",
    "error_bias",
    "ErrorMetric",
    "METRICS",
    "metric_names",
    "get_metric",
    "ErrorReport",
    "evaluate_errors",
    "evaluate_errors_against",
]


def _check(exact: np.ndarray, approx: np.ndarray) -> (np.ndarray, np.ndarray):
    exact = np.asarray(exact, dtype=np.int64).ravel()
    approx = np.asarray(approx, dtype=np.int64).ravel()
    if exact.shape != approx.shape:
        raise ValueError(
            f"truth tables differ in length: {exact.shape} vs {approx.shape}"
        )
    if exact.size == 0:
        raise ValueError("empty truth tables")
    return exact, approx


def error_distances(exact: np.ndarray, approx: np.ndarray) -> np.ndarray:
    """Absolute error ``|exact - approx|`` per input vector."""
    exact, approx = _check(exact, approx)
    return np.abs(exact - approx)


def relative_error_distances(
    distances: np.ndarray,
    reference: np.ndarray,
    epsilon: float = 1.0,
) -> np.ndarray:
    """Per-vector relative error ``|err| / max(|reference|, epsilon)``.

    Distance-domain primitive shared by :func:`mean_relative_error` and
    the ``mred`` :class:`ErrorMetric` (objective hot path), so both
    compute the identical quantity.
    """
    distances = np.asarray(distances, dtype=np.float64)
    return distances / np.maximum(np.abs(reference), epsilon)


#: Lane count of :func:`weighted_sum`'s fixed summation order.
_WSUM_LANES = 16


def weighted_sum(weights: np.ndarray, distances: np.ndarray) -> float:
    """``sum(weights * distances)`` in one fixed, host-independent order.

    The reference definition of the WMED numerator.  Element ``v``'s
    product (rounded) is added into lane ``v % 16``; each lane sums
    sequentially in vector order; the 16 lane sums then combine by the
    fixed pairwise tree ``c[j] += c[j + step]`` for step = 1, 2, 4, 8.
    The native engine's fused tile loop computes exactly these
    operations, so the result is the same bits on every evaluation path
    — unlike ``np.dot``, whose BLAS summation order depends on the
    library's thread count.

    The sequential per-lane order rests on numpy reducing a C-contiguous
    ``(n, 16)`` array over axis 0 row by row (no pairwise split);
    ``tests/test_weighted_sum.py`` checks it against a pure-Python
    reference.
    """
    prod = np.multiply(weights, distances, dtype=np.float64)
    n = prod.size
    body = n - n % _WSUM_LANES
    lanes = prod[:body].reshape(-1, _WSUM_LANES).sum(axis=0)
    lanes[: n - body] += prod[body:]
    step = 1
    while step < _WSUM_LANES:
        lanes[0::2 * step] += lanes[step::2 * step]
        step *= 2
    return float(lanes[0])


def mean_error_distance(
    exact: np.ndarray,
    approx: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> float:
    """(Weighted) mean error distance in absolute output units.

    With ``weights`` the result is ``sum(w * |err|) / sum(w)`` — the
    expected error distance under the weight distribution, summed in the
    fixed order of :func:`weighted_sum` like the objectives' WMED.
    Without, all vectors count equally (classic MED under uniform
    inputs).
    """
    dist = error_distances(exact, approx).astype(np.float64)
    if weights is None:
        return float(dist.mean())
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if weights.shape != dist.shape:
        raise ValueError("weights length must match truth tables")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must have positive mass")
    return weighted_sum(weights, dist) / float(total)


def normalized_med(
    exact: np.ndarray,
    approx: np.ndarray,
    width: int,
    signed: bool,
    weights: Optional[np.ndarray] = None,
) -> float:
    """MED normalized by the maximum exact product magnitude, in [0, ~1]."""
    med = mean_error_distance(exact, approx, weights)
    return med / max_product_magnitude(width, signed)


def wmed(
    exact: np.ndarray,
    approx: np.ndarray,
    dist: Distribution,
    width: Optional[int] = None,
) -> float:
    """Weighted mean error distance, normalized to [0, ~1].

    ``wmed = E_{x ~ D, y ~ Uniform}[ |x*y - approx(x,y)| ] / max|x*y|``.
    Multiply by 100 to get the percentage figures the paper quotes
    (0.005 % ... 10 %).

    Args:
        exact: Exact product truth table, vector order.
        approx: Candidate truth table, vector order.
        dist: Distribution of the ``x`` operand (low input half).
        width: Operand width; defaults to ``dist.width``.
    """
    width = dist.width if width is None else width
    weights = vector_weights(dist, width)
    return normalized_med(exact, approx, width, dist.signed, weights)


def wmed_paper(
    exact: np.ndarray,
    approx: np.ndarray,
    dist: Distribution,
    width: Optional[int] = None,
) -> float:
    """The literal Eq. (WMED): ``(1 / 2**(2w)) * sum alpha |err|``."""
    width = dist.width if width is None else width
    weights = vector_weights(dist, width)
    dist_abs = error_distances(exact, approx).astype(np.float64)
    return weighted_sum(weights, dist_abs) / (1 << (2 * width))


def mean_relative_error(
    exact: np.ndarray,
    approx: np.ndarray,
    weights: Optional[np.ndarray] = None,
    epsilon: float = 1.0,
) -> float:
    """Mean relative error ``|err| / max(|exact|, epsilon)``."""
    exact, approx = _check(exact, approx)
    rel = relative_error_distances(np.abs(exact - approx), exact, epsilon)
    if weights is None:
        return float(rel.mean())
    weights = np.asarray(weights, dtype=np.float64).ravel()
    return float(np.dot(weights, rel) / weights.sum())


def error_rate(
    exact: np.ndarray,
    approx: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> float:
    """Fraction (or weighted probability) of vectors with any error."""
    exact, approx = _check(exact, approx)
    wrong = (exact != approx).astype(np.float64)
    if weights is None:
        return float(wrong.mean())
    weights = np.asarray(weights, dtype=np.float64).ravel()
    return float(np.dot(weights, wrong) / weights.sum())


def worst_case_error(exact: np.ndarray, approx: np.ndarray) -> int:
    """Largest absolute error over all vectors."""
    return int(error_distances(exact, approx).max())


def error_bias(
    exact: np.ndarray,
    approx: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> float:
    """Signed mean error ``E[approx - exact]`` (accumulation bias)."""
    exact, approx = _check(exact, approx)
    signed_err = (approx - exact).astype(np.float64)
    if weights is None:
        return float(signed_err.mean())
    weights = np.asarray(weights, dtype=np.float64).ravel()
    return float(np.dot(weights, signed_err) / weights.sum())


# ----------------------------------------------------------------------
# Pluggable metric objects (the objective layer's error term)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ErrorMetric:
    """A named reduction from per-vector error distances to one scalar.

    This is the pluggable error term of
    :class:`repro.core.objective.CircuitObjective`: both the interpreted
    path and the compiled engine produce the same per-vector ``float64``
    distance vector ``|reference - candidate|`` and hand it to
    :meth:`from_distances`, so a metric implemented here is automatically
    bit-identical across evaluation paths.

    Attributes
    ----------
    name : str
        Canonical registry name (``wmed``, ``med``, ``mred``,
        ``error-rate``, ``worst-case``); aliases resolve through
        :func:`get_metric`.

    Notes
    -----
    Conventions every metric function relies on: ``weights`` is already
    normalized to sum to 1 (the objective normalizes once at
    construction), and ``normalizer`` is the objective's error scale
    (max ``|reference|`` by default), so magnitude-based metrics land
    in [0, ~1] — multiply by 100 for the percent units the paper (and
    every ``max_error_percent``/``threshold_percent`` knob in this
    repo) quotes.  ``mred`` and ``error-rate`` are intrinsically
    scale-free and ignore ``normalizer``.
    """

    name: str
    #: (distances, weights, normalizer, reference) -> float
    _fn: Callable[[np.ndarray, np.ndarray, float, np.ndarray], float]

    def from_distances(
        self,
        distances: np.ndarray,
        weights: np.ndarray,
        normalizer: float,
        reference: np.ndarray,
    ) -> float:
        """Reduce a per-vector distance vector to the metric scalar.

        Parameters
        ----------
        distances : numpy.ndarray
            Per-vector ``|reference - candidate|`` in absolute output
            units, ``float64``, vector order.
        weights : numpy.ndarray
            Per-vector importance, normalized to unit mass.
        normalizer : float
            The objective's error scale (max ``|reference|``), mapping
            absolute distances into the normalized [0, ~1] range.
        reference : numpy.ndarray
            The exact truth table (needed by relative-error metrics).

        Returns
        -------
        float
            The scalar the search thresholds compare against.
        """
        return self._fn(distances, weights, normalizer, reference)


def _metric_wmed(err, weights, normalizer, reference) -> float:
    # The fixed-order sum the native engine reproduces bit for bit.
    return weighted_sum(weights, err) / normalizer


def _metric_med(err, weights, normalizer, reference) -> float:
    return float(err.mean()) / normalizer


def _metric_mred(err, weights, normalizer, reference) -> float:
    return float(np.dot(weights, relative_error_distances(err, reference)))


def _metric_error_rate(err, weights, normalizer, reference) -> float:
    return float(np.dot(weights, (err != 0).astype(np.float64)))


def _metric_worst_case(err, weights, normalizer, reference) -> float:
    return float(err.max()) / normalizer


#: Registry of the standard metrics, by canonical name.  This is the
#: closed vocabulary every ``--metric`` flag, sweep grid, library
#: group key and serving-layer query validates against; extend it here
#: and the whole stack (CLI choices, ``metric_names()``, stored
#: designs, ``/v1/best?metric=...``) picks the new metric up.
METRICS = {
    "wmed": ErrorMetric("wmed", _metric_wmed),
    "med": ErrorMetric("med", _metric_med),
    "mred": ErrorMetric("mred", _metric_mred),
    "error-rate": ErrorMetric("error-rate", _metric_error_rate),
    "worst-case": ErrorMetric("worst-case", _metric_worst_case),
}

_METRIC_ALIASES = {
    "mre": "mred",
    "er": "error-rate",
    "errorrate": "error-rate",
    "error_rate": "error-rate",
    "wce": "worst-case",
    "worstcase": "worst-case",
    "worst_case": "worst-case",
}


def metric_names() -> tuple:
    """Canonical metric names, stable order (CLI choices, sweep grids)."""
    return tuple(METRICS)


def get_metric(spec) -> ErrorMetric:
    """Resolve a metric name (or pass an :class:`ErrorMetric` through).

    Parameters
    ----------
    spec : str or ErrorMetric
        A canonical name, a registered alias (``mre`` -> ``mred``,
        ``er``/``error_rate`` -> ``error-rate``, ``wce``/``worst_case``
        -> ``worst-case``; case-insensitive), or an already-resolved
        metric object.

    Returns
    -------
    ErrorMetric

    Raises
    ------
    ValueError
        For anything outside the registry — the message lists the
        known names (surfaced verbatim as a 422 by the serving layer).
    """
    if isinstance(spec, ErrorMetric):
        return spec
    key = str(spec).strip().lower()
    key = _METRIC_ALIASES.get(key, key)
    metric = METRICS.get(key)
    if metric is None:
        raise ValueError(
            f"unknown error metric {spec!r}; known: {', '.join(METRICS)}"
        )
    return metric


# ----------------------------------------------------------------------
# Sampled estimation: metric estimates with confidence intervals
# ----------------------------------------------------------------------
#: Two-sided 95 % Student-t critical values by degrees of freedom; the
#: normal-approximation 1.96 serves dof > 30 (the error is < 2 % there).
_T_975 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
    2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
    2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
    2.048, 2.045, 2.042,
)


def t_critical(dof: int) -> float:
    """Two-sided 95 % Student-t critical value for ``dof`` degrees.

    Exact table entries for dof 1..30, the normal approximation (1.96)
    beyond — no SciPy dependency.
    """
    if dof < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if dof <= len(_T_975):
        return _T_975[dof - 1]
    return 1.96


@dataclass(frozen=True)
class MetricEstimate:
    """A sampled metric estimate with a 95 % confidence interval.

    ``value`` is the pooled point estimate over all samples;
    ``[ci_low, ci_high]`` the 95 % interval.  For mean-type metrics the
    interval is the replicate-stream Student-t interval over the
    per-replicate estimates (``replicates >= 2``), or the per-sample
    normal approximation for a single stream.  ``worst-case`` is
    special: a sampled maximum is a *certified lower bound* on the true
    worst case but admits no distribution-free upper bound, so its
    interval is ``[value, inf)``.
    """

    value: float
    ci_low: float
    ci_high: float
    stderr: float
    replicates: int

    @property
    def ci_half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    def covers(self, true_value: float) -> bool:
        """Whether the interval contains a (known) true metric value."""
        return self.ci_low <= true_value <= self.ci_high


def _sample_contributions(
    metric: "ErrorMetric",
    distances: np.ndarray,
    normalizer: float,
    reference: np.ndarray,
) -> np.ndarray:
    """Per-sample terms whose mean is the metric (mean-type metrics)."""
    name = metric.name
    if name in ("wmed", "med"):
        return distances / normalizer
    if name == "mred":
        return relative_error_distances(distances, reference)
    if name == "error-rate":
        return (distances != 0).astype(np.float64)
    raise ValueError(f"metric {name!r} is not a per-sample mean")


def estimate_from_distances(
    metric: "ErrorMetric",
    distances: np.ndarray,
    normalizer: float,
    reference: np.ndarray,
    replicates: int = 1,
) -> MetricEstimate:
    """Estimate a metric (with 95 % CI) from sampled error distances.

    ``distances`` and ``reference`` hold ``replicates`` consecutive
    equal-length blocks, one per independent sample stream (the layout
    :class:`repro.core.objective.SampledObjective` draws).  The point
    estimate is the pooled reduction over all samples with uniform
    weights — for samples drawn from the objective's distribution, the
    sampling itself embodies the weighting, so the plain mean *is* the
    weighted-metric estimator.

    CI construction: ``replicates >= 2`` uses the Student-t interval
    over the per-replicate estimates (each an independent stream);
    a single replicate falls back to the per-sample normal
    approximation.  ``worst-case`` returns ``[value, inf)`` — see
    :class:`MetricEstimate`.  Lower bounds are clamped at 0 (all five
    metrics are non-negative).
    """
    distances = np.asarray(distances, dtype=np.float64).ravel()
    n_total = distances.size
    if replicates < 1 or n_total % replicates:
        raise ValueError(
            f"{n_total} samples do not split into {replicates} replicates"
        )
    reference = np.asarray(reference, dtype=np.int64).ravel()
    pooled_w = np.full(n_total, 1.0 / n_total)
    value = metric.from_distances(distances, pooled_w, normalizer, reference)
    if metric.name == "worst-case":
        per_rep = distances.reshape(replicates, -1).max(axis=1) / normalizer
        stderr = (
            float(per_rep.std(ddof=1)) / math.sqrt(replicates)
            if replicates >= 2
            else float("nan")
        )
        return MetricEstimate(value, value, float("inf"), stderr, replicates)
    if replicates >= 2:
        n = n_total // replicates
        rep_w = np.full(n, 1.0 / n)
        dist_rows = distances.reshape(replicates, n)
        ref_rows = reference.reshape(replicates, n)
        per_rep = np.array(
            [
                metric.from_distances(
                    dist_rows[r], rep_w, normalizer, ref_rows[r]
                )
                for r in range(replicates)
            ]
        )
        stderr = float(per_rep.std(ddof=1)) / math.sqrt(replicates)
        half = t_critical(replicates - 1) * stderr
    else:
        contrib = _sample_contributions(
            metric, distances, normalizer, reference
        )
        stderr = float(contrib.std(ddof=1)) / math.sqrt(n_total)
        half = 1.96 * stderr
    return MetricEstimate(
        value, max(0.0, value - half), value + half, stderr, replicates
    )


@dataclass(frozen=True)
class ErrorReport:
    """Bundle of standard error figures for one candidate circuit."""

    med: float
    wmed: float
    wmed_percent: float
    mre: float
    error_rate: float
    worst_case: int
    bias: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WMED={self.wmed_percent:.4f}%  MED={self.med:.2f}  "
            f"MRE={self.mre:.4f}  ER={self.error_rate:.3f}  "
            f"WCE={self.worst_case}  bias={self.bias:+.2f}"
        )


def evaluate_errors_against(
    reference: np.ndarray,
    approx: np.ndarray,
    weights: Optional[np.ndarray] = None,
    normalizer: Optional[float] = None,
) -> ErrorReport:
    """Full :class:`ErrorReport` against an arbitrary reference table.

    Component-agnostic sibling of :func:`evaluate_errors`: ``weights``
    is any per-vector importance vector (``None`` = uniform) and
    ``normalizer`` scales the weighted MED into the report's ``wmed``
    slot (``max |reference|`` when omitted).
    """
    reference = np.asarray(reference, dtype=np.int64).ravel()
    if normalizer is None:
        normalizer = float(np.abs(reference).max()) or 1.0
    w = mean_error_distance(reference, approx, weights) / normalizer
    return ErrorReport(
        med=mean_error_distance(reference, approx),
        wmed=w,
        wmed_percent=100.0 * w,
        mre=mean_relative_error(reference, approx, weights),
        error_rate=error_rate(reference, approx, weights),
        worst_case=worst_case_error(reference, approx),
        bias=error_bias(reference, approx, weights),
    )


def evaluate_errors(
    exact: np.ndarray,
    approx: np.ndarray,
    dist: Distribution,
) -> ErrorReport:
    """Compute the full :class:`ErrorReport` for a multiplier table."""
    return evaluate_errors_against(
        exact,
        approx,
        weights=vector_weights(dist, dist.width),
        normalizer=float(max_product_magnitude(dist.width, dist.signed)),
    )
