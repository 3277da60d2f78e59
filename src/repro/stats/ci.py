"""Relative-difference confidence intervals (Figure 8).

Figure 8 of the paper plots, per policy, the mean of the per-trace
*relative MPKI difference* versus LRU, with 95% confidence-interval error
bars: "the average of this relative difference is -33% meaning that on
average there is a 33% reduction in MPKI using GHRP compared to LRU."

The relative difference for trace *t* is ``(mpki_policy - mpki_lru) /
mpki_lru``; traces where the reference MPKI is ~0 are excluded (the ratio
is undefined there, and those traces are insensitive to replacement).

The t critical value comes from :func:`student_t_ppf`, a stdlib-only
Student-t quantile (regularized incomplete beta by continued fraction,
inverted by safeguarded Newton).  It agrees with SciPy's ``t.ppf`` to
better than 1e-12 relative for df 1-200 (pinned by the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.stats.mpki import MPKITable

__all__ = ["RelativeDifference", "relative_difference_ci", "student_t_ppf"]

_MIN_REFERENCE_MPKI = 1e-3


def _beta_continued_fraction(x: float, a: float, b: float) -> float:
    """Continued fraction of the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    result = d
    for m in range(1, 10_000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            result *= c * d
        if abs(c * d - 1.0) < 1e-16:
            break
    return result


def _regularized_beta(x: float, y: float, a: float, b: float) -> float:
    """The regularized incomplete beta function I_x(a, b), with y = 1 - x.

    Taking ``y`` separately keeps full precision when x is within an
    ulp of 1 (a t value tiny against its degrees of freedom).
    """
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(y)
    )
    # The fraction converges fast only below the mean; use the symmetry
    # I_x(a, b) = 1 - I_y(b, a) above it.
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_continued_fraction(x, a, b) / a
    return 1.0 - math.exp(log_front) * _beta_continued_fraction(y, b, a) / b


def _t_upper_tail(t: float, df: float) -> float:
    """P(T > t) for t >= 0."""
    t2 = t * t
    return 0.5 * _regularized_beta(df / (df + t2), t2 / (df + t2), df / 2.0, 0.5)


def student_t_ppf(p: float, df: float) -> float:
    """Quantile of Student's t distribution with ``df`` degrees of freedom.

    Solves ``P(T > t) = 1 - p`` on the upper half (the distribution is
    symmetric) by Newton's method on the t density, kept inside a
    bisection bracket so the heavy tails of small ``df`` cannot throw
    an iterate out.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if df <= 0:
        raise ValueError(f"df must be positive, got {df}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -student_t_ppf(1.0 - p, df)
    tail = 1.0 - p
    log_norm = (
        math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    low, high = 0.0, 1.0
    while _t_upper_tail(high, df) > tail:
        low, high = high, 2.0 * high
    t = 0.5 * (low + high)
    for _ in range(200):
        excess = _t_upper_tail(t, df) - tail
        if excess > 0.0:
            low = t
        else:
            high = t
        density = math.exp(log_norm - (df + 1.0) / 2.0 * math.log1p(t * t / df))
        step = t + excess / density
        t_next = step if low < step < high else 0.5 * (low + high)
        if abs(t_next - t) <= 1e-15 * t_next:
            return t_next
        t = t_next
    return t


@dataclass(frozen=True, slots=True)
class RelativeDifference:
    """Mean relative difference vs the reference policy, with its CI."""

    policy: str
    reference: str
    mean: float
    ci_low: float
    ci_high: float
    sample_count: int

    @property
    def mean_percent(self) -> float:
        return 100.0 * self.mean

    def render(self) -> str:
        return (
            f"{self.policy}: {self.mean_percent:+.1f}% "
            f"[{100 * self.ci_low:+.1f}%, {100 * self.ci_high:+.1f}%] "
            f"vs {self.reference} (n={self.sample_count})"
        )


def relative_difference_ci(
    table: MPKITable,
    policy: str,
    reference: str = "lru",
    confidence: float = 0.95,
) -> RelativeDifference:
    """Mean per-trace relative MPKI difference with a t-based CI."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    reference_row = table.values[reference]
    policy_row = table.values[policy]
    differences = [
        (policy_row[w] - reference_row[w]) / reference_row[w]
        for w in table.workloads
        if reference_row[w] > _MIN_REFERENCE_MPKI
    ]
    n = len(differences)
    if n == 0:
        return RelativeDifference(policy, reference, 0.0, 0.0, 0.0, 0)
    mean = sum(differences) / n
    if n == 1:
        return RelativeDifference(policy, reference, mean, mean, mean, 1)
    variance = sum((d - mean) ** 2 for d in differences) / (n - 1)
    stderr = math.sqrt(variance / n)
    t_crit = student_t_ppf((1 + confidence) / 2, n - 1)
    return RelativeDifference(
        policy=policy,
        reference=reference,
        mean=mean,
        ci_low=mean - t_crit * stderr,
        ci_high=mean + t_crit * stderr,
        sample_count=n,
    )
