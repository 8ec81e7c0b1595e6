"""Scalar risk functionals on finite-support cost distributions.

Criteria here treat outcomes as losses: larger numbers are worse. Every
functional is evaluated exactly on the finite support, never by sampling,
so tests can assert equalities with zero tolerance. The axiom probe checks
the three convex-risk-measure properties (monotonicity, translation
invariance, convexity) on caller-supplied trial pairs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .game_model import CostDistribution, Number, as_fraction, theta_of


@dataclass(frozen=True)
class RiskParameter:
    """Risk-aversion coefficient: a dimensionless, non-negative weight on variance."""

    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta) or self.theta < 0:
            raise ValueError(f"risk parameter must be finite and non-negative, got {self.theta!r}")


@dataclass(frozen=True)
class EmpiricalOutcome:
    """A random loss with finite support: (outcome, weight) pairs.

    Weights need not be normalized but at least one must be strictly
    positive. Two outcomes live on the same sample space when their weight
    vectors match point for point; only then are pointwise dominance and
    mixtures meaningful.
    """

    points: tuple[tuple[Number, Number], ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("empirical outcome needs at least one support point")
        for v, w in self.points:
            if w < 0:
                raise ValueError(f"negative weight {w!r}")
        if not any(w > 0 for _, w in self.points):
            raise ValueError("at least one weight must be strictly positive")

    @classmethod
    def of(cls, pairs: Iterable[tuple[Number, Number]]) -> "EmpiricalOutcome":
        return cls(tuple((v, w) for v, w in pairs))

    def total_weight(self) -> Fraction:
        return sum((as_fraction(w) for _, w in self.points), start=Fraction(0))

    def mean(self) -> Fraction:
        acc = sum((as_fraction(v) * as_fraction(w) for v, w in self.points), start=Fraction(0))
        return acc / self.total_weight()

    def variance(self) -> Fraction:
        m = self.mean()
        acc = sum(
            ((as_fraction(v) - m) ** 2 * as_fraction(w) for v, w in self.points),
            start=Fraction(0),
        )
        return acc / self.total_weight()

    def shifted(self, amount: Number) -> "EmpiricalOutcome":
        a = as_fraction(amount)
        return EmpiricalOutcome(tuple((as_fraction(v) + a, w) for v, w in self.points))

    def same_sample_space(self, other: "EmpiricalOutcome") -> bool:
        if len(self.points) != len(other.points):
            return False
        return all(
            as_fraction(w1) == as_fraction(w2)
            for (_, w1), (_, w2) in zip(self.points, other.points)
        )


def mix_outcomes(z: EmpiricalOutcome, z_prime: EmpiricalOutcome, t: Number) -> EmpiricalOutcome:
    """Pointwise mixture t*Z + (1-t)*Z' on a shared sample space."""
    if not z.same_sample_space(z_prime):
        raise ValueError("mismatched sample spaces")
    tf = as_fraction(t)
    return EmpiricalOutcome(
        tuple(
            (tf * as_fraction(v1) + (1 - tf) * as_fraction(v2), w)
            for (v1, w), (v2, _) in zip(z.points, z_prime.points)
        )
    )


def mean_variance_criterion(dist: CostDistribution, theta) -> Fraction:
    """Risk-adjusted loss of a summarized cost: mean + theta * variance."""
    return dist.exact_mean + theta_of(theta) * dist.exact_variance


def mean_variance_of_outcomes(outcomes: EmpiricalOutcome, theta) -> Fraction:
    """Mean-plus-weighted-variance applied to a finite-support loss."""
    return outcomes.mean() + theta_of(theta) * outcomes.variance()


def cvar_aggregate(outcomes: EmpiricalOutcome, alpha: Number) -> Fraction:
    """Average of the worst (1 - alpha) probability mass of a loss.

    Losses are sorted worst-first and the boundary atom is split
    fractionally (the discrete Rockafellar-Uryasev convention), which makes
    ``cvar_aggregate(z, 0)`` exactly the weighted mean.
    """
    a = as_fraction(alpha)
    if a < 0 or a >= 1:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha!r}")
    pts = sorted(
        ((as_fraction(v), as_fraction(w)) for v, w in outcomes.points),
        key=lambda p: p[0],
        reverse=True,
    )
    takes, tail = _cvar_tail([w for _, w in pts], a)
    return sum((v * take for (v, _), take in zip(pts, takes)), start=Fraction(0)) / tail


def _cvar_tail(weights: Sequence[Fraction], alpha: Fraction) -> tuple[list[Fraction], Fraction]:
    """Each atom's take of the worst (1 - alpha) mass, atoms worst first, and that mass."""
    tail = (1 - alpha) * sum(weights, start=Fraction(0))
    remaining = tail
    takes = []
    for w in weights:
        take = w if w < remaining else remaining
        takes.append(take)
        remaining -= take
    return takes, tail


def cvar_pricer(weights: Sequence[Fraction], alpha: Fraction):
    """(price, denominator): exact CVaR of integer losses as an integer dot product.

    For integer losses ``v`` over a scale, entry k of weight ``weights[k]``,
    ``price(v) / (scale * denominator)`` equals :func:`cvar_aggregate`. An
    entry's coefficient is its take of the tail over the tail mass, which
    the entries' worst-first order alone fixes, so coefficients are computed
    once per order. Equal entries may sort either way: the tail they share,
    and so the price, is the same.
    """
    _, tail = _cvar_tail(weights, alpha)
    lcm = math.lcm(tail.denominator, *(w.denominator for w in weights))
    by_order: dict[tuple[int, ...], list[int]] = {}
    indices = range(len(weights))

    def price(v: Sequence[int]) -> int:
        order = tuple(sorted(indices, key=v.__getitem__, reverse=True))
        coefficients = by_order.get(order)
        if coefficients is None:
            takes, _ = _cvar_tail([weights[k] for k in order], alpha)
            coefficients = [0] * len(weights)
            for k, take in zip(order, takes):
                coefficients[k] = take.numerator * (lcm // take.denominator)
            by_order[order] = coefficients
        return sum(map(operator.mul, v, coefficients))

    return price, tail.numerator * (lcm // tail.denominator)


def disutility_criterion(
    outcomes: EmpiricalOutcome,
    U: Callable[[Number], Number],
    D: Callable[[Number], Number],
    theta,
) -> Number:
    """Disutility-with-deviation-penalty criterion.

    Computes E[U(Z)] - theta * E[D(E[Z] - Z)] exactly on the finite
    support. ``U`` and ``D`` are called on exact rationals; when they
    return rationals (e.g. polynomials) the result stays exact, otherwise
    it degrades gracefully to float. ``D`` is expected to map into the
    non-negative reals; that precondition is the caller's to keep.
    """
    w_total = outcomes.total_weight()
    ez = outcomes.mean()
    eu = sum(as_fraction(w) * U(as_fraction(v)) for v, w in outcomes.points) / w_total
    ed = sum(as_fraction(w) * D(ez - as_fraction(v)) for v, w in outcomes.points) / w_total
    return eu - theta_of(theta) * ed


def make_mean_variance_criterion(theta) -> Callable[[EmpiricalOutcome], Fraction]:
    def criterion(z: EmpiricalOutcome) -> Fraction:
        return mean_variance_of_outcomes(z, theta)

    criterion.__name__ = f"mean_variance(theta={theta_of(theta)})"
    return criterion


def make_cvar_criterion(alpha: Number) -> Callable[[EmpiricalOutcome], Fraction]:
    def criterion(z: EmpiricalOutcome) -> Fraction:
        return cvar_aggregate(z, alpha)

    criterion.__name__ = f"cvar(alpha={alpha})"
    return criterion


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    passed: bool
    counterexample: str | None = None


@dataclass(frozen=True)
class AxiomReport:
    criterion: str
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, axiom: str) -> AxiomCheck:
        for c in self.checks:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)


DEFAULT_SHIFTS = (-5.0, -1.0, 0.5, 5.0)


def axiom_probe(
    rho: Callable[[EmpiricalOutcome], Number],
    trials: Sequence[tuple[EmpiricalOutcome, EmpiricalOutcome]],
    ts: Sequence[Number],
    shifts: Sequence[Number] = DEFAULT_SHIFTS,
    tol: float = 1e-12,
    name: str | None = None,
) -> AxiomReport:
    """Test monotonicity, translation invariance and convexity of ``rho``.

    Each trial is a pair of outcomes on a common sample space, so pointwise
    dominance and mixtures are well defined; a mismatched pair or a mixture
    weight outside [0, 1] raises ValueError before any search. Each axiom's
    own search over the trials reports its first counterexample.
    """
    for z, zp in trials:
        if not z.same_sample_space(zp):
            raise ValueError("trial pair has mismatched sample spaces")
    mixes = [(t, as_fraction(t)) for t in ts]
    for t, tf in mixes:
        if tf < 0 or tf > 1:
            raise ValueError(f"mixture weight {t!r} outside [0, 1]")

    def monotonicity():
        for z, zp in trials:
            for hi, lo in ((z, zp), (zp, z)):
                if all(
                    as_fraction(a) >= as_fraction(b)
                    for (a, _), (b, _) in zip(hi.points, lo.points)
                ) and rho(hi) < rho(lo) - tol:
                    yield (f"Z={hi.points} dominates Z'={lo.points} pointwise "
                           f"but rho(Z)={rho(hi)} < rho(Z')={rho(lo)}")

    def translation_invariance():
        for pair in trials:
            for member in pair:
                for a in shifts:
                    lhs = rho(member.shifted(a))
                    rhs = rho(member) + as_fraction(a)
                    if abs(lhs - rhs) > tol:
                        yield f"rho(Z + {a}) = {lhs} but rho(Z) + {a} = {rhs} for Z={member.points}"

    def convexity():
        for z, zp in trials:
            for t, tf in mixes:
                lhs = rho(mix_outcomes(z, zp, tf))
                rhs = tf * rho(z) + (1 - tf) * rho(zp)
                if lhs > rhs + tol:
                    yield (f"rho({t}*Z + {1 - tf}*Z') = {lhs} exceeds the chord value {rhs} "
                           f"for Z={z.points}, Z'={zp.points}")

    found = {s.__name__: next(s(), None) for s in (monotonicity, translation_invariance, convexity)}
    checks = tuple(AxiomCheck(axiom, text is None, text) for axiom, text in found.items())
    label = name or getattr(rho, "__name__", "criterion")
    return AxiomReport(criterion=label, checks=checks)
