from fractions import Fraction

import pytest

from riskgames import CostDistribution
from riskgames.risk_measures import (
    EmpiricalOutcome,
    RiskParameter,
    axiom_probe,
    cvar_aggregate,
    disutility_criterion,
    make_cvar_criterion,
    make_mean_variance_criterion,
    mean_variance_criterion,
    mean_variance_of_outcomes,
    mix_outcomes,
)

Z_SETS = [
    EmpiricalOutcome.of([(10, 1)]),
    EmpiricalOutcome.of([(1, 0.5), (3, 0.5)]),
    EmpiricalOutcome.of([(0, 0.25), (2, 0.25), (5, 0.5)]),
    EmpiricalOutcome.of([(-4, 2), (0, 1), (7, 3)]),  # unnormalized weights
]


def test_mean_variance_reference_values():
    assert mean_variance_criterion(CostDistribution(30, 400), 0.01) == 34
    assert mean_variance_criterion(CostDistribution(35, 100), 0.05) == 40


def test_mean_variance_risk_neutral_reduces_to_expectation():
    for mean, var in [(3.5, 12.0), (-2, 5), (0, 0)]:
        assert mean_variance_criterion(CostDistribution(mean, var), 0) == Fraction(repr(float(mean)))


def test_mean_variance_affine_in_theta():
    dist = CostDistribution(7.25, 13.5)
    base = mean_variance_criterion(dist, 0)
    for theta in (0, 0.01, 0.3, 2, 11.75):
        got = mean_variance_criterion(dist, theta)
        assert got - base == Fraction(repr(float(theta))) * Fraction("13.5")


def test_mean_variance_accepts_risk_parameter():
    assert mean_variance_criterion(CostDistribution(30, 400), RiskParameter(0.01)) == 34


def test_risk_parameter_rejects_bad_values():
    with pytest.raises(ValueError):
        RiskParameter(-0.1)
    with pytest.raises(ValueError):
        RiskParameter(float("nan"))


def test_empirical_outcome_validation():
    with pytest.raises(ValueError):
        EmpiricalOutcome.of([])
    with pytest.raises(ValueError):
        EmpiricalOutcome.of([(1, 0), (2, 0)])
    with pytest.raises(ValueError):
        EmpiricalOutcome.of([(1, -0.5), (2, 1)])


def test_cvar_alpha_zero_is_weighted_mean():
    for z in Z_SETS:
        assert cvar_aggregate(z, 0) == z.mean()


def test_cvar_point_mass_any_alpha():
    z = EmpiricalOutcome.of([(10, 1)])
    for alpha in (0, 0.3, 0.75, 0.99):
        assert cvar_aggregate(z, alpha) == 10


def test_cvar_fractional_tail_split():
    # alpha=0.75 keeps the worst quarter of mass: entirely inside the atom at 3
    z = EmpiricalOutcome.of([(1, 0.5), (3, 0.5)])
    assert cvar_aggregate(z, 0.75) == 3
    # alpha=0.25 keeps 0.75 of mass: all of the 3-atom, half of the 1-atom
    assert cvar_aggregate(z, 0.25) == Fraction(1, 3) * 1 + Fraction(2, 3) * 3


def _cvar_reference(z: EmpiricalOutcome, alpha) -> Fraction:
    # independent oracle: sort descending and accumulate exactly (1-alpha) mass
    pts = sorted(((Fraction(repr(float(v))), Fraction(repr(float(w)))) for v, w in z.points),
                 key=lambda p: p[0], reverse=True)
    total = sum(w for _, w in pts)
    tail = (1 - Fraction(repr(float(alpha)))) * total
    left, acc = tail, Fraction(0)
    for v, w in pts:
        take = min(w, left)
        acc += v * take
        left -= take
        if left == 0:
            break
    return acc / tail


def test_cvar_matches_reference_oracle():
    for z in Z_SETS:
        for alpha in (0, 0.1, 0.25, 0.5, 0.75, 0.9):
            assert cvar_aggregate(z, alpha) == _cvar_reference(z, alpha)


def test_cvar_monotone_in_alpha():
    alphas = [i / 10 for i in range(10)]
    for z in Z_SETS:
        values = [cvar_aggregate(z, a) for a in alphas]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_cvar_rejects_bad_alpha():
    z = Z_SETS[1]
    with pytest.raises(ValueError):
        cvar_aggregate(z, 1.0)
    with pytest.raises(ValueError):
        cvar_aggregate(z, -0.01)


def test_disutility_identity_no_penalty_is_mean():
    for z in Z_SETS:
        assert disutility_criterion(z, lambda x: x, lambda x: Fraction(0), 0.7) == z.mean()


def test_disutility_square_penalty_is_mean_minus_theta_variance():
    # literal form: the deviation term is subtracted
    for z in Z_SETS:
        for theta in (0, 0.1, 1, 2.5):
            got = disutility_criterion(z, lambda x: x, lambda x: x * x, theta)
            want = z.mean() - Fraction(repr(float(theta))) * z.variance()
            assert got == want


def test_disutility_square_penalty_shift_invariant():
    z = Z_SETS[2]
    base = disutility_criterion(z, lambda x: x, lambda x: x * x, 0.4)
    for a in (-3, 0.5, 12):
        shifted = disutility_criterion(z.shifted(a), lambda x: x, lambda x: x * x, 0.4)
        assert shifted == base + Fraction(repr(float(a)))


def _two_point_grid():
    values = (0, 1, 2, 4)
    weights = ((Fraction(1, 4), Fraction(3, 4)), (Fraction(1, 2), Fraction(1, 2)))
    trials = []
    for w1, w2 in weights:
        for v1 in values:
            for v2 in values:
                for u1 in values:
                    for u2 in values:
                        trials.append(
                            (
                                EmpiricalOutcome.of([(v1, w1), (v2, w2)]),
                                EmpiricalOutcome.of([(u1, w1), (u2, w2)]),
                            )
                        )
    return trials


TS = (0, 0.25, 0.5, 0.75, 1)


def test_axiom_probe_cvar_is_coherent_on_exhaustive_grid():
    report = axiom_probe(make_cvar_criterion(0.9), _two_point_grid(), TS)
    assert report.passed, [c for c in report.checks if not c.passed]


def test_axiom_probe_mean_variance_translation_exact():
    report = axiom_probe(
        make_mean_variance_criterion(1), _two_point_grid(), ts=(), shifts=(5,), tol=0.0
    )
    assert report.check("translation_invariance").passed


def test_axiom_probe_mean_variance_convexity_on_grid():
    report = axiom_probe(make_mean_variance_criterion(1), _two_point_grid(), TS)
    assert report.check("convexity").passed


def test_axiom_probe_finds_mean_variance_monotonicity_counterexample():
    # Z dominates Z' pointwise yet scores lower once variance is penalized
    z = EmpiricalOutcome.of([(4, 0.5), (4, 0.5)])
    z_prime = EmpiricalOutcome.of([(0, 0.5), (4, 0.5)])
    report = axiom_probe(make_mean_variance_criterion(1), [(z, z_prime)], TS)
    check = report.check("monotonicity")
    assert not check.passed
    assert check.counterexample


def test_axiom_probe_monotonicity_counterexample_exists_in_exhaustive_grid():
    report = axiom_probe(make_mean_variance_criterion(1), _two_point_grid(), TS)
    assert not report.check("monotonicity").passed


def _negative_variance(z: EmpiricalOutcome) -> Fraction:
    return -z.variance()


_GRID_REPORTS = {
    "mean_variance(theta=1)": (
        (
            "monotonicity",
            False,
            "Z=((1, Fraction(1, 4)), (2, Fraction(3, 4))) dominates "
            "Z'=((0, Fraction(1, 4)), (2, Fraction(3, 4))) pointwise "
            "but rho(Z)=31/16 < rho(Z')=9/4",
        ),
        ("translation_invariance", True, None),
        ("convexity", True, None),
    ),
    "cvar(alpha=0.9)": (
        ("monotonicity", True, None),
        ("translation_invariance", True, None),
        ("convexity", True, None),
    ),
    "_negative_variance": (
        (
            "monotonicity",
            False,
            "Z=((0, Fraction(1, 4)), (1, Fraction(3, 4))) dominates "
            "Z'=((0, Fraction(1, 4)), (0, Fraction(3, 4))) pointwise "
            "but rho(Z)=-3/16 < rho(Z')=0",
        ),
        (
            "translation_invariance",
            False,
            "rho(Z + -5.0) = 0 but rho(Z) + -5.0 = -5 "
            "for Z=((0, Fraction(1, 4)), (0, Fraction(3, 4)))",
        ),
        (
            "convexity",
            False,
            "rho(0.25*Z + 3/4*Z') = -27/256 exceeds the chord value -9/64 "
            "for Z=((0, Fraction(1, 4)), (0, Fraction(3, 4))), "
            "Z'=((0, Fraction(1, 4)), (1, Fraction(3, 4)))",
        ),
    ),
}


@pytest.mark.parametrize(
    "rho",
    [make_mean_variance_criterion(1), make_cvar_criterion(0.9), _negative_variance],
    ids=lambda rho: rho.__name__,
)
def test_axiom_probe_reports_first_counterexample_per_axiom(rho):
    # The whole report is pinned: each axiom's verdict and the first
    # counterexample its search meets, in trial order.
    report = axiom_probe(rho, _two_point_grid(), TS)
    got = tuple((c.axiom, c.passed, c.counterexample) for c in report.checks)
    assert (report.criterion, got) == (rho.__name__, _GRID_REPORTS[rho.__name__])


@pytest.mark.parametrize("ts", [(0.5, 2.0), (2.0,), (0.5, -0.25)])
def test_axiom_probe_rejects_mixture_weight_outside_unit_interval(ts):
    # The even mixture of these two is constant, so convexity already fails
    # at t = 0.5; the weights are checked before any search, so the later
    # out-of-range weight still raises.
    z = EmpiricalOutcome.of([(0, 0.5), (2, 0.5)])
    z_prime = EmpiricalOutcome.of([(2, 0.5), (0, 0.5)])
    with pytest.raises(ValueError, match="outside"):
        axiom_probe(_negative_variance, [(z, z_prime)], ts)


def test_axiom_probe_rejects_mismatched_sample_spaces():
    z = EmpiricalOutcome.of([(1, 0.5), (2, 0.5)])
    bad = EmpiricalOutcome.of([(1, 0.25), (2, 0.75)])
    with pytest.raises(ValueError):
        axiom_probe(make_cvar_criterion(0.5), [(z, bad)], TS)


def test_mix_outcomes_is_pointwise():
    z = EmpiricalOutcome.of([(0, 0.5), (4, 0.5)])
    zp = EmpiricalOutcome.of([(2, 0.5), (2, 0.5)])
    mixed = mix_outcomes(z, zp, 0.25)
    assert [v for v, _ in mixed.points] == [Fraction(3, 2), Fraction(5, 2)]


def test_mean_variance_of_outcomes_matches_moments():
    z = EmpiricalOutcome.of([(1, 0.5), (3, 0.5)])
    assert mean_variance_of_outcomes(z, 2) == z.mean() + 2 * z.variance()
