"""Assembled Fourier coefficients: the measured normalization, central
vanishing, the coherent identity and the derivative coefficients."""

from fractions import Fraction

import pytest

from siegelweil.field import INF, LogLinear
from siegelweil.cycles import arithmetic_degree
from siegelweil.hermitian import Collection, InternalError, coherent_neighbor
from siegelweil.localwhittaker import central_value
from siegelweil.eisenstein import (
    calibration_point,
    central_value_coefficient,
    derivative_coefficient,
    distinguished_flip_prime,
    kappa_derivative,
    kappa_sw,
    siegel_weil_check,
    stack_mass,
)

DISCS = [-3, -4, -7, -8, -11, -20, -23, -24]

# The measured constants.  kappa_sw came out as 2^(#ramified primes) on
# every discriminant; everything else is pinned through the stack mass.
KAPPA_SW = {-3: 2, -4: 2, -7: 2, -8: 2, -11: 2, -20: 4, -23: 2, -24: 4}
KAPPA_DERIVATIVE = {
    -3: 6, -4: 4, -7: 2, -8: 2, -11: 2,
    -20: Fraction(1, 2), -23: Fraction(2, 3), -24: Fraction(1, 2),
}
STACK_MASS = {
    -3: Fraction(1, 3), -4: Fraction(1, 2), -7: 1, -8: 1, -11: 1,
    -20: 2, -23: 3, -24: 2,
}
FLIP_PRIME = {-3: 3, -4: 2, -7: 7, -8: 2, -11: 11, -20: 2, -23: 23, -24: 3}


@pytest.mark.parametrize("D", DISCS)
def test_measured_constants(D):
    assert stack_mass(D) == STACK_MASS[D]
    assert kappa_sw(D) == KAPPA_SW[D]
    assert kappa_derivative(D) == KAPPA_DERIVATIVE[D]
    assert distinguished_flip_prime(D) == FLIP_PRIME[D]


def test_calibration_point_defaults():
    for D in DISCS:
        alpha0, fam, prod = calibration_point(D)
        assert alpha0 == 1
        assert fam == 2
        assert 2 * fam / prod == KAPPA_SW[D]


def test_calibration_override_is_consistent():
    """Measuring the constant at a different anchor gives the same number:
    that is the identity talking."""
    for a0 in (2, 4, 5, 8):
        assert kappa_sw(-4, -1, Fraction(a0)) == 2
    assert kappa_sw(-23, -1, Fraction(3)) == 2


def test_calibration_rejects_unrepresented_targets():
    with pytest.raises(ArithmeticError):
        calibration_point(-3, -1, Fraction(2))
    with pytest.raises(ArithmeticError):
        kappa_sw(-4, -1, Fraction(3))


@pytest.mark.parametrize("D", DISCS)
def test_central_value_coefficient_vanishes(D):
    for a in range(-20, 21):
        if a:
            assert central_value_coefficient(D, -1, Fraction(a)) == 0


def test_siegel_weil_samples():
    for D in DISCS:
        for a in range(1, 25):
            lhs, rhs = siegel_weil_check(D, Fraction(a))
            assert lhs == rhs, (D, a)
    # a couple of exact values, with the class-number-3 averaging visible
    assert siegel_weil_check(-23, Fraction(2)) == (4, 4)
    assert siegel_weil_check(-23, Fraction(5)) == (0, 0)
    assert siegel_weil_check(-4, Fraction(25)) == (6, 6)  # 12 vectors over 2 units


def test_averaged_central_value_at_the_single_genus():
    # h(-23) = 3 with one class per genus: every member of the family at the
    # distinguished prime has central value 2 at the ramified place on every
    # represented target
    fam = coherent_neighbor(-23, Fraction(-1), distinguished_flip_prime(-23)).family
    assert len(fam) == 3
    for a in (1, 2, 3, 4, 6):
        assert [central_value(L, Fraction(a), 23) for L in fam] == [2, 2, 2]


def test_derivative_coefficient_finite_anchors():
    assert derivative_coefficient(-4, -1, Fraction(1)) == LogLinear(0, {2: -4})
    assert derivative_coefficient(-4, -1, Fraction(3)) == LogLinear(0, {3: -8})
    assert derivative_coefficient(-4, -1, Fraction(9)) == LogLinear(0, {2: -4})
    assert derivative_coefficient(-4, -1, Fraction(27)) == LogLinear(0, {3: -16})
    assert derivative_coefficient(-3, -1, Fraction(1)) == LogLinear(0, {3: -6})
    assert derivative_coefficient(-23, -1, Fraction(2)) == LogLinear(0, {23: Fraction(-4, 3)})


def test_derivative_coefficient_double_vanishing():
    found = 0
    for D in DISCS:
        coll = Collection(D, -1)
        for a in range(-15, 16):
            if a and len(coll.diff_set(Fraction(a))) >= 2:
                found += 1
                assert derivative_coefficient(D, -1, Fraction(a)) == LogLinear(0)
    assert found > 10


def test_derivative_coefficient_archimedean():
    import math
    from siegelweil.archwhittaker import exp_integral_e1

    coeff = derivative_coefficient(-4, -1, Fraction(-1), Fraction(1))
    assert not coeff.logs and coeff.q0 == 0
    # kappa * (-1/4) E1(4 pi) * cv_2(-1): the 2-adic factor is 2 here
    want = 4 * (-0.25) * exp_integral_e1(4 * math.pi) * 2
    assert abs(coeff.resid - want) < 1e-18


def test_scale_convention_is_respected():
    """xi = -2 is a different incoherent collection with its own Diff sets,
    and the machinery calibrates it independently."""
    coll = Collection(-4, -2)
    assert not coll.is_coherent()
    for a in (1, 2, 3, 5):
        lhs, rhs = siegel_weil_check(-4, Fraction(a), xi=-2)
        assert lhs == rhs


@pytest.mark.parametrize("call", [
    lambda: siegel_weil_check(-23, -1),
    lambda: siegel_weil_check(-23, 0),
    lambda: central_value_coefficient(-23, -1, 0),
    lambda: derivative_coefficient(-23, -1, 0),
    lambda: arithmetic_degree(-23, -1, 0),
])
def test_bad_targets_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("side", [derivative_coefficient, arithmetic_degree])
def test_an_empty_diff_set_is_an_internal_error(side):
    """Both sides assume an incoherent collection, which misses every target
    somewhere; the coherent xi = 1 represents 1 everywhere."""
    with pytest.raises(InternalError):
        side(-4, 1, Fraction(1))


def test_bad_targets_are_refused_under_optimisation():
    """The target checks are explicit exceptions, so `python -O` (which
    strips asserts) still refuses a negative coherent-value target."""
    import os
    import subprocess
    import sys

    import siegelweil

    src = os.path.dirname(os.path.dirname(siegelweil.__file__))
    code = (
        "from siegelweil.eisenstein import siegel_weil_check\n"
        "print('asserts on:', __debug__)\n"
        "try:\n"
        "    print(siegel_weil_check(-23, -1))\n"
        "except ValueError as e:\n"
        "    print('refused:', e)\n"
    )
    run = subprocess.run([sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=60)
    assert run.stdout == (
        "asserts on: False\n"
        "refused: the coherent-value identity needs a positive target, not -1\n"
    )
