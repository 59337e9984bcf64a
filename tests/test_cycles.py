"""Special-cycle degrees: point enumeration, divisibility depths and the
assembly into arithmetic degrees."""

import math
from fractions import Fraction

import pytest

from siegelweil.field import (
    INF,
    Ideal,
    LogLinear,
    form_to_ideal,
    ideal_val,
    is_fundamental_discriminant,
    val,
    weight_denominator,
)
from siegelweil.hermitian import Collection, InternalError, coherent_neighbor
from siegelweil import cycles
from siegelweil.archwhittaker import arch_green_factor
from siegelweil.cycles import (
    arithmetic_degree,
    assemble_arch_degree,
    assemble_finite_degree,
    cycle_points,
    divisibility_depth,
)
from siegelweil.eisenstein import derivative_coefficient, stack_mass


def test_assemblers():
    assert assemble_finite_degree([1, 2, 2], 2, 2, 3) == LogLinear(0, {3: 5})
    assert assemble_finite_degree([], 1, 2, 5) == LogLinear(0)
    d = assemble_arch_degree(4, 2, Fraction(-1), Fraction(1))
    assert d.q0 == 0 and not d.logs
    assert abs(d.resid - 2 * arch_green_factor(-1, 1)) < 1e-18


def test_divisibility_depth_against_ideal_valuations():
    """The membership loop agrees with the valuation bookkeeping:
    depth = v_P((x)) - v_P(lattice ideal) + 1; and the vectors, read in the
    basis of the lattice's form (which is not the HNF basis of its ideal
    when b < 0), have norm alpha N(J) / s."""
    for D, place in [(-4, 3), (-4, 2), (-23, 23), (-20, 2), (-7, 7)]:
        nb = coherent_neighbor(D, Fraction(-1), place)
        P = Ideal.prime_above(D, place)
        for lattice in nb.family:
            base = ideal_val(form_to_ideal(D, lattice.form), P)
            for alpha in range(1, 15):
                for x in cycles._vector_elements(lattice, Fraction(alpha))[:3]:
                    assert (x[0] ** 2 - D * x[1] ** 2) * lattice.scale == alpha * lattice.form[0]
                    got = divisibility_depth(x, lattice, P)
                    want = ideal_val(Ideal.principal(D, x), P) - base + 1
                    assert got == want, (D, place, alpha, x)


def test_divisibility_depth_planted_instances():
    """Multiplying a vector by p^k drives it e_P * k steps deeper."""
    for D, place, e in [(-4, 3, 1), (-4, 2, 2), (-23, 23, 2), (-8, 2, 2)]:
        nb = coherent_neighbor(D, Fraction(-1), place)
        lattice = nb.base_lattice
        P = Ideal.prime_above(D, place)
        g1 = (Fraction(lattice.form[0]), Fraction(0))
        d0 = divisibility_depth(g1, lattice, P)
        for k in (1, 2, 3):
            planted = (g1[0] * place**k, g1[1] * place**k)
            assert divisibility_depth(planted, lattice, P) == d0 + e * k


def test_depth_rejects_the_zero_vector():
    nb = coherent_neighbor(-4, Fraction(-1), 2)
    with pytest.raises(AssertionError):
        divisibility_depth((Fraction(0), Fraction(0)), nb.base_lattice, Ideal.prime_above(-4, 2))


@pytest.mark.parametrize(
    "xi,amax,min_points", [(Fraction(-1), 20, 6000), (Fraction(-6, 7), 40, 1900)]
)
def test_depth_formula_matches_the_membership_loop(xi, amax, min_points):
    """Every point of every single-finite-place cycle, for every fundamental
    D in [-300, -3] (three ramified primes included), has the loop depth
    1 + v_p(alpha/s)/f that arithmetic_degree uses, and the production
    degree equals the one assembled from the loop depths."""
    discs = [D for D in range(-300, -2) if is_fundamental_discriminant(D)]
    assert -84 in discs and -120 in discs
    points = 0
    for D in discs:
        coll = Collection(D, xi)
        w = weight_denominator(D)
        for a in range(1, amax + 1):
            alpha = Fraction(a)
            diff = coll.diff_set(alpha)
            if len(diff) != 1 or diff[0] == INF:
                continue
            p, f, pts = cycle_points(D, xi, alpha)
            v = val(alpha / coherent_neighbor(D, xi, p).base_lattice.scale, p)
            depths = [d for (_, _, d) in pts]
            if depths:
                assert v % f == 0 and set(depths) == {1 + v // f}, (D, xi, alpha, depths)
            want = assemble_finite_degree(depths, f, w, p)
            assert arithmetic_degree(D, xi, alpha) == want, (D, xi, alpha)
            points += len(pts)
    assert points >= min_points


def test_depth_formula_refuses_a_valuation_off_the_residue_degree(monkeypatch):
    """At an inert flip (f = 2) lattice vectors force v_p(alpha/s) even; an
    odd one is a defect, reported as InternalError rather than a depth."""
    monkeypatch.setattr(cycles, "val", lambda x, p: 1)
    with pytest.raises(InternalError, match="not a multiple of f = 2"):
        arithmetic_degree(-4, -1, Fraction(3))


# ---------------------------------------------------------------------------
# cycles at the anchors

ANCHORS = [
    # D, alpha, p, f, depths, degree logs
    (-4, 3, 3, 2, [1, 1, 1, 1], {3: 4}),
    (-4, 9, 2, 1, [1, 1, 1, 1], {2: 2}),
    (-4, 27, 3, 2, [2, 2, 2, 2], {3: 8}),
    (-23, 2, 23, 1, [1, 1, 1, 1], {23: 4}),
    (-3, 1, 3, 1, [1, 1, 1, 1, 1, 1], {3: 2}),
]


@pytest.mark.parametrize("D,alpha,p,f,depths,logs", ANCHORS)
def test_cycle_anchors(D, alpha, p, f, depths, logs):
    got_p, got_f, pts = cycle_points(D, -1, Fraction(alpha))
    assert (got_p, got_f) == (p, f)
    assert sorted(d for (_, _, d) in pts) == depths
    assert arithmetic_degree(D, -1, Fraction(alpha)) == LogLinear(0, logs)


def test_degree_vanishes_on_double_misses():
    for D in (-4, -20, -24):
        coll = Collection(D, -1)
        hits = 0
        for a in range(-12, 13):
            if a and len(coll.diff_set(Fraction(a))) >= 2:
                hits += 1
                assert arithmetic_degree(D, -1, Fraction(a)) == LogLinear(0)
        assert hits > 0


def test_archimedean_degree_formula():
    D, alpha = -4, Fraction(-5)
    assert Collection(D, -1).diff_set(alpha) == [INF]
    nb = coherent_neighbor(D, Fraction(-1), INF)
    reps = sum(L.rep_number(alpha) for L in nb.family)
    assert reps > 0
    for y in (Fraction(1, 2), Fraction(2)):
        got = arithmetic_degree(D, -1, alpha, y)
        assert not got.logs and got.q0 == 0
        want = Fraction(reps, 2) * arch_green_factor(alpha, y)
        assert abs(got.resid - want) < 1e-18


def test_main_identity_smoke():
    """degree side == -(stack mass) * derivative side, both routes computed
    from scratch."""
    for D in (-4, -23):
        coll = Collection(D, -1)
        for a in range(1, 21):
            diff = coll.diff_set(Fraction(a))
            lhs = arithmetic_degree(D, -1, Fraction(a))
            rhs = derivative_coefficient(D, -1, Fraction(a)).scaled(-stack_mass(D))
            if len(diff) == 1 and diff[0] != INF:
                assert lhs != LogLinear(0)
            assert lhs == rhs, (D, a)


def test_main_identity_smoke_archimedean():
    for D in (-3, -8):
        for a in (-1, -2, -6):
            if Collection(D, -1).diff_set(Fraction(a)) != [INF]:
                continue
            lhs = arithmetic_degree(D, -1, Fraction(a), Fraction(1))
            rhs = derivative_coefficient(D, -1, Fraction(a), Fraction(1)).scaled(-stack_mass(D))
            assert abs(lhs.resid - rhs.resid) <= 1e-12 * max(1.0, abs(rhs.resid))
