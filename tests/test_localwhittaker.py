"""Local densities, central values and central derivatives at finite places.

Everything here is exact rational arithmetic; the brute threshold measures
serve as the independent oracle for the fast counting engine."""

import random
from fractions import Fraction

import pytest

from siegelweil.field import (
    LogLinear,
    is_fundamental_discriminant,
    kronecker,
    prime_divisors,
    reduced_forms,
    val,
)
from siegelweil.hermitian import Collection, Lattice, coherent_neighbor
from siegelweil.localwhittaker import (
    central_derivative,
    central_value,
    density_sequence,
    dirichlet_factor,
    local_density,
    shell_coefficients,
    threshold_measure,
    whittaker_value,
)

GAUSS = (1, 0, 1)  # x^2 + y^2, the norm form for D = -4
GAUSS_LATTICE = Lattice.standard(-4, 1)


def test_dirichlet_factor():
    assert dirichlet_factor(-4, 5) == Fraction(4, 5)
    assert dirichlet_factor(-4, 3) == Fraction(4, 3)
    assert dirichlet_factor(-4, 2) == 1
    assert dirichlet_factor(-23, 23) == 1


def test_central_value_split_is_v_plus_one():
    for p in (5, 13):  # split for D = -4
        for v in range(4):
            for u in (1, 2, 3):
                if u % p == 0:
                    continue
                a = Fraction(p) ** v * u
                assert central_value(GAUSS_LATTICE, a, p) == v + 1, (p, a)


def test_central_value_inert_is_parity():
    for p in (3, 7):  # inert for D = -4
        for v in range(5):
            a = Fraction(p) ** v * 2
            assert central_value(GAUSS_LATTICE, a, p) == (1 if v % 2 == 0 else 0), (p, a)


def test_central_value_ramified_detects_representability():
    # at p = 2 the Gaussian form takes exactly the values 1, 2 mod nonsquares:
    # central value 2 on represented targets, 0 otherwise
    for a in (1, 2, 4, 5, 8, 9, 10, 13):
        assert central_value(GAUSS_LATTICE, Fraction(a), 2) == 2, a
    for a in (3, 6, 7, 11, 12, 14, 15):
        assert central_value(GAUSS_LATTICE, Fraction(a), 2) == 0, a


def test_central_value_vanishes_exactly_off_the_represented_set():
    for D in (-3, -8, -23):
        L = Lattice.standard(D, -1)
        coll = Collection(D, -1)
        for p in (2, 3, 5, 23):
            for a in (1, -1, 2, 3, 4, 6, 9, 23):
                cv = central_value(L, Fraction(a), p)
                assert (cv != 0) == coll.represents_at(p, Fraction(a)), (D, p, a)
                assert cv >= 0


def test_density_sequence_stabilizes_to_the_density():
    cases = [
        (GAUSS, Fraction(5), 5),
        (GAUSS, Fraction(9), 3),
        ((1, 1, 6), Fraction(2), 2),
        ((2, 1, 3), Fraction(12), 3),
        ((-1, -1, -1), Fraction(4), 2),
    ]
    for form, a, p in cases:
        den = local_density(form, a, p)
        v = max(0, val(a, p))
        seq = density_sequence(form, a, p, v + 5)
        assert seq[-1] == seq[-2] == den, (form, a, p)


def test_closed_form_matches_the_counted_density():
    """At every p the density of s*f (f reduced, s any scale) has a closed
    form, at the primes dividing 2D included; it must equal p^m times the
    stabilised count of the content-stripped form, m = val_p(s), and stay an
    exact rational."""
    rng = random.Random(29)
    discs = [D for D in range(-300, -2) if is_fundamental_discriminant(D)]
    for _ in range(300):
        D = rng.choice(discs)
        f = rng.choice(reduced_forms(D))
        p = rng.choice([q for q in (3, 5, 7, 11, 13) if D % q]
                       + [q for q in prime_divisors(2 * D) if q <= 31])
        units = [u for u in range(1, 30) if u % p]
        m, v = rng.randint(-2, 2), rng.randint(0, 4)
        pm = Fraction(p) ** m
        s = Fraction(rng.choice([1, -1]) * rng.choice(units), rng.choice(units)) * pm
        u = Fraction(rng.choice([1, -1]) * rng.choice(units), rng.choice(units))
        alpha = pm * p**v * u
        den = local_density(tuple(s * x for x in f), alpha, p)
        seq = density_sequence(tuple(s / pm * x for x in f), alpha / pm, p,
                               v + (6 if p == 2 else 3))
        assert seq[-1] == seq[-2] == seq[-3], (f, s, alpha, p)
        assert type(den) is Fraction and den == pm * seq[-1], (f, s, alpha, p)


@pytest.mark.parametrize("form,alpha,p", [
    ((1, 0, 4), 1, 2),  # disc -16: index 2 in Z_2[i]
    ((1, 0, 3), 1, 2),  # disc -12: index 2 in the ring of Q_2(sqrt(-3))
    ((1, 0, 9), 1, 3),  # disc -36: index 3 in Z_3[i]
    ((1, 0, 1), 0, 2),  # zero target
    ((0, 0, 0), 1, 2),  # zero form
    ((1, 2, 1), 1, 3),  # (x + y)^2
])
def test_local_density_refuses_what_has_no_closed_form(form, alpha, p):
    """Non-maximal orders, a zero target and degenerate forms are refused
    with an explicit error, which `python -O` keeps."""
    with pytest.raises(ValueError):
        local_density(form, alpha, p)


@pytest.mark.parametrize("form,alpha,p", [
    ((Fraction(1, 5), 0, Fraction(1, 5)), Fraction(2, 5), 5),  # closed form, split p
    ((Fraction(1, 9), 0, Fraction(1, 9)), Fraction(2, 9), 3),  # closed form, inert p
    ((Fraction(1, 2), 0, Fraction(1, 2)), Fraction(5, 2), 2),  # closed form at 2
    ((Fraction(1, 23), Fraction(1, 23), Fraction(6, 23)), Fraction(2, 23), 23),  # p | D
])
def test_density_of_a_form_with_p_in_its_denominators(form, alpha, p):
    """A scale with a denominator at p (for instance xi = -1/5) makes the
    content negative; the density stays an exact Fraction and scales out."""
    m = min(val(x, p) for x in form if x != 0)
    pm = Fraction(p) ** m
    den = local_density(form, alpha, p)
    assert type(den) is Fraction
    assert den == pm * local_density(tuple(x / pm for x in form), alpha / pm, p) != 0


def test_zero_valuation_cutoff():
    # targets p-adically smaller than the form's content have no solutions
    assert local_density((2, 0, 2), Fraction(1), 2) == 0
    assert local_density((2, 0, 2), Fraction(2), 2) != 0
    assert local_density(GAUSS, Fraction(1, 3), 3) == 0


# ---------------------------------------------------------------------------
# shells against the density trajectory (the engine/oracle concordance)

@pytest.mark.parametrize("form,alpha,p", [
    (GAUSS, Fraction(5), 5),
    (GAUSS, Fraction(20), 2),
    ((1, 1, 6), Fraction(3), 3),
    ((-1, -1, -1), Fraction(9), 3),
    ((2, 1, 3), Fraction(5), 2),
])
def test_shell_partial_sums_are_the_trajectory(form, alpha, p):
    jmax = max(0, val(alpha, p)) + 2
    shells = shell_coefficients(form, alpha, p, jmax=jmax)
    seq = density_sequence(form, alpha, p, jmax)
    run = Fraction(0)
    for j, t in enumerate(shells):
        run += t
        assert run == seq[j], (form, alpha, p, j)


def test_shells_sum_to_the_density():
    for form, alpha, p in [(GAUSS, Fraction(4), 2), ((1, 1, 6), Fraction(8), 2)]:
        shells = shell_coefficients(form, alpha, p)
        assert sum(shells) == local_density(form, alpha, p)


def test_whittaker_value_at_the_center():
    w = whittaker_value((1, 1, 6), Fraction(3), 3, 0)
    assert w == {0: local_density((1, 1, 6), Fraction(3), 3)}
    # away from the center the shells spread over powers of p^(1/2)
    w1 = whittaker_value(GAUSS, Fraction(4), 2, 2)
    assert w1 and all(e <= 0 and e % 2 == 0 for e in w1)


def test_threshold_measure_shift_law():
    """Scaling the form by a local norm N shifts every threshold measure by
    val(N) while the target divides by N; unit norms change nothing."""
    form = GAUSS
    for p, norm in [(2, Fraction(4)), (3, Fraction(9)), (5, Fraction(5)), (2, Fraction(1))]:
        v = val(norm, p)
        scaled = tuple(norm * x for x in form)
        for alpha in (Fraction(1), Fraction(p), Fraction(2 * p * p)):
            for m in range(0, 3):
                lhs = threshold_measure(scaled, alpha, p, m)
                rhs = threshold_measure(form, alpha / norm, p, m - v)
                assert lhs == rhs, (p, norm, alpha, m)


# ---------------------------------------------------------------------------
# central derivatives

def test_derivative_closed_forms_ramified():
    nb = coherent_neighbor(-4, Fraction(-1), 2)
    for a in (1, 2, 4, 5, 8, 16, 20):
        if Collection(-4, -1).diff_set(Fraction(a)) != [2]:
            continue
        v = val(Fraction(a), 2)
        assert central_derivative(nb, Fraction(a)) == LogLinear(0, {2: -(v + 1)}), a


def test_derivative_closed_forms_inert():
    nb = coherent_neighbor(-4, Fraction(-1), 3)
    for a in (3, 6, 27, 54, 243):
        if Collection(-4, -1).diff_set(Fraction(a)) != [3]:
            continue
        v = val(Fraction(a), 3)
        assert v % 2 == 1
        assert central_derivative(nb, Fraction(a)) == LogLinear(0, {3: Fraction(-(v + 1), 2)}), a


def test_derivative_telescoping_step():
    """cd(alpha) - cd(alpha / r) costs exactly one central value of the flip
    model, scaled by f/2."""
    for D, place in [(-4, 3), (-4, 2), (-7, 7), (-23, 23)]:
        nb = coherent_neighbor(D, Fraction(-1), place)
        model = nb.flip_local_model
        r, f, p = nb.norm_unif, nb.f, place
        for a in (Fraction(p), Fraction(p**2), Fraction(3 * p**2), Fraction(p**3)):
            lhs = central_derivative(nb, a) - central_derivative(nb, a / r)
            step = LogLinear(0, {p: -Fraction(f, 2) * central_value(model, a, p)})
            assert lhs == step, (D, place, a)


_RAMIFIED_2_MISMATCH = pytest.mark.xfail(
    strict=True,
    reason="at D = -4, p = 2 the derivative reads (v+1)/(v+2) of the shell sum, "
    "v = v_2(alpha): measured 1/2, 2/3, 3/4 at alpha = 1, 2, 4",
)


@pytest.mark.parametrize("D,p,alpha", [
    (-4, 3, 3), (-4, 3, 6), (-23, 5, 5), (-7, 7, 1), (-7, 7, 2), (-7, 7, 7), (-3, 3, 1),
    pytest.param(-4, 2, 1, marks=_RAMIFIED_2_MISMATCH),
    pytest.param(-4, 2, 2, marks=_RAMIFIED_2_MISMATCH),
    pytest.param(-4, 2, 4, marks=_RAMIFIED_2_MISMATCH),
])
def test_derivative_matches_the_shell_sum(D, p, alpha):
    """At a target missed only at p, the log p coefficient of the local
    derivative equals sum_j j T_j of the base lattice's shells, normalised
    like central_value."""
    xi, alpha = Fraction(-1), Fraction(alpha)
    assert Collection(D, xi).diff_set(alpha) == [p]
    shells = shell_coefficients(Lattice.standard(D, xi).norm_form(), alpha, p,
                                jmax=val(alpha, p) + 2)
    oracle = sum(j * t for j, t in enumerate(shells)) * Fraction(p) ** -val(xi, p)
    oracle /= dirichlet_factor(D, p)
    assert central_derivative(coherent_neighbor(D, xi, p), alpha) == LogLinear(0, {p: oracle})
