"""Base-layer tests: rational valuations, symbols, class groups, ideals,
symbolic log-linear numbers and the congruence counting kernel."""

import random
from fractions import Fraction

import pytest

from siegelweil.field import (
    INF,
    Ideal,
    LogLinear,
    binary_form_count,
    binary_form_count_bruteforce,
    binary_form_count_fast,
    class_group,
    form_to_ideal,
    hilbert_symbol,
    ideal_val,
    is_fundamental_discriminant,
    kronecker,
    legendre,
    prime_divisors,
    prime_form,
    reduce_form,
    reduced_forms,
    splitting_type,
    sqrt_count,
    unit_count,
    unit_part,
    val,
)

# Class numbers for small fundamental discriminants, from the standard tables.
CLASS_NUMBERS = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -19: 1, -20: 2, -23: 3,
    -24: 2, -31: 3, -35: 2, -39: 4, -40: 2, -43: 1, -47: 5, -51: 2,
    -52: 2, -56: 4, -67: 1, -71: 7, -84: 4, -120: 4, -163: 1, -191: 13,
}


def test_valuations():
    assert val(Fraction(12), 2) == 2
    assert val(Fraction(12), 3) == 1
    assert val(Fraction(5, 8), 2) == -3
    with pytest.raises(AssertionError):
        val(Fraction(0), 7)
    assert unit_part(Fraction(-48), 2) == -3
    for x in (Fraction(3, 4), Fraction(-7, 9), Fraction(250)):
        for p in (2, 3, 5):
            assert x == Fraction(p) ** val(x, p) * unit_part(x, p) or val(x, p) == 0


def test_fundamental_discriminants():
    fundamentals = [D for D in range(-60, 0) if is_fundamental_discriminant(D)]
    assert fundamentals == [
        -59, -56, -55, -52, -51, -47, -43, -40, -39, -35,
        -31, -24, -23, -20, -19, -15, -11, -8, -7, -4, -3,
    ]
    assert not is_fundamental_discriminant(-12)
    assert not is_fundamental_discriminant(-9)
    assert not is_fundamental_discriminant(1)


@pytest.mark.parametrize("D", sorted(CLASS_NUMBERS))
def test_class_numbers_match_tables(D):
    assert class_group(D).h == CLASS_NUMBERS[D]


def test_reduction_lands_in_the_reduced_set():
    D = -71
    forms = set(reduced_forms(D))
    # unimodular changes of variable do not move the class
    for (a, b, c) in list(forms):
        assert b * b - 4 * a * c == D
        sheared = (a, b + 2 * a, a + b + c)         # x -> x + y
        flipped = (c, -b, a)                        # (x, y) -> (-y, x)
        assert reduce_form(sheared) in forms
        assert reduce_form(flipped) in forms


def test_kronecker_and_splitting():
    assert [kronecker(-4, n) for n in (1, 3, 5, 7, 9)] == [1, -1, 1, -1, 1]
    assert kronecker(-3, 2) == -1 and kronecker(-24, 2) == 0
    # multiplicative in the top argument
    for D in (-7, -20, -23):
        for m in range(1, 30):
            for n in range(1, 30):
                assert kronecker(D, m * n) == kronecker(D, m) * kronecker(D, n)
    assert splitting_type(-4, 5) == "split"
    assert splitting_type(-4, 3) == "inert"
    assert splitting_type(-4, 2) == "ramified"
    assert splitting_type(-23, 23) == "ramified"


def test_unit_counts():
    assert unit_count(-3) == 6
    assert unit_count(-4) == 4
    assert all(unit_count(D) == 2 for D in (-7, -8, -11, -20, -23, -24))


# ---------------------------------------------------------------------------
# Hilbert symbols

def _hilbert_by_counting(a, b, p, k=9):
    """Independent route: a*x^2 + b*y^2 = z^2 has a nontrivial solution mod
    p^k exactly when (a, b)_p = 1, for k past the stable range."""
    pk = p ** k
    anum = (Fraction(a).numerator * Fraction(a).denominator) % pk
    bnum = (Fraction(b).numerator * Fraction(b).denominator) % pk
    for x in range(p ** (k // 2)):
        for y in range(p ** (k // 2)):
            z2 = (anum * x * x + bnum * y * y) % pk
            if x % p == 0 and y % p == 0:
                continue
            if sqrt_count(z2, p, k // 2) > 0:
                return 1
    return -1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hilbert_symbol_against_solubility(p):
    rng = random.Random(p)
    for _ in range(12):
        a = Fraction(rng.choice([1, -1, 2, -2, 3, 5, -5, 6]))
        b = Fraction(rng.choice([1, -1, 2, -3, 3, 5, 7, -6]))
        assert hilbert_symbol(a, b, p) == _hilbert_by_counting(a, b, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hilbert_symbol_on_rationals_against_solubility(p):
    """p in the numerator and the denominator.  Rescaling by squares gives an
    integer of p-valuation 0 or 1 with the same symbol, which the counting
    oracle decides at its fixed precision."""
    def rescaled(x):
        x = x * x.denominator**2
        return x / Fraction(p) ** (2 * (val(x, p) // 2))

    rng = random.Random(100 + p)
    units = [u for u in range(1, 16) if u % p]
    for _ in range(12):
        a, b = (
            Fraction(rng.choice([1, -1]) * rng.choice(units), rng.choice(units))
            * Fraction(p) ** rng.randint(-2, 2)
            for _ in range(2)
        )
        assert hilbert_symbol(a, b, p) == _hilbert_by_counting(rescaled(a), rescaled(b), p), (a, b)


def test_hilbert_symbol_identities():
    rng = random.Random(5)
    places = [2, 3, 5, 7, 11, INF]
    cases = []
    for _ in range(40):
        a = Fraction(rng.randint(-30, 30)) or Fraction(1)
        b = Fraction(rng.randint(-30, 30)) or Fraction(-1)
        c = Fraction(rng.randint(1, 20))
        cases.append((a, b, c))
    for _ in range(40):  # rational arguments, denominators included
        a = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 30))
        b = Fraction(rng.randint(-30, 30) or -1, rng.randint(1, 30))
        c = Fraction(rng.randint(1, 20), rng.randint(1, 20))
        cases.append((a, b, c))
    for a, b, c in cases:
        for v in places:
            h = hilbert_symbol
            assert h(a, b, v) == h(b, a, v)
            assert h(a * c * c, b, v) == h(a, b, v)
            assert h(a, -a, v) == 1
        # product formula over all places of the support
        support = {2, INF}
        for x in (a, b):
            support |= set(prime_divisors(x.numerator * x.denominator))
        prod = 1
        for v in sorted(support, key=lambda x: (x == INF, x)):
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1


# ---------------------------------------------------------------------------
# ideals

def test_ideal_norm_multiplicativity():
    D = -23
    p2 = Ideal.prime_above(D, 2)
    p3 = Ideal.prime_above(D, 3)
    assert p2.norm == 2 and p3.norm == 3
    assert (p2.mul(p3)).norm == 6
    assert p2.mul(p2.conj()).norm == 4
    # P * conj(P) is the principal ideal (N P)
    prod = p2.mul(p2.conj())
    assert prod.to_form() == class_group(D).forms[0]


def test_ideal_contains_and_valuation():
    D = -20
    O = Ideal.maximal_order(D)
    P = Ideal.prime_above(D, 2)  # ramified: P^2 = (2)
    two = (Fraction(2), Fraction(0))
    assert O.contains(two)
    assert P.contains(two)
    assert P.mul(P).contains(two)
    assert not P.mul(P).mul(P).contains(two)
    assert ideal_val(Ideal.principal(D, two), P) == 2


def test_form_ideal_dictionary():
    for D in (-23, -47, -56):
        cg = class_group(D)
        for f in cg.forms:
            assert form_to_ideal(D, f).to_form() == f


def _prime_form_by_scan(D, p):
    """The definition of prime_form read literally: the least b in [0, 2p)
    with b^2 = D (mod 4p), or the principal form at an inert p."""
    if splitting_type(D, p) == "inert":
        return class_group(D).forms[0]
    b = next(b for b in range(2 * p) if (b * b - D) % (4 * p) == 0)
    return (p, b, (b * b - D) // (4 * p))


def test_prime_form_matches_the_scan():
    """The modular square root picks the same b as scanning [0, 2p)."""
    primes = [p for p in range(2, 3000) if prime_divisors(p) == [p]]
    for D in (-3, -4, -7, -8, -15, -20, -23, -24, -84, -239, -420):
        for p in primes:
            assert prime_form(D, p) == _prime_form_by_scan(D, p), (D, p)


# ---------------------------------------------------------------------------
# symbolic log-linear numbers

def test_loglinear_algebra():
    x = LogLinear(Fraction(1, 2), {2: Fraction(3)})
    y = LogLinear(Fraction(-1, 2), {2: Fraction(-3), 5: Fraction(1, 7)})
    s = x + y
    assert s == LogLinear(0, {5: Fraction(1, 7)})
    assert s - s == LogLinear(0)
    assert x.scaled(Fraction(2, 3)) == LogLinear(Fraction(1, 3), {2: Fraction(2)})
    assert -x + x == LogLinear(0)
    assert LogLinear(0, {7: Fraction(1, 10**12)}) != LogLinear(0)


def test_loglinear_floats_and_json():
    x = LogLinear(Fraction(5, 4), {3: Fraction(1, 2), 2: Fraction(-1)}, 0.25)
    assert x.to_json() == {"q0": "5/4", "logs": {"2": "-1", "3": "1/2"}}
    assert x.scaled(-2).resid == -0.5


def test_loglinear_equality_is_exact():
    # log 4 = 2 log 2 must NOT hold at distinct keys: entries are formal
    assert LogLinear(0, {4: Fraction(1)}) != LogLinear(0, {2: Fraction(2)})
    assert LogLinear(0, {2: Fraction(0)}) == LogLinear(0)


def test_loglinear_exact_comparison_refuses_a_residual_under_optimisation():
    """The zero-residual guard is an explicit exception, so `python -O`
    (which strips asserts) keeps it."""
    import os
    import subprocess
    import sys

    import siegelweil

    src = os.path.dirname(os.path.dirname(siegelweil.__file__))
    code = (
        "from siegelweil.field import LogLinear\n"
        "print('asserts on:', __debug__)\n"
        "try:\n"
        "    LogLinear(0, {}, 0.5) == LogLinear(0)\n"
        "except ValueError as e:\n"
        "    print('refused:', e)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout == "asserts on: False\nrefused: exact comparison needs zero residual\n"


# ---------------------------------------------------------------------------
# congruence counting

def _sqrt_count_brute(d, p, k):
    pk = p ** k
    return sum(1 for x in range(pk) if (x * x - d) % pk == 0)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 3), (2, 5), (3, 3), (5, 2), (7, 2)])
def test_sqrt_count_closed_form(p, k):
    for d in range(p ** k):
        assert sqrt_count(d, p, k) == _sqrt_count_brute(d, p, k), (d, p, k)


def test_binary_form_count_three_routes_agree():
    rng = random.Random(17)
    forms = [(1, 0, 1), (1, 1, 6), (2, 1, 3), (-1, -1, -1), (3, 0, 25)]
    # p-integral rational data: denominators 7 and 11 are prime to every p here
    forms += [
        (Fraction(1, 7), Fraction(1, 7), Fraction(6, 7)),
        (Fraction(2, 11), 1, Fraction(3, 77)),
        (Fraction(5, 7), Fraction(-4, 11), 0),
    ]
    for p, k in [(2, 3), (2, 4), (3, 3), (5, 2)]:
        for form in forms:
            for i in range(6):
                t = Fraction(rng.randrange(p ** k), 1 if i < 4 else rng.choice([7, 11, 77]))
                n_loop = binary_form_count(form, t, p, k)
                n_fast = binary_form_count_fast(form, t, p, k)
                n_brute = binary_form_count_bruteforce(form, t, p, k)
                assert n_loop == n_fast == n_brute, (form, t, p, k)


def test_binary_form_count_rational_data_needs_the_brute_route():
    # the fast engines are contracts over p-integral forms
    with pytest.raises(AssertionError):
        binary_form_count((Fraction(1, 2), 0, 1), 0, 2, 3)
    with pytest.raises(AssertionError):
        binary_form_count_fast((1, 0, 1), Fraction(1, 2), 2, 3)
    n = binary_form_count_bruteforce((Fraction(1, 2), 0, 1), Fraction(1, 2), 2, 3, level=4)
    assert n >= 0


def test_legendre_matches_euler_criterion():
    for p in (3, 5, 7, 11, 13):
        for a in range(1, p):
            assert legendre(a, p) == (1 if pow(a, (p - 1) // 2, p) == 1 else -1)
