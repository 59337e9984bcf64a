"""Local Hermitian lines, incoherent collections, lattices and the
coherent-neighbor construction."""

from fractions import Fraction

import pytest

from siegelweil.field import (
    INF,
    class_group,
    hilbert_symbol,
    is_fundamental_discriminant,
    kronecker,
    prime_form,
    ramified_primes,
    support_primes,
    unit_count,
)
from siegelweil.hermitian import (
    Collection,
    InternalError,
    Lattice,
    coherent_neighbor,
    local_class_key,
    nonnorm_rep,
)

DISCS = [-3, -4, -7, -8, -11, -20, -23, -24]


def test_local_space_dichotomy():
    """At a nonsplit place exactly one of the two lines represents each
    nonzero target, and scaling by the canonical non-norm is the flip; at a
    split place the single line represents everything."""
    targets = [Fraction(x) for x in (1, -1, 2, 3, 4, 5, 6, -12, Fraction(1, 2))]
    for D in (-4, -23):
        plus = Collection(D, 1)
        for p in (2, 3, 5, 7, 11, 23):
            if kronecker(D, p) == 1:
                assert all(plus.represents_at(p, a) for a in targets)
                continue
            assert hilbert_symbol(nonnorm_rep(D, p), D, p) == -1
            scaled = Collection(D, nonnorm_rep(D, p))
            flipped = Collection(D, 1, flips={p})
            for a in targets:
                assert scaled.represents_at(p, a) == flipped.represents_at(p, a)
                assert plus.represents_at(p, a) != flipped.represents_at(p, a)


def test_local_space_archimedean():
    pos = Collection(-4, 1)
    neg = Collection(-4, 1, arch_neg=True)
    assert pos.represents_at(INF, Fraction(5)) and not pos.represents_at(INF, Fraction(-5))
    assert neg.represents_at(INF, Fraction(-5)) and not neg.represents_at(INF, Fraction(5))


@pytest.mark.parametrize("D", DISCS)
def test_default_collection_is_incoherent(D):
    coll = Collection(D, -1)
    assert coll.invariant_product() == -1
    assert not coll.is_coherent()
    # one flip restores coherence
    p = coll.support()[0]
    if p != INF and kronecker(D, p) != 1:
        assert coll.flipped(p).is_coherent()


@pytest.mark.parametrize("D", DISCS)
def test_diff_sets_are_odd_and_nonempty(D):
    coll = Collection(D, -1)
    for a in range(-25, 26):
        if a == 0:
            continue
        diff = coll.diff_set(Fraction(a))
        assert diff, (D, a)
        assert len(diff) % 2 == 1, (D, a, diff)
        if a < 0:
            assert diff[-1] == INF
        # finite entries ascending, INF (if any) last
        finite = [v for v in diff if v != INF]
        assert finite == sorted(finite)


def test_diff_examples():
    coll = Collection(-4, -1)
    assert coll.diff_set(Fraction(1)) == [2]
    assert coll.diff_set(Fraction(3)) == [3]
    assert coll.diff_set(Fraction(-3)) == [2, 3, INF]
    assert coll.diff_set(Fraction(-5)) == [INF]
    assert Collection(-3, -1).diff_set(Fraction(1)) == [3]


# ---------------------------------------------------------------------------
# lattices and theta counts

def _r_two_squares(n):
    """4 (d_1(n) - d_3(n)): classical count for x^2 + y^2."""
    return 4 * sum(
        1 if d % 4 == 1 else -1 if d % 4 == 3 else 0
        for d in range(1, n + 1) if n % d == 0
    )


def _r_hexagonal(n):
    """6 (d_{1 mod 3}(n) - d_{2 mod 3}(n)): classical count for x^2 + xy + y^2."""
    return 6 * sum(
        1 if d % 3 == 1 else -1 if d % 3 == 2 else 0
        for d in range(1, n + 1) if n % d == 0
    )


def test_rep_numbers_match_the_classical_counts():
    gauss = Lattice.standard(-4, 1)
    hexa = Lattice.standard(-3, 1)
    for n in range(1, 60):
        assert gauss.rep_number(Fraction(n)) == _r_two_squares(n), n
        assert hexa.rep_number(Fraction(n)) == _r_hexagonal(n), n
    assert gauss.rep_number(Fraction(-2)) == 0


def test_negative_definite_counts_mirror():
    pos = Lattice.standard(-4, 1)
    neg = Lattice.standard(-4, -1)
    for n in (1, 2, 5, 8, 25):
        assert neg.rep_number(Fraction(-n)) == pos.rep_number(Fraction(n))
        assert neg.rep_number(Fraction(n)) == 0


def test_vectors_have_the_right_length():
    L = Lattice(-23, prime_form(-23, 2), 1)
    form = L.norm_form()
    for a in (1, 2, 3, 4, 6):
        vecs = L.vectors(Fraction(a))
        assert len(vecs) == L.rep_number(Fraction(a))
        for (x, y) in vecs:
            q = form[0] * x * x + form[1] * x * y + form[2] * y * y
            assert q == a


def test_twist_preserves_the_total_count():
    D = -23
    cg = class_group(D)
    base = Lattice.standard(D, 1)
    for a in (1, 2, 3, 4, 6, 8):
        total = sum(base.twist(f).rep_number(Fraction(a)) for f in cg.forms)
        # total over the genus is a class invariant; the base alone is not
        assert total == sum(
            base.twist(f).twist(cg.forms[1]).rep_number(Fraction(a)) for f in cg.forms
        )


# ---------------------------------------------------------------------------
# local classification

def test_local_class_key_is_an_invariant():
    """Unimodular changes of variable fix the key; scaling by p moves it."""
    forms = [(1, 0, 1), (1, 1, 6), (2, 1, 3), (1, 0, -15), (3, 3, 28)]
    for p in (2, 3, 5):
        for (a, b, c) in forms:
            key = local_class_key((a, b, c), p)
            sheared = (a, b + 2 * a, a + b + c)
            swapped = (c, b, a)
            assert local_class_key(sheared, p) == key
            assert local_class_key(swapped, p) == key
            scaled = (a * p, b * p, c * p)
            assert local_class_key(scaled, p) != key


def test_local_class_key_separates_the_two_classes():
    # (1,0,1) and (1,0,2) lie in different classes over Z_2 (det 4 vs 8)
    assert local_class_key((1, 0, 1), 2) != local_class_key((1, 0, 2), 2)
    # unit-square scaling is invisible
    assert local_class_key((1, 0, 1), 5) == local_class_key((4, 0, 4), 5)


# ---------------------------------------------------------------------------
# coherent neighbors

def _ideal_count(D, n):
    return sum(kronecker(D, d) for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("D", DISCS)
def test_neighbor_exists_at_every_nonsplit_support_place(D):
    coll = Collection(D, -1)
    for v in coll.support():
        if v != INF and kronecker(D, v) == 1:
            continue
        nb = coherent_neighbor(D, Fraction(-1), v)
        L = nb.base_lattice
        ratio = L.scale * L.form[0] * Fraction(-1)
        for q in (2, 3, 5, 7, 11, 13, 23):
            want = -1 if q == v else 1
            assert hilbert_symbol(ratio, D, q) == want, (D, v, q)
        # negative definite exactly across the archimedean place
        assert (L.scale > 0) == (v != INF)


@pytest.mark.parametrize("D", DISCS)
def test_flip_family_is_a_genus_with_classical_theta(D):
    """Summed over the class-group family, representation counts at the
    distinguished flip match the ideal-counting function times the number
    of units."""
    from siegelweil.eisenstein import distinguished_flip_prime

    nb = coherent_neighbor(D, Fraction(-1), distinguished_flip_prime(D))
    fam = nb.family
    assert len(fam) == class_group(D).h
    for alpha in range(1, 30):
        total = sum(L.rep_number(Fraction(alpha)) for L in fam)
        assert total == unit_count(D) * _ideal_count(D, alpha), (D, alpha)


@pytest.mark.parametrize("xi", [Fraction(-1), Fraction(-2), Fraction(-6, 7)])
def test_constructed_neighbor_is_certified_by_local_classification(xi):
    """The genus-theory lattice against the local classification, for every
    fundamental D in [-300, -3] (three ramified primes included) and flips
    at every ramified prime and at inert primes on both sides of 128: its
    scale is |xi| p (inert) or |xi| (ramified), and at every prime of the
    support it has the local class of the flipped model at the flip and of
    (O, xi) elsewhere."""
    discs = [D for D in range(-300, -2) if is_fundamental_discriminant(D)]
    assert -84 in discs and -120 in discs
    cases = 0
    for D in discs:
        base_form = Lattice.standard(D, xi).norm_form()
        inert = [p for p in (3, 5, 131, 137) if kronecker(D, p) == -1]
        for p in ramified_primes(D) + inert:
            nb = coherent_neighbor(D, xi, p)
            L = nb.base_lattice
            assert L.scale == abs(xi) * (p if p in inert else 1), (D, xi, p)
            form = L.norm_form()
            for q in support_primes(2 * D, xi, L.scale, L.form[0], p):
                want = nb.flip_local_model.norm_form() if q == p else base_form
                assert local_class_key(form, q) == local_class_key(want, q), (D, xi, p, q)
            cases += 1
    assert cases > 300


@pytest.mark.parametrize("xi", [Fraction(-1), Fraction(-6, 7)])
def test_neighbor_family_is_the_class_group(xi):
    """For every fundamental D in [-300, -3] and flips at INF, every ramified
    prime and the inert 3 and 5: the family holds one lattice per reduced
    form, in class-group order, at one scale; the base lattice is a member;
    and the twists of the base lattice by every class hit the same classes."""
    discs = [D for D in range(-300, -2) if is_fundamental_discriminant(D)]
    neighbors = 0
    for D in discs:
        forms = class_group(D).forms
        inert = [p for p in (3, 5) if kronecker(D, p) == -1]
        for v in ramified_primes(D) + inert + [INF]:
            nb = coherent_neighbor(D, xi, v)
            fam = nb.family
            assert [L.form for L in fam] == forms, (D, xi, v)
            assert {L.scale for L in fam} == {nb.base_lattice.scale}
            assert nb.base_lattice in fam
            twists = sorted(nb.base_lattice.twist(g).form for g in forms)
            assert twists == sorted(forms), (D, xi, v)
            neighbors += 1
    assert neighbors > 300


def test_neighbor_residue_degrees():
    assert coherent_neighbor(-4, Fraction(-1), 3).f == 2    # inert
    assert coherent_neighbor(-4, Fraction(-1), 2).f == 1    # ramified
    assert coherent_neighbor(-23, Fraction(-1), 23).f == 1
    assert coherent_neighbor(-20, Fraction(-1), 2).norm_unif == -2


# ---------------------------------------------------------------------------
# argument checks

@pytest.mark.parametrize("make", [
    lambda: Lattice(-23, (1, 1, 5), 1),      # discriminant -19
    lambda: Lattice(5, (1, 1, -1), 1),       # indefinite
    lambda: Lattice(-16, (2, 0, 2), 1),      # not primitive
    lambda: Lattice(-23, (-1, -1, -6), 1),   # negative definite form
    lambda: Lattice(-23, (1, 1, 6), 0),      # zero scale
    lambda: Collection(-23, 0),              # xi = 0
    lambda: Collection(-12, -1),             # not fundamental
    lambda: Collection(-23, -1, flips={2}),  # 2 splits in Q(sqrt -23)
    lambda: Collection(-23, -1, flips={INF}),
    lambda: Collection(-4, -1, flips={15}),  # (-4/15) = -1, but 15 is no place
    lambda: Collection(-23, -1).represents_at(23, 0),
    lambda: Collection(-23, -1).diff_set(0),
    lambda: nonnorm_rep(-23, 2),             # split: no non-norms
    lambda: coherent_neighbor(-23, Fraction(1), 23),  # coherent base collection
])
def test_bad_arguments_raise_value_error(make):
    with pytest.raises(ValueError):
        make()


def test_bad_arguments_are_refused_under_optimisation():
    """The argument checks are explicit exceptions, so `python -O` (which
    strips asserts) still refuses a flip at a split place."""
    import os
    import subprocess
    import sys

    import siegelweil

    src = os.path.dirname(os.path.dirname(siegelweil.__file__))
    code = (
        "from siegelweil.hermitian import Collection\n"
        "print('asserts on:', __debug__)\n"
        "try:\n"
        "    Collection(-23, -1, flips={2})\n"
        "except ValueError as e:\n"
        "    print('refused:', e)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout == (
        "asserts on: False\nrefused: cannot flip 2: only non-split finite places flip\n"
    )


def test_local_class_key_reports_a_broken_rotation(monkeypatch):
    """A rotation that misses the content is a program defect, not bad input."""
    from siegelweil import hermitian

    monkeypatch.setattr(hermitian, "_min_val3", lambda A, B, C, p: -5)
    with pytest.raises(InternalError):
        local_class_key((1, 0, 1), 3)
