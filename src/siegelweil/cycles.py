"""Arithmetic degrees of special cycles on the moduli of CM elliptic curves
with extra Hermitian structure.

The cycle attached to a nonzero target is supported where the target is
missed at exactly one place.  At a finite place p the points are the lattice
vectors of the coherent neighbor family with the prescribed length; each
contributes the length of its deformation space, read off from how deep the
vector sits inside the prime P above p (its divisibility order), times
log N(P) = f log p, weighted by one over the unit group order.  At the
archimedean place no finite points exist and the whole degree is the
Green-function weight against the negative-definite neighbor's vectors.

The depth needs no ideal arithmetic.  A family lattice (form, s) is the
ideal J = Z a + Z (b + sqrt D)/2 of its form (a, b, c) with
Q(x) = s N(x) / N(J), so a vector x of length alpha has
v_P(x) - v_P(J) = v_p(alpha/s)/f, since P is the only prime above the
non-split p; every point of every family member has the same depth
1 + v_p(alpha/s)/f, and the degree is that depth times the family's total
representation number.  The membership loop of divisibility_depth and the
explicit points of cycle_points rebuild J from the form; they are test
oracles for this formula.

The assembly step (multiplicities in, degree out) is split from the point
enumeration so synthetic instances with planted multiplicities can exercise
it directly.
"""

from __future__ import annotations

from fractions import Fraction

from .archwhittaker import arch_green_factor
from .field import INF, Ideal, LogLinear, form_to_ideal, val, weight_denominator
from .hermitian import Collection, InternalError, coherent_neighbor

_DEPTH_LIMIT = 64


def divisibility_depth(vector, lattice, prime):
    """1 + (number of times prime divides the vector inside the lattice):
    the membership loop runs until P^m * J no longer contains the vector, J
    the ideal of the lattice's form.  A test oracle for the depth formula of
    arithmetic_degree."""
    x, y = vector
    assert x != 0 or y != 0
    depth = 0
    current = form_to_ideal(lattice.D, lattice.form)
    while current.contains(vector):
        depth += 1
        current = prime.mul(current)
        assert depth < _DEPTH_LIMIT
    assert depth >= 1, "vector not in its own lattice"
    return depth


def _vector_elements(lattice, alpha):
    """Lattice vectors of length alpha as field elements x + y sqrt D, from
    their coordinates in the basis (a, (b + sqrt D)/2) of the form (a, b, c)
    (not the HNF basis of its ideal, which differs when b < 0)."""
    a, b, _ = lattice.form
    return [(a * cx + Fraction(b * cy, 2), Fraction(cy, 2)) for cx, cy in lattice.vectors(alpha)]


def assemble_finite_degree(depths, f, w, p):
    """Arithmetic degree of a finite-place cycle from its list of point
    multiplicities: (f/w) sum(depths) * log p."""
    coeff = Fraction(f, w) * sum(Fraction(d) for d in depths)
    return LogLinear(0, {p: coeff})


def assemble_arch_degree(rep_count, w, alpha, y):
    """Archimedean degree from a total representation count: each of the
    rep_count vectors carries the Green weight, divided by unit orbits."""
    return LogLinear(0, {}, Fraction(rep_count, w) * arch_green_factor(alpha, y))


def cycle_points(D, xi, alpha):
    """The finite-place cycle as explicit data: (p, f, list of (class index,
    vector, depth)).  Requires the target to be missed exactly at one finite
    place.  A test oracle: arithmetic_degree counts the same points without
    listing them."""
    coll = Collection(D, xi)
    diff = coll.diff_set(alpha)
    assert len(diff) == 1 and diff[0] != INF
    p = diff[0]
    neighbor = coherent_neighbor(D, Fraction(xi), p)
    prime = Ideal.prime_above(D, p)
    points = []
    for idx, lattice in enumerate(neighbor.family):
        for vec in _vector_elements(lattice, alpha):
            points.append((idx, vec, divisibility_depth(vec, lattice, prime)))
    return p, neighbor.f, points


def arithmetic_degree(D, xi, alpha, y=1):
    """Degree of the compactified special cycle at a nonzero target, as a
    LogLinear: rational log p coefficients from finite places, a float
    residual from the archimedean Green function, exactly zero when the
    target is missed at two or more places.  The target 0 raises ValueError."""
    xi = Fraction(xi)
    alpha = Fraction(alpha)
    diff = Collection(D, xi).diff_set(alpha)
    if not diff:
        raise InternalError(f"Collection({D}, {xi}) represents {alpha} at every place")
    if len(diff) >= 2:
        return LogLinear(0)
    w = weight_denominator(D)
    place = diff[0]
    neighbor = coherent_neighbor(D, xi, place)
    reps = sum(L.rep_number(alpha) for L in neighbor.family)
    if place == INF:
        return assemble_arch_degree(reps, w, alpha, y)
    f = neighbor.f
    v = val(alpha / neighbor.base_lattice.scale, place)
    if reps and v % f:
        raise InternalError(
            f"vectors of length {alpha} exist although v_p(alpha/s) = {v} is not "
            f"a multiple of f = {f} (D={D}, xi={xi}, p={place})"
        )
    return assemble_finite_degree([1 + v // f] * reps, f, w, place)
