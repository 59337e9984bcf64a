"""Rank-one Hermitian spaces over imaginary quadratic fields.

A local line at a place v of Q is (E_v, Q) with Q(x) = s * N(x) for a scale
class s in Q_v^x / N(E_v^x).  A collection fixes one line per place, scale
xi at almost every place, and each local question about it is one Hilbert
symbol: whether the line represents alpha is (alpha xi, D)_v, negated where
the line is flipped.  The incoherent collections (local invariants
multiplying to -1) are the input to the verification, and their coherent
neighbors (flip one non-split place back) carry the lattice families whose
point counts form the geometric side.

Lattices are pairs (form, scale): Z^2 with the quadratic form scale * form
for a primitive positive-definite integral binary form of discriminant D,
isometric to any ideal J of the form's class with Q(x) = scale * N(x) / N(J).
Representation numbers are exact small searches.  The coherent neighbor's
lattice is constructed from genus theory: its scale is fixed by the flip
place and its form class by genus characters.  Its family is one lattice
(g, scale) per reduced form g of the class group: twisting the base lattice
by every class only permutes the classes, so no ideal arithmetic is needed.
The local classification (local_class_key) and Lattice.twist, the one place
here that builds ideals, certify that construction in the tests; no
production path calls them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .field import (
    INF,
    binary_form_count_fast,
    class_group,
    hilbert_symbol,
    is_fundamental_discriminant,
    legendre,
    prime_divisors,
    ramified_primes,
    splitting_type,
    support_primes,
    unit_mod,
    unit_part,
    val,
)


class InternalError(Exception):
    """A construction that the theory guarantees came out empty: a defect of
    the program, not of its input.  The command line exits with code 3."""


def nonnorm_rep(D, p):
    """A canonical non-norm of E_p/Q_p at a non-split finite p: the inert
    places use the uniformizer p, the ramified ones the smallest positive
    unit that fails to be a norm."""
    st = splitting_type(D, p)
    if st == "split":
        raise ValueError(f"the split place {p} has no non-norms")
    if st == "inert":
        return Fraction(p)
    u = 1
    while True:
        u += 1
        if u % p and hilbert_symbol(u, D, p) == -1:
            return Fraction(u)


class Collection:
    """A collection of local Hermitian lines: scale xi at every finite place,
    flipped (multiplied by a non-norm) at the places in `flips`, and with the
    archimedean line positive definite unless arch_neg is set.

    The default Collection(D, xi) with xi < 0 is incoherent: the finite data
    belongs to the global space (E, xi*N) but the archimedean line does not.

    With eps_v = -1 at a flipped place and +1 elsewhere, the line at a finite
    v represents alpha iff eps_v (alpha xi, D)_v = 1, and its invariant is
    eps_v (-xi, D)_v: a flip multiplies the scale by a non-norm, which
    negates every symbol, and D is a square at a split place, where every
    symbol is 1.
    """

    __slots__ = ("D", "xi", "flips", "arch_neg")

    def __init__(self, D, xi, flips=(), arch_neg=False):
        if not is_fundamental_discriminant(D):
            raise ValueError(f"{D} is not a fundamental imaginary quadratic discriminant")
        self.D = D
        self.xi = Fraction(xi)
        if self.xi == 0:
            raise ValueError("a collection needs a nonzero scale xi")
        flips = frozenset(flips)
        for p in flips:
            if p == INF or prime_divisors(p) != [p] or splitting_type(D, p) == "split":
                raise ValueError(f"cannot flip {p}: only non-split finite places flip")
        self.flips = flips
        self.arch_neg = bool(arch_neg)

    def _sign(self, v):
        return -1 if v in self.flips else 1

    def inv_at(self, v):
        """Local invariant at v; at the real place -1 for the positive-definite
        line and +1 for the negative-definite one."""
        if v == INF:
            return 1 if self.arch_neg else -1
        return self._sign(v) * hilbert_symbol(-self.xi, self.D, v)

    def support(self):
        """Places where the local invariant can differ from +1."""
        return sorted({*support_primes(2 * self.D, self.xi), *self.flips}) + [INF]

    def invariant_product(self):
        prod = 1
        for v in self.support():
            prod *= self.inv_at(v)
        return prod

    def is_coherent(self):
        return self.invariant_product() == 1

    def represents_at(self, v, alpha):
        """Whether the line at v represents the nonzero target alpha."""
        alpha = Fraction(alpha)
        if alpha == 0:
            raise ValueError("the target 0 is excluded")
        if v == INF:
            return (alpha > 0) != self.arch_neg
        return self._sign(v) * hilbert_symbol(alpha * self.xi, self.D, v) == 1

    def diff_set(self, alpha):
        """Places where alpha is not represented locally: finite primes in
        ascending order, INF last when present.  Nonempty exactly when the
        adelic product misses alpha somewhere; for incoherent collections it
        always has odd size."""
        cand = sorted({*support_primes(2 * self.D, self.xi, alpha), *self.flips})
        out = [p for p in cand if not self.represents_at(p, alpha)]
        if not self.represents_at(INF, alpha):
            out.append(INF)
        return out

    def flipped(self, p):
        """The collection with the local line at p replaced by its other class."""
        flips = set(self.flips)
        if p == INF:
            return Collection(self.D, self.xi, flips, not self.arch_neg)
        if p in flips:
            flips.remove(p)
        else:
            flips.add(p)
        return Collection(self.D, self.xi, flips, self.arch_neg)

    def __repr__(self):
        return (
            f"Collection(D={self.D}, xi={self.xi}, flips={sorted(self.flips)}, "
            f"arch={'(0,1)' if self.arch_neg else '(1,0)'})"
        )


# ---------------------------------------------------------------------------
# lattices


class Lattice:
    """(form, scale): the rank-one Hermitian lattice Z^2 with the quadratic
    form Q = scale * form, for a primitive positive-definite integral form
    (a, b, c) of discriminant D.  It is the lattice (J, scale) with
    Q(x) = scale * N(x) / N(J) on the ideal J = Z a + Z (b + sqrt D)/2, in
    that basis; the sign of the scale is the definiteness."""

    __slots__ = ("D", "form", "scale")

    def __init__(self, D, form, scale):
        a, b, c = form
        if b * b - 4 * a * c != D:
            raise ValueError(f"the form {form} does not have discriminant {D}")
        if D >= 0 or a <= 0 or math.gcd(a, b, c) != 1:
            raise ValueError(f"the form {form} is not primitive positive definite")
        scale = Fraction(scale)
        if scale == 0:
            raise ValueError("a lattice needs a nonzero scale")
        self.D, self.form, self.scale = D, (a, b, c), scale

    @classmethod
    def standard(cls, D, scale):
        """(O_E, scale): the principal form at the given scale."""
        return cls(D, class_group(D).forms[0], scale)

    def norm_form(self):
        """Rational binary form scale * form of Q on Z^2."""
        return tuple(self.scale * x for x in self.form)

    def vectors(self, alpha):
        """All (x, y) in Z^2 with Q(x, y) == alpha (alpha != 0)."""
        alpha = Fraction(alpha)
        if alpha == 0:
            raise ValueError("the target 0 is excluded")
        t = alpha / self.scale
        if t.denominator != 1 or t <= 0:
            return []
        t = int(t)
        a, b, _ = self.form
        disc = self.D
        out = []
        ylim = math.isqrt(4 * a * t // abs(disc))
        for y in range(-ylim, ylim + 1):
            d = 4 * a * t + disc * y * y
            if d < 0:
                continue
            r = math.isqrt(d)
            if r * r != d:
                continue
            for pm in ((r,) if r == 0 else (r, -r)):
                num = -b * y + pm
                if num % (2 * a) == 0:
                    out.append((num // (2 * a), y))
        return out

    def rep_number(self, alpha):
        if Fraction(alpha) == 0:
            return 1
        return len(self.vectors(alpha))

    def twist(self, g):
        """Twist by the class of the form g: multiply the ideals of the two
        classes, keep the scale; the result carries the reduced form of the
        product.  Base-point twists permute the isometry classes of the genus
        family; a test oracle for the family of CoherentNeighbor."""
        from .field import form_to_ideal  # ideal arithmetic stays oracle-only

        product = form_to_ideal(self.D, g).mul(form_to_ideal(self.D, self.form))
        return Lattice(self.D, product.to_form(), self.scale)

    def __repr__(self):
        return f"Lattice(D={self.D}, form={self.form}, scale={self.scale})"


# ---------------------------------------------------------------------------
# local lattice classification
#
# A test-only certificate of the coherent-neighbor construction: the built
# global lattice must be everywhere locally isometric to the prescribed
# data, and the tests compare keys place by place.  For odd p a binary form
# over Z_p diagonalises and the Jordan data is a complete invariant; at
# p = 2 we fingerprint by congruence solution counts of a probe set of
# targets 2^v * u at levels deep enough to be stable, which separates the
# binary 2-adic classes that occur here (isometric lattices must agree on
# every such count).


def _min_val3(A, B, C, p):
    vals = [val(x, p) for x in (A, C, A + B + C) if x != 0]
    if not vals:
        raise ValueError("degenerate form")
    return min(vals)


def local_class_key(form, p):
    A, B, C = (Fraction(t) for t in form)
    disc = B * B - 4 * A * C
    if disc == 0:
        raise ValueError("degenerate form")
    if p != 2:
        m = _min_val3(A, B, C, p)
        # rotate a minimal-valuation value into the (1,0) slot
        if A == 0 or val(A, p) > m:
            if C != 0 and val(C, p) == m:
                A, C = C, A
            else:
                A, B = A + B + C, B + 2 * C
        if val(A, p) != m:
            raise InternalError(f"no value of content {m} in the slot of {form} at {p}")
        # complete the square: diag(A, -disc/(4A))
        d2 = -disc / (4 * A)
        e1, e2 = val(A, p), val(d2, p)
        l1, l2 = legendre(unit_part(A, p), p), legendre(unit_part(d2, p), p)
        if e1 > e2:
            e1, e2, l1, l2 = e2, e1, l2, l1
        if e1 == e2:
            return ("odd", e1, e2, l1 * l2)
        return ("odd", e1, e2, l1, l2)
    # p = 2: congruence-count fingerprint of the content-stripped form
    m = _min_val3(A, B, C, 2)
    A, B, C = A / 2**m, B / 2**m, C / 2**m
    disc = B * B - 4 * A * C
    vd = val(disc, 2)
    probes = []
    for v in range(vd + 3):
        k = v + vd + 4
        for u in (1, 3, 5, 7):
            probes.append(binary_form_count_fast((A, B, C), 2**v * u, 2, k))
    return ("even", m, vd, unit_mod(unit_part(disc, 2), 2, 3), tuple(probes))


# ---------------------------------------------------------------------------
# coherent neighbors


class CoherentNeighbor:
    """The coherent collection obtained from an incoherent one by flipping a
    single place v, realized by an actual global lattice presentation.

    family holds one lattice (g, scale) per reduced form g of the class
    group, at the scale fixed by the flip place; their weighted
    representation numbers form the geometric side.  Twisting any
    member by every class gives the same classes in another order.
    base_lattice is the member picked by the genus characters: its local
    data agrees with the incoherent collection at every finite place except
    v.  At a finite flip place p every length-alpha vector of every member
    has depth 1 + v_p(alpha / scale) / f in the prime above p, and
    flip_local_model carries an integral model of the flipped local lattice
    used for the local derivative there.

    For the archimedean flip the global space is negative definite, the
    scale is xi and base_lattice is the principal member.
    """

    __slots__ = (
        "D",
        "xi",
        "flip_place",
        "base_lattice",
        "family",
        "f",
        "norm_unif",
        "flip_local_model",
    )

    def __init__(self, D, xi, flip_place, family, base_lattice, f, norm_unif, flip_local_model):
        self.D = D
        self.xi = Fraction(xi)
        self.flip_place = flip_place
        self.family = family
        self.base_lattice = base_lattice
        self.f = f
        self.norm_unif = norm_unif
        self.flip_local_model = flip_local_model

    def __repr__(self):
        return (
            f"CoherentNeighbor(D={self.D}, xi={self.xi}, flip={self.flip_place}, "
            f"lattice={self.base_lattice!r})"
        )


def _norm_uniformizer(D, p):
    """The smallest rational (by |.|, positive first) generating the norm
    group value N(pi_E) at a non-split p: p^2 at inert places, p*u with the
    right unit class at ramified ones."""
    if splitting_type(D, p) == "inert":
        return Fraction(p * p)
    m = 0
    while True:
        m += 1
        for u in (m, -m):
            if u % p == 0:
                continue
            if hilbert_symbol(p * u, D, p) == 1:
                return Fraction(p * u)


def _class_family(D, scale):
    """One lattice (g, scale) per reduced form g, in the order of
    class_group(D).forms (the principal class first)."""
    return tuple(Lattice(D, g, scale) for g in class_group(D).forms)


@lru_cache(maxsize=None)
def coherent_neighbor(D, xi, flip_place):
    """The coherent collection next to the incoherent Collection(D, xi)
    across the place flip_place, as a global lattice with its family.

    At a finite flip p the base lattice is ((a, b, c), s) with s = |xi| p
    when p is inert and s = |xi| when p is ramified, for the first reduced
    form (a, b, c) whose value s a the flipped collection represents at p
    and at every prime q | D: (s a xi, D)_q = -1 at q = p and +1 at the
    other q.  It is the ideal I = Z a + Z (b + sqrt D)/2 of norm a with
    Q(x) = s N(x) / a, so locally it is (O_q, s N(g) / a) for a local
    generator g of I, and it matches (O, xi) at q != p and the flipped model
    at p exactly when s N(g) / (a xi) (times the non-norm at a ramified p)
    is a unit norm; away from D and p that holds for every class, and at
    q | D it is the symbol condition.
    Genus theory (Gauss; Cox, "Primes of the form x^2 + ny^2", section 3)
    says every choice of genus characters with the right product is taken
    by some class, so a matching form always exists.  The family is the
    class group at the same scale, and the base lattice is picked from it.
    """
    base = Collection(D, xi)
    if base.is_coherent():
        raise ValueError(f"{base} is coherent; its neighbors need incoherent data")
    flipped = base.flipped(flip_place)
    if not flipped.is_coherent():
        raise ValueError(f"flipping {flip_place} leaves {base} incoherent")
    xi = Fraction(xi)

    # incoherent with no flips means xi < 0: the archimedean neighbor is
    # negative definite
    if flip_place == INF:
        family = _class_family(D, xi)
        return CoherentNeighbor(D, xi, INF, family, family[0], None, None, None)

    p = flip_place
    if splitting_type(D, p) == "inert":
        f, scale, flip_scale = 2, abs(xi) * p, xi * p
    else:
        f, scale, flip_scale = 1, abs(xi), xi * nonnorm_rep(D, p)
    places = sorted({p, *ramified_primes(D)})
    family = _class_family(D, scale)
    for lattice in family:
        if all(flipped.represents_at(q, scale * lattice.form[0]) for q in places):
            return CoherentNeighbor(
                D, xi, p, family, lattice, f, _norm_uniformizer(D, p),
                Lattice.standard(D, flip_scale),
            )
    raise InternalError(
        f"no ideal class has the genus characters of the coherent neighbor "
        f"for D={D}, xi={xi}, flip={flip_place}"
    )
