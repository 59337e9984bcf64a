"""Exact arithmetic for imaginary quadratic fields.

Everything here is plain rational arithmetic: Kronecker/Legendre symbols,
Hilbert symbols, quadratic congruence counts, reduced binary quadratic
forms (class groups), fractional ideals in Hermite normal form, and a
small exact number type for quantities of the shape  q0 + sum_p c_p * log p.

Discriminants are always fundamental and negative; elements of E = Q(sqrt(D))
are stored as coordinate pairs (x, y) of Fractions meaning x + y*sqrt(D).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

# The archimedean place.  Finite places are plain ints (rational primes).
INF = "inf"


# ---------------------------------------------------------------------------
# small p-adic helpers


def _strip(n, p):
    """(v, n / p^v) for a nonzero int n with v = val_p(n)."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def val(x, p):
    """p-adic valuation of a nonzero rational (int or Fraction)."""
    x = Fraction(x)
    assert x != 0, "valuation of zero requested"
    return _strip(x.numerator, p)[0] - _strip(x.denominator, p)[0]


def unit_part(x, p):
    """x / p^val(x): the p-unit part, as a Fraction."""
    return Fraction(x) / Fraction(p) ** val(x, p)


def unit_mod(x, p, k=1):
    """Reduce a p-integral rational x modulo p^k (returns an int in [0, p^k))."""
    x = Fraction(x)
    m = p**k
    num, den = x.numerator % m, x.denominator % m
    assert math.gcd(x.denominator, p) == 1, "not a p-adic integer"
    return num * pow(den, -1, m) % m


def legendre(a, p):
    """Legendre symbol (a/p) for odd prime p; a a p-adic unit rational."""
    r = a % p if isinstance(a, int) else unit_mod(a, p)
    s = pow(r, (p - 1) // 2, p)
    return -1 if s == p - 1 else s


def prime_divisors(n):
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def support_primes(*rationals):
    """Sorted primes dividing the numerator or denominator of any argument."""
    out = set()
    for x in rationals:
        x = Fraction(x)
        out.update(prime_divisors(x.numerator))
        out.update(prime_divisors(x.denominator))
    return sorted(out)


# ---------------------------------------------------------------------------
# quadratic congruence counting
#
# sqrt_count is the classical closed form for #{x mod p^k : x^2 == d}; on top
# of it the counters use 4A*F(x,y) = (2Ax + By)^2 - disc*y^2, which turns the
# x-count for fixed y into a single square-root count.  Both counters first
# clear the (p-unit) denominators, so they run on Python ints.  No
# production path counts: local densities have a closed form at every prime.
# binary_form_count_fast backs the oracles, localwhittaker.density_sequence
# and the 2-adic fingerprints of hermitian.local_class_key; the O(p^k)
# binary_form_count and the brute-force enumeration below check it.


def sqrt_count(d, p, k):
    """#{x mod p^k : x^2 == d (mod p^k)} for an integer d."""
    assert k >= 0
    if k == 0:
        return 1
    d %= p**k
    if d == 0:
        return p ** (k - (k + 1) // 2)
    v, d = _strip(d, p)
    if v % 2:
        return 0
    t = k - v
    if p != 2:
        base = 1 + legendre(d, p)
    elif t == 1:
        base = 1
    elif t == 2:
        base = 2 if d % 4 == 1 else 0
    else:
        base = 4 if d % 8 == 1 else 0
    return base * p ** (v // 2)


def _integral_unit_lead(form, t, p):
    """The form and target as ints (A, B, C), t with A a p-unit.

    Both are multiplied by the lcm of their denominators, a p-unit for
    p-integral data, which leaves every congruence count unchanged; then a
    basis change moves a unit value into the x^2 slot, which requires the
    form to have p-content zero (some value among A, C, A+B+C is a unit)."""
    A, B, C = (Fraction(z) for z in form)
    t = Fraction(t)
    den = math.lcm(A.denominator, B.denominator, C.denominator, t.denominator)
    assert den % p, "p-integral data required"
    A, B, C, t = (int(x * den) for x in (A, B, C, t))
    if A % p:
        return A, B, C, t
    if C % p:
        return C, B, A, t
    A2 = A + B + C
    assert A2 % p, "form has positive p-content"
    return A2, B + 2 * C, C, t


def binary_form_count(form, t, p, k):
    """#{(x,y) mod p^k : F(x,y) == t (mod p^k)} for a p-integral form with
    p-content zero and p-integral t.  Exact, O(p^k); a test oracle for
    binary_form_count_fast."""
    if k == 0:
        return 1
    A, B, C, t = _integral_unit_lead(form, t, p)
    disc = B * B - 4 * A * C
    total = 0
    for y in range(p**k):
        c = disc * y * y + 4 * A * t
        if p != 2:
            total += sqrt_count(c, p, k)
        else:
            total += sqrt_count(c, 2, k + 2) // 2
    return total


def binary_form_count_fast(form, t, p, k):
    """Same count as binary_form_count in O(p*k) arithmetic operations.

    The per-y square-root count depends only on the valuation and unit class
    of c(y) = disc*y^2 + 4At, so the y-sum collapses on residue classes where
    c has settled; only classes straddling a zero of c keep splitting, and
    there are O(k) of those.
    """
    if k == 0:
        return 1
    A, B, C, t = _integral_unit_lead(form, t, p)
    disc = B * B - 4 * A * C
    assert disc != 0
    fourAt = 4 * A * t
    K = k if p != 2 else k + 2
    margin = 3 if p == 2 else 1
    bump = 1 if p == 2 else 0
    d = _strip(disc, p)[0]
    half = 2 if p == 2 else 1

    total = 0
    stack = [(0, 0)]
    while stack:
        y0, j = stack.pop()
        c = disc * y0 * y0 + fourAt
        if j >= k:
            total += sqrt_count(c, p, K) // half
            continue
        # c varies over the class y0 + p^j Z by at least p^(d + min(j+bump, 2j)),
        # so the class has settled once val(c) <= dlow - margin
        dlow = d + min(j + bump, 2 * j)
        if dlow >= K or (dlow >= margin and c % p ** (dlow - margin + 1)):
            total += p ** (k - j) * (sqrt_count(c, p, K) // half)
        else:
            pj = p**j
            for r in range(p):
                stack.append((y0 + r * pj, j + 1))
    return total


def binary_form_count_bruteforce(form, t, p, k, level=None):
    """Same count by raw enumeration (rational coefficients allowed; the
    congruence is read as val_p(F(x,y) - t) >= k).  Independent slow oracle.

    With `level` set, (x, y) runs mod p^level instead of mod p^k while the
    valuation threshold stays k; that is the right reading when F has
    denominators at p (level should then exceed k by the form's denominator
    valuation)."""
    A, B, C = (Fraction(z) for z in form)
    t = Fraction(t)
    pk = p ** max(k if level is None else level, 0)
    integral = A.denominator == B.denominator == C.denominator == t.denominator == 1
    if integral and k >= 1:
        Ai, Bi, Ci, ti, m = int(A), int(B), int(C), int(t), p**k
        return sum(
            1
            for x in range(pk)
            for y in range(pk)
            if (Ai * x * x + Bi * x * y + Ci * y * y - ti) % m == 0
        )
    if integral and k <= 0:
        return pk * pk
    total = 0
    for x in range(pk):
        for y in range(pk):
            d = A * x * x + B * x * y + C * y * y - t
            if d == 0 or val(d, p) >= k:
                total += 1
    return total


# ---------------------------------------------------------------------------
# discriminants and splitting


def _squarefree(n):
    assert n > 0
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def is_fundamental_discriminant(D):
    """True for fundamental discriminants of imaginary quadratic fields (D < 0)."""
    if D >= 0:
        return False
    if D % 4 == 1:
        return _squarefree(-D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and _squarefree(-m)
    return False


def kronecker(D, n):
    """Kronecker symbol (D/n), the quadratic character attached to Q(sqrt(D))."""
    if n == 0:
        return 1 if D in (1, -1) else 0
    res = 1
    if n < 0:
        n = -n
        if D < 0:
            res = -res
    while n % 2 == 0:
        n //= 2
        if D % 2 == 0:
            return 0
        if D % 8 in (3, 5):
            res = -res
    # Jacobi symbol (D/n) for odd n > 0 via reciprocity
    a = D % n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                res = -res
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            res = -res
        a %= n
    return res if n == 1 else 0


def splitting_type(D, p):
    """'split', 'inert' or 'ramified': behaviour of the prime p in Q(sqrt(D))."""
    assert is_fundamental_discriminant(D), D
    chi = kronecker(D, p)
    return {1: "split", -1: "inert", 0: "ramified"}[chi]


def ramified_primes(D):
    return prime_divisors(D)


# ---------------------------------------------------------------------------
# Hilbert symbols
#
# Closed forms: for p odd and a = p^alpha*u, b = p^beta*w,
#   (a,b)_p = (-1)^(alpha*beta*(p-1)/2) * (u/p)^beta * (w/p)^alpha;
# for p = 2 with odd unit parts u, w,
#   (a,b)_2 = (-1)^(eps(u)eps(w) + alpha*omega(w) + beta*omega(u)),
# where eps(u) = (u-1)/2 and omega(u) = (u^2-1)/8 mod 2.  At the real place
# the symbol is -1 exactly when both arguments are negative.


def _val_unit(x, p):
    """(val_p(x), r) for a nonzero Fraction x, where the int r is the
    numerator times the denominator of the unit part: a p-unit in the unit
    part's square class, so r mod p (or mod 8 at p = 2) is all a symbol needs."""
    vn, n = _strip(x.numerator, p)
    vd, d = _strip(x.denominator, p)
    return vn - vd, n * d


def hilbert_symbol(a, b, v):
    a, b = Fraction(a), Fraction(b)
    assert a != 0 and b != 0
    if v == INF:
        return -1 if (a < 0 and b < 0) else 1
    p = v
    alpha, u = _val_unit(a, p)
    beta, w = _val_unit(b, p)
    if p != 2:
        sign = 1
        if alpha % 2 and beta % 2 and ((p - 1) // 2) % 2:
            sign = -sign
        if beta % 2:
            sign *= legendre(u, p)
        if alpha % 2:
            sign *= legendre(w, p)
        return sign
    u8, w8 = u % 8, w % 8
    eps_u, eps_w = ((u8 - 1) // 2) % 2, ((w8 - 1) // 2) % 2
    om_u, om_w = ((u8 * u8 - 1) // 8) % 2, ((w8 * w8 - 1) // 8) % 2
    exponent = eps_u * eps_w + alpha * om_w + beta * om_u
    return -1 if exponent % 2 else 1


# ---------------------------------------------------------------------------
# LogLinear: exact numbers  q0 + sum_p c_p log(p)
#
# The finite-place comparisons live here.  Equality is decided exactly (the
# log p are linearly independent over Q, so componentwise comparison is the
# right notion); the float residual exists for display-side bookkeeping and
# must be zero before an exact comparison is allowed.


class LogLinear:
    __slots__ = ("q0", "logs", "resid")

    def __init__(self, q0=0, logs=None, resid=0.0):
        self.q0 = Fraction(q0)
        self.logs = {}
        for p, c in (logs or {}).items():
            c = Fraction(c)
            if c:
                self.logs[int(p)] = c
        self.resid = float(resid)

    def __add__(self, other):
        logs = dict(self.logs)
        for p, c in other.logs.items():
            logs[p] = logs.get(p, Fraction(0)) + c
        return LogLinear(self.q0 + other.q0, logs, self.resid + other.resid)

    def __neg__(self):
        return LogLinear(-self.q0, {p: -c for p, c in self.logs.items()}, -self.resid)

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, r):
        r = Fraction(r)
        return LogLinear(self.q0 * r, {p: c * r for p, c in self.logs.items()}, self.resid * float(r))

    def __eq__(self, other):
        if not isinstance(other, LogLinear):
            return NotImplemented
        if self.resid != 0.0 or other.resid != 0.0:
            raise ValueError("exact comparison needs zero residual")
        return self.q0 == other.q0 and self.logs == other.logs

    def __hash__(self):
        return hash((self.q0, tuple(sorted(self.logs.items()))))

    def to_json(self):
        return {
            "q0": str(self.q0),
            "logs": {str(p): str(c) for p, c in sorted(self.logs.items())},
        }

    def __repr__(self):
        terms = [str(self.q0)] if self.q0 else []
        terms += [f"({c})*log{p}" for p, c in sorted(self.logs.items())]
        if self.resid:
            terms.append(repr(self.resid))
        return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# binary quadratic forms
#
# Forms (a, b, c) with b^2 - 4ac = D < 0, a > 0, primitive.  The class group
# is the list of reduced forms; reduce_form and Ideal.to_form map an ideal to
# its class, which the tests use as an oracle.


def form_disc(f):
    a, b, c = f
    return b * b - 4 * a * c


def reduce_form(f):
    a, b, c = f
    assert a > 0 and form_disc(f) < 0, f
    while True:
        if not (-a < b <= a):
            # translate b into (-a, a]: b -> b - 2ka with k = ceil((b-a)/2a)
            k = -((a - b) // (2 * a))
            b2 = b - 2 * k * a
            c = c - k * b + k * k * a
            b = b2
        elif a > c:
            a, b, c = c, -b, a
        else:
            break
    if a == c and b < 0:
        b = -b
    return (a, b, c)


def reduced_forms(D):
    """All reduced positive-definite primitive forms of discriminant D."""
    assert D < 0
    out = []
    b = abs(D) % 2
    while b * b <= abs(D) // 3:
        m = (b * b - D) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                if math.gcd(math.gcd(a, b), c) == 1:
                    out.append((a, b, c))
                    if 0 < b < a < c:
                        out.append((a, -b, c))
            a += 1
        b += 2
    return sorted(out)


class ClassGroup:
    """The form class group of a fundamental discriminant: its reduced forms
    and their number h.  Construction refuses non-fundamental discriminants."""

    def __init__(self, D):
        if not is_fundamental_discriminant(D):
            raise ValueError(f"{D} is not a fundamental imaginary quadratic discriminant")
        self.D = D
        self.forms = reduced_forms(D)
        self.h = len(self.forms)


@lru_cache(maxsize=None)
def class_group(D):
    return ClassGroup(D)


def prime_form(D, p):
    """The norm form of the prime above the rational prime p: (p, b, c) with
    the least b in [0, 2p) and b^2 - 4pc = D (for split p the factor with
    that b), or the principal form at an inert p, whose prime is (p).  Such
    a b exists for every prime p; anything else raises ValueError."""
    if prime_divisors(p) != [p]:
        raise ValueError(f"{p} is not a prime")
    if splitting_type(D, p) == "inert":
        return class_group(D).forms[0]
    if p == 2:
        b = next(b for b in range(4) if (b * b - D) % 8 == 0)
    else:
        # b = +-r (mod p) and b = D (mod 2) give b^2 = D (mod 4p)
        r = sqrt_mod(D, p)
        b = min(x for x in (r, r + p, p - r, 2 * p - r) if x < 2 * p and (x - D) % 2 == 0)
    return (p, b, (b * b - D) // (4 * p))


def sqrt_mod(a, p):
    """A square root of a modulo the odd prime p, for a a square mod p
    (Tonelli-Shanks)."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in range(2, p) if legendre(z, p) == -1)
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t > 1:
        i = next(i for i in range(1, s) if pow(t, 1 << i, p) == 1)
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def unit_count(D):
    """#O_E^x: 6 for D = -3, 4 for D = -4, 2 otherwise."""
    return {-3: 6, -4: 4}.get(D, 2)


def weight_denominator(D):
    """#O_E^x / 2, the order of the units modulo +-1: each point of the
    moduli stack is counted with weight one over it."""
    return unit_count(D) // 2


# ---------------------------------------------------------------------------
# field elements and fractional ideals
#
# Elements: pairs (x, y) of Fractions meaning x + y*sqrt(D).
# Ideals: q * (Z a + Z (b + sqrt(D))/2) with q a positive rational, a > 0,
# 0 <= b < 2a and 4a | b^2 - D: the standard HNF presentation, unique per
# ideal.  The norm form of the ideal on this basis is a*(a x^2 + b xy + c y^2)
# with c = (b^2 - D)/(4a), which is what the lattice layer consumes.


def elt(x, y=0):
    return (Fraction(x), Fraction(y))


def elt_mul(u, v, D):
    (x1, y1), (x2, y2) = u, v
    return (x1 * x2 + D * y1 * y2, x1 * y2 + x2 * y1)


class Ideal:
    """Fractional ideal q * (Z a + Z (b + sqrt D)/2) of O_E, E = Q(sqrt D)."""

    __slots__ = ("D", "q", "a", "b")

    def __init__(self, D, q, a, b):
        assert is_fundamental_discriminant(D)
        q = Fraction(q)
        assert q > 0 and a > 0
        b %= 2 * a
        assert (b * b - D) % (4 * a) == 0, (D, q, a, b)
        self.D, self.q, self.a, self.b = D, q, a, b

    # -- constructors ------------------------------------------------------

    @classmethod
    def maximal_order(cls, D):
        return cls(D, 1, 1, abs(D) % 2)

    @classmethod
    def from_generators(cls, D, gens):
        """HNF of the Z-span of gens (a list of elements).  The span must be an
        O_E-module of rank 2; the (a, b) congruence assertion in the
        constructor catches non-ideal accidents."""
        den = 1
        for (x, y) in gens:
            for fr in (2 * x, 2 * y):
                den = den * fr.denominator // math.gcd(den, fr.denominator)
        rows = []
        for (x, y) in gens:
            rows.append([int(2 * x * den), int(2 * y * den)])  # (X + Y sqrt D)/(2 den)
        rows = [r for r in rows if r != [0, 0]]
        # clear the sqrt(D)-column down to a single row by gcd elimination
        while True:
            nz = sorted((r for r in rows if r[1] != 0), key=lambda r: abs(r[1]))
            if len(nz) <= 1:
                break
            piv = nz[0]
            new_rows = []
            for r in rows:
                if r is piv or r[1] == 0:
                    new_rows.append(r)
                else:
                    k = r[1] // piv[1]
                    nr = [r[0] - k * piv[0], r[1] - k * piv[1]]
                    if nr != [0, 0]:
                        new_rows.append(nr)
            rows = new_rows
        ys = [r for r in rows if r[1] != 0]
        xs = [r[0] for r in rows if r[1] == 0]
        assert len(ys) == 1, "module has rank < 2"
        Bx, By = ys[0]
        if By < 0:
            Bx, By = -Bx, -By
        A = 0
        for x in xs:
            A = math.gcd(A, x)
        assert A > 0, "module has rank < 2"
        Bx %= A
        # module = Z*(A/2den) + Z*((Bx + By*sqrt D)/2den); match q(Z a + Z (b+sqrt D)/2)
        q = Fraction(By, den)
        assert A % (2 * By) == 0 and Bx % By == 0, "not an O_E-stable module"
        a = A // (2 * By)
        b = Bx // By
        return cls(D, q, a, b)

    @classmethod
    def principal(cls, D, u):
        om = elt(Fraction(D, 2), Fraction(1, 2))  # (D + sqrt D)/2
        return cls.from_generators(D, [u, elt_mul(u, om, D)])

    @classmethod
    def prime_above(cls, D, p):
        """The prime over p, with the norm form prime_form(D, p)."""
        a, b, _ = prime_form(D, p)
        # at an inert p the form is principal and the prime is p * O_E
        return cls(D, p if a == 1 else 1, a, b)

    # -- basic data --------------------------------------------------------

    @property
    def norm(self):
        return self.q * self.q * self.a

    def gens(self):
        """Z-basis as elements: (q*a, q*(b + sqrt D)/2)."""
        return (
            elt(self.q * self.a),
            (Fraction(self.q * self.b, 2), Fraction(self.q, 2)),
        )

    def key(self):
        return (self.D, self.q, self.a, self.b)

    def __eq__(self, other):
        return isinstance(other, Ideal) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Ideal(D={self.D}, {self.q}*(Z*{self.a} + Z*({self.b}+sqrtD)/2))"

    def is_integral(self):
        O = Ideal.maximal_order(self.D)
        return all(O.contains(g) for g in self.gens())

    # -- arithmetic --------------------------------------------------------

    def mul(self, other):
        assert self.D == other.D
        g1, g2 = self.gens()
        h1, h2 = other.gens()
        prods = [elt_mul(x, y, self.D) for x in (g1, g2) for y in (h1, h2)]
        return Ideal.from_generators(self.D, prods)

    def conj(self):
        return Ideal(self.D, self.q, self.a, (-self.b) % (2 * self.a))

    def inverse(self):
        return self.conj().scaled(1 / self.norm)

    def scaled(self, r):
        r = Fraction(r)
        assert r > 0
        return Ideal(self.D, self.q * r, self.a, self.b)

    def power(self, n):
        if n < 0:
            return self.inverse().power(-n)
        acc = Ideal.maximal_order(self.D)
        base = self
        while n:
            if n & 1:
                acc = acc.mul(base)
            base = base.mul(base)
            n >>= 1
        return acc

    def contains(self, u):
        """Z-module membership of the element u."""
        x, y = u
        n = y / (self.q / 2)
        if n.denominator != 1:
            return False
        m = (x - n * Fraction(self.q * self.b, 2)) / (self.q * self.a)
        return m.denominator == 1

    # -- class group interface --------------------------------------------

    def to_form(self):
        """Reduced norm form of the ideal basis (the form of its class)."""
        a, b = self.a, self.b
        c = (b * b - self.D) // (4 * a)
        g = math.gcd(math.gcd(a, b), c)
        assert g == 1, "imprimitive form from a fundamental discriminant"
        return reduce_form((a, b, c))


def form_to_ideal(D, f):
    """An integral ideal with norm form f (inverse of Ideal.to_form up to reduction)."""
    a, b, _ = f
    return Ideal(D, 1, a, b % (2 * a))


def ideal_val(I, P):
    """Valuation of the fractional ideal I at the prime ideal P.

    Computed by containment bisection: v = max{m : I subset P^m} for the
    P-primary part, found by scanning m in both directions from 0."""
    # strip to the P-part: v is bounded by the valuation of the norm
    p = prime_divisors(P.norm.numerator)[0]
    bound = abs(val(I.norm, p)) + 2
    m = -bound
    Pm = P.power(m)
    v = None
    while m <= bound:
        # I subset P^m  iff  P^-m * I is integral
        if Pm.inverse().mul(I).is_integral():
            v = m
        else:
            if v is not None:
                break
        m += 1
        Pm = Pm.mul(P)
    assert v is not None
    return v
