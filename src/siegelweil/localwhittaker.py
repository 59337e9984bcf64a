"""Local densities, central values, and their derivatives at finite places.

Everything here is exact rational arithmetic.  The density of a binary form
at a target is the stable value of (solution count mod p^k) / p^k.  Every
lattice norm form is locally a unit times the norm form of the maximal order
of E_p, and there the density has a closed form at every prime, 2 and the
ramified primes included (Kudla-Rapoport-Yang; T. Yang, J. Number Theory
1998); nothing is counted on the way to a density.  Dividing by the
appropriate covolume and Dirichlet factor turns the density into the central
value of the local Whittaker function, normalized so that the unramified
self-dual lattice takes value 1 on unit targets.  At the one bad place of an
incoherent collection the central value vanishes and the derivative appears
instead; it telescopes into a finite sum of central values along divisions
by the norm uniformizer, with a log p coefficient kept symbolic (LogLinear).

The shell-sum oracle at the bottom recomputes the same quantities from the
defining oscillatory sums by raw enumeration.  It and density_sequence, which
runs the fast congruence counter level by level, exist so the closed form
can be cross-checked, not for speed.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .field import (
    LogLinear,
    _strip,
    binary_form_count_bruteforce,
    binary_form_count_fast,
    hilbert_symbol,
    kronecker,
    legendre,
    val,
)


def local_density(form, alpha, p):
    """Stable solution density of form == alpha over Z_p, in closed form.

    Stripped of its p-content p^m, a lattice norm form is a unit u times the
    norm form N of the maximal order of E_p = Q_p(sqrt(disc))
    (Kudla-Rapoport-Yang; T. Yang, J. Number Theory 1998).  With
    v = val_p(alpha) - m the density is p^m (1 - chi/p) * sum_{j<=v} chi^j
    when disc is a p-unit, chi = (disc/p) (at p = 2, +1 iff disc = 1 mod 8);
    when E_p is ramified it is 2 p^m if alpha/(p^m u) is a norm and 0 if
    not, at every v >= 0, since N maps the units onto an index-2 subgroup of
    Z_p^x.  A non-maximal order, a degenerate form and alpha = 0 raise
    ValueError."""
    alpha = Fraction(alpha)
    if alpha == 0:
        raise ValueError("local density at the target 0")
    # scaling form and target by their common denominator n = p^k * (unit)
    # scales the density by p^k, and leaves ints
    fracs = [Fraction(x) for x in form] + [alpha]
    n = math.lcm(*(x.denominator for x in fracs))
    A, B, C, t = (x.numerator * (n // x.denominator) for x in fracs)
    disc = B * B - 4 * A * C
    if disc == 0:
        raise ValueError("degenerate form")
    # p-content p^m: the least valuation among the values A, C and A+B+C,
    # attained at u * p^m
    m, u = min(_strip(x, p) for x in (A, C, A + B + C) if x)
    e, r = _strip(disc, p)
    e -= 2 * m
    maximal = e == 1 if p != 2 else e == 3 or (e == 2 and r % 4 == 3)
    if e and not maximal:
        raise ValueError(f"{form} is not a norm form of a maximal order at {p}")
    v = _strip(t, p)[0] - m
    if v < 0:
        return Fraction(0)
    shift = m - _strip(n, p)[0]
    if e == 0:
        chi = legendre(r, p) if p != 2 else (1 if r % 8 == 1 else -1)
        num, shift = (p - chi) * (v + 1 if chi == 1 else 1 - v % 2), shift - 1
    else:
        num = 2 if hilbert_symbol(t * u * p**m, disc, p) == 1 else 0
    return Fraction(num * p**shift) if shift >= 0 else Fraction(num, p**-shift)


def density_sequence(form, alpha, p, kmax):
    """[count(mod p^k)/p^k for k in 0..kmax]: the trajectory behind the
    stable density, exposed for convergence tests and the shell oracle."""
    form = tuple(Fraction(x) for x in form)
    alpha = Fraction(alpha)
    return [Fraction(binary_form_count_fast(form, alpha, p, k), p**k) for k in range(kmax + 1)]


def dirichlet_factor(D, p):
    """1 - chi_D(p)/p: the normalizing local Euler factor."""
    return 1 - Fraction(kronecker(D, p), p)


def central_value(lattice, alpha, p):
    """Central value of the local Whittaker function attached to a rank-one
    Hermitian lattice: density over covolume and Dirichlet factor.  The
    norm form scale * form has discriminant scale^2 D, so the covolume is
    p^val_p(scale).  Nonzero exactly when the lattice's local space
    represents alpha; equal to 1 for a self-dual lattice at an unramified
    place and a unit alpha."""
    den = local_density(lattice.norm_form(), alpha, p)
    return Fraction(p) ** -val(lattice.scale, p) * den / dirichlet_factor(lattice.D, p)


def central_derivative(neighbor, alpha):
    """Derivative of the local central value at the flip place of a coherent
    neighbor, as a LogLinear multiple of log p.

    The derivative telescopes over divisions of alpha by the norm uniformizer
    r (a rational generating N(pi_E)): each division shifts a unitary change
    of variable in the defining integral and leaves a central value of the
    flipped lattice behind, weighted by -(1/2) log N(P) = -(f/2) log p.  The
    sum runs down to the flipped lattice's content val_p(scale), below which
    it represents nothing; with p in the denominator of xi that content is
    negative.
    """
    alpha = Fraction(alpha)
    assert alpha != 0
    p = neighbor.flip_place
    model = neighbor.flip_local_model
    content = val(model.scale, p)
    r = neighbor.norm_unif
    total = Fraction(0)
    a = alpha
    while val(a, p) >= content:
        total += central_value(model, a, p)
        a /= r
    coeff = -Fraction(neighbor.f, 2) * total
    return LogLinear(0, {p: coeff})


# ---------------------------------------------------------------------------
# shell-sum oracle
#
# The local Whittaker value W_alpha(e, s) is, up to its fixed gamma-factor,
# sum_j T_j p^{-js} where T_j integrates the additive character over the
# j-th valuation shell of the second variable.  Each T_j reduces to
# differences of valuation-threshold counts; here those counts come from raw
# enumeration, making the oracle independent of the fast counting engine.


def _form_slack(form, p):
    # a constant shift is exact at any level; only the form's denominators
    # force counting at a deeper level than the valuation threshold
    return max(0, -min(val(x, p) for x in form if x != 0))


def threshold_measure(form, alpha, p, threshold):
    """Haar measure of {x in Z_p^2 : val_p(F(x) - alpha) >= threshold}, by
    raw enumeration.  The partial sums of the shell coefficients; also the
    exact carrier of the argument-shift law: scaling the form by N(t) shifts
    every threshold by val(N(t)) while alpha divides by N(t)."""
    form = tuple(Fraction(x) for x in form)
    return _threshold_measure(form, Fraction(alpha), p, threshold, _form_slack(form, p))


def _threshold_measure(form, alpha, p, threshold, slack):
    level = max(threshold, 0) + slack
    cnt = binary_form_count_bruteforce(form, alpha, p, threshold, level=level)
    return Fraction(cnt, p ** (2 * level))


def shell_coefficients(form, alpha, p, jmax=None):
    """[T_0, T_1, ..., T_jmax]: shell contributions to the Whittaker sum.

    T_j is the integral over the shell |b| = p^j of the b-variable; partial
    sums equal the valuation-threshold measures, so sum T_j recovers the
    density.  Default depth val(alpha) + 4 reaches past stabilization for
    p-integral data.  The enumeration cost is p^(2*jmax), so keep the depth
    small at large p."""
    form = tuple(Fraction(x) for x in form)
    alpha = Fraction(alpha)
    assert alpha != 0
    slack = _form_slack(form, p)
    if jmax is None:
        jmax = max(0, val(alpha, p)) + 4
    out = []
    prev = None
    for j in range(jmax + 1):
        mj = _threshold_measure(form, alpha, p, j, slack)
        if j == 0:
            out.append(mj)
        else:
            out.append(Fraction(p) ** j * mj - Fraction(p) ** (j - 1) * prev)
        prev = mj
    return out


def whittaker_value(form, alpha, p, s_numhalf):
    """The shell sum at s = s_numhalf/2, as {e: c} meaning sum c * p^(e/2)
    (gamma-factor normalization omitted: it is common to every value that
    gets compared).  Exact in Q[sqrt p]."""
    coeffs = shell_coefficients(form, alpha, p)
    out = {}
    for j, t in enumerate(coeffs):
        if t == 0:
            continue
        e = -j * s_numhalf
        out[e] = out.get(e, Fraction(0)) + t
    return {e: c for e, c in sorted(out.items()) if c != 0}
