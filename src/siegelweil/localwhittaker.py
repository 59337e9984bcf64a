"""Local densities, central values, and their derivatives at finite places.

Everything here is exact rational arithmetic.  The density of a binary form
at a target is the stable value of (solution count mod p^k) / p^k.  At an odd
prime where the content-stripped form is unimodular it has a closed form
(Kudla-Rapoport-Yang; T. Yang, J. Number Theory 1998); only at p | 2*disc is
it counted, by the fast congruence counter scanned until the ratio settles.
Dividing by the appropriate covolume and Dirichlet factor turns the density
into the central value of the local Whittaker function, normalized so that
the unramified self-dual lattice takes value 1 on unit targets.  At the one
bad place of an incoherent collection the central value vanishes and the
derivative appears instead; it telescopes into a finite sum of central
values along divisions by the norm uniformizer, with a log p coefficient
kept symbolic (LogLinear).

The shell-sum oracle at the bottom recomputes the same quantities from the
defining oscillatory sums by raw enumeration.  It and density_sequence exist
so the closed form and the counting engine can be cross-checked, not for
speed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .field import (
    LogLinear,
    binary_form_count_bruteforce,
    binary_form_count_fast,
    kronecker,
    legendre,
    val,
)

_MAX_STABILIZATION_SCAN = 10


def _content(form, p):
    """min p-valuation of the values of the form (= min over A, C, A+B+C)."""
    vals = [val(x, p) for x in (form[0], form[2], form[0] + form[1] + form[2]) if x != 0]
    assert vals, "degenerate form"
    return min(vals)


@lru_cache(maxsize=None)
def _density_stable(form, alpha, p):
    # form is content-free at p here and alpha is a p-unit times p^v, v >= 0
    v = val(alpha, p)
    k0 = v + (6 if p == 2 else 3)
    seq = {}

    def den(k):
        if k not in seq:
            seq[k] = Fraction(binary_form_count_fast(form, alpha, p, k), p**k)
        return seq[k]

    for k in range(k0, k0 + _MAX_STABILIZATION_SCAN):
        if den(k) == den(k + 1) == den(k + 2):
            return den(k)
    raise ArithmeticError(
        f"density of {form} at {alpha} over Q_{p} did not stabilize "
        f"by level {k0 + _MAX_STABILIZATION_SCAN + 2}"
    )


def local_density(form, alpha, p):
    """Stable solution density of form == alpha over Z_p (alpha != 0).

    After stripping the form's p-content, an odd p with the stripped
    discriminant a p-unit has the closed form (1 - chi/p) * sum_{j<=v} chi^j,
    chi = (disc/p) and v = val_p of the stripped target; only p | 2*disc
    runs the counter."""
    alpha = Fraction(alpha)
    assert alpha != 0
    form = tuple(Fraction(x) for x in form)
    m = _content(form, p)
    v = val(alpha, p) - m
    if v < 0:
        return Fraction(0)
    scale = Fraction(p) ** m
    A, B, C = (x / scale for x in form)
    disc = B * B - 4 * A * C
    if p != 2 and val(disc, p) == 0:
        chi = legendre(disc, p)
        return scale * (1 - Fraction(chi, p)) * sum(chi**j for j in range(v + 1))
    return scale * _density_stable((A, B, C), alpha / scale, p)


def density_sequence(form, alpha, p, kmax):
    """[count(mod p^k)/p^k for k in 0..kmax]: the trajectory behind the
    stable density, exposed for convergence tests and the shell oracle."""
    form = tuple(Fraction(x) for x in form)
    alpha = Fraction(alpha)
    return [Fraction(binary_form_count_fast(form, alpha, p, k), p**k) for k in range(kmax + 1)]


def dirichlet_factor(D, p):
    """1 - chi_D(p)/p: the normalizing local Euler factor."""
    return 1 - Fraction(kronecker(D, p), p)


def central_value(D, form, alpha, p):
    """Central value of the local Whittaker function attached to a rank-one
    Hermitian lattice with the given norm form: density over covolume and
    Dirichlet factor.  Nonzero exactly when the lattice's local space
    represents alpha; equal to 1 for a self-dual lattice at an unramified
    place and a unit alpha."""
    den = local_density(form, alpha, p)
    disc = form[1] * form[1] - 4 * form[0] * form[2]
    d = val(Fraction(disc), p) - val(Fraction(D), p)
    assert d % 2 == 0, "norm-form discriminant should differ from D by a square"
    return Fraction(p) ** (-d // 2) * den / dirichlet_factor(D, p)


def lattice_central_value(lattice, alpha, p):
    return central_value(lattice.D, lattice.norm_form(), alpha, p)


def central_derivative(neighbor, alpha):
    """Derivative of the local central value at the flip place of a coherent
    neighbor, as a LogLinear multiple of log p.

    The derivative telescopes over divisions of alpha by the norm uniformizer
    r (a rational generating N(pi_E)): each division shifts a unitary change
    of variable in the defining integral and leaves a central value of the
    flipped lattice behind, weighted by -(1/2) log N(P) = -(f/2) log p.
    """
    alpha = Fraction(alpha)
    assert alpha != 0
    p = neighbor.flip_place
    form = neighbor.flip_local_model.norm_form()
    r = neighbor.norm_unif
    total = Fraction(0)
    a = alpha
    while val(a, p) >= 0:
        total += central_value(neighbor.D, form, a, p)
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
