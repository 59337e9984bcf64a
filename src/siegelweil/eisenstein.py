"""Fourier coefficients of the incoherent weight-one Eisenstein series at the
center, assembled as products of the local data.

The central value attached to a collection is (up to a global constant) the
product of local central values; for incoherent collections at least one
factor vanishes, so every central coefficient is exactly zero.  The central
derivative keeps a single derived factor at the unique bad place of the
target and honest central values elsewhere, with the derivative's log p kept
symbolic.

Normalization is pinned by measurement, not assumption: the Siegel-Weil
constant kappa_sw is calibrated once per discriminant on the smallest target
the coherent genus family represents, and the derivative constant follows
from it through the stack mass.  Every other target then furnishes an
independent exact identity, which is what the verification suite checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .archwhittaker import arch_central_derivative, arch_central_value
from .field import (
    INF,
    LogLinear,
    class_group,
    hilbert_symbol,
    ramified_primes,
    support_primes,
    weight_denominator,
)
from .hermitian import Collection, InternalError, Lattice, coherent_neighbor
from .localwhittaker import central_derivative, central_value


def stack_mass(D):
    """h(D) / (#units/2): the weighted point count of the moduli stack."""
    return Fraction(class_group(D).h, weight_denominator(D))


def distinguished_flip_prime(D):
    """The ramified prime at which -1 fails to be a local norm.  Flipping
    the sign incoherence there yields the positive-definite genus family."""
    cand = [p for p in ramified_primes(D) if hilbert_symbol(-1, D, p) == -1]
    if len(cand) != 1:
        raise InternalError(f"expected a unique distinguished ramified prime for {D}")
    return cand[0]


def _sw_family(D, xi):
    """The genus family of the coherent neighbor at the distinguished prime."""
    return coherent_neighbor(D, xi, distinguished_flip_prime(D)).family


def _family_average(fam, alpha, p):
    return sum(central_value(L, alpha, p) for L in fam) / len(fam)


def _coherent_sides(D, alpha, xi):
    """The family's unit-weighted representation count at alpha and the
    product over the support of the averaged local central values."""
    fam = _sw_family(D, xi)
    lhs = Fraction(sum(L.rep_number(alpha) for L in fam), weight_denominator(D))
    prod = Fraction(1)
    for p in support_primes(2 * D, alpha, xi):
        prod *= _family_average(fam, alpha, p)
    return lhs, prod


def calibration_point(D, xi=-1, calibration_alpha=None):
    """The target the normalization is measured on, as a triple
    (alpha0, family count, density product), both sides nonzero.

    Without an override this is the smallest positive target the genus
    family represents with a nonvanishing density product; with one, that
    target is tried alone and failure raises ArithmeticError.
    """
    xi = Fraction(xi)
    targets = [calibration_alpha] if calibration_alpha is not None else range(1, 200)
    for alpha in targets:
        alpha = Fraction(alpha)
        lhs, prod = _coherent_sides(D, alpha, xi)
        if lhs != 0 and prod != 0:
            return alpha, lhs, prod
    raise ArithmeticError(f"no calibration target found for D={D}")


def kappa_sw(D, xi=-1, calibration_alpha=None):
    """The Siegel-Weil proportionality constant, measured on one target.

    With lhs the unit-weighted family representation count and the right
    side (1/2) kappa prod_p acv_p, the constant is fixed by the smallest
    positive target with nonvanishing sides (or by calibration_alpha).  Its
    measured value is 2^(number of ramified primes); the code keeps the
    measurement.  One cache entry per (D, xi, calibration_alpha), whatever
    the call shape.
    """
    return _measured_kappa_sw(D, Fraction(xi), calibration_alpha)


@lru_cache(maxsize=None)
def _measured_kappa_sw(D, xi, calibration_alpha):
    _, lhs, prod = calibration_point(D, xi, calibration_alpha)
    return 2 * lhs / prod


kappa_sw.cache_clear = _measured_kappa_sw.cache_clear


def siegel_weil_check(D, alpha, xi=-1, calibration_alpha=None):
    """Both sides of the coherent-value identity at one target: the family's
    unit-weighted representation count against (1/2) kappa_sw times the
    product of averaged local central values.  Exact rationals; a target
    alpha <= 0 raises ValueError."""
    xi = Fraction(xi)
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValueError(f"the coherent-value identity needs a positive target, not {alpha}")
    lhs, prod = _coherent_sides(D, alpha, xi)
    return lhs, Fraction(1, 2) * kappa_sw(D, xi, calibration_alpha) * prod


def kappa_derivative(D, xi=-1, calibration_alpha=None):
    """Constant in front of the central-derivative coefficient, pinned by the
    measured Siegel-Weil constant through the stack mass."""
    return 4 / (stack_mass(D) * kappa_sw(D, xi, calibration_alpha))


def central_value_coefficient(D, xi, alpha, calibration_alpha=None):
    """Central (value, not derivative) coefficient at a nonzero target: the
    full product of local central values over the collection's support.
    Exactly rational; identically zero for incoherent collections since some
    local factor is zero."""
    xi = Fraction(xi)
    alpha = Fraction(alpha)
    if alpha == 0:
        raise ValueError("the target 0 is excluded")
    base = Lattice.standard(D, xi)
    prod = Fraction(kappa_derivative(D, xi, calibration_alpha)) * arch_central_value(alpha)
    for p in support_primes(2 * D, alpha, xi):
        if prod == 0:
            break
        prod *= central_value(base, alpha, p)
    return prod


def derivative_coefficient(D, xi, alpha, y=1, calibration_alpha=None):
    """Central-derivative Fourier coefficient of the incoherent series at a
    nonzero target, for the imaginary part y of the modular variable.

    Exactly one local factor is differentiated, so the coefficient vanishes
    outright when two or more places fail to represent the target; with one
    finite bad place the answer is an exact rational multiple of log p; with
    the archimedean place bad it is a float (an exponential integral) stored
    in the residual slot of the returned LogLinear.  The target 0 raises
    ValueError.
    """
    xi = Fraction(xi)
    alpha = Fraction(alpha)
    diff = Collection(D, xi).diff_set(alpha)
    if not diff:
        raise InternalError(f"Collection({D}, {xi}) represents {alpha} at every place")
    if len(diff) >= 2:
        return LogLinear(0)
    kappa = kappa_derivative(D, xi, calibration_alpha)
    base = Lattice.standard(D, xi)
    place = diff[0]
    if place == INF:
        value = float(kappa) * arch_central_derivative(alpha, y)
        for p in support_primes(2 * D, alpha, xi):
            value *= float(central_value(base, alpha, p))
        return LogLinear(0, {}, value)
    neighbor = coherent_neighbor(D, xi, place)
    scale = Fraction(kappa)
    for p in support_primes(2 * D, alpha, xi):
        if p == place:
            continue
        scale *= central_value(base, alpha, p)
    return central_derivative(neighbor, alpha).scaled(scale)
