"""Acceptance gate: the eight headline checks, each printing one summary line.

Run with -s to watch the lines; every check both prints PASS/FAIL and
asserts, so a silent run fails loudly too.
"""

import time
from fractions import Fraction

from siegelweil import (
    INF,
    LogLinear,
    arithmetic_degree,
    central_value_coefficient,
    class_group,
    coherent_neighbor,
    derivative_coefficient,
    siegel_weil_check,
    stack_mass,
)
from siegelweil.cycles import assemble_finite_degree, divisibility_depth
from siegelweil.eisenstein import distinguished_flip_prime
from siegelweil.field import Ideal, form_to_ideal, ideal_val, unit_count, val
from siegelweil.hermitian import Collection
from siegelweil.localwhittaker import (
    central_derivative,
    central_value,
    density_sequence,
    local_density,
    shell_coefficients,
    threshold_measure,
)
from siegelweil.archwhittaker import arch_central_derivative, arch_whittaker_minus

ALL_D = (-3, -4, -7, -8, -11, -20, -23, -24)
MAIN_D = (-3, -4, -7, -23)
XI = Fraction(-1)


def _gate(num, desc, failures, elapsed=None, budget=None):
    ok = not failures and (budget is None or elapsed < budget)
    timing = "" if elapsed is None else f" ({elapsed:.1f}s)"
    print(f"[PRIMARY {num}] {desc}: {'PASS' if ok else 'FAIL'}{timing}")
    assert not failures, failures[:5]
    if budget is not None:
        assert elapsed < budget, (elapsed, budget)


def test_incoherent_central_values_vanish():
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for D in ALL_D:
        coll = Collection(D, XI)
        for alpha in range(-50, 51):
            if alpha == 0:
                continue
            value = central_value_coefficient(D, XI, alpha)
            tol = Fraction(1, 10**10) if INF in coll.diff_set(Fraction(alpha)) else 0
            if abs(value) > tol:
                failures.append((D, alpha, value))
            checked += 1
    _gate(1, f"incoherent central values vanish at {checked} targets",
          failures, time.perf_counter() - t0, 30)


def test_coherent_value_identity_sweep():
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for D in ALL_D:
        for alpha in range(2, 101):  # alpha = 1 is the calibration target
            lhs, rhs = siegel_weil_check(D, Fraction(alpha))
            if lhs != rhs:
                failures.append((D, alpha, lhs, rhs))
            checked += 1
    assert checked >= 700
    _gate(2, f"coherent-value identity holds at {checked} uncalibrated targets",
          failures, time.perf_counter() - t0, 120)


def _both_sides(D, alpha, y):
    lhs = arithmetic_degree(D, XI, alpha, y)
    rhs = derivative_coefficient(D, XI, alpha, y).scaled(-stack_mass(D))
    return lhs, rhs


def test_degree_identity_at_finite_places():
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for D in MAIN_D:
        coll = Collection(D, XI)
        for alpha in range(1, 101):
            diff = coll.diff_set(Fraction(alpha))
            if len(diff) != 1 or diff[0] == INF:
                continue
            lhs, rhs = _both_sides(D, Fraction(alpha), 1)
            if lhs != rhs:
                failures.append((D, alpha, lhs, rhs))
            checked += 1
    assert checked >= 200
    _gate(3, f"degree identity exact in log p at {checked} finite-place targets",
          failures, time.perf_counter() - t0, 180)


def test_degree_identity_at_the_archimedean_place():
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for D in MAIN_D:
        coll = Collection(D, XI)
        for alpha in range(-50, 0):
            if coll.diff_set(Fraction(alpha)) != [INF]:
                continue
            for y in (Fraction(1, 2), Fraction(1), Fraction(3)):
                lhs, rhs = _both_sides(D, Fraction(alpha), y)
                err = abs(lhs.resid - rhs.resid)
                if err > 1e-6 * max(1.0, abs(rhs.resid)):
                    failures.append((D, alpha, y, err))
                checked += 1
    assert checked >= 100
    _gate(4, f"degree identity within 1e-6 at {checked} archimedean targets",
          failures, time.perf_counter() - t0, 60)


def test_double_miss_forces_both_sides_to_zero():
    t0 = time.perf_counter()
    failures = []
    checked = 0
    zero = LogLinear(0)
    for D in MAIN_D:
        coll = Collection(D, XI)
        for alpha in [a for a in range(-50, 101) if a != 0]:
            if len(coll.diff_set(Fraction(alpha))) < 2:
                continue
            lhs, rhs = _both_sides(D, Fraction(alpha), 1)
            if lhs != zero or rhs != zero:
                failures.append((D, alpha, lhs, rhs))
            checked += 1
    assert checked >= 2
    _gate(5, f"both sides vanish exactly at {checked} twice-missed targets",
          failures, time.perf_counter() - t0)


def test_local_identities():
    t0 = time.perf_counter()
    failures = []

    # argument-shift law for the truncated measures, ten scalings per place
    form = (1, 0, 1)
    for p in (2, 3, 5, 7, 11, 13):
        u = p + 1  # a unit at p
        pairs = [
            (Fraction(1), Fraction(1)),
            (Fraction(1), Fraction(p)),
            (Fraction(u), Fraction(2)),
            (Fraction(u), Fraction(p * p)),
            (Fraction(p), Fraction(1)),
            (Fraction(p), Fraction(p)),
            (Fraction(p), Fraction(2 * p * p)),
            (Fraction(p * p), Fraction(p)),
            (Fraction(p * p), Fraction(p * p)),
            (Fraction(u * p), Fraction(p)),
        ]
        for t, alpha in pairs:
            v = val(t, p)
            scaled = tuple(t * x for x in form)
            for m in range(0, 3):
                lhs = threshold_measure(scaled, alpha, p, m)
                rhs = threshold_measure(form, alpha / t, p, m - v)
                if lhs != rhs:
                    failures.append(("shift", p, t, alpha, m))

    # one telescoping step of the central derivative costs one central value
    seen = set()
    for D, place in [(-4, 2), (-4, 3), (-3, 3), (-7, 7),
                     (-8, 2), (-11, 11), (-23, 23), (-20, 2)]:
        nb = coherent_neighbor(D, XI, place)
        model = nb.flip_local_model
        r, f, p = nb.norm_unif, nb.f, place
        for mult in (1, 2, 3, 5):
            for power in (1, 2, 3):
                a = Fraction(mult * p**power)
                seen.add((p, a))
                lhs = central_derivative(nb, a) - central_derivative(nb, a / r)
                step = LogLinear(0, {p: -Fraction(f, 2) * central_value(model, a, p)})
                if lhs != step:
                    failures.append(("telescope", D, place, a))
    assert len(seen) >= 50

    # the y-derivative of the archimedean central derivative
    for alpha in (-1, -3, -5):
        for y in (0.5, 1.0, 3.0):
            h = 1e-6 * y
            num = (arch_central_derivative(alpha, y + h)
                   - arch_central_derivative(alpha, y - h)) / (2 * h)
            want = arch_whittaker_minus(alpha, y) / y
            if abs(num - want) > 1e-6 * abs(want):
                failures.append(("ode", alpha, y, num, want))

    _gate(6, "shift law, telescoping and archimedean ODE hold",
          failures, time.perf_counter() - t0)


def test_density_shell_concordance():
    t0 = time.perf_counter()
    failures = []
    triples = []
    for D in (-4, -3, -23, -20):
        for lattice in coherent_neighbor(D, XI, distinguished_flip_prime(D)).family:
            for p, alpha in [(2, Fraction(4)), (3, Fraction(9)), (5, Fraction(5))]:
                triples.append((p, alpha, lattice))
    triples = triples[:21]
    assert len(triples) >= 20
    for p, alpha, lattice in triples:
        form = lattice.norm_form()
        jmax = max(0, val(alpha, p)) + (4 if p == 2 else 2)
        shells = shell_coefficients(form, alpha, p, jmax=jmax)
        seq = density_sequence(form, alpha, p, jmax)
        run = Fraction(0)
        for j, t in enumerate(shells):
            run += t
            if run != seq[j]:
                failures.append(("trajectory", p, alpha, form, j))
        if run != local_density(form, alpha, p):
            failures.append(("stable-sum", p, alpha, form))
    _gate(7, f"shell sums match the counting engine on {len(triples)} triples",
          failures, time.perf_counter() - t0)


def test_planted_depths_and_degrees():
    t0 = time.perf_counter()
    failures = []
    instances = 0
    for D, place, e in [(-4, 3, 1), (-4, 2, 2), (-23, 23, 2),
                        (-8, 2, 2), (-11, 11, 2)]:
        nb = coherent_neighbor(D, XI, place)
        lattice = nb.base_lattice
        P = Ideal.prime_above(D, place)
        g1 = (Fraction(lattice.form[0]), Fraction(0))
        d0 = divisibility_depth(g1, lattice, P)
        base_val = ideal_val(form_to_ideal(D, lattice.form), P)
        w = unit_count(D) // 2
        for k in (1, 2, 3, 4):
            planted = (g1[0] * place**k, g1[1] * place**k)
            want = d0 + e * k
            got = divisibility_depth(planted, lattice, P)
            oracle = ideal_val(Ideal.principal(D, planted), P) - base_val + 1
            degree = assemble_finite_degree([got], nb.f, w, place)
            expected = LogLinear(0, {place: Fraction(nb.f * want, w)})
            if got != want or got != oracle or degree != expected:
                failures.append((D, place, k, got, want, oracle))
            instances += 1
    assert instances >= 20
    _gate(8, f"planted divisibility depths and degrees exact on {instances} instances",
          failures, time.perf_counter() - t0)
