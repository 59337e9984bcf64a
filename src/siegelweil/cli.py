"""Command-line verifier: sweep targets, compute both sides of the central
identities by their independent routes, and emit deterministic reports.

Verbs::

    verify       degree side against -(stack mass) * derivative coefficient
    siegel-weil  coherent family counts against the density product
    densities    local central values and truncated shell data, for inspection
    calibrate    the measured normalization constant and its provenance

The optional positional argument is a configuration file: flat ``key = value``
text, ``#`` to end of line is a comment, one key per line.  Recognized keys
are ``disc``, ``xi``, ``alpha``, ``tau``, ``format``, ``tol``,
``calibration_alpha``, ``jobs``, ``lattice_scale``, ``lattice_ideal``.  The
first seven also have command-line flags (``--calibration-alpha`` for
``calibration_alpha``), which override file values; ``jobs``,
``lattice_scale`` and ``lattice_ideal`` are configuration-file keys only.
Target lists are written either as an inclusive integer range ``a..b`` (zero
is dropped) or as a comma list of nonzero rationals.  ``lattice_scale`` /
``lattice_ideal`` (``principal`` or ``prime:p``, where p must be a prime)
choose the lattice inspected by ``densities``: the principal form or the
norm form of the prime above p, at the given scale; the sweeps always use
the canonical family, where the choice averages out.

Reports go to stdout, diagnostics to stderr.  Row work is dispatched to a
process pool (``jobs`` workers) after the single-threaded calibration phase;
assembly keeps target order, so identical configurations produce
byte-identical output.  Exit codes: 0 all rows pass, 1 some row fails,
2 configuration error, 3 internal (calibration, flip prime or neighbor
construction) error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import io
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import eisenstein
from .archwhittaker import arch_central_value
from .field import INF, is_fundamental_discriminant, prime_form, splitting_type, support_primes, val
from .hermitian import Collection, InternalError, Lattice, coherent_neighbor
from .localwhittaker import _form_slack, central_value, shell_coefficients
from .cycles import arithmetic_degree

VERBS = ("verify", "siegel-weil", "densities", "calibrate")
FORMATS = ("json", "csv", "text")
CONFIG_KEYS = (
    "disc", "xi", "alpha", "tau", "format", "tol",
    "calibration_alpha", "jobs", "lattice_scale", "lattice_ideal",
)

REPORT_COLUMNS = (
    "alpha", "diff", "lhs_rational", "lhs_logs",
    "rhs_rational", "rhs_logs", "arch_lhs", "arch_rhs", "pass",
)
DENSITY_COLUMNS = ("alpha", "place", "splitting", "central_value", "shells")


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    verb: str
    disc: int
    xi: Fraction = Fraction(-1)
    alphas: tuple = ()
    tau: Fraction = Fraction(1)
    fmt: str = "text"
    tol: float = 1e-6
    calibration_alpha: Fraction | None = None
    jobs: int = 1
    lattice_scale: Fraction | None = None
    lattice_ideal: str = "principal"


@dataclass
class Report:
    verb: str
    meta: dict
    columns: tuple
    rows: list
    summary: dict

    def to_json_obj(self):
        return {
            "verb": self.verb,
            "meta": self.meta,
            "columns": list(self.columns),
            "rows": self.rows,
            "summary": self.summary,
        }


# ---------------------------------------------------------------------------
# configuration

def parse_targets(text):
    """A target list: 'a..b' inclusive integer range (0 dropped) or a comma
    list of nonzero rationals."""
    text = text.strip()
    m = re.fullmatch(r"(-?\d+)\s*\.\.\s*(-?\d+)", text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo > hi:
            raise ConfigError(f"empty target range {text!r}")
        return tuple(Fraction(k) for k in range(lo, hi + 1) if k != 0)
    out = []
    for part in text.split(","):
        try:
            v = Fraction(part.strip())
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"bad target {part.strip()!r}") from None
        if v == 0:
            raise ConfigError("the target 0 is excluded")
        out.append(v)
    if not out:
        raise ConfigError("empty target list")
    return tuple(out)


def parse_config_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read configuration file: {e}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def _fraction(raw, what):
    try:
        return Fraction(str(raw))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"bad {what}: {raw!r}") from None


_DEFAULT_TARGETS = {"verify": "-10..10", "siegel-weil": "1..100", "densities": "1..20"}


def build_config(args):
    """Merge defaults, config file and flags into a validated RunConfig."""
    file_vals = parse_config_file(args.config) if args.config else {}

    def pick(key, default=None):
        flag = getattr(args, key, None)
        if flag is not None:
            return flag
        return file_vals.get(key, default)

    raw_disc = pick("disc")
    if raw_disc is None:
        raise ConfigError("a discriminant is required (--disc or 'disc =' in the config)")
    try:
        disc = int(str(raw_disc))
    except ValueError:
        raise ConfigError(f"bad discriminant {raw_disc!r}") from None
    if disc >= 0 or not is_fundamental_discriminant(disc):
        raise ConfigError(f"{disc} is not a negative fundamental discriminant")

    xi = _fraction(pick("xi", "-1"), "scale xi")
    if xi == 0:
        raise ConfigError("the scale xi must be nonzero")
    if Collection(disc, xi).is_coherent():
        raise ConfigError(
            f"xi = {xi} puts the finite data in a coherent collection; "
            "the verifier needs incoherent data (xi < 0 works)"
        )

    alphas = parse_targets(str(pick("alpha", _DEFAULT_TARGETS.get(args.verb, "1..10"))))
    if args.verb == "siegel-weil" and min(alphas) <= 0:
        raise ConfigError("the coherent sweep takes positive targets only")

    tau = _fraction(pick("tau", "1"), "tau")
    if tau <= 0:
        raise ConfigError("tau must be positive")

    fmt = str(pick("format", "text"))
    if fmt not in FORMATS:
        raise ConfigError(f"unknown format {fmt!r} (expected one of {', '.join(FORMATS)})")

    try:
        tol = float(str(pick("tol", "1e-6")))
    except ValueError:
        raise ConfigError(f"bad tolerance {pick('tol')!r}") from None
    if not tol > 0:
        raise ConfigError("the tolerance must be positive")

    calib = pick("calibration_alpha")
    calib = None if calib is None else _fraction(calib, "calibration target")
    if calib is not None and calib <= 0:
        raise ConfigError("the calibration target must be positive")

    try:
        jobs = int(str(pick("jobs", min(os.cpu_count() or 1, 4))))
    except ValueError:
        raise ConfigError(f"bad jobs value {pick('jobs')!r}") from None
    if jobs < 1:
        raise ConfigError("jobs must be at least 1")

    scale = pick("lattice_scale")
    scale = None if scale is None else _fraction(scale, "lattice scale")
    if scale == 0:
        raise ConfigError("the lattice scale must be nonzero")

    ideal_choice = str(pick("lattice_ideal", "principal"))
    if ideal_choice != "principal":
        m = re.fullmatch(r"prime:(\d+)", ideal_choice)
        if not m:
            raise ConfigError(f"bad lattice ideal {ideal_choice!r} (use 'principal' or 'prime:p')")
        try:
            prime_form(disc, int(m.group(1)))
        except ValueError as e:
            raise ConfigError(f"bad lattice ideal {ideal_choice!r}: {e}") from None

    return RunConfig(
        verb=args.verb, disc=disc, xi=xi, alphas=alphas, tau=tau, fmt=fmt,
        tol=tol, calibration_alpha=calib, jobs=jobs,
        lattice_scale=scale, lattice_ideal=ideal_choice,
    )


# ---------------------------------------------------------------------------
# row computation (module level so a process pool can pickle the work items)

def _place_str(v):
    return "inf" if v == INF else str(v)


def _loglinear_row(alpha, diff, lhs, rhs, ok):
    lhs_cells, rhs_cells = lhs.to_json(), rhs.to_json()
    return {
        "alpha": str(alpha),
        "diff": [_place_str(v) for v in diff],
        "lhs_rational": lhs_cells["q0"],
        "lhs_logs": lhs_cells["logs"],
        "rhs_rational": rhs_cells["q0"],
        "rhs_logs": rhs_cells["logs"],
        "arch_lhs": float(lhs.resid) + 0.0,
        "arch_rhs": float(rhs.resid) + 0.0,
        "pass": bool(ok),
    }


def _verify_item(item):
    D, xi, alpha, tau, tol, calib = item
    diff = Collection(D, xi).diff_set(alpha)
    lhs = arithmetic_degree(D, xi, alpha, tau)
    rhs = eisenstein.derivative_coefficient(D, xi, alpha, tau, calib).scaled(
        -eisenstein.stack_mass(D)
    )
    if diff == [INF]:
        ok = abs(lhs.resid - rhs.resid) <= tol * max(1.0, abs(rhs.resid))
    else:
        ok = lhs == rhs
    return _loglinear_row(alpha, diff, lhs, rhs, ok)


def _sw_item(item):
    D, xi, alpha, calib = item
    lhs, rhs = eisenstein.siegel_weil_check(D, alpha, xi, calib)
    return {
        "alpha": str(alpha),
        "diff": [],
        "lhs_rational": str(lhs),
        "lhs_logs": {},
        "rhs_rational": str(rhs),
        "rhs_logs": {},
        "arch_lhs": 0.0,
        "arch_rhs": 0.0,
        "pass": lhs == rhs,
    }


def _shell_budget(form, alpha, p):
    """Largest shell index whose brute enumeration stays near 10^6 pairs."""
    slack = _form_slack(form, p)
    j = 0
    while p ** (2 * (j + 1 + slack)) <= 10**6 and j < max(0, val(alpha, p)) + 2:
        j += 1
    return j


def _density_item(item):
    lattice, alpha, places = item
    form = lattice.norm_form()
    rows = []
    for p in places:
        shells = shell_coefficients(form, alpha, p, jmax=_shell_budget(form, alpha, p))
        rows.append({
            "alpha": str(alpha),
            "place": str(p),
            "splitting": splitting_type(lattice.D, p),
            "central_value": str(central_value(lattice, alpha, p)),
            "shells": {str(j): str(c) for j, c in enumerate(shells)},
        })
    rows.append({
        "alpha": str(alpha),
        "place": "inf",
        "splitting": "arch",
        "central_value": str(arch_central_value(alpha)),
        "shells": {},
    })
    return rows


def _map_rows(fn, items, jobs):
    if jobs > 1 and len(items) >= 2 * jobs:
        chunk = max(1, len(items) // (8 * jobs))
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items, chunksize=chunk))
    return [fn(it) for it in items]


# ---------------------------------------------------------------------------
# runners

def _summary(rows):
    passed = sum(1 for r in rows if r.get("pass", True))
    return {"total": len(rows), "passed": passed, "failed": len(rows) - passed}


def _calibration_meta(config):
    alpha0, _, _ = eisenstein.calibration_point(config.disc, config.xi, config.calibration_alpha)
    kappa = eisenstein.kappa_sw(config.disc, config.xi, config.calibration_alpha)
    return {
        "discriminant": config.disc,
        "xi": str(config.xi),
        "calibration_alpha": str(alpha0),
        "kappa_sw": str(kappa),
        "stack_mass": str(eisenstein.stack_mass(config.disc)),
        "kappa_derivative": str(eisenstein.kappa_derivative(
            config.disc, config.xi, config.calibration_alpha)),
    }


def run_verify(config):
    """Main sweep: degree side against -(stack mass) * derivative, every
    target reported exactly once, in order."""
    meta = _calibration_meta(config)
    meta["tau"] = str(config.tau)
    meta["tolerance"] = config.tol
    items = [
        (config.disc, config.xi, a, config.tau, config.tol, config.calibration_alpha)
        for a in config.alphas
    ]
    rows = _map_rows(_verify_item, items, config.jobs)
    return Report("verify", meta, REPORT_COLUMNS, rows, _summary(rows))


def run_siegel_weil(config):
    """Coherent sweep: family representation counts against the density
    product, exact rationals on both sides."""
    meta = _calibration_meta(config)
    items = [(config.disc, config.xi, a, config.calibration_alpha) for a in config.alphas]
    rows = _map_rows(_sw_item, items, config.jobs)
    return Report("siegel-weil", meta, REPORT_COLUMNS, rows, _summary(rows))


def _density_lattice(config):
    D = config.disc
    scale = config.lattice_scale if config.lattice_scale is not None else config.xi
    if config.lattice_ideal == "principal":
        return Lattice.standard(D, scale)
    return Lattice(D, prime_form(D, int(config.lattice_ideal.split(":", 1)[1])), scale)


def run_densities(config):
    """Inspection dump: per target and place, the exact central value of the
    chosen lattice and the truncated shell coefficients."""
    lattice = _density_lattice(config)
    meta = {
        "discriminant": config.disc,
        "xi": str(config.xi),
        "lattice_scale": str(lattice.scale),
        "lattice_ideal": config.lattice_ideal,
        "form": [str(c) for c in lattice.norm_form()],
    }
    items = [
        (lattice, a, tuple(support_primes(2 * config.disc, a, lattice.scale)))
        for a in config.alphas
    ]
    chunks = _map_rows(_density_item, items, config.jobs)
    rows = [r for chunk in chunks for r in chunk]
    return Report("densities", meta, DENSITY_COLUMNS, rows, _summary(rows))


def run_calibrate(config):
    """The measured constant and everything that went into it."""
    D, xi = config.disc, config.xi
    alpha0, fam, prod = eisenstein.calibration_point(D, xi, config.calibration_alpha)
    neighbor = coherent_neighbor(D, xi, eisenstein.distinguished_flip_prime(D))
    pairs = [
        ("discriminant", str(D)),
        ("xi", str(xi)),
        ("flip_prime", str(neighbor.flip_place)),
        ("residue_degree", str(neighbor.f)),
        ("norm_uniformizer", str(neighbor.norm_unif)),
        ("calibration_alpha", str(alpha0)),
        ("family_count", str(fam)),
        ("density_product", str(prod)),
        ("kappa_sw", str(eisenstein.kappa_sw(D, xi, config.calibration_alpha))),
        ("stack_mass", str(eisenstein.stack_mass(D))),
        ("kappa_derivative", str(eisenstein.kappa_derivative(D, xi, config.calibration_alpha))),
    ]
    rows = [{"key": k, "value": v} for k, v in pairs]
    return Report("calibrate", {"discriminant": D, "xi": str(xi)},
                  ("key", "value"), rows, _summary(rows))


_RUNNERS = {
    "verify": run_verify,
    "siegel-weil": run_siegel_weil,
    "densities": run_densities,
    "calibrate": run_calibrate,
}


# ---------------------------------------------------------------------------
# serialization

def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ";".join(value)
    if isinstance(value, dict):
        return ";".join(f"{k}:{v}" for k, v in value.items())
    return str(value)


def emit(report, fmt):
    """Serialize a report deterministically; identical reports give
    byte-identical output."""
    if fmt == "json":
        return (json.dumps(report.to_json_obj(), indent=2) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(report.columns)
        for row in report.rows:
            writer.writerow([_cell(row[c]) for c in report.columns])
        return buf.getvalue().encode()
    if fmt == "text":
        cells = [[_cell(row[c]) or "-" for c in report.columns] for row in report.rows]
        widths = [
            max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
            for i, c in enumerate(report.columns)
        ]
        lines = ["# " + " ".join(f"{k}={v}" for k, v in report.meta.items())]
        lines.append("  ".join(c.ljust(w) for c, w in zip(report.columns, widths)).rstrip())
        for r in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        s = report.summary
        lines.append(f"# total={s['total']} passed={s['passed']} failed={s['failed']}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


def parse_report(data):
    """Inverse of emit(report, 'json')."""
    obj = json.loads(data)
    return Report(obj["verb"], obj["meta"], tuple(obj["columns"]), obj["rows"], obj["summary"])


# ---------------------------------------------------------------------------
# entry point

def _build_parser():
    ap = argparse.ArgumentParser(
        prog="siegelweil",
        description="verify central-value and central-derivative identities "
                    "for one-dimensional Hermitian lattices",
    )
    sub = ap.add_subparsers(dest="verb", required=True, metavar="|".join(VERBS))
    helps = {
        "verify": "sweep the arithmetic-degree identity",
        "siegel-weil": "sweep the coherent central-value identity",
        "densities": "dump local central values and shell coefficients",
        "calibrate": "print the measured constant and its provenance",
    }
    for verb in VERBS:
        sp = sub.add_parser(verb, help=helps[verb])
        # targets such as -50..50 or -5/2 must parse as option values, not flags
        sp._negative_number_matcher = re.compile(r"^-\d")
        sp.add_argument("config", nargs="?", help="flat key = value configuration file")
        sp.add_argument("--disc", type=int, help="negative fundamental discriminant")
        sp.add_argument("--xi", help="scale of the Hermitian form (default -1)")
        sp.add_argument("--alpha", help="targets: 'a..b' or comma list")
        sp.add_argument("--tau", help="imaginary part of the modular variable (default 1)")
        sp.add_argument("--format", dest="format", choices=FORMATS,
                        help="output format (default text)")
        sp.add_argument("--tol", type=float, help="archimedean tolerance (default 1e-6)")
        sp.add_argument("--calibration-alpha", dest="calibration_alpha",
                        help="measure the constant at this target instead of the smallest")
    return ap


def _calibration_candidates(D, xi, count=5):
    found = []
    for a in range(1, 200):
        try:
            eisenstein.calibration_point(D, xi, Fraction(a))
        except ArithmeticError:
            continue
        found.append(a)
        if len(found) == count:
            break
    return found


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        config = build_config(args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    try:
        report = _RUNNERS[config.verb](config)
    except ArithmeticError as e:
        print(f"error: {e}", file=sys.stderr)
        cands = _calibration_candidates(config.disc, config.xi)
        if cands:
            print(
                "candidate calibration targets: " + ", ".join(map(str, cands)),
                file=sys.stderr,
            )
        return 3
    except (AssertionError, InternalError) as e:
        print(f"internal error: {e!r}", file=sys.stderr)
        return 3
    sys.stdout.buffer.write(emit(report, config.fmt))
    sys.stdout.buffer.flush()
    return 0 if report.summary["failed"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
