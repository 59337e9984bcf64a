"""One library pass of a benchmark workload, in a fresh interpreter.

    python3 bench/libpass.py SPEC.json OUT.json [SPANS.tsv.gz]

SPEC.json names the package source directory, the verb, the discriminant,
the targets and the sweep settings.  The pass repeats the steps of
``cli.run_verify`` / ``cli.run_siegel_weil`` through the public functions of
``siegelweil.*``, in the same order and with every cache cold:

    set-up   import, calibration (kappa_sw), then the coherent neighbour of
             every single finite bad place of the targets (verify only);
    rows     one target at a time, each timed on its own; with
             ``"sweeps": k`` in the spec, k - 1 extra row sweeps run first,
             each in a forked copy of the process as set-up left it;
    report   the same text report the CLI prints, through ``cli.emit``.

With a third argument the pass is traced: every function in LAYERS is
replaced, in every module namespace that holds it, by a wrapper recording a
span per call, and the spans are written to that file at the end.  OUT.json
receives the timings, the rendered report, the computed pickle sizes of the
pool traffic and, when traced, the per-layer counts and self times.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import pickle
import sys
import time
import traceback
import types
from fractions import Fraction

from tracer import REPORT_ROW, Tracer

MODULES = ("field", "hermitian", "localwhittaker", "archwhittaker", "eisenstein", "cycles", "cli")

# (module, attribute path) of every traced function; a dotted path is a
# method wrapped on its class.
LAYERS = (
    ("field", "hilbert_symbol"),
    ("field", "binary_form_count"),
    ("field", "binary_form_count_fast"),
    ("field", "class_group"),
    ("hermitian", "coherent_neighbor"),
    ("hermitian", "local_class_key"),
    ("hermitian", "Collection.diff_set"),
    ("hermitian", "Lattice.vectors"),
    ("localwhittaker", "local_density"),
    ("localwhittaker", "central_value"),
    ("localwhittaker", "central_derivative"),
    ("cycles", "divisibility_depth"),
    ("cycles", "arithmetic_degree"),
    ("eisenstein", "kappa_sw"),
    ("eisenstein", "derivative_coefficient"),
    ("eisenstein", "siegel_weil_check"),
    ("archwhittaker", "exp_integral_e1"),
    ("cli", "emit"),
)

# layers whose time is split by phase; "bench" is this file's own code
PHASE_LAYERS = ("field", "hermitian", "localwhittaker", "archwhittaker", "eisenstein", "cycles", "bench")


def _install(tracer, pkg, mods):
    """Wrap every LAYERS function; returns the counters its observers fill."""
    counters = {"distinct_density_keys": set(), "vector_points": 0, "emit_bytes": 0}

    def density_key(args, result):
        form, alpha, p = args
        counters["distinct_density_keys"].add(
            (tuple(Fraction(x) for x in form), Fraction(alpha), p))

    def vector_points(args, result):
        counters["vector_points"] += len(result)

    def emit_bytes(args, result):
        counters["emit_bytes"] += len(result)

    observers = {
        "localwhittaker.local_density": density_key,
        "hermitian.Lattice.vectors": vector_points,
        "cli.emit": emit_bytes,
    }
    namespaces = [pkg] + list(mods.values())
    for mod_name, attr in LAYERS:
        name = f"{mod_name}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mods[mod_name], cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), observers.get(name)))
            continue
        orig = getattr(mods[mod_name], attr)
        wrapped = tracer.wrap(name, orig, observers.get(name))
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, key, wrapped)
    return counters


def _loglinear_cells(x):
    return str(x.q0), {str(p): str(c) for p, c in sorted(x.logs.items())}, float(x.resid) + 0.0


def _verify_row(m, D, xi, alpha, tau, tol, calib):
    INF = m.field.INF
    diff = m.hermitian.Collection(D, xi).diff_set(alpha)
    lhs = m.cycles.arithmetic_degree(D, xi, alpha, tau)
    rhs = m.eisenstein.derivative_coefficient(D, xi, alpha, tau, calib).scaled(
        -m.eisenstein.stack_mass(D))
    if diff == [INF]:
        ok = abs(lhs.resid - rhs.resid) <= tol * max(1.0, abs(rhs.resid))
    else:
        ok = lhs == rhs
    lq, ll, lr = _loglinear_cells(lhs)
    rq, rl, rr = _loglinear_cells(rhs)
    return {
        "alpha": str(alpha), "diff": ["inf" if v == INF else str(v) for v in diff],
        "lhs_rational": lq, "lhs_logs": ll, "rhs_rational": rq, "rhs_logs": rl,
        "arch_lhs": lr, "arch_rhs": rr, "pass": bool(ok),
    }


def _sw_row(m, D, xi, alpha, calib):
    lhs, rhs = m.eisenstein.siegel_weil_check(D, alpha, xi, calib)
    return {
        "alpha": str(alpha), "diff": [],
        "lhs_rational": str(lhs), "lhs_logs": {}, "rhs_rational": str(rhs), "rhs_logs": {},
        "arch_lhs": 0.0, "arch_rhs": 0.0, "pass": lhs == rhs,
    }


_PHASE_OF_ROOT = {
    "bench.import": "setup", "bench.setup": "setup", "bench.row": "rows", "bench.report": "report",
}


def _layer_metrics(tracer, counters, neighbor_cache_info):
    own = tracer.self_times()
    root = tracer.roots()
    names = tracer.names
    calls, self_s = {}, {}
    phase_self = {}
    for i in range(len(tracer)):
        name = names[tracer.name_of[i]]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i]
        phase = _PHASE_OF_ROOT[names[tracer.name_of[root[i]]]]
        key = (phase, name.split(".")[0])
        phase_self[key] = phase_self.get(key, 0.0) + own[i]

    out = {}
    for mod_name, attr in LAYERS:
        name = f"{mod_name}.{attr}"
        if name not in ("eisenstein.kappa_sw", "cli.emit"):
            out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["hermitian.coherent_neighbor.misses"] = neighbor_cache_info.misses
    out["hermitian.coherent_neighbor.total_s"] = sum(
        tracer.end[i] - tracer.start[i] for i in range(len(tracer))
        if names[tracer.name_of[i]] == "hermitian.coherent_neighbor")
    out["hermitian.Lattice.vectors.points"] = counters["vector_points"]
    out["localwhittaker.local_density.distinct"] = len(counters["distinct_density_keys"])
    out["cli.emit.bytes"] = counters["emit_bytes"]
    for phase in ("setup", "rows"):
        for layer in PHASE_LAYERS:
            out[f"{phase}.{layer}.self_s"] = phase_self.get((phase, layer), 0.0)
    out["setup.total_s"] = sum(v for (ph, _), v in phase_self.items() if ph == "setup")
    out["rows.total_s"] = sum(v for (ph, _), v in phase_self.items() if ph == "rows")
    out["trace.spans"] = len(tracer)
    out["trace.self_sum_s"] = float(sum(own))
    return out


def _in_child(fn):
    """fn() evaluated in a forked copy of this process; its result comes
    back pickled through a pipe."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        code = 0
        try:
            with os.fdopen(w, "wb") as fh:
                pickle.dump(fn(), fh)
        except BaseException:
            traceback.print_exc()
            code = 1
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("a forked row sweep failed")
    return pickle.loads(data)


def run(spec, spans_path=None):
    tracer = Tracer() if spans_path else None
    block = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    sys.path.insert(0, spec["src"])

    t_pass = time.perf_counter()
    with block("bench.import"):
        pkg = importlib.import_module("siegelweil")
        mods = {name: importlib.import_module(f"siegelweil.{name}") for name in MODULES}
    m = types.SimpleNamespace(**mods)
    neighbor_cache_info = mods["hermitian"].coherent_neighbor.cache_info
    counters = _install(tracer, pkg, mods) if tracer is not None else None

    D, xi = spec["disc"], Fraction(spec["xi"])
    alphas = [Fraction(a) for a in spec["alphas"]]
    tau, tol = Fraction(spec["tau"]), spec["tol"]
    calib = None
    verb = spec["verb"]

    with block("bench.setup"):
        m.eisenstein.kappa_sw(D, xi, calib)
        if verb == "verify":
            coll = m.hermitian.Collection(D, xi)
            for a in alphas:
                diff = coll.diff_set(a)
                if len(diff) == 1 and diff[0] != m.field.INF:
                    m.hermitian.coherent_neighbor(D, xi, diff[0])
    setup_s = time.perf_counter() - t_pass

    def sweep():
        rows, row_ms = [], []
        for i, a in enumerate(alphas):
            if tracer is not None:
                tracer.row = i
            t = time.perf_counter()
            with block("bench.row"):
                if verb == "verify":
                    row = _verify_row(m, D, xi, a, tau, tol, calib)
                else:
                    row = _sw_row(m, D, xi, a, calib)
            row_ms.append((time.perf_counter() - t) * 1e3)
            rows.append(row)
        return rows, row_ms

    # extra sweeps start from the state set-up left, as the CLI's forked
    # pool workers do
    extra = [_in_child(sweep) for _ in range(spec.get("sweeps", 1) - 1)]

    t_rows = time.perf_counter()
    rows, row_ms = sweep()
    rows_s = time.perf_counter() - t_rows

    if tracer is not None:
        tracer.row = REPORT_ROW
    t_report = time.perf_counter()
    with block("bench.report"):
        alpha0, _, _ = m.eisenstein.calibration_point(D, xi, calib)
        meta = {
            "discriminant": D,
            "xi": str(xi),
            "calibration_alpha": str(alpha0),
            "kappa_sw": str(m.eisenstein.kappa_sw(D, xi, calib)),
            "stack_mass": str(m.eisenstein.stack_mass(D)),
            "kappa_derivative": str(m.eisenstein.kappa_derivative(D, xi, calib)),
        }
        if verb == "verify":
            meta["tau"] = str(tau)
            meta["tolerance"] = tol
        passed = sum(1 for r in rows if r["pass"])
        summary = {"total": len(rows), "passed": passed, "failed": len(rows) - passed}
        report = m.cli.Report(verb, meta, m.cli.REPORT_COLUMNS, rows, summary)
        text = m.cli.emit(report, "text")
    pass_s = setup_s + rows_s + (time.perf_counter() - t_report)

    if verb == "verify":
        items = [(D, xi, a, tau, tol, calib) for a in alphas]
    else:
        items = [(D, xi, a, calib) for a in alphas]
    out = {
        "package": pkg.__file__,
        "setup_s": setup_s,
        "pass_s": pass_s,
        "sweep_s": rows_s,
        "row_ms": row_ms + [ms for _, sweep_ms in extra for ms in sweep_ms],
        "sweeps_agree": all(sweep_rows == rows for sweep_rows, _ in extra),
        "report": text.decode(),
        "item_bytes": sum(len(pickle.dumps(it)) for it in items),
        "result_bytes": sum(len(pickle.dumps(r)) for r in rows),
    }
    if tracer is not None:
        out["layers"] = _layer_metrics(tracer, counters, neighbor_cache_info())
        tracer.write(spans_path)
    return out


def main(argv):
    if len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    out = run(spec, argv[3] if len(argv) == 4 else None)
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
