"""Repeat the benchmark over several seeds and summarise the spread.

    python3 bench/sweep.py --workload NAME [--workload NAME ...]
                           [--seeds 1..10] [--seconds 40] [--out FILE]

Runs ``bench/run.py --trace 0`` once per seed and workload, one at a time,
and prints for every end-to-end metric the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
(q3 - q1) / median.  With --out the summary is written as JSON;
bench/baseline.json holds two such summaries, for seeds 1..10 and 11..20,
taken one after the other on the same code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH.parent, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    env = next((json.loads(ln[len("# env "):]) for ln in lines if ln.startswith("# env ")), {})
    return proc.returncode, result, env


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1..10", help="inclusive range a..b")
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split(".."))

    summary = {}
    for workload in args.workload:
        values, envs, ok = {}, [], True
        for seed in range(lo, hi + 1):
            code, result, env = run_once(workload, seed, args.seconds)
            ok = ok and code == 0 and result["correct"]
            envs.append(env)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed={seed} exit={code} correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary[workload] = {
            "all_correct": ok,
            "seeds": f"{lo}..{hi}",
            "metrics": {k: summarise(v) for k, v in values.items() if len(v) >= 2},
            "env": envs,
        }
        for name, s in summary[workload]["metrics"].items():
            print(f"  {workload} {name}: median={s['median']:.4g} q1={s['q1']:.4g} "
                  f"q3={s['q3']:.4g} spread={s['spread']:.3f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all(s["all_correct"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
