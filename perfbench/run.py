"""Benchmark runner for the switch-level timing reproduction.

One run::

    python3 perfbench/run.py --workload sweep-rca32-full --seed 1 \\
        --seconds 8 --trace 0

measures one workload for ``--seconds`` seconds, checks the program's
outputs, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
taken from spans the runner records around the program's public calls,
and a Chrome ``trace_event`` file is written under ``perfbench/out/``.

Steadiness report (two sets of runs of the same code)::

    python3 perfbench/run.py --steadiness --seed 100

Run it from the root of a checkout; the program is imported from
``src/``.  See ``perfbench/README.md`` for the workloads, the metric
definitions and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
#: Untraced runs per set in steadiness mode.
RUNS_PER_SET = 5


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from workloads import WORKLOADS, Context

    spec = load_spec()
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    ctx = Context(root=ROOT, workload=args.workload, seed=args.seed,
                  seconds=float(args.seconds), traced=traced)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {int(traced)}", flush=True)
    outcome = WORKLOADS[args.workload](ctx)

    for note in outcome.notes:
        print(note)
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    metrics: Dict[str, dict] = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name in outcome.metrics:
            value, measured_unit = outcome.metrics[name]
            if measured_unit != unit:
                raise RuntimeError(f"{name}: measured in {measured_unit}, "
                                   f"declared in {unit}")
        elif traced:
            value = 0.0  # the layer is not on this workload's path
        else:
            raise RuntimeError(f"end-to-end metric {name} was not measured")
        metrics[name] = {"value": value, "unit": unit}
    if traced:
        from common import format_layer_table

        print(format_layer_table(ctx.spans))
        path = os.path.join(OUT_DIR,
                            f"{args.workload}-seed{args.seed}.trace.json")
        count = ctx.spans.write_chrome_trace(path, args.workload, args.seed)
        print(f"trace: {count} event(s) written to "
              f"{os.path.relpath(path, ROOT)}")
        print("exact counts: " + json.dumps(outcome.exact, sort_keys=True))
    print(json.dumps({"correct": outcome.correct and outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# Steadiness report
# ---------------------------------------------------------------------------

def _child_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    elapsed = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed "
                           f"({proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = elapsed
    for line in lines:
        if line.startswith("exact counts: "):
            result["exact"] = json.loads(line[len("exact counts: "):])
    return result


def steadiness(args: argparse.Namespace) -> int:
    """Two sets of runs of the same code; for each (workload, metric)
    each set's median, quartiles and spread against the metric's bound.

    Untraced runs use a fresh seed each; one traced run per set uses the
    base seed, and its exact per-layer counts must agree between sets.
    """
    sys.path.insert(0, HERE)
    from common import quartiles

    spec = load_spec()
    seconds = spec["run_seconds"]
    ok = True
    report = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        sets: List[List[dict]] = [[], []]
        exact: List[dict] = []
        for which in (0, 1):
            for run in range(RUNS_PER_SET):
                seed = args.seed + which * RUNS_PER_SET + run
                sets[which].append(_child_run(workload, seed, seconds, 0))
            exact.append(_child_run(workload, args.seed, seconds,
                                    1).get("exact", {}))
        walls = [r["wall_s"] for s in sets for r in s]
        print(f"\n== {workload}: 2 sets x {RUNS_PER_SET} runs, "
              f"{seconds} s each; a run took {min(walls):.1f}-"
              f"{max(walls):.1f} s")
        print(f"{'metric':<20s} {'set':>3s} {'median':>11s} {'q1':>11s} "
              f"{'q3':>11s} {'spread':>7s} {'bound':>6s}")
        failed = sum(r["failed"] for s in sets for r in s)
        attempted = sum(r["attempted"] for s in sets for r in s)
        if failed or not all(r["correct"] for s in sets for r in s):
            ok = False
            print(f"FAIL: {failed} of {attempted} ops failed or incorrect")
        report[workload] = {}
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            medians = []
            for which in (0, 1):
                values = [r["metrics"][name]["value"] for r in sets[which]]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else 0.0
                medians.append(med)
                verdict = "" if spread <= bound else "  SPREAD>BOUND"
                ok = ok and not verdict
                print(f"{name:<20s} {'AB'[which]:>3s} {med:>11.4f} "
                      f"{q1:>11.4f} {q3:>11.4f} {100 * spread:>6.1f}% "
                      f"{100 * bound:>5.0f}%{verdict}")
            every = [r["metrics"][name]["value"] for s in sets for r in s]
            q1, med, q3 = quartiles(every)
            worse = (medians[1] - medians[0]) / medians[0] \
                if medians[0] else 0.0
            if entry["better"] == "higher":
                worse = -worse
            shift_bad = worse > bound
            ok = ok and not shift_bad
            print(f"{'':<20s} all {med:>11.4f} {q1:>11.4f} {q3:>11.4f} "
                  f"{100 * (q3 - q1) / med if med else 0.0:>6.1f}%  "
                  f"B vs A {100 * worse:+.1f}%"
                  f"{'  SHIFT>BOUND' if shift_bad else ''}")
            report[workload][name] = {"A": medians[0], "B": medians[1],
                                      "spread_all": (q3 - q1) / med
                                      if med else 0.0}
        if exact[0] != exact[1]:
            ok = False
            diff = {k: (exact[0].get(k), exact[1].get(k))
                    for k in set(exact[0]) | set(exact[1])
                    if exact[0].get(k) != exact[1].get(k)}
            print(f"FAIL: exact counts differ between sets: {diff}")
        else:
            print(f"exact counts identical between sets "
                  f"({len(exact[0])} counters, seed {args.seed})")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "steadiness.json"), "w") as handle:
        json.dump(report, handle, indent=1)
    print("\nsteadiness: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help="run two sets of runs and report each "
                             "metric's medians, quartiles and bound")
    args = parser.parse_args(argv)
    if args.steadiness:
        return steadiness(args)
    if not args.workload or args.seconds is None:
        parser.error("--workload and --seconds are required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
