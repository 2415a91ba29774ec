"""The repository's benchmark: the plan service, the multi-user planner, the fleet.

Run from the root of a checkout::

    python3 perfbench/run.py --workload http-cold --seed 1 --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``http-cold``   — closed loop, 2 connections, every request a distinct
  ~250-function NETGEN app against ``python -m repro serve-http``;
* ``system-plan`` — in-process closed loop of ``plan_system`` over
  shared-channel multi-user systems (Algorithm 2);
* ``fleet-admit`` — in-process stream of SLA admissions into a 4-server
  fleet, with periodic ``tick()`` and proactive ``rebalance()``.

The in-process workloads run every input once per round, for whole
rounds and at least three; an op's latency is the median of its
repeats.  HTTP requests are never repeated (a repeat would hit the
cache), so each counts once.  ``ops_per_s`` is the median over rounds
(32 requests over HTTP).

Latencies and rates are reported at a reference host speed.  Between
ops, with the program idle (between rounds over HTTP), the benchmark
times a fixed pure-Python loop, and scales each time by 2 ms over what
that loop took around it (``harness.HostSpeed``; for a program in
another process, on every CPU in turn).  A shared host's speed drifts
between runs by more than the bounds; the loop drifts with it, and the
program cannot move it.  ``setup_s`` is the median of 5 launches
after an untimed one, unscaled.

``--trace 0`` measures untraced and prints every end-to-end metric;
``--trace 1`` runs the same measurement, then runs a prefix of the ops
again with spans around the program's calls into each layer (see
``replay.py``), prints every per-layer metric and writes a Chrome-trace
JSON file (open it in Perfetto) under ``.perfbench_out/``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Metric names and units come from
``BENCHMARK.json``; a per-layer metric whose layer the workload does not
exercise reads 0 and is marked ``n/a`` in the table above the JSON.

Seeds 1-1000 are for tuning and regression runs; seed 9001 is held out
for confirming a claimed gain on inputs it was not tuned on.

Run the benchmark's own tests with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=["http-cold", "system-plan", "fleet-admit"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    # A process a non-interactive shell starts in the background ignores
    # SIGINT; the servers it starts would inherit that and ignore the
    # SIGINT that stops them.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    outcome = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.seconds, bool(args.trace))
    measured = outcome.layers if args.trace else outcome.metrics
    unknown = sorted(set(measured) - {metric["name"] for metric in declared})
    if unknown:
        outcome.problems.append(f"metrics missing from BENCHMARK.json: {unknown}")

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        value = measured.get(name)
        if value is None and not args.trace:
            outcome.problems.append(f"end-to-end metric {name} was not measured")
        metrics[name] = {"value": 0.0 if value is None else value, "unit": unit}
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {shown:>14s} {unit}")
    for note in outcome.notes:
        print(f"  note: {note}")
    if outcome.tracer is not None:
        path = ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        outcome.tracer.write_chrome_trace(path)
        print(f"  trace: {path.relative_to(ROOT)} ({len(outcome.tracer.spans)} spans)")
    correct = outcome.failed == 0 and not outcome.problems
    for problem in outcome.problems:
        print(f"  problem: {problem}")
    print(f"  correct: {correct} ({outcome.failed} of {outcome.attempted} ops failed)")
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
