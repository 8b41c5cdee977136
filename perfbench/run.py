"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload oltp-sql --seed 1 --seconds 10 --trace 0

Workloads: ``oltp-sql``, ``olap-plans``, ``proc-mixed``, ``fit`` (see
``perfbench/README.md``).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Human-readable lines (host fingerprint, checks, metrics)
come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
copy of the full record, and the traced run's spans, are written under
``.perfbench-out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["oltp-sql", "olap-plans", "proc-mixed", "fit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every pool (the benchmark's tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    for path in (src, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import harness, workloads

    started = time.time()
    host = harness.host_fingerprint()
    calib_ms = harness.calibration_ms()
    host["calib_ms"] = round(calib_ms, 4)
    print("host " + json.dumps(host, sort_keys=True), flush=True)

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(OUT_DIR, stem + "-spans.json") if args.trace else None
    try:
        result = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            size=args.size, spans_path=spans_path,
        )
    finally:
        stray = harness.stop_children()
    # A child still running after the workload closed its tiers is a
    # leak of the program's: it was killed above, and it counts here.
    result.check("no_stray_processes", 1, int(bool(stray)))
    if stray:
        result.errors.append(f"killed stray child processes {stray}")
    if args.trace:
        result.metrics["host.calib_ms"] = calib_ms
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    metrics = {
        name: {"value": float(result.metrics[name]), "unit": unit}
        for name, unit in units.items()
    }
    error_rate = result.failed / result.attempted if result.attempted else 1.0

    for error in result.errors:
        print(error, file=sys.stderr)
    for name, (attempted, failed) in sorted(result.checks.items()):
        print(f"check {name}: {attempted - failed}/{attempted} ok")
    for name, value in sorted(result.info.items()):
        print(f"info {name}: {json.dumps(value)}")
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"metric error_rate = {error_rate:.6g} ratio "
          f"({result.failed} failed of {result.attempted} attempted)")

    summary = {
        "correct": result.failed == 0,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }
    record = dict(summary, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, size=args.size,
                  host=host, error_rate=error_rate, checks=result.checks,
                  info=result.info, wall_s=time.time() - started)
    with open(os.path.join(OUT_DIR, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
