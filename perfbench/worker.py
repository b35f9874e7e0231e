"""One workload in one fresh process.

Started by ``run.py`` with the monotonic time of the spawn, so
``setup_s`` covers interpreter start, imports, data, model, lazy
preparation and warm-up.  Prints one JSON object on its last line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --spawned T [--setup-only] [--plant-ms MS]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def peak_rss_mb() -> float:
    """VmHWM of this process, in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def plant_slowdown(milliseconds: float) -> None:
    """Busy-wait ``milliseconds`` inside every ``Adam.step`` call (the
    sensitivity check's planted regression)."""
    from repro.nn.optim import Adam

    original = Adam.step

    def slow_step(self, *args, **kwargs):
        until = time.perf_counter() + milliseconds / 1e3
        while time.perf_counter() < until:
            pass
        return original(self, *args, **kwargs)

    Adam.step = slow_step


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--plant-ms", type=float, default=0.0)
    args = parser.parse_args(argv)

    from layertrace import LayerTracer, layer_metrics
    from workloads import WORKLOADS, Budget

    if args.plant_ms > 0:
        plant_slowdown(args.plant_ms)
    workload = WORKLOADS[args.workload](args.seed)
    try:
        generate_s = workload.setup(ROOT)
        setup_s = time.monotonic() - args.spawned
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        budget = Budget(args.seconds, LayerTracer() if args.trace else None)
        workload.run(budget)
        # Read before the checks, so the peak covers the program's own
        # work and not the benchmark's reference computations.
        rss_mb = peak_rss_mb()
        checks = workload.check()
    finally:
        workload.close()

    failed = [name for name, ok in checks if not ok]
    for name in sorted(set(failed)):
        print(f"check failed: {name} x{failed.count(name)}", file=sys.stderr)
    ops = sum(len(seg.op_s) for seg in budget.segments)
    attempted = len(checks) if workload.checks_are_ops else ops + len(checks)
    if args.trace:
        plain, traced = budget.segments
        metrics = layer_metrics(budget.tracer, traced)
        if not metrics["data.generate_s"]:
            metrics["data.generate_s"] = generate_s
        metrics["trace.overhead"] = (
            (plain.work / plain.wall_s) / (traced.work / traced.wall_s) - 1.0
        )
    else:
        (seg,) = budget.segments
        metrics = {
            "graphs_per_s": seg.work / seg.wall_s,
            "op_p50_ms": 1e3 * statistics.median(seg.op_s),
            "peak_rss_mb": rss_mb,
        }
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "attempted": attempted,
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
