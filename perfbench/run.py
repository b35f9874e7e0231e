"""Benchmark entry point: HAP training, the Table-3 path, streaming and serving.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # all five workloads, seed 0

Every workload runs in fresh worker processes (``worker.py``) with
BLAS pools capped at one thread.  ``setup_s`` is the median over
``SETUP_SAMPLES`` processes: ``SETUP_SAMPLES - 1`` that only set up,
then the one that also runs the timed phase and the output checks.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 1``
reports the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layertrace import PER_LAYER  # noqa: E402

WORKLOADS = ("train-padded", "train-sparse", "train-stream", "table3-cell", "serve-mixed")
END_TO_END = {
    "setup_s": "s",
    "graphs_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 5
#: a run must end within this many seconds of its start
DEADLINE_S = 170.0
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion; its last line as JSON."""
    env = dict(os.environ, **THREAD_ENV)
    command = [sys.executable, str(HERE / "worker.py"), *args, "--spawned"]
    command.append(repr(time.monotonic()))
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} passed the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 deadline: float, plant_ms: float = 0.0) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--plant-ms", str(plant_ms)]
    units = PER_LAYER if trace else END_TO_END
    setups = [] if trace else [
        spawn(base + ["--setup-only"], deadline)["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    result = spawn(base, deadline)
    metrics = dict(result["metrics"])
    if not trace:
        metrics["setup_s"] = statistics.median(setups + [result["setup_s"]])
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"{name}: no value for {sorted(missing)}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            key: {"value": float(metrics[key]), "unit": unit}
            for key, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # Byte-compile once, so no run pays for it inside setup_s.
    compileall.compile_dir(ROOT / "src" / "repro", quiet=2)
    compileall.compile_dir(HERE, quiet=2)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    started = time.monotonic()
    results = {}
    try:
        for name in names:
            deadline = (started if len(names) == 1 else time.monotonic()) + DEADLINE_S
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) > 1:
        for name, result in results.items():
            print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
            for key, metric in result["metrics"].items():
                print(f"  {key:30s} {metric['value']:14.4f} {metric['unit']}")
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{key}": metric for name, result in results.items()
                        for key, metric in result["metrics"].items()},
        }
        print(json.dumps(summary))
    else:
        print(json.dumps(results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
