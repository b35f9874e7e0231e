"""Sensitivity check: a planted slowdown must show, the unmodified tree must not.

    python3 perfbench/sensitivity.py

Runs train-padded ``PAIRS`` times unmodified and ``PAIRS`` times with a
busy-wait of ``PLANT_MS`` inside every ``Adam.step``, alternating, each
pair on its own seed and each run ``run_seconds`` long (from
``BENCHMARK.json``), then one traced run of each.  It passes when

- the planted runs' median ``graphs_per_s`` and ``op_p50_ms`` are worse
  than the unmodified median by more than the bounds in
  ``BENCHMARK.json``;
- the traced ``nn.adam_ms`` grows by at least 80% of the planted time;
- the two halves of the unmodified runs (first and second half of the
  pairs) agree within those bounds on the same two metrics, so what
  the plant moved is not the host's own drift.

Agreement on every end-to-end metric is the job of the ten-run sets in
the README (``setup_s`` needs ten runs to settle on this host).

Exit code 0 on pass, 1 on fail.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from run import DEADLINE_S, ROOT, run_workload

#: unmodified/planted run pairs, and the busy-wait planted in Adam.step
PAIRS = 6
PLANT_MS = 4.0
#: the end-to-end metrics a slower Adam.step must move on train-padded
TIMED = ("graphs_per_s", "op_p50_ms")


def run(seed: int, seconds: float, trace: int, plant_ms: float) -> dict:
    result = run_workload("train-padded", seed, seconds, trace,
                          time.monotonic() + DEADLINE_S, plant_ms=plant_ms)
    return {key: m["value"] for key, m in result["metrics"].items()}


def worse(planted: float, base: float, better: str) -> float:
    """Relative change of ``planted`` against ``base``, positive = worse."""
    change = (planted - base) / base
    return -change if better == "higher" else change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    plain, planted = [], []
    for pair in range(PAIRS):
        seed = 100 + pair
        order = [(plain, 0.0), (planted, PLANT_MS)]
        for runs, plant_ms in order if pair % 2 == 0 else order[::-1]:
            runs.append(run(seed, seconds, 0, plant_ms))
    failures = []
    for name in TIMED:
        base = statistics.median(r[name] for r in plain)
        slow = statistics.median(r[name] for r in planted)
        change = worse(slow, base, metrics[name]["better"])
        verdict = "caught" if change > metrics[name]["bound"] else "MISSED"
        print(f"planted {PLANT_MS} ms: {name} {base:.4g} -> {slow:.4g} "
              f"({change:+.1%} worse, bound {metrics[name]['bound']:.0%}) {verdict}")
        if verdict != "caught":
            failures.append(name)

    traced_plain = run(100, seconds, 1, 0.0)["nn.adam_ms"]
    traced_slow = run(100, seconds, 1, PLANT_MS)["nn.adam_ms"]
    grew = traced_slow - traced_plain
    print(f"traced nn.adam_ms {traced_plain:.3f} -> {traced_slow:.3f} ms "
          f"(+{grew:.3f} ms for {PLANT_MS} ms planted)")
    if grew < 0.8 * PLANT_MS:
        failures.append("nn.adam_ms")

    half = len(plain) // 2
    for name in TIMED:
        metric = metrics[name]
        first = statistics.median(r[name] for r in plain[:half])
        second = statistics.median(r[name] for r in plain[half:])
        drift = worse(second, first, metric["better"])
        ok = abs(drift) <= metric["bound"]
        print(f"unmodified {name}: {first:.4g} vs {second:.4g} "
              f"({drift:+.1%}, bound {metric['bound']:.0%}) {'ok' if ok else 'OUT'}")
        if not ok:
            failures.append(f"unmodified {name}")
    if failures:
        print(f"sensitivity check failed: {failures}")
        return 1
    print("sensitivity check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
