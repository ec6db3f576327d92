"""Check that one benchmark run ended in a well-formed result line.

    python3 perfbench/run.py --workload W --seed 0 --seconds 4 --trace T \
        | python3 tests/check_bench_output.py --trace T

Reads the run's output on stdin and checks its last non-empty line: valid
JSON without NaN or Infinity, `correct` true, `failed` 0, and exactly the
metric names (with their units) that BENCHMARK.json lists, its
`end_to_end` metrics for --trace 0 and its `per_layer` metrics for
--trace 1. A tracer site that was renamed or moved drops its metrics and
fails the check. Exits 1 and says why on failure. Not a pytest module.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _no_constant(name: str):
    raise ValueError(f"non-finite value {name}")


def problems(line: str, trace: int) -> list[str]:
    """What is wrong with the result line `line` of a --trace `trace` run."""
    try:
        result = json.loads(line, parse_constant=_no_constant)
    except ValueError as exc:
        return [f"last line is not a result: {exc}"]
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        return ["last line holds no metrics object"]
    found = []
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}")
    if result.get("failed") != 0:
        found.append(f"failed is {result.get('failed')!r}")
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    for name in sorted(want.keys() - got.keys()):
        found.append(f"missing metric {name}")
    for name in sorted(got.keys() - want.keys()):
        found.append(f"unexpected metric {name}")
    for name in sorted(want.keys() & got.keys()):
        metric = got[name]
        value = metric.get("value") if isinstance(metric, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"{name} has no finite value: {metric!r}")
        elif metric.get("unit") != want[name]:
            found.append(f"{name} is in {metric.get('unit')!r}, not {want[name]!r}")
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
    found = problems(lines[-1], args.trace) if lines else ["the run printed nothing"]
    for problem in found:
        print(f"bad benchmark output: {problem}", file=sys.stderr)
    if not found:
        print(f"ok: {len(json.loads(lines[-1])['metrics'])} metrics")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
