"""ponziscan benchmark: one workload, one seed, fresh worker processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory. Each worker is a fresh process, so import costs and the
peak-RSS high-water mark belong to one workload. Workers run one at a time.

--trace 0 runs set-up-only and measuring processes in turn (set-up,
measure, set-up, measure, set-up), so that the set-up samples and the timed
pieces are spread over the whole run, and prints the end-to-end metrics
(see BENCHMARK.json):
  setup_s       median over the five processes of the time from interpreter
                start to the end of set-up: imports, input generation, the
                vocabulary, and either encoding the pretrain inputs
                (train_small) or saving and loading the checkpoint
                (scan_flattened).
  peak_rss_mb   the larger ru_maxrss of the two measuring processes.
  items_per_s   the workload's items through one full cycle per second:
                pretrain plus finetune samples (train_small), contracts
                scored by evaluate plus predict_one (scan_flattened). Each
                phase of a cycle is timed in equal pieces (one call into
                the program each) and counted as pieces x the 10th
                percentile piece over the run (see _low).
--trace 1 runs one cycle untraced and one traced, and prints the per-layer
  metrics of the traced one; spans go to perfbench/out/.

The line before the final JSON line records the environment and the
workload's named metrics (per-phase throughput, predict latency
percentiles, failed_share), each with its unit and direction.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_small", "scan_flattened")
MEASURE_RUNS = 2      # measuring processes, each given an equal share of --seconds
BLAS_THREADS = 1      # pinned; the per-sample matrices are too small to share
DEADLINE_S = 170.0    # the whole run, all workers included


class WorkerFailed(RuntimeError):
    pass


def _worker_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _run_worker(args: list[str], env: dict[str, str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise WorkerFailed(f"worker {args} printed no result:\n{proc.stderr[-4000:]}") from exc


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _low(values: list[float]) -> float:
    """10th percentile. This machine switches between a fast and a slow
    state (about 1.5x apart) for seconds at a time, and the share of time
    spent in each varies from run to run, so the median piece jumps between
    the two levels; the fastest tenth of the pieces tracks the fast state
    whenever a run sees it at all."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def _phase_seconds(cycles: list[dict]) -> dict[str, float]:
    """Each phase's time per cycle: pieces per cycle times the low piece
    time over all the run's pieces of that phase."""
    out = {}
    for phase in cycles[0]["pieces"]:
        pooled = [t for c in cycles for t in c["pieces"][phase]]
        out[phase] = len(cycles[0]["pieces"][phase]) * _low(pooled)
    return out


def _items_per_s(cycles: list[dict]) -> float:
    return cycles[0]["items"] / sum(_phase_seconds(cycles).values())


def _named(workload: str, cycles: list[dict]) -> dict[str, tuple[float, str, str]]:
    """The workload's own metrics: name -> (value, unit, better)."""
    phase_s = _phase_seconds(cycles)

    def rate(phase: str) -> float:
        return cycles[0]["phase_items"][phase] / phase_s[phase]

    out: dict[str, tuple[float, str, str]] = {}
    if workload == "train_small":
        out["pretrain_samples_per_s"] = (rate("pretrain"), "1/s", "higher")
        out["finetune_samples_per_s"] = (rate("finetune"), "1/s", "higher")
    else:
        out["scan_contracts_per_s"] = (rate("evaluate"), "1/s", "higher")
        latencies = [1e3 * t for c in cycles for t in c["pieces"]["predict_one"]]
        out["predict_p50_ms"] = (statistics.median(latencies), "ms", "lower")
        out["predict_p90_ms"] = (_percentile(latencies, 90), "ms", "lower")
        out["predict_samples"] = (len(latencies), "count", "higher")
    return out


def _untraced(workload: str, seed: int, seconds: float, env: dict, deadline: float):
    common = ["--workload", workload, "--seed", str(seed)]
    measure = common + ["--mode", "measure", "--seconds", str(seconds / MEASURE_RUNS)]
    setups = [_run_worker(common + ["--mode", "setup"], env, deadline)["setup_s"]]
    runs = []
    for _ in range(MEASURE_RUNS):
        runs.append(_run_worker(measure, env, deadline))
        setups += [runs[-1]["setup_s"],
                   _run_worker(common + ["--mode", "setup"], env, deadline)["setup_s"]]
    cycles = [c for run in runs for c in run["cycles"]]
    total = {"attempted": sum(r["attempted"] for r in runs),
             "failed": sum(r["failed"] for r in runs), "environment": runs[0]["environment"]}
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(max(r["peak_rss_mb"] for r in runs), "MB"),
        "items_per_s": _metric(_items_per_s(cycles), "1/s"),
    }
    named = {name: {"value": v, "unit": u, "better": b}
             for name, (v, u, b) in _named(workload, cycles).items()}
    named["failed_share"] = {"value": total["failed"] / total["attempted"],
                             "unit": "ratio", "better": "lower"}
    for name in ("setup_s", "peak_rss_mb", "items_per_s"):
        named[name] = dict(metrics[name], better="higher" if name == "items_per_s" else "lower")
    info = {"cycles": len(cycles), "setup_samples_s": setups, "named": named}
    return total, metrics, info


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_kb"):
        return "KB"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def _traced(workload: str, seed: int, env: dict, deadline: float):
    common = ["--workload", workload, "--seed", str(seed)]
    plain = _run_worker(common + ["--mode", "once"], env, deadline)
    trace_out = HERE / "out" / f"trace_{workload}_seed{seed}.json"
    traced = _run_worker(common + ["--mode", "trace", "--trace-out", str(trace_out)],
                         env, deadline)
    layers = dict(traced["layers"])
    layers["trace.overhead_share"] = traced["region_s"] / plain["region_s"] - 1.0
    metrics = {name: _metric(value, _layer_unit(name)) for name, value in layers.items()}
    info = {"absent": traced["absent"], "trace_file": str(trace_out.relative_to(ROOT)),
            "traced_region_s": traced["region_s"], "untraced_region_s": plain["region_s"]}
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    return traced, metrics, info


def _environment(seed: int, threads: int, worker: dict) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "blas_threads": threads, "seed": seed, **worker["environment"]}


def main() -> int:
    parser = argparse.ArgumentParser(description="ponziscan benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "ponziscan" / "__init__.py").is_file():
        print(f"no ponziscan source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    env = _worker_env(threads)
    try:
        if args.trace:
            run, metrics, info = _traced(args.workload, args.seed, env, deadline)
        else:
            run, metrics, info = _untraced(args.workload, args.seed, args.seconds, env, deadline)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "environment": _environment(args.seed, threads, run), **info}))
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
