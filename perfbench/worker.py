"""One fresh benchmark process: set up a workload, run it, print one JSON line.

Modes:
  setup      time imports and set-up, then exit
  measure    set up, then run cycles until the next one would end more
             than half a cycle after --seconds; every cycle is checked
  once       set up and run exactly one cycle, untraced
  trace      as `once`, with spans recorded around every wrapped call site
  reference  as `once`, printing the default seed's reference outputs

Run from perfbench/run.py, which pins the BLAS thread count in the
environment before this process imports numpy.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "once", "trace", "reference"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads  # imports numpy and the program

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.start()
    region_start = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(args.seed, ROOT)
    setup_s = time.perf_counter() - STARTED
    result = {"setup_s": setup_s, "cycles": [], "attempted": 0, "failed": 0,
              "environment": _environment()}
    if args.mode == "setup":
        result["peak_rss_mb"] = _peak_rss_mb()
        print(json.dumps(result))
        return 0

    reference = None
    if args.seed == workloads.DEFAULT_SEED and args.mode != "reference":
        reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    measure_start = time.perf_counter()
    cycle_s: list[float] = []
    while True:
        c0 = time.perf_counter()
        out = workload.cycle()
        cycle_s.append(time.perf_counter() - c0)
        result["region_s"] = time.perf_counter() - region_start
        if tracer is not None:
            tracer.stop()
            tracer.uninstall()
        if args.mode == "reference":
            print(json.dumps(workload.reference(out)))
            return 0
        result["attempted"] += out.items
        result["failed"] += workload.check(out, reference)
        result["cycles"].append({"items": out.items, "pieces": out.pieces,
                                 "phase_items": out.phase_items})
        del out
        if args.mode != "measure":
            break
        elapsed = time.perf_counter() - measure_start
        if elapsed + sorted(cycle_s)[len(cycle_s) // 2] / 2 > args.seconds:
            break
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent()
        if args.trace_out:
            tracer.write(Path(args.trace_out))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
