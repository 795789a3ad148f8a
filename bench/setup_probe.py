"""One cold set-up of a benchmark workload, timed in a fresh interpreter.

    python3 bench/setup_probe.py <workload> <seed>

The clock starts before anything else is imported, so the time covers the
import of rfidlab with every module it pulls in (standard library
included), then the building of the workload's inputs and of a fresh
program state. The benchmark's own modules are imported between the two
and are not timed. Prints ``{"import_s": ..., "build_s": ...}``.
run.py starts this several times per run and reports the median as
``setup_s``.
"""

import os  # loaded by the interpreter at start-up already
import sys
from time import perf_counter

MODULES = (
    "attacks", "bits", "cli", "crypto", "fwcfp", "game", "lwjx",
    "replay", "rng", "snapshots", "transcript",
)


def main(workload_name: str, seed: int) -> dict:
    t0 = perf_counter()
    for name in MODULES:
        __import__(f"rfidlab.{name}")
    import_s = perf_counter() - t0

    import run  # the benchmark itself: untimed

    rf = run.rfidlab_namespace()
    workload = run.WORKLOADS[workload_name]
    t0 = perf_counter()
    workload.fresh(rf, workload.build(rf, seed))
    return {"import_s": import_s, "build_s": perf_counter() - t0}


if __name__ == "__main__":
    bench = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(1, os.path.join(os.path.dirname(bench), "src"))
    result = main(sys.argv[1], int(sys.argv[2]))
    import json

    print(json.dumps(result))
