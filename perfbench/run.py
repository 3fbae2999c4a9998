"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_distinct --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the traced
variant and prints the per-layer metrics.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys

HERE = pathlib.Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
#: Declares the workloads and every metric with its unit; the printed
#: result carries exactly the metrics declared for the run's mode.
DECLARATION = HERE.parent / "BENCHMARK.json"
WORKLOADS = ("serve_distinct", "serve_hot", "paper_algorithms")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _blas_threads():
    """OpenBLAS's thread count as numpy's bundled library reports it."""
    import ctypes
    import glob

    import numpy

    libs = pathlib.Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        library = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            query = getattr(library, name, None)
            if query is not None:
                query.restype = ctypes.c_int
                return query()
    return None


def _conditions():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file() or not DECLARATION.is_file():
        print(f"error: run from a checkout holding {SOURCE} and {DECLARATION}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # No per-install calibrated cost profile may change planner choices: the
    # profile path points inside the checkout, where none exists, and the
    # built-in profile is pinned before anything plans.
    os.environ["REPRO_PROFILE_PATH"] = str(HERE / "no-profile.json")
    sys.path.insert(0, str(SOURCE))
    from repro.profile import DEFAULT_PROFILE, set_active_profile

    set_active_profile(DEFAULT_PROFILE)

    import paper
    import serve

    if args.workload == "paper_algorithms":
        outcome = (paper.run_traced if args.trace else paper.run)(args.seed, args.seconds)
    else:
        runner = serve.run_traced if args.trace else serve.run
        outcome = runner(args.workload, args.seed, args.seconds)

    metrics = outcome["metrics"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("conditions " + json.dumps(_conditions(), sort_keys=True))
    for line in outcome["notes"]:
        print(line)
    if not outcome["valid"]:
        print("error: the open loop's backlog grew; the offered rate is past saturation",
              file=sys.stderr)
        return 1
    declared = json.loads(DECLARATION.read_text())["per_layer" if args.trace else "end_to_end"]
    mismatched = sorted({entry["name"] for entry in declared} ^ set(metrics))
    if mismatched:
        print(f"error: measured and declared metrics differ: {mismatched}", file=sys.stderr)
        return 1
    printed = {}
    for entry in declared:
        number = float(metrics[entry["name"]])
        printed[entry["name"]] = {"value": number, "unit": entry["unit"]}
        print(f"  {entry['name']} = {number:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": printed,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
