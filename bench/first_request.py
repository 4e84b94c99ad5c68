"""One cold start: a fresh interpreter imports selfsim.cli and serves one request.

Prints one JSON line ``{"import_s", "run_s"}``:

* ``import_s``: ``import selfsim.cli`` in this fresh interpreter, timed
  together with the benchmark's own ``workloads`` module, so that no module
  a request needs can be loaded outside the timed region;
* ``run_s``: the ``run`` of the workload's first request.

Building the request list, ``prepare`` and the output check are outside
both.  The parent reports the median of ``import_s + run_s`` over several
cold starts as ``setup_s``.  Usage (from the repository root, ``src`` on
PYTHONPATH):

    python3 bench/first_request.py --workload fields --seed 1 --workdir DIR
"""

import time

_START = time.perf_counter()
import selfsim.cli  # noqa: E402,F401  - the import a user of the CLI pays for
import workloads  # noqa: E402

_IMPORT_S = time.perf_counter() - _START

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    first = workloads.build(args.workload, args.seed)[0]
    ctx = {"pass_dir": args.workdir}
    if first.prepare is not None:
        first.prepare(ctx)
    start = time.perf_counter()
    out = first.run(ctx)
    run_s = time.perf_counter() - start
    found = first.check(ctx, out)
    bad = [f"{label}: error {err:.3g} > tolerance {tol:g}" for label, err, tol in found
           if not err <= tol]
    if bad:
        print(f"first request ({first.route}) failed its check: {bad}", file=sys.stderr)
        return 1
    print(json.dumps({"import_s": _IMPORT_S, "run_s": run_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
