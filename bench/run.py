"""selfsim benchmark: one workload, one seed, end-to-end or traced.

    python3 bench/run.py --workload {fields,cli,oracles,all} --seed N --seconds S --trace {0,1}

Run from the repository root; the library is imported from ``src/``.
A run makes a fixed number of passes over the workload's seeded request
list (about ``--seconds`` of work, at least three), checking every output.
With ``--trace 0`` it also measures set-up in fresh interpreters, spread
before, between and after the passes, and reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes and reports
per-layer metrics (see README.md in this directory for what each metric
should move).  A run is ``correct`` only if no operation failed: no
exception, no CLI exit other than 0 and no failed check.

Human-readable lines go to stdout first; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the metrics
that BENCHMARK.json lists.  Full results (machine facts, every layer
metric, failures per route, probe outcomes) and the spans of traced runs
are written under ``bench/.work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
WORK = BENCH / ".work"

# Pass time on the reference machine (2-core Xeon, see README.md), used to
# turn --seconds into a fixed number of passes, so that the same seed
# always does the same work.
NOMINAL_PASS_S = {"fields": 4.5, "cli": 10.5, "oracles": 1.6}
# At least this many passes, so that the cli workload (11 requests a pass)
# has requests beyond its tail percentile.
MIN_PASSES = 3
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not (SRC / "selfsim" / "__init__.py").is_file():
        _fail(f"no library sources under {SRC.relative_to(ROOT)}/selfsim; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import selfsim

    if Path(selfsim.__file__).resolve().parent != (SRC / "selfsim").resolve():
        _fail(f"imported selfsim from {selfsim.__file__}, not from {SRC}")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(workload: str, seed: int, workdir: Path) -> dict:
    """One cold start: a fresh interpreter imports selfsim.cli and runs request 0.

    Returns the child's own timings, ``{"import_s", "run_s"}``.
    """
    out = Path(tempfile.mkdtemp(prefix="setup-", dir=workdir))
    cmd = [sys.executable, str(BENCH / "first_request.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(out)]
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        _fail(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_schedule(n_passes: int) -> list[int]:
    """Cold starts before pass i (the last entry: after the last pass).

    SETUP_REPEATS spread evenly over the n_passes + 1 gaps, so that set-up
    and the passes see the same phases of a drifting machine.
    """
    gaps = n_passes + 1
    return [SETUP_REPEATS * (i + 1) // gaps - SETUP_REPEATS * i // gaps for i in range(gaps)]


def measure_imports() -> dict:
    """Cumulative import time of each selfsim module, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import selfsim.cli"],
                          env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        _fail(f"import probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    found = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = [p.strip() for p in line.split(":", 1)[1].split("|")]
        if len(parts) == 3 and parts[0].isdigit() and parts[2].startswith("selfsim"):
            found[f"import.{parts[2]}_s"] = int(parts[1]) / 1e6
    if "import.selfsim_s" not in found:
        _fail("python -X importtime reported no selfsim import")
    return found


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n, n


class PassRunner:
    """Runs passes over a request list, timing, checking and accounting."""

    def __init__(self, requests, workdir: Path, tracer=None):
        self.requests = requests
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failures: Counter = Counter()  # (route, kind) -> count
        self.worst = (0.0, "")
        self.check_failures: list[str] = []
        self.first_hashes = None
        self.ac15_lines: list[str] = []
        self.by_route: dict[str, list[float]] = {}

    def _record_check(self, route: str, found) -> bool:
        ok = True
        for label, err, tol in found:
            ratio = err / tol
            if not ratio <= 1.0:  # NaN fails too
                ok = False
                self.check_failures.append(f"{route}: {label} error {err:.3g} > tolerance {tol:g}")
            if ratio > self.worst[0] or ratio != ratio:
                self.worst = (ratio, f"{route}: {label}")
        return ok

    def run_pass(self, traced: bool) -> tuple[float, list[float]]:
        # a fresh output directory per pass (the CLI commands write into it)
        ctx = {"pass_dir": tempfile.mkdtemp(prefix="pass-", dir=self.workdir)}
        latencies = []
        try:
            for index, req in enumerate(self.requests):
                if req.prepare is not None:
                    req.prepare(ctx)
                self.attempted += 1
                if self.tracer is not None:
                    self.tracer.request = index
                    self.tracer.enabled = traced
                start = time.perf_counter()
                try:
                    out = req.run(ctx)
                except Exception as exc:  # noqa: BLE001 - every failure is counted, none stops the run
                    out = exc
                finally:
                    elapsed = time.perf_counter() - start
                    if self.tracer is not None:
                        self.tracer.enabled = False
                latencies.append(elapsed)
                if not traced:
                    self.by_route.setdefault(req.route, []).append(elapsed)
                if isinstance(out, Exception):
                    self.failures[(req.route, getattr(out, "kind", type(out).__name__))] += 1
                    if not _is_numeric_error(out) and not hasattr(out, "kind"):
                        traceback.print_exception(out, file=sys.stderr)
                    continue
                try:
                    found = req.check(ctx, out)
                except Exception as exc:  # noqa: BLE001 - a check that cannot run is a failed check
                    found = [(f"check raised {type(exc).__name__}: {exc}", float("inf"), 1.0)]
                if not self._record_check(req.route, found):
                    self.failures[(req.route, "check")] += 1
                if req.route == "selftest" and "selftest_stderr" in ctx:
                    # the last wall_time_s line is the selftest command's own;
                    # the ones before it come from AC15's CLI runs inside it
                    lines = [ln for ln in ctx.pop("selftest_stderr").splitlines()
                             if ln.startswith("wall_time_s")]
                    self.ac15_lines = lines[:-1]
            self._check_hashes(ctx.get("hashes"))
        finally:
            shutil.rmtree(ctx["pass_dir"], ignore_errors=True)
        return sum(latencies), latencies

    def _check_hashes(self, hashes) -> None:
        if hashes is None:
            return
        if self.first_hashes is None:
            self.first_hashes = hashes
            return
        for command, files in hashes.items():
            if files != self.first_hashes.get(command):
                self.failures[(command, "sha256 differs")] += 1
                self.check_failures.append(f"{command}: output files differ from the first pass")

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def _is_numeric_error(exc: BaseException) -> bool:
    from selfsim.errors import NumericError

    return isinstance(exc, NumericError)


def run_probes(workload: str, workdir: Path) -> list[dict]:
    import workloads

    results = []
    for name, call in workloads.probes(workload, str(workdir)):
        try:
            out = call()
        except Exception as exc:  # noqa: BLE001 - a probe reports whatever it meets
            results.append({"probe": name, "outcome": f"refused: {type(exc).__name__}"})
            continue
        if isinstance(out, tuple) and len(out) == 3:  # a CLI call: (code, stdout, stderr)
            code, _, err = out
            tail = err.strip().splitlines()[-1] if err.strip() else ""
            results.append({"probe": name, "outcome": f"exit {code}" + (f": {tail}" if code else "")})
        else:
            results.append({"probe": name, "outcome": f"returned: {out}"})
    return results


def calibrate(tracer) -> list[dict]:
    """Quad calls and evaluations of fixed calls, beside their reference values."""
    import workloads

    found = []
    tracer.install()
    try:
        for label, reference, call in workloads.tracer_calibration():
            tracer.reset()
            tracer.enabled = True
            try:
                call()
            finally:
                tracer.enabled = False
            counted = (tracer.counts["quadrature.quad.calls"], tracer.counts["quadrature.quad.evals"])
            found.append({"call": label, "quad_calls_evals": counted, "reference": reference})
    finally:
        tracer.uninstall()
    return found


def load_metric_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fields", "cli", "oracles", "all"),
                        help="'all' runs the three workloads one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    _import_library()
    spec = load_metric_spec()
    import machine
    import workloads
    from tracer import Tracer

    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=_workdir()))
    facts = machine.facts()
    try:
        imports = measure_imports() if args.trace else {}
        requests = workloads.build(args.workload, args.seed)
        tracer = Tracer() if args.trace else None
        runner = PassRunner(requests, run_dir, tracer)
        n_passes = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        if args.trace:
            # alternate untraced and traced passes, at least two of each
            n_passes = max(4, n_passes + n_passes % 2)
        schedule = [0] * (n_passes + 1) if args.trace else setup_schedule(n_passes)
        setups = []  # {"import_s", "run_s"} of each cold start
        walls = {False: [], True: []}
        latencies = []  # every request of every untraced measured pass
        layer_runs = []
        for i in range(n_passes + 1):
            setups.extend(measure_setup(args.workload, args.seed, run_dir)
                          for _ in range(schedule[i]))
            if i == n_passes:
                break
            traced = bool(args.trace) and i % 2 == 1
            if traced:
                tracer.reset()
                tracer.install()
            try:
                wall, lat = runner.run_pass(traced)
            finally:
                if traced:
                    tracer.uninstall()
            walls[traced].append(wall)
            if traced:
                layer_runs.append((tracer.summary(), tracer.spans))
            else:
                latencies.extend(lat)
        calibration = calibrate(tracer) if args.trace else []
        probes = run_probes(args.workload, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    setup_times = [s["import_s"] + s["run_s"] for s in setups]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail, tail_pct, tail_n = tail_latency(latencies)
    all_metrics = {
        # means, not medians: the host switches between a fast and a slow
        # speed, and a median jumps between the two while the mean moves
        # with the share of time spent in each (see README.md)
        "setup_s": statistics.mean(setup_times) if setup_times else None,
        "wall_s": statistics.mean(walls[False]),
        "req_tail_ms": 1e3 * tail,
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": runner.failed / runner.attempted,
        "worst_tol_ratio": runner.worst[0],
    }
    # every failed operation (exception, CLI exit other than 0, failed check)
    # makes the run incorrect, not only a failed check
    correct = not runner.check_failures and runner.failed == 0
    counter_mismatch = []
    if args.trace:
        if not any(summary["spans"] for summary, _ in layer_runs):
            _fail("the tracer recorded no spans: the library was not wrapped")
        layer, counter_mismatch = _layer_metrics(layer_runs, imports, walls)
        correct = correct and not counter_mismatch
        all_metrics.update(layer)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        # a counter that never fired, or a layer that was never entered (or an
        # import that no longer happens), is a measured zero
        for m in wanted:
            all_metrics.setdefault(m["name"], 0.0 if m["unit"] == "s" else 0)
    missing = [m["name"] for m in wanted if all_metrics.get(m["name"]) is None]
    if missing:
        _fail(f"metrics listed in BENCHMARK.json were not measured: {missing}")

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": facts, "passes": {"measured_untraced": len(walls[False]),
                                     "measured_traced": len(walls[True]),
                                     "requests_per_pass": len(requests)},
        "setup_runs_s": setup_times, "setup_runs": setups, "pass_walls_s": walls[False], "traced_pass_walls_s": walls[True],
        "req_tail": {"ms": 1e3 * tail, "percentile": tail_pct, "samples": tail_n},
        "worst_tol_route": runner.worst[1],
        "failures": {f"{route} / {kind}": n for (route, kind), n in sorted(runner.failures.items())},
        "check_failures": runner.check_failures[:50], "counter_mismatch": counter_mismatch,
        "selftest_inner_wall_lines": runner.ac15_lines, "probes": probes,
        "tracer_calibration": calibration,
        "route_median_ms": {route: 1e3 * statistics.median(v) for route, v in sorted(runner.by_route.items())},
        "metrics": {k: v for k, v in all_metrics.items() if v is not None},
    }
    _write_results(args, report, layer_runs)
    _print_report(args, report, spec)
    result = {
        "correct": bool(correct),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": all_metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, reports streamed; last line maps workload -> result."""
    results, worst = {}, 0
    for workload in ("fields", "cli", "oracles"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, proc.returncode)
        if proc.returncode == 0 and lines:
            results[workload] = json.loads(lines[-1])
    if worst == 0:
        print(json.dumps(results))
    return worst


def _workdir() -> Path:
    WORK.mkdir(parents=True, exist_ok=True)
    return WORK


def _layer_metrics(layer_runs, imports: dict, walls: dict) -> tuple[dict, list]:
    """Per-layer metrics over the traced passes: exact counts, median times."""
    summaries = [s for s, _ in layer_runs]
    first = summaries[0]["counts"]
    mismatch = []
    for other in summaries[1:]:
        for key in sorted(set(first) | set(other["counts"])):
            if first.get(key, 0) != other["counts"].get(key, 0):
                mismatch.append(f"{key}: {first.get(key, 0)} != {other['counts'].get(key, 0)}")
    found = {**imports, **first}

    def median_of(get):
        return statistics.median(get(s) for s in summaries)

    names = set().union(*(s["spans"] for s in summaries))
    for name in names:
        found[f"{name}.self_s"] = median_of(lambda s: s["spans"].get(name, {}).get("self_s", 0.0))
        found[f"{name}.s"] = median_of(lambda s: s["spans"].get(name, {}).get("total_s", 0.0))
    modules = set().union(*(s["modules"] for s in summaries))
    for module in modules:
        found[f"{module}.self_s"] = median_of(lambda s: s["modules"].get(module, 0.0))
    found["cli.main.self_s"] = found.get("cli.self_s", 0.0)
    traced, untraced = statistics.mean(walls[True]), statistics.mean(walls[False])
    found["trace.traced_wall_s"] = traced
    found["trace.overhead_s"] = traced - untraced
    return found, mismatch


def _write_results(args, report: dict, layer_runs) -> None:
    out = _workdir() / "results"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=str)
    if layer_runs:
        with open(out / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for pass_index, (_, spans) in enumerate(layer_runs):
                for name, start, end, parent, request in spans:
                    fh.write(json.dumps({"pass": pass_index, "name": name, "start": start,
                                         "end": end, "parent": parent, "request": request}) + "\n")


def _print_report(args, report: dict, spec: dict) -> None:
    m, facts = report["metrics"], report["machine"]
    print(f"# selfsim benchmark  workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"# machine: nproc={facts['nproc']} cpu={facts['cpu_model']!r} caches={facts['caches']} "
          f"python={facts['python']} numpy={facts['numpy']} scipy={facts['scipy']} "
          f"blas={facts['blas']!r} threads={facts['thread_env']}")
    p = report["passes"]
    print(f"# passes: {p['measured_untraced']} untraced + {p['measured_traced']} traced, "
          f"{p['requests_per_pass']} requests per pass")
    tail = report["req_tail"]
    notes = {
        "setup_s": f"mean of {len(report['setup_runs_s'])} fresh interpreters "
                   f"(import selfsim.cli + first request's run)",
        "wall_s": f"mean of {p['measured_untraced']} passes (range "
                  f"{min(report['pass_walls_s']):.4g}-{max(report['pass_walls_s']):.4g} s)",
        "req_tail_ms": f"p{tail['percentile']:.2f} of {tail['samples']} requests",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
        "failed_frac": f"{sum(report['failures'].values())} failed operations",
        "worst_tol_ratio": f"at {report['worst_tol_route'] or '-'}",
    }
    units = {"setup_s": "s", "wall_s": "s", "req_tail_ms": "ms", "peak_rss_mb": "MB",
             "failed_frac": "1", "worst_tol_ratio": "1"}
    for name in units:
        if name in m:
            print(f"{name:18s} {m[name]:14.6g} {units[name]:3s}  {notes[name]}")
    for key, n in report["failures"].items():
        print(f"failure  {key}: {n}")
    for line in report["check_failures"][:10]:
        print(f"check failed  {line}")
    for line in report["selftest_inner_wall_lines"]:
        print(f"selftest stderr (AC15's inner CLI run): {line}")
    for probe in report["probes"]:
        print(f"probe  {probe['probe']}: {probe['outcome']}")
    if args.trace:
        listed = {x["name"] for x in spec["per_layer"]}
        print("# per-layer metrics (traced passes; * = listed in BENCHMARK.json)")
        for key in sorted(m):
            if key in units:
                continue
            mark = "*" if key in listed else " "
            print(f"{mark} {key:58s} {m[key]:.6g}")
        for c in report["tracer_calibration"]:
            same = "same as" if tuple(c["quad_calls_evals"]) == tuple(c["reference"]) else "DIFFERS from"
            print(f"# tracer calibration  {c['call']}: quad calls, evaluations = "
                  f"{c['quad_calls_evals']} ({same} reference {c['reference']})")
        for line in report["counter_mismatch"][:20]:
            print(f"counter differs between traced passes  {line}")


if __name__ == "__main__":
    sys.exit(main())
