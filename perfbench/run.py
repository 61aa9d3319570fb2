"""setdecomp benchmark: one client in a closed loop over the CLI and library.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload decompose-lp --seed 0 --seconds 32 --trace 0

Workloads: decompose-lp, check-battery and charge-tables (see
BENCHMARK.json for why each was chosen), or ``all`` to run those three in
turn, each in its own process.  graph-reports runs only when named, as
README.md explains.

Set-up imports the package from ``src/``, generates the workload's inputs
from ``--seed`` and writes them as JSON, then runs one warm-up instance
through the workload's path.  The client then sends the next request only
after the previous result is back, for ``--seconds`` seconds.  Each output
is checked after its request, outside the timed region; a request that
raises, exits non-zero or fails its check counts as an error.  Times are
scaled to a reference machine speed measured by a probe next to every
request (see speed.py).

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` a fixed set of requests runs once untraced and once with
spans around every layer, and the result holds the per-layer metrics and
the tracing overhead; counts repeat exactly for a given seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_T0 = time.perf_counter()

import os

# One thread for BLAS / OpenMP, set before numpy is imported, so the
# numbers measure the program and not the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import speed  # imports numpy, so after the thread pins

import argparse
import gc
import importlib.metadata
import importlib.util
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
# the workloads BENCHMARK.json names; graph-reports runs only on request
# because a single instance can take longer than a whole run
WORKLOAD_NAMES = ("decompose-lp", "check-battery", "charge-tables")
SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
MAX_ERRORS_SHOWN = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("graph-reports", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import setdecomp from the checkout's src/, never from elsewhere."""
    if not (SRC / "setdecomp" / "__init__.py").is_file():
        raise SystemExit(f"error: no setdecomp sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import setdecomp

    if SRC.resolve() not in Path(setdecomp.__file__).resolve().parents:
        raise SystemExit(f"error: setdecomp imported from {setdecomp.__file__}, not {SRC}")
    return setdecomp


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
        "threads_pinned": 1,
    }


def set_up(name: str, seed: int, workdir: Path):
    """Imports, input generation and warm-up; returns (workload, requests)."""
    import_program()
    import inputs
    import workloads

    workdir.mkdir(parents=True)
    wl = workloads.WORKLOADS[name](seed, workdir)
    requests = wl.prepare(inputs.make_pool(name, seed, wl.pool_size))
    for req in wl.prepare([inputs.make_warmup(name, seed)]):
        error = wl.check(req, wl.run(req))
        if error:
            raise RuntimeError(f"warm-up instance failed its check: {error}")
    return wl, requests


def run_one(wl, req):
    """One request; returns (seconds, result, error)."""
    start = time.perf_counter()
    try:
        result, error = wl.run(req), None
    except (Exception, SystemExit) as exc:  # the program must not take the harness down
        result, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, result, error


def check_one(wl, req, result, error):
    """The request's error string, or None if it ran and passed its check."""
    if error is None:
        try:
            error = wl.check(req, result)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    if error is None:
        return None
    return f"request {req['id']} ({req['instance']['kind']}): {error}"


def nearest_rank(ordered, p):
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


def tail_percentile(latencies):
    """Highest whole percentile, from p50 up, with at least 10 samples beyond
    it by nearest rank; returns (percentile, value, samples beyond).  Below
    20 samples no percentile qualifies and p50 is reported."""
    n = len(latencies)
    p = max(100 * (n - 10) // n, 50)
    while p > 50 and n - math.ceil(p * n / 100) < 10:
        p -= 1
    return p, nearest_rank(sorted(latencies), p), n - max(math.ceil(p * n / 100), 1)


def closed_loop(wl, requests, seconds):
    """Requests back to back for `seconds` of wall time.  Before each
    request the heap is collected, so no request pays for the garbage of
    the ones before it; after it a probe block measures the machine's
    speed, and then the result is checked and dropped.  Collection, probe
    and check lie outside the timed region.  Returns (raw seconds,
    seconds at the reference speed, errors)."""
    intervals, blocks, errors = [], [], []
    deadline = time.perf_counter() + seconds
    blocks.append((time.perf_counter(), speed.probe_block()))
    i = 0
    while time.perf_counter() < deadline:
        req = requests[i % len(requests)]  # wraps only if the pool runs out
        i += 1
        gc.collect()
        start = time.perf_counter()
        elapsed, result, error = run_one(wl, req)
        intervals.append((start, start + elapsed))
        blocks.append((time.perf_counter(), speed.probe_block()))
        error = check_one(wl, req, result, error)
        if error is not None:
            errors.append(error)
    raw = [end - start for start, end in intervals]
    return raw, speed.at_reference(intervals, blocks), errors


def other_setups(args) -> list:
    """Set up again in fresh processes; returns their setup times, raw
    and at the reference speed."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((result["setup_s"], result["setup_ref_s"]))
    return times


def fmt_metric(name, value, unit, note=""):
    return f"  {name:<34} {value:>14.6g} {unit:<6} {note}".rstrip()


def measure(args, wl, requests, own_setup):
    setups = [own_setup] + other_setups(args)
    raw, scaled, errors = closed_loop(wl, requests, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = len(scaled), len(errors)
    p, tail, beyond = tail_percentile(scaled)
    metrics = {
        "throughput_ips": ((attempted - failed) / sum(scaled), "1/s"),
        "latency_p50_s": (nearest_rank(sorted(scaled), 50), "s"),
        "latency_tail_s": (tail, "s"),
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "throughput_ips": f"{attempted - failed} verified in {sum(scaled):.3f} s ({sum(raw):.3f} s raw)",
        "latency_p50_s": f"{nearest_rank(sorted(raw), 50):.4f} s raw",
        "latency_tail_s": f"p{p} of {attempted} samples, {beyond} beyond it; "
                          f"{tail_percentile(raw)[1]:.4f} s raw",
        "setup_s": "median of " + ", ".join(f"{ref:.4f} ({s:.4f} raw)" for s, ref in setups),
    }
    print(f"{args.workload}: closed loop, 1 client, {args.seconds:g} s, seed {args.seed}; "
          f"times at the reference speed (probe {speed.REFERENCE_S * 1e3:g} ms)")
    for name, (value, unit) in metrics.items():
        print(fmt_metric(name, value, unit, notes.get(name, "")))
    # error_rate is 0 when the program is correct, so it is reported here
    # and through the result's "failed" count rather than as a metric
    print(fmt_metric("error_rate", failed / attempted, "ratio", f"{failed} of {attempted}"))
    return attempted, errors, metrics


def measure_traced(args, wl, requests):
    """Each chosen request runs untraced and traced, alternating which goes
    first, so slow drifts in machine speed fall on both sides."""
    import spans

    chosen = wl.traced_requests(requests)
    tracer = spans.Tracer()
    plain, traced, done = [], [], []
    for i, req in enumerate(chosen):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            gc.collect()
            if not with_trace:
                plain.append(run_one(wl, req)[0])
                continue
            tracer.install()
            try:
                tracer.begin_request(req["id"])
                elapsed, result, error = run_one(wl, req)
            finally:
                tracer.uninstall()
            traced.append(elapsed)
            done.append(check_one(wl, req, result, error))
    errors = [error for error in done if error is not None]
    tracer.write(BENCH_DIR / "_work" / f"spans-{args.workload}-seed{args.seed}.tsv")
    metrics = spans.layer_metrics(tracer, len(chosen))
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(plain) - 1, "ratio")
    print(f"{args.workload}: traced run of {len(chosen)} fixed requests, seed {args.seed}")
    print(f"  untraced {sum(plain):.4f} s, traced {sum(traced):.4f} s")
    for name, (value, unit) in metrics.items():
        print(fmt_metric(name, value, unit))
    return len(done), errors, metrics


def run_all(args) -> int:
    """Each workload in its own process; the result merges theirs."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} failed", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workdir = BENCH_DIR / "_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        wl, requests = set_up(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - _T0
        setup = (setup_s, setup_s * speed.REFERENCE_S / statistics.median(speed.probe_block() for _ in range(3)))
        if args.setup_only:
            print(json.dumps({"setup_s": setup[0], "setup_ref_s": setup[1]}))
            return 0
        print("env " + json.dumps(environment(), sort_keys=True))
        if args.trace:
            attempted, errors, metrics = measure_traced(args, wl, requests)
        else:
            attempted, errors, metrics = measure(args, wl, requests, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in errors[:MAX_ERRORS_SHOWN]:
        print(f"error: {error}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
