"""Record the exact decompose-lp results for the default seed.

Runs every instance of the default seed's decompose-lp pool through the
CLI, checks each result against the independent HiGHS solve and the
decomposition checks, and writes the objectives (or "infeasible") to
``expected/decompose-lp-seed0.json``.  The benchmark then requires later
runs on the default seed to reproduce them exactly.

    python3 perfbench/record_expected.py
"""

import json
import shutil
import sys

import run


def main() -> int:
    workdir = run.BENCH_DIR / "_work" / "record-expected"
    shutil.rmtree(workdir, ignore_errors=True)
    run.import_program()
    import inputs
    import workloads

    workdir.mkdir(parents=True)
    try:
        wl = workloads.DecomposeLp(workloads.DEFAULT_SEED, workdir, check_recorded=False)
        results = {}
        for req in wl.prepare(inputs.make_pool(wl.name, workloads.DEFAULT_SEED, wl.pool_size)):
            error = wl.check(req, wl.run(req))
            if error:
                print(f"error: instance {req['instance']['id']}: {error}", file=sys.stderr)
                return 1
            report = json.loads(req["out"].read_text(encoding="utf-8"))
            results[str(req["instance"]["id"])] = workloads.decompose_outcome(report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = workloads.EXPECTED_DIR / f"{wl.name}-seed{workloads.DEFAULT_SEED}.json"
    path.parent.mkdir(exist_ok=True)
    payload = {"workload": wl.name, "seed": workloads.DEFAULT_SEED, "results": results}
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} results to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
