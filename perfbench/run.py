"""momentsearch benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Generates the workload's inputs from the
seed in a separate process, measures the package in src/ for about S
seconds, checks every result, and prints two JSON lines: a detail record
(provenance, fixture shape, sample counts, every value and deterministic
count) and, last, the result with the end-to-end metrics of BENCHMARK.json
(--trace 0) or its per-layer metrics (--trace 1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
LEDGER = os.path.join(WORK_DIR, "counts.json")
FIXTURE_TIMEOUT_S = 600

# One BLAS thread: the load is one closed-loop client, and a fixed thread
# count keeps floating-point reductions, and so the counts, reproducible.
BLAS_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def source_digest() -> str:
    """Digest of the package and benchmark sources, in place of a git revision
    where the checkout is not a repository."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "momentsearch"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(base, name), "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_revision() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def blas_info() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads, "threads_env": BLAS_ENV["OPENBLAS_NUM_THREADS"]}


def provenance(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "seed": seed,
        "load": "one client, closed loop, no worker threads; passes alternate CPUs",
    }


def make_fixtures(workload: str, seed: int, out: str, toy: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "fixtures.py"), "--workload", workload,
           "--seed", str(seed), "--out", out] + (["--toy"] if toy else [])
    subprocess.run(cmd, check=True, timeout=FIXTURE_TIMEOUT_S, env={**os.environ, **BLAS_ENV},
                   stdout=subprocess.DEVNULL)
    with open(os.path.join(out, "meta.json"), encoding="utf-8") as f:
        return json.load(f)


def check_ledger(key: str, counts: dict) -> list[str]:
    """Compare deterministic counts with earlier runs of the same sources,
    workload and seed; record them when new."""
    try:
        with open(LEDGER, encoding="utf-8") as f:
            ledger = json.load(f)
    except FileNotFoundError:
        ledger = {}
    earlier = ledger.get(key)
    if earlier is None:
        ledger[key] = counts
        with open(LEDGER, "w", encoding="utf-8") as f:
            json.dump(ledger, f, sort_keys=True)
        return []
    return [f"count {name} was {earlier.get(name)!r}, now {value!r}"
            for name, value in counts.items() if earlier.get(name) != value]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "momentsearch", "__init__.py")):
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        parser.error(f"unknown workload {args.workload!r}")

    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    w = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    fixture_dir = tempfile.mkdtemp(prefix=f"{w.name}-{args.seed}-", dir=WORK_DIR)
    try:
        fixture = make_fixtures(w.name, args.seed, fixture_dir, args.toy)
        run = workloads.run_workload(w, workloads.fixture_paths(fixture_dir), args.seed,
                                     args.seconds, bool(args.trace), args.toy)
    finally:
        shutil.rmtree(fixture_dir, ignore_errors=True)

    info = provenance(args.seed)
    key = f"{w.name}|seed={args.seed}|toy={args.toy}|{info['source_digest']}"
    drift = check_ledger(key, run.counts)
    values = {**run.values, **run.counts}
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        metrics = {m["name"]: float(values.get(m["name"], 0.0)) for m in section}
    else:
        metrics = {m["name"]: float(values[m["name"]]) for m in section}
    detail = {
        "workload": w.name, "why": why[w.name], "trace": args.trace, "seconds": args.seconds,
        "provenance": info, "fixture": fixture, "samples": run.samples,
        "values": values, "predictions": [list(p) for p in w.predictions],
        "failed_share": run.failed / max(run.attempted, 1),
        "problems": run.problems + drift,
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0 and not drift,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in section},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
