"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload recovery_k16 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs in worker processes started from here, so that the
import is part of set-up and the BLAS thread setting takes effect before
numpy loads. With ``--trace 0`` the worker is started SETUPS times; every
start is timed from spawn to READY and the last one also runs the ops.
``setup_s`` is the median of those set-ups. With ``--trace 1`` one worker
runs the traced pass and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Full results, with the
machine and library versions, go to ``.perfbench_run/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import stats  # noqa: E402
from perfbench.catalog import WORKLOADS  # noqa: E402

SETUPS = 5
TIME_LIMIT_S = 170.0
# OpenBLAS reads the first of these that is set
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
BENCHMARK = json.loads(Path(__file__).resolve().parent.parent.joinpath("BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


class WorkerError(RuntimeError):
    pass


def _worker_env(name: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    threads = WORKLOADS[name].blas_threads
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    return env


def _spawn(name: str, args, setup_only: bool, deadline: float) -> tuple[float, str]:
    """Start a worker; return its set-up time and, unless setup_only, its result line."""
    cmd = [
        sys.executable, "-m", "perfbench.worker", "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(name), stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - start
        if line.strip() != "READY":
            raise WorkerError(f"{name}: worker did not finish set-up")
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{name}: worker ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"{name}: worker exited with code {proc.returncode}")
    return setup, out.strip().splitlines()[-1] if out.strip() else ""


def run_workload(name: str, args, deadline: float) -> dict:
    entry = WORKLOADS[name]
    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            setups.append(_spawn(name, args, True, deadline)[0])
    setup, line = _spawn(name, args, False, deadline)
    setups.append(setup)
    result = json.loads(line)
    result.update(workload=name, seed=args.seed, seconds=args.seconds, trace=args.trace)
    result["threads"] = {
        "harness": entry.harness_threads,
        "blas": entry.blas_threads if entry.blas_threads is not None else "OpenBLAS default",
        "reason": entry.blas_reason,
    }
    if args.trace:
        result["metrics"] = result.pop("per_layer")
    else:
        lat = result["latencies_s"]
        result["setups_s"] = setups
        result["metrics"] = {
            "setup_s": stats.median(setups),
            "work_per_s": result["work"] / result["op_seconds"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        result["op_p50_ms"] = 1000.0 * stats.median(lat)
        tail = stats.tail_percentile(len(lat))
        if tail is not None:
            result["tail"] = {"percentile": tail, "ms": 1000.0 * stats.nearest_rank(lat, tail)}
    listed = BENCHMARK["per_layer" if args.trace else "end_to_end"]
    if list(result["metrics"]) != [m["name"] for m in listed]:
        raise WorkerError(f"{name}: metrics out of step with BENCHMARK.json")
    results_dir = ROOT / ".perfbench_run" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{name}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    result["results_file"] = str(path.relative_to(ROOT))
    return result


def report(r: dict) -> None:
    """Human-readable lines for one workload."""
    env, th = r["environment"], r["threads"]
    print(f"{r['workload']}  seed={r['seed']} seconds={r['seconds']} trace={r['trace']}")
    print(
        f"  machine: nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']}"
        f" numpy={env['numpy']} scipy={env['scipy']}"
    )
    print(f"  blas: numpy {env['numpy_blas']}, scipy {env['scipy_blas']}")
    print(f"  threads: harness={th['harness']} blas={th['blas']} ({th['reason']})")
    for name, value in r["metrics"].items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:40s} {shown} {UNITS[name]}")
    if not r["trace"]:
        n = len(r["latencies_s"])
        unit = WORKLOADS[r["workload"]].work_unit
        print(f"  {'  = ' + unit + '_per_s':40s} ({unit} per second of op time)")
        print(f"  {'  setups (s)':40s} {', '.join(f'{s:.3f}' for s in r['setups_s'])}")
        print(f"  {'op_p50_ms':40s} {r['op_p50_ms']:.6g} ms (n={n})")
        if "tail" in r:
            p = r["tail"]["percentile"]
            print(f"  {f'op_p{p:g}_ms':40s} {r['tail']['ms']:.6g} ms (n={n}, "
                  f"{stats.samples_beyond(n, p)} beyond)")
    print(f"  {'failed_op_frac':40s} {r['failed'] / r['attempted']:.6g} "
          f"({r['failed']} of {r['attempted']} ops)")
    for problem in r["problems"]:
        print(f"  problem: {problem}")
    print(f"  full record: {r['results_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "permlearn" / "__init__.py").is_file():
        print("error: run from the root of a permlearn checkout (no src/permlearn)",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    try:
        results = [run_workload(name, args, deadline) for name in names]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for r in results:
        report(r)

    def metrics(r, prefix):
        return {prefix + k: {"value": v, "unit": UNITS[k]} for k, v in r["metrics"].items()}

    out = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for r in results:
        out["metrics"].update(metrics(r, "" if len(results) == 1 else r["workload"] + "."))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
