"""One workload in one process: set up, say READY, run the ops, report.

Started by ``run.py`` as ``python3 -m perfbench.worker`` from the checkout
root, with the BLAS thread setting of the workload already in its
environment. Prints ``READY`` when set-up (imports, inputs, warm-up) is
done, then, unless ``--setup-only``, one JSON line with the results.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
RUN_DIR = ROOT / ".perfbench_run"
sys.path.insert(0, str(ROOT / "src"))

from perfbench.catalog import DEFAULT_SEED, WORKLOADS  # noqa: E402
from perfbench.layers import CLI_BYTES, instrument, layer_metrics  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOAD_CLASSES  # noqa: E402

REFERENCE = Path(__file__).with_name("reference.json")
MAX_PROBLEMS = 20


@dataclass
class Tally:
    latencies: list = field(default_factory=list)  # seconds, failed ops included
    op_seconds: float = 0.0
    work: int = 0  # work units of ops that passed
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def artifact_bytes(out_dir: Path) -> int:
    """Bytes of the artifacts the last CLI run listed, manifest excluded."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return sum((out_dir / name).stat().st_size for name in manifest["artifacts"])


def run_op(op, tally: Tally, tracer: Tracer | None = None, op_id: int = 0) -> None:
    tally.attempted += 1
    try:
        if tracer is not None:
            tracer.begin_op(op_id)
        start = time.perf_counter()
        try:
            result = op.run()
        finally:
            elapsed = time.perf_counter() - start
            tally.op_seconds += elapsed
            tally.latencies.append(elapsed)
            if tracer is not None:
                tracer.end_op()
        if tracer is not None and op.out_dir is not None:
            tracer.count(CLI_BYTES, artifact_bytes(op.out_dir))
        problems = op.check(result)
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op
        problems = [f"{op.key}: {type(exc).__name__}: {exc}"]
    if problems:
        tally.failed += 1
        tally.problems.extend(problems[: MAX_PROBLEMS - len(tally.problems)])
    else:
        tally.work += op.work


def timed_run(workload, seconds: float) -> Tally:
    """Whole rounds until the round boundary nearest the deadline."""
    tally = Tally()
    start = time.perf_counter()
    for r in itertools.count():
        for op in workload.round(r):
            run_op(op, tally)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / (r + 1) >= seconds:
            return tally


def traced_run(workload, trace_path: Path) -> tuple[Tally, dict]:
    """The same fixed rounds untraced and traced, interleaved round by round."""
    untraced, traced, tracer = Tally(), Tally(), Tracer()
    op_id = itertools.count()
    for r in range(workload.trace_rounds):
        ops = workload.round(r)
        for op in ops:
            run_op(op, untraced)
        instrument(tracer)
        try:
            for op in ops:
                run_op(op, traced, tracer, next(op_id))
        finally:
            tracer.restore()
    overhead = traced.op_seconds / untraced.op_seconds - 1.0
    metrics = layer_metrics(tracer, overhead)
    tracer.write_jsonl(trace_path)
    both = Tally(
        latencies=untraced.latencies + traced.latencies,
        op_seconds=untraced.op_seconds + traced.op_seconds,
        work=untraced.work + traced.work,
        attempted=untraced.attempted + traced.attempted,
        failed=untraced.failed + traced.failed,
        problems=(untraced.problems + traced.problems)[:MAX_PROBLEMS],
    )
    return both, metrics


def environment() -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = RUN_DIR / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text()).get(args.workload)
    try:
        workload = WORKLOAD_CLASSES[args.workload](args.seed, workdir, reference)
        warm = Tally()
        for op in workload.warmup_ops():
            run_op(op, warm)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = {"environment": environment()}
        if args.trace:
            trace_path = RUN_DIR / "traces" / f"{args.workload}-s{args.seed}.jsonl"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            tally, result["per_layer"] = traced_run(workload, trace_path)
            result["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            tally = timed_run(workload, args.seconds)
        result.update(
            attempted=warm.attempted + tally.attempted,
            failed=warm.failed + tally.failed,
            problems=(warm.problems + tally.problems)[:MAX_PROBLEMS],
            latencies_s=tally.latencies,
            op_seconds=tally.op_seconds,
            work=tally.work,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
