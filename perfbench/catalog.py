"""Static facts about each workload, importable without numpy.

The parent process reads the BLAS setting from here before it starts a
worker, because OpenBLAS reads its thread count once, at import.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Entry:
    work_unit: str  # what work_per_s counts on this workload
    harness_threads: int
    blas_threads: int | None  # None: OpenBLAS's own default (one per core)
    blas_reason: str


WORKLOADS = {
    "recovery_k16": Entry(
        work_unit="cells",
        harness_threads=2,
        blas_threads=1,
        blas_reason=(
            "2 harness threads each doing their own BLAS fill 2 cores; OpenBLAS's"
            " default would add a pool thread (3 on 2 cores), though on a 2-core"
            " Xeon it ran ~30% faster"
        ),
    ),
    "recovery_k2_fine": Entry(
        work_unit="cells",
        harness_threads=1,
        blas_threads=1,
        blas_reason=(
            "single-threaded path; on a 2-core Xeon, pinning BLAS left its speed"
            " unchanged and narrowed run-to-run spread (9.2-11.1 s to 9.95-10.45 s"
            " over 60 ops)"
        ),
    ),
    "analysis_mc": Entry(
        work_unit="mc_samples",
        harness_threads=1,
        blas_threads=None,
        blas_reason=(
            "one Python thread, so OpenBLAS's default (caller plus one pool thread)"
            " stays within nproc; it is what analyze runs with"
        ),
    ),
    "transport_1d": Entry(
        work_unit="tv_pairs",
        harness_threads=1,
        blas_threads=None,
        blas_reason=(
            "one Python thread, so OpenBLAS's default (caller plus one pool thread)"
            " stays within nproc; it is what analyze runs with"
        ),
    ),
}
