"""The four workloads: inputs made from the seed, the ops of each round, checks.

A workload is a closed loop with one client. Its ops come in rounds, and a
run repeats rounds until its time is up, so every run does whole rounds and
the same mix of ops. Op inputs are made from the workload seed only and
written to files the program reads (mixture JSON and experiment specs).

Ops go through ``permlearn.cli.main`` in-process, except
``chernoff_exponent``, which the CLI does not expose. Both are looked up on
their modules at call time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.special import ndtri

import permlearn as pl
from permlearn import cli
from permlearn.harness import resolve_model

from . import checks

# criterion 04's grid: geomspace(4, 4096, 49) rounded, 48 distinct sizes
K2_GRID = tuple(int(v) for v in np.unique(np.rint(np.geomspace(4, 4096, 49))))
K2_MUS = (0.1, 0.2, 0.25, 0.4)
GAPS_MC = 100_000
W1_MC = 20_000
CHERNOFF_MC = 100_000


def derive(seed: int, *tags: int) -> int:
    """A per-op seed drawn from the workload seed and the op's tags."""
    return int(np.random.default_rng([seed, *tags]).integers(2**31 - 1))


@dataclass
class Op:
    key: str  # names the op's input; equal keys mean equal inputs
    work: int  # work units (see catalog.Entry.work_unit)
    run: Callable[[], Any]  # the timed call
    check: Callable[[Any], list[str]]  # problems with run's result
    record: Callable[[Any], Any]  # what reference.json keeps for this op
    out_dir: Path | None = None  # where a CLI op writes its artifacts


def _cli_call(argv: list[str], out_dir: Path) -> Callable[[], int]:
    args = [*argv, "--out-dir", str(out_dir)]

    def run() -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(args)

    return run


def _exit_ok(rc: int) -> list[str]:
    """Warm-up ops only check the exit code, so set-up times no checking."""
    return [] if rc == 0 else [f"warm-up exit code {rc}"]


def _two_atom(mu: float) -> pl.MixingMeasure:
    return pl.MixingMeasure(
        [0.5, 0.5], [pl.Gaussian([-mu], [[1.0]]), pl.Gaussian([mu], [[1.0]])]
    )


class Workload:
    """Inputs and ops of one workload at one seed."""

    distinct_rounds = 1  # rounds r and r + distinct_rounds have equal inputs
    trace_rounds = 1  # rounds in each pass of the traced run

    def __init__(self, seed: int, workdir: Path, reference: dict | None):
        self.seed = seed
        self.inputs = workdir / "inputs"
        self.out = workdir / "out"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)
        self.reference = reference

    def warmup_ops(self) -> list[Op]:
        raise NotImplementedError

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def _against_reference(self, key: str, got: dict) -> list[str]:
        if self.reference is None:
            return []
        ref = self.reference.get(key)
        if ref is None:
            return [f"{key}: no reference value"]
        return [
            f"{key}: {name} {got.get(name)} differs from reference {value}"
            for name, value in ref.items()
            if not checks.close(got.get(name), value)
        ]

    def _analysis(self) -> dict:
        return json.loads((self.out / "analysis.json").read_text())


# -- recovery curves -----------------------------------------------------------


class _Recovery(Workload):
    def __init__(self, seed, workdir, reference):
        super().__init__(seed, workdir, reference)
        self._first: dict[str, str] = {}
        self._ops = [
            Op(
                key=str(j),
                work=spec.trials * len(spec.n_grid) * len(checks.ESTIMATORS),
                run=_cli_call(argv, self.out),
                check=functools.partial(self._check, str(j), spec),
                record=functools.partial(self._record, spec),
                out_dir=self.out,
            )
            for j, (spec, argv) in enumerate(self._experiments())
        ]

    def _experiments(self) -> list[tuple[pl.ExperimentSpec, list[str]]]:
        raise NotImplementedError

    def warmup_ops(self) -> list[Op]:
        return [dataclasses.replace(self._ops[0], key="warmup", check=_exit_ok)]

    def round(self, r: int) -> list[Op]:
        return self._ops

    def _curves(self) -> str:
        return (self.out / "curves.csv").read_text()

    def _check(self, key: str, spec, rc: int) -> list[str]:
        if rc != 0:
            return [f"{key}: exit code {rc}"]
        text = self._curves()
        cells, problems = checks.curve_cells(text, spec)
        if problems:
            return [f"{key}: {p}" for p in problems]
        first = self._first.get(key)
        if first is not None:
            return [] if text == first else [f"{key}: curves.csv differs from its first run"]
        self._first[key] = text
        rng = np.random.default_rng([self.seed, int(key)])
        sample = set(rng.choice(spec.n_grid[:-1], 2, replace=False).tolist())
        ns = sorted(sample | {spec.n_grid[-1]})
        problems = checks.compare_cells(
            cells, checks.recompute_cells(spec, ns), f"{key} vs library"
        )
        if self.reference is not None:
            ref = self.reference.get(key)
            if ref is None or ref["seed"] != spec.seed:
                problems.append(f"{key}: no reference for seed {spec.seed}")
            else:
                expected = {(c[0], c[1]): (c[2:6], c[6]) for c in ref["cells"]}
                problems += checks.compare_cells(cells, expected, f"{key} vs reference")
        return problems

    def _record(self, spec, rc: int) -> dict:
        cells, _ = checks.curve_cells(self._curves(), spec)
        return {
            "seed": spec.seed,
            "cells": [[est, n, *ints, ll] for (est, n), (ints, ll) in cells.items()],
        }


class RecoveryK16(_Recovery):
    trace_rounds = 12

    def _experiments(self):
        out = []
        for j in range(8):
            seed = derive(self.seed, 16, j)
            spec = pl.ExperimentSpec(
                family="gaussian_grid", k=16, dim=2, eta=0.5, trials=5, seed=seed
            )
            argv = [
                "experiment", "--family", "gaussian-grid", "--k", "16", "--dim", "2",
                "--eta", "0.5", "--trials", "5", "--threads", "2", "--seed", str(seed),
            ]
            out.append((spec, argv))
        return out


class RecoveryK2Fine(_Recovery):
    trace_rounds = 8

    def _experiments(self):
        out = []
        for j in range(8):
            measure = _two_atom(K2_MUS[j % len(K2_MUS)])
            spec = pl.ExperimentSpec(
                family="custom", n_grid=K2_GRID, trials=10, seed=derive(self.seed, 2, j),
                true_mixture=measure, model_mixture=measure,
            )
            path = self.inputs / f"spec_{j}.json"
            path.write_text(json.dumps(spec.to_dict()))
            out.append((spec, ["experiment", "--spec", str(path), "--threads", "1"]))
        return out


# -- Monte-Carlo analysis ----------------------------------------------------------


class AnalysisMC(Workload):
    """Two K=9 nested-mixture instances, one per round, alternating."""

    distinct_rounds = 2

    def __init__(self, seed, workdir, reference):
        super().__init__(seed, workdir, reference)
        self._mle_gap: dict[int, float] = {}
        self._instances = []
        for i in range(2):
            inst_seed = derive(seed, 9, i)
            spec = pl.ExperimentSpec(
                family="mixture_of_mixtures_perturbed", k=9, dim=2, eta=1.0, seed=inst_seed
            )
            truth, _, model = resolve_model(spec)
            truth_path, model_path = self.inputs / f"truth_{i}.json", self.inputs / f"model_{i}.json"
            pl.save_mixture(truth, truth_path)
            pl.save_mixture(model, model_path)
            self._instances.append((inst_seed, truth, str(truth_path), str(model_path)))
        self._rounds = [self._instance_ops(i) for i in range(2)]

    def _instance_ops(self, i: int) -> list[Op]:
        inst_seed, truth, truth_path, model_path = self._instances[i]
        k = truth.n_atoms
        gaps_argv = [
            "analyze", "--truth", truth_path, "--gap-mle", "--gap-mv", "--risk",
            "--mc", str(GAPS_MC), "--seed", str(inst_seed),
        ]
        w1_argv = [
            "analyze", "--w1", truth_path, model_path, "--mc", str(W1_MC),
            "--seed", str(inst_seed),
        ]
        ops = [
            Op(f"{i}.gaps", 2 * GAPS_MC, _cli_call(gaps_argv, self.out),
               functools.partial(self._check_gaps, i), self._record_gaps, self.out),
            Op(f"{i}.w1", k * k * W1_MC, _cli_call(w1_argv, self.out),
               functools.partial(self._check_w1, f"{i}.w1"), self._record_w1, self.out),
        ]
        for b in range(1, k + 1):
            key = f"{i}.chernoff.{b}"
            ops.append(Op(
                key, CHERNOFF_MC,
                functools.partial(self._chernoff, i, b, derive(inst_seed, b)),
                functools.partial(self._check_chernoff, key),
                lambda est: {"value": est.value},
            ))
        return ops

    def _chernoff(self, i: int, atom: int, seed: int, samples: int = CHERNOFF_MC, t=None):
        truth = self._instances[i][1]
        if t is None and i not in self._mle_gap:
            raise RuntimeError("no MLE gap: this instance's gaps op failed")
        margin = self._mle_gap[i] / 3.0 if t is None else t
        return pl.chernoff_exponent(truth, atom, margin, samples=samples, seed=seed)

    def warmup_ops(self) -> list[Op]:
        _, _, truth_path, model_path = self._instances[0]
        return [
            Op("warmup.gaps", 0, _cli_call(
                ["analyze", "--truth", truth_path, "--gap-mle", "--gap-mv", "--risk",
                 "--mc", "2000"], self.out), _exit_ok, dict, self.out),
            Op("warmup.w1", 0, _cli_call(
                ["analyze", "--w1", truth_path, model_path, "--mc", "100"], self.out),
               _exit_ok, dict, self.out),
            Op("warmup.chernoff", 0,
               functools.partial(self._chernoff, 0, 1, 0, samples=2000, t=0.1),
               checks.check_chernoff, dict),
        ]

    def round(self, r: int) -> list[Op]:
        return self._rounds[r % 2]

    def _gaps_values(self) -> dict:
        a = self._analysis()
        return {
            "mle_gap": a["gaps"]["mle_gap"], "mv_gap": a["gaps"]["mv_gap"],
            "risk_rate": a["risk"]["rate"], "bayes_rate": a["risk"]["bayes_rate"],
        }

    def _check_gaps(self, i: int, rc: int) -> list[str]:
        if rc != 0:
            return [f"{i}.gaps: exit code {rc}"]
        problems = checks.check_gaps_risk(self._analysis())
        if problems:
            return [f"{i}.gaps: {p}" for p in problems]
        values = self._gaps_values()
        self._mle_gap[i] = values["mle_gap"]
        return self._against_reference(f"{i}.gaps", values)

    def _record_gaps(self, rc: int) -> dict:
        return self._gaps_values()

    def _check_w1(self, key: str, rc: int) -> list[str]:
        if rc != 0:
            return [f"{key}: exit code {rc}"]
        a = self._analysis()
        problems = checks.check_w1(a, "mc")
        return [f"{key}: {p}" for p in problems] or self._against_reference(
            key, {"value": a["w1"]["value"]}
        )

    def _record_w1(self, rc: int) -> dict:
        return {"value": self._analysis()["w1"]["value"]}

    def _check_chernoff(self, key: str, est) -> list[str]:
        problems = checks.check_chernoff(est)
        return [f"{key}: {p}" for p in problems] or self._against_reference(
            key, {"value": est.value}
        )


# -- 1-d transport -----------------------------------------------------------------


def _three_atom(rng) -> pl.MixingMeasure:
    """Criterion 08's random measure: three 1-d Gaussians."""
    weights = rng.dirichlet(np.ones(3) * 2.0)
    atoms = [
        pl.Gaussian([rng.uniform(-3, 3)], [[rng.uniform(0.5, 1.5) ** 2]])
        for _ in range(3)
    ]
    return pl.MixingMeasure(weights, atoms)


def _mixture_atoms(rng) -> pl.MixingMeasure:
    """Two GaussianMixture atoms, each three equal parts 0.6 apart."""
    atoms = []
    for _ in range(2):
        center = rng.uniform(-2, 2)
        parts = [pl.Gaussian([center + off], [[0.49]]) for off in (-0.6, 0.0, 0.6)]
        atoms.append(pl.GaussianMixture(np.full(3, 1.0 / 3.0), parts))
    return pl.MixingMeasure(rng.dirichlet(np.ones(2) * 4.0), atoms)


def _kde_atoms(rng) -> pl.MixingMeasure:
    """Three KDE atoms of 50 points (h=0.3): normal quantiles, jittered, shifted."""
    quantiles = ndtri((np.arange(50) + 0.5) / 50)
    atoms = [
        pl.KernelDensity(rng.uniform(-3, 3) + quantiles + rng.normal(0, 0.05, 50), 0.3)
        for _ in range(3)
    ]
    return pl.MixingMeasure(rng.dirichlet(np.ones(3) * 4.0), atoms)


def _twelve_atom(rng) -> pl.MixingMeasure:
    weights = rng.dirichlet(np.ones(12) * 2.0)
    atoms = [
        pl.Gaussian([rng.uniform(-6, 6)], [[rng.uniform(0.5, 1.5) ** 2]])
        for _ in range(12)
    ]
    return pl.MixingMeasure(weights, atoms)


class Transport1D(Workload):
    """W1 by quadrature; every round computes the same set of pairs."""

    N_THREE = 10
    N_SINGLE = 6
    N_MIXTURE = 2
    N_KDE = 1

    def __init__(self, seed, workdir, reference):
        super().__init__(seed, workdir, reference)
        rng = np.random.default_rng([seed, 1])
        self._atoms: dict[Path, int] = {}
        self._values: dict[str, float] = {}
        self._single: dict[str, float] = {}
        ops = []
        for k in range(self.N_THREE):
            a, b = self._save(f"three{k}", _three_atom(rng), _three_atom(rng))
            ops.append(self._w1(f"three.{k}.ab", a, b))
            if k < 2:
                ops.append(self._w1(f"three.{k}.ba", b, a))
            if k == 0:
                ops.append(self._w1(f"three.{k}.aa", a, a))
        for j in range(self.N_SINGLE):
            m1, m2 = rng.uniform(-3, 3, 2)
            sigma = rng.uniform(0.5, 2.0)
            a, b = self._save(
                f"single{j}",
                pl.MixingMeasure([1.0], [pl.Gaussian([m1], [[sigma**2]])]),
                pl.MixingMeasure([1.0], [pl.Gaussian([m2], [[sigma**2]])]),
            )
            self._single[f"single.{j}"] = checks.equal_variance_tv(m1, m2, sigma)
            ops.append(self._w1(f"single.{j}", a, b))
        for k in range(self.N_MIXTURE):
            a, b = self._save(f"mixture{k}", _mixture_atoms(rng), _mixture_atoms(rng))
            ops.append(self._w1(f"mixture.{k}.ab", a, b))
            if k == 0:
                ops.append(self._w1(f"mixture.{k}.ba", b, a))
        for k in range(self.N_KDE):
            a, b = self._save(f"kde{k}", _kde_atoms(rng), _kde_atoms(rng))
            ops.append(self._w1(f"kde.{k}.ab", a, b))
        a, b = self._save("twelve0", _twelve_atom(rng), _twelve_atom(rng))
        ops.append(self._w1("twelve.0.ab", a, b))
        self._ops = ops
        self._warm = self._save(
            "warmup",
            pl.MixingMeasure([1.0], [pl.Gaussian([0.0], [[1.0]])]),
            pl.MixingMeasure([1.0], [pl.Gaussian([1.0], [[1.0]])]),
        )

    def _save(self, name: str, a, b) -> tuple[Path, Path]:
        paths = self.inputs / f"{name}_a.json", self.inputs / f"{name}_b.json"
        for path, measure in zip(paths, (a, b)):
            pl.save_mixture(measure, path)
            self._atoms[path] = measure.n_atoms
        return paths

    def _w1(self, key: str, a: Path, b: Path) -> Op:
        argv = ["analyze", "--w1", str(a), str(b)]
        return Op(key, self._atoms[a] * self._atoms[b], _cli_call(argv, self.out),
                  functools.partial(self._check, key), self._record, self.out)

    def warmup_ops(self) -> list[Op]:
        argv = ["analyze", "--w1", *map(str, self._warm)]
        return [Op("warmup", 0, _cli_call(argv, self.out), _exit_ok, dict, self.out)]

    def round(self, r: int) -> list[Op]:
        return self._ops

    def _record(self, rc: int) -> dict:
        return {"value": self._analysis()["w1"]["value"]}

    def _check(self, key: str, rc: int) -> list[str]:
        if rc != 0:
            return [f"{key}: exit code {rc}"]
        a = self._analysis()
        problems = checks.check_w1(a, "quadrature")
        value = a["w1"]["value"]
        self._values[key] = value
        if key.endswith(".aa") and value != 0.0:
            problems.append(f"W1(a, a) = {value!r}, not exactly 0")
        if key.endswith(".ba"):
            forward = self._values.get(key[:-3] + ".ab")
            if forward is None or abs(forward - value) > checks.SYMMETRY_TOL:
                problems.append(f"W1(b, a) = {value!r} but W1(a, b) = {forward!r}")
        if key in self._single:
            closed = self._single[key]
            if abs(value - closed) > checks.CLOSED_FORM_TOL:
                problems.append(f"W1 {value!r} vs closed form {closed!r}")
        return [f"{key}: {p}" for p in problems] or self._against_reference(
            key, {"value": value}
        )


WORKLOAD_CLASSES = {
    "recovery_k16": RecoveryK16,
    "recovery_k2_fine": RecoveryK2Fine,
    "analysis_mc": AnalysisMC,
    "transport_1d": Transport1D,
}
