"""Command-line front end: generate, estimate, analyze, experiment.

Every run writes its artifacts plus a ``manifest.json`` recording the
subcommand, the fully resolved configuration, the seeds, the artifact names,
the package version, and the wall time. Files are written through a temporary
name and renamed into place, so a failed run leaves no partial artifact, and
all artifact bytes are independent of thread count (the manifest's wall-time
field is the single value that varies between reruns). The argument parser
is built once per process and serves every ``main`` call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    min_count_probability,
    mle_recovery_bound,
    mv_recovery_bound,
    required_sample_size,
    tv_distance,
    wasserstein1,
)
from .analysis.gaps import _gaps_and_risk
from .estimators import _estimate, summarize
from .harness import (
    _SPEC_FIELDS,
    FAMILIES,
    ExperimentSpec,
    _spec_fields,
    resolve_model,
    run_recovery_experiment,
)
from .mixtures import (
    LabeledData,
    Permutation,
    _json_text,
    _read_json,
    load_mixture,
    mixture_to_dict,
    sample_labeled,
)

__all__ = ["main"]

OUT_DIR_ENV = "PERMLEARN_OUT_DIR"
_DATA_STREAM = 0
# the gen flags that pin a synthetic truth, as ExperimentSpec arguments
_GEN_SPEC = ("family", "k", "dim", "eta", "seed")


def _number(kind, ok, rule: str):
    """argparse type: text parsed by kind (int or float), then checked by ok."""
    noun = "an integer" if kind is int else "a number"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {noun}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must {rule}")
        return value

    return parse


def _list_of(kind):
    """argparse type: comma-separated values parsed by kind (int or float)."""
    noun = "integers" if kind is int else "numbers"

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(part) for part in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}") from None

    return parse


_positive_int = _number(int, lambda v: v >= 1, "be >= 1")
_nonneg_int = _number(int, lambda v: v >= 0, "be >= 0")
_positive_float = _number(float, lambda v: v > 0.0, "be > 0")
_unit_float = _number(float, lambda v: 0.0 <= v < 1.0, "lie in [0, 1)")
_int_list = _list_of(int)
_float_list = _list_of(float)


def _family(text: str) -> str:
    name = text.replace("-", "_")
    if name not in FAMILIES:
        raise argparse.ArgumentTypeError(
            f"unknown family {text!r}; choose from "
            + ", ".join(f.replace("_", "-") for f in FAMILIES)
        )
    return name


# parse_args builds a fresh Namespace on each call, so one parser serves
# every main() call of a process
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permlearn",
        description="Learn label-to-region assignments of a known mixing measure.",
    )
    parser.add_argument("--version", action="version", version=f"permlearn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="draw a seeded synthetic mixing measure")
    gen.add_argument("--family", type=_family, required=True)
    gen.add_argument("--k", type=_positive_int, default=4)
    gen.add_argument("--dim", type=_positive_int, default=2)
    gen.add_argument("--eta", type=_positive_float, default=1.0)
    gen.add_argument("--seed", type=_nonneg_int, default=0)
    gen.add_argument(
        "--samples", type=_positive_int, default=None,
        help="also draw a labeled dataset of this size",
    )
    gen.add_argument("--out-dir", default=None)

    est = sub.add_parser("estimate", help="recover the assignment from labeled data")
    est.add_argument("--mixture", required=True)
    est.add_argument("--data", required=True)
    est.add_argument(
        "--method", choices=("mle", "mv", "greedy", "all"), default="all"
    )
    est.add_argument("--out-dir", default=None)

    ana = sub.add_parser("analyze", help="gaps, bounds, risk, and distances")
    ana.add_argument("--truth", default=None, help="true mixture JSON")
    ana.add_argument("--model", default=None, help="fitted mixture JSON (default: truth)")
    ana.add_argument("--true-perm", type=_int_list, default=None)
    ana.add_argument("--perm", type=_int_list, default=None,
                     help="candidate assignment for --risk (default --true-perm, "
                          "else identity)")
    ana.add_argument("--gap-mle", action="store_true")
    ana.add_argument("--gap-mv", action="store_true")
    ana.add_argument("--risk", action="store_true")
    ana.add_argument("--tv", nargs=2, metavar=("A", "B"), default=None,
                     help="total variation between two single-atom mixture files")
    ana.add_argument("--w1", nargs=2, metavar=("A", "B"), default=None,
                     help="transport distance between two mixture files")
    ana.add_argument("--required-n", choices=("mle", "mv"), default=None)
    ana.add_argument("--k", type=_positive_int, default=None)
    ana.add_argument("--delta", type=float, default=None)
    ana.add_argument("--value", type=_positive_float, default=None,
                     help="exponent (mle) or vote margin (mv) for --required-n")
    ana.add_argument("--mle-bound", action="store_true")
    ana.add_argument("--mv-bound", action="store_true")
    ana.add_argument("--counts", type=_int_list, default=None)
    ana.add_argument("--exponent", type=float, default=None)
    ana.add_argument("--gap", type=float, default=None)
    ana.add_argument("--min-count", action="store_true")
    ana.add_argument("--n", type=_positive_int, default=None)
    ana.add_argument("--probs", type=_float_list, default=None)
    ana.add_argument("--m", type=_nonneg_int, default=None)
    ana.add_argument("--mc", type=_positive_int, default=100_000,
                     help="Monte-Carlo sample size")
    ana.add_argument("--seed", type=_nonneg_int, default=0)
    ana.add_argument("--out-dir", default=None)

    exp = sub.add_parser("experiment", help="recovery curves over a sample-size grid")
    exp.add_argument("--spec", default=None, help="experiment spec JSON file")
    exp.add_argument("--family", type=_family, default=None)
    exp.add_argument("--k", type=_positive_int, default=None)
    exp.add_argument("--dim", type=_positive_int, default=None)
    exp.add_argument("--eta", type=_positive_float, default=None)
    exp.add_argument("--n-grid", type=_int_list, default=None)
    exp.add_argument("--trials", type=_positive_int, default=None)
    exp.add_argument("--rho", type=_unit_float, default=None, dest="label_noise",
                     metavar="RHO", help="label-noise rate")
    exp.add_argument("--seed", type=_nonneg_int, default=None)
    exp.add_argument("--threads", type=_positive_int, default=1,
                     help="accepted for compatibility; changes neither output nor speed")
    exp.add_argument("--out-dir", default=None)
    return parser


def _resolve_out_dir(arg: str | None) -> Path:
    out = arg or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_artifacts(
    out_dir: Path,
    command: str,
    config: dict,
    seeds: dict,
    texts: dict[str, str],
    started: float,
) -> list[str]:
    """Write artifacts then the manifest, each atomically; clean up on failure."""
    names = list(texts)
    manifest = {
        "command": command,
        "config": config,
        "seeds": seeds,
        "artifacts": names,
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    pending = dict(texts)
    pending["manifest.json"] = _json_text(manifest)
    temps = []
    try:
        for name, text in pending.items():
            tmp = out_dir / f".{name}.tmp"
            tmp.write_text(text)
            temps.append((tmp, out_dir / name))
        for tmp, final in temps:
            os.replace(tmp, final)
    except BaseException:
        for tmp, _ in temps:
            tmp.unlink(missing_ok=True)
        raise
    return names + ["manifest.json"]


def _cmd_gen(args, out_dir: Path, started: float) -> list[str]:
    config = {key: getattr(args, key) for key in (*_GEN_SPEC, "samples")}
    spec = ExperimentSpec(**{key: config[key] for key in _GEN_SPEC})
    if spec.family == "custom":
        raise ValueError("gen supports only the synthetic families")
    truth, true_perm, model = resolve_model(spec)
    texts = {"mixture.json": _json_text(mixture_to_dict(truth))}
    if spec.perturbed:
        texts["model.json"] = _json_text(mixture_to_dict(model))
    seeds: dict = {"root": args.seed}
    if args.samples is not None:
        data = sample_labeled(
            truth, true_perm, args.samples,
            np.random.default_rng([args.seed, _DATA_STREAM]),
        )
        texts["data.csv"] = data.csv_text()
        seeds["data_stream"] = [args.seed, _DATA_STREAM]
    return _write_artifacts(out_dir, "gen", config, seeds, texts, started)


def _cmd_estimate(args, out_dir: Path, started: float) -> list[str]:
    measure = load_mixture(args.mixture)
    data = LabeledData.load_csv(args.data)
    summary = summarize(measure, data)
    wanted = ("mle", "mv", "greedy") if args.method == "all" else (args.method,)
    result = {name: _estimate(name, summary) for name in wanted}
    config = {**{key: getattr(args, key) for key in ("mixture", "data", "method")}, "n": data.n}
    texts = {"estimate.json": _json_text(result)}
    return _write_artifacts(out_dir, "estimate", config, {}, texts, started)


def _require(args, request: str, flags) -> dict:
    """The values of the flags (by dest) that ``request`` reads, in order;
    the first one missing raises a ValueError naming it."""
    for flag in flags:
        if getattr(args, flag) is None:
            raise ValueError(f"{request} requires --{flag}")
    return {flag: getattr(args, flag) for flag in flags}


# analyze's bound formulas: result key (the request flag's dest) -> the
# function and the flags it reads, in argument order; each result echoes
# those flags and adds "value"
_FORMULAS = {
    "mle_bound": (mle_recovery_bound, ("k", "counts", "exponent")),
    "mv_bound": (mv_recovery_bound, ("k", "counts", "gap")),
    "min_count": (min_count_probability, ("n", "probs", "m")),
}


def _cmd_analyze(args, out_dir: Path, started: float) -> list[str]:
    results: dict = {}
    draw = args.gap_mle or args.gap_mv or args.risk
    # refuse the draw's inputs when no request reads them, before any file is read
    if args.perm is not None and not args.risk:
        raise ValueError("--perm requires --risk")
    for flag in ("truth", "model", "true_perm"):
        if getattr(args, flag) is not None and not draw:
            raise ValueError(f"--{flag.replace('_', '-')} requires --gap-mle, --gap-mv or --risk")

    if draw:
        if args.truth is None:
            raise ValueError("--gap-mle/--gap-mv/--risk require --truth")
        truth = load_mixture(args.truth)
        model = load_mixture(args.model) if args.model else truth
        true_perm = (
            Permutation(args.true_perm)
            if args.true_perm
            else Permutation.identity(truth.n_atoms)
        )
        which = {name for name, on in (("mle", args.gap_mle), ("mv", args.gap_mv)) if on}
        perm = None
        if args.risk:
            perm = Permutation(args.perm) if args.perm else true_perm
        found = _gaps_and_risk(model, truth, true_perm, args.mc, args.seed, which or None, perm)
        results.update((key, val) for key, val in zip(("gaps", "risk"), found) if val is not None)

    if args.tv is not None:
        a, b = (load_mixture(p) for p in args.tv)
        if a.n_atoms != 1 or b.n_atoms != 1:
            raise ValueError("--tv expects single-atom mixtures; use --w1 otherwise")
        results["tv"] = tv_distance(
            a.components[0], b.components[0], mc_samples=args.mc, seed=args.seed
        )

    if args.w1 is not None:
        a, b = (load_mixture(p) for p in args.w1)
        value, plan = wasserstein1(a, b, mc_samples=args.mc, seed=args.seed)
        results["w1"] = {"value": value, "plan": plan}

    if args.required_n is not None:
        inputs = _require(args, "--required-n", ("k", "delta", "value"))
        k, delta, value = inputs.values()
        n = required_sample_size(k, delta, args.required_n, value)
        results["required_n"] = {"method": args.required_n, **inputs, "n": n}

    for key, (formula, flags) in _FORMULAS.items():
        if getattr(args, key):
            inputs = _require(args, "--" + key.replace("_", "-"), flags)
            results[key] = {**inputs, "value": formula(*inputs.values())}

    if not results:
        raise ValueError("analyze: nothing requested; pass at least one computation flag")

    config = {
        key: val
        for key, val in vars(args).items()
        if key not in ("command", "out_dir")
        and val is not None
        and val is not False
    }
    texts = {"analysis.json": _json_text(results)}
    return _write_artifacts(
        out_dir, "analyze", config, {"root": args.seed}, texts, started
    )


def _cmd_experiment(args, out_dir: Path, started: float) -> list[str]:
    overrides = {key: getattr(args, key) for key in ("family", *_SPEC_FIELDS)}
    flags = {key: val for key, val in overrides.items() if val is not None}
    fields: dict = {}
    if args.spec is not None:
        spec_file = _read_json(args.spec)
        if not isinstance(spec_file, dict):
            raise ValueError(f"{args.spec}: an experiment spec must be a JSON object")
        # the file's fields that no flag overrides; their errors name the file
        try:
            fields = _spec_fields({k: v for k, v in spec_file.items() if k not in flags})
        except ValueError as exc:
            raise ValueError(f"{args.spec}: {exc}") from None
    fields.update(flags)
    if "family" not in fields:
        raise ValueError("experiment needs --family or a spec file with one")
    spec = ExperimentSpec(**fields)
    curve = run_recovery_experiment(spec, threads=args.threads)
    texts = {
        "curves.csv": curve.csv_text(),
        "experiment.json": _json_text(curve.sidecar_dict()),
    }
    # threads deliberately left out of the config echo: it cannot change results.
    return _write_artifacts(
        out_dir, "experiment", spec.to_dict(), {"root": spec.seed}, texts, started
    )


_HANDLERS = {
    "gen": _cmd_gen,
    "estimate": _cmd_estimate,
    "analyze": _cmd_analyze,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        out_dir = _resolve_out_dir(args.out_dir)
        written = _HANDLERS[args.command](args, out_dir, started)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name in written:
        print(out_dir / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
