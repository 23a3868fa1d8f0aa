"""Command line interface.

Subcommands: fit, simulate, diagnose, bench, presets. Every run writes
its artifacts into --out through a temp-dir-plus-rename, so a failed or
interrupted run never leaves a partial output directory, and a rerun
with identical inputs reproduces the payload files byte for byte (the
manifest's duration field is the one exception).

Exit codes: 0 success, 2 input or configuration problem, 3 numeric
failure, 4 sampler failure. Errors print one machine-parsable line to
stderr. A reader that closes stdout early (`compscore presets list |
head -1`) is not an error: the run exits 0 and prints nothing more.
"""

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__, _parallel, registry
from .core import FAMILIES, ModelSpec, counts_to_proportions, sqrt_transform
from .diagnostics import marginal_report
from .errors import (
    CompscoreError,
    ConfigError,
    SamplerError,
    SingularSystemError,
    StudyFailureError,
)
from .io import (
    counts_csv,
    csv_text,
    dump_json,
    fit_to_csv_rows,
    model_spec_from_fit,
    model_spec_to_dict,
    proportions_csv,
    read_counts_csv,
    read_proportions_csv,
    sha256_file,
    write_output_dir,
)
from .samplers import RngConfig, sample_model, sample_multinomial_counts
from .study import StudyConfig, _cast, check_route, fit_route, run_study
from .weights import KINDS, WeightSpec, cap_from_quantile

__all__ = ["main"]


def _parse_exclude(text):
    if not text:
        return ()
    try:
        idx = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ConfigError(f"--exclude-rows expects comma-separated integers, got {text!r}")
    if any(i < 0 for i in idx):
        raise ConfigError("--exclude-rows indices are 0-based and nonnegative")
    return idx


def _read_data(path, kind, exclude):
    """The rows of a data CSV as proportions, and its counts (None for
    proportions data), without the rows whose 0-based indices are in exclude."""
    if kind == "counts":
        counts = read_counts_csv(path, exclude_rows=exclude)
        return counts_to_proportions(counts), counts
    return read_proportions_csv(path, exclude_rows=exclude), None


def _number(value, what, parse=False):
    """value as a float. A config value must be a JSON number (study._cast);
    argv text such as --ac 0.2 is parsed."""
    try:
        return float(value) if parse else _cast(value, float)
    except (ValueError, OverflowError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


def _load_config(path, known):
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    if data.get("schema_version") != 1:
        raise ConfigError(f"{path}: schema_version must be 1")
    unknown = sorted(set(data) - set(known) - {"schema_version"})
    if unknown:
        raise ConfigError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    return data


def _manifest(subcommand, seed, inputs, config, started, extra=None):
    doc = {
        "schema_version": 1,
        "subcommand": subcommand,
        "tool_version": __version__,
        "seed": int(seed),
        "inputs": {path: sha256_file(path) for path in inputs},
        "config": config,
        "duration_seconds": round(time.monotonic() - started, 3),
        "blas_pinned": _parallel.openblas() is not None,
        "pool_workers": _parallel.executor()._max_workers,
    }
    if extra:
        doc.update(extra)
    return doc


def _resolve_weight(config_weight, arg_weight, arg_ac, data=None):
    if config_weight is not None and not isinstance(config_weight, dict):
        raise ConfigError(f"weight must be a JSON object, got {config_weight!r}")
    cfg = dict(config_weight or {})
    unknown = sorted(set(cfg) - {"kind", "a_c"})
    if unknown:
        raise ConfigError(f"unknown weight config key(s): {', '.join(unknown)}")
    kind = arg_weight or cfg.get("kind", "capped-min")
    if kind not in KINDS:
        raise ConfigError(f"unknown weight kind {kind!r}; valid: {', '.join(KINDS)}")
    capped = kind in ("capped-min", "capped-product")
    a_c = cfg.get("a_c")
    if arg_ac is not None:
        if not capped:
            raise ConfigError(f"--ac does not apply to the uncapped kind {kind!r}")
        if arg_ac.startswith("auto"):
            quantile = 0.90
            if ":" in arg_ac:
                quantile = _number(arg_ac.split(":", 1)[1], "the --ac auto quantile", parse=True)
            if data is None:
                raise ConfigError("--ac auto needs per-observation data")
            a_c = cap_from_quantile(sqrt_transform(data), kind, quantile)
        else:
            a_c = _number(arg_ac, "--ac", parse=True)
    if capped:
        return WeightSpec(kind, 0.1 if a_c is None else _number(a_c, "weight a_c"))
    return WeightSpec(kind)


# ---------------------------------------------------------------------------
# fit


_FIT_KEYS = (
    "family",
    "data_kind",
    "shape",
    "estimate_interaction",
    "estimate_linear",
    "weight",
    "estimator",
    "ridge",
)


def cmd_fit(args):
    started = time.monotonic()
    cfg = _load_config(args.config, _FIT_KEYS)
    family = cfg.get("family")
    if family not in FAMILIES:
        raise ConfigError(f"config family must be set; got {family!r}")
    data_kind = cfg.get("data_kind", "proportions")
    if data_kind not in ("proportions", "counts"):
        raise ConfigError(f"data_kind must be proportions or counts, got {data_kind!r}")
    estimator = args.estimator or cfg.get("estimator", "continuous")
    if estimator not in ("continuous", "factorial", "moment"):
        raise ConfigError(f"estimator must be continuous, factorial or moment, got {estimator!r}")
    check_route(family, estimator, data_kind == "counts")
    shape = cfg.get("shape")
    if family == "hybrid" and shape is None:
        raise ConfigError("hybrid fits need a shape vector in the config")
    if family == "dirichlet" and shape is not None:
        raise ConfigError("dirichlet fits estimate shapes; remove shape from config")
    ridge = _number(cfg.get("ridge", 0.0), "ridge")
    exclude = _parse_exclude(args.exclude_rows)
    data, counts = _read_data(args.data, data_kind, exclude)
    spec = ModelSpec(
        family,
        data.p,
        shape=shape,
        estimate_interaction=cfg.get("estimate_interaction", True),
        estimate_linear=cfg.get("estimate_linear", False),
    )

    weight = None
    if estimator != "moment":
        auto_data = data if estimator == "continuous" else None
        weight = _resolve_weight(cfg.get("weight"), args.weight, args.ac, auto_data)
        if estimator == "factorial" and weight.kind != "product":
            if args.weight or cfg.get("weight"):
                raise ConfigError("the factorial route supports only the product weight")
            weight = WeightSpec("product")
    result = fit_route(spec, estimator, data, counts, weight, ridge)

    resolved = dict(cfg)
    resolved["estimator"] = estimator
    if weight is not None:
        resolved["weight"] = {"kind": weight.kind, "a_c": weight.a_c}
    if exclude:
        resolved["exclude_rows"] = list(exclude)

    files = {
        "fit.json": dump_json(result.to_dict()),
        "fit.csv": csv_text(fit_to_csv_rows(result)),
    }
    files["manifest.json"] = dump_json(
        _manifest("fit", args.seed, [args.data, args.config], resolved, started)
    )
    write_output_dir(args.out, files)
    print(f"fit written to {args.out} ({len(result.labels)} parameters, n={result.n})")
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args):
    started = time.monotonic()
    entry = registry.get(args.model)
    if args.n < 1:
        raise ConfigError("--n must be positive")
    rng = RngConfig(args.seed)
    latent, stats = sample_model(entry.spec, args.n, rng.substream(0), return_stats=True)
    totals = args.totals if args.totals is not None else entry.default_totals

    files = {}
    sidecar = {
        "model": entry.name,
        "spec": model_spec_to_dict(entry.spec),
        "n": int(args.n),
        "seed": int(args.seed),
        "totals": None if totals is None else int(totals),
    }
    if stats is not None:
        sidecar["rejection"] = stats.to_dict()
    if totals is not None:
        counts = sample_multinomial_counts(latent, totals, rng.substream(1))
        files["counts.csv"] = counts_csv(counts)
        files["latent.csv"] = proportions_csv(latent)
    else:
        files["data.csv"] = proportions_csv(latent)
    files["sidecar.json"] = dump_json(sidecar)
    files["manifest.json"] = dump_json(
        _manifest("simulate", args.seed, [], sidecar, started)
    )
    write_output_dir(args.out, files)
    print(f"simulated {args.n} rows from {entry.name} into {args.out}")
    return 0


# ---------------------------------------------------------------------------
# diagnose


def cmd_diagnose(args):
    started = time.monotonic()
    data = _read_data(args.data, args.data_kind, _parse_exclude(args.exclude_rows))[0]
    spec = model_spec_from_fit(_read_json(args.fit))
    rng = RngConfig(args.seed).substream(0)
    report = marginal_report(
        data,
        spec,
        rng,
        n_sim=args.n_sim,
        grid_totals=args.grid_totals,
        qq_points=args.qq,
    )
    files = {"report.json": dump_json(report.to_dict())}
    if args.qq:
        probs = (np.arange(args.qq) + 0.5) / args.qq
        rows = [["category", "prob", "observed", "simulated"]]
        for name, (obs_q, sim_q) in report.qq.items():
            rows += [[name, *cells] for cells in zip(probs, obs_q, sim_q)]
        files["qq.csv"] = csv_text(rows)
    resolved = {
        "data_kind": args.data_kind,
        "n_sim": int(args.n_sim),
        "grid_totals": None if args.grid_totals is None else int(args.grid_totals),
        "qq": int(args.qq),
    }
    extra = None if report.rejection is None else {"rejection": report.rejection.to_dict()}
    files["manifest.json"] = dump_json(
        _manifest("diagnose", args.seed, [args.data, args.fit], resolved, started, extra=extra)
    )
    write_output_dir(args.out, files)
    worst = min(report.categories, key=lambda c: c.ks_pvalue)
    print(
        f"diagnostic report written to {args.out} "
        f"(smallest KS p-value {worst.ks_pvalue:.3g} for {worst.name})"
    )
    return 0


# ---------------------------------------------------------------------------
# bench


_BENCH_KEYS = tuple(f.name for f in dataclasses.fields(StudyConfig))


def cmd_bench(args):
    started = time.monotonic()
    cfg = _load_config(args.config, _BENCH_KEYS)
    if "model" not in cfg:
        raise ConfigError(f"{args.config}: a study config needs a model")
    kwargs = {key: value for key, value in cfg.items() if key in _BENCH_KEYS}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    config = StudyConfig(**kwargs)
    summary = run_study(config)

    records = summary.to_rows()
    rows = [list(records[0]), *(row.values() for row in records)]
    rep_rows = [["estimator", "replicate", "parameter", "estimate", "se_estimate"]]
    for est in sorted(summary.replicate_estimates):
        est_mat = summary.replicate_estimates[est]
        vals, ses = est_mat.tolist(), summary.replicate_se[est].tolist()
        # failed replicates hold NaN estimates and get no rows
        rep_rows += [[est, r, summary.labels[i], vals[r][i], ses[r][i]]
                     for r, i in np.argwhere(~np.isnan(est_mat)).tolist()]

    resolved = dict(cfg)
    resolved["seed"] = config.seed
    files = {
        "summary.csv": csv_text(rows),
        "replicates.csv": csv_text(rep_rows),
        "manifest.json": dump_json(
            _manifest(
                "bench",
                config.seed,
                [args.config],
                resolved,
                started,
                extra={"failures": {str(k): v for k, v in summary.failures.items()}},
            )
        ),
    }
    write_output_dir(args.out, files)
    print(
        f"study written to {args.out} "
        f"({config.replicates} replicates of {config.model}, "
        f"estimators {list(config.estimators)})"
    )
    return 0


# ---------------------------------------------------------------------------
# presets


def cmd_presets(args):
    header = f"{'name':<9} {'family':<20} {'p':>2} {'totals':>6} {'cap_min':>8} {'cap_prod':>9}  description"
    print(header)
    print("-" * len(header))
    for entry in registry.entries():
        totals = entry.default_totals if entry.discrete else "-"
        print(
            f"{entry.name:<9} {entry.spec.family:<20} {entry.spec.p:>2} "
            f"{totals!s:>6} {entry.cap_min:>8g} {entry.cap_product:>9g}  {entry.description}"
        )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="compscore",
        description="Closed-form score matching for compositional models",
    )
    parser.add_argument("--version", action="version", version=f"compscore {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model to a CSV dataset")
    fit.add_argument("--data", required=True, help="input CSV (header of names)")
    fit.add_argument("--config", required=True, help="fit config JSON")
    fit.add_argument("--out", required=True, help="output directory")
    fit.add_argument("--seed", type=int, default=0, help="echoed in the manifest")
    fit.add_argument("--weight", choices=KINDS, help="override the weight kind")
    fit.add_argument(
        "--ac",
        help="override the cap: a float, or auto[:quantile] to pick the cap "
        "from an empirical weight quantile (heuristic, off by default)",
    )
    fit.add_argument(
        "--estimator",
        choices=("continuous", "factorial", "moment"),
        help="override the estimation route",
    )
    fit.add_argument(
        "--exclude-rows", default="", help="comma-separated 0-based data row indices to drop"
    )
    fit.set_defaults(func=cmd_fit)

    sim = sub.add_parser("simulate", help="draw from a preset model")
    sim.add_argument("--model", required=True, help="registry name, e.g. model3")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.add_argument(
        "--totals", type=int, help="thin to counts with this row total "
        "(discrete presets default to their registry totals)"
    )
    sim.set_defaults(func=cmd_simulate)

    dia = sub.add_parser("diagnose", help="compare data against a written fit")
    dia.add_argument("--data", required=True)
    dia.add_argument(
        "--data-kind", choices=("proportions", "counts"), default="proportions"
    )
    dia.add_argument("--fit", required=True, help="fit.json from a previous fit run")
    dia.add_argument("--out", required=True)
    dia.add_argument("--seed", type=int, default=0)
    dia.add_argument("--n-sim", type=int, default=100_000)
    dia.add_argument("--grid-totals", type=int, help="round simulations to this count grid")
    dia.add_argument("--qq", type=int, default=0, help="QQ points per category")
    dia.add_argument("--exclude-rows", default="")
    dia.set_defaults(func=cmd_diagnose)

    bench = sub.add_parser("bench", help="replicated simulation study")
    bench.add_argument("--config", required=True, help="study config JSON")
    bench.add_argument("--out", required=True)
    bench.add_argument("--seed", type=int, help="override the config seed")
    bench.set_defaults(func=cmd_bench)

    pre = sub.add_parser("presets", help="inspect the model registry")
    pre.add_argument("action", choices=("list",))
    pre.set_defaults(func=cmd_presets)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # as Python's signal docs advise: point stdout at devnull, so the
        # interpreter's final flush cannot meet the closed pipe again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except CompscoreError as exc:
        if isinstance(exc, SamplerError):
            code = 4
        elif isinstance(exc, (SingularSystemError, StudyFailureError)):
            code = 3
        else:
            code = 2
        print(f'error code={code} kind={type(exc).__name__} msg="{exc}"', file=sys.stderr)
        return code
    except OSError as exc:
        # unreadable inputs and unwritable outputs are usage errors
        print(f'error code=2 kind={type(exc).__name__} msg="{exc}"', file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
