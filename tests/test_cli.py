"""The command-line surface, run in process: artifact layout, rerun
byte-identity, config validation, and exit codes (2 usage, 3 singular
or failed study, 4 sampler)."""

import json
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

import compscore
from compscore.cli import main
from compscore.core import ContinuousDataset, CountDataset, index_map
from compscore.errors import ConfigError
from compscore.fitting import _blocks
from compscore.io import counts_csv, dump_json, proportions_csv
from compscore.samplers import CHUNK
from compscore.study import StudyConfig, run_study


# the keys of RejectionStats.to_dict, which simulate and diagnose record
REJECTION_KEYS = {"proposal", "log_bound", "attempted", "accepted", "acceptance_rate"}


def run_cli(*argv):
    return main([str(a) for a in argv])


def _write_config(path, **kwargs):
    doc = {"schema_version": 1}
    doc.update(kwargs)
    path.write_text(dump_json(doc))
    return path


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_version_and_presets(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("compscore ")
    assert run_cli("presets", "list") == 0
    out = capsys.readouterr().out
    assert "model1" in out and "model16" in out
    assert "capped-min" in out or "cap" in out


def test_simulate_then_fit_roundtrip(tmp_path, capsys):
    sim_dir = tmp_path / "sim"
    assert run_cli("simulate", "--model", "model3", "--n", 300, "--seed", 7,
                   "--out", sim_dir) == 0
    assert (sim_dir / "data.csv").exists()
    sidecar = _read_json(sim_dir / "sidecar.json")
    assert sidecar["model"] == "model3" and sidecar["totals"] is None
    rejection = sidecar["rejection"]
    assert set(rejection) == REJECTION_KEYS
    assert rejection["proposal"] == "scaled-dirichlet" and rejection["accepted"] == 300
    assert np.isfinite(rejection["log_bound"])

    cfg = _write_config(tmp_path / "fit.json.cfg", family="truncated-gaussian")
    fit_dir = tmp_path / "fit"
    assert run_cli("fit", "--data", sim_dir / "data.csv", "--config", cfg,
                   "--out", fit_dir) == 0
    fit_doc = _read_json(fit_dir / "fit.json")
    assert fit_doc["labels"] == ["a11", "a22", "a12"]
    assert fit_doc["config"]["weight_kind"] == "capped-min"
    assert fit_doc["config"]["a_c"] == 0.1
    manifest = _read_json(fit_dir / "manifest.json")
    assert manifest["schema_version"] == 1
    assert manifest["subcommand"] == "fit"
    assert set(manifest["inputs"]) == {str(sim_dir / "data.csv"), str(cfg)}
    assert (fit_dir / "fit.csv").read_text().startswith("parameter,estimate")

    # rerun converges to identical payload bytes
    before = (fit_dir / "fit.json").read_bytes()
    assert run_cli("fit", "--data", sim_dir / "data.csv", "--config", cfg,
                   "--out", fit_dir) == 0
    assert (fit_dir / "fit.json").read_bytes() == before


def _fit_json_per_blas_threads(tmp_path, data, cfg):
    """The fit.json bytes of `compscore fit` run in a child process under
    one and under two BLAS threads."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(compscore.__file__)))
    payloads = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"fit{threads}"
        subprocess.run(
            [sys.executable, "-m", "compscore.cli", "fit", "--data", str(data),
             "--config", str(cfg), "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        payloads.append((out / "fit.json").read_bytes())
    return payloads


def test_fit_identical_across_blas_threads(tmp_path):
    """A continuous p=10 fit over several row blocks writes the same
    fit.json bytes with one and with two BLAS threads."""
    rows = 19384
    assert len(list(_blocks(rows, index_map(10).q))) >= 3
    u = np.random.default_rng(21).dirichlet(np.full(10, 1.5), size=rows)
    data = tmp_path / "data.csv"
    data.write_text(proportions_csv(ContinuousDataset(u)))
    cfg = _write_config(tmp_path / "cfg.json", family="truncated-gaussian")
    payloads = _fit_json_per_blas_threads(tmp_path, data, cfg)
    assert payloads[0] == payloads[1]


def test_factorial_fit_identical_across_blas_threads(tmp_path):
    """A factorial p=10 fit whose factorial moments take several row
    blocks writes the same fit.json bytes with one and with two BLAS
    threads."""
    rows = 2000
    u = np.random.default_rng(22).dirichlet(np.full(10, 3.0), size=rows)
    counts = CountDataset(np.random.default_rng(23).multinomial(1000, u))
    # the moments run over the rows without a zero in the first p - 1
    # categories, in blocks as wide as their C(p + 3, 4) = 715 monomials
    dense = int(np.all(counts.counts[:, :-1] > 0, axis=1).sum())
    assert len(list(_blocks(dense, 715))) >= 3
    data = tmp_path / "counts.csv"
    data.write_text(counts_csv(counts))
    cfg = _write_config(tmp_path / "cfg.json", family="truncated-gaussian", data_kind="counts",
                        estimator="factorial")
    payloads = _fit_json_per_blas_threads(tmp_path, data, cfg)
    assert json.loads(payloads[0])["config"]["estimator"] == "factorial"
    assert payloads[0] == payloads[1]


def test_diagnose_identical_across_blas_threads_and_cpus(tmp_path):
    """diagnose of a hybrid fit draws its proposals in many chunks on a
    thread pool with one worker per usable CPU. report.json has the same
    bytes under 1 and 2 BLAS threads and with the child pinned to one
    CPU (set at the child's start rather than in preexec_fn, which is
    unsafe in a parent that already runs sampler threads); the
    rejection stats go to the manifest only."""
    data = resources.files("compscore").joinpath("data/synthetic_microbiome_counts.csv")
    cfg = _write_config(
        tmp_path / "cfg.json", family="hybrid", data_kind="counts",
        shape=[-0.8, -0.85, 0.0, -0.2, 0.0],
    )
    fit_dir = tmp_path / "fit"
    assert run_cli("fit", "--data", data, "--config", cfg, "--weight", "capped-min",
                   "--ac", "auto:0.9", "--out", fit_dir) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(compscore.__file__)))
    runs = [("1", False), ("2", False)]
    if hasattr(os, "sched_setaffinity"):
        runs.append(("2", True))
    payloads = []
    for i, (threads, pinned) in enumerate(runs):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"diag{i}"
        argv = ["diagnose", "--data", str(data), "--data-kind", "counts",
                "--grid-totals", "2000", "--fit", str(fit_dir / "fit.json"),
                "--n-sim", "20000", "--seed", "5", "--out", str(out)]
        pin = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); " if pinned else ""
        code = f"import os, sys; {pin}from compscore.cli import main; sys.exit(main(sys.argv[1:]))"
        subprocess.run([sys.executable, "-c", code] + argv,
                       env=env, check=True, capture_output=True, timeout=300)
        payloads.append((out / "report.json").read_bytes())
    assert all(p == payloads[0] for p in payloads[1:])
    assert b"attempted" not in payloads[0]
    rejection = _read_json(tmp_path / "diag0" / "manifest.json")["rejection"]
    assert set(rejection) == REJECTION_KEYS
    assert rejection["proposal"] == "scaled-dirichlet" and np.isfinite(rejection["log_bound"])
    assert rejection["accepted"] == 20000
    assert rejection["attempted"] > 4 * CHUNK  # several chunks, so the pool ran
    assert rejection["acceptance_rate"] == 20000 / rejection["attempted"]


@pytest.mark.parametrize(
    "unbuffered, reader", [("1", "head -1"), ("1", "true"), (None, "true")],
    ids=["unbuffered-head", "unbuffered-true", "buffered-true"],
)
def test_closed_stdout_exits_0(tmp_path, unbuffered, reader):
    """A reader that quits early is not an error, with stdout buffered
    or not: under pipefail the pipeline exits 0 and stderr stays empty.
    `true` closes the pipe before the CLI writes anything."""
    shim = tmp_path / "compscore"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m compscore.cli "$@"\n')
    shim.chmod(0o755)
    src = os.path.dirname(os.path.dirname(os.path.abspath(compscore.__file__)))
    env = dict(os.environ, PATH=f"{tmp_path}{os.pathsep}{os.environ.get('PATH', '')}")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.run(
        ["bash", "-c", f"set -o pipefail; compscore presets list | {reader}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_simulate_discrete_writes_counts(tmp_path):
    out = tmp_path / "sim15"
    assert run_cli("simulate", "--model", "model15", "--n", 120, "--out", out) == 0
    assert (out / "counts.csv").exists() and (out / "latent.csv").exists()
    sidecar = _read_json(out / "sidecar.json")
    assert sidecar["totals"] == 2000
    # totals override
    out2 = tmp_path / "sim15b"
    assert run_cli("simulate", "--model", "model15", "--n", 120, "--totals", 50,
                   "--out", out2) == 0
    assert _read_json(out2 / "sidecar.json")["totals"] == 50


def test_fit_weight_flags(tmp_path):
    sim_dir = tmp_path / "sim"
    run_cli("simulate", "--model", "model3", "--n", 250, "--seed", 3, "--out", sim_dir)
    cfg = _write_config(tmp_path / "cfg.json", family="truncated-gaussian")

    out = tmp_path / "w1"
    assert run_cli("fit", "--data", sim_dir / "data.csv", "--config", cfg,
                   "--out", out, "--weight", "min") == 0
    assert _read_json(out / "fit.json")["config"]["weight_kind"] == "min"

    out2 = tmp_path / "w2"
    assert run_cli("fit", "--data", sim_dir / "data.csv", "--config", cfg,
                   "--out", out2, "--weight", "capped-min", "--ac", "0.25") == 0
    assert _read_json(out2 / "fit.json")["config"]["a_c"] == 0.25

    out3 = tmp_path / "w3"
    assert run_cli("fit", "--data", sim_dir / "data.csv", "--config", cfg,
                   "--out", out3, "--weight", "capped-min", "--ac", "auto:0.8") == 0
    a_c = _read_json(out3 / "fit.json")["config"]["a_c"]
    assert 0.0 < a_c < 1.0
    manifest = _read_json(out3 / "manifest.json")
    assert manifest["config"]["weight"]["a_c"] == a_c

    # --ac is meaningless without a cap
    assert run_cli("fit", "--data", sim_dir / "data.csv", "--config", cfg,
                   "--out", tmp_path / "w4", "--weight", "min", "--ac", "0.2") == 2


def test_fit_counts_and_factorial(tmp_path):
    sim_dir = tmp_path / "sim"
    run_cli("simulate", "--model", "model15", "--n", 400, "--seed", 5, "--out", sim_dir)
    cfg = _write_config(
        tmp_path / "cfg.json",
        family="truncated-gaussian",
        data_kind="counts",
        estimator="factorial",
    )
    out = tmp_path / "fit"
    assert run_cli("fit", "--data", sim_dir / "counts.csv", "--config", cfg,
                   "--out", out) == 0
    doc = _read_json(out / "fit.json")
    assert doc["config"]["estimator"] == "factorial"
    assert doc["standard_errors"] is None
    assert doc["config"]["weight_kind"] == "product"


def test_fit_dirichlet_and_moment(tmp_path):
    sim_dir = tmp_path / "sim"
    run_cli("simulate", "--model", "model7", "--n", 400, "--seed", 9, "--out", sim_dir)
    cfg = _write_config(tmp_path / "d.json", family="dirichlet")
    out = tmp_path / "dfit"
    assert run_cli("fit", "--data", sim_dir / "data.csv", "--config", cfg,
                   "--out", out) == 0
    doc = _read_json(out / "fit.json")
    assert doc["labels"] == ["shape1", "shape2", "shape3"]

    cfg_m = _write_config(tmp_path / "m.json", family="dirichlet", estimator="moment")
    out_m = tmp_path / "mfit"
    assert run_cli("fit", "--data", sim_dir / "data.csv", "--config", cfg_m,
                   "--out", out_m) == 0
    assert _read_json(out_m / "fit.json")["config"]["estimator"] == "dirichlet-moment"


def test_exclude_rows_recorded(tmp_path):
    sim_dir = tmp_path / "sim"
    run_cli("simulate", "--model", "model3", "--n", 100, "--out", sim_dir)
    cfg = _write_config(tmp_path / "cfg.json", family="truncated-gaussian")
    out = tmp_path / "fit"
    assert run_cli("fit", "--data", sim_dir / "data.csv", "--config", cfg,
                   "--out", out, "--exclude-rows", "0,5,7") == 0
    doc = _read_json(out / "fit.json")
    assert doc["n"] == 97
    manifest = _read_json(out / "manifest.json")
    assert manifest["config"]["exclude_rows"] == [0, 5, 7]
    assert run_cli("fit", "--data", sim_dir / "data.csv", "--config", cfg,
                   "--out", out, "--exclude-rows", "0,x") == 2


def test_diagnose_workflow(tmp_path):
    sim_dir = tmp_path / "sim"
    run_cli("simulate", "--model", "model7", "--n", 300, "--seed", 2, "--out", sim_dir)
    cfg = _write_config(tmp_path / "d.json", family="dirichlet")
    fit_dir = tmp_path / "fit"
    run_cli("fit", "--data", sim_dir / "data.csv", "--config", cfg, "--out", fit_dir)
    out = tmp_path / "diag"
    assert run_cli("diagnose", "--data", sim_dir / "data.csv",
                   "--fit", fit_dir / "fit.json", "--out", out,
                   "--n-sim", 4000, "--qq", 9) == 0
    report = _read_json(out / "report.json")
    assert report["n_simulated"] == 4000
    assert len(report["categories"]) == 3
    qq = (out / "qq.csv").read_text().splitlines()
    assert qq[0] == "category,prob,observed,simulated"
    assert len(qq) == 1 + 3 * 9
    # self-fit should not look catastrophically wrong
    assert min(c["ks_pvalue"] for c in report["categories"]) > 1e-5


def test_bench_workflow(tmp_path):
    cfg = _write_config(
        tmp_path / "bench.json",
        model="model3", estimators=[1, 3], n=150, replicates=4, seed=11,
    )
    out = tmp_path / "bench"
    assert run_cli("bench", "--config", cfg, "--out", out) == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("estimator,parameter,truth,mean,bias,se,rmse,rbias")
    assert len(summary) == 1 + 2 * 3
    replicates = (out / "replicates.csv").read_text().splitlines()
    assert len(replicates) == 1 + 2 * 4 * 3

    # byte-identical rerun; studies take no thread-count flag
    before = (out / "summary.csv").read_bytes()
    assert run_cli("bench", "--config", cfg, "--out", out) == 0
    assert (out / "summary.csv").read_bytes() == before
    with pytest.raises(SystemExit) as exc:
        run_cli("bench", "--config", cfg, "--out", out, "--threads", 2)
    assert exc.value.code == 2


def test_config_rejections(tmp_path, capsys):
    sim_dir = tmp_path / "sim"
    run_cli("simulate", "--model", "model3", "--n", 50, "--out", sim_dir)
    data = sim_dir / "data.csv"

    bad_version = tmp_path / "v.json"
    bad_version.write_text('{"schema_version": 2, "family": "truncated-gaussian"}\n')
    assert run_cli("fit", "--data", data, "--config", bad_version,
                   "--out", tmp_path / "o1") == 2

    unknown_key = _write_config(
        tmp_path / "k.json", family="truncated-gaussian", wieght="min"
    )
    assert run_cli("fit", "--data", data, "--config", unknown_key,
                   "--out", tmp_path / "o2") == 2

    not_json = tmp_path / "n.json"
    not_json.write_text("family: hybrid\n")
    assert run_cli("fit", "--data", data, "--config", not_json,
                   "--out", tmp_path / "o3") == 2

    missing = run_cli("fit", "--data", tmp_path / "absent.csv",
                      "--config", _write_config(tmp_path / "c.json",
                                                family="truncated-gaussian"),
                      "--out", tmp_path / "o4")
    assert missing == 2
    # hybrid fits need a shape vector
    no_shape = _write_config(tmp_path / "h.json", family="hybrid")
    assert run_cli("fit", "--data", data, "--config", no_shape,
                   "--out", tmp_path / "o5") == 2
    # no partial outputs appear on failure
    for name in ("o1", "o2", "o3", "o4", "o5"):
        assert not (tmp_path / name).exists()

    # malformed values: one error line with exit code 2, no traceback and
    # no output directory
    tg = _write_config(tmp_path / "tg.json", family="truncated-gaussian")
    bad_ridge = _write_config(tmp_path / "r.json", family="truncated-gaussian", ridge="x")
    bad_n = _write_config(tmp_path / "b.json", model="model3", n="abc", replicates=2)
    bad_shape = _write_config(tmp_path / "s.json", family="hybrid", shape=["a", 0, 0])
    bad_weight = _write_config(tmp_path / "w.json", family="truncated-gaussian", weight="min")
    unlabelled = tmp_path / "nolabels.json"
    unlabelled.write_text(dump_json({"estimates": [1.0], "config": {"family": "dirichlet"}}))
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]\n")
    shapeless = tmp_path / "shapeless.json"
    shapeless.write_text(dump_json({"labels": ["a11"], "estimates": [-1.0],
                                    "config": {"family": "hybrid"}}))
    null_estimate = tmp_path / "null.json"
    null_estimate.write_text(dump_json({"labels": ["a11"], "estimates": [None],
                                        "config": {"family": "hybrid", "shape": [0, 0, 0]}}))
    inf_counts = tmp_path / "inf_counts.csv"
    inf_counts.write_text("a,b,c\n3,inf,7\n")
    counts_cfg = _write_config(tmp_path / "cc.json", family="truncated-gaussian",
                               data_kind="counts")
    negative_seed = _write_config(tmp_path / "ns.json", model="model3", n=50, replicates=2,
                                  seed=-3)
    study = _write_config(tmp_path / "st.json", model="model3", n=50, replicates=2)
    # int() would run these as n = 1000, estimator 1, seed 3 and n = 1, and
    # float() as ridge 1.0 and cap 0.5
    truncated = [
        _write_config(tmp_path / f"t{i}.json", **{"model": "model3", "replicates": 2, **bad})
        for i, bad in enumerate([{"n": 1000.7}, {"estimators": [1.5]}, {"seed": 3.9},
                                 {"n": True}, {"ridge": True}, {"cap_min": "0.5"}])
    ]
    # float() would run these as ridge 1.0, cap 0.2 and ridge NaN
    fit_numbers = [
        _write_config(tmp_path / f"f{i}.json", family="truncated-gaussian", **bad)
        for i, bad in enumerate([{"ridge": True}, {"weight": {"kind": "capped-min", "a_c": "0.2"}},
                                 {"ridge": float("nan")}])
    ]
    assert run_cli("fit", "--data", data, "--config", tg, "--out", tmp_path / "fit") == 0
    fitted = tmp_path / "fit" / "fit.json"
    diagnose = ["diagnose", "--data", data, "--n-sim", 100, "--fit"]
    cases = [
        ["fit", "--data", inf_counts, "--config", counts_cfg],
        ["simulate", "--model", "model3", "--n", 10, "--seed", -1],
        ["bench", "--config", negative_seed],
        ["bench", "--config", study, "--seed", -1],
        diagnose + [fitted, "--seed", -1],
        diagnose + [fitted, "--qq", -3],
        ["fit", "--data", data, "--config", tg, "--weight", "capped-min", "--ac", "xyz"],
        ["fit", "--data", data, "--config", tg, "--weight", "capped-min", "--ac", "auto:abc"],
        ["fit", "--data", data, "--config", bad_ridge],
        ["fit", "--data", data, "--config", bad_weight],
        ["bench", "--config", bad_n],
        *[["bench", "--config", config] for config in truncated],
        *[["fit", "--data", data, "--config", config] for config in fit_numbers],
        diagnose + [not_json],
        diagnose + [unlabelled],
        diagnose + [not_object],
        diagnose + [shapeless],
    ]
    # ModelSpec decides what a shape may hold, as for its length and range,
    # and that every parameter is finite
    kinds = ["DataError"] + ["ConfigError"] * (len(cases) - 1) + ["FamilyError"] * 2
    cases += [["fit", "--data", data, "--config", bad_shape], diagnose + [null_estimate]]
    capsys.readouterr()
    for i, (argv, kind) in enumerate(zip(cases, kinds)):
        out = tmp_path / f"m{i}"
        assert run_cli(*argv, "--out", out) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error code=2 kind={kind}"), err
        assert not out.exists()


@pytest.mark.parametrize(
    "family, estimator, data_kind, model, study_estimator",
    [
        ("dirichlet", "factorial", "counts", "model9", 5),
        ("hybrid", "moment", "proportions", "model3", 6),
        ("truncated-gaussian", "factorial", "proportions", "model3", 5),
    ],
    ids=["dirichlet-factorial", "hybrid-moment", "factorial-on-proportions"],
)
def test_fit_and_bench_share_route_rule(
    tmp_path, capsys, family, estimator, data_kind, model, study_estimator
):
    """`compscore fit` rejects an incompatible family, route and data kind
    with exit 2 and the very message the study roster raises for the
    matching estimator id and preset."""
    with pytest.raises(ConfigError) as study_error:
        run_study(StudyConfig(model=model, estimators=(study_estimator,), replicates=2))
    sim_dir = tmp_path / "sim"
    run_cli("simulate", "--model", "model15", "--n", 50, "--out", sim_dir)
    data = sim_dir / ("counts.csv" if data_kind == "counts" else "latent.csv")
    extra = {"shape": [0.0, 0.0, 0.0]} if family == "hybrid" else {}
    cfg = _write_config(tmp_path / "cfg.json", family=family, data_kind=data_kind,
                        estimator=estimator, **extra)
    capsys.readouterr()
    out = tmp_path / "fit"
    assert run_cli("fit", "--data", data, "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert err == f'error code=2 kind=ConfigError msg="{study_error.value}"\n'
    assert not out.exists()


def test_singular_fit_exits_3(tmp_path, capsys):
    data = tmp_path / "tiny.csv"
    rng = np.random.default_rng(6)
    rows = rng.dirichlet(np.ones(5), size=2)
    lines = ["a,b,c,d,e"] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    data.write_text("\n".join(lines) + "\n")
    cfg = _write_config(tmp_path / "cfg.json", family="truncated-gaussian")
    out = tmp_path / "fit"
    assert run_cli("fit", "--data", data, "--config", cfg, "--out", out) == 3
    err = capsys.readouterr().err
    assert "code=3" in err and "SingularSystemError" in err
    assert not out.exists()


def test_sampler_failure_exits_4(tmp_path, capsys):
    data = tmp_path / "rows.csv"
    rows = np.random.default_rng(7).dirichlet(np.ones(4), size=40)
    lines = ["a,b,c,d"] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    data.write_text("\n".join(lines) + "\n")
    # a fit artifact whose interaction, 4000 (I - 11'/3), has positive
    # curvature that the envelope cannot absorb (log M about 2658, see
    # test_samplers.py::test_hybrid_unbounded_energy_fails) cannot be
    # simulated from; diagnose must fail with the sampler exit code
    fit_doc = {
        "labels": ["a11", "a22", "a33", "a12", "a13", "a23"],
        "estimates": [8000.0 / 3.0] * 3 + [-4000.0 / 3.0] * 3,
        "fixed": {},
        "config": {"family": "hybrid", "shape": [0.0, 0.0, 0.0, 0.0]},
    }
    fit_path = tmp_path / "fit.json"
    fit_path.write_text(dump_json(fit_doc))
    out = tmp_path / "diag"
    code = run_cli("diagnose", "--data", data, "--fit", fit_path,
                   "--out", out, "--n-sim", 5000)
    assert code == 4
    assert "EnvelopeFailureError" in capsys.readouterr().err
    assert not out.exists()


def test_bench_study_failure_exits_3(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "bench.json",
        model="model6", estimators=[1], n=5, replicates=4, seed=1,
    )
    assert run_cli("bench", "--config", cfg, "--out", tmp_path / "out") == 3
    assert "StudyFailureError" in capsys.readouterr().err


BUNDLED = resources.files("compscore").joinpath("data/synthetic_microbiome_counts.csv")


@pytest.fixture(scope="module")
def bundled_fit(tmp_path_factory):
    """fit.json of the continuous interaction fit of the bundled table."""
    tmp = tmp_path_factory.mktemp("bundled")
    cfg = _write_config(tmp / "cfg.json", family="hybrid", data_kind="counts",
                        shape=[-0.8, -0.85, 0.0, -0.2, 0.0])
    assert run_cli("fit", "--data", BUNDLED, "--config", cfg, "--estimator", "continuous",
                   "--weight", "capped-min", "--ac", "auto:0.9", "--out", tmp / "fit") == 0
    return _read_json(tmp / "fit" / "fit.json")


def _bad_estimate(doc):
    doc["estimates"][0] = "x"


def _unknown_label(doc):
    doc["labels"][0] = "zz"


def _null_labels(doc):
    doc["labels"] = None


def _short_estimates(doc):
    doc["estimates"] = doc["estimates"][:-3]


def _repeated_label(doc):
    doc["labels"][1] = doc["labels"][0]


def _unknown_family(doc):
    doc["config"]["family"] = "foo"


@pytest.mark.parametrize(
    "mutate, kind",
    [
        (_bad_estimate, "FamilyError"),
        (_unknown_label, "ConfigError"),
        (_null_labels, "ConfigError"),
        (_short_estimates, "ConfigError"),
        (_repeated_label, "ConfigError"),
        (_unknown_family, "FamilyError"),
    ],
    ids=["non-numeric-estimate", "unknown-label", "null-labels", "short-estimates",
         "repeated-label", "unknown-family"],
)
def test_diagnose_rejects_malformed_fit(tmp_path, capsys, bundled_fit, mutate, kind):
    """A fit artifact that does not read as FitResult.to_dict writes it
    ends `diagnose` with exit 2 and one error line, not with a traceback
    or with parameters silently dropped or misread."""
    doc = json.loads(json.dumps(bundled_fit))
    mutate(doc)
    fit_path = tmp_path / "fit.json"
    fit_path.write_text(dump_json(doc))
    out = tmp_path / "diag"
    capsys.readouterr()
    assert run_cli("diagnose", "--data", BUNDLED, "--data-kind", "counts", "--fit", fit_path,
                   "--n-sim", 100, "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error code=2 kind={kind}"), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "diagnose"])
def test_repeated_category_name_exits_2(tmp_path, capsys, bundled_fit, command):
    """A counts CSV whose header names a category twice ends fit and
    diagnose with exit 2 and one DataError line, and writes nothing."""
    lines = BUNDLED.read_text().splitlines()
    data = tmp_path / "counts.csv"
    data.write_text("\n".join([lines[0].replace("taxon3", "taxon2")] + lines[1:]) + "\n")
    fit_path = tmp_path / "fit.json"
    fit_path.write_text(dump_json(bundled_fit))
    cfg = _write_config(tmp_path / "cfg.json", family="hybrid", data_kind="counts",
                        shape=[-0.8, -0.85, 0.0, -0.2, 0.0])
    out = tmp_path / "out"
    argv = {
        "fit": ["fit", "--data", data, "--config", cfg, "--estimator", "factorial"],
        "diagnose": ["diagnose", "--data", data, "--data-kind", "counts", "--fit", fit_path,
                     "--n-sim", 100, "--qq", 3],
    }[command]
    capsys.readouterr()
    assert run_cli(*argv, "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ['error code=2 kind=DataError msg="category names repeat: taxon2"'], err
    assert not out.exists()


def test_every_subcommand_runs_without_scipy(tmp_path):
    """scipy is a test dependency only: with every scipy import made to
    fail, simulate, fit on the continuous and factorial routes, diagnose
    and bench exit 0, and no scipy module is loaded."""
    cfg = _write_config(tmp_path / "cfg.json", family="hybrid", data_kind="counts",
                        shape=[-0.8, -0.85, 0.0, -0.2, 0.0])
    bench = _write_config(tmp_path / "bench.json", model="model3", estimators=[1, 3],
                          n=150, replicates=2, seed=11)
    fit = ["fit", "--data", str(BUNDLED), "--config", str(cfg)]
    runs = [
        ["simulate", "--model", "model3", "--n", "200", "--seed", "1",
         "--out", str(tmp_path / "sim")],
        fit + ["--estimator", "factorial", "--out", str(tmp_path / "factorial")],
        fit + ["--estimator", "continuous", "--weight", "capped-min", "--ac", "auto:0.9",
               "--out", str(tmp_path / "continuous")],
        ["diagnose", "--data", str(BUNDLED), "--data-kind", "counts", "--grid-totals", "2000",
         "--fit", str(tmp_path / "continuous" / "fit.json"), "--n-sim", "5000",
         "--out", str(tmp_path / "diag")],
        ["bench", "--config", str(bench), "--out", str(tmp_path / "bench")],
    ]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # every import of scipy now raises ImportError\n"
        "from compscore.cli import main\n"
        f"print([main(argv) for argv in {runs!r}])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' and sys.modules[m]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(compscore.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[0, 0, 0, 0, 0]", "[]"], proc.stdout
