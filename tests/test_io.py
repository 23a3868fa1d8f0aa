"""CSV and JSON round trips, the bundled dataset, and atomic output
directories."""

import csv
import functools
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compscore import cli, registry
from compscore.cli import main
from compscore.core import (
    ContinuousDataset,
    CountDataset,
    ModelSpec,
    counts_to_proportions,
    index_map,
)
from compscore.errors import ConfigError, DataError
from compscore.fitting import fit_dirichlet_moments, fit_hybrid
from compscore.io import (
    counts_csv,
    csv_text,
    dump_json,
    fit_to_csv_rows,
    load_synthetic_counts,
    model_spec_from_fit,
    model_spec_to_dict,
    proportions_csv,
    read_counts_csv,
    read_proportions_csv,
    sha256_file,
    write_output_dir,
)
from compscore.samplers import RngConfig, sample_model, sample_multinomial_counts
from compscore.study import _ROUTES, check_route, fit_route
from compscore.weights import WeightSpec


def test_csv_text_cell_rule():
    """Finite floats (numpy's too) as %.17g, non-finite ones and None as
    empty cells, integers exactly past 2**53, strings quoted only where
    needed, and LF line ends."""
    rows = [
        ["name", "x", "y"],
        ["a, b", 0.1, np.float64(2 / 3)],
        ['say "hi"', float("nan"), np.float64(-np.inf)],
        ["plain", None, np.int64(2**62 + 1)],
    ]
    assert csv_text(rows) == (
        "name,x,y\n"
        '"a, b",0.10000000000000001,0.66666666666666663\n'
        '"say ""hi""",,\n'
        "plain,,4611686018427387905\n"
    )


def test_proportions_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    data = ContinuousDataset(rng.dirichlet(np.ones(3), size=20), names=["x", "y", "z"])
    path = tmp_path / "props.csv"
    path.write_text(proportions_csv(data))
    back = read_proportions_csv(path)
    assert back.names == ["x", "y", "z"]
    # %.17g is repr-faithful for doubles
    np.testing.assert_array_equal(back.proportions, data.proportions)


def test_counts_roundtrip(tmp_path):
    counts = CountDataset([[3, 0, 7], [1, 4, 5]], names=["a", "b", "c"])
    text = counts_csv(counts)
    assert text.splitlines()[0] == "a,b,c,total"
    path = tmp_path / "counts.csv"
    path.write_text(text)
    back = read_counts_csv(path)
    np.testing.assert_array_equal(back.counts, counts.counts)
    np.testing.assert_array_equal(back.totals, counts.totals)
    assert back.names == ["a", "b", "c"]


# names that a CSV header gives back as written: _read_rows strips header
# cells, and read_counts_csv takes a column named total (any case) as the totals
_NAMES = st.lists(
    st.text(st.sampled_from('ab,;" ') | st.characters(categories=("L",)), min_size=1, max_size=8)
    .filter(lambda name: name == name.strip() and name.lower() != "total"),
    min_size=2, max_size=4, unique=True,
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(names=_NAMES, seed=st.integers(0, 2**32 - 1))
@example(names=["Bact, sp", 'say "hi"', "a;b", "Größe x"], seed=0)
def test_category_names_roundtrip(names, seed):
    """Names with commas, double quotes, semicolons, inner spaces and
    non-ASCII letters read back from proportions_csv and counts_csv with
    bit-identical values, and `diagnose --qq` writes a qq.csv of
    four-field rows that carry them."""
    rng = np.random.default_rng(seed)
    p, qq = len(names), 3
    data = ContinuousDataset(rng.dirichlet(np.ones(p), size=30), names=names)
    counts = CountDataset(rng.integers(1, 2**60, size=(5, p)), names=names)
    fit = {"labels": [f"shape{j + 1}" for j in range(p)], "estimates": [0.0] * p,
           "config": {"family": "dirichlet"}}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "props.csv").write_text(proportions_csv(data), newline="")
        (tmp / "counts.csv").write_text(counts_csv(counts), newline="")
        (tmp / "fit.json").write_text(dump_json(fit))
        props_back = read_proportions_csv(tmp / "props.csv")
        counts_back = read_counts_csv(tmp / "counts.csv")
        assert props_back.names == names and counts_back.names == names
        # the reader scales each row by its float sum again, as for data
        renormalized = ContinuousDataset(data.proportions).proportions
        np.testing.assert_array_equal(props_back.proportions, renormalized)
        np.testing.assert_array_equal(counts_back.counts, counts.counts)
        np.testing.assert_array_equal(counts_back.totals, counts.totals)

        argv = ["diagnose", "--data", tmp / "props.csv", "--fit", tmp / "fit.json",
                "--n-sim", 200, "--qq", qq, "--out", tmp / "diag"]
        assert main([str(a) for a in argv]) == 0
        with open(tmp / "diag" / "qq.csv", newline="") as fh:
            rows = list(csv.reader(fh))
    assert rows[0] == ["category", "prob", "observed", "simulated"]
    assert all(len(row) == 4 for row in rows)
    assert [row[0] for row in rows[1:]] == [name for name in names for _ in range(qq)]


@pytest.mark.parametrize("names", [[" a", "b"], ["a", "b "], ["a", "b\t"]])
def test_writers_refuse_names_a_header_does_not_keep(tmp_path, names):
    """_read_rows strips header cells, so a name with leading or trailing
    whitespace would read back renamed: both writers raise DataError
    naming it. The reader stays tolerant of padded header cells."""
    bad = re.escape(repr(next(name for name in names if name != name.strip())))
    with pytest.raises(DataError, match=bad):
        proportions_csv(ContinuousDataset([[0.25, 0.75]], names=names))
    with pytest.raises(DataError, match=bad):
        counts_csv(CountDataset([[1, 3]], names=names))
    path = tmp_path / "padded.csv"
    path.write_text(" a ,b\t,total\n1,3,4\n")
    assert read_counts_csv(path).names == ["a", "b"]


def test_counts_csv_refuses_a_category_named_total(tmp_path, monkeypatch, capsys):
    """read_counts_csv takes a column named total, in any case, for the
    totals, so counts_csv refuses such a category; simulate then exits 2
    with one error line and writes nothing."""
    names = ["a", "Total"]
    with pytest.raises(DataError, match="'Total'"):
        counts_csv(CountDataset([[1, 3]], names=names))
    assert proportions_csv(ContinuousDataset([[0.25, 0.75]], names=names)).startswith("a,Total\n")

    def named_draws(spec, n, rng, return_stats=False):
        return ContinuousDataset(np.full((n, 2), 0.5), names=names), None

    monkeypatch.setattr(cli, "sample_model", named_draws)
    capsys.readouterr()
    out = tmp_path / "sim"
    assert main(["simulate", "--model", "model3", "--n", "5", "--totals", "10",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error code=2 kind=DataError"), err
    assert not out.exists()


def test_counts_csv_without_total_column(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("a,b\n3,7\n1,9\n")
    counts = read_counts_csv(path)
    np.testing.assert_array_equal(counts.totals, [10, 10])


def test_csv_validation(tmp_path):
    bad_total = tmp_path / "bad.csv"
    bad_total.write_text("a,b,total\n3,7,11\n")
    with pytest.raises(DataError, match="does not equal row sum"):
        read_counts_csv(bad_total)
    frac = tmp_path / "frac.csv"
    frac.write_text("a,b\n3.5,6.5\n")
    with pytest.raises(DataError, match="not an integer"):
        read_counts_csv(frac)
    # cells that round() or an int64 array cannot hold
    for cell in ("inf", "-inf", "nan", "1e30", "9223372036854775808"):
        huge = tmp_path / "huge.csv"
        huge.write_text(f"a,b\n{cell},1\n")
        with pytest.raises(DataError, match="not a finite 64-bit integer"):
            read_counts_csv(huge)
    # integer cells are read exactly, and a row sum past int64 is refused
    exact = tmp_path / "exact.csv"
    exact.write_text("a,b\n9007199254740993,1\n3.0,1e3\n")
    np.testing.assert_array_equal(
        read_counts_csv(exact).counts, [[9007199254740993, 1], [3, 1000]]
    )
    for row in ("4611686018427387904,4611686018427387904", "9223372036854775807,1"):
        wide = tmp_path / "wide.csv"
        wide.write_text(f"a,b\n1,2\n{row}\n")
        with pytest.raises(DataError, match="row 1: counts sum past the 64-bit"):
            read_counts_csv(wide)
    short_row = tmp_path / "short.csv"
    short_row.write_text("a,b\n3,7\n4\n")
    for reader in (read_counts_csv, read_proportions_csv):
        with pytest.raises(DataError, match="ragged rows"):
            reader(short_row)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b,c\n0.5,0.5\n")
    with pytest.raises(DataError):
        read_proportions_csv(ragged)
    header_only = tmp_path / "header.csv"
    header_only.write_text("a,b\n")
    with pytest.raises(DataError, match="at least one data row"):
        read_proportions_csv(header_only)
    words = tmp_path / "words.csv"
    words.write_text("a,b\nlow,high\n")
    with pytest.raises(DataError, match="non-numeric"):
        read_proportions_csv(words)


def test_exclude_rows(tmp_path):
    path = tmp_path / "props.csv"
    path.write_text("a,b\n0.1,0.9\n0.2,0.8\n0.3,0.7\n")
    data = read_proportions_csv(path, exclude_rows=(1,))
    assert data.n == 2
    np.testing.assert_allclose(data.proportions[:, 0], [0.1, 0.3])
    with pytest.raises(DataError, match="out of range"):
        read_proportions_csv(path, exclude_rows=(5,))


def test_model_spec_roundtrip():
    spec = ModelSpec(
        family="hybrid",
        p=3,
        interaction=[[-2.0, 0.5], [0.5, -1.0]],
        linear=[0.3, -0.3],
        shape=[-0.5, 0.0, 0.5],
    )
    doc = json.loads(json.dumps(model_spec_to_dict(spec)))
    assert doc == {
        "family": "hybrid",
        "p": 3,
        "interaction": [[-2.0, 0.5], [0.5, -1.0]],
        "linear": [0.3, -0.3],
        "shape": [-0.5, 0.0, 0.5],
    }


def test_model_spec_from_fit_hybrid():
    rng = np.random.default_rng(2)
    u = rng.dirichlet(np.ones(3), size=200)
    shape = np.array([-0.2, 0.4, 0.0])
    fit = fit_hybrid(u, shape, WeightSpec("min"), estimate_linear=False, with_se=False)
    spec = model_spec_from_fit(fit.to_dict())
    assert spec.family == "hybrid"
    np.testing.assert_array_equal(spec.shape, shape)
    # estimated entries land in the interaction block, held ones stay 0
    a, b = spec.interaction, spec.linear
    assert a[0, 0] == fit["a11"] and a[0, 1] == fit["a12"]
    np.testing.assert_array_equal(b, 0.0)


def test_model_spec_from_fit_dirichlet():
    rng = np.random.default_rng(3)
    u = rng.dirichlet([2.0, 3.0, 4.0], size=500)
    fit = fit_dirichlet_moments(u)
    spec = model_spec_from_fit(fit.to_dict())
    assert spec.family == "dirichlet"
    np.testing.assert_array_equal(spec.shape, fit.estimates)


@functools.lru_cache(maxsize=None)
def _preset_draw(model):
    """400 rows of a preset: (proportions, counts), counts None unless
    the preset is discrete."""
    entry = registry.get(model)
    rng = RngConfig(5)
    latent = sample_model(entry.spec, 400, rng.substream(0))
    if not entry.discrete:
        return latent, None
    counts = sample_multinomial_counts(latent, entry.default_totals, rng.substream(1))
    return counts_to_proportions(counts), counts


def _allowed_routes(models):
    for model in models:
        entry = registry.get(model)
        for est, (route, _) in _ROUTES.items():
            try:
                check_route(entry.spec.family, route, entry.discrete)
            except ConfigError:
                continue
            yield pytest.param(model, est, id=f"{model}-{est}")


# one continuous and one discrete preset per family
@pytest.mark.parametrize(
    "model, estimator",
    list(_allowed_routes(("model1", "model3", "model7", "model13", "model15", "model16"))),
)
def test_model_spec_from_fit_every_route(model, estimator):
    """A written fit of every family x estimator the study roster allows
    reads back as the spec it fitted: the family and shape, each estimated
    entry where the index map puts it, and zero for the held ones."""
    entry = registry.get(model)
    spec = entry.spec
    data, counts = _preset_draw(model)
    route, kind = _ROUTES[estimator]
    weight = None if kind is None else entry.weight(kind)
    fit = fit_route(spec, route, data, counts, weight, 0.0)
    back = model_spec_from_fit(json.loads(dump_json(fit.to_dict())))
    assert (back.family, back.p) == (spec.family, spec.p)
    if spec.family == "dirichlet":
        np.testing.assert_array_equal(back.shape, fit.estimates)
        return
    np.testing.assert_array_equal(back.shape, spec.shape)
    imap = index_map(spec.p)
    theta, free = back.true_theta(imap), spec.estimation_mask(imap)
    np.testing.assert_array_equal(theta[free], fit.estimates)
    np.testing.assert_array_equal(theta[~free], 0.0)


def test_fit_to_csv_rows():
    rng = np.random.default_rng(4)
    u = rng.dirichlet(np.ones(3), size=150)
    fit = fit_hybrid(u, np.zeros(3), WeightSpec("min"), with_se=True)
    rows = fit_to_csv_rows(fit)
    assert rows[0] == ("parameter", "estimate", "estimate_over_se")
    assert len(rows) == 1 + len(fit.labels)
    assert rows[1][1] == fit.estimates[0]
    assert rows[1][2] == fit.z_scores[0]
    fit_no_se = fit_hybrid(u, np.zeros(3), WeightSpec("min"), with_se=False)
    assert fit_to_csv_rows(fit_no_se)[1][2] is None


def test_dump_json_deterministic():
    text = dump_json({"b": 1, "a": [1.5, None]})
    assert text == '{\n  "a": [\n    1.5,\n    null\n  ],\n  "b": 1\n}\n'


def test_sha256_file(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(b"abc")
    assert sha256_file(path) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_write_output_dir_atomic(tmp_path):
    target = tmp_path / "out"
    write_output_dir(target, {"a.txt": "one\n"})
    assert (target / "a.txt").read_text() == "one\n"

    # a failing write leaves the existing output untouched and no temp dirs
    with pytest.raises(FileNotFoundError):
        write_output_dir(target, {"a.txt": "two\n", "missing/b.txt": "x\n"})
    assert (target / "a.txt").read_text() == "one\n"
    assert [p.name for p in target.iterdir()] == ["a.txt"]
    assert [p.name for p in tmp_path.iterdir()] == ["out"]

    # successful rewrite replaces the whole directory
    write_output_dir(target, {"c.txt": "three\n"})
    assert not (target / "a.txt").exists()
    assert (target / "c.txt").read_text() == "three\n"


def test_load_synthetic_counts():
    counts = load_synthetic_counts()
    assert counts.n == 92 and counts.p == 5
    assert counts.names == ["taxon1", "taxon2", "taxon3", "taxon4", "other"]
    assert set(counts.totals.tolist()) == {2000}
    # sparse in the rare taxa, never in the common ones
    zero_frac = (counts.counts == 0).mean(axis=0)
    assert zero_frac[0] > 0.2 and zero_frac[1] > 0.2
    assert zero_frac[2] == 0.0 and zero_frac[4] == 0.0
