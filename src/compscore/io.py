"""File formats: CSV ingestion, JSON artifacts, atomic output dirs.

CSV files carry a header of category names. Count files may include a
``total`` column, which must equal the row sum exactly. All JSON written
here is sorted-key and all CSV floats use repr-faithful %.17g, so a
rerun with identical inputs produces byte-identical payloads.
"""

import csv
import hashlib
import json
import os
import shutil
import sys
import tempfile
from importlib import resources

import numpy as np

from .core import ContinuousDataset, CountDataset, ModelSpec, index_map
from .errors import ConfigError, DataError, FamilyError

__all__ = [
    "read_proportions_csv",
    "read_counts_csv",
    "write_proportions_csv",
    "write_counts_csv",
    "load_synthetic_counts",
    "model_spec_to_dict",
    "model_spec_from_fit",
    "fit_to_csv_rows",
    "sha256_file",
    "write_output_dir",
    "dump_json",
]


def _fmt(x):
    return format(float(x), ".17g")


def _read_rows(path, exclude_rows):
    """The header and the data rows left after exclude_rows, each as long
    as the header."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if len(rows) < 2:
        raise DataError(f"{path}: need a header and at least one data row")
    header, rows = [cell.strip() for cell in rows[0]], rows[1:]
    bad = [i for i in exclude_rows if i < 0 or i >= len(rows)]
    if bad:
        raise DataError(f"{path}: excluded row index {bad[0]} out of range")
    drop = set(exclude_rows)
    rows = [row for i, row in enumerate(rows) if i not in drop]
    if any(len(row) != len(header) for row in rows):
        raise DataError(f"{path}: ragged rows")
    return header, rows


def read_proportions_csv(path, exclude_rows=()):
    """Read a proportions CSV (header row of names). Row indices in
    exclude_rows are 0-based over data rows."""
    header, rows = _read_rows(path, exclude_rows)
    try:
        values = np.array([[float(cell) for cell in row] for row in rows])
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric cell ({exc})") from None
    return ContinuousDataset(values, names=header)


def read_counts_csv(path, exclude_rows=()):
    """Read a counts CSV; a column named ``total`` is validated against
    the row sums and dropped from the categories."""
    header, rows = _read_rows(path, exclude_rows)
    lowered = [h.lower() for h in header]
    total_col = lowered.index("total") if "total" in lowered else None

    def parse(cell):
        try:
            val = int(cell)  # exact past 2**53, where float() rounds
        except ValueError:
            try:
                val = float(cell)  # cells such as 3.0 or 1e3
            except ValueError as exc:
                raise DataError(f"{path}: non-numeric cell ({exc})") from None
        if not abs(val) < 2.0**63:  # nan, inf, or past int64
            raise DataError(f"{path}: count {cell!r} is not a finite 64-bit integer")
        if val != round(val):
            raise DataError(f"{path}: count {cell!r} is not an integer")
        return int(val)

    arr = np.array([[parse(cell) for cell in row] for row in rows], dtype=np.int64)
    if total_col is None:
        return CountDataset(arr, names=header)
    keep = [j for j in range(arr.shape[1]) if j != total_col]
    names = [header[j] for j in keep]
    return CountDataset(arr[:, keep], totals=arr[:, total_col], names=names)


def write_proportions_csv(path, dataset):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.names)
        for row in dataset.proportions:
            writer.writerow([_fmt(v) for v in row])


def write_counts_csv(path, counts):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(counts.names) + ["total"])
        for row, total in zip(counts.counts, counts.totals):
            writer.writerow([str(int(v)) for v in row] + [str(int(total))])


def load_synthetic_counts():
    """Bundled synthetic 92-sample, 5-category count table."""
    ref = resources.files("compscore").joinpath("data/synthetic_microbiome_counts.csv")
    with resources.as_file(ref) as path:
        return read_counts_csv(path)


# ---------------------------------------------------------------------------
# model spec round trip


def model_spec_to_dict(spec):
    return {
        "family": spec.family,
        "p": int(spec.p),
        "interaction": [[float(v) for v in row] for row in spec.interaction],
        "linear": [float(v) for v in spec.linear],
        "shape": [float(v) for v in spec.shape],
    }


def model_spec_from_fit(fit_dict):
    """Rebuild a sampleable ModelSpec from a written fit artifact.

    The artifact is read as FitResult.to_dict writes it: labels and
    estimates are lists of one length, fixed maps labels to numbers,
    and every label is one the family knows for its p (shape1 ..
    shapep for a Dirichlet fit, the index map's labels otherwise),
    given once, with one finite number. ModelSpec checks the family.
    """
    if not isinstance(fit_dict, dict):
        raise ConfigError("a fit artifact must be a JSON object")
    config = fit_dict.get("config", {})
    if not isinstance(config, dict):
        raise ConfigError("the config of a fit artifact must be a JSON object")
    family = config.get("family")
    try:
        labels = fit_dict["labels"]
        estimates = fit_dict["estimates"]
    except KeyError as exc:
        raise ConfigError(f"fit artifact is missing key {exc}") from None
    fixed = fit_dict.get("fixed", {})
    if not (isinstance(labels, list) and isinstance(estimates, list)
            and len(labels) == len(estimates)):
        raise ConfigError("labels and estimates of a fit artifact must be lists of one length")
    if not isinstance(fixed, dict):
        raise ConfigError("fixed of a fit artifact must be a JSON object")
    if family == "dirichlet":
        known = [f"shape{j + 1}" for j in range(len(labels))]
    else:
        shape = config.get("shape")
        if not isinstance(shape, list):
            raise ConfigError(f"a {family} fit artifact needs config.shape, a list")
        imap = index_map(len(shape))
        known = imap.labels
    index = {lab: i for i, lab in enumerate(known)}
    theta = np.zeros(len(known))
    given = set()
    for lab, val in [*zip(labels, estimates), *fixed.items()]:
        if not isinstance(lab, str) or lab not in index:
            raise ConfigError(f"fit artifact has unknown parameter label {lab!r}")
        if lab in given:
            raise ConfigError(f"fit artifact gives parameter {lab} twice")
        number = isinstance(val, (int, float)) and not isinstance(val, bool)
        # NaN fails the comparison, and an int too large for a float exceeds the largest
        if not (number and abs(val) <= sys.float_info.max):
            raise FamilyError(f"parameter {lab} must be a finite number, got {val!r}")
        given.add(lab)
        theta[index[lab]] = val
    if family == "dirichlet":
        return ModelSpec(family=family, p=theta.size, shape=theta)
    interaction, linear = imap.unpack(theta)
    return ModelSpec(
        family=family, p=imap.p, interaction=interaction, linear=linear, shape=shape
    )


def fit_to_csv_rows(result):
    """Table rows: parameter, estimate, estimate/SE (blank without SEs)."""
    zs = result.z_scores
    rows = [["parameter", "estimate", "estimate_over_se"]]
    for i, lab in enumerate(result.labels):
        z = "" if zs is None or not np.isfinite(zs[i]) else _fmt(zs[i])
        rows.append([lab, _fmt(result.estimates[i]), z])
    return rows


# ---------------------------------------------------------------------------
# deterministic artifacts


def dump_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_output_dir(out_dir, files):
    """Write files atomically: everything goes into a temp dir next to
    the target, which is swapped in with a rename. files maps relative
    name -> str (text) or callable(path) for custom writers. An existing
    target is replaced, so reruns converge to the same bytes."""
    out_dir = os.path.abspath(out_dir)
    parent = os.path.dirname(out_dir) or "."
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=os.path.basename(out_dir) + ".tmp-", dir=parent)
    try:
        for name, content in files.items():
            target = os.path.join(tmp, name)
            if callable(content):
                content(target)
            else:
                with open(target, "w") as fh:
                    fh.write(content)
        if os.path.isdir(out_dir):
            shutil.rmtree(out_dir)
        os.rename(tmp, out_dir)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
