"""File formats: CSV ingestion, JSON artifacts, atomic output dirs.

CSV files carry a header of category names. Count files may include a
``total`` column, which must equal the row sum exactly. csv_text writes
every CSV payload by one cell rule (repr-faithful %.17g floats, quotes
only where needed, so any category name round-trips) and all JSON is
sorted-key, so a rerun with identical inputs writes identical bytes.
"""

import csv
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
from importlib import resources
from io import StringIO

import numpy as np

from .core import ContinuousDataset, CountDataset, ModelSpec, index_map
from .errors import ConfigError, DataError, FamilyError

__all__ = [
    "read_proportions_csv",
    "read_counts_csv",
    "csv_text",
    "proportions_csv",
    "counts_csv",
    "load_synthetic_counts",
    "model_spec_to_dict",
    "model_spec_from_fit",
    "fit_to_csv_rows",
    "sha256_file",
    "write_output_dir",
    "dump_json",
]


def _cell(value):
    """%.17g for a finite float (numpy's float64 is one), an empty cell for
    a non-finite one; csv writes None as empty and the rest with str()."""
    if isinstance(value, float):
        return format(value, ".17g") if math.isfinite(value) else ""
    return value


def csv_text(rows):
    """rows as CSV text with LF line ends, each cell by _cell's rule."""
    buf = StringIO()
    csv.writer(buf, lineterminator="\n").writerows([_cell(v) for v in row] for row in rows)
    return buf.getvalue()


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
    return ContinuousDataset._adopt(values, names=header)


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


def _header(names):
    """names as a CSV header that reads back unchanged: _read_rows strips
    header cells, so a name with leading or trailing whitespace raises
    DataError."""
    for name in names:
        if str(name) != str(name).strip():
            raise DataError(f"category name {str(name)!r} has leading or trailing whitespace, "
                            f"which a CSV header does not keep")
    return list(names)


def proportions_csv(dataset):
    """The text of a proportions CSV, as read_proportions_csv reads it."""
    return csv_text([_header(dataset.names), *dataset.proportions.tolist()])


def counts_csv(counts):
    """The text of a counts CSV with a total column, as read_counts_csv
    reads it. A category named total, in any case, raises DataError:
    read_counts_csv would take it for the total column."""
    header = _header(counts.names)
    for name in header:
        if str(name).lower() == "total":
            raise DataError(f"category name {str(name)!r} would be read back as the total column")
    table = np.column_stack([counts.counts, counts.totals])
    return csv_text([[*header, "total"], *table.tolist()])


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
    """Table rows: parameter, estimate, estimate/SE (None without SEs)."""
    zs = result.z_scores if result.cov_scaled is not None else [None] * len(result.labels)
    rows = zip(result.labels, result.estimates, zs)
    return [("parameter", "estimate", "estimate_over_se"), *rows]


# ---------------------------------------------------------------------------
# deterministic artifacts


def dump_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_output_dir(out_dir, files):
    """Write files atomically: everything goes into a temp dir next to
    the target, which is swapped in with a rename. files maps relative
    name -> text, written with no newline translation. An existing
    target is replaced, so reruns converge to the same bytes."""
    out_dir = os.path.abspath(out_dir)
    parent = os.path.dirname(out_dir) or "."
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=os.path.basename(out_dir) + ".tmp-", dir=parent)
    try:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", newline="") as fh:
                fh.write(text)
        if os.path.isdir(out_dir):
            shutil.rmtree(out_dir)
        os.rename(tmp, out_dir)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
