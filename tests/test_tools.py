"""The maintenance scripts in tools/, run as a user would run them."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from compscore.io import load_synthetic_counts, read_counts_csv

ROOT = Path(__file__).resolve().parents[1]


def _run_tool(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / name), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_make_bundled_dataset_writes_a_table_like_the_bundled_one(tmp_path):
    """The tool writes 92 rows of 5 categories at total 2000 to --out,
    with the bundled table's category names, and leaves the bundled
    table alone. --out is required."""
    bundled = load_synthetic_counts()
    out = tmp_path / "counts.csv"
    proc = _run_tool("make_bundled_dataset.py", "--out", out)
    assert proc.returncode == 0, proc.stderr
    counts = read_counts_csv(out)
    assert counts.counts.shape == (92, 5)
    assert counts.names == bundled.names
    np.testing.assert_array_equal(counts.totals, 2000)
    np.testing.assert_array_equal(counts.counts.sum(axis=1), 2000)
    np.testing.assert_array_equal(load_synthetic_counts().counts, bundled.counts)
    assert _run_tool("make_bundled_dataset.py").returncode == 2
