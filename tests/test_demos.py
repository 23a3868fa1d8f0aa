"""Every demo script, Python or shell, runs to completion against the
package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(d for d in (ROOT / "demos").iterdir() if d.suffix in (".py", ".sh"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # shell demos call `compscore`; this shim runs the CLI module from src/
    shim = tmp_path / "bin" / "compscore"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m compscore.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PATH=f"{shim.parent}{os.pathsep}{os.environ.get('PATH', '')}",
    )
    cmd = ["bash", str(demo)] if demo.suffix == ".sh" else [sys.executable, str(demo)]
    proc = subprocess.run(
        cmd,
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
