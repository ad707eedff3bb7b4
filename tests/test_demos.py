"""Every demo, and the README's library quickstart, runs to completion
against the package in this checkout."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from blockmerge import load_artifact, write_archive

from helpers import toy_model

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    left = [f for f in os.listdir(tmp_path) if f.startswith("blockmerge_demo")]
    assert not left, f"{name} left temporary directories behind: {left}"


def _readme_quickstart() -> str:
    text = Path(ROOT, "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quickstart\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quickstart_runs(tmp_path, monkeypatch, capsys):
    pre, tasks = toy_model(np.random.default_rng(0), num_tasks=4)
    write_archive(pre, str(tmp_path / "pretrained.safetensors"))
    task_paths = [str(tmp_path / f"task{k}.safetensors") for k in range(len(tasks))]
    for path, ck in zip(task_paths, tasks):
        write_archive(ck, path)
    monkeypatch.chdir(tmp_path)
    exec(compile(_readme_quickstart(), "README.md", "exec"), {"task_paths": task_paths})
    assert 0 < Fraction(capsys.readouterr().out.strip()) <= Fraction(9, 4)
    for size in ("3", "2.25", "1"):
        art = load_artifact(str(tmp_path / "out" / f"size_{size}"))
        assert art.num_tasks == 4 and art.size_report.units <= Fraction(size)
