"""Smoke tests: every example script runs cleanly end to end, on NumPy
alone (a stub first on the path makes ``import scipy`` fail)."""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py"))

#: Per-script wall-time budget (seconds); the heavier sweeps get more.
BUDGETS = {
    "blackscholes_scaleout.py": 300,
    "policy_playground.py": 300,
    "autoscaling.py": 200,
}


@pytest.fixture
def without_scipy(tmp_path):
    """An environment in which ``import scipy`` fails, as if SciPy were
    not installed."""
    stub = tmp_path / "scipy"
    stub.mkdir()
    (stub / "__init__.py").write_text(
        "raise ModuleNotFoundError('examples run without SciPy')\n")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(tmp_path)] + ([path] if path else []))}


@pytest.mark.parametrize("script", EXAMPLES, ids=[s.name for s in EXAMPLES])
def test_example_runs(script, without_scipy):
    timeout = BUDGETS.get(script.name, 120)
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=timeout, env=without_scipy)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "example produced no output"


def test_every_example_has_module_docstring():
    for script in EXAMPLES:
        head = script.read_text().lstrip()
        assert head.startswith('"""'), f"{script.name} lacks a docstring"


def test_at_least_three_domain_examples():
    """Deliverable (b): quickstart plus >= 2 domain scenarios."""
    names = {s.name for s in EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 3
