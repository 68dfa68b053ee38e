"""The pytest configuration fails a failing test and lets the run go on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(n):
    assert n < 0
"""


def test_a_failing_hypothesis_test_fails_only_itself(tmp_path):
    """Hypothesis's failure report imports modules that warn on import; under
    `filterwarnings = error` such a warning would abort the whole run
    (exit code 3, an internal error) instead of failing this one test."""
    (tmp_path / "test_failing.py").write_text(FAILING, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "-q", "test_failing.py"],
        cwd=tmp_path,  # hypothesis writes its example database and patches here
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 1, run.stdout[-3000:] + run.stderr[-3000:]
    assert "1 failed" in run.stdout
