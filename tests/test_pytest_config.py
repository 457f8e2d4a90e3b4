"""The test configuration in pyproject.toml reports a failure, not an abort."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_SAMPLE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    # On a failure hypothesis imports libcst to print an explicit-example
    # patch; under `filterwarnings = ["error"]` a warning from that import
    # ended the session with INTERNALERROR, before test_passes ran.
    (tmp_path / "test_sample.py").write_text(_SAMPLE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
