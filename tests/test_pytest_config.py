"""The test settings in pyproject.toml let a failing Hypothesis example
report as a failure.

Hypothesis imports libcst to print a failing example as a patch, and
libcst subclasses the deprecated mypy_extensions.TypedDict. Under
`filterwarnings = ["error"]` that warning would be raised inside pytest's
report hook, stop the session with INTERNALERROR and leave every later
test unreported.
"""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_example_lets_later_tests_report(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = res.stdout + res.stderr
    assert res.returncode == 1, out
    assert "1 failed, 1 passed" in out
    assert "INTERNALERROR" not in out
