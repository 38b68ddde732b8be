"""The suite's own pytest configuration in pyproject.toml."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # hypothesis imports libcst to print a failing example's patch, and that
    # import raises a DeprecationWarning; with every warning an error, it
    # ended the session with INTERNALERROR and skipped every later test
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY_THEN_PASSING)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_two.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
