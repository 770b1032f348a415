"""The test suite's own settings in pyproject.toml: they must not hide what
a failing test reports."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_failing_property_test_shows_its_example(tmp_path):
    # hypothesis prints the example through its patch writer, whose import
    # warns; the suite's warnings-as-errors filters must let it through
    (tmp_path / "test_fails.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st


        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_fails(n):
            assert n < 10
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
