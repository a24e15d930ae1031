"""The repo's pytest settings let a failing property test report its example."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st

@given(st.integers())
def test_fails(x):
    assert x < 5

def test_passes():
    pass
'''


def test_failing_property_test_prints_its_example(tmp_path):
    # filterwarnings = error turns any warning Hypothesis raises while it
    # reports the failure into an INTERNALERROR (exit 3) that hides the example
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "test_property.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example: test_fails(" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
