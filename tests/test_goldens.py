"""The benchmark's golden outputs (``report`` in every format, ``verify --json``
and every sweep grid) still match the program byte for byte."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MAKE_GOLDENS = ROOT / "bench" / "make_goldens.py"


@pytest.mark.skipif(not MAKE_GOLDENS.is_file(), reason="no bench/ in this checkout")
def test_outputs_match_goldens():
    proc = subprocess.run(
        [sys.executable, str(MAKE_GOLDENS), "--check"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
