"""The benchmark's self-test runs with the unit tests.

``bench/`` imports library functions by name (canonical_key, variant_names,
DomainDoc, library_name_map and more), so a refactor that renames or breaks
one of them must fail here rather than only when the benchmark is run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
