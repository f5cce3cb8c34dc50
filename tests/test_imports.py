"""The model, experiment and scenario layers import nothing beyond the
standard library and numpy.

Start-up of every command is mostly import time, and numpy is the only
third-party dependency a plain install has: a module that quietly pulls
in scipy (or any other package) would slow every command and break a
numpy-only install.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import repro.core, repro.experiments, repro.traffic.scenarios
print(json.dumps(sorted(set(sys.modules) - before)))
"""


@pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"), reason="needs Python >= 3.10"
)
def test_package_imports_only_stdlib_and_numpy():
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    loaded = json.loads(out.stdout.strip().splitlines()[-1])
    assert any(name.startswith("repro.core") for name in loaded)
    foreign = [
        name
        for name in loaded
        if name.split(".")[0] not in sys.stdlib_module_names
        and name.split(".")[0] not in ("numpy", "repro")
    ]
    assert foreign == []
