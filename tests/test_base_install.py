"""The base install (numpy and scipy) measures and extracts without networkx."""

import os
import subprocess
import sys
from pathlib import Path

import repro

_SCRIPT = Path(__file__).with_name("check_base_install.py")


def test_summarize_and_extraction_never_import_networkx():
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, str(_SCRIPT)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert "without networkx" in run.stdout
