"""The walkthrough scripts in demos/ run to completion at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = {
    "sweep_anisotropy.py": ["--points", "20"],
    "sweep_asymmetry.py": ["--points", "20"],
    "flow_portraits.py": ["--steps", "3"],
}


def test_demos_run():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for script, args in DEMOS.items():
        proc = subprocess.run(
            [sys.executable, str(ROOT / "demos" / script)] + args,
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0, (script, proc.stderr)
        assert proc.stdout.strip(), script
