"""The quick demos run end to end as scripts and exit 0.

Demos 01-05 take about 1.6 s together.  Demos 06 and 07 train full models
(about 5 s and 24 s), so they stay out of tier-1; the CI workflow runs them
after it, and by hand:

    for f in demos/0[67]_*.py; do PYTHONPATH=src python "$f" || echo "FAILED $f"; done
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-5]_*.py"))


def test_quick_demos_are_found():
    assert len(QUICK_DEMOS) == 5


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_exits_0(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
