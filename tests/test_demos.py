"""Every script under demos/ runs to completion against the package sources,
and so does the README's library quick start."""
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\s*```python\n(.*?)```", readme, re.S).group(1)
    scope = {}
    exec(block, scope)
    j0 = scope["surface_at_origin"](scope["surface"])
    assert abs(j0 - math.exp(-0.5)) < 1e-3
