import os
import subprocess
import sys

import pytest

DEMO_DIR = os.path.join(os.path.dirname(__file__), "..", "demos")
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


@pytest.mark.parametrize("script", sorted(
    f for f in os.listdir(DEMO_DIR) if f.endswith(".py")
))
def test_demo_runs_clean(script):
    # the demos import the package from the source tree, as the tests do
    path = os.pathsep.join(filter(None, [SRC_DIR,
                                         os.environ.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, os.path.join(DEMO_DIR, script)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert r.returncode == 0, r.stderr[-2000:]
    assert r.stdout.strip(), "demos narrate their results on stdout"
