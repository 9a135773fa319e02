"""No command imports scipy: numpy is the package's one numeric backend.
Importing the package does not load ``numpy.random`` either: only a command
that draws loads it.

The check runs in a fresh interpreter, since this test process has imported
scipy already (``oracles`` does), with ``sys.modules["scipy"] = None`` so that
any import of scipy or of one of its modules raises ``ImportError``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import ambiconv
from ambiconv import attack, n2_generate
from ambiconv.core import matrix_to_json, signal_to_json

# Blocks scipy, imports the package, then runs each argv through cli.main and
# prints whether the import loaded numpy.random, then the exit codes.
CHILD = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
import ambiconv, ambiconv.cli
random_at_import = "numpy.random" in sys.modules
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(ambiconv.cli.main(argv))
print(json.dumps([random_at_import, codes]))
"""


def test_no_command_imports_scipy(tmp_path):
    rng = np.random.default_rng(7)
    x, y = rng.uniform(-1, 1, (2, 6))
    files = {
        "x": signal_to_json(x),
        "y": signal_to_json(y),
        "pair": attack(x, y).to_json(),
        "matrix": matrix_to_json(n2_generate(5, 7, 1)[0]),
    }
    paths = {}
    for name, obj in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(obj))
    out = str(tmp_path / "report")
    commands = [
        ["n2", "--m", "32", "--n", "36", "--seed", "3"],
        ["convolve", "--x", paths["x"], "--y", paths["y"]],
        ["verify", "--pair", paths["pair"]],
        ["reproduce-paper"],
        ["attack", "--x", paths["x"], "--y", paths["y"]],
        ["decompose", "--input", paths["x"]],
        ["classify", "--matrix", paths["matrix"]],
        ["trials", "--suite", "attack", "--n", "20", "--seed", "1", "--out", out],
        ["trials", "--suite", "quotient", "--n", "20", "--seed", "1", "--out", out],
        ["trials", "--suite", "nullspace", "--mmax", "4", "--nmax", "4", "--n", "2", "--out", out],
    ]
    path = [str(Path(ambiconv.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert json.loads(done.stdout) == [False, [0] * len(commands)]
