"""scipy's LAPACK wrappers load at the first pivoted-QR rank, not with the
package: the attack and quotient paths take their eigenvalues from numpy.

Each check runs in a fresh interpreter, since this test process has imported
scipy already (``oracles`` does).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ambiconv
from ambiconv import attack, n2_generate
from ambiconv.core import matrix_to_json, signal_to_json

# Runs each argv through cli.main and reports, after the import and after
# each command, its exit code and whether scipy.linalg is loaded.
CHILD = """
import contextlib, io, json, sys
import ambiconv, ambiconv.cli
seen = [[0, "scipy.linalg" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = ambiconv.cli.main(argv)
    seen.append([code, "scipy.linalg" in sys.modules])
print(json.dumps(seen))
"""


def loaded_after(commands):
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
    return [tuple(step) for step in json.loads(done.stdout)]


@pytest.fixture
def inputs(tmp_path):
    rng = np.random.default_rng(7)
    x, y = rng.uniform(-1, 1, (2, 6))
    paths = {}
    for name, signal in (("x", x), ("y", y)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(signal_to_json(signal)))
    paths["pair"] = tmp_path / "pair.json"
    paths["pair"].write_text(json.dumps(attack(x, y).to_json()))
    paths["matrix"] = tmp_path / "matrix.json"
    paths["matrix"].write_text(json.dumps(matrix_to_json(n2_generate(5, 7, 1)[0])))
    return {name: str(path) for name, path in paths.items()}


def test_lapack_free_commands_leave_scipy_linalg_unloaded(inputs, tmp_path):
    commands = [
        ["n2", "--m", "32", "--n", "36", "--seed", "3"],
        ["convolve", "--x", inputs["x"], "--y", inputs["y"]],
        ["verify", "--pair", inputs["pair"]],
        ["reproduce-paper"],
        ["attack", "--x", inputs["x"], "--y", inputs["y"]],
        ["decompose", "--input", inputs["x"]],
        ["trials", "--suite", "attack", "--n", "20", "--seed", "1", "--out", str(tmp_path / "a")],
        ["trials", "--suite", "quotient", "--n", "20", "--seed", "1", "--out", str(tmp_path / "q")],
    ]
    assert loaded_after(commands) == [(0, False)] * 9


@pytest.mark.parametrize("command", ["classify", "nullspace"])
def test_lapack_commands_load_it(inputs, tmp_path, command):
    # Only the pivoted-QR rank (dgeqp3, which numpy lacks) needs scipy.
    argv = {
        "classify": ["classify", "--matrix", inputs["matrix"]],
        "nullspace": [
            "trials", "--suite", "nullspace", "--mmax", "4", "--nmax", "4", "--n", "2",
            "--out", str(tmp_path / "n"),
        ],  # fmt: skip
    }[command]
    assert loaded_after([argv]) == [(0, False), (0, True)]
