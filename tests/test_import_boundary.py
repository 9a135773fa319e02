"""No command imports scipy: numpy is the package's one numeric backend.
Importing the package does not load ``numpy.random`` either: only a command
that draws loads it.  Nor does it load any module of the package but the CLI
and ``core``: each command loads only the modules it runs, and the package's
names resolve on first use to the objects their modules define.

The checks run in a fresh interpreter, since this test process has imported
scipy already (``oracles`` does), with ``sys.modules["scipy"] = None`` so that
any import of scipy or of one of its modules raises ``ImportError``.
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

# Blocks scipy, imports the package, then runs each argv through cli.main and
# prints whether the import loaded numpy.random, the package modules it
# loaded, the exit codes and the package modules loaded at the end.
CHILD = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
import ambiconv, ambiconv.cli

def loaded():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "ambiconv")

at_import = ["numpy.random" in sys.modules, loaded()]
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(ambiconv.cli.main(argv))
print(json.dumps([*at_import, codes, loaded()]))
"""

# The names the package exported when it imported every module eagerly, by
# the module that defines them.
EXPORTS = {
    "ambiguity": (
        "AmbiguousPair AttackSearchError PairReport attack bordered_y_form collinearity"
        " rotational_family shift_ambiguity verify_pair"
    ),
    "core": (
        "DEFAULT_TOL RankError ToleranceProfile as_matrix as_signal convolve hankel_basis"
        " lift_apply matrix_from_json matrix_to_json outer rank_estimate signal_from_json"
        " signal_to_json"
    ),
    "nullspace": (
        "ClassifiedElement M2Certificate N0Certificate N2Certificate NullspaceCertificate"
        " RawCertificate certificate_from_json certificate_to_json certificate_to_matrix"
        " classify is_in_rank2_nullspace kernel_basis m2_element n0_element n2_generate n2_lift"
    ),
    "quotient": "QuotientElement RootFindingError quotient_decompose reconstruct",
}

BASE = ["ambiconv", "ambiconv.cli", "ambiconv.core"]


def run_child(commands):
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
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(7)
    x, y = rng.uniform(-1, 1, (2, 6))
    files = {
        "x": signal_to_json(x),
        "y": signal_to_json(y),
        "u": signal_to_json(x[:4]),
        "x0": signal_to_json([*x, 0.0]),  # x(m) = y(1) = 0, the shift pattern
        "y0": signal_to_json([0.0, *y]),
        "pair": attack(x, y).to_json(),
        "matrix": matrix_to_json(n2_generate(5, 7, 1)[0]),
    }
    paths = {"out": str(tmp_path / "report")}
    for name, obj in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(obj))
    return paths


def test_no_command_imports_scipy(paths):
    out = paths["out"]
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
    random_at_import, _, codes, _ = run_child(commands)
    assert (random_at_import, codes) == (False, [0] * len(commands))


# Each command, with input names the test replaces by paths, and the modules
# it loads beyond the CLI and core.
COMMAND_MODULES = [
    (["convolve", "--x", "x", "--y", "y"], []),
    (["lift", "--matrix", "matrix"], []),
    (["basis", "--m", "3", "--n", "4"], []),
    (["attack", "--x", "x", "--y", "y"], ["ambiguity", "quotient"]),
    (["shift", "--x", "x0", "--y", "y0"], ["ambiguity", "quotient"]),
    (["verify", "--pair", "pair"], ["ambiguity", "quotient"]),
    (["decompose", "--input", "x"], ["quotient"]),
    (["n0", "--u", "x", "--v", "y"], ["nullspace"]),
    (["n2", "--m", "8", "--n", "9"], ["nullspace"]),
    (["m2", "--u", "u", "--lam", "1.5"], ["nullspace"]),
    (["kernel", "--m", "3", "--n", "4"], ["nullspace"]),
    (["classify", "--matrix", "matrix"], ["nullspace"]),
    (["reproduce-paper"], ["ambiguity", "quotient", "reference"]),
    (
        ["trials", "--suite", "structure", "--nmax", "3", "--out", "out"],
        ["ambiguity", "nullspace", "quotient", "trials"],
    ),
]


@pytest.mark.parametrize(
    "argv, modules", COMMAND_MODULES, ids=[argv[0] for argv, _ in COMMAND_MODULES]
)
def test_each_command_loads_only_the_modules_it_runs(paths, argv, modules):
    argv = [paths.get(arg, arg) for arg in argv]
    _, at_import, codes, at_end = run_child([argv])
    assert at_import == BASE
    assert codes == [0]
    assert at_end == sorted(BASE + [f"ambiconv.{name}" for name in modules])


def test_every_name_is_the_object_its_module_defines():
    names = [name for group in EXPORTS.values() for name in group.split()]
    assert ambiconv.__all__ == sorted(names)
    assert len(ambiconv.__all__) == 43
    for module_name, group in EXPORTS.items():
        module = getattr(ambiconv, module_name)
        assert module is sys.modules[f"ambiconv.{module_name}"]
        for name in group.split():
            assert getattr(ambiconv, name) is getattr(module, name), name


def test_dir_and_star_import_list_every_name():
    assert set(ambiconv.__all__) <= set(dir(ambiconv))
    namespace = {}
    exec("from ambiconv import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(ambiconv.__all__)
    for name in ambiconv.__all__:
        assert namespace[name] is getattr(ambiconv, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'BACKEND'"):
        ambiconv.BACKEND  # noqa: B018
    assert getattr(ambiconv, "BACKEND", None) is None
    assert not hasattr(ambiconv, "trial_rng")
