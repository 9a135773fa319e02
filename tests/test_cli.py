import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ambiconv
from ambiconv import (
    AmbiguousPair,
    M2Certificate,
    N0Certificate,
    N2Certificate,
    attack,
    certificate_from_json,
    certificate_to_json,
    classify,
    cli,
    convolve,
    core,
    n2_generate,
    trials,
)
from ambiconv.cli import main
from ambiconv.core import matrix_to_json, signal_to_json
from ambiconv.quotient import QuotientElement, RootFindingError

DATA = Path(__file__).parent / "data"
# Trial report layouts recorded from the CLI before the suites shared one
# campaign driver; "attack --n 30 --seed 9" was recorded again once attack
# rows were judged by verify_pair's collinearity margin (row 27 certifies).
# Float residuals are left out: they can differ across BLAS builds.
TRIALS_LAYOUT = json.loads((DATA / "trials_layout.json").read_text())


def write_signal(path, entries):
    path.write_text(json.dumps(signal_to_json(np.asarray(entries, dtype=float))))
    return str(path)


def write_matrix(path, entries):
    path.write_text(json.dumps(matrix_to_json(np.asarray(entries, dtype=float))))
    return str(path)


# The required options of every command, with values argparse accepts.
REQUIRED_ARGS = {
    "convolve": ["--x", "x.json", "--y", "y.json"],
    "lift": ["--matrix", "w.json"],
    "basis": ["--m", "3", "--n", "3"],
    "n0": ["--u", "u.json", "--v", "v.json"],
    "n2": ["--m", "3", "--n", "3"],
    "m2": ["--u", "u.json", "--lam", "1.5"],
    "kernel": ["--m", "3", "--n", "3"],
    "decompose": ["--input", "w.json"],
    "classify": ["--matrix", "w.json"],
    "attack": ["--x", "x.json", "--y", "y.json"],
    "shift": ["--x", "x.json", "--y", "y.json"],
    "verify": ["--pair", "pair.json"],
    "reproduce-paper": [],
    "trials": ["--suite", "attack"],
}

# The shared options, each with the commands whose handlers read it; every
# command also takes --out.
SHARED_OPTIONS = {
    "--format": {"convolve", "lift", "decompose", "verify", "reproduce-paper", "trials"},
    "--tol-rel": {"decompose", "classify", "attack", "verify", "trials"},
    "--seed": {"n2", "trials"},
}
UNREAD_OPTIONS = [
    (command, flag)
    for flag, readers in SHARED_OPTIONS.items()
    for command in sorted(REQUIRED_ARGS)
    if command not in readers
]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_convolve(self, tmp_path, capsys):
        x = write_signal(tmp_path / "x.json", [1, 0, 1])
        y = write_signal(tmp_path / "y.json", [1, 1])
        code, out, _ = run(capsys, ["convolve", "--x", x, "--y", y])
        assert code == 0
        assert json.loads(out) == {"len": 4, "entries": [1.0, 1.0, 1.0, 1.0]}

    def test_lift_matches_convolve_of_outer(self, tmp_path, capsys):
        w = write_matrix(tmp_path / "w.json", np.outer([1.0, 2.0], [3.0, 4.0, 5.0]))
        code, out, _ = run(capsys, ["lift", "--matrix", w])
        assert code == 0
        got = json.loads(out)["entries"]
        assert got == [3.0, 10.0, 13.0, 10.0]

    def test_basis_single_index(self, capsys):
        code, out, _ = run(capsys, ["basis", "--m", "3", "--n", "4", "--j", "3"])
        assert code == 0
        obj = json.loads(out)
        assert obj["entries"] == [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]

    def test_n0_and_classify_round_trip(self, tmp_path, capsys):
        u = write_signal(tmp_path / "u.json", [1.0, 2.0])
        v = write_signal(tmp_path / "v.json", [1.5, -0.5, 1.0])
        code, out, _ = run(capsys, ["n0", "--u", u, "--v", v])
        assert code == 0
        w = write_matrix(tmp_path / "q.json", json.loads(out)["entries"])
        code, out, _ = run(capsys, ["classify", "--matrix", w])
        assert code == 0
        obj = json.loads(out)
        assert obj["kind"] == "n0"
        assert obj["refactorization_residual"] <= 1e-9

    def test_n2_seeded_deterministic(self, capsys):
        code, out1, _ = run(capsys, ["n2", "--m", "4", "--n", "5", "--seed", "9"])
        assert code == 0
        code, out2, _ = run(capsys, ["n2", "--m", "4", "--n", "5", "--seed", "9"])
        assert out1 == out2
        obj = json.loads(out1)
        assert obj["certificate"]["kind"] == "n2"

    def test_n2_and_classify_certificates_round_trip(self, tmp_path, capsys):
        # Both certificates, 38 levels deep, reload to the library's own
        # level vectors and bottom bit for bit.
        out = tmp_path / "n2.json"
        assert main(["n2", "--m", "40", "--n", "43", "--out", str(out)]) == 0
        written = json.loads(out.read_text())
        matrix, generated = n2_generate(40, 43, 0)
        assert written["matrix"] == matrix_to_json(matrix)
        path = write_matrix(tmp_path / "w.json", written["matrix"]["entries"])
        assert main(["classify", "--matrix", path, "--out", str(tmp_path / "c.json")]) == 0
        classified = json.loads((tmp_path / "c.json").read_text())
        assert classified["kind"] == "n2"
        pairs = [(written, generated), (classified, classify(matrix).certificate)]
        for obj, want in pairs:
            got = certificate_from_json(obj["certificate"])
            assert len(got.levels) == len(want.levels) == 38
            for row, want_row in zip(got.levels, want.levels):
                assert [v.tobytes() for v in row] == [v.tobytes() for v in want_row]
            assert got.bottom.u.tobytes() == want.bottom.u.tobytes()
            assert got.bottom.v.tobytes() == want.bottom.v.tobytes()
        assert capsys.readouterr().out == ""

    def test_m2_command(self, tmp_path, capsys):
        u = write_signal(tmp_path / "u.json", [1.0])
        code, out, _ = run(capsys, ["m2", "--u", u, "--lam", "1.0"])
        assert code == 0
        obj = json.loads(out)
        assert obj["matrix"]["entries"] == [[0, -1, 0], [1, 0, 1], [0, -1, 0]]
        assert obj["certificate"] == {"kind": "m2", "u": [1.0], "lambda": 1.0}

    def test_kernel_count(self, capsys):
        code, out, _ = run(capsys, ["kernel", "--m", "3", "--n", "4"])
        assert code == 0
        assert json.loads(out)["count"] == 6

    def test_decompose(self, tmp_path, capsys):
        w = write_signal(tmp_path / "w.json", [3.0, 4.0])
        code, out, _ = run(capsys, ["decompose", "--input", w])
        assert code == 0
        elements = json.loads(out)
        assert len(elements) == 2
        assert all(e["residual"] <= 1e-12 for e in elements)

    def test_attack_then_verify(self, tmp_path, capsys):
        x = write_signal(tmp_path / "x.json", [1.0, 2.0, 3.0, 4.0])
        y = write_signal(tmp_path / "y.json", [1.0, 1.0, 2.0, 1.0])
        pair_path = tmp_path / "pair.json"
        code = main(
            ["attack", "--x", x, "--y", y, "--out", str(pair_path)]
        )
        assert code == 0
        capsys.readouterr()
        code, out, _ = run(capsys, ["verify", "--pair", str(pair_path)])
        assert code == 0
        report = json.loads(out)
        assert report["certifies_unidentifiability"] is True

    def test_shift_command(self, tmp_path, capsys):
        x = write_signal(tmp_path / "x.json", [1.0, 2.0, 0.0])
        y = write_signal(tmp_path / "y.json", [0.0, 3.0, 4.0])
        code, out, _ = run(capsys, ["shift", "--x", x, "--y", y])
        assert code == 0
        obj = json.loads(out)
        assert obj["residual"] == 0.0

    def test_verify_refuses_scaling_pair(self, tmp_path, capsys):
        pair = {
            "x": {"len": 2, "entries": [1.0, 2.0]},
            "y": {"len": 2, "entries": [3.0, 4.0]},
            "x_alt": {"len": 2, "entries": [2.0, 4.0]},
            "y_alt": {"len": 2, "entries": [1.5, 2.0]},
        }
        p = tmp_path / "pair.json"
        p.write_text(json.dumps(pair))
        code, out, _ = run(capsys, ["verify", "--pair", str(p)])
        assert code == 1
        assert json.loads(out)["certifies_unidentifiability"] is False


def writer_cases(tmp_path):
    """Each command's argv and the payload the in-process API builds for it."""
    x, y = np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 1.0, 2.0, 1.0])
    xp, yp = write_signal(tmp_path / "x.json", x), write_signal(tmp_path / "y.json", y)
    matrix, cert = n2_generate(40, 43, 0)
    result = classify(matrix)
    return {
        "convolve": (["convolve", "--x", xp, "--y", yp], signal_to_json(convolve(x, y))),
        "n2": (
            ["n2", "--m", "40", "--n", "43"],
            {"certificate": certificate_to_json(cert), "matrix": matrix_to_json(matrix)},
        ),
        "classify": (
            ["classify", "--matrix", write_matrix(tmp_path / "w.json", matrix)],
            {
                "kind": "n2",
                "certificate": certificate_to_json(result.certificate),
                "refactorization_residual": result.refactorization_residual,
            },
        ),
        "attack": (["attack", "--x", xp, "--y", yp], attack(x, y).to_json()),
        "trials": (
            ["trials", "--suite", "attack", "--n", "50"],
            trials.run_suite("attack", n_trials=50).to_json(),
        ),
    }


class TestWriter:
    """Every command writes one line, the sorted-key compact dump of its
    payload, and --out holds the same bytes as stdout."""

    @pytest.mark.parametrize("command", ["convolve", "n2", "classify", "attack", "trials"])
    def test_output_is_the_compact_dump_of_the_api_payload(self, command, tmp_path, capsys):
        argv, payload = writer_cases(tmp_path)[command]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert out == json.dumps(payload, sort_keys=True) + "\n"
        path = tmp_path / "out.json"
        assert main(argv + ["--out", str(path)]) == 0
        assert path.read_bytes() == out.encode()
        assert capsys.readouterr().out == ""

    def test_payload_floats_keep_their_bits(self):
        special = [-0.0, 5e-324, 1.5]
        want = [v.hex() for v in special]
        vec = np.array(special)
        payloads = [
            (signal_to_json(vec), lambda p: [p["entries"]]),
            (matrix_to_json(vec[None, :]), lambda p: p["entries"]),
            (
                certificate_to_json(N0Certificate(u=vec, v=vec)),
                lambda p: [p["u"], p["v"]],
            ),
            (certificate_to_json(M2Certificate(u=vec, lam=1.5)), lambda p: [p["u"]]),
            (
                certificate_to_json(N2Certificate(((vec, vec, vec, vec),), N0Certificate(vec, vec))),
                lambda p: [*p["levels"][0].values(), p["bottom"]["u"], p["bottom"]["v"]],
            ),
        ]
        for payload, vectors in payloads:
            for parsed in (payload, json.loads(json.dumps(payload, sort_keys=True))):
                for entries in vectors(parsed):
                    assert [type(v) for v in entries] == [float] * 3
                    assert [v.hex() for v in entries] == want


class TestReproduceCommand:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, ["reproduce-paper"])
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] is True
        assert len(obj["checks"]) == 9

    def test_corrupted_fixture_fails_with_index(self, tmp_path, capsys):
        bad = write_signal(tmp_path / "x1.json", [9, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1])
        code, out, _ = run(capsys, ["reproduce-paper", "--x1", bad])
        assert code == 1
        obj = json.loads(out)
        assert obj["ok"] is False
        failing = [c for c in obj["checks"] if not c["ok"]]
        assert failing and failing[0]["first_bad_index"] == 0

    def test_short_override_names_the_mismatched_pair(self, tmp_path, capsys):
        short = write_signal(tmp_path / "x1.json", [1, 0, 1, 0, 0, 0, 0, 0, 1, 0])
        code, out, _ = run(capsys, ["reproduce-paper", "--x1", short])
        assert code == 1
        seed = json.loads(out)["checks"][-1]
        assert seed["name"] == "rotational family seed condition"
        assert seed["detail"] == "x1 and x2 differ in length: 10 vs 11"

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, ["reproduce-paper", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("check,ok,detail")
        assert len(lines) == 10


class TestTrialsCommand:
    def test_quotient_suite_deterministic_bytes(self, tmp_path, capsys):
        args = ["trials", "--suite", "quotient", "--n", "20", "--seed", "7"]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["success_rate"] == 1.0
        assert "wall_time_s" not in json.dumps(report)

    def test_attack_suite_deterministic_bytes(self, tmp_path):
        args = ["trials", "--suite", "attack", "--n", "200", "--seed", "3"]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert json.loads(out1.read_text())["success_rate"] == 1.0

    def test_attack_suite_small(self, capsys):
        code, out, _ = run(
            capsys, ["trials", "--suite", "attack", "--n", "25", "--seed", "42"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["trials"] == 25
        assert report["success_rate"] == 1.0

    def test_kernel_suite_csv(self, capsys):
        code, out, _ = run(
            capsys,
            ["trials", "--suite", "kernel", "--mmax", "5", "--nmax", "5", "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "suite,index,m,n,d,label,success,residual,collinearity"
        assert len(lines) == 26

    def test_json_report_builds_no_csv_rows(self, monkeypatch, capsys):
        def refuse(self):
            raise AssertionError("CSV rows built for a JSON report")

        monkeypatch.setattr(trials.TrialReport, "to_csv_rows", refuse)
        code, out, _ = run(capsys, ["trials", "--suite", "kernel", "--mmax", "4", "--nmax", "4"])
        assert code == 0 and json.loads(out)["trials"] > 0

    def test_structure_suite(self, capsys):
        code, out, _ = run(capsys, ["trials", "--suite", "structure", "--nmax", "12"])
        assert code == 0
        assert json.loads(out)["success_rate"] == 1.0

    def test_timing_flag_adds_wall_times(self, capsys):
        code, out, _ = run(
            capsys,
            ["trials", "--suite", "structure", "--nmax", "4", "--timing"],
        )
        assert code == 0
        assert "wall_time_s" in out

    def test_csv_timing_adds_wall_time_column(self, capsys):
        argv = ["trials", "--suite", "attack", "--n", "3", "--format", "csv"]
        _, plain, _ = run(capsys, argv)
        code, out, _ = run(capsys, argv + ["--timing"])
        assert code == 0
        header, *rows = out.strip().splitlines()
        assert header.split(",") == [*trials.TrialReport.CSV_COLUMNS, "wall_time_s"]
        assert len(rows) == 3
        for timed, untimed in zip(rows, plain.strip().splitlines()[1:]):
            kept, wall = timed.rsplit(",", 1)
            assert kept == untimed and float(wall) >= 0.0

    @pytest.mark.parametrize(
        "argv, recorded",
        [
            ("kernel --mmax 5 --nmax 5", "trials_kernel_mmax5_nmax5.json"),
            ("structure --nmax 6", "trials_structure_nmax6.json"),
        ],
    )
    def test_exact_reports_are_pinned(self, argv, recorded, capsys):
        code, out, _ = run(capsys, ["trials", "--suite", *argv.split()])
        assert code == 0
        # The data files hold the indented reports of an earlier writer; the
        # compact dump of their values is still an exact byte pin, since
        # Python's float repr round-trips.
        assert out == json.dumps(json.loads((DATA / recorded).read_text()), sort_keys=True) + "\n"

    @pytest.mark.parametrize("argv", sorted(TRIALS_LAYOUT))
    def test_report_layout_is_pinned(self, argv, capsys):
        expected = TRIALS_LAYOUT[argv]
        code, out, _ = run(capsys, ["trials", "--suite", *argv.split()])
        report = json.loads(out)
        assert code == expected["exit"]
        rows = [[r["index"], r["dims"], r.get("label", ""), r["success"]] for r in report["rows"]]
        assert rows == expected["rows"]
        assert [sorted(f) for f in report["failures"]] == expected["failure_keys"]

    def test_failed_structure_row_still_writes_report(self, monkeypatch, capsys):
        kernel_basis = trials.kernel_basis

        def perturbed(m, n):
            basis = [q.copy() for q in kernel_basis(m, n)]
            if n == 4:
                basis[0][0, 0] = 1e-3
            return basis

        monkeypatch.setattr(trials, "kernel_basis", perturbed)
        code, out, _ = run(capsys, ["trials", "--suite", "structure", "--nmax", "6"])
        assert code == 1
        report = json.loads(out)
        assert report["successes"] == report["trials"] - 1 == 4
        assert report["failures"] == [{"index": 2, "n": 4}]

    def test_report_is_strict_json(self, capsys):
        argv = "trials --suite attack --n 5 --seed 1 --tol-rel 1e-17"
        code, out, _ = run(capsys, argv.split())

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        report = json.loads(out, parse_constant=refuse)
        assert code == 1
        # No row finds an element at this tolerance: a failed check's
        # infinite residual is written as null.
        assert report["max_residual"] is None
        assert [r["residual"] for r in report["rows"]] == [None] * 5

    def test_raising_check_is_failed_row(self, monkeypatch, capsys):
        message = "companion eigenvalue solver failed: Eigenvalues did not converge"

        def fails(w, tol=None):
            raise RootFindingError(message)

        monkeypatch.setattr(trials, "quotient_decompose", fails)
        code, out, _ = run(capsys, ["trials", "--suite", "quotient", "--n", "10", "--seed", "7"])
        assert code == 1
        report = json.loads(out)
        assert report["trials"] == 12
        assert not any(r["success"] for r in report["rows"])
        assert all(r["residual"] is None for r in report["rows"])
        assert [f["index"] for f in report["failures"]] == list(range(12))
        assert all(f["error"] == message for f in report["failures"])

    # The draws of "trials --suite quotient --n 1 --seed 5": one random row
    # (d = 8) and one forward row (d = 4).  Both are plain rng draws.
    QUOTIENT_RANDOM_W = [
        1.998764172597607, 0.030651122084284, -0.4283972398237168, -0.8921385952366871,
        -0.23326223842896354, -0.1830535891600027, -0.9094496121951097, -0.8517653025047359,
    ]
    QUOTIENT_FORWARD = {
        "w_star": [-0.5795577095862174, 0.39176068868422975, 0.6330752916859435],
        "gamma": 4.995278872418199,
    }

    def test_quotient_failure_dumps_are_pinned(self, monkeypatch, capsys):
        decompose = trials.quotient_decompose

        def shifted(w, tol=None):
            return [QuotientElement(e.w_star, e.gamma + 1e-3) for e in decompose(w, tol)]

        monkeypatch.setattr(trials, "quotient_decompose", shifted)
        code, out, _ = run(capsys, ["trials", "--suite", "quotient", "--n", "1", "--seed", "5"])
        assert code == 1
        assert json.loads(out)["failures"] == [
            {"index": 0, "w": self.QUOTIENT_RANDOM_W, "count": 2},
            {"index": 1, **self.QUOTIENT_FORWARD},
        ]

    def test_raising_quotient_failure_dumps_are_pinned(self, monkeypatch, capsys):
        def fails(w, tol=None):
            raise RootFindingError("no convergence")

        monkeypatch.setattr(trials, "quotient_decompose", fails)
        code, out, _ = run(capsys, ["trials", "--suite", "quotient", "--n", "1", "--seed", "5"])
        assert code == 1
        assert json.loads(out)["failures"] == [
            {"index": 0, "w": self.QUOTIENT_RANDOM_W, "error": "no convergence"},
            {"index": 1, **self.QUOTIENT_FORWARD, "error": "no convergence"},
        ]

    def test_nullspace_failure_dumps_are_pinned(self, monkeypatch, capsys):
        rank = trials._rank
        monkeypatch.setattr(
            trials, "_rank", lambda q, *rest: 3 if q.shape == (3, 3) else rank(q, *rest)
        )
        argv = "trials --suite nullspace --mmax 3 --nmax 3 --n 2 --seed 1"
        code, out, _ = run(capsys, argv.split())
        assert code == 1
        report = json.loads(out)
        assert report["trials"] == 18
        assert report["failures"] == [
            {"index": index, "constructor": label, "m": 3, "n": 3, "draw": draw}
            for index, draw in ((6, 0), (7, 1))
            for label in ("n0", "n2", "m2")
        ]

    def test_kernel_failure_dump_is_pinned(self, monkeypatch, capsys):
        kernel_basis = trials.kernel_basis

        def short(m, n):
            basis = kernel_basis(m, n)
            return basis[:-1] if (m, n) == (3, 4) else basis

        monkeypatch.setattr(trials, "kernel_basis", short)
        code, out, _ = run(capsys, ["trials", "--suite", "kernel", "--mmax", "4", "--nmax", "4"])
        assert code == 1
        assert json.loads(out)["failures"] == [{"index": 11, "m": 3, "n": 4, "count": 5}]


class TestErrorPaths:
    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["convolve", "--x", "/nonexistent.json", "--y", "/n2.json"])
        assert code == 2
        obj = json.loads(err)
        assert obj["error"]["code"] == "missing-file"
        assert obj["error"]["path"] == "/nonexistent.json"

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, err = run(capsys, ["lift", "--matrix", str(p)])
        assert code == 2
        assert json.loads(err)["error"]["code"] == "malformed-json"

    def test_directory_input_is_unreadable_file(self, tmp_path, capsys):
        y = write_signal(tmp_path / "y.json", [1.0, 1.0])
        code, out, err = run(capsys, ["convolve", "--x", str(tmp_path), "--y", y])
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert (error["code"], error["path"]) == ("unreadable-file", str(tmp_path))

    def test_non_utf8_input_is_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_bytes(b"\xff\xfe")
        for argv in (["convolve", "--x", str(p), "--y", str(p)], ["verify", "--pair", str(p)]):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, "")
            error = json.loads(err)["error"]
            assert (error["code"], error["path"]) == ("malformed-json", str(p))

    def test_string_entries_are_bad_signal(self, tmp_path, capsys):
        p = tmp_path / "x.json"
        p.write_text(json.dumps({"len": 2, "entries": ["1.5", "2"]}))
        code, out, err = run(capsys, ["convolve", "--x", str(p), "--y", str(p)])
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["code"] == "bad-signal"
        assert error["message"] == "signal entries must be real numbers"

    def test_ragged_rows_are_bad_matrix(self, tmp_path, capsys):
        # numpy's own message, about an "inhomogeneous shape", names no kind.
        p = tmp_path / "w.json"
        p.write_text(json.dumps({"m": 2, "n": 2, "entries": [[1.0, 2.0], [3.0]]}))
        code, out, err = run(capsys, ["lift", "--matrix", str(p)])
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["code"] == "bad-matrix"
        assert error["message"] == "matrix entries must form a rectangular array, not ragged rows"

    @pytest.mark.parametrize(
        "bad, message",
        [(True, "real numbers"), (None, "real numbers"), (10**400, "finite")],
        ids=["true", "null", "int-beyond-float64"],
    )
    def test_bool_null_and_huge_entries_are_bad_signal(self, tmp_path, capsys, bad, message):
        p = tmp_path / "x.json"
        p.write_text(json.dumps({"len": 2, "entries": [bad, 2.0]}))
        code, out, err = run(capsys, ["convolve", "--x", str(p), "--y", str(p)])
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["code"] == "bad-signal"
        assert error["message"] == f"signal entries must be {message}"

    def test_integer_beyond_float64_scalar_reads_as_1e400(self, tmp_path, capsys):
        # The integer spelling ended in an OverflowError traceback, exit 1.
        x = np.array([1.0, 2.0, 3.0, 4.0])
        text = json.dumps({**AmbiguousPair(x, x, -x, -x, 0.0, 0.0).to_json(), "residual": 0})
        results = []
        for spelling in ("1e400", "1" + "0" * 400):
            path = tmp_path / "pair.json"
            path.write_text(text.replace('"residual": 0', f'"residual": {spelling}'))
            results.append(run(capsys, ["verify", "--pair", str(path)]))
        # A collinear pair: a report that does not certify, exit 1, and no error.
        assert results[0] == results[1] and results[0][1] and not results[0][2]

    def test_schema_violation_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"len": 3, "entries": [1.0]}))
        code, _, err = run(capsys, ["convolve", "--x", str(p), "--y", str(p)])
        assert code == 2
        assert json.loads(err)["error"]["code"] == "bad-signal"

    def test_attack_precondition_is_usage_error(self, tmp_path, capsys):
        x = write_signal(tmp_path / "x.json", [1.0, 2.0, 3.0])
        y = write_signal(tmp_path / "y.json", [1.0, 1.0, 2.0, 1.0])
        code, _, err = run(capsys, ["attack", "--x", x, "--y", y])
        assert code == 2
        assert json.loads(err)["error"]["code"] == "invalid-input"

    def test_overflowing_pair_is_usage_error(self, tmp_path, capsys):
        # x*y reaches 1e400; at the parent both commands printed a NaN residual.
        x = write_signal(tmp_path / "x.json", [1e200, 2e200, -1e200, 3e200])
        y = write_signal(tmp_path / "y.json", [1e200, -2e200, 1e200, 2e200])
        sx, sy = (json.loads(Path(p).read_text()) for p in (x, y))
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({"x": sx, "y": sy, "x_alt": sx, "y_alt": sy}))
        for argv in (["attack", "--x", x, "--y", y], ["verify", "--pair", str(pair)]):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, "")
            assert json.loads(err)["error"]["code"] == "invalid-input"

    def test_overflowing_n0_and_lift_are_usage_errors(self, tmp_path, capsys):
        u = write_signal(tmp_path / "u.json", [1e200, 1.0])
        v = write_signal(tmp_path / "v.json", [1e200, 2.0])
        w = write_matrix(tmp_path / "w.json", np.full((3, 3), 1e308))
        for argv in (["n0", "--u", u, "--v", v], ["lift", "--matrix", w]):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, "")
            error = json.loads(err)["error"]
            assert error["code"] == "invalid-input" and "overflow" in error["message"]

    def test_overflowing_m2_border_is_usage_error(self, tmp_path, capsys):
        # Unrefused, a RuntimeWarning reached stderr before the JSON error,
        # and under warnings-as-errors the command ended in a traceback.
        u = write_signal(tmp_path / "u.json", [1e200])
        for action in ("always", "error"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                code, out, err = run(capsys, ["m2", "--u", u, "--lam", "1e200"])
            assert (code, out) == (2, "")
            assert err.count("\n") == 1
            error = json.loads(err)["error"]
            assert error["code"] == "invalid-input" and "overflows float64" in error["message"]

    def test_overflowing_convolution_is_usage_error(self, tmp_path, capsys):
        # The inputs are finite: the refusal names the overflow, and no
        # RuntimeWarning reaches stderr.
        x = write_signal(tmp_path / "x.json", [1e200, 1.0])
        y = write_signal(tmp_path / "y.json", [1e200, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["convolve", "--x", x, "--y", y])
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["code"] == "invalid-input" and "overflows float64" in error["message"]

    def test_overflowing_output_difference_is_usage_error(self, tmp_path, capsys):
        big = np.array([1.3e154, 1.0])
        pair = AmbiguousPair(big, big, big * [-1.0, 1.0], big, 0.0, 0.0)
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(pair.to_json()))
        code, out, err = run(capsys, ["verify", "--pair", str(path)])
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["code"] == "invalid-input" and "overflows float64" in error["message"]

    def test_attack_search_failure_exits_1(self, tmp_path, capsys):
        # X(z) = -Y(z) = (1 + z)(1 + z^2): the one angle pair is degenerate.
        x = write_signal(tmp_path / "x.json", [1.0, 1.0, 1.0, 1.0])
        y = write_signal(tmp_path / "y.json", [-1.0, -1.0, -1.0, -1.0])
        code, out, err = run(capsys, ["attack", "--x", x, "--y", y])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"]["code"] == "attack-search-failed"

    def test_root_finding_failure_exits_1(self, tmp_path, capsys):
        # The companion row 1e300 / 1e-300 overflows.
        w = write_signal(tmp_path / "w.json", [1e300, 1.0, 1e-300])
        argv = ["decompose", "--input", w, "--tol-rel", "0"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"]["code"] == "root-finding-failed"

    def test_rank_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        # A NaN from the SVD gufunc is a solver failure, not a low rank.
        monkeypatch.setattr(core, "_svd", lambda a, **_: np.full(min(a.shape), np.nan))
        w = write_matrix(tmp_path / "w.json", n2_generate(5, 7, 1)[0])
        code, out, err = run(capsys, ["classify", "--matrix", w])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"]["code"] == "rank-failed"

    def test_numerical_errors_share_one_base(self):
        # main catches the base, so it needs none of the solver modules.
        errors = {
            ambiconv.AttackSearchError: "attack-search-failed",
            ambiconv.RankError: "rank-failed",
            ambiconv.RootFindingError: "root-finding-failed",
        }
        for error, code in errors.items():
            assert issubclass(error, core.NumericalError)
            assert issubclass(error, RuntimeError)
            assert error.code == code

    @pytest.mark.parametrize(
        "command, field, value, code",
        [
            ("convolve", "len", [4], "bad-signal"),
            ("convolve", "len", 4.5, "bad-signal"),
            ("classify", "m", 2.5, "bad-matrix"),
            ("classify", "n", True, "bad-matrix"),
            ("verify", "residual", [0.0], "bad-pair"),
            ("verify", "residual", True, "bad-pair"),
            ("verify", "collinearity", None, "bad-pair"),
        ],
    )
    def test_mistyped_json_field_is_usage_error(
        self, tmp_path, capsys, command, field, value, code
    ):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        obj, option = {
            "convolve": (signal_to_json(x), "--x"),
            "classify": (matrix_to_json(n2_generate(2, 3, 1)[0]), "--matrix"),
            "verify": (AmbiguousPair(x, x, x, x, 0.0, 0.0).to_json(), "--pair"),
        }[command]
        path = tmp_path / "in.json"
        path.write_text(json.dumps({**obj, field: value}))
        argv = [command, option, str(path)] + (["--y", str(path)] if command == "convolve" else [])
        exit_code, out, err = run(capsys, argv)
        assert (exit_code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["code"] == code and f'"{field}"' in error["message"]

    def test_closed_output_pipe_exits_without_traceback(self):
        path = [str(Path(ambiconv.__file__).parent.parent), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        argv = [sys.executable, "-m", "ambiconv", "trials", "--suite", "attack", "--n", "20"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()  # the reader leaves before the report is written
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err, err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--tol-rel", "nan"],
            ["--tol-rel", "inf"],
            ["--tol-rel=-inf"],
            ["--tol-rel=-1e-3"],
            ["--tol-rel", "-1e-3"],
            ["--tol-rel", "-inf"],
            ["--tol-abs", "nan"],
            ["--tol-abs", "-inf"],
        ],
        ids=[
            "tol-nan",
            "tol-inf",
            "tol-rel-minus-inf",
            "tol-rel-joined-negative",
            "tol-rel-negative",
            "tol-negative",
            "tol-abs-nan",
            "tol-abs-minus-inf",
        ],
    )
    @pytest.mark.parametrize("command", sorted(SHARED_OPTIONS["--tol-rel"]))
    def test_nonfinite_tolerance_is_invalid_input(self, tmp_path, capsys, command, flags):
        x = write_signal(tmp_path / "x.json", [1.0, 2.0, 3.0, 4.0])
        y = write_signal(tmp_path / "y.json", [1.0, 1.0, 2.0, 1.0])
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps(attack([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 2.0, 1.0]).to_json()))
        inputs = {
            "decompose": ["--input", x],
            "classify": ["--matrix", write_matrix(tmp_path / "w.json", n2_generate(3, 4, 1)[0])],
            "attack": ["--x", x, "--y", y],
            "verify": ["--pair", str(pair)],
            "trials": ["--suite", "attack", "--n", "1"],
        }[command]
        if flags[0] == "--tol-abs":
            # Every comparison is relative, so the absolute tolerance's flag
            # is gone: argparse refuses it, whatever its value.
            with pytest.raises(SystemExit) as exc:
                main([command, *inputs, *flags])
            captured = capsys.readouterr()
            assert exc.value.code == 2
            assert captured.out == ""
            assert "unrecognized arguments: --tol-abs" in captured.err
            return
        code, out, err = run(capsys, [command, *inputs, *flags])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["code"] == "invalid-input"

    def test_each_command_takes_only_the_shared_options_it_reads(self):
        parser = cli.build_parser()
        (commands,) = (a.choices for a in parser._actions if a.dest == "command")
        assert sorted(commands) == sorted(REQUIRED_ARGS)
        settable = 0
        for command, sub in commands.items():
            options = [a.option_strings[0] for a in sub._actions if a.dest != "help"]
            shared = {flag for flag, readers in SHARED_OPTIONS.items() if command in readers}
            assert set(options) & {"--out", *SHARED_OPTIONS} == {"--out", *shared}, command
            settable += len(options)
        assert (settable, len(UNREAD_OPTIONS)) == (57, 29)

    @pytest.mark.parametrize(
        "command, flag", UNREAD_OPTIONS, ids=[f"{c}-{f[2:]}" for c, f in UNREAD_OPTIONS]
    )
    def test_unread_shared_option_is_unrecognized(self, capsys, command, flag):
        # Even the default value is refused: argparse exits before any
        # input file is opened, with nothing on stdout.
        value = {"--format": "json", "--tol-rel": "1e-9", "--seed": "0"}[flag]
        with pytest.raises(SystemExit) as exc:
            main([command, *REQUIRED_ARGS[command], flag, value])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} {value}" in captured.err

    @pytest.mark.parametrize("command", sorted(REQUIRED_ARGS))
    def test_unrecognized_option_shows_its_command_usage(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, *REQUIRED_ARGS[command], "--frobnicate", "1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0].startswith(f"usage: ambiconv {command} ")
        assert lines[-1] == f"ambiconv {command}: error: unrecognized arguments: --frobnicate 1"

    @pytest.mark.parametrize("command", ["convolve", "kernel", "reproduce-paper"])
    def test_removed_tol_abs_flag_is_usage_error(self, tmp_path, capsys, command):
        # Every comparison is relative, so the absolute tolerance's flag is
        # gone: argparse refuses it before any command runs.  The commands
        # that read --tol-rel are checked in
        # test_nonfinite_tolerance_is_invalid_input.
        x = write_signal(tmp_path / "x.json", [1.0, 2.0, 3.0, 4.0])
        inputs = {
            "convolve": ["--x", x, "--y", x],
            "kernel": ["--m", "3", "--n", "3"],
            "reproduce-paper": [],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *inputs, "--tol-abs", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "flags",
        [["--tol", "1e-3"], ["--tol", "-1e-3"], ["--tol-r", "-1e-3"]],
        ids=["tol", "tol-negative", "tol-r-negative"],
    )
    @pytest.mark.parametrize("command", sorted(REQUIRED_ARGS))
    def test_abbreviated_tolerance_flag_is_unrecognized(self, capsys, command, flags):
        # No option is read from a prefix of its name: --tol and --tol-r
        # are not --tol-rel, whatever their value.  argparse refuses them
        # before any input file is opened.
        with pytest.raises(SystemExit) as exc:
            main([command, *REQUIRED_ARGS[command], *flags])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flags)}" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["trials", "--suite", "attack"],
            ["n2", "--m", "3", "--n", "3"],
        ],
        ids=["trials", "n2"],
    )
    def test_negative_seed_is_bad_seed(self, argv, capsys):
        code, out, err = run(capsys, [*argv, "--seed", "-1"])
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "bad-seed"
        assert "--seed" in error["message"]

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_suite_choices_are_the_trials_suites(self, capsys):
        # The parser takes its choices from core, without loading trials.
        with pytest.raises(SystemExit) as exc:
            main(["trials", "--help"])
        assert exc.value.code == 0
        listed = re.search(r"--suite \{([^}]*)\}", capsys.readouterr().out).group(1)
        assert tuple(listed.split(",")) == trials.SUITES
        with pytest.raises(SystemExit) as exc:
            main(["trials", "--suite", "frobnicate"])
        assert exc.value.code == 2
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err

    def test_refused_csv_leaves_existing_out_file_intact(self, tmp_path, capsys):
        # n0 writes a matrix and has no --format: argparse refuses the flag
        # before --out is opened.
        out = tmp_path / "existing.json"
        out.write_text('{"keep": true}\n')
        u = write_signal(tmp_path / "u.json", [1.0])
        v = write_signal(tmp_path / "v.json", [1.0])
        with pytest.raises(SystemExit) as exc:
            main(["n0", "--u", u, "--v", v, "--format", "csv", "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert out.read_text() == '{"keep": true}\n'

    @pytest.mark.parametrize(
        "argv",
        [
            ["--suite", "nullspace", "--mmax", "1"],
            ["--suite", "nullspace", "--nmax", "1"],
            ["--suite", "kernel", "--mmax", "0"],
            ["--suite", "structure", "--nmax", "1"],
        ],
    )
    def test_empty_campaign_is_bad_count(self, argv, capsys):
        code, out, err = run(capsys, ["trials", *argv])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["code"] == "bad-count"

    def test_unwritable_out_path_is_structured_error(self, tmp_path, capsys):
        target = tmp_path / "missing_dir" / "x.json"
        code, _, err = run(capsys, ["kernel", "--m", "2", "--n", "2", "--out", str(target)])
        assert code == 2
        obj = json.loads(err)["error"]
        assert obj["code"] == "bad-output"
        assert obj["path"] == str(target)
        assert not target.parent.exists()


class TestRepeatedMain:
    def test_parser_is_built_once(self, monkeypatch, capsys):
        built, build_parser = [], cli.build_parser

        def counting_build_parser():
            built.append(1)
            return build_parser()

        calls = (["kernel", "--m", "2", "--n", "3"], ["basis", "--m", "2", "--n", "2"]) * 2
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        try:
            for argv in calls:
                assert run(capsys, argv)[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_format_does_not_carry_over(self, capsys):
        argv = ["trials", "--suite", "structure", "--nmax", "3"]
        assert run(capsys, argv + ["--format", "csv"])[1].startswith("suite,index")
        code, out, _ = run(capsys, argv)
        assert code == 0 and json.loads(out)["suite"] == "structure"

    def test_timing_does_not_carry_over(self, capsys):
        argv = ["trials", "--suite", "attack", "--n", "2", "--seed", "1"]
        assert "wall_time_s" in run(capsys, argv + ["--timing"])[1]
        code, out, _ = run(capsys, argv)
        assert code == 0 and "wall_time_s" not in out

    def test_usage_error_leaves_next_call_working(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run(capsys, ["kernel", "--m", "2", "--n", "2"])
        assert code == 0 and json.loads(out)["count"] == 1
