"""Command-line front end: generators, solvers, verification, the built-in
reference reproduction, and seeded Monte-Carlo property campaigns.

All commands read and write the JSON wire formats of the library (signals as
``{"len": d, "entries": [...]}``, matrices as ``{"m": m, "n": n, "entries":
[[row], ...]}``).  Output is deterministic for a fixed configuration: JSON is
dumped on one line with sorted keys, and timing is excluded unless requested.

Exit codes: 0 success, 1 property or check failure (also a numerical failure,
a ``core.NumericalError``, or a reader that closed the output pipe early),
2 usage error.

This module loads only the standard library and ``core``, which every
command needs for its tolerance and its JSON formats; each handler imports
the modules it runs, so a command loads no module it does not use.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from contextlib import nullcontext

from .core import (
    DEFAULT_TOL,
    SUITES,
    NumericalError,
    ToleranceProfile,
    _peak,
    convolve,
    hankel_basis,
    lift_apply,
    matrix_from_json,
    matrix_to_json,
    signal_from_json,
    signal_to_json,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class InputError(Exception):
    def __init__(self, code: str, message: str, path: str = ""):
        super().__init__(message)
        self.code = code
        self.path = path


def _structured_error(code: str, message: str, path: str = "") -> None:
    payload = {"error": {"code": code, "message": message, "path": path}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError("missing-file", str(exc), path) from exc
    except OSError as exc:  # a directory, or no permission to read
        raise InputError("unreadable-file", str(exc), path) from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError("malformed-json", str(exc), path) from exc


def _load_signal(path: str):
    try:
        return signal_from_json(_load_json(path))
    except ValueError as exc:
        raise InputError("bad-signal", str(exc), path) from exc


def _load_matrix(path: str):
    try:
        return matrix_from_json(_load_json(path))
    except ValueError as exc:
        raise InputError("bad-matrix", str(exc), path) from exc


def _emit(payload, args, csv_rows=(), csv_header=None) -> None:
    # No indent: it would make json use its pure-Python encoder.
    text = json.dumps(payload, sort_keys=True) + "\n" if args.format == "json" else None
    try:
        fh = nullcontext(sys.stdout) if args.out is None else open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        raise InputError("bad-output", str(exc), args.out) from exc
    with fh as out:
        if text is not None:
            out.write(text)
        else:
            writer = csv.writer(out, lineterminator="\n")
            if csv_header:
                writer.writerow(csv_header)
            writer.writerows(csv_rows)


# --- command handlers --------------------------------------------------------


def _cmd_convolve(args) -> int:
    z = convolve(_load_signal(args.x), _load_signal(args.y))
    _emit(signal_to_json(z), args, csv_rows=[list(map(float, z))])
    return EXIT_OK


def _cmd_lift(args) -> int:
    z = lift_apply(_load_matrix(args.matrix))
    _emit(signal_to_json(z), args, csv_rows=[list(map(float, z))])
    return EXIT_OK


def _cmd_basis(args) -> int:
    basis = hankel_basis(args.m, args.n)
    if args.j is not None:
        if not 1 <= args.j <= len(basis):
            raise InputError("bad-index", f"--j must be in [1, {len(basis)}]")
        _emit(matrix_to_json(basis[args.j - 1]), args)
    else:
        _emit({"count": len(basis), "elements": [matrix_to_json(s) for s in basis]}, args)
    return EXIT_OK


def _cmd_n0(args) -> int:
    from .nullspace import n0_element

    q = n0_element(_load_signal(args.u), _load_signal(args.v))
    _emit(matrix_to_json(q), args)
    return EXIT_OK


def _cmd_n2(args) -> int:
    from .nullspace import certificate_to_json, n2_generate

    matrix, cert = n2_generate(args.m, args.n, seed=args.seed)
    _emit({"certificate": certificate_to_json(cert), "matrix": matrix_to_json(matrix)}, args)
    return EXIT_OK


def _cmd_m2(args) -> int:
    from .nullspace import M2Certificate, certificate_to_json, m2_element

    u = _load_signal(args.u)
    q = m2_element(u, args.lam)
    cert = M2Certificate(u=u, lam=args.lam)
    _emit({"matrix": matrix_to_json(q), "certificate": certificate_to_json(cert)}, args)
    return EXIT_OK


def _cmd_kernel(args) -> int:
    from .nullspace import kernel_basis

    basis = kernel_basis(args.m, args.n)
    _emit({"count": len(basis), "elements": [matrix_to_json(q) for q in basis]}, args)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    from .quotient import quotient_decompose, reconstruct

    w = _load_signal(args.input)
    elements = quotient_decompose(w, args.tol)
    payload, csv_rows = [], []
    for e in elements:
        residual = _peak(reconstruct(e.w_star, e.gamma) - w)
        payload.append(
            {"w_star": signal_to_json(e.w_star), "gamma": float(e.gamma), "residual": residual}
        )
        csv_rows.append([float(e.gamma), residual] + list(map(float, e.w_star)))
    _emit(payload, args, csv_rows=csv_rows, csv_header=["gamma", "residual", "w_star..."])
    return EXIT_OK


def _cmd_classify(args) -> int:
    from .nullspace import certificate_to_json, classify

    result = classify(_load_matrix(args.matrix), args.tol)
    _emit(
        {
            "kind": result.certificate.kind,
            "certificate": certificate_to_json(result.certificate),
            "refactorization_residual": result.refactorization_residual,
        },
        args,
    )
    return EXIT_OK


def _cmd_attack(args) -> int:
    from .ambiguity import attack

    pair = attack(_load_signal(args.x), _load_signal(args.y), args.tol)
    _emit(pair.to_json(), args)
    return EXIT_OK


def _cmd_shift(args) -> int:
    from .ambiguity import shift_ambiguity

    pair = shift_ambiguity(_load_signal(args.x), _load_signal(args.y))
    _emit(pair.to_json(), args)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .ambiguity import AmbiguousPair, verify_pair

    try:
        pair = AmbiguousPair.from_json(_load_json(args.pair))
    except ValueError as exc:
        raise InputError("bad-pair", str(exc), args.pair) from exc
    report = verify_pair(pair, args.tol)
    _emit(
        report.to_json(),
        args,
        csv_rows=[
            [report.residual, report.collinearity, int(report.certifies_unidentifiability)]
        ],
        csv_header=["residual", "collinearity", "certifies"],
    )
    return EXIT_OK if report.certifies_unidentifiability else EXIT_CHECK_FAILED


def _cmd_reproduce(args) -> int:
    from .reference import run_reference_checks

    overrides = {}
    for name in ("x1", "y1", "x2", "y2"):
        path = getattr(args, name)
        if path is not None:
            overrides[name] = _load_signal(path)
    checks = run_reference_checks(**overrides)
    ok = all(c.ok for c in checks)
    payload = {"ok": ok, "checks": [c.to_json() for c in checks]}
    csv_rows = [
        [c.name, int(c.ok), c.detail, "" if c.first_bad_index is None else c.first_bad_index]
        for c in checks
    ]
    _emit(payload, args, csv_rows=csv_rows, csv_header=["check", "ok", "detail", "first_bad_index"])
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_trials(args) -> int:
    from .trials import run_suite

    if args.n < 1:
        raise InputError("bad-count", "--n must be >= 1")
    report = run_suite(
        args.suite,
        n_trials=args.n,
        seed=args.seed,
        mmax=args.mmax,
        nmax=args.nmax,
        tol=args.tol,
    )
    if report.trials == 0:
        raise InputError("bad-count", "the campaign runs no trial: raise --mmax or --nmax")
    _emit(
        report.to_json(include_timing=args.timing),
        args,
        csv_rows=report.to_csv_rows(args.timing) if args.format == "csv" else (),
        csv_header=list(report.CSV_COLUMNS) + ["wall_time_s"] * args.timing,
    )
    return EXIT_OK if report.all_ok else EXIT_CHECK_FAILED


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # No option is read from a prefix of its name: ``--tol`` is no alias.
    parser = argparse.ArgumentParser(
        prog="ambiconv",
        description="Ambiguity-space toolkit for blind linear deconvolution",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each command takes --out and only the shared options its handler reads.
    readers = {
        "--seed": ("n2", "trials"),
        "--tol-rel": ("decompose", "classify", "attack", "verify", "trials"),
        "--format": ("convolve", "lift", "decompose", "verify", "reproduce-paper", "trials"),
    }
    settings = {
        "--seed": {"type": int, "default": 0, "help": "seed for all randomness"},
        "--tol-rel": {"type": float, "default": DEFAULT_TOL.rel_tol, "help": "relative tolerance"},
        "--format": {"choices": ("json", "csv"), "default": "json"},
    }

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(func=func, format="json", command_parser=p)
        for flag, commands in readers.items():
            if name in commands:
                p.add_argument(flag, **settings[flag])
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        return p

    p = add("convolve", _cmd_convolve, "linear convolution of two signals")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = add("lift", _cmd_lift, "anti-diagonal sums of a matrix")
    p.add_argument("--matrix", required=True)

    p = add("basis", _cmd_basis, "Hankel decomposition matrices of the lifted operator")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, default=None, help="emit only matrix j (1-based)")

    p = add("n0", _cmd_n0, "bordered-product kernel element from (u, v)")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)

    p = add("n2", _cmd_n2, "seeded random recursive kernel element with certificate")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("m2", _cmd_m2, "skew-symmetric square kernel element from (u, lambda)")
    p.add_argument("--u", required=True)
    p.add_argument("--lam", type=float, required=True)

    p = add("kernel", _cmd_kernel, "basis of the full kernel of the lifted operator")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("decompose", _cmd_decompose, "bordered-rotation factor pairs of a vector")
    p.add_argument("--input", required=True)

    p = add("classify", _cmd_classify, "structural certificate of a kernel element")
    p.add_argument("--matrix", required=True)

    p = add("attack", _cmd_attack, "adversarial certificate pair for a signal pair")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = add("shift", _cmd_shift, "shifted certificate pair for border zero patterns")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = add("verify", _cmd_verify, "verify an ambiguous pair and certify (or not)")
    p.add_argument("--pair", required=True)

    p = add("reproduce-paper", _cmd_reproduce, "re-run the built-in reference example checks")
    for name in ("x1", "y1", "x2", "y2"):
        p.add_argument(f"--{name}", default=None, help=f"override the built-in {name}")

    p = add("trials", _cmd_trials, "seeded Monte-Carlo property campaigns")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--n", type=int, default=100, help="trial count (or draws per grid cell)")
    p.add_argument("--mmax", type=int, default=10)
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument(
        "--timing",
        action="store_true",
        help="include wall times (breaks byte-for-byte determinism)",
    )

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built at its first call: building the tree
    of subcommand parsers costs more than parsing one command line."""
    return build_parser()


def _bind_tolerance_values(argv: list[str]) -> list[str]:
    """Rewrite ``--tol-rel -1e-3`` as ``--tol-rel=-1e-3``: argparse takes
    ``-1e-3`` or ``-inf`` for an option name, so the value would not reach
    the tolerance check and its structured ``invalid-input`` error."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--tol-rel" and arg.startswith("-"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` by default) and return its exit
    code.  ``main`` may be called repeatedly in one process: it builds its
    parser at the first call and reuses it, and no argument carries from one
    call to the next."""
    argv = _bind_tolerance_values(sys.argv[1:] if argv is None else argv)
    args, unknown = _parser().parse_known_args(argv)
    if unknown:  # refused with the command's usage, not the top-level one
        args.command_parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        if getattr(args, "seed", 0) < 0:
            raise InputError("bad-seed", f"--seed must be >= 0, got {args.seed}")
        if hasattr(args, "tol_rel"):  # checked here; handlers read the profile
            args.tol = ToleranceProfile(rel_tol=args.tol_rel)
        code = args.func(args)
        sys.stdout.flush()  # a reader that left early raises here, not at exit
        return code
    except BrokenPipeError:
        # As the Python docs advise: Python flushes stdout again at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CHECK_FAILED
    except InputError as exc:
        _structured_error(exc.code, str(exc), exc.path)
        return EXIT_USAGE
    except NumericalError as exc:
        _structured_error(exc.code, str(exc))  # a solver failed on valid input
        return EXIT_CHECK_FAILED
    except ValueError as exc:
        _structured_error("invalid-input", str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
