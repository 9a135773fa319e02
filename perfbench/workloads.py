"""The benchmark's three workloads.

Each workload turns ``(seed, block number)`` into the inputs of one block,
runs the block against the public API, and checks every result with the
independent oracle.  A block is the unit timed for throughput; a run keeps
drawing fresh blocks until its measuring time is spent.

``check`` returns one entry per operation: ``None`` for a success, or the
kind of failure the program itself reported (an exception type, or a result
the program does not certify).  A result the program reports as a success
but the oracle rejects raises ``WrongResult``.

``counts_as_failed`` splits those failures in two.  On the attack workloads
the program reports failures it is known to have: empty decompositions, the
overflow and domain errors and the near-collinear fallback at the draws the
paper excludes.  They are the attack's measured failure share, counted in
``ok_frac`` by kind and never resampled.  Only the other failures, a crash
(an exception that is not a typed ``RuntimeError`` or ``ValueError``) or
any failure on ``nullspace_roundtrip``, count as failed operations.
"""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path
from time import perf_counter

import numpy as np

import ambiconv
import ambiconv.cli
import oracle

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"


class WrongResult(Exception):
    """The program reported a success that the independent check rejects."""


def sample_signal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniform entries on [-1, 1], endpoints redrawn until |entry| > 0.1.

    The same draw sequence as the ``trials`` attack suite, so trial inputs
    can be regenerated from a report's seed and row index.
    """
    vec = rng.uniform(-1.0, 1.0, size)
    for end in (0, size - 1):
        while abs(vec[end]) <= 0.1:
            vec[end] = rng.uniform(-1.0, 1.0)
    return vec


def exception_kind(exc: Exception) -> str:
    """The failure kind of an exception the program raised.

    A ``RuntimeError`` or ``ValueError`` (``AttackSearchError`` among them)
    is the program reporting that it cannot handle the draw; any other
    exception is a crash.
    """
    name = type(exc).__name__
    return name if isinstance(exc, (RuntimeError, ValueError)) else f"Crash:{name}"


class AttackWorkload:
    """The known failures of ``attack`` are measured, not failed operations."""

    def counts_as_failed(self, kind: str) -> bool:
        return kind.startswith("Crash:")


class AttackSmall(AttackWorkload):
    """``ambiconv trials --suite attack`` called in-process, one call a block."""

    name = "attack_small"
    trials_per_call = 100
    trace_blocks = 4
    even_orders = np.arange(4, 17, 2)

    report_path = OUT_DIR / "attack_small_report.json"

    def block(self, seed: int, k: int) -> int:
        """The campaign seed of block k."""
        return int(np.random.default_rng([seed, 1, k]).integers(2**31))

    def run(self, trial_seed: int):
        argv = [
            "trials", "--suite", "attack", "--n", str(self.trials_per_call),
            "--seed", str(trial_seed), "--out", str(self.report_path), "--timing",
        ]  # fmt: skip
        start = perf_counter()
        code = ambiconv.cli.main(argv)
        wall = perf_counter() - start
        report = json.loads(self.report_path.read_text(encoding="utf-8"))
        latencies = [row["wall_time_s"] for row in report["rows"]]
        return wall, latencies, (code, report)

    def trial_inputs(self, trial_seed: int, index: int):
        rng = np.random.default_rng([trial_seed, index])
        m, n = int(rng.choice(self.even_orders)), int(rng.choice(self.even_orders))
        return sample_signal(rng, m), sample_signal(rng, n)

    def check(self, trial_seed: int, output) -> list[str | None]:
        code, report = output
        rows = report["rows"]
        if len(rows) != self.trials_per_call:
            raise WrongResult(f"report has {len(rows)} rows, asked for {self.trials_per_call}")
        if code != (0 if all(row["success"] for row in rows) else 1):
            raise WrongResult(f"exit code {code} disagrees with the report's successes")
        kinds = []
        for i, row in enumerate(rows):
            x, y = self.trial_inputs(trial_seed, i)
            if row["index"] != i or row["dims"] != {"m": x.size, "n": y.size}:
                raise WrongResult(f"campaign {trial_seed} row {i} is not the seeded trial")
            if not row["success"]:
                kinds.append("TrialFailed")
                continue
            # The report carries no pair, so rebuild it from the same input.
            try:
                pair = ambiconv.attack(x, y)
            except Exception as exc:  # noqa: BLE001 - a reported success must rerun
                raise WrongResult(
                    f"campaign {trial_seed} trial {i}: rerun raised {exc!r}"
                ) from exc
            problem = oracle.pair_problem(x, y, pair.x_alt, pair.y_alt)
            z = oracle.convolve(x.tolist(), y.tolist())
            bound = oracle.PAIR_RESIDUAL_REL * oracle.max_abs(z)
            if problem is None and not row["residual"] <= bound:
                problem = f"reported residual {row['residual']!r} over the bound"
            if problem is not None:
                raise WrongResult(f"campaign {trial_seed} trial {i} reported success: {problem}")
            kinds.append(None)
        return kinds


class AttackLarge(AttackWorkload):
    """``attack`` then ``verify_pair`` on signal pairs of order 32 to 64."""

    name = "attack_large"
    orders = (32, 48, 64)
    trace_blocks = 10

    def block(self, seed: int, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Every (m, n) order combination twice, in a seeded order."""
        rng = np.random.default_rng([seed, 2, k])
        combos = list(product(self.orders, repeat=2)) * 2
        return [
            (sample_signal(rng, m), sample_signal(rng, n))
            for m, n in (combos[i] for i in rng.permutation(len(combos)))
        ]

    def run(self, pairs):
        latencies, outputs = [], []
        start = perf_counter()
        for x, y in pairs:
            t0 = perf_counter()
            try:
                pair = ambiconv.attack(x, y)
                outputs.append((pair, ambiconv.verify_pair(pair)))
            except Exception as exc:  # noqa: BLE001 - failures are counted by kind
                outputs.append(exc)
            latencies.append(perf_counter() - t0)
        return perf_counter() - start, latencies, outputs

    def check(self, pairs, outputs) -> list[str | None]:
        kinds = []
        for (x, y), out in zip(pairs, outputs):
            if isinstance(out, Exception):
                kinds.append(exception_kind(out))
                continue
            pair, report = out
            if not report.certifies_unidentifiability:
                kinds.append("Uncertified")
                continue
            problem = oracle.pair_problem(x, y, pair.x_alt, pair.y_alt)
            if problem is not None:
                raise WrongResult(f"certified pair of orders ({x.size}, {y.size}): {problem}")
            kinds.append(None)
        return kinds


class NullspaceRoundtrip:
    """Build, test and classify kernel elements on the grid m, n in 2..10."""

    name = "nullspace_roundtrip"
    sizes = range(2, 11)
    trace_blocks = 5

    def block(self, seed: int, k: int) -> list[tuple]:
        """Every grid cell once, in a seeded order, with its draws."""
        rng = np.random.default_rng([seed, 3, k])
        cells = list(product(self.sizes, repeat=2))
        draws = []
        for i in rng.permutation(len(cells)):
            m, n = cells[i]
            u, v = rng.uniform(-1.0, 1.0, m - 1), rng.uniform(-1.0, 1.0, n - 1)
            n2_seed = int(rng.integers(2**32))
            m2 = None
            if m == n >= 3:
                m2 = (sample_signal(rng, n - 2), float(rng.uniform(0.5, 2.0)))
            draws.append((m, n, u, v, n2_seed, m2))
        return draws

    def counts_as_failed(self, kind: str) -> bool:
        return True

    def run(self, draws):
        latencies, outputs = [], []
        start = perf_counter()
        for m, n, u, v, n2_seed, m2 in draws:
            t0 = perf_counter()
            try:
                elements = [ambiconv.n0_element(u, v), ambiconv.n2_generate(m, n, n2_seed)[0]]
                if m2 is not None:
                    elements.append(ambiconv.m2_element(*m2))
                members = [ambiconv.is_in_rank2_nullspace(q) for q in elements]
                classified = ambiconv.classify(elements[1])
                rebuilt = ambiconv.certificate_to_matrix(classified.certificate)
                outputs.append((elements, members, classified, rebuilt))
            except Exception as exc:  # noqa: BLE001 - failures are counted by kind
                outputs.append(exc)
            latencies.append(perf_counter() - t0)
        return perf_counter() - start, latencies, outputs

    def check(self, draws, outputs) -> list[str | None]:
        kinds = []
        for (m, n, *_), out in zip(draws, outputs):
            if isinstance(out, Exception):
                kinds.append(exception_kind(out))
                continue
            elements, members, classified, rebuilt = out
            if not all(members):
                kinds.append("NotInKernel")
                continue
            if not classified.refactorization_residual <= oracle.REBUILD_REL * float(
                np.max(np.abs(elements[1]))
            ):
                kinds.append("RoundtripResidual")
                continue
            labels = ("n0", "n2", "m2")
            problems = [
                f"{label}: {p}"
                for label, q in zip(labels, elements)
                if (p := oracle.kernel_problem(q, (m, n))) is not None
            ]
            if (p := oracle.rebuild_problem(elements[1], rebuilt)) is not None:
                problems.append(f"classify round trip: {p}")
            if problems:
                raise WrongResult(f"grid cell ({m}, {n}): {'; '.join(problems)}")
            kinds.append(None)
        return kinds


WORKLOADS = {w.name: w for w in (AttackSmall, AttackLarge, NullspaceRoundtrip)}
