"""Seeded Monte-Carlo campaigns backing the acceptance properties.

Five suites: attack success, quotient cardinality and round-trip, kernel
element membership across the constructor grid, kernel dimension audit, and
the two-row structural check.  Per-trial randomness derives from the pair
(seed, trial index): trial ``k`` of a campaign at ``seed`` draws from
``trial_rng(seed, k)``, which is ``np.random.default_rng([seed, k])``, so
each trial, and so any failure row, is reproducible from (seed, index)
alone.  A campaign derives all of its trial generators in one pass: it runs
numpy's ``SeedSequence`` hash as uint32 array operations over a chunk of
indices at a time, and seeds each trial's ``PCG64`` with its row, which
gives exactly the stream of ``trial_rng(seed, k)``.

Each suite draws its trials in order and hands each one, as it is drawn, to
one recorder: it times the trial's check, records a check that raises as a
failed row whose failure carries the error, and keeps the trial's reproducer
dump for failed rows only.  With ``--timing`` a row's ``wall_time_s`` covers
the attack plus its acceptance test, ``quotient_decompose`` plus the
round-trip, one constructor's lift and rank check, or ``kernel_basis`` plus
its audit, never the draw.  The attack suite freezes the draws it owns and
calls the private attack on them, so the timed span holds all of the
attack's work, its input peaks included, except the copy and validation
that only the public ``attack`` needs.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .ambiguity import _attack, _certifies
from .core import DEFAULT_TOL, SUITES, ToleranceProfile, _exact_int, _lift, _peak, _rank
from .nullspace import kernel_basis, m2_element, n2_generate, n0_element
from .quotient import _bordered, quotient_decompose, reconstruct

ATTACK_RESIDUAL_REL = 1e-8
QUOTIENT_RESIDUAL_REL = 1e-8
CONSTRUCTOR_LIFT_REL = 1e-10
STRUCTURE_TOL = 1e-10


@dataclass
class TrialRow:
    index: int
    dims: dict
    success: bool
    residual: float
    collinearity: float | None
    wall_time: float
    label: str = ""

    def to_json(self, include_timing: bool = False) -> dict:
        out = {
            "index": self.index,
            "dims": self.dims,
            "success": bool(self.success),
            "residual": _json_float(self.residual),
            "collinearity": None if self.collinearity is None else float(self.collinearity),
        }
        if self.label:
            out["label"] = self.label
        if include_timing:
            out["wall_time_s"] = self.wall_time
        return out


@dataclass
class TrialReport:
    suite: str
    seed: int
    rows: list[TrialRow] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    @property
    def trials(self) -> int:
        return len(self.rows)

    @property
    def successes(self) -> int:
        return sum(r.success for r in self.rows)

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.rows else 0.0

    @property
    def max_residual(self) -> float:
        return max((r.residual for r in self.rows), default=0.0)

    @property
    def all_ok(self) -> bool:
        return self.successes == self.trials

    def to_json(self, include_timing: bool = False) -> dict:
        # Wall times vary run to run; the primary report stays byte-identical
        # for a fixed configuration unless timing is explicitly requested.
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "successes": self.successes,
            "success_rate": self.success_rate,
            "max_residual": _json_float(self.max_residual),
            "rows": [r.to_json(include_timing) for r in self.rows],
            "failures": self.failures,
        }

    CSV_COLUMNS = ("suite", "index", "m", "n", "d", "label", "success", "residual", "collinearity")

    def to_csv_rows(self, include_timing: bool = False) -> list[list]:
        """One row per trial under ``CSV_COLUMNS``, plus ``wall_time_s`` last
        if ``include_timing``."""
        return [
            [self.suite, r.index, *(r.dims.get(k, "") for k in "mnd"), r.label]
            + [int(r.success), r.residual, "" if r.collinearity is None else r.collinearity]
            + [r.wall_time] * include_timing
            for r in self.rows
        ]


def _json_float(value: float) -> float | None:
    """Strict JSON has no ``Infinity`` or ``NaN``: a non-finite value is null."""
    return float(value) if math.isfinite(value) else None


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """The generator of trial ``index`` in a campaign at ``seed``:
    ``np.random.default_rng([seed, index])``.  Row ``k`` of ``trials --seed s``
    reruns from ``trial_rng(s, k)`` alone; a campaign derives the same
    generators for all of its trials in one pass."""
    return np.random.default_rng([seed, index])


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, mixed under these constants, then expanded to the PCG64 state.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_SEED_CHUNK = 1024


def _hash_steps(const: int, mult: int) -> Iterator[tuple[np.uint32, np.uint32]]:
    """The hash constants: step ``k`` xors with ``c_k`` and multiplies by
    ``c_(k+1) = c_k * mult mod 2**32``."""
    while True:
        nxt = const * mult & _MASK32
        yield np.uint32(const), np.uint32(nxt)
        const = nxt


def _hash(value: np.ndarray, steps) -> np.ndarray:
    # An array operation wraps silently; a numpy uint32 scalar would warn.
    xor, mult = next(steps)
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> _XSHIFT)


def _pcg64_states(entropy: np.ndarray) -> np.ndarray:
    """Row ``k`` is ``SeedSequence(entropy[k]).generate_state(4, np.uint64)``,
    for a ``(rows, words)`` uint32 array of entropy words."""
    words = list(entropy.T)
    words += [np.zeros(len(entropy), np.uint32)] * (_POOL - len(words))
    steps = _hash_steps(_INIT_A, _MULT_A)
    pool = [_hash(w, steps) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], steps))
    for w in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hash(w, steps))
    steps = _hash_steps(_INIT_B, _MULT_B)
    state = np.stack([_hash(pool[i % _POOL], steps) for i in range(2 * _POOL)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _StateSeed(ISeedSequence):
    """A seed sequence that hands ``PCG64`` a state computed beforehand."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state  # PCG64 asks for its four uint64 words


def _trial_rngs(seed: int, count: int) -> Iterator[np.random.Generator]:
    """``trial_rng(seed, k)`` for ``k`` in ``range(count)``, each seeded from
    its row of one vectorized pass over a chunk of indices."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if count > 2**32:
        # an index of 2**32 or more is two entropy words, not one
        raise ValueError(f"a campaign seeds at most 2**32 trials, got {count}")
    seed_words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    for start in range(0, count, _SEED_CHUNK):
        stop = min(start + _SEED_CHUNK, count)
        entropy = np.empty((stop - start, len(seed_words) + 1), np.uint32)
        entropy[:, :-1] = seed_words
        entropy[:, -1] = np.arange(start, stop)
        for state in _pcg64_states(entropy):
            yield Generator(PCG64(_StateSeed(state)))


def sample_signal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Entries i.i.d. uniform on [-1, 1]; endpoints resampled until their
    magnitude exceeds 0.1."""
    vec = rng.uniform(-1.0, 1.0, size)
    for end in (0, size - 1):
        while abs(vec[end]) <= 0.1:
            vec[end] = rng.uniform(-1.0, 1.0)
    return vec


def _record(
    report: TrialReport, index: int, dims: dict, check, dump: dict, label: str = ""
) -> None:
    """Add trial ``index`` to ``report``.  ``check()``, the only timed span,
    returns ``(ok, residual, collinearity)``; one that raises is a failed row.
    A failed row adds ``dump``, which reruns it and which the check may extend,
    plus any error, to the report's failures."""
    start = time.perf_counter()
    try:
        ok, residual, coll = check()
    except Exception as exc:  # noqa: BLE001 - failures are data here
        ok, residual, coll, dump["error"] = False, float("inf"), None, str(exc)
    elapsed = time.perf_counter() - start
    if not ok:
        report.failures.append({"index": index, **dump})
    report.rows.append(TrialRow(index, dims, bool(ok), residual, coll, elapsed, label))


def attack_suite(n_trials: int, seed: int, tol: ToleranceProfile | None = None) -> TrialReport:
    """Adversarial pairs for random even dimensions in [4, 16]."""
    tol = tol or DEFAULT_TOL
    report = TrialReport(suite="attack", seed=seed)
    for i, rng in enumerate(_trial_rngs(seed, n_trials)):
        m, n = 4 + 2 * int(rng.integers(7)), 4 + 2 * int(rng.integers(7))
        x = sample_signal(rng, m)
        y = sample_signal(rng, n)
        x.flags.writeable = y.flags.writeable = False
        xl, yl = x.tolist(), y.tolist()

        def check():
            # The draws are the campaign's own finite arrays, frozen above, so
            # the attack skips the public boundary's copy and validation, and
            # reads each peak off the floats the row's dump holds anyway.
            pair, peak = _attack(x, max(map(abs, xl)), y, max(map(abs, yl)), tol)
            ok = _certifies(pair.residual, ATTACK_RESIDUAL_REL * peak, pair.collinearity)
            return ok, pair.residual, pair.collinearity

        # the row plus the raw inputs suffice to rerun a failure
        _record(report, i, {"m": m, "n": n}, check, {"x": xl, "y": yl})
    return report


def quotient_suite(n_trials: int, seed: int, tol: ToleranceProfile | None = None) -> TrialReport:
    """Random even-d draws plus forward-generated round-trip instances."""
    tol = tol or DEFAULT_TOL
    report = TrialReport(suite="quotient", seed=seed)
    dims = (4, 6, 8, 10)

    def errors(w: np.ndarray) -> tuple[list[float], float]:
        """Reconstruction errors of the decomposition of w, and max|w|."""
        elements = quotient_decompose(w, tol)
        errs = [_peak(_bordered(e.w_star, e.gamma) - w) for e in elements]
        return errs, _peak(w)

    rngs = _trial_rngs(seed, n_trials + max(1, n_trials // 5))
    for i, rng in enumerate(itertools.islice(rngs, n_trials)):
        d = dims[rng.integers(len(dims))]
        w = rng.uniform(-1.0, 1.0, d)
        for end in (0, d - 1):
            w[end] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        dump = {"w": w.tolist()}

        def check():
            errs, scale = errors(w)
            dump["count"] = len(errs)
            worst = max(errs, default=float("inf"))
            ok = 0 < len(errs) <= 2 * d - 2 and worst <= QUOTIENT_RESIDUAL_REL * scale
            return ok, worst, None

        _record(report, i, {"d": d}, check, dump)

    for i, rng in enumerate(rngs, n_trials):
        d = dims[rng.integers(len(dims))]
        w_star = sample_signal(rng, d - 1)
        gamma = rng.uniform(0.2, np.pi / 2 - 0.2) + rng.integers(0, 4) * np.pi / 2
        w = reconstruct(w_star, float(gamma))

        def check():
            errs, scale = errors(w)
            best = min(errs, default=float("inf"))
            return best <= QUOTIENT_RESIDUAL_REL * scale, best, None

        dump = {"w_star": w_star.tolist(), "gamma": float(gamma)}
        _record(report, i, {"d": d}, check, dump, "forward")
    return report


def nullspace_suite(
    mmax: int = 10,
    nmax: int = 10,
    draws: int = 20,
    seed: int = 0,
    tol: ToleranceProfile | None = None,
) -> TrialReport:
    """Constructor grid: every output must lift to ~0 and have rank <= 2."""
    tol = tol or DEFAULT_TOL
    report = TrialReport(suite="nullspace", seed=seed)
    axes = range(2, mmax + 1), range(2, nmax + 1), range(draws)
    rngs = _trial_rngs(seed, math.prod(map(len, axes)))
    for index, ((m, n, k), rng) in enumerate(zip(itertools.product(*axes), rngs)):
        candidates = [
            ("n0", n0_element(rng.uniform(-1, 1, m - 1), rng.uniform(-1, 1, n - 1))),
            ("n2", n2_generate(m, n, seed=int(rng.integers(2**32)))[0]),
        ]
        if m == n and m >= 3:
            candidates.append(
                ("m2", m2_element(sample_signal(rng, n - 2), float(rng.uniform(0.5, 2.0))))
            )
        for label, q in candidates:
            # Constructor outputs are trusted float64 matrices.
            def check():
                scale = _peak(q)
                residual = _peak(_lift(q))
                ok = residual <= CONSTRUCTOR_LIFT_REL * scale
                ok = ok and _rank(q, tol._at(scale)) <= 2
                return ok, residual, None

            dump = {"constructor": label, "m": m, "n": n, "draw": k}
            _record(report, index, {"m": m, "n": n}, check, dump, label)
    return report


def kernel_suite(mmax: int = 10, nmax: int = 10) -> TrialReport:
    """Kernel dimension audit: mn - (m+n-1) basis elements, all in the kernel."""
    report = TrialReport(suite="kernel", seed=0)
    grid = itertools.product(range(1, mmax + 1), range(1, nmax + 1))
    for index, (m, n) in enumerate(grid):
        dump = {"m": m, "n": n}

        def check():
            basis = kernel_basis(m, n)
            dump["count"] = len(basis)
            expected = 0 if (m == 1 or n == 1) else m * n - (m + n - 1)
            worst = max((_peak(_lift(q)) for q in basis), default=0.0)
            return len(basis) == expected and worst == 0.0, worst, None

        _record(report, index, {"m": m, "n": n}, check, dump)
    return report


def structure_suite(nmax: int = 12) -> TrialReport:
    """Two-row structural check: basis elements of (2, n) satisfy
    Q(1,1) = Q(2,n) = 0 and Q(1, 2:n) = -Q(2, 1:n-1)."""
    report = TrialReport(suite="structure", seed=0)
    for index, n in enumerate(range(2, nmax + 1)):

        def check():
            basis = kernel_basis(2, n)
            worst = 0.0
            for q in basis:
                edge = _peak(q[0, 1:] + q[1, : n - 1])
                worst = max(worst, abs(q[0, 0]), abs(q[1, n - 1]), edge)
            return len(basis) == n - 1 and worst <= STRUCTURE_TOL, worst, None

        _record(report, index, {"m": 2, "n": n}, check, {"n": n})
    return report


def run_suite(
    suite: str,
    n_trials: int = 100,
    seed: int = 0,
    mmax: int = 10,
    nmax: int = 10,
    tol: ToleranceProfile | None = None,
) -> TrialReport:
    seed = _exact_int(seed, "seed")
    if suite == "attack":
        return attack_suite(n_trials, seed, tol)
    if suite == "quotient":
        return quotient_suite(n_trials, seed, tol)
    if suite == "nullspace":
        return nullspace_suite(mmax, nmax, draws=max(1, n_trials), seed=seed, tol=tol)
    if suite == "kernel":
        return kernel_suite(mmax, nmax)
    if suite == "structure":
        return structure_suite(nmax)
    raise ValueError(f"unknown suite {suite!r}, expected one of {SUITES}")
