"""Seeded Monte-Carlo campaigns backing the acceptance properties.

Five suites: attack success, quotient cardinality and round-trip, kernel
element membership across the constructor grid, kernel dimension audit, and
the two-row structural check.  Per-trial randomness derives from the pair
(seed, trial index), so each trial, and so any failure row, is reproducible
from (seed, index) alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .ambiguity import ATTACK_COLLINEARITY_BOUND, attack
from .core import DEFAULT_TOL, ToleranceProfile, _lift, _rank
from .nullspace import kernel_basis, m2_element, n2_generate, n0_element
from .quotient import quotient_decompose, reconstruct

ATTACK_RESIDUAL_REL = 1e-8
QUOTIENT_RESIDUAL_REL = 1e-8
CONSTRUCTOR_LIFT_REL = 1e-10
STRUCTURE_TOL = 1e-10

SUITES = ("attack", "quotient", "nullspace", "kernel", "structure")


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
            "residual": float(self.residual),
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
            "max_residual": self.max_residual,
            "rows": [r.to_json(include_timing) for r in self.rows],
            "failures": self.failures,
        }

    CSV_COLUMNS = ("suite", "index", "m", "n", "d", "label", "success", "residual", "collinearity")

    def to_csv_rows(self) -> list[list]:
        rows = []
        for r in self.rows:
            rows.append(
                [
                    self.suite,
                    r.index,
                    r.dims.get("m", ""),
                    r.dims.get("n", ""),
                    r.dims.get("d", ""),
                    r.label,
                    int(r.success),
                    r.residual,
                    "" if r.collinearity is None else r.collinearity,
                ]
            )
        return rows


def trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def sample_signal(
    rng: np.random.Generator, size: int, min_endpoint: float = 0.1
) -> np.ndarray:
    """Entries i.i.d. uniform on [-1, 1]; endpoints resampled until their
    magnitude exceeds ``min_endpoint``."""
    vec = rng.uniform(-1.0, 1.0, size)
    for end in (0, size - 1):
        while abs(vec[end]) <= min_endpoint:
            vec[end] = rng.uniform(-1.0, 1.0)
    return vec


def attack_suite(
    n_trials: int, seed: int, tol: ToleranceProfile | None = None
) -> TrialReport:
    """Adversarial pairs for random even dimensions in [4, 16]."""
    tol = tol or DEFAULT_TOL
    report = TrialReport(suite="attack", seed=seed)
    even = np.arange(4, 17, 2)
    for i in range(n_trials):
        rng = trial_rng(seed, i)
        m, n = int(rng.choice(even)), int(rng.choice(even))
        x = sample_signal(rng, m)
        y = sample_signal(rng, n)
        start = time.perf_counter()
        error = None
        try:
            pair = attack(x, y, tol)
            scale = float(np.max(np.abs(np.convolve(x, y))))
            ok = (
                pair.residual <= ATTACK_RESIDUAL_REL * scale
                and pair.collinearity <= ATTACK_COLLINEARITY_BOUND
            )
            residual, coll = pair.residual, pair.collinearity
        except Exception as exc:  # noqa: BLE001 - failures are data here
            ok, residual, coll = False, float("inf"), None
            error = str(exc)
        elapsed = time.perf_counter() - start
        if not ok:
            # reproducer dump: the row plus raw inputs suffice to rerun
            failure = {"index": i, "x": x.tolist(), "y": y.tolist()}
            if error is not None:
                failure["error"] = error
            report.failures.append(failure)
        report.rows.append(
            TrialRow(i, {"m": m, "n": n}, ok, residual, coll, elapsed)
        )
    return report


def quotient_suite(
    n_trials: int, seed: int, tol: ToleranceProfile | None = None
) -> TrialReport:
    """Random even-d draws plus forward-generated round-trip instances."""
    tol = tol or DEFAULT_TOL
    report = TrialReport(suite="quotient", seed=seed)
    dims = (4, 6, 8, 10)
    for i in range(n_trials):
        rng = trial_rng(seed, i)
        d = int(rng.choice(dims))
        w = rng.uniform(-1.0, 1.0, d)
        for end in (0, d - 1):
            w[end] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        start = time.perf_counter()
        elements = quotient_decompose(w, tol)
        scale = float(np.max(np.abs(w)))
        worst = max(
            (
                float(np.max(np.abs(reconstruct(e.w_star, e.gamma) - w)))
                for e in elements
            ),
            default=float("inf"),
        )
        ok = (
            0 < len(elements) <= 2 * d - 2
            and worst <= QUOTIENT_RESIDUAL_REL * scale
        )
        elapsed = time.perf_counter() - start
        if not ok:
            report.failures.append({"index": i, "w": w.tolist(), "count": len(elements)})
        report.rows.append(
            TrialRow(i, {"d": d}, ok, worst if elements else float("inf"), None, elapsed)
        )

    forward = max(1, n_trials // 5)
    for k in range(forward):
        i = n_trials + k
        rng = trial_rng(seed, i)
        d = int(rng.choice(dims))
        w_star = sample_signal(rng, d - 1)
        gamma = rng.uniform(0.2, np.pi / 2 - 0.2) + rng.integers(0, 4) * np.pi / 2
        w = reconstruct(w_star, float(gamma))
        start = time.perf_counter()
        elements = quotient_decompose(w, tol)
        scale = float(np.max(np.abs(w)))
        best = min(
            (
                float(np.max(np.abs(reconstruct(e.w_star, e.gamma) - w)))
                for e in elements
            ),
            default=float("inf"),
        )
        ok = best <= QUOTIENT_RESIDUAL_REL * scale
        elapsed = time.perf_counter() - start
        if not ok:
            report.failures.append(
                {"index": i, "w_star": w_star.tolist(), "gamma": float(gamma)}
            )
        report.rows.append(
            TrialRow(i, {"d": d}, ok, best, None, elapsed, label="forward")
        )
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
    index = 0
    for m in range(2, mmax + 1):
        for n in range(2, nmax + 1):
            for k in range(draws):
                rng = trial_rng(seed, index)
                start = time.perf_counter()
                candidates = [
                    ("n0", n0_element(rng.uniform(-1, 1, m - 1), rng.uniform(-1, 1, n - 1))),
                    ("n2", n2_generate(m, n, seed=int(rng.integers(2**32)))[0]),
                ]
                if m == n and m >= 3:
                    candidates.append(
                        ("m2", m2_element(sample_signal(rng, n - 2), float(rng.uniform(0.5, 2.0))))
                    )
                elapsed = time.perf_counter() - start
                # Constructor outputs are trusted float64 matrices.
                for label, q in candidates:
                    scale = float(np.max(np.abs(q)))
                    residual = float(np.max(np.abs(_lift(q))))
                    ok = residual <= CONSTRUCTOR_LIFT_REL * scale and _rank(q, tol) <= 2
                    if not ok:
                        report.failures.append(
                            {"index": index, "constructor": label, "m": m, "n": n, "draw": k}
                        )
                    report.rows.append(
                        TrialRow(
                            index, {"m": m, "n": n}, ok, residual, None, elapsed, label=label
                        )
                    )
                index += 1
    return report


def kernel_suite(mmax: int = 10, nmax: int = 10) -> TrialReport:
    """Kernel dimension audit: mn - (m+n-1) basis elements, all in the kernel."""
    report = TrialReport(suite="kernel", seed=0)
    index = 0
    for m in range(1, mmax + 1):
        for n in range(1, nmax + 1):
            start = time.perf_counter()
            basis = kernel_basis(m, n)
            expected = 0 if (m == 1 or n == 1) else m * n - (m + n - 1)
            worst = max(
                (float(np.max(np.abs(_lift(q)))) for q in basis), default=0.0
            )
            ok = len(basis) == expected and worst == 0.0
            elapsed = time.perf_counter() - start
            if not ok:
                report.failures.append({"index": index, "m": m, "n": n, "count": len(basis)})
            report.rows.append(
                TrialRow(index, {"m": m, "n": n}, ok, worst, None, elapsed)
            )
            index += 1
    return report


def structure_suite(nmax: int = 12) -> TrialReport:
    """Two-row structural check: basis elements of (2, n) satisfy
    Q(1,1) = Q(2,n) = 0 and Q(1, 2:n) = -Q(2, 1:n-1)."""
    report = TrialReport(suite="structure", seed=0)
    for index, n in enumerate(range(2, nmax + 1)):
        start = time.perf_counter()
        basis = kernel_basis(2, n)
        worst = 0.0
        for q in basis:
            worst = max(
                worst,
                abs(q[0, 0]),
                abs(q[1, n - 1]),
                float(np.max(np.abs(q[0, 1:] + q[1, : n - 1]))),
            )
        ok = len(basis) == n - 1 and worst <= STRUCTURE_TOL
        elapsed = time.perf_counter() - start
        if not ok:
            report.failures.append({"index": index, "n": n})
        report.rows.append(TrialRow(index, {"m": 2, "n": n}, ok, worst, None, elapsed))
    return report


def run_suite(
    suite: str,
    n_trials: int = 100,
    seed: int = 0,
    mmax: int = 10,
    nmax: int = 10,
    tol: ToleranceProfile | None = None,
) -> TrialReport:
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
