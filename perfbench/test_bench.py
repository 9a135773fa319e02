"""Checks of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/test_bench.py
"""

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def exact_part(result: dict):
    """Everything a traced run reports except times."""
    counts = {
        name: value
        for name, (value, _) in result["metrics"].items()
        if not name.endswith(".self_s") and not name.startswith("trace.")
    }
    return counts, result["failure_kinds"], result["attempted"], result["failed"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first = run.traced_run(workloads.WORKLOADS[name](), run.DEFAULT_SEED)
    second = run.traced_run(workloads.WORKLOADS[name](), run.DEFAULT_SEED)
    assert exact_part(first) == exact_part(second)
    if name == "nullspace_roundtrip":
        quotient = {k: v for k, v in exact_part(first)[0].items() if k.startswith("quotient.")}
        assert quotient and not any(quotient.values())


def test_check_rejects_a_tampered_certified_pair():
    workload = workloads.AttackLarge()
    pairs = workload.block(run.DEFAULT_SEED, 0)
    _, _, outputs = workload.run(pairs)
    i = next(i for i, out in enumerate(outputs) if not isinstance(out, Exception))
    pair, report = outputs[i]
    assert report.certifies_unidentifiability
    tampered = dataclasses.replace(pair, y_alt=pair.y_alt * (1.0 + 1e-6))
    with pytest.raises(workloads.WrongResult):
        workload.check([pairs[i]], [(tampered, report)])


def test_check_rejects_a_wrong_rebuild():
    workload = workloads.NullspaceRoundtrip()
    draws = workload.block(run.DEFAULT_SEED, 0)[:1]
    _, _, outputs = workload.run(draws)
    elements, members, classified, rebuilt = outputs[0]
    with pytest.raises(workloads.WrongResult):
        workload.check(draws, [(elements, members, classified, rebuilt * 1.01)])


def test_only_crashes_count_as_failed_attacks():
    import ambiconv.ambiguity

    workload = workloads.AttackLarge()
    known = workloads.exception_kind(ambiconv.ambiguity.AttackSearchError("0 x-elements"))
    crash = workloads.exception_kind(TypeError("bad operand"))
    assert not workload.counts_as_failed(known)
    assert workload.counts_as_failed(crash)
    assert workloads.NullspaceRoundtrip().counts_as_failed(known)
