#!/usr/bin/env python3
"""The ambiconv benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload attack_large --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics: throughput, per-operation
latency, the share of operations that succeed, the import time of a fresh
interpreter and peak memory.  ``--trace 1`` runs a fixed number of blocks
twice, untraced and then with every traced public function wrapped, and
reports per-layer calls, self time and failures.  Every result is checked
by the independent oracle in ``oracle.py``; a success the oracle rejects
ends the run with exit code 1.  The last line of standard output is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
from tracer import TRACED, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
# Never used while the benchmark was written; a claimed gain must also hold here.
HELDOUT_SEED = 4271

# The tail latency is taken at one fixed percentile, so it means the same on
# every commit however many operations a run completes.  Over ten seeds p99
# spread by 0.06-0.16 (the slowest 1% are a few large draws, and speed
# changes inside a block move single latencies); p95 spread by 0.03-0.06.
TAIL_PERCENTILE = 95.0
# A run keeps going until at least ten samples lie beyond the tail ...
MIN_OPS = math.ceil(10 / (1.0 - TAIL_PERCENTILE / 100.0))
# ... and stops drawing blocks after this long regardless, so it ends well
# within 180 seconds.
MAX_MEASURE_S = 100.0
SETUP_REPEATS = 7

# The sandbox this benchmark was built on (2 vCPUs) runs the same code at two
# speeds about 1.8x apart, each phase lasting seconds to tens of seconds, so
# raw wall-clock figures of two identical runs can differ by a third.  Every
# operation time is therefore scaled by CAL_NOMINAL_S over the duration of a
# fixed calibration kernel timed next to it: a time in "nominal" seconds,
# those of this machine at its fast phase, where the kernel takes 10 ms.
CAL_NOMINAL_S = 0.010
_CAL_RNG = np.random.default_rng(12345)
_CAL_MAT = _CAL_RNG.standard_normal((24, 24))
_CAL_VEC = np.linspace(-1.0, 1.0, 50)

# Import time does not follow that kernel (scaled by it, setup_s spread by a
# quarter across runs whose raw import times agreed within 5%), so it is
# scaled instead by a reference import of standard-library modules, timed in
# its own fresh interpreter just before each program import.
REF_MODULES = (
    "decimal, json, sqlite3, ctypes, ssl, asyncio, unittest, email.mime.multipart, "
    "xml.etree.ElementTree, http.client, tarfile, zipfile, csv, argparse, dataclasses"
)
REF_NOMINAL_S = 0.080

IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import {modules}\n"
    "print(time.perf_counter() - t)\n"
)


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def environment() -> dict:
    import scipy

    import ambiconv

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "AMBICONV_BACKEND": os.environ.get("AMBICONV_BACKEND"),
        "ambiconv_backend": getattr(ambiconv, "BACKEND", None),
    }


def calibration_s() -> float:
    """Time one pass of a fixed kernel that mixes interpreted loops, small
    numpy calls and LAPACK, the same mix as the workloads."""
    start = perf_counter()
    acc = 0
    for i in range(40000):
        acc += i * i % 7
    for _ in range(1000):
        acc += float(_CAL_VEC @ _CAL_VEC) + _CAL_VEC.size
        np.append(_CAL_VEC, 0.0)
    for _ in range(40):
        np.linalg.eigvals(_CAL_MAT)
    return perf_counter() - start


def speed_factor(cal_before: float, cal_after: float) -> float:
    """Scale from this machine's current speed to the nominal one."""
    return CAL_NOMINAL_S / (0.5 * (cal_before + cal_after))


def import_seconds(modules: str) -> float:
    """Time a fresh interpreter takes to import ``modules``."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER.format(modules=modules), str(SRC)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup_seconds() -> tuple[float, float]:
    """Median time of a fresh interpreter to import ``ambiconv`` and its CLI,
    as (normalized, wall-clock).

    Each import is scaled by REF_NOMINAL_S over the time of a reference
    import of standard-library modules timed just before it.
    """
    normalized, wall = [], []
    for i in range(SETUP_REPEATS + 1):
        ref = import_seconds(REF_MODULES)
        seconds = import_seconds("ambiconv, ambiconv.cli")
        if i:  # the first pair warms the file cache and is not counted
            wall.append(seconds)
            normalized.append(seconds * REF_NOMINAL_S / ref)
    return statistics.median(normalized), statistics.median(wall)


def failed_ops(workload, kinds: Counter) -> int:
    """Failed operations as the result line counts them: every failure but
    the known ones the workload measures in ``ok_frac``."""
    return sum(count for kind, count in kinds.items() if workload.counts_as_failed(kind))


def timed_run(workload, seed: int, seconds: float) -> dict:
    """Draw fresh blocks until ``seconds`` of block time have passed and the
    tail percentile has ten samples beyond it; check every block after
    timing it.

    Each block's times are scaled by the speed factor of the calibration
    passes on either side of it; the wall-clock figures are kept beside.
    """
    rates, latencies, wall_rates, wall_latencies = [], [], [], []
    kinds = Counter()
    measured, attempted, k = 0.0, 0, 0
    started = perf_counter()
    cal_before = calibration_s()
    while measured < seconds or attempted < MIN_OPS:
        if perf_counter() - started > MAX_MEASURE_S:
            break
        block = workload.block(seed, k)
        k += 1
        wall, lats, output = workload.run(block)
        cal_after = calibration_s()
        factor = speed_factor(cal_before, cal_after)
        cal_before = cal_after
        measured += wall
        rates.append(len(lats) / (wall * factor))
        latencies.extend(lat * factor for lat in lats)
        wall_rates.append(len(lats) / wall)
        wall_latencies.extend(lats)
        outcome = workload.check(block, output)
        attempted += len(outcome)
        kinds.update(kind for kind in outcome if kind is not None)
    failures = sum(kinds.values())
    return {
        "blocks": k,
        "measured_s": measured,
        "attempted": attempted,
        "failed": failed_ops(workload, kinds),
        "fail_frac": failures / attempted,
        "failure_kinds": dict(sorted(kinds.items())),
        "tail_percentile": TAIL_PERCENTILE,
        "latency_samples": len(latencies),
        "wall_clock": {
            "ops_per_s": statistics.median(wall_rates),
            "op_p50_ms": percentile(wall_latencies, 50.0) * 1e3,
            "op_tail_ms": percentile(wall_latencies, TAIL_PERCENTILE) * 1e3,
        },
        "metrics": {
            "ops_per_s": (statistics.median(rates), "1/s"),
            "op_p50_ms": (percentile(latencies, 50.0) * 1e3, "ms"),
            "op_tail_ms": (percentile(latencies, TAIL_PERCENTILE) * 1e3, "ms"),
            "ok_frac": ((attempted - failures) / attempted, "ratio"),
        },
    }


def traced_run(workload, seed: int, spans_path: Path | None = None) -> dict:
    """Run a fixed set of blocks untraced, then traced, and report per layer.

    The block set depends only on the seed, so calls, failures and failure
    kinds repeat exactly at one seed.
    """
    blocks = [workload.block(seed, k) for k in range(workload.trace_blocks)]
    workload.run(blocks[0])  # warm-up, so neither pass pays first-call costs
    # Each block runs untraced and then traced, so drift in machine speed
    # reaches both passes alike.
    tracer = Tracer()
    outputs = []
    untraced_s, traced_s, ops = 0.0, 0.0, 0
    for k, block in enumerate(blocks):
        wall, lats, _ = workload.run(block)
        untraced_s += wall
        ops += len(lats)
        with tracer.installed():
            start = perf_counter()
            with tracer.block(k):
                outputs.append(workload.run(block)[2])
            traced_s += perf_counter() - start

    kinds, attempted = Counter(), 0
    for block, output in zip(blocks, outputs):
        outcome = workload.check(block, output)
        attempted += len(outcome)
        kinds.update(kind for kind in outcome if kind is not None)
    if spans_path is not None:
        tracer.write_spans(spans_path)

    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name], "s")
        metrics[f"{name}.fails"] = (tracer.fails[name], "count")
    sizes = tracer.decompose_sizes
    metrics["quotient.quotient_decompose.elements_per_call"] = (
        sum(count for _, count in sizes) / len(sizes) if sizes else 0.0,
        "elements/call",
    )
    metrics["quotient.quotient_decompose.empty_even"] = (
        sum(1 for d, count in sizes if d % 2 == 0 and count == 0),
        "count",
    )
    attacks = tracer.attack_results
    certified = sum(
        oracle.pair_problem(x, y, pair.x_alt, pair.y_alt) is None for x, y, pair in attacks
    )
    metrics["ambiguity.attack.certified_frac"] = (
        certified / tracer.calls["ambiguity.attack"] if tracer.calls["ambiguity.attack"] else 0.0,
        "ratio",
    )
    classify_calls = tracer.calls["nullspace.classify"]
    metrics["nullspace.classify.roundtrip_ok_frac"] = (
        sum(_rebuilds(matrix, result.certificate) for matrix, result in tracer.classify_results)
        / classify_calls
        if classify_calls
        else 0.0,
        "ratio",
    )
    layer_self = sum(tracer.self_s.values())
    metrics["trace.untraced_ops_per_s"] = (ops / untraced_s, "1/s")
    metrics["trace.traced_ops_per_s"] = (ops / traced_s, "1/s")
    metrics["trace.covered_frac"] = (layer_self / traced_s, "ratio")
    return {
        "blocks": len(blocks),
        "attempted": attempted,
        "failed": failed_ops(workload, kinds),
        "failure_kinds": dict(sorted(kinds.items())),
        "spans": len(tracer.spans),
        "bench_self_s": tracer.root_self_s,
        "metrics": metrics,
    }


def _rebuilds(matrix, certificate) -> bool:
    """Whether a certificate rebuilds its matrix, by the oracle's judgement."""
    import ambiconv

    try:
        rebuilt = ambiconv.certificate_to_matrix(certificate)
    except ValueError:  # raw certificates carry no parameters
        return False
    return oracle.rebuild_problem(matrix, rebuilt) is None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ambiconv" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'ambiconv'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ambiconv

    if Path(ambiconv.__file__).resolve().parent != SRC / "ambiconv":
        print(f"perfbench: imported ambiconv from {ambiconv.__file__}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    workloads.OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    env = environment()
    print("environment:", json.dumps(env, sort_keys=True))
    try:
        if args.trace:
            result = traced_run(workload, args.seed, workloads.OUT_DIR / f"spans-{tag}.jsonl")
        else:
            setup_s, setup_wall_s = setup_seconds()
            result = timed_run(workload, args.seed, args.seconds)
            result["metrics"]["setup_s"] = (setup_s, "s")
            result["wall_clock"]["setup_s"] = setup_wall_s
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result["metrics"]["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    except workloads.WrongResult as exc:
        print(f"perfbench: wrong result reported as a success: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    metrics = {name: {"value": v, "unit": u} for name, (v, u) in result.pop("metrics").items()}
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **result}
    for key, value in summary.items():
        print(f"{key}: {value}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    (workloads.OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({"environment": env, **summary, "metrics": metrics}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
