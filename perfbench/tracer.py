"""Per-layer tracing from outside the package.

Wraps each traced public function in a timing shim and keeps one span per
call in memory.  The package binds names with ``from .core import
as_signal``, so the shim replaces the function object in every ``ambiconv``
module that holds it, not only in the defining one.
"""

from __future__ import annotations

import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# The traced public functions, by module.  ``reference`` runs in
# milliseconds and no workload calls it.
LAYERS = {
    "cli": ("main",),
    "trials": ("attack_suite",),
    "ambiguity": ("attack", "verify_pair", "collinearity", "bordered_y_form"),
    "quotient": ("quotient_decompose", "reconstruct"),
    "nullspace": (
        "n0_element",
        "n2_generate",
        "m2_element",
        "classify",
        "certificate_to_matrix",
        "is_in_rank2_nullspace",
    ),
    "core": ("as_signal", "as_matrix", "convolve", "lift_apply", "rank_estimate"),
}

TRACED = [f"{module}.{func}" for module, funcs in LAYERS.items() for func in funcs]

ROOT = "bench.block"


class Tracer:
    """Spans and per-function counters of one traced run.

    A span is ``(id, parent, block, name, start, end, failed)``; spans of one
    benchmark block share the block number.  Self time is a span's duration
    minus the durations of its direct children.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls = dict.fromkeys(TRACED, 0)
        self.self_s = dict.fromkeys(TRACED, 0.0)
        self.fails = dict.fromkeys(TRACED, 0)
        self.root_self_s = 0.0
        # Outcomes of the calls whose useful-work ratios are reported.
        self.decompose_sizes: list[tuple[int, int]] = []  # (d, element count)
        self.attack_results: list[tuple] = []  # (x, y, pair)
        self.classify_results: list[tuple] = []  # (matrix, classified element)
        self._stack: list[list] = []  # [span id, child time] per open span
        self._block = -1
        self._next_id = 0

    def _enter(self) -> tuple[int, int | None, list]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        return sid, parent, frame

    def _exit(self, sid, parent, frame, name, start, end, failed) -> float:
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.spans.append((sid, parent, self._block, name, start, end, failed))
        return duration - frame[1]

    @contextmanager
    def block(self, index: int):
        """Root span around one benchmark block (one CLI call or op batch)."""
        self._block = index
        sid, parent, frame = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.root_self_s += self._exit(sid, parent, frame, ROOT, start, end, False)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid, parent, frame = self._enter()
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                self.calls[name] += 1
                self.fails[name] += failed
                self.self_s[name] += self._exit(sid, parent, frame, name, start, end, failed)
            self._observe(name, args, result)
            return result

        return traced

    def _observe(self, name, args, result) -> None:
        if name == "quotient.quotient_decompose":
            self.decompose_sizes.append((len(args[0]), len(result)))
        elif name == "ambiguity.attack":
            self.attack_results.append((args[0], args[1], result))
        elif name == "nullspace.classify":
            self.classify_results.append((args[0], result))

    @contextmanager
    def installed(self):
        """Bind the shims in every loaded ``ambiconv`` module; undo on exit."""
        holders = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "ambiconv" or key.startswith("ambiconv.")
        ]
        patched = []
        for module_name, funcs in LAYERS.items():
            defining = importlib.import_module(f"ambiconv.{module_name}")
            for func in funcs:
                original = getattr(defining, func)
                shim = self.wrap(f"{module_name}.{func}", original)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, shim)
                            patched.append((holder, attr, original))
        try:
            yield
        finally:
            for holder, attr, original in reversed(patched):
                setattr(holder, attr, original)

    def write_spans(self, path) -> None:
        keys = ("id", "parent", "block", "name", "start", "end", "failed")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))))
                fh.write("\n")
