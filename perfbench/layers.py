"""Per-layer tracing of the qci package from outside it.

`LayerTracer` wraps public functions and methods of the qci modules while it
is active and restores every patched name when it leaves.  Nothing inside
`src/` is changed: a wrapped function is replaced in every module namespace
(and class) that binds the same object, so `qci.cli.decide` and
`qci.builder.decide` are both traced.

Two kinds of wrapper exist:

* count-only wrappers for the hottest calls (the Scalar dunders, `bracket`,
  `Scalar.__init__`); they add to a counter and nothing else;
* timed wrappers, which keep a stack of child-time accumulators so that each
  layer gets an inclusive time (outermost call of that layer only) and a self
  time (duration minus the time its timed children took).  Timed wrappers
  marked as spans also append a (name, start, end, parent) record, kept in
  memory and written out at the end of the benchmark; the frequent ones
  (`decide`, `Presentation.mul`, ...) are aggregated into totals only.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter


def _matrix_stats(mat):
    """(entries, nonzeros) of a list-of-rows matrix of Scalars."""
    entries = nonzero = 0
    for row in mat:
        entries += len(row)
        nonzero += sum(1 for x in row if not x.is_zero())
    return entries, nonzero


class LayerTracer:
    """Counts and times calls into the qci layers while active."""

    def __init__(self, qci_modules):
        self.modules = qci_modules
        self.counts = Counter()
        self.seconds = Counter()
        self.self_seconds = Counter()
        self.spans = []
        self._stack = []  # one [child_seconds, span_index] per open timed call
        self._depth = Counter()  # open calls per layer, to time a layer once
        self._patched = []

    # -- wrappers ---------------------------------------------------------------

    def _counting(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, fn, layer, name, span=False, after=None):
        """Wrap fn as a call of `layer`; `after(args, result)` adds counts."""
        stack, depth = self._stack, self._depth
        seconds, self_seconds, counts, spans = (
            self.seconds, self.self_seconds, self.counts, self.spans)
        key = f"{layer}.{name}"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, parent]  # child seconds, index of the nearest span
            if span:
                frame[1] = len(spans)
                spans.append([key, 0.0, 0.0, parent])
            stack.append(frame)
            depth[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[layer] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                if span:
                    spans[frame[1]][1:3] = [start, start + elapsed]
                counts[key + "_count"] += 1
                seconds[key + "_s"] += elapsed
                self_seconds[layer] += elapsed - frame[0]
                if depth[layer] == 0:
                    seconds[layer] += elapsed
            if after is not None:
                # the hook's own cost is not charged to the caller's self time
                start = clock()
                after(args, result)
                if stack:
                    stack[-1][0] += clock() - start
            return result

        return wrapper

    # -- hooks for counts measured at the layer boundary -------------------------

    def _linalg_inputs(self, args, result):
        # every public linalg function takes (field, matrix, [rhs])
        for mat in args[1:]:
            entries, nonzero = _matrix_stats(mat)
            self.counts["linalg.entries"] += entries
            self.counts["linalg.nonzeros"] += nonzero

    def _candidates(self, args, result):
        self.counts["permutations.candidates"] += len(result)

    def _solve_c(self, args, result):
        if result is not None:
            self.counts["builder.witnesses"] += 1

    def _bytes_written(self, args, result):
        self.counts["structio.bytes_written"] += os.path.getsize(args[1])

    def _bytes_read(self, args, result):
        self.counts["structio.bytes_read"] += os.path.getsize(args[0])

    # -- patching -----------------------------------------------------------------

    def _plan(self):
        """(owner, attribute, replacement) for every name to patch."""
        m = self.modules
        Scalar = m["scalars"].Scalar
        Presentation = m["algebra"].Presentation
        count, timed = self._counting, self._timed
        plan = [
            (Scalar, "__init__", count(Scalar.__init__, "scalars.new_count")),
            (Scalar, "__mul__", count(Scalar.__mul__, "scalars.mul_count")),
            (Scalar, "__rmul__", count(Scalar.__rmul__, "scalars.mul_count")),
            (Scalar, "__add__", count(Scalar.__add__, "scalars.add_count")),
            (Scalar, "__radd__", count(Scalar.__radd__, "scalars.add_count")),
            (Scalar, "__pow__", count(Scalar.__pow__, "scalars.pow_count")),
            (Scalar, "inverse", count(Scalar.inverse, "scalars.inv_count")),
            (Presentation, "bracket", count(Presentation.bracket, "algebra.bracket_count")),
            (Presentation, "__init__", timed(Presentation.__init__, "algebra", "presentation")),
            (Presentation, "mul", timed(Presentation.mul, "algebra", "mul")),
            (Presentation, "pairing_matrix",
             timed(Presentation.pairing_matrix, "algebra", "pairing_matrix", span=True)),
            (Presentation, "invert_element",
             timed(Presentation.invert_element, "algebra", "invert_element", span=True)),
        ]
        functions = [
            ("linalg", "rank", "call", True, self._linalg_inputs),
            ("linalg", "kernel_basis", "call", True, self._linalg_inputs),
            ("linalg", "solve_matrix", "call", True, self._linalg_inputs),
            ("linalg", "invert", "call", True, self._linalg_inputs),
            ("linalg", "is_generalized_permutation", "call", True, self._linalg_inputs),
            ("permutations", "enumerate_compatible", "enumerate", False, self._candidates),
            ("builder", "decide", "decide", False, None),
            ("builder", "solve_c", "solve_c", False, self._solve_c),
            ("builder", "build_structure", "build", True, None),
            ("builder", "g_table", "g_table", True, None),
            ("verify", "verify_axioms", "axioms", True, None),
            ("verify", "verify_derived", "derived", True, None),
            ("verify", "is_hopf_comultiplication", "hopf", True, None),
            ("verify", "primitive_space_dim", "primitive", True, None),
            ("structio", "save_structure", "save", True, self._bytes_written),
            ("structio", "save_presentation", "save", True, self._bytes_written),
            ("structio", "load_structure", "load", True, self._bytes_read),
            ("structio", "load_presentation", "load", True, self._bytes_read),
            ("cli", "run", "run", True, None),
        ]
        for module, attr, name, span, after in functions:
            original = getattr(m[module], attr)
            wrapper = timed(original, module, name, span=span, after=after)
            for owner in m.values():
                for key, value in list(vars(owner).items()):
                    if value is original:
                        plan.append((owner, key, wrapper))
        return plan

    def __enter__(self):
        for owner, attr, replacement in self._plan():
            self._patched.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        return False

    # -- report -------------------------------------------------------------------

    def metrics(self) -> dict:
        """The per-layer metric values, keyed as in BENCHMARK.json."""
        c, s, own = self.counts, self.seconds, self.self_seconds
        entries = c["linalg.entries"]
        tried = c["builder.solve_c_count"]
        return {
            "scalars.mul_count": c["scalars.mul_count"],
            "scalars.add_count": c["scalars.add_count"],
            "scalars.inv_count": c["scalars.inv_count"],
            "scalars.pow_count": c["scalars.pow_count"],
            "scalars.new_count": c["scalars.new_count"],
            "linalg.calls": c["linalg.call_count"],
            "linalg.s": s["linalg"],
            "linalg.self_s": own["linalg"],
            "linalg.entries": entries,
            "linalg.nonzero_frac": c["linalg.nonzeros"] / entries if entries else 0.0,
            "algebra.mul_count": c["algebra.mul_count"],
            "algebra.mul_s": s["algebra.mul_s"],
            "algebra.bracket_count": c["algebra.bracket_count"],
            "algebra.pairing_matrix_s": s["algebra.pairing_matrix_s"],
            "algebra.invert_element_s": s["algebra.invert_element_s"],
            "algebra.presentation_count": c["algebra.presentation_count"],
            "algebra.presentation_s": s["algebra.presentation_s"],
            "permutations.enumerate_count": c["permutations.enumerate_count"],
            "permutations.enumerate_s": s["permutations.enumerate_s"],
            "permutations.candidates": c["permutations.candidates"],
            "builder.decide_count": c["builder.decide_count"],
            "builder.decide_s": s["builder.decide_s"],
            "builder.solve_c_count": tried,
            "builder.witness_yield": c["builder.witnesses"] / tried if tried else 0.0,
            "builder.build_s": s["builder.build_s"],
            "builder.g_table_s": s["builder.g_table_s"],
            "verify.axioms_s": s["verify.axioms_s"],
            "verify.derived_s": s["verify.derived_s"],
            "verify.hopf_s": s["verify.hopf_s"],
            "verify.primitive_s": s["verify.primitive_s"],
            "verify.self_s": own["verify"],
            "structio.save_s": s["structio.save_s"],
            "structio.load_s": s["structio.load_s"],
            "structio.bytes_written": c["structio.bytes_written"],
            "structio.bytes_read": c["structio.bytes_read"],
            "cli.self_s": own["cli"],
        }


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_frac", "_yield")):
        return "ratio"
    if ".bytes_" in name:
        return "bytes"
    return "count"


def qci_modules(package) -> dict:
    """The qci submodules by short name, plus the package itself."""
    names = ("scalars", "linalg", "algebra", "permutations", "builder", "verify",
             "structio", "cli", "demos")
    out = {name: sys.modules[f"{package.__name__}.{name}"] for name in names}
    out["package"] = package
    return out
