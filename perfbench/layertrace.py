"""Per-layer tracing of one sdcyclic process, from outside the package.

``Tracer.install`` wraps public functions of the seven modules and
rebinds every name in every loaded ``sdcyclic`` module that refers to the
original, so calls made through ``from .x import f`` bindings are seen
too. Three kinds of wrapper:

* spanned: one in-memory span per call (name, start, end, parent span,
  and the time of untraced element-level calls made directly inside it);
* timed: element-level binomial calls, counted, with the time of the
  outermost call added up, and no span;
* counted: element-level field inversions, counted only.

``Tracer.dump`` writes everything as one JSON file at exit;
``summarize`` turns such files into self times and counts.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

SPANNED = {
    "cli": ("dispatch",),
    "enumerator": ("build_code", "classify_cases", "count_self_dual", "to_negacyclic"),
    "reciprocal": ("solution_basis", "basis_convert"),
    "gmatrix": ("solution_column", "g_truncated", "build_g_kron", "build_g_direct"),
    "chainring": ("is_self_dual", "is_self_orthogonal", "span_dimension"),
    "fieldcore": ("find_irreducible",),
}
TIMED = {"binomial": ("g_entry", "binom_mod_p")}
COUNTED = {"fieldcore": ("FieldSpec.inv",)}
MODULES = ("fieldcore", "binomial", "gmatrix", "reciprocal", "enumerator", "chainring", "cli")


class Tracer:
    """Span and counter store for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent, untraced child time]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.timed_s: dict[str, float] = defaultdict(float)
        self.timed_depth = 0

    # -- wrappers

    def _spanned(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append([index, clock(), 0.0, stack[-1] if stack else -1, 0.0])
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][2] = clock()

        if name == "reciprocal.basis_convert":
            def convert(field, coeffs, direction):
                counts["reciprocal.basis_convert.coeffs"] += len(coeffs)
                return wrapper(field, coeffs, direction)

            return convert
        if name == "gmatrix.g_truncated":
            def truncated(p, l, *rest, **kwargs):
                before = fn.cache_info().misses
                out = wrapper(p, l, *rest, **kwargs)
                if fn.cache_info().misses > before:
                    counts["gmatrix.g_truncated.misses"] += 1
                    counts["gmatrix.cache_bytes"] += l * l * 8
                return out

            return truncated
        return wrapper

    def _timed(self, name: str, fn):
        counts, timed_s, spans, stack = self.counts, self.timed_s, self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if self.timed_depth:
                return fn(*args, **kwargs)
            self.timed_depth = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.timed_depth = 0
                timed_s[name] += elapsed
                if stack:
                    spans[stack[-1]][4] += elapsed

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation

    def install(self) -> None:
        import sdcyclic  # noqa: F401  (loads all seven modules)
        import sdcyclic.cli  # noqa: F401

        loaded = [m for n, m in sys.modules.items() if n == "sdcyclic" or n.startswith("sdcyclic.")]
        for kinds, make in ((SPANNED, self._spanned), (TIMED, self._timed)):
            for module, funcs in kinds.items():
                mod = sys.modules[f"sdcyclic.{module}"]
                for func in funcs:
                    original = getattr(mod, func)
                    wrapped = make(f"{module}.{func}", original)
                    for m in loaded:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, attr, wrapped)
        for module, methods in COUNTED.items():
            mod = sys.modules[f"sdcyclic.{module}"]
            for dotted in methods:
                cls_name, meth = dotted.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._counted(f"{module}.{dotted}", getattr(cls, meth)))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"names": self.names, "spans": self.spans, "counts": self.counts, "timed_s": self.timed_s},
                fh,
                separators=(",", ":"),
            )


# ---------------------------------------------------------------------------
# Analysis, in the benchmark process


class Summary:
    """Totals over the traced operations of one run."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.ops = 0

    def add(self, path: str) -> None:
        """Fold in one dump: self time is a span's duration minus its
        traced children and the element-level calls made inside it."""
        with open(path, encoding="utf-8") as fh:
            dump = json.load(fh)
        names, spans = dump["names"], dump["spans"]
        covered = [s[4] for s in spans]
        for name_i, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name_i, start, end, _, _), cov in zip(spans, covered):
            name = names[name_i]
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += end - start - cov
        for name, n in dump["counts"].items():
            self.counts[name] += n
        for name, t in dump["timed_s"].items():
            self.self_s[name] += t
        self.ops += 1

    def module_self_s(self, module: str) -> float:
        return sum(t for name, t in self.self_s.items() if name.split(".")[0] == module)
