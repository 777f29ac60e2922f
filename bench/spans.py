"""Span tracing from outside the library.

`Tracer.install()` wraps each module's public entry points by rebinding the
name in every `dptheta` module namespace that holds it (and in dicts stored
there, such as the CLI's scheme table), so calls between modules are traced
too.  A span records name, start, end, parent span and op id; spans stay in
memory until the run ends.  Per-element helpers (`lattice.pair`,
`lattice.reflect`, `MultiPoly` operators, ...) are deliberately not wrapped:
they run about a million times per pass and would swamp the measurement.

Spans are recorded only while `recording` is set, so oracle checks that call
the library outside the timed region leave no trace.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from time import perf_counter

MODULES = ("lattice", "nodal", "spin", "theta_f2", "poly", "detrep", "cli")

# Public entry points per module.  A name missing from a module is skipped,
# so the tracer keeps working when a later version drops or renames one.
ENTRY_POINTS = {
    "lattice": ("enumerate_classes", "weyl_order", "weyl_orbit",
                "double_six_orbits", "contracted_lines", "make_lattice"),
    "nodal": ("parse_config", "validate_config", "congruence_classes",
              "line_scheme", "blowdown_scheme", "bitangent_scheme",
              "double_six_scheme", "aronhold_scheme", "even_theta_scheme",
              "intersection_profile"),
    "spin": ("parse_graph", "spin_scheme", "even_subsets",
             "spin_table_irreducible"),
    "theta_f2": ("enumerate_aronhold", "even_theta_of_aronhold",
                 "even_theta_of_blowdown", "make_space", "count_zeros", "arf",
                 "count_conic_pairs"),
    "poly": ("parse_poly", "resultant", "determinant",
             "squarefree_multiplicities", "uni_from_binary_form"),
    "detrep": ("parse_data_block", "data_from_block", "discriminant_quintic",
               "contact_conic", "total_tangency_check",
               "quartic_from_odd_theta"),
    "cli": ("main",),
}


@dataclass
class Span:
    name: str        # "<module>.<function>"
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at an op's root
    op: str          # id of the op that caused it
    failed: bool
    cache_hit: bool | None = None


def dptheta_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "dptheta" or name.startswith("dptheta.")]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.recording = False
        self.op = ""
        # counters kept at the span boundaries: name -> hook(args, result)
        self.hooks = {
            "nodal.congruence_classes": self._hook_partition,
            "spin.even_subsets": self._hook_even_subsets,
            "detrep.total_tangency_check": self._hook_verdict,
        }
        self._undo = []
        self.partition_keys: list = []
        self.classes_keyed = 0
        self.even_subsets = 0
        self.verdicts = 0

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        import dptheta.cli  # noqa: F401  (loads every module)

        originals = {}
        for short, names in ENTRY_POINTS.items():
            module = sys.modules[f"dptheta.{short}"]
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    originals[id(fn)] = (fn, self._wrap(fn, f"{short}.{name}"))
        for module in dptheta_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._undo.append((vars(module), attr, value))
                    setattr(module, attr, originals[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = originals.get(id(item))
                        if hit and hit[0] is item:
                            self._undo.append((value, key, item))
                            value[key] = hit[1]

    def uninstall(self) -> None:
        """Put every original function back where install() found it."""
        for namespace, key, original in reversed(self._undo):
            namespace[key] = original
        self._undo = []

    def _wrap(self, fn, name: str):
        cache_info = getattr(fn, "cache_info", None)
        hook = self.hooks.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False)
            spans.append(span)
            stack.append(idx)
            misses = cache_info().misses if cache_info else 0
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if cache_info:
                span.cache_hit = cache_info().misses == misses
            if hook:
                hook(args, result)
            return result

        if cache_info:
            traced.cache_info, traced.cache_clear = cache_info, fn.cache_clear
        return traced

    def _hook_partition(self, args, result) -> None:
        cfg, classes = args[0], args[1]
        self.partition_keys.append((id(cfg), hash(tuple(classes))))
        self.classes_keyed += len(classes)

    def _hook_even_subsets(self, args, result) -> None:
        self.even_subsets += len(result)

    def _hook_verdict(self, args, result) -> None:
        self.verdicts += 1

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def by_name(self):
        """name -> [calls, inclusive seconds, self seconds, failed, hits]."""
        out = {}
        own = self.self_times()
        for s, self_s in zip(self.spans, own):
            row = out.setdefault(s.name, [0, 0.0, 0.0, 0, 0])
            row[0] += 1
            row[1] += s.end - s.start
            row[2] += self_s
            row[3] += s.failed
            row[4] += bool(s.cache_hit)
        return out

    def busy_for_ops(self, op_ids) -> float:
        """Summed self time of the spans caused by the given ops."""
        own = self.self_times()
        return sum(t for s, t in zip(self.spans, own) if s.op in op_ids)


def clear_caches() -> None:
    """Empty every `functools.lru_cache` in the library, from outside."""
    for module in dptheta_modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
