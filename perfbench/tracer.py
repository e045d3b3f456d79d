"""In-process span tracer for the spaceforms library, installed from outside.

`install` wraps the public entry points of each library module and puts the
wrapper in place of the original in every `spaceforms.*` namespace that holds
it: the modules import each other's functions with `from .x import y`, so
replacing the name only where it is defined would miss most calls.  Each call
becomes one span (id, parent id, name, operation id, start ns, end ns), kept
in memory and written out by `dump` when the process ends.

`exactnum` arithmetic is far too fine-grained for spans (a per-level inner
product makes hundreds of them); `CycloNum` addition and multiplication get
count-only wrappers instead, and their cost is measured by the operand
microbench in `worker.py`.  The levels the spectra layer delivers are
counted where they leave it (see LEVELS), so the count does not depend on
how many internal calls make up a level.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter_ns

# layer -> public entry points that get a span
ENTRY_POINTS = {
    "groups": ("build_binary_polyhedral", "cyclic_group", "save_group",
               "load_group", "verify_generator_conjugations"),
    "characters": ("character_table", "spin_character", "inner_product",
                   "restrict", "cyclic_character"),
    "induction": ("induce_character", "induce_twist", "induction_table",
                  "frobenius_multiplicity", "column_sum_is_regular",
                  "induce_in_stages", "induced_matrices",
                  "verify_monomial_rep", "render_all_columns"),
    "spectra": ("degeneracy", "degeneracy_series", "spectral_sum",
                "oracle_projector_degeneracy", "lens_torsion"),
    "theorems": ("verify_isospectrality", "verify_dimension_relation",
                 "verify_central_relations", "compare_reference_matrices",
                 "sunada_check", "artin_sufficiency",
                 "solve_irrep_quantities"),
    "mckay": ("mckay_graph", "compactified_diagram", "class_correspondence",
              "relink_matches_mckay", "export_dot"),
    "cli": ("resolve_group",),
}

# Span name -> levels one call delivers, added to the "spectra.levels" count
# for outermost calls only: degeneracy_series may be built on degeneracy, and
# a level counts once however the library computes it.
LEVELS = {"spectra.degeneracy_series": lambda series: len(series.entries),
          "spectra.degeneracy": lambda d: 1}

# CycloNum method -> counter name; __radd__/__rmul__ alias the same functions
COUNTED = {"__add__": "exactnum.add", "__radd__": "exactnum.add",
           "__mul__": "exactnum.mul", "__rmul__": "exactnum.mul"}


class Tracer:
    """Spans and counters of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._in_levels = 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn as one span called `name`."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, self.op_id, t0, t1))

    def wrap(self, name: str, fn):
        levels = LEVELS.get(name)

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        def traced_levels(*args, **kwargs):
            self._in_levels += 1
            try:
                out = self.call(name, fn, *args, **kwargs)
            finally:
                self._in_levels -= 1
            if not self._in_levels:
                self.counts["spectra.levels"] += levels(out)
            return out
        wrapper = traced if levels is None else traced_levels
        wrapper.__name__ = fn.__name__
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def counting(*args):
            counts[name] += 1
            return fn(*args)
        return counting

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh,
                      separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap every entry point in ENTRY_POINTS and count CycloNum add/mul.

    Call after `import spaceforms.cli` so that every library module, and
    every name it imported from another one, is in place."""
    mods = {name: mod for name, mod in sys.modules.items()
            if (name == "spaceforms" or name.startswith("spaceforms."))
            and mod is not None}
    replace = {}
    for layer, names in ENTRY_POINTS.items():
        home = mods[f"spaceforms.{layer}"]
        for fname in names:
            orig = getattr(home, fname)
            replace[id(orig)] = tracer.wrap(f"{layer}.{fname}", orig)
    for mod in mods.values():
        for attr, val in list(vars(mod).items()):
            if id(val) in replace:
                setattr(mod, attr, replace[id(val)])
    cyclo = mods["spaceforms.exactnum"].CycloNum
    originals = {meth: cyclo.__dict__[meth] for meth in COUNTED}
    for meth, counter in COUNTED.items():
        setattr(cyclo, meth, tracer.counted(counter, originals[meth]))


def load(paths) -> tuple[list[list], Counter]:
    """Merge the dumps of several processes; span ids stay per process, so
    each process's spans are kept as a separate list."""
    per_process, counts = [], Counter()
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        per_process.append(doc["spans"])
        counts.update(doc["counts"])
    return per_process, counts


def span_stats(per_process) -> dict:
    """Per span name: calls, inclusive seconds (outermost calls of that name
    only, so recursion is not counted twice) and self seconds (duration
    minus the direct children's durations)."""
    stats: dict[str, dict] = {}
    for spans in per_process:
        by_id = {s[0]: s for s in spans}
        child_ns = Counter()
        for sid, parent, name, op, t0, t1 in spans:
            if parent is not None:
                child_ns[parent] += t1 - t0
        for sid, parent, name, op, t0, t1 in spans:
            st = stats.setdefault(name, {"calls": 0, "incl_s": 0.0,
                                         "self_s": 0.0})
            st["calls"] += 1
            st["self_s"] += (t1 - t0 - child_ns[sid]) / 1e9
            anc = parent
            nested = False
            while anc is not None:
                a = by_id[anc]
                if a[2] == name:
                    nested = True
                    break
                anc = a[1]
            if not nested:
                st["incl_s"] += (t1 - t0) / 1e9
    return stats
