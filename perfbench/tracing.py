"""Span tracing for the traced run, installed from outside the library.

Each traced function is replaced by a wrapper that records a span (name,
start, end, parent) in memory.  The package modules import names with
``from ... import``, so a wrapper is installed at every binding site, found
by identity, and not only in the defining module.  A span's self time is
its duration minus the durations of its child spans; a layer metric sums
the self time of its spans.  The spans are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

from tnncells import LaurentPoly


def _symbolic(M) -> bool:
    return any(isinstance(x, LaurentPoly) for row in M for x in row)


def _lane(stem: str):
    return lambda args: f"{stem}.symbolic" if _symbolic(args[0]) else f"{stem}.numeric"


# (module, function, span name or a function of the call's arguments)
FUNCTIONS = [
    ("verify", "match_suite", "verify.match_suite"),
    ("verify", "tnn_roundtrip_suite", "verify.tnn_roundtrip_suite"),
    ("verify", "deletion_suite", "verify.deletion_suite"),
    ("verify", "poisson_suite", "verify.poisson_suite"),
    ("verify", "leibniz_holds", "verify.leibniz_holds"),
    ("cells", "match_families", "cells.match_families"),
    ("cells", "family_of_diagram", "cells.family_of_diagram"),
    ("cells", "is_tnn", "cells.is_tnn"),
    ("cells", "classify", "cells.classify"),
    ("families", "family_of_perm", "families.family_of_perm"),
    ("combinat", "random_diagram", "combinat.random_diagram"),
    ("restoration", "restore", _lane("restoration.restore")),
    ("restoration", "delete_derivations", "restoration.delete_derivations"),
    (
        "restoration",
        "trace_h_invariance_counterexample",
        "restoration.trace_h_invariance_counterexample",
    ),
    ("minors", "all_minors_table", "minors.all_minors_table"),
    ("minors", "vanishing_family", "minors.vanishing_family"),
    ("linalg", "all_minors", _lane("linalg.all_minors")),
    ("linalg", "det_exact", "linalg.det_exact"),
    ("laurent", "laurent_div_exact", "laurent.div_exact"),
    ("poisson", "bracket", "poisson.bracket"),
    ("poisson", "verify_all_step_brackets", "poisson.verify_all_step_brackets"),
    ("poisson", "verify_jacobi", "poisson.verify_jacobi"),
]

# Generators: each resumption is a span, so their self time is the time
# spent producing items, not the consumer's time between items.
GENERATORS = [
    ("combinat", "enumerate_diagrams", "combinat.enumerate_diagrams"),
    ("combinat", "enumerate_restricted_perms", "combinat.enumerate_restricted_perms"),
]

# LaurentPoly methods; the reflected operators are separate class bindings.
METHODS = [
    ("__mul__", "laurent.mul"),
    ("__rmul__", "laurent.mul"),
    ("__add__", "laurent.add"),
    ("__radd__", "laurent.add"),
    ("partial", "laurent.partial"),
]

# Per-layer metrics of each workload: the layers the workload reaches and
# the issue-time prediction of which end-to-end metric they should move
# (see README.md).  ``.s`` is self time, ``.calls`` a span count.
LAYER_METRICS = {
    "bijection": [
        "verify.match_suite.s",
        "cells.match_families.s",
        "cells.family_of_diagram.s",
        "cells.family_of_diagram.calls",
        "cells.family_of_diagram.misses",
        "families.family_of_perm.calls",
        "families.family_of_perm.s",
        "combinat.enumerate_diagrams.s",
        "combinat.enumerate_restricted_perms.s",
        "restoration.restore.symbolic.calls",
        "restoration.restore.symbolic.s",
        "minors.vanishing_family.s",
        "linalg.all_minors.symbolic.calls",
        "linalg.all_minors.symbolic.s",
        "laurent.mul.calls",
        "laurent.mul.s",
        "laurent.add.s",
        "laurent.div_exact.calls",
        "laurent.div_exact.s",
        "laurent.terms_max",
        "laurent.coeff_bits_max",
    ],
    "corpus": [
        "verify.tnn_roundtrip_suite.s",
        "verify.deletion_suite.s",
        "combinat.random_diagram.calls",
        "combinat.random_diagram.s",
        "restoration.restore.numeric.calls",
        "restoration.restore.numeric.s",
        "restoration.restore.symbolic.calls",
        "restoration.restore.symbolic.s",
        "restoration.delete_derivations.s",
        "restoration.trace_h_invariance_counterexample.s",
        "minors.all_minors_table.s",
        "minors.vanishing_family.s",
        "linalg.all_minors.numeric.calls",
        "linalg.all_minors.numeric.s",
        "linalg.all_minors.symbolic.s",
        "cells.family_of_diagram.calls",
        "cells.family_of_diagram.misses",
        "cells.family_of_diagram.s",
        "laurent.mul.s",
        "laurent.div_exact.s",
    ],
    "poisson": [
        "verify.poisson_suite.s",
        "verify.leibniz_holds.s",
        "poisson.bracket.calls",
        "poisson.bracket.s",
        "poisson.verify_all_step_brackets.s",
        "poisson.verify_jacobi.s",
        "combinat.enumerate_diagrams.s",
        "restoration.restore.symbolic.calls",
        "restoration.restore.symbolic.s",
        "laurent.mul.calls",
        "laurent.mul.s",
        "laurent.add.s",
        "laurent.partial.calls",
        "laurent.partial.s",
        "laurent.div_exact.calls",
        "laurent.div_exact.s",
        "laurent.terms_max",
        "laurent.coeff_bits_max",
    ],
    "classify": [
        "cells.classify.s",
        "cells.classify.p50_ms",
        "cells.classify.p90_ms",
        "cells.is_tnn.s",
        "cells.family_of_diagram.s",
        "cells.family_of_diagram.calls",
        "cells.family_of_diagram.misses",
        "families.family_of_perm.calls",
        "families.family_of_perm.s",
        "combinat.enumerate_restricted_perms.s",
        "restoration.delete_derivations.s",
        "restoration.restore.symbolic.calls",
        "restoration.restore.symbolic.s",
        "minors.all_minors_table.s",
        "minors.vanishing_family.s",
        "linalg.all_minors.numeric.calls",
        "linalg.all_minors.numeric.s",
        "linalg.all_minors.symbolic.s",
        "laurent.mul.s",
        "laurent.div_exact.s",
    ],
}


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(".s"):
        return "s"
    if metric.endswith("bits_max"):
        return "bits"
    return "count"


class Tracer:
    """Span recorder.  Spans live in flat arrays: name id, start, end and
    parent span index (-1 at the top)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[list] = []  # [span index, time in child spans]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.classify_ms: list[float] = []
        self.symbolic_traces: list = []
        self._undo: list[tuple[object, str, object]] = []
        self._caches: dict[str, object] = {}

    def _begin(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append([len(self.start), 0.0])
        self.start.append(time.perf_counter())

    def _end(self) -> None:
        t = time.perf_counter()
        idx, child = self._stack.pop()
        self.end[idx] = t
        duration = t - self.start[idx]
        name = self.names[self.name_id[idx]]
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration
        if name == "cells.classify":
            self.classify_ms.append(duration * 1e3)

    def _wrap(self, fn, name):
        namer = name if callable(name) else (lambda args: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = namer(args)
            self._begin(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end()
            if span == "restoration.restore.symbolic":
                self.symbolic_traces.append(out)
            return out

        return traced

    def _wrap_generator(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                self._begin(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._end()
                yield item

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, extra_modules=()) -> None:
        """Wrap every traced function at each of its bindings in the package
        and in ``extra_modules`` (the benchmark's own callers)."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "tnncells" or key.startswith("tnncells.")
        ] + list(extra_modules)
        for wrap, table in ((self._wrap, FUNCTIONS), (self._wrap_generator, GENERATORS)):
            for module, attr, name in table:
                original = getattr(sys.modules[f"tnncells.{module}"], attr)
                if hasattr(original, "cache_info"):
                    self._caches[name] = original
                wrapper = wrap(original, name)
                for mod in modules:
                    for key in [k for k, v in vars(mod).items() if v is original]:
                        self._replace(mod, key, wrapper)
        for attr, name in METHODS:
            self._replace(LaurentPoly, attr, self._wrap(getattr(LaurentPoly, attr), name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def swell(self) -> tuple[int, int]:
        """Largest term count and coefficient bit length over every entry of
        every symbolic restoration trace the run produced."""
        terms = bits = 0
        seen = set()
        for trace in self.symbolic_traces:
            for mat in trace.matrices:
                for row in mat:
                    for x in row:
                        if id(x) in seen:
                            continue
                        seen.add(id(x))
                        terms = max(terms, len(x.terms))
                        for c in x.terms.values():
                            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
        return terms, bits

    def metrics(self, wanted: list[str]) -> dict[str, float]:
        terms_max, bits_max = self.swell()
        out = {}
        for metric in wanted:
            stem, _, kind = metric.rpartition(".")
            if metric == "laurent.terms_max":
                out[metric] = terms_max
            elif metric == "laurent.coeff_bits_max":
                out[metric] = bits_max
            elif kind == "s":
                out[metric] = self.self_s[stem]
            elif kind == "calls":
                out[metric] = self.calls[stem]
            elif kind == "misses":
                out[metric] = self._caches[stem].cache_info().misses
            elif kind == "p50_ms":
                out[metric] = statistics.median(self.classify_ms)
            elif kind == "p90_ms":
                out[metric] = statistics.quantiles(self.classify_ms, n=10)[-1]
            else:
                raise ValueError(f"no rule for metric {metric}")
        return out

    def write(self, path: Path) -> None:
        """Write the spans as raw arrays plus a JSON header naming them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.name_id, self.start, self.end, self.parent):
                arr.tofile(fh)
        header = {
            "spans": len(self.start),
            "names": self.names,
            "layout": "int32 name_id[spans], float64 start[spans], "
            "float64 end[spans], int32 parent[spans]; times are perf_counter "
            "seconds, parent -1 marks a top-level span",
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1))
