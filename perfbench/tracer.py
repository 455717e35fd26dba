"""Layer spans and work counters recorded from outside the library.

The tracer wraps public functions and methods of ``affine_singular`` for the
duration of a traced pass and restores the originals afterwards; no library
file is changed.  Each wrapped call opens a span named after the per-layer
timing it feeds (e.g. ``vacuum.straighten_s``).  A span's self time is its
duration minus the time of the spans it caused, so nested layers never count
twice.  A call into the layer that is already innermost is folded into the
open span.  Counters are deterministic measures of work done beside each
timing: they repeat exactly from pass to pass, whereas times on a shared
machine do not.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

import affine_singular.cache
import affine_singular.category_o
import affine_singular.determinants
import affine_singular.linalg
import affine_singular.liealg
import affine_singular.serialize
import affine_singular.vacuum
import affine_singular.weights
import affine_singular.weyl
import affine_singular.zhu

_PACKAGE = "affine_singular"
_bracket = affine_singular.liealg.StructureTable.bracket


class Tracer:
    """Self time per layer, counters, and the number of spans recorded."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.spans = 0
        self._stack = []  # open spans: [name, time spent in child spans]
        self.module = "none"  # module prefix of the innermost open span

    def call(self, name, fn, args, kwargs):
        if self._stack and self._stack[-1][0] == name:
            return fn(*args, **kwargs)
        frame = [name, 0.0]
        self._stack.append(frame)
        outer = self.module
        self.module = name.split(".", 1)[0]
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.module = outer
            self.self_s[name] += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed
            self.spans += 1

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts), "spans": self.spans}


def _table_size(tracer, table, seen):
    if id(table) in seen:
        return  # served by the lru_cache: nothing was built
    seen.add(id(table))
    tracer.counts["liealg.dim"] += table.dimension
    tracer.counts["liealg.bracket_entries"] += sum(
        len(_bracket(table, a, b)) for a in range(table.dimension) for b in range(table.dimension))


def _hooks(tracer):
    """(owner, attribute, span name, counter hook(result) or None) per wrapped call."""
    c = tracer.counts
    built = set()

    def add(key, amount=1):
        c[key] += amount

    m = affine_singular
    return [
        (m.liealg, "build_algebra", "liealg.build_s", lambda r: _table_size(tracer, r, built)),
        (m.determinants, "det_entry_poly", "determinants.expand_s", lambda r: add("determinants.det_terms", len(r))),
        (m.determinants, "minor_entry_poly", "determinants.expand_s", None),
        (m.determinants, "ep_mul", "determinants.expand_s", None),
        (m.determinants, "ep_pow", "determinants.expand_s", lambda r: add("determinants.det_terms", len(r))),
        (m.determinants, "ep_state", "determinants.expand_s", lambda r: add("determinants.state_terms", len(r.terms))),
        (m.determinants, "determinant_vector", "determinants.expand_s", None),
        (m.vacuum, "singular_check", "vacuum.straighten_s", None),
        (m.vacuum, "straighten", "vacuum.straighten_s", None),
        (m.vacuum, "apply_generator", "vacuum.straighten_s", lambda r: add("vacuum.residual_terms", len(r.terms))),
        (m.vacuum.VacuumState, "specialize", "vacuum.specialize_s",
         lambda r: add("vacuum.specialized_terms", len(r.terms))),
        (m.zhu, "zhu_project", "zhu.project_s", lambda r: add("zhu.projected_terms", len(r.terms))),
        (m.zhu, "uenv_mul", "zhu.pbw_s", lambda r: add("zhu.pbw_terms", len(r.terms))),
        (m.zhu, "uenv_pow", "zhu.pbw_s", None),
        (m.zhu, "weyl_image", "weyl.image_s", None),
        (m.zhu, "ad_action", "category_o.closure_s", lambda r: add("category_o.ad_actions")),
        (m.category_o, "adjoint_orbit_top", "category_o.closure_s",
         lambda r: add("category_o.module_dim", r.dimension)),
        (m.linalg.SparseBasis, "reduce", "linalg.reduce_s", lambda r: add("linalg.reduce_calls")),
        (m.linalg.SparseBasis, "insert", "linalg.reduce_s", lambda r: add("linalg.pivots", int(r))),
        (m.linalg.SparseBasis, "contains", "linalg.reduce_s", None),
        (m.weights, "weyl_dim", "weights.freudenthal_s", None),
        (m.weights, "weight_multiplicities", "weights.freudenthal_s", lambda r: add("weights.weights", len(r))),
        (m.cache, "cache_get", "cache.get_s",
         lambda r: add("cache.misses" if r[0] is None else "cache.hits")),
        (m.cache, "cache_put", "cache.put_s", lambda r: add("cache.puts")),
        (m.serialize, "canonical_json", "serialize.json_s", lambda r: add("serialize.json_calls")),
    ]


def _span(tracer, name, fn, hook):
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if hook is not None:
            hook(result)
        return result
    return wrapper


def _counted_bracket(tracer):
    counts = tracer.counts

    def bracket(self, x, y):
        counts[tracer.module + ".bracket_lookups"] += 1
        return _bracket(self, x, y)
    return bracket


def _counted_mul(tracer, mul):
    counts = tracer.counts

    def product(self, other):
        if tracer.module == "weyl":
            counts["weyl.products"] += 1
        return mul(self, other)
    return product


class installed:
    """Context manager: route the library's public calls through a tracer.

    A module-level function is replaced in every package module that bound
    it by name (``from .x import f``), so calls through any binding are seen.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = [mod for name, mod in sys.modules.items()
                   if name == _PACKAGE or name.startswith(_PACKAGE + ".")]
        for owner, attr, name, hook in _hooks(self.tracer):
            original = getattr(owner, attr)
            wrapper = _span(self.tracer, name, original, hook)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        table_cls = affine_singular.liealg.StructureTable
        self._set(table_cls, "bracket", _counted_bracket(self.tracer))
        weyl_cls = affine_singular.weyl.WeylElement
        self._set(weyl_cls, "__mul__", _counted_mul(self.tracer, weyl_cls.__mul__))
        return self.tracer

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False
