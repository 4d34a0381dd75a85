"""Per-layer counters and self times, recorded by wrapping nilp2 from outside.

``Tracer.install`` replaces each traced function at every place a nilp2
module binds it: ``from .fplinalg import rref`` copies the name into
``group_core``, so wrapping ``fplinalg.rref`` alone would miss those calls.
Methods are wrapped on their class.  ``uninstall`` puts every original
back.  Wrappers record only while ``enabled`` is set, which the benchmark
sets around each timed operation.

Self time of a call is its duration minus the time spent in traced calls
nested inside it.  Functions in ``CALLS_ONLY`` are only counted: their own
time stays in their caller's self time.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter

import numpy as np

# (metric prefix, module, attribute path, hook computing extra counters)
TARGETS = [
    ("fplinalg.rref", "nilp2.fplinalg", "rref", "cells"),
    ("fplinalg.kernel_basis", "nilp2.fplinalg", "kernel_basis", None),
    ("fplinalg.complement_projection", "nilp2.fplinalg", "Subspace.complement_projection", None),
    ("fplinalg.Subspace", "nilp2.fplinalg", "Subspace.__init__", None),
    ("fplinalg.intersect", "nilp2.fplinalg", "Subspace.intersect", None),
    ("capability.jacobi_subspace", "nilp2.capability", "jacobi_subspace", "jacobi"),
    ("capability.epicentre_in_derived", "nilp2.capability", "epicentre_in_derived", "distinct"),
    ("capability.capability_verdict", "nilp2.capability", "capability_verdict", "undetermined"),
    ("capability.central_decomposition_search", "nilp2.capability", "central_decomposition_search", "search"),
    ("capability.rp_membership", "nilp2.capability", "rp_membership", "undetermined"),
    ("group_core.element_ops", "nilp2.group_core", "multiply", None),
    ("group_core.element_ops", "nilp2.group_core", "inverse", None),
    ("group_core.element_ops", "nilp2.group_core", "power", None),
    ("group_core.element_ops", "nilp2.group_core", "commutator", None),
    ("group_core.hom_from_images", "nilp2.group_core", "hom_from_images", None),
    ("group_core.quotient_by_central", "nilp2.group_core", "quotient_by_central", None),
    ("group_core.center", "nilp2.group_core", "center", None),
    ("group_core.is_monomorphism", "nilp2.group_core", "is_monomorphism", None),
    ("group_core.enumerate_subgroups", "nilp2.group_core", "enumerate_subgroups", "subgroups"),
    ("products.direct_product", "nilp2.products", "direct_product", None),
    ("products.nilpotent2_product", "nilp2.products", "nilpotent2_product", None),
    ("products.central_product_identified", "nilp2.products", "central_product_identified", None),
    ("products.amalgamated_coproduct", "nilp2.products", "amalgamated_coproduct", None),
    ("constructions.build_capable_extension", "nilp2.constructions", "build_capable_extension", None),
    ("constructions.build_noncapable_extension", "nilp2.constructions", "build_noncapable_extension", None),
    ("constructions.verify_extension", "nilp2.constructions", "verify_extension", None),
    ("fileformats.parse", "nilp2.fileformats", "parse_group_text", "bytes"),
    ("fileformats.parse", "nilp2.fileformats", "parse_identification_text", "bytes"),
    ("fileformats.parse", "nilp2.fileformats", "parse_generator_map_text", "bytes"),
    ("fileformats.format", "nilp2.fileformats", "format_group", None),
    ("fileformats.format", "nilp2.fileformats", "format_identification", None),
    ("fileformats.format", "nilp2.fileformats", "format_generator_map", None),
    ("cli.main", "nilp2.cli", "main", None),
]

# Counters beyond calls and self_s, by hook.
EXTRA = {
    "cells": ("cells",),
    "jacobi": ("triples", "tensor_dim"),
    "distinct": ("distinct_groups",),
    "undetermined": ("undetermined",),
    "search": ("subgroups",),
    "subgroups": ("subgroups",),
    "bytes": ("bytes",),
}
# Metrics with calls only.  Their wrapper pushes no frame, so their own time
# stays in the caller's self time.
CALLS_ONLY = {"fplinalg.intersect"}


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    seen = set()
    for prefix, _, _, hook in TARGETS:
        if prefix in seen:
            continue
        seen.add(prefix)
        out.append((f"{prefix}.calls", "count", "lower"))
        if prefix not in CALLS_ONLY:
            out.append((f"{prefix}.self_s", "s", "lower"))
        for extra in EXTRA.get(hook, ()):
            out.append((f"{prefix}.{extra}", "B" if extra == "bytes" else "count", "lower"))
        if prefix == "group_core.is_monomorphism":
            out.append((f"{prefix}.brute_scans", "count", "lower"))
        if prefix == "group_core.enumerate_subgroups":
            out.append(("group_core.element_tables.built", "count", "lower"))
            out.append(("group_core.element_tables.bytes", "B", "lower"))
    out.append(("process.import_nilp2_s", "s", "lower"))
    return out


def _resolve(module, path):
    owner = sys.modules[module]
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self.enabled = False
        self.counts = Counter()
        self.self_s = Counter()
        self.groups = set()
        self._stack = []
        self._restore = []

    def reset(self):
        self.counts.clear()
        self.self_s.clear()
        self.groups.clear()

    def snapshot(self) -> dict:
        """Counters recorded since the last reset, by metric name."""
        out = dict(self.counts)
        out.update({f"{key}.self_s": value for key, value in self.self_s.items()})
        out["capability.epicentre_in_derived.distinct_groups"] = len(self.groups)
        return out

    # -- installing -------------------------------------------------------------

    def install(self):
        modules = [mod for name, mod in sys.modules.items() if name == "nilp2" or name.startswith("nilp2.")]
        for prefix, module, path, hook in TARGETS:
            owner, name = _resolve(module, path)
            original = owner.__dict__[name]
            wrapper = self._count(prefix, original) if prefix in CALLS_ONLY else self._wrap(prefix, original, hook)
            if isinstance(owner, type):
                self._set(owner, name, wrapper)
                continue
            for mod in modules:
                for attr in [a for a, value in vars(mod).items() if value is original]:
                    self._set(mod, attr, wrapper)
        group_core = sys.modules["nilp2.group_core"]
        self._set(group_core.GroupPresentation, "elements", self._mark_scan(group_core.GroupPresentation.elements))
        tables = group_core._ElementTables
        self._set(tables, "__init__", self._count_tables(tables.__init__))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, prefix, fn, hook):
        tracer = self
        stack = self._stack
        counts = self.counts
        self_s = self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [prefix, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[prefix] += elapsed - frame[1]
                counts[prefix + ".calls"] += 1
            if hook is not None:
                tracer._hook(prefix, hook, args, result)
            if stack:
                # The hook's own cost is kept out of the caller's self time.
                stack[-1][1] += clock() - start
            return result

        return wrapper

    def _count(self, prefix, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                counts[prefix + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hook(self, prefix, hook, args, result):
        counts = self.counts
        if hook == "cells":
            shape = np.shape(args[0])
            counts[prefix + ".cells"] += shape[0] * shape[1] if len(shape) == 2 else 0
        elif hook == "jacobi":
            g = args[0]
            counts[prefix + ".triples"] += math.comb(g.n, 3)
            counts[prefix + ".tensor_dim"] += g.n * g.m
        elif hook == "distinct":
            g = args[0]
            self.groups.add((g.p, g.n, g.m, g.c_items))
        elif hook == "undetermined":
            counts[prefix + ".undetermined"] += result.status == "undetermined"
        elif hook == "search":
            counts[prefix + ".subgroups"] += result.subgroup_count or 0
        elif hook == "subgroups":
            counts[prefix + ".subgroups"] += len(result)
        elif hook == "bytes":
            counts[prefix + ".bytes"] += len(args[0].encode("utf-8"))

    def _mark_scan(self, fn):
        """Counts element enumerations started directly by is_monomorphism:
        its brute-force kernel scans."""
        tracer = self

        @functools.wraps(fn)
        def elements(group):
            if tracer.enabled and tracer._stack and tracer._stack[-1][0] == "group_core.is_monomorphism":
                tracer.counts["group_core.is_monomorphism.brute_scans"] += 1
            return fn(group)

        return elements

    def _count_tables(self, fn):
        tracer = self

        @functools.wraps(fn)
        def init(tables, group):
            fn(tables, group)
            if tracer.enabled:
                tracer.counts["group_core.element_tables.built"] += 1
                tracer.counts["group_core.element_tables.bytes"] += tables.vecs.nbytes + tables.mul.nbytes + tables.comm.nbytes

        return init
