"""Outside-in tracer: spans around the public functions of each module.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces every
public module-level function of the nine traced modules, in every
``jordanable`` namespace that binds it, by a wrapper that records a span,
plus ``Matrix.__mul__``, ``Matrix.apply`` and ``SolutionSpace.contains``
on their classes.  ``Tracer.remove`` puts the original objects back, so
an untraced call runs exactly the code it ran before.

A span is (name, parent span, operation id, start, end, aux1, aux2); the
spans live in flat arrays in memory and are written out once, at the end
of a run.  ``aux1``/``aux2`` carry per-call counters taken from the
arguments (cells and largest entry bit-length of a row reduction, unknown
count of a brute-force solve).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

PACKAGE = "jordanable"
MODULES = ("field", "spectrum", "multiplicity", "jordan", "equations",
           "liealg", "oracle", "serialize", "cli")

# (module, class, attribute, span name)
METHODS = (
    ("field", "Matrix", "__mul__", "field.matmul"),
    ("field", "Matrix", "apply", "field.apply"),
    ("equations", "SolutionSpace", "contains", "equations.contains"),
)

FIELDS = ("name", "parent", "op", "start", "end", "aux1", "aux2")


def _entry_bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _row_reduce_counter(m, *_args, **_kwargs):
    entries = [x for row in m.to_rows() for x in row]
    return m.rows * m.cols, max(map(_entry_bits, entries), default=0)


def _brute_solve_counter(spec, *_args, **_kwargs):
    if spec.algebra is not None:
        n = spec.algebra.dimension
        return n * n, 0
    rows = spec.t2.rows if spec.t2 is not None else spec.t1.rows
    return rows * spec.t1.rows, 0


COUNTERS = {
    "field.row_reduce": _row_reduce_counter,
    "oracle.brute_solve": _brute_solve_counter,
}


class Tracer:
    """Span recorder for one process; install before and remove after use."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = {f: array("q") for f in FIELDS}
        self.op_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] | None = None

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        s = self.spans
        names, parents, ops = s["name"], s["parent"], s["op"]
        starts, ends, aux1, aux2 = s["start"], s["end"], s["aux1"], s["aux2"]
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            a1, a2 = counter(*args, **kwargs) if counter else (0, 0)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            aux1.append(a1)
            aux2.append(a2)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to patch."""
        pkg = PACKAGE
        mods = {m: importlib.import_module(f"{pkg}.{m}") for m in MODULES}
        wrappers = {}  # id(original) -> (original, wrapper)
        for short, mod in mods.items():
            for attr, obj in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == pkg or name.startswith(pkg + ".")]
        plan = []
        for ns in namespaces:
            for attr, obj in sorted(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    plan.append((ns, attr, obj, hit[1]))
        for short, cls_name, attr, name in METHODS:
            cls = getattr(mods[short], cls_name, None)
            original = cls.__dict__.get(attr) if cls is not None else None
            if inspect.isfunction(original):
                plan.append((cls, attr, original, self._wrap(name, original)))
        return plan

    def install(self):
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original, _wrapper in self._patches or ():
            setattr(owner, attr, original)

    def originals_restored(self) -> bool:
        """True when every patched binding is its original object again."""
        return all(vars(owner)[attr] is original
                   for owner, attr, original, _w in self._patches or ())

    # -- output -----------------------------------------------------------

    def write(self, path: Path, op_scale=()):
        """Spans as <path>.bin (one int64 array per field) plus a JSON index.

        ``op_scale[op]`` converts operation ``op``'s clock readings to the
        reference speed of the end-to-end latencies.
        """
        count = len(self.spans["start"])
        with open(path.with_suffix(".bin"), "wb") as fh:
            for f in FIELDS:
                self.spans[f].tofile(fh)
        index = {"names": self.names, "fields": FIELDS, "count": count,
                 "dtype": "int64", "clock": "perf_counter_ns",
                 "op_scale": list(op_scale)}
        path.with_suffix(".json").write_text(json.dumps(index))


# -- analysis -------------------------------------------------------------


def self_times(start, end, parent) -> list[int]:
    """Span duration minus the part of it that its children's spans cover."""
    own = [e - s for s, e in zip(start, end)]
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0
        cur_s = cur_e = None
        for k in sorted(kids, key=lambda k: start[k]):
            s, e = max(start[k], lo), min(end[k], hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        own[p] -= covered
    return own


PER_LAYER = (
    [(f"{m}.self_s", "s/op") for m in MODULES]
    + [
        ("field.row_reduce.calls", "count/op"),
        ("field.row_reduce.total_s", "s/op"),
        ("field.row_reduce.cells", "cells/op"),
        ("field.row_reduce.max_bits", "bits"),
        ("field.matmul.calls", "count/op"),
        ("field.matmul.total_s", "s/op"),
        ("field.apply.calls", "count/op"),
        ("field.apply.total_s", "s/op"),
        ("field.solve_linear.calls", "count/op"),
        ("field.span_contains.calls", "count/op"),
        ("field.invert.calls", "count/op"),
        ("spectrum.minimal_polynomial.calls", "count/op"),
        ("spectrum.minimal_polynomial.total_s", "s/op"),
        ("spectrum.minimal_polynomial.row_reduces", "count/call"),
        ("spectrum.factor_with_hints.calls", "count/op"),
        ("spectrum.factor_with_hints.total_s", "s/op"),
        ("spectrum.rational_roots.calls", "count/op"),
        ("spectrum.rational_roots.total_s", "s/op"),
        ("jordan.similarity_transform.total_s", "s/op"),
        ("jordan.multiplicity_of.total_s", "s/op"),
        ("jordan.lift_root.total_s", "s/op"),
        ("jordan.multiplicity_of.per_op", "count/op"),
        ("equations.contains.calls", "count/op"),
        ("equations.contains.total_s", "s/op"),
        ("equations.contains.row_reduces_per_query", "count/query"),
        ("equations.solve_inhom_comm.total_s", "s/op"),
        ("equations.solve_lambda_comm.total_s", "s/op"),
        ("equations.solve_transpose_pair.total_s", "s/op"),
        ("liealg.derivation_space.total_s", "s/op"),
        ("liealg.is_derivation.total_s", "s/op"),
        ("liealg.casimir_basis.total_s", "s/op"),
        ("liealg.classify_iso.total_s", "s/op"),
        ("liealg.bracket.calls", "count/op"),
        ("liealg.check_share", "ratio"),
        ("multiplicity.projectively_equal.total_s", "s/op"),
        ("oracle.brute_solve.calls", "count/op"),
        ("oracle.brute_solve.total_s", "s/op"),
        ("oracle.brute_solve.unknowns", "count/op"),
        ("serialize.matrix_to_json.total_s", "s/op"),
        ("cli.main.total_s", "s/op"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


def layer_metrics(names, spans, n_ops: int, overhead_ratio: float,
                  scale=None) -> dict:
    """Every PER_LAYER metric, normalised per traced operation.

    ``scale[op]``, when given, converts the times of operation ``op`` to the
    reference speed that the end-to-end latencies use.
    """
    name, parent = spans["name"], spans["parent"]
    start, end, aux1, aux2 = spans["start"], spans["end"], spans["aux1"], spans["aux2"]
    factor = [scale[o] for o in spans["op"]] if scale else [1.0] * len(name)
    own = [t * k for t, k in zip(self_times(start, end, parent), factor)]
    dur = [(e - s) * k for s, e, k in zip(start, end, factor)]
    # one bit per span name; spans are recorded in start order, so a
    # parent always precedes its children
    mask = [0] * len(name)
    for i, p in enumerate(parent):
        if p >= 0:
            mask[i] = mask[p] | (1 << name[p])
    ids: dict[str, list[int]] = {}
    for i, n in enumerate(names):
        ids.setdefault(n, []).append(i)
    k = len(names)
    calls, outer_ns, self_ns = [0] * k, [0] * k, [0] * k
    for i, n in enumerate(name):
        calls[n] += 1
        self_ns[n] += own[i]
        if not (mask[i] >> n) & 1:
            outer_ns[n] += dur[i]

    def bits_of(*span_names) -> int:
        out = 0
        for sn in span_names:
            for i in ids.get(sn, ()):
                out |= 1 << i
        return out

    def count(sn) -> int:
        return sum(calls[i] for i in ids.get(sn, ()))

    def total_ns(sn) -> int:
        return sum(outer_ns[i] for i in ids.get(sn, ()))

    rr = bits_of("field.row_reduce")
    mp, cont = bits_of("spectrum.minimal_polynomial"), bits_of("equations.contains")
    brute = bits_of("oracle.brute_solve")
    liealg = bits_of(*(n for n in names if n.startswith("liealg.")))
    rr_cells = rr_bits = rr_in_mp = rr_in_cont = unknowns = liealg_ns = 0
    for i, n in enumerate(name):
        bit = 1 << n
        if bit & rr:
            rr_cells += aux1[i]
            rr_bits = max(rr_bits, aux2[i])
            rr_in_mp += bool(mask[i] & mp)
            rr_in_cont += bool(mask[i] & cont)
        elif bit & brute and not mask[i] & brute:
            unknowns += aux1[i]
        if bit & liealg and not mask[i] & liealg:
            liealg_ns += dur[i]

    ops = max(n_ops, 1)
    out = {}
    for module in MODULES:
        mod_ns = sum(self_ns[i] for i, n in enumerate(names)
                     if n.startswith(module + "."))
        out[f"{module}.self_s"] = mod_ns / 1e9 / ops
    for metric, _unit in PER_LAYER:
        if metric in out:
            continue
        fn, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = count(fn) / ops
        elif stat == "total_s":
            out[metric] = total_ns(fn) / 1e9 / ops
    checks = total_ns("liealg.is_derivation") + total_ns("liealg.is_automorphism")
    out.update({
        "field.row_reduce.cells": rr_cells / ops,
        "field.row_reduce.max_bits": rr_bits,
        "spectrum.minimal_polynomial.row_reduces":
            rr_in_mp / max(count("spectrum.minimal_polynomial"), 1),
        "jordan.multiplicity_of.per_op": count("jordan.multiplicity_of") / ops,
        "equations.contains.row_reduces_per_query":
            rr_in_cont / max(count("equations.contains"), 1),
        "liealg.check_share": checks / liealg_ns if liealg_ns else 0.0,
        "oracle.brute_solve.unknowns": unknowns / ops,
        "trace.overhead_ratio": overhead_ratio,
    })
    return {metric: out[metric] for metric, _unit in PER_LAYER}
