"""Span tracing around the library's public functions, from outside.

``installed`` replaces every module-level binding of each traced function
with a wrapper that records a span, and puts the originals back on exit.
Rebinding every name matters because modules import one another's
functions by name (``oracle`` binds ``torus.moment_eval`` as its own
``moment_eval``); each call is then charged to the layer of the function
called, whichever module called it.  Nothing is wrapped outside the
``with`` block, so untraced runs execute the library unchanged.

Spans hold a name, start, end, parent span and op id.  They stay in
compact arrays in memory and are summarized, or written out, at the end.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Iterator

# The public functions traced, per layer (module of moment_fiber).
TRACED = {
    "exactlin": ["rank_rows", "rank", "kernel_basis", "solve"],
    "polytope": ["zero_in_hull", "zero_in_relative_interior"],
    "torus": [
        "split_indices", "components", "is_stable", "visible_decomposition",
        "cartan_subspace", "nonvisible_closed_witness", "reduction_support",
        "smooth_witness", "moment_eval", "stabilizer_dim",
        "pair_semisimple_certificate", "classify_element",
    ],
    "oracle": [
        "brute_components", "brute_visible", "check_decomposition",
        "brute_zero_in_hull", "brute_zero_in_relative_interior", "tangent_dim",
    ],
    "theta": ["levi_order_scan", "graded_dims", "build_root_system"],
    "cli": ["analyze", "run_selftest", "cmd_kac"],
}
PACKAGE = "moment_fiber"


class Tracer:
    """Records nested spans.  Single-threaded: one open-span stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = -1

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        names, parents, ops = self.name, self.parent, self.op
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``.

        Self time is a span's duration minus the durations of its direct
        children; calls nest strictly, so children never overlap.
        """
        count = len(self)
        child = [0.0] * count
        dur = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names}
        for i in range(count):
            agg = out[self.names[self.name[i]]]
            agg["calls"] += 1
            agg["total_s"] += dur[i]
            agg["self_s"] += dur[i] - child[i]
        return out

    def calls_under(self, ancestor: str) -> dict[str, int]:
        """Calls per span name made (at any depth) inside ``ancestor`` spans."""
        if ancestor not in self._name_ids:
            return {}
        aid = self._name_ids[ancestor]
        inside = array("b", bytes(len(self)))
        counts: dict[str, int] = {}
        for i, p in enumerate(self.parent):
            # A parent is always recorded before its children.
            if p >= 0 and (inside[p] or self.name[p] == aid):
                inside[i] = 1
                key = self.names[self.name[i]]
                counts[key] = counts.get(key, 0) + 1
        return counts

    def write(self, path, meta: dict) -> None:
        """Write every span, column-wise, as gzip-compressed JSON."""
        doc = {
            "meta": meta,
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "op"],
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _package_modules() -> list:
    return [
        mod
        for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


@contextmanager
def installed(tracer: Tracer, modules: dict) -> Iterator[Tracer]:
    """Trace every function in ``TRACED`` while the block runs.

    ``modules`` maps a layer name to its imported module.  A function a
    layer no longer has is skipped; its metrics then read zero.
    """
    wrappers = {}
    for layer, names in TRACED.items():
        for name in names:
            fn = getattr(modules[layer], name, None)
            if callable(fn):
                wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))
    patched = []
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, value))
    try:
        yield tracer
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)
