"""Per-layer tracing installed from outside the library.

``Tracer.install`` wraps the public functions of each layer in span
recorders and rebinds every name a caller resolves: the defining module,
every package module that imported the function by name, and the package
``__init__``.  Methods of ``LatticePolygon`` and ``AffineLattice2.contains``
are patched on the class, so every caller sees them.  ``uninstall`` puts
the originals back.  A function that later moves to another package module
is still found by name; one the package no longer has is listed in
``Tracer.missing`` and reports zero.

A span is ``(name, start, end, parent, op)``.  A span's self time is its
duration minus the time its child spans cover.  Spans stay in memory and
are written out once, at the end of the run.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from pathlib import Path

from severi_lattice import cli, corpus, intmat, lattices, polygons, severi, verify

# layer -> public functions timed as spans
FUNCTIONS = {
    "intmat": ("snf", "hsnf", "invariant_factors", "hsnf_form", "minor_gcd"),
    "lattices": ("affine_span", "intermediate_lattices", "rotate90"),
    "polygons": ("brute_force_width",),
    "severi": (
        "build_profile",
        "enumerate_components",
        "count_components",
        "count_components_oracle",
        "analyze",
        "component_signature",
        "width_one_by_rank",
    ),
    "corpus": ("enumerate_corpus", "random_polygon"),
    "verify": ("run_verification", "perturb_homogeneous"),
    "cli": ("main",),
}
# LatticePolygon methods timed as spans, reported under the polygons layer
POLYGON_METHODS = (
    "interior_points",
    "interior_points_in",
    "lattice_width",
    "classify_interior_empty",
    "verify_pick",
)
LAYER_MODULES = {
    "intmat": intmat,
    "lattices": lattices,
    "polygons": polygons,
    "severi": severi,
    "corpus": corpus,
    "verify": verify,
    "cli": cli,
}

SPAN_NAMES = (
    [f"{layer}.{fn}" for layer, fns in FUNCTIONS.items() for fn in fns]
    + ["polygons.construct"]
    + [f"polygons.{m}" for m in POLYGON_METHODS]
)


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "severi_lattice" or name.startswith("severi_lattice."))
    ]


def _find_function(layer: str, name: str):
    """The function a layer exports under ``name``, or one that moved to another
    package module under the same name; None if the package no longer has it."""
    fn = getattr(LAYER_MODULES[layer], name, None)
    if fn is not None:
        return fn
    for mod in _package_modules():
        cand = vars(mod).get(name)
        if callable(cand) and getattr(cand, "__module__", "").startswith("severi_lattice"):
            return cand
    return None


class Tracer:
    """Span recorder for one traced run; holds every span in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.op = -1  # current op id; -1 during set-up
        self._stack: list[int] = []
        self._contains = [0]
        self._points = [0]
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, points: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tally = self._points

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if points:
                tally[0] += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn):
        tally = self._contains

        def wrapper(*args, **kwargs):
            tally[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, replacement) -> None:
        for mod in _package_modules():
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, key, replacement)

    # -- public -------------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for layer, names in FUNCTIONS.items():
            for name in names:
                fn = _find_function(layer, name)
                if fn is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                self._rebind_everywhere(fn, self._span(f"{layer}.{name}", fn))
        poly_cls = polygons.LatticePolygon
        self._set(poly_cls, "__init__", self._span("polygons.construct", poly_cls.__init__))
        for method in POLYGON_METHODS:
            fn = vars(poly_cls).get(method)
            if fn is None:
                self.missing.append(f"polygons.{method}")
                continue
            self._set(
                poly_cls, method,
                self._span(f"polygons.{method}", fn, points=method == "interior_points"),
            )
        lat_cls = lattices.AffineLattice2
        self._set(lat_cls, "contains", self._counted(lat_cls.contains))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self) -> dict[str, float]:
        """``<span>.calls`` and ``<span>.self_s`` for every span name, plus counts."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["lattices.contains.calls"] = self._contains[0]
        out["polygons.interior_points.points"] = self._points[0]
        return out

    def write_spans(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "op": op,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
