"""Per-layer spans and work counts, installed from outside the library.

`install()` wraps the functions in `LAYERS` and rebinds every name a
caller looks up: each module global of a `brickforge.*` module that holds
the original function (so a `from .farey import slope_intersection` in
`surfaces` is covered), or the class attribute for a method.  Each wrapper
opens a span; a layer's self time is its span time minus the time of the
spans nested inside it.  Nothing inside `src/` is changed.

Leaf functions that run about 10^5 times per run (e.g.
`flatcurves.seg_cross`) are deliberately not wrapped: the wrapper would
cost more than the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

PACKAGE = "brickforge"

# Layer name -> (module, attribute path of the function).  A layer may
# wrap several functions; their spans are added up under one name.
LAYERS = {
    "flatcurves.flat_intersection": [("flatcurves", "flat_intersection")],
    "flatcurves.overlay": [("flatcurves", "overlay")],
    "flatcurves.FlatCurve.canonical": [("flatcurves", "FlatCurve.canonical")],
    "flatcurves.boundary_walk_classes": [("flatcurves", "boundary_walk_classes")],
    "surfaces.intersection_number": [("surfaces", "intersection_number")],
    "surfaces.are_adjacent": [("surfaces", "are_adjacent")],
    "surfaces.DistanceCertificate": [("surfaces", "DistanceCertificate.__init__")],
    "surfaces.DistanceCertificate.distance": [("surfaces", "DistanceCertificate.distance")],
    "surfaces.is_tight_sequence": [("surfaces", "is_tight_sequence")],
    "surfaces.component_domains": [("surfaces", "component_domains")],
    "hierarchy.ambient_universe": [("hierarchy", "ambient_universe")],
    "hierarchy.build_hierarchy": [("hierarchy", "build_hierarchy")],
    "hierarchy._bfs_path": [("hierarchy", "_bfs_path")],
    "hierarchy._tighten": [("hierarchy", "_tighten")],
    "blocks._main_geodesic": [("blocks", "_main_geodesic")],
    "blocks.hierarchy_crosscheck": [("blocks", "hierarchy_crosscheck")],
    "charts.AmbientFlatChart.ensure_enumerated": [
        ("charts", "AmbientFlatChart.ensure_enumerated")
    ],
    "charts.AmbientFlatChart.curve": [("charts", "AmbientFlatChart.curve")],
    "charts.AmbientFlatChart.lookup": [("charts", "AmbientFlatChart.lookup")],
    "farey.farey_geodesic_slopes": [("farey", "farey_geodesic_slopes")],
    "farey.slope_intersection": [("farey", "slope_intersection")],
    "charts.realize": [
        ("charts", "StripChart.realize"),
        ("charts", "TorusSideChart.realize"),
    ],
    "bricks.slit_at": [("bricks", "slit_at")],
    "bricks.curve_meets_slit": [("bricks", "curve_meets_slit")],
    "bricks.check_a2": [("bricks", "check_a2")],
    "bricks.check_a2_bruteforce": [("bricks", "check_a2_bruteforce")],
    "bricks.boundary_components": [("bricks", "boundary_components")],
    "blocks.decompose": [("blocks", "decompose")],
    "blocks.verify_decomposition": [("blocks", "verify_decomposition")],
    "limits.exhaust": [("limits", "exhaust")],
    "limits._find_obstructors": [("limits", "_find_obstructors")],
    "limits.verify_theorem_a": [("limits", "verify_theorem_a")],
    "metrics.metric_report": [("metrics", "metric_report")],
    "serialize.loads": [("serialize", "loads")],
    "serialize.parse_complex": [("serialize", "parse_complex")],
    "serialize.complex_doc": [("serialize", "complex_doc")],
    "serialize.dumps": [("serialize", "dumps")],
    "cli.run": [("cli", "run")],
}


COLD, WARM, C4 = ("c5-cold",), ("c5-warm",), ("c4-stream",)
C5 = COLD + WARM
ALL = C5 + C4

# What the traced run reports for each layer: the stats; the workloads on
# which the layer must record calls (it does on each at the defining
# commit); and the end-to-end metrics it should move.  `builds` is the
# call count of a constructor.
PER_LAYER = [
    ("flatcurves.flat_intersection", ("calls", "self_s", "distinct_pairs", "repeat_ratio"),
     C5, "cpu_s_per_job, jobs_per_s on c5-cold and c5-warm; none on c4-stream"),
    ("flatcurves.overlay", ("calls", "self_s"), C5, "as flat_intersection"),
    ("flatcurves.FlatCurve.canonical", ("calls", "self_s"), C5, "as flat_intersection"),
    ("flatcurves.boundary_walk_classes", ("calls", "self_s"), WARM, "as flat_intersection"),
    ("surfaces.intersection_number", ("calls", "self_s"), C5, "as flat_intersection"),
    ("surfaces.are_adjacent", ("calls",), WARM, "as flat_intersection"),
    ("surfaces.DistanceCertificate", ("builds",), C5, "as flat_intersection"),
    ("surfaces.DistanceCertificate.distance", ("calls", "self_s"), WARM, "as flat_intersection"),
    ("surfaces.is_tight_sequence", ("calls", "self_s"), C5, "as flat_intersection"),
    ("surfaces.component_domains", ("calls", "self_s"), C5, "as flat_intersection"),
    ("hierarchy.ambient_universe", ("calls", "self_s"), C5, "jobs_per_s on c5-warm"),
    ("hierarchy.build_hierarchy", ("calls", "self_s"), WARM, "jobs_per_s on c5-warm"),
    ("hierarchy._bfs_path", ("calls", "self_s"), C5, "jobs_per_s on c5-warm"),
    ("hierarchy._tighten", ("calls", "self_s"), C5, "jobs_per_s on c5-warm"),
    ("blocks._main_geodesic", ("calls", "self_s"), C5, "jobs_per_s on c5-warm"),
    ("blocks.hierarchy_crosscheck", ("self_s",), WARM, "jobs_per_s on c5-warm"),
    ("charts.AmbientFlatChart.ensure_enumerated", ("self_s",), C5,
     "cpu_s_per_job on c5-cold (paid once per process), setup_s if moved to import"),
    ("charts.AmbientFlatChart.curve", ("calls", "self_s"), C5, "as ensure_enumerated"),
    ("charts.AmbientFlatChart.lookup", ("calls", "self_s"), WARM, "as ensure_enumerated"),
    ("farey.farey_geodesic_slopes", ("calls", "self_s"), C4, "jobs_per_s, cpu_s_per_job on c4-stream"),
    ("farey.slope_intersection", ("calls", "self_s"), C4, "jobs_per_s, cpu_s_per_job on c4-stream"),
    ("charts.realize", ("calls", "self_s"), C5, "jobs_per_s on c5-warm"),
    ("bricks.slit_at", ("calls", "self_s"), ALL, "jobs_per_s on c4-stream"),
    ("bricks.curve_meets_slit", ("calls", "self_s"), WARM + C4, "jobs_per_s on c4-stream"),
    ("bricks.check_a2", ("self_s",), ALL, "jobs_per_s on c4-stream"),
    ("bricks.check_a2_bruteforce", ("self_s",), ALL, "jobs_per_s on c4-stream"),
    ("bricks.boundary_components", ("calls", "self_s"), ALL, "jobs_per_s on c4-stream"),
    ("blocks.decompose", ("calls", "self_s", "rounds", "tubes_placed"), ALL,
     "cpu_s_per_job, jobs_per_s on all three"),
    ("blocks.verify_decomposition", ("self_s",), ALL, "cpu_s_per_job, jobs_per_s on all three"),
    ("limits.exhaust", ("self_s", "stages"), ALL, "jobs_per_s on c4-stream and c5-cold"),
    ("limits._find_obstructors", ("calls", "self_s", "obstructors"), ALL,
     "jobs_per_s on c4-stream and c5-cold"),
    ("limits.verify_theorem_a", ("self_s",), ALL, "jobs_per_s on c4-stream and c5-cold"),
    ("metrics.metric_report", ("self_s",), C4, "cpu_s_per_job on c4-stream"),
    ("serialize.loads", ("self_s",), ALL, "cpu_s_per_job on c4-stream and c5-warm"),
    ("serialize.parse_complex", ("self_s",), ALL, "cpu_s_per_job on c4-stream and c5-warm"),
    ("serialize.complex_doc", ("self_s",), ALL, "cpu_s_per_job on c4-stream and c5-warm"),
    ("serialize.dumps", ("self_s",), ALL, "cpu_s_per_job on c4-stream and c5-warm"),
    ("cli.run", ("self_s",), ALL, "cpu_s_per_job on c4-stream"),
]
UNITS = {"self_s": "s", "repeat_ratio": "ratio"}


def _count_result(layer, result):
    """Work counts read off a layer's return value."""
    if layer == "blocks.decompose":
        return {"rounds": result.rounds_used, "tubes_placed": len(result.placed)}
    if layer == "limits.exhaust":
        return {"stages": len(result)}
    if layer == "limits._find_obstructors":
        return {"obstructors": len(result[0])}
    return {}


class Tracer:
    """Span and count accumulator for one worker process."""

    def __init__(self):
        self.calls = {name: 0 for name in LAYERS}
        self.self_s = {name: 0.0 for name in LAYERS}
        self.counts = {}
        self.bindings = {name: 0 for name in LAYERS}
        self.missing = []
        self._pairs = set()
        self._child = [0.0]  # time covered by nested spans, per open span
        self._canonical = None

    # -- installation -----------------------------------------------------

    def install(self):
        found = []
        for layer, targets in LAYERS.items():
            for modname, path in targets:
                try:
                    owner = importlib.import_module(f"{PACKAGE}.{modname}")
                    *parents, attr = path.split(".")
                    for part in parents:
                        owner = getattr(owner, part)
                    found.append((layer, owner, attr, owner.__dict__[attr]))
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(f"{modname}.{path}")
        for layer, _, _, orig in found:
            if layer == "flatcurves.FlatCurve.canonical":
                self._canonical = orig
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, owner, attr, orig in found:
            wrapped = self._wrap(layer, orig)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                self.bindings[layer] += 1
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, wrapped)
                        self.bindings[layer] += 1

    def _wrap(self, layer, fn):
        child = self._child
        calls, self_s = self.calls, self.self_s
        pair_key = layer == "flatcurves.flat_intersection" and self._canonical is not None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if pair_key:
                self._record_pair(args)
            t0 = perf_counter()
            child.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                inner = child.pop()
                dt = perf_counter() - t0
                calls[layer] += 1
                self_s[layer] += dt - inner
                child[-1] += dt
            for key, n in _count_result(layer, result).items():
                name = f"{layer}.{key}"
                self.counts[name] = self.counts.get(name, 0) + n
            return result

        return span

    def _record_pair(self, args):
        """Add the unordered class pair of a flat_intersection call.

        Uses the unwrapped `canonical`, and charges its time to no span:
        it is tracer overhead, not work of any layer."""
        t0 = perf_counter()
        a, b = self._canonical(args[0]), self._canonical(args[1])
        self._pairs.add((a, b) if a <= b else (b, a))
        self._child[-1] += perf_counter() - t0

    # -- reporting ----------------------------------------------------------

    def snapshot(self) -> dict:
        counts = dict(self.counts)
        counts["flatcurves.flat_intersection.distinct_pairs"] = len(self._pairs)
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": counts,
            "bindings": dict(self.bindings),
            "missing": list(self.missing),
        }
