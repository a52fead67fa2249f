"""Metric descriptors on blocks and tubes.

Blocks carry a fixed product-like metric: unit distance between fronts
and boundary annuli isometric to S^1(eps1) x [0,1].  Each torus-interface
tube gets a meridian coefficient omega = t + i*h read off the tiling of
its boundary torus by unit annuli, and the tube filtration M[k] keeps
the tubes with |omega| >= k.  All comparisons are exact: |omega| is never
extracted, only |omega|^2 compared with k^2.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import blocks as bl
from . import bricks as bk
from . import serialize as sz
from . import surfaces as sf
from .errors import NotTorusInterface
from .records import record

# eps1 stands for a positive constant below the three-dimensional
# Margulis constant; lengths are stored as multiples of it.
EPS1 = Fraction(1, 10)

TWIST_CONVENTION = "right-handed twisting counts positive"
TUBE_FORMULA_NOTE = "own closed form: core length 2*pi*eps1/|omega|^2"


@record
class MeridianCoefficient:
    tube: str
    re: int
    im: int

    def __post_init__(self):
        if self.im < 1:
            raise ValueError("meridian coefficient needs positive height")

    def abs2(self) -> int:
        return self.re * self.re + self.im * self.im


@record
class Filtration:
    tubes: tuple  # tube ids with |omega| >= k
    released: tuple  # tube ids of 𝒱[0] minus 𝒱[k], reattached to M[k]


@record
class TubeMetricDescriptor:
    tube: str
    core_length_eps1_pi: Fraction  # core length = this * pi * eps1
    radius: float

    def core_length(self) -> float:
        return float(self.core_length_eps1_pi) * math.pi * float(EPS1)


# ---------------------------------------------------------------------------
# meridian coefficients


def _annulus_incidence(core: sf.Curve, y) -> int:
    """Number of vertical boundary annuli a block over domain y
    contributes to the tube around the core."""
    if y.kind == "full":
        return 2
    if y.kind == "annulus":
        return 0
    if bk.curve_in_domain(y, core):
        return 2
    if any(b == core for b in y.boundary):
        sides = sf.proper_pieces(sf.full_surface(y.ambient), core)
        return 2 if len(sides) == 1 else 1
    return 0


def _overlaps(a, b) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def boundary_torus_geometry(
    v: bl.Tube, d: bl.BlockDecomposition
) -> MeridianCoefficient:
    """Meridian coefficient of a torus-interface tube: the height counts
    the unit annuli tiling the boundary torus, the twist the annulus
    geodesic attached to the core."""
    if v.interface != "torus":
        raise NotTorusInterface(f"tube {v.tid} meets the blocks in an annulus")
    annuli = 0
    for block in d.blocks:
        if not _overlaps(block.interval, v.band):
            continue
        annuli += _annulus_incidence(v.core, block.support)
    return MeridianCoefficient(tube=v.tid, re=v.twist, im=annuli // 2 + 1)


# ---------------------------------------------------------------------------
# filtration


def _coefficients(d: bl.BlockDecomposition) -> tuple:
    """(tube id, meridian coefficient) for each torus tube, in order."""
    torus = [t for t in d.tubes if t.interface == "torus"]
    return tuple((t.tid, boundary_torus_geometry(t, d)) for t in torus)


def _split(coefficients, k: int) -> Filtration:
    """The filtration at level k of a table of meridian coefficients."""
    if k < 0:
        raise ValueError("filtration level must be non-negative")
    kept = tuple(tid for tid, omega in coefficients if omega.abs2() >= k * k)
    released = tuple(tid for tid, _ in coefficients if tid not in kept)
    return Filtration(tubes=kept, released=released)


def filtration(d: bl.BlockDecomposition, k: int) -> Filtration:
    return _split(_coefficients(d), k)


# ---------------------------------------------------------------------------
# tube metrics


def tube_metric(omega: MeridianCoefficient) -> TubeMetricDescriptor:
    """Hyperbolic tube data matching the Euclidean boundary torus."""
    abs2 = omega.abs2()
    core = Fraction(2, abs2)
    # radius from the standard tube area pi * core_length * sinh(2r),
    # matched against the boundary torus area eps1^2 * im(omega)
    sinh2r = float(EPS1) * omega.im * abs2 / (2 * math.pi**2)
    radius = math.asinh(sinh2r) / 2
    return TubeMetricDescriptor(
        tube=omega.tube, core_length_eps1_pi=core, radius=radius
    )


# ---------------------------------------------------------------------------
# report


def metric_report(d: bl.BlockDecomposition, ks=(0,)) -> dict:
    """Per-block descriptors, exact meridian coefficients, and filtration
    membership tables for the requested levels."""
    doc = {
        "convention": TWIST_CONVENTION,
        "tube-formula": TUBE_FORMULA_NOTE,
        "eps1": sz.frac_str(EPS1),
        "blocks": [
            {
                "id": b.blid,
                "type": b.btype,
                "front-distance": 1,
                "boundary-annulus": "S1(eps1)x[0,1]",
            }
            for b in d.blocks
        ],
        "tubes": [],
        "filtrations": {},
    }
    coefficients = _coefficients(d)
    for tid, omega in coefficients:
        metric = tube_metric(omega)
        doc["tubes"].append(
            {
                "id": tid,
                "re": omega.re,
                "im": omega.im,
                "abs2": omega.abs2(),
                "core-length-eps1-pi": sz.frac_str(metric.core_length_eps1_pi),
            }
        )
    for k in ks:
        f = _split(coefficients, k)
        doc["filtrations"][str(k)] = {
            "kept": list(f.tubes),
            "released": list(f.released),
        }
    return doc
