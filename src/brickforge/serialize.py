"""Canonical JSON document format for brick complexes and scenarios.

Conventions: sorted keys, exact rationals as "num/den" strings, curves as
"F:p/q" (slope coordinates), "N:[e1,...]" (normal coordinates on the
twice-punctured torus) or "A:t" (arc twist on an annulus).
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import bricks as bk
from . import charts
from . import surfaces as sf
from .config import get_budget
from .errors import DomainError, ParseError


def frac_str(x) -> str:
    f = x if type(x) is Fraction else Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_frac(s: str) -> Fraction:
    if not isinstance(s, str):
        raise ParseError(f"bad rational {s!r}")
    try:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}") from exc


# ---------------------------------------------------------------------------
# surfaces and curves


def surface_str(s: sf.Surface) -> str:
    return f"{s.genus},{s.punctures}"


def parse_surface(s: str) -> sf.Surface:
    if not isinstance(s, str):
        raise ParseError(f"bad surface {s!r}")
    try:
        g, p = (int(x) for x in s.split(","))
        return sf.Surface(g, p)
    except ValueError as exc:
        raise ParseError(f"bad surface {s!r}") from exc


def curve_str(c: sf.Curve) -> str:
    kind, val = c.key()
    if kind == "F":
        return f"F:{val}"
    if kind == "A":
        return f"A:{val}"
    coords = c.flat().normal_coords()
    return "N:[" + ",".join(str(x) for x in coords) + "]"


def _normal_curve_from_coords(domain, coords):
    budget = get_budget()
    # each enumeration holds the one before it: test each description once
    seen = set()
    for radius in (1, 2, 3):
        for desc in charts.AMBIENT.descs(radius):
            if desc in seen:
                continue
            seen.add(desc)
            if len(seen) > budget:
                raise ParseError(
                    "normal-coordinate lookup exceeded the enumeration budget"
                )
            if charts.AMBIENT.curve(desc).normal_coords() == coords:
                return sf.flat_curve(domain, desc)
    raise ParseError(f"no curve with normal coordinates {coords}")


def parse_curve(s: str, domain: sf.EssentialSubsurface) -> sf.Curve:
    if not isinstance(s, str):
        raise ParseError(f"bad curve {s!r}")
    try:
        kind, _, val = s.partition(":")
        if kind == "F":
            p, q = val.split("/")
            return sf.slope_curve(domain, int(p), int(q))
        if kind == "A":
            return sf.arc_curve(domain, int(val))
        if kind == "N":
            if not (val.startswith("[") and val.endswith("]")):
                raise ValueError(val)
            coords = tuple(int(x) for x in val[1:-1].split(","))
            if len(coords) != 6:
                raise ValueError(val)
            return _normal_curve_from_coords(domain, coords)
    except (ValueError, TypeError, DomainError) as exc:
        raise ParseError(f"bad curve {s!r}") from exc
    raise ParseError(f"bad curve {s!r}")


# ---------------------------------------------------------------------------
# subsurfaces


def support_doc(y: sf.EssentialSubsurface) -> dict:
    return {
        "base": surface_str(y.ambient),
        "kind": y.kind,
        "token": y.token,
        "boundary": [curve_str(c) for c in y.boundary],
    }


def parse_support(doc: dict) -> sf.EssentialSubsurface:
    try:
        base = parse_surface(doc["base"])
        kind = doc["kind"]
        token = doc["token"]
        boundary_strs = doc["boundary"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad support document: {exc}") from exc
    full = sf.full_surface(base)
    if kind == "full":
        if token != full.token:
            raise ParseError(f"unknown full-support token {token!r}")
        return full
    boundary = [parse_curve(s, full) for s in boundary_strs]
    if not boundary:
        raise ParseError("proper support without boundary curves")
    if kind == "annulus":
        return sf._annulus_domain(full, boundary[0])
    for y in sf.component_domains(full, sf.Simplex(full, boundary)):
        if y.token == token:
            return y
    raise ParseError(f"support token {token!r} does not match its boundary")


# ---------------------------------------------------------------------------
# labels


def _lamination_doc(lam: sf.LaminationDescriptor) -> dict:
    if isinstance(lam.rep, sf.IrrationalSlope):
        rep = {"kind": "continued-fraction", "coefficients": list(lam.rep.coefficients)}
    elif isinstance(lam.rep, sf.SymbolicFilling):
        rep = {"kind": "symbolic", "label": lam.rep.label}
    else:
        raise ParseError(f"unknown lamination representative {lam.rep!r}")
    return {"domain": support_doc(lam.domain), "rep": rep}


def _parse_lamination(doc: dict) -> sf.LaminationDescriptor:
    try:
        domain = parse_support(doc["domain"])
        rep = doc["rep"]
        if rep["kind"] == "continued-fraction":
            coefficients = rep["coefficients"]
            if not (
                type(coefficients) is list
                and coefficients
                and all(type(x) is int for x in coefficients)
            ):
                raise ParseError(f"bad continued-fraction coefficients {coefficients!r}")
            return sf.LaminationDescriptor(domain, sf.IrrationalSlope(tuple(coefficients)))
        if rep["kind"] == "symbolic":
            label = _text(rep["label"], "symbolic lamination label")
            return sf.LaminationDescriptor(domain, sf.SymbolicFilling(label))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad lamination document: {exc}") from exc
    raise ParseError(f"bad lamination kind {rep.get('kind')!r}")


def label_doc(label: bk.EndLabel) -> dict:
    doc = {"brick": label.brick_id, "kind": label.kind}
    if label.kind == "geometrically-finite":
        doc["conformal"] = [
            [curve_str(c), frac_str(length), frac_str(twist)]
            for c, length, twist in (label.conformal or ())
        ]
    else:
        doc["lamination"] = _lamination_doc(label.lamination)
    return doc


def _text(value, what: str) -> str:
    """A field that names a brick or a curve tag: anything but a string
    would reach a set, or the output, as is."""
    if not isinstance(value, str):
        raise ParseError(f"{what} {value!r} is not a string")
    return value


def parse_label(doc: dict, support: sf.EssentialSubsurface) -> bk.EndLabel:
    try:
        kind = doc["kind"]
        bid = _text(doc["brick"], "label brick")
        if kind == "geometrically-finite":
            full = sf.full_surface(support.ambient)
            conformal = tuple(
                (parse_curve(c, full), parse_frac(length), parse_frac(twist))
                for c, length, twist in doc.get("conformal", [])
            )
            return bk.EndLabel(bid, kind, conformal=conformal)
        if kind == "simply-degenerate":
            return bk.EndLabel(bid, kind, lamination=_parse_lamination(doc["lamination"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad label document: {exc}") from exc
    raise ParseError(f"bad label kind {kind!r}")


# ---------------------------------------------------------------------------
# bricks, joints, complexes


def _marking_doc(mk) -> dict:
    if isinstance(mk, sf.LaminationDescriptor):
        return {"kind": "lamination", "value": _lamination_doc(mk)}
    return {
        "kind": "marking",
        "curves": [curve_str(c) for c in mk.base.curves],
    }


def _parse_marking(doc: dict, support: sf.EssentialSubsurface):
    try:
        if doc["kind"] == "lamination":
            return _parse_lamination(doc["value"])
        if doc["kind"] == "marking":
            curves = [parse_curve(s, support) for s in doc["curves"]]
            return sf.Marking(sf.Simplex.of(support, *curves))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad marking document: {exc}") from exc
    raise ParseError(f"bad marking kind {doc.get('kind')!r}")


def brick_doc(b: bk.Brick) -> dict:
    doc = {
        "id": b.bid,
        "support": support_doc(b.support),
        "kind": b.kind,
        "lo": frac_str(b.lo),
        "hi": frac_str(b.hi),
        "collars": sorted(b.collars),
    }
    if b.label is not None:
        doc["label"] = label_doc(b.label)
    if b.initial is not None:
        doc["initial"] = _marking_doc(b.initial)
    if b.terminal is not None:
        doc["terminal"] = _marking_doc(b.terminal)
    return doc


def parse_brick(doc: dict) -> bk.Brick:
    try:
        support = parse_support(doc["support"])
        label = None
        if doc.get("label") is not None:
            label = parse_label(doc["label"], support)
        initial = terminal = None
        if doc.get("initial") is not None:
            initial = _parse_marking(doc["initial"], support)
        if doc.get("terminal") is not None:
            terminal = _parse_marking(doc["terminal"], support)
        collars = doc.get("collars", [])
        if type(collars) is not list:
            raise ParseError(f"collars {collars!r} are not a list")
        return bk.Brick(
            bid=_text(doc["id"], "brick id"),
            support=support,
            kind=doc["kind"],
            lo=parse_frac(doc["lo"]),
            hi=parse_frac(doc["hi"]),
            collars=tuple(_text(tag, "collar") for tag in collars),
            label=label,
            initial=initial,
            terminal=terminal,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad brick document: {exc}") from exc


def joint_doc(j: bk.Joint) -> dict:
    return {
        "upper": j.upper,
        "lower": j.lower,
        "surface": support_doc(j.surface),
        "level": frac_str(j.level),
    }


def parse_joint(doc: dict) -> bk.Joint:
    try:
        return bk.Joint(
            upper=doc["upper"],
            lower=doc["lower"],
            surface=parse_support(doc["surface"]),
            level=parse_frac(doc["level"]),
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad joint document: {exc}") from exc


def complex_doc(k: bk.BrickComplex, e: bk.LeafEmbedding) -> dict:
    return {
        "base": surface_str(k.base),
        "bricks": [brick_doc(b) for b in k.bricks],
        "joints": [joint_doc(j) for j in k.joints],
        "embedding": {
            bid: [frac_str(a), frac_str(b)] for bid, (a, b) in e.levels
        },
    }


def parse_complex(doc: dict):
    """Returns (BrickComplex, LeafEmbedding)."""
    try:
        base = parse_surface(doc["base"])
        bricks = tuple(parse_brick(b) for b in doc["bricks"])
        joints = tuple(parse_joint(j) for j in doc.get("joints", ()))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad complex document: {exc}") from exc
    if not bricks:
        raise ParseError("complex document has no bricks")
    ids = [b.bid for b in bricks]
    # joints and the embedding name bricks by id
    repeated = [bid for i, bid in enumerate(ids) if bid in ids[:i]]
    if repeated:
        raise ParseError(f"duplicate brick id {repeated[0]!r}")
    unknown = [bid for j in joints for bid in (j.upper, j.lower) if bid not in ids]
    if unknown:
        raise ParseError(f"joint names an unknown brick {unknown[0]!r}")
    k = bk.BrickComplex(base=base, bricks=bricks, joints=joints)
    emb_doc = doc.get("embedding")
    if emb_doc is None:
        e = bk.identity_embedding(k)
    else:
        try:
            levels = []
            for b in k.bricks:
                ab = emb_doc[b.bid]
                if type(ab) is not list or len(ab) != 2:
                    raise ParseError(f"embedding levels of {b.bid!r} are not a pair")
                alpha, beta = parse_frac(ab[0]), parse_frac(ab[1])
                if not alpha < beta:
                    raise ParseError(f"embedding levels of {b.bid!r} are not increasing")
                levels.append((b.bid, (alpha, beta)))
            e = bk.LeafEmbedding(tuple(levels))
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad embedding document: {exc}") from exc
    return k, e


_encode_str = json.encoder.encode_basestring


def dumps(doc: dict) -> str:
    """The canonical text of a document: what
    `json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)` writes,
    plus a newline.  `json` gives up its C encoder whenever `indent` is set,
    so this one direct encoder writes the text instead.  A document holds
    only dicts with str keys, lists, tuples, strs, ints, bools and None;
    any other value, a float or a Fraction included, raises TypeError."""
    out = []
    _encode(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _encode(value, newline: str, out: list) -> None:
    """Append the text of `value`, whose nested lines start with `newline`."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"document key {key!r} is not a str")
            out.append(sep + _encode_str(key) + ": ")
            _encode(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _encode(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(
            f"a document holds no {type(value).__name__} value: {value!r}"
        )


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object")
    return doc
