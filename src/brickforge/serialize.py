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
            if len(coords) != 6 or domain.chart is not charts.AMBIENT:
                raise ValueError(val)
            desc = charts.AMBIENT.with_coords(coords)
            if desc is None:
                raise ParseError(f"no curve with normal coordinates {coords}")
            return sf.flat_curve(domain, desc)
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
    boundary = [parse_curve(s, full) for s in _list(boundary_strs, "boundary")]
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
            coefficients = _list(rep["coefficients"], "coefficients")
            if not (coefficients and all(type(x) is int for x in coefficients)):
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


def _list(value, what: str) -> list:
    """A field that holds a list: an object or a string in its place
    would be read as its keys or its characters."""
    if type(value) is not list:
        raise ParseError(f"{what} {value!r} is not a list")
    return value


def parse_label(doc: dict, support: sf.EssentialSubsurface) -> bk.EndLabel:
    try:
        kind = doc["kind"]
        bid = _text(doc["brick"], "label brick")
        if kind == "geometrically-finite":
            full = sf.full_surface(support.ambient)
            conformal = tuple(
                (parse_curve(c, full), parse_frac(length), parse_frac(twist))
                for c, length, twist in _list(doc.get("conformal", []), "conformal")
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
            strs = _list(doc["curves"], "marking curves")
            curves = [parse_curve(s, support) for s in strs]
            return sf.Marking(sf.Simplex.of(support, *curves))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad marking document: {exc}") from exc
    raise ParseError(f"bad marking kind {doc.get('kind')!r}")


def _part(docs, held: tuple, build):
    """`build()`, or, given a `docs` memo, the one document that it built
    for the objects `held`, compared by identity.  The memo keeps them, so
    no id in its keys is taken by another object while it lives."""
    if docs is None:
        return build()
    key = tuple(map(id, held))
    hit = docs.get(key)
    if hit is None:
        hit = docs[key] = (build(), held)
    return hit[0]


def brick_doc(b: bk.Brick, docs=None) -> dict:
    doc = {
        "id": b.bid,
        "support": _part(docs, (b.support,), lambda: support_doc(b.support)),
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
        collars = _list(doc.get("collars", []), "collars")
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


def joint_doc(k: bk.BrickComplex, j: bk.Joint, docs=None) -> dict:
    return {
        "upper": j.upper,
        "lower": j.lower,
        "surface": _part(docs, (j.surface,), lambda: support_doc(j.surface)),
        "level": frac_str(k.brick(j.upper).lo),
    }


def parse_joint(doc: dict):
    """(joint, its stated level): the complex checks the level against
    the joint's bricks."""
    try:
        joint = bk.Joint(
            upper=doc["upper"],
            lower=doc["lower"],
            surface=parse_support(doc["surface"]),
        )
        return joint, parse_frac(doc["level"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad joint document: {exc}") from exc


def complex_doc(k: bk.BrickComplex, e: bk.LeafEmbedding, docs=None) -> dict:
    """The document of a complex and its embedding.  Without `docs` it is
    new on each call.  The documents of complexes that share parts, the
    stages of an exhaustion, are built with one `docs` memo, a dict kept
    across the calls: each brick, joint, support and complex then has one
    document, which every place that shows it holds, and which `dumps`
    encodes once.  `limits` keeps that memo and its documents for every
    later report of the stages, so no caller may edit a document built
    with `docs`."""
    return _part(docs, (k, e), lambda: _complex_doc(k, e, docs))


def _complex_doc(k, e, docs) -> dict:
    # a joint's document reads its upper brick's level, so that brick is
    # in its key
    return {
        "base": surface_str(k.base),
        "bricks": [
            _part(docs, (b,), lambda: brick_doc(b, docs)) for b in k.bricks
        ],
        "joints": [
            _part(docs, (j, k.brick(j.upper)), lambda: joint_doc(k, j, docs))
            for j in k.joints
        ],
        "embedding": {
            bid: [frac_str(a), frac_str(b)] for bid, (a, b) in e.levels
        },
    }


def parse_complex(doc: dict):
    """Returns (BrickComplex, LeafEmbedding)."""
    try:
        base = parse_surface(doc["base"])
        bricks = tuple(parse_brick(b) for b in _list(doc["bricks"], "bricks"))
        joints = [parse_joint(j) for j in _list(doc.get("joints", []), "joints")]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad complex document: {exc}") from exc
    if not bricks:
        raise ParseError("complex document has no bricks")
    ids = [b.bid for b in bricks]
    # joints and the embedding name bricks by id
    repeated = [bid for i, bid in enumerate(ids) if bid in ids[:i]]
    if repeated:
        raise ParseError(f"duplicate brick id {repeated[0]!r}")
    for b in bricks:
        if b.label is not None and b.label.brick_id != b.bid:
            raise ParseError(f"the label of brick {b.bid!r} names brick {b.label.brick_id!r}")
    k = bk.BrickComplex(base=base, bricks=bricks, joints=tuple(j for j, _ in joints))
    for j, level in joints:
        unknown = [bid for bid in (j.upper, j.lower) if bid not in ids]
        if unknown:
            raise ParseError(f"joint names an unknown brick {unknown[0]!r}")
        # a joint is where its upper brick starts and its lower brick ends
        if not k.brick(j.upper).lo == level == k.brick(j.lower).hi:
            raise ParseError(
                f"joint level {frac_str(level)} is not the front of "
                f"{j.upper!r} and {j.lower!r}"
            )
    emb_doc = doc.get("embedding")
    if emb_doc is None:
        e = bk.identity_embedding(k)
    else:
        try:
            levels = []
            for b in k.bricks:
                ab = _list(emb_doc[b.bid], f"embedding levels of {b.bid!r}")
                if len(ab) != 2:
                    raise ParseError(f"embedding levels of {b.bid!r} are not a pair")
                alpha, beta = parse_frac(ab[0]), parse_frac(ab[1])
                if not alpha < beta:
                    raise ParseError(f"embedding levels of {b.bid!r} are not increasing")
                levels.append((b.bid, (alpha, beta)))
            unknown = [bid for bid in emb_doc if bid not in ids]
            if unknown:
                raise ParseError(f"embedding names an unknown brick {unknown[0]!r}")
            e = bk.LeafEmbedding(tuple(levels))
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad embedding document: {exc}") from exc
        for j in k.joints:
            (start, _), (_, end) = e.level_of(j.upper), e.level_of(j.lower)
            if start != end:
                raise ParseError(
                    f"embedding starts {j.upper!r} at {frac_str(start)}, "
                    f"not where {j.lower!r} ends ({frac_str(end)})"
                )
    return k, e


_encode_str = json.encoder.encode_basestring


def dumps(doc: dict) -> str:
    """The canonical text of a document: what
    `json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)` writes,
    plus a newline.  `json` gives up its C encoder whenever `indent` is set,
    so this one direct encoder writes the text instead.  A document holds
    only dicts with str keys, lists, tuples, strs, ints, bools and None;
    any other value, a float or a Fraction included, raises TypeError.

    A dict that the document holds in several places is encoded once: its
    later places reuse the text of the first, indented to where they sit.
    An encoded string holds no raw newline, so each line break of that
    text is the dict's own line prefix, and swapping the prefix is exact."""
    out = []
    _encode(doc, "\n", out, {})
    out.append("\n")
    return "".join(out)


def _encode(value, newline: str, out: list, done: dict) -> None:
    """Append the text of `value`, whose nested lines start with `newline`.
    `done` maps the id of each dict encoded so far to where its text sits
    in `out` and its line prefix; the document holds every such dict until
    the call ends, so no id is taken by another object.  String leaves and
    empty lists are written by their container, without a call."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        ident = id(value)
        first = done.get(ident)
        if first is not None:
            start, stop, was = first
            text = "".join(out[start:stop])
            out.append(text if was == newline else text.replace(was, newline))
            return
        start = len(out)
        inner = newline + "  "
        sep = "{" + inner
        # a key that is not a str stops sorted() or _encode_str with TypeError
        for key in sorted(value):
            item = value[key]
            if type(item) is str:
                out.append(f"{sep}{_encode_str(key)}: {_encode_str(item)}")
            elif not item and type(item) is list:
                out.append(f"{sep}{_encode_str(key)}: []")
            else:
                out.append(f"{sep}{_encode_str(key)}: ")
                _encode(item, inner, out, done)
            sep = "," + inner
        out.append(newline + "}")
        done[ident] = (start, len(out), newline)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            if type(item) is str:
                out.append(f"{sep}{_encode_str(item)}")
            else:
                out.append(sep)
                _encode(item, inner, out, done)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
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
