import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brickforge import blocks as bl
from brickforge import bricks as bk
from brickforge import cli
from brickforge import limits as lm
from brickforge import serialize as sz
from brickforge import surfaces as sf
from brickforge.records import replace

F = Fraction


def write_model(tmp_path, name, k, e=None):
    path = tmp_path / name
    if e is None:
        e = bk.identity_embedding(k)
    path.write_text(sz.dumps(sz.complex_doc(k, e)))
    return str(path)


def kt_path(tmp_path):
    m, e = lm.generate(lm.Scenario("kerckhoff-thurston", sf.TORUS_1_1))
    return write_model(tmp_path, "kt.brick", m.complex, e)


def single_complex(p2=5, q2=3):
    full = sf.full_surface(sf.TORUS_1_1)

    def mk(p, q):
        return sf.Marking(sf.Simplex.of(full, sf.slope_curve(full, p, q)))

    b = bk.Brick(
        "b0", full, "closed", F(0), F(1), initial=mk(0, 1), terminal=mk(p2, q2)
    )
    return bk.BrickComplex(sf.TORUS_1_1, (b,), ())


def single_path(tmp_path, p2=5, q2=3):
    return write_model(tmp_path, "single.brick", single_complex(p2, q2))


def bad_el_path(tmp_path):
    m, e = lm.generate(lm.Scenario("brock", sf.TORUS_1_2))
    h0 = m.complex.brick("h0")
    bricks = tuple(
        replace(
            b,
            label=bk.EndLabel(
                "h1", "simply-degenerate", lamination=h0.label.lamination
            ),
        )
        if b.bid == "h1"
        else b
        for b in m.complex.bricks
    )
    k = bk.BrickComplex(m.complex.base, bricks, m.complex.joints)
    return write_model(tmp_path, "bad-el.brick", k, e)


def brock_path(tmp_path):
    m, e = lm.generate(lm.Scenario("brock", sf.TORUS_1_2))
    return write_model(tmp_path, "brock.brick", m.complex, e)


def no_bricks_path(tmp_path):
    path = tmp_path / "no-bricks.json"
    path.write_text(json.dumps({"base": "1,1", "bricks": []}))
    return str(path)


def duplicate_brick_path(tmp_path):
    """A kt12 document with a second copy of its last brick."""
    m, e = lm.generate(lm.Scenario("kerckhoff-thurston", sf.TORUS_1_2))
    with open(write_model(tmp_path, "kt12.brick", m.complex, e)) as handle:
        doc = json.load(handle)
    doc["bricks"].append(doc["bricks"][-1])
    path = tmp_path / "duplicate-brick.json"
    path.write_text(json.dumps(doc))
    return str(path)


def malformed(name, source, keys, value):
    """Maker of the document of `source` with the entry at `keys` set to
    `value`; `name` is the maker's test id and file name."""

    def make(tmp_path):
        with open(source(tmp_path)) as handle:
            doc = json.load(handle)
        *parents, last = keys
        entry = doc
        for key in parents:
            entry = entry[key]
        entry[last] = value
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    make.__name__ = name
    return make


# the separating curve of the brock model: brick p's support boundary
SIGMA = sz.curve_str(sf.slot_class(sf.full_surface(sf.TORUS_1_2), (0, 0), (1, 0)))
BAD_JOINT_LEVEL = malformed("bad_joint_level", brock_path, ("joints", 0, "level"), "1/3")
H0_OVERLAPPED = malformed("h0_overlapped", brock_path, ("embedding", "h0"), ["2/5", "7/10"])


def overlapping_path(name, support1, support2):
    """Maker of a T(1,2) document of two bricks over [0, 1/2] and
    [1/4, 3/4]; a support is "full" or the strip cut off by the line
    curve "v0" (slope 0/1) or "h" (slope 1/0)."""
    full = sf.full_surface(sf.TORUS_1_2)
    lines = {"v0": (0, 1), "h": (1, 0)}

    def support(name):
        if name == "full":
            return full
        cut = sf.Simplex.of(full, sf.line_class(full, *lines[name], 0))
        return next(y for y in sf.component_domains(full, cut) if y.kind == "proper")

    def make(tmp_path):
        b1 = bk.Brick("b1", support(support1), "closed", F(0), F(1, 2))
        b2 = bk.Brick("b2", support(support2), "closed", F(1, 4), F(3, 4))
        return write_model(tmp_path, f"{name}.json", bk.BrickComplex(sf.TORUS_1_2, (b1, b2), ()))

    make.__name__ = name
    return make
reversed_levels_path = malformed(
    "reversed_levels_path", single_path, ("embedding", "b0"), ["1/1", "0/1"]
)
MALFORMED = [
    no_bricks_path,
    reversed_levels_path,
    malformed("int_base", single_path, ("base",), 11),
    malformed("int_brick_level", single_path, ("bricks", 0, "lo"), 0),
    malformed(
        "int_marking_curve", single_path, ("bricks", 0, "initial", "curves", 0), 1
    ),
    malformed("bool_embedding_level", single_path, ("embedding", "b0", 0), True),
    malformed("unknown_joint_brick", kt_path, ("joints", 0, "upper"), "nope"),
    # an embedding entry or a label that names a brick other than its own
    malformed("unknown_embedding_brick", kt_path, ("embedding", "nope"), ["0/1", "1/8"]),
    malformed("foreign_label_brick", kt_path, ("bricks", 0, "label", "brick"), "gf1"),
    duplicate_brick_path,
    # containers that must not be coerced: collars as a string (one tag per
    # letter) or an object (its keys), and an embedding entry whose extra
    # items would be dropped
    malformed("string_collars", brock_path, ("bricks", 2, "collars"), "N3e6b6eb568"),
    malformed("object_collars", brock_path, ("bricks", 2, "collars"), {"Nabc": 1}),
    malformed(
        "long_embedding_entry", brock_path, ("embedding", "gf0"),
        ["0/1", "1/8", "junk", 7],
    ),
    # lists given as objects, which would be read as their keys: a
    # marking's curves, brick p's support boundary, a joint surface's
    # boundary
    malformed(
        "object_marking_curves", single_path, ("bricks", 0, "initial", "curves"),
        {"F:0/1": 1},
    ),
    malformed(
        "object_support_boundary", brock_path, ("bricks", 2, "support", "boundary"),
        {SIGMA: 1},
    ),
    malformed(
        "object_joint_boundary", brock_path, ("joints", 1, "surface", "boundary"),
        {SIGMA: 1},
    ),
    # a joint is where its upper brick starts and its lower brick ends, in
    # brick coordinates and in the embedding: brick p pulled off buf0, and
    # p moved into buf1
    BAD_JOINT_LEVEL,
    malformed("joint_pulled_apart", brock_path, ("embedding", "p"), ["9/20", "3/5"]),
    malformed("joint_overlapped", brock_path, ("embedding", "p"), ["1/2", "7/10"]),
    # bricks that do not fit between two critical levels: h0, open at its
    # top, moved over h1 (its own support) and buf1 (the full surface); two
    # full bricks over one level; strips of two crossing curves
    H0_OVERLAPPED,
    overlapping_path("full_bricks_overlapped", "full", "full"),
    overlapping_path("crossing_strips", "v0", "h"),
]


def count_sweeps(monkeypatch):
    """Record every LevelSweep built from now on."""
    builds = []
    init = bk.LevelSweep.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(bk.LevelSweep, "__init__", counted)
    return builds


def run_json(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out else None
    err = json.loads(captured.err) if captured.err else None
    return code, out, err


class TestValidate:
    def test_valid_model(self, tmp_path, capsys):
        code, doc, _ = run_json(capsys, ["validate", kt_path(tmp_path)])
        assert code == 0
        assert doc["pass"] is True
        assert all(doc["conditions"].values())

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_json(capsys, ["validate", str(tmp_path / "nope")])
        assert code == 2
        assert err["error"] == "parse"

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.brick"
        bad.write_text("{ not json")
        code, _, err = run_json(capsys, ["validate", str(bad)])
        assert code == 2

    def test_missing_subcommand(self, capsys):
        assert cli.run([]) == 2
        capsys.readouterr()

    def test_a_document_reads_the_same_under_any_budget(
        self, tmp_path, capsys, monkeypatch
    ):
        # its N: curves are named by the class index, not by a search
        # that the budget bounds
        path = tmp_path / "sb12.json"
        path.write_text(BENCH_INPUTS["sb12_v0_v1"])
        monkeypatch.delenv("BRICKFORGE_BUDGET", raising=False)
        assert cli.run(["validate", str(path)]) == 0
        default = capsys.readouterr()
        monkeypatch.setenv("BRICKFORGE_BUDGET", "2")
        assert cli.run(["validate", str(path)]) == 0
        assert capsys.readouterr() == default


class TestDecompose:
    def test_clean_model(self, tmp_path, capsys):
        code, doc, _ = run_json(capsys, ["decompose", kt_path(tmp_path)])
        assert code == 0
        assert doc["pass"] is True
        assert doc["rounds"] >= 1
        assert all(
            b["type"] in ("S03", "S04", "S11") for b in doc["blocks"]
        )
        assert len(doc["torus-tubes"]) == 1

    def test_duplicate_degenerate_labels(self, tmp_path, capsys):
        code, _, err = run_json(capsys, ["decompose", bad_el_path(tmp_path)])
        assert code == 1
        assert err["error"] == "ELViolation"

    def test_one_level_sweep_per_job(
        self, tmp_path, capsys, monkeypatch, count_calls
    ):
        m, e = lm.generate(lm.Scenario("brock", sf.TORUS_1_2))
        path = write_model(tmp_path, "brock.brick", m.complex, e)
        builds = count_sweeps(monkeypatch)
        boundaries = count_calls(bk, "boundary_components")
        reports = count_calls(bk, "check_conditions")
        a2_checks = count_calls(bk, "check_a2")
        code, doc, _ = run_json(capsys, ["decompose", path])
        assert code == 0 and doc["pass"] is True
        assert len(builds) == 1
        assert len(boundaries) == 1
        # decompose asks the sweep for EL only, not for A1-A5
        assert reports == [] and a2_checks == []

    def test_bb_record_bytes(self, tmp_path, capsys, monkeypatch):
        # no bench golden reaches a (BB) re-leveling, so its record is
        # pinned here: a front at 3/8 inside the gap band (1/4, 1/2) of the
        # first block of a 0/1 -> 1/0 brick moves down to 1/4
        full = sf.full_surface(sf.TORUS_1_1)
        k = bk.BrickComplex(
            sf.TORUS_1_1,
            (bk.Brick("b1", full, "closed", F(0), F(3, 8)),
             bk.Brick("b2", full, "closed", F(3, 8), F(1))),
            (bk.Joint("b2", "b1", full),),
        )
        fronts = bk.LevelSweep.of(k, bk.identity_embedding(k))
        decompose = bl.decompose

        def with_front_in_gap(sweep):
            d = decompose(sweep)
            blocks, adjustments = bl._enforce_bb(d.blocks, fronts)
            return replace(d, blocks=blocks, adjustments=adjustments)

        monkeypatch.setattr(bl, "decompose", with_front_in_gap)
        assert cli.run(["decompose", single_path(tmp_path, 1, 0)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["adjustments"] == [
            {"flag": "bb", "front": "3/8", "to": "1/4"}
        ]
        assert (
            '  "adjustments": [\n    {\n      "flag": "bb",\n'
            '      "front": "3/8",\n      "to": "1/4"\n    }\n  ],\n'
        ) in out

    def test_budget_env_must_be_positive(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BRICKFORGE_BUDGET", "-3")
        code, _, err = run_json(capsys, ["decompose", kt_path(tmp_path)])
        assert code == 1
        assert err["error"] == "ValueError"


class TestMetric:
    def test_filtration_table(self, tmp_path, capsys):
        code, doc, _ = run_json(
            capsys, ["metric", "--k", "5", kt_path(tmp_path)]
        )
        assert code == 0
        assert doc["eps1"] == "1/10"
        assert set(doc["filtrations"]) == {"0", "5"}
        kept = set(doc["filtrations"]["5"]["kept"])
        for t in doc["tubes"]:
            assert (t["id"] in kept) == (t["abs2"] >= 25)

    def test_a_decomposition_that_fails_verification_has_no_report(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            bl, "verify_decomposition", lambda d: (False, ["tubes v0,v1 overlap"])
        )
        code, out, err = run_json(capsys, ["metric", kt_path(tmp_path)])
        assert (code, out) == (1, None)
        assert err == {"error": "verify", "detail": "tubes v0,v1 overlap"}

    def test_rationals_are_exact_strings(self, tmp_path, capsys):
        code, doc, _ = run_json(capsys, ["metric", kt_path(tmp_path)])
        assert code == 0
        for t in doc["tubes"]:
            num, den = t["core-length-eps1-pi"].split("/")
            assert int(den) > 0
            assert F(int(num), int(den)) == F(2, t["abs2"])


class TestLimit:
    def test_scenario_pipeline(self, capsys):
        code, doc, _ = run_json(
            capsys, ["limit", "--scenario", "bo:2", "--stages", "2"]
        )
        assert code == 0
        assert doc["pass"] is True
        assert len(doc["stages"]) == 2
        assert all(s["acylindrical"] for s in doc["stages"])
        assert doc["theorem"]["pass"] is True

    def test_sweeps_per_job(self, capsys, monkeypatch, cold_caches, count_calls):
        # the model, swept once for decompose, exhaust and the theorem
        # report, and the one approximant of the single stage
        builds = count_sweeps(monkeypatch)
        code, _, _ = run_json(
            capsys, ["limit", "--scenario", "kt:1", "--stages", "1"]
        )
        assert code == 0
        assert len(builds) == 2
        # the same scenario at another stage count finds its model swept
        # and decomposed, and the approximant its stages share searched
        decompositions = count_calls(bl, "_decompose")
        code, _, _ = run_json(
            capsys, ["limit", "--scenario", "kt:1", "--stages", "3"]
        )
        assert code == 0
        assert len(builds) == 2
        assert not decompositions

    def test_one_conditions_report_per_job(self, capsys, count_calls):
        # the theorem report builds it; decompose inside exhaust checks
        # only EL
        reports = count_calls(bk, "check_conditions")
        code, _, _ = run_json(
            capsys, ["limit", "--scenario", "bo:3", "--stages", "2"]
        )
        assert code == 0
        assert len(reports) == 1

    def test_a2_oracle_stays_off_the_search_path(
        self, capsys, count_calls, cold_caches
    ):
        # the obstructor search asks the sweep; each distinct approximant,
        # here the one that all 3 stages share, is searched and checked by
        # the brute-force oracle once, and the theorem report checks A2 on
        # the model once
        searches = count_calls(lm, "_find_obstructors")
        a2_checks = count_calls(bk, "check_a2")
        oracle_checks = count_calls(bk, "check_a2_bruteforce")
        oracle_searches = count_calls(bk, "clear_annulus_gaps")
        code, doc, _ = run_json(
            capsys, ["limit", "--scenario", "bo:3", "--stages", "3"]
        )
        assert code == 0
        assert len(a2_checks) == 1
        assert len(searches) == len(oracle_checks) == len(oracle_searches) == 1
        assert [s["acylindrical"] for s in doc["stages"]] == [True] * 3

    def test_external_tubes_follow_the_embedding(self, tmp_path, capsys):
        # the 0/1 -> 2/1 single brick with every level halved
        halved = bk.LeafEmbedding((("b0", (F(0), F(1, 2))),))
        path = write_model(tmp_path, "halved.json", single_complex(2, 1), halved)
        code, doc, _ = run_json(
            capsys, ["limit", "--scenario", path, "--stages", "2"]
        )
        assert code == 0
        assert [s["external-tubes"] for s in doc["stages"]] == [["v0"], ["v0"]]

    def test_small_budget_refuses(self, capsys, monkeypatch):
        # the model has 2 ends: at budget 2 the finite-ends bound refuses
        monkeypatch.setenv("BRICKFORGE_BUDGET", "2")
        code, doc, err = run_json(
            capsys, ["limit", "--scenario", "kt:1", "--stages", "1"]
        )
        assert code == 1
        assert doc is None
        assert err["error"] == "BudgetExceeded"

    def test_unknown_scenario(self, capsys):
        # a spec that names no scenario is the path of a document
        code, _, err = run_json(capsys, ["limit", "--scenario", "bogus"])
        assert code == 2
        assert err["error"] == "parse"
        assert err["detail"].startswith("cannot read bogus")

    def test_custom_scenario_file(self, tmp_path, capsys):
        m, e = lm.generate(lm.Scenario("kerckhoff-thurston", sf.TORUS_1_1))
        path = write_model(tmp_path, "custom.json", m.complex, e)
        code, doc, _ = run_json(capsys, ["limit", "--scenario", path])
        assert code == 0
        assert doc["pass"] is True

    def test_scenario_file_is_read_as_a_model(self, tmp_path, capsys, count_calls):
        path = kt_path(tmp_path)
        parses = count_calls(sz, "parse_complex")
        generated = count_calls(lm, "generate")
        code, _, _ = run_json(capsys, ["limit", "--scenario", path])
        assert code == 0
        assert (len(parses), generated) == (1, [])

    def test_scenario_file_of_any_extension(self, tmp_path, capsys, monkeypatch):
        # the README's models end in .brick; a relative path holds no "/"
        m, e = lm.generate(lm.Scenario("bonahon-otal", sf.TORUS_1_1, depth=2))
        write_model(tmp_path, "model.brick", m.complex, e)
        write_model(tmp_path, "model.json", m.complex, e)
        monkeypatch.chdir(tmp_path)
        out = {}
        for name in ("model.brick", "model.json"):
            argv = ["limit", "--scenario", name, "--stages", "2"]
            assert cli.run(argv) == 0
            out[name] = capsys.readouterr().out
        doc = json.loads(out["model.brick"])
        assert doc["scenario"] == "model.brick" and doc["pass"] is True
        assert out["model.json"] == out["model.brick"].replace(
            '"scenario": "model.brick"', '"scenario": "model.json"'
        )


class TestCrosscheck:
    def test_single_brick_agreement(self, tmp_path, capsys):
        code, doc, _ = run_json(
            capsys, ["crosscheck", single_path(tmp_path)]
        )
        assert code == 0
        assert doc == {"brick": "b0", "pass": True}

    def test_needs_endpoint_markings(self, tmp_path, capsys):
        code, _, err = run_json(capsys, ["crosscheck", kt_path(tmp_path)])
        assert code == 2
        assert err["error"] == "parse"


class TestExport:
    def test_idempotent(self, tmp_path, capsys):
        path = kt_path(tmp_path)
        code = cli.run(["export", path])
        first = capsys.readouterr().out
        assert code == 0
        again = tmp_path / "again.json"
        again.write_text(first)
        code = cli.run(["export", str(again)])
        second = capsys.readouterr().out
        assert code == 0
        assert first == second

    def test_sorted_keys(self, tmp_path, capsys):
        code = cli.run(["export", single_path(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert out == sz.dumps(doc)
        assert list(doc) == sorted(doc)

    def test_markings_round_trip(self, tmp_path, capsys):
        path = single_path(tmp_path, 8, 5)
        code = cli.run(["export", path])
        out = capsys.readouterr().out
        assert code == 0
        k, _ = sz.parse_complex(sz.loads(out))
        b = k.brick("b0")
        assert b.initial is not None and b.terminal is not None
        (c,) = b.terminal.base.curves
        assert sz.curve_str(c) == "F:8/5"


@pytest.mark.parametrize("make", MALFORMED)
@pytest.mark.parametrize(
    "argv",
    [["validate"], ["decompose"], ["metric"], ["crosscheck"], ["export"],
     ["limit", "--scenario"]],
    ids=lambda argv: argv[0],
)
def test_malformed_complex_is_a_parse_error(tmp_path, capsys, argv, make):
    code, out, err = run_json(capsys, argv + [make(tmp_path)])
    assert code == 2
    assert out is None
    assert err["error"] == "parse"


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["decompose"], ["metric"], ["crosscheck"], ["export"],
     ["limit", "--scenario"]],
    ids=lambda argv: argv[0],
)
def test_overlap_error_names_the_bricks_and_the_level(tmp_path, capsys, argv):
    code, out, err = run_json(capsys, argv + [H0_OVERLAPPED(tmp_path)])
    assert (code, out) == (2, None)
    assert err == {"error": "parse", "detail": "bricks p, h0, h1 overlap at level 11/20"}


def test_joint_level_error_names_the_front(tmp_path, capsys):
    code, out, err = run_json(capsys, ["export", BAD_JOINT_LEVEL(tmp_path)])
    assert (code, out) == (2, None)
    assert "joint level 1/3 is not the front of 'buf0' and 'gf0'" in err["detail"]


@pytest.mark.parametrize(
    "argv",
    [
        ["limit", "--scenario", "kt:1", "--stages", "0"],
        ["limit", "--scenario", "kt:1", "--stages", "-2"],
        ["limit", "--scenario", "bo:0"],
        ["metric", "--k", "-1"],
        # scenarios on a base they cannot be built on
        ["limit", "--scenario", "brock:1,1"],
        ["limit", "--scenario", "brock:0,4"],
        ["limit", "--scenario", "kt:2,1"],
        ["limit", "--scenario", "kt:0,5"],
        ["limit", "--scenario", "bo:2,1:1"],
    ],
    ids=" ".join,
)
def test_out_of_range_argument_is_a_usage_error(tmp_path, capsys, argv):
    if argv[0] == "metric":
        argv = argv + [kt_path(tmp_path)]
    code, out, err = run_json(capsys, argv)
    assert code == 2
    assert out is None
    assert err["error"] == "parse"


def test_one_parser_serves_every_job(tmp_path, capsys):
    """A usage error, --help or an out-of-range argument leaves nothing
    behind that changes a later job."""
    path = single_path(tmp_path)
    assert cli.run(["export", path]) == 0
    fresh = capsys.readouterr().out
    assert cli.run(["frobnicate"]) == 2
    assert capsys.readouterr().err.startswith("usage:")
    assert cli.run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage:")
    assert cli.run(["export", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: brickforge export")
    assert cli.run(["limit", "--scenario", "kt:1", "--stages", "0"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "parse"
    assert cli.run(["export", path]) == 0
    assert capsys.readouterr().out == fresh


class _Oracle(argparse.ArgumentParser):
    """argparse hands an option given as `--opt=--` the empty list, since
    it drops a `--` from every option's values, and the handlers crashed
    on that list.  The oracle reads that value as the string `--`,
    as `cli._parse` does: `--k=--` is refused, `--scenario=--` names a
    document `--`.  Every other reading is argparse's own."""

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            return self._get_value(action, "--")
        return super()._get_values(action, arg_strings)


def argparse_parser():
    """The argparse parser that `cli` used before its command table."""
    parser = _Oracle(
        prog="brickforge",
        description="exact combinatorial brick-manifold toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="admissibility report for a model")
    p.add_argument("input")
    p.set_defaults(handler=cli._cmd_validate)

    p = sub.add_parser("decompose", help="block and tube decomposition")
    p.add_argument("input")
    p.set_defaults(handler=cli._cmd_decompose)

    p = sub.add_parser("metric", help="meridian coefficients and filtration")
    p.add_argument("input")
    p.add_argument("--k", type=int, default=None, help="filtration level")
    p.set_defaults(handler=cli._cmd_metric)

    p = sub.add_parser("limit", help="scenario exhaustion pipeline")
    p.add_argument("--scenario", required=True)
    p.add_argument("--stages", type=int, default=1)
    p.set_defaults(handler=cli._cmd_limit)

    p = sub.add_parser("crosscheck", help="hierarchy vs block agreement")
    p.add_argument("input")
    p.set_defaults(handler=cli._cmd_crosscheck)

    p = sub.add_parser("export", help="canonical re-serialization")
    p.add_argument("input")
    p.set_defaults(handler=cli._cmd_export)
    return parser


ORACLE = argparse_parser()


def read_by_argparse(argv):
    """("exit", code, the stream written) or ("ok", handler, values)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            values = vars(ORACLE.parse_args(argv))
    except SystemExit as exc:
        return ("exit", exc.code or 0, (err if exc.code else out).getvalue())
    del values["command"]
    return ("ok", values.pop("handler"), values)


def read_by_table(argv):
    try:
        handler, args = cli._parse(list(argv))
    except cli._Stop as stop:
        return ("exit", stop.code, stop.text)
    return ("ok", handler, vars(args))


NAMES = list(cli.COMMANDS) + ["--k", "--scenario", "--stages", "--help", "-h"]
WORDS = [
    "frobnicate", "doc.json", "kt:1", "bo:2,1:1", "x", "a b", "-x y", "", "-",
    "---", "-x", "--x", "-k", "--", "-hh", "-hx", "-h=h", "-h=", "-1.5", "-.5",
    "-1e3", "+3", " 4",
]


@st.composite
def argvs(draw):
    """argv drawn from command names, option names and their prefixes,
    `--opt=value`, integers, paths, -h/--help, `--` and stray tokens."""
    integers = st.integers(-12, 12).map(str)
    prefixes = st.sampled_from(NAMES).flatmap(
        lambda name: st.integers(1, len(name)).map(lambda n: name[:n])
    )
    attached = st.tuples(prefixes, st.sampled_from(WORDS) | integers).map("=".join)
    token = st.sampled_from(WORDS) | prefixes | attached | integers
    argv = draw(st.lists(token, max_size=6))
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, min(1, len(argv)))), draw(st.sampled_from(list(cli.COMMANDS))))
    return argv


@settings(max_examples=1500, deadline=None)
@given(argv=argvs())
@example(argv=["limit", "-h", "--s"])  # an ambiguous prefix is refused before help
@example(argv=["--x", "validate", "-h"])  # help comes before the stray option's error
@example(argv=["-1", "validate", "-h"])  # a negative number is a command name
@example(argv=["metric", "-h=h", "f"])
@example(argv=["metric", "--", "--", "--k", "2"])
@example(argv=["metric", "f", "--k", "--", "2"])  # a value option before "--"
@example(argv=["limit", "--stages", "-2", "--sc=kt:1"])
@example(argv=["limit", "--scenario=--", "--st=--"])
def test_parse_reads_argv_as_argparse_did(argv):
    """`_parse` and the argparse oracle agree on every draw: both accept
    with the same handler and values, or both stop with the same exit
    code and a usage text (help on stdout, an error on stderr)."""
    expected, got = read_by_argparse(argv), read_by_table(argv)
    assert got[:2] == expected[:2]
    if got[0] == "ok":
        assert got[2] == expected[2]
    else:
        assert got[2].startswith("usage:") and expected[2].startswith("usage:")


BENCH_INPUTS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "inputs.json").read_text()
)
SB11 = sorted(name for name in BENCH_INPUTS if name.startswith("sb11_"))
# wrong-typed, out-of-range and malformed stand-ins for a leaf
BAD_LEAVES = [
    None, True, 0, -1, 2, 0.5, "", "x", "1/0", "-1/2", "3/2", "F:1/0",
    "annulus", "open", [], {},
]


def entry_paths(entry, path=()):
    """(key path, whether its parent is an object, whether it is a scalar)
    for every entry below the root of a JSON document."""
    if isinstance(entry, dict):
        items = entry.items()
    elif isinstance(entry, list):
        items = enumerate(entry)
    else:
        return []
    out = []
    for key, child in items:
        here = path + (key,)
        scalar = not isinstance(child, (dict, list))
        out.append((here, isinstance(entry, dict), scalar))
        out.extend(entry_paths(child, here))
    return out


@st.composite
def mutated_documents(draw):
    """A bench document with one key dropped or one leaf replaced."""
    doc = json.loads(BENCH_INPUTS[draw(st.just("kt12") | st.sampled_from(SB11))])
    paths = entry_paths(doc)
    drop = draw(st.booleans())
    *parents, last = draw(
        st.sampled_from(
            [p for p, in_object, scalar in paths if (in_object if drop else scalar)]
        )
    )
    entry = doc
    for key in parents:
        entry = entry[key]
    if drop:
        del entry[last]
    else:
        entry[last] = draw(st.sampled_from(BAD_LEAVES))
    return doc


def document_commands(path):
    """The six subcommands that read a brick-complex document."""
    return [
        ["validate", path],
        ["export", path],
        ["decompose", path],
        ["metric", "--k", "2", path],
        ["crosscheck", path],
        ["limit", "--scenario", path, "--stages", "1"],
    ]


@settings(max_examples=100, deadline=None)
@given(doc=mutated_documents())
def test_mutated_document_never_raises(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "mutated.json")
        Path(path).write_text(json.dumps(doc))
        for argv in document_commands(path):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
            assert code in (0, 1, 2), argv
            if code == 2:
                assert json.loads(err.getvalue())["error"] == "parse", argv


# curves their domain cannot carry: a slope and an arc on the full
# twice-punctured torus, normal coordinates on the full one-holed torus
OFF_DOMAIN_CURVES = [
    ("kt12", ("bricks", 0, "label", "conformal", 0, 0), "F:1/0"),
    ("kt12", ("bricks", 0, "label", "conformal", 0, 0), "A:1"),
    ("sb11_0-1_1-0", ("bricks", 0, "initial", "curves", 0), "N:[0,0,1,0,1,0]"),
]


@pytest.mark.parametrize(
    "name, path, curve",
    OFF_DOMAIN_CURVES,
    ids=[f"{name}-{curve}" for name, _, curve in OFF_DOMAIN_CURVES],
)
def test_curve_off_its_domain_is_a_parse_error(tmp_path, capsys, name, path, curve):
    doc = json.loads(BENCH_INPUTS[name])
    entry = doc
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = curve
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc))
    for argv in document_commands(str(file)):
        code, out, err = run_json(capsys, argv)
        assert (code, err["error"]) == (2, "parse"), argv
        assert out is None


# fields that name a brick or a curve tag, which must be strings
NAME_FIELDS = [
    ("collar", ("bricks", 2, "collars", 0)),
    ("label-brick", ("bricks", 0, "label", "brick")),
]


@pytest.mark.parametrize("bad", [0.5, [], {}], ids=["float", "list", "dict"])
@pytest.mark.parametrize("path", [p for _, p in NAME_FIELDS], ids=[n for n, _ in NAME_FIELDS])
@pytest.mark.parametrize("command", range(6), ids=lambda i: document_commands("")[i][0])
def test_name_field_of_another_type_is_a_parse_error(tmp_path, capsys, path, bad, command):
    doc = json.loads(BENCH_INPUTS["brock"])
    entry = doc
    for key in path[:-1]:
        entry = entry[key]
    assert isinstance(entry[path[-1]], str)
    entry[path[-1]] = bad
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc))
    code, out, err = run_json(capsys, document_commands(str(file))[command])
    assert (code, err["error"]) == (2, "parse")
    assert out is None


def test_brick_id_of_another_type_is_a_parse_error(tmp_path, capsys):
    # without an embedding no other field names the brick, so before the
    # parser checked ids `export` reached the encoder with a float id
    doc = json.loads(BENCH_INPUTS["sb11_0-1_1-0"])
    doc["bricks"][0]["id"] = 0.5
    del doc["embedding"]
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc))
    for argv in document_commands(str(file)):
        code, out, err = run_json(capsys, argv)
        assert (code, err["error"]) == (2, "parse"), argv
        assert out is None


# lamination representatives the parser must refuse: coefficients that are
# not a non-empty list of ints, and a symbolic label that is not a string
BAD_LAMINATIONS = [
    ("empty", {"kind": "continued-fraction", "coefficients": []}),
    ("string", {"kind": "continued-fraction", "coefficients": "1111"}),
    ("float", {"kind": "continued-fraction", "coefficients": [1.5, 1, 1, 1]}),
    ("bool", {"kind": "continued-fraction", "coefficients": [True, 1, 1, 1]}),
    ("int-label", {"kind": "symbolic", "label": 5}),
    ("list-label", {"kind": "symbolic", "label": [1]}),
]


@pytest.mark.parametrize("rep", [r for _, r in BAD_LAMINATIONS], ids=[n for n, _ in BAD_LAMINATIONS])
# left out: crosscheck refuses this many-brick model as a parse error anyway
@pytest.mark.parametrize("command", (0, 1, 2, 3, 5), ids=lambda i: document_commands("")[i][0])
def test_malformed_lamination_is_a_parse_error(tmp_path, capsys, rep, command):
    doc = json.loads(BENCH_INPUTS["brock"])
    (h0,) = (b for b in doc["bricks"] if b["id"] == "h0")
    h0["label"]["lamination"]["rep"] = rep
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc))
    code, out, err = run_json(capsys, document_commands(str(file))[command])
    assert (code, err["error"]) == (2, "parse")
    assert out is None


def test_stdout_does_not_depend_on_the_hash_seed(tmp_path):
    """Curves hash by strings, whose hashes change with the seed, so any
    output that followed hash order would change with it: decompose and
    crosscheck of two-curve markings print the same bytes under two seeds."""
    full = sf.full_surface(sf.TORUS_1_2)
    pair = (sf.line_class(full, 0, 1, 0), sf.line_class(full, 0, 1, 1))
    sigma = (sf.slot_class(full, (0, 0), (1, 0)),)
    paths = []
    for initial, terminal in ((pair, sigma), (sigma, pair)):
        b = bk.Brick(
            "b0", full, "closed", F(0), F(1),
            initial=sf.Marking(sf.Simplex(full, initial)),
            terminal=sf.Marking(sf.Simplex(full, terminal)),
        )
        k = bk.BrickComplex(sf.TORUS_1_2, (b,), ())
        paths.append(write_model(tmp_path, f"model{len(paths)}.brick", k))
    src = str(Path(__file__).resolve().parent.parent / "src")

    def stdout(seed, argv):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        proc = subprocess.run(
            [sys.executable, "-c", "from brickforge.cli import main; main()", *argv],
            env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        return proc.stdout

    for path in paths:
        for command in ("decompose", "crosscheck"):
            assert stdout("0", [command, path]) == stdout("1", [command, path])


# Runs one command in this interpreter and prints its exit code and the
# number of ambient curves it built.
COUNT_BUILDS = """
import contextlib, io, sys
from brickforge import charts, cli
built = []
build = charts.CurveDesc.build

def counted(desc):
    built.append(desc)
    return build(desc)

charts.CurveDesc.build = counted
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(sys.argv[1:])
print(code, len(built))
"""


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["limit", "--scenario", "kt:1,2:1", "--stages", "2"], 23),
        (["validate", "brock.json"], 10),
    ],
    ids=["limit-kt12", "validate-brock"],
)
def test_a_cold_command_builds_each_ambient_class_once(tmp_path, argv, builds):
    """A fresh process builds one polygon for each ambient class its
    lookups and universes walk, not one for each description."""
    (tmp_path / "brock.json").write_text(BENCH_INPUTS["brock"])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", COUNT_BUILDS, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["0", str(builds)]


# Imports the CLI, then decomposes each document given, and prints after
# each step whether hashlib is loaded.
HASHLIB_LOADS = """
import contextlib, io, sys
from brickforge import cli
loaded = ["hashlib" in sys.modules]
for path in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["decompose", path]) == 0
    loaded.append("hashlib" in sys.modules)
print(loaded)
"""


def test_hashlib_loads_with_the_first_polygonal_curve_tag(tmp_path):
    """`surfaces.curve_tag` imports hashlib when it first hashes the key
    of a polygonal curve: a fresh import of the CLI and a T(1,1) job leave
    it unloaded, a T(1,2) job loads it."""
    sb11 = single_path(tmp_path)
    sb12 = tmp_path / "sb12.json"
    sb12.write_text(BENCH_INPUTS["sb12_v0_v1"])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", HASHLIB_LOADS, sb11, str(sb12)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[False, False, True]"


# Imports the CLI, runs one command, and prints which of the modules
# that an argument parser would load are loaded.
PARSER_MODULES = """
import contextlib, io, sys
from brickforge import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(sys.argv[1:])
print(code, sorted({"argparse", "gettext", "locale"} & set(sys.modules)))
"""


def test_a_command_loads_no_argument_parser(tmp_path):
    """A fresh process that imports the CLI and runs `validate` loads
    neither argparse nor the gettext and locale it would bring."""
    (tmp_path / "brock.json").write_text(BENCH_INPUTS["brock"])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", PARSER_MODULES, "validate", "brock.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["0", "[]"]
