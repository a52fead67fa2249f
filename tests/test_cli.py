import dataclasses
import json
from fractions import Fraction

import pytest

from brickforge import bricks as bk
from brickforge import cli
from brickforge import limits as lm
from brickforge import serialize as sz
from brickforge import surfaces as sf

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


def single_path(tmp_path, p2=5, q2=3):
    full = sf.full_surface(sf.TORUS_1_1)

    def mk(p, q):
        return sf.Marking(sf.Simplex.of(full, sf.slope_curve(full, p, q)))

    b = bk.Brick(
        "b0", full, "closed", F(0), F(1), initial=mk(0, 1), terminal=mk(p2, q2)
    )
    k = bk.BrickComplex(sf.TORUS_1_1, (b,), ())
    return write_model(tmp_path, "single.brick", k)


def bad_el_path(tmp_path):
    m, e = lm.generate(lm.Scenario("brock", sf.TORUS_1_2))
    h0 = m.complex.brick("h0")
    bricks = tuple(
        dataclasses.replace(
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


def no_bricks_path(tmp_path):
    path = tmp_path / "no-bricks.json"
    path.write_text(json.dumps({"base": "1,1", "bricks": []}))
    return str(path)


def reversed_levels_path(tmp_path):
    with open(single_path(tmp_path)) as handle:
        doc = json.load(handle)
    doc["embedding"]["b0"] = ["1/1", "0/1"]
    path = tmp_path / "reversed-levels.json"
    path.write_text(json.dumps(doc))
    return str(path)


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

    def test_one_level_sweep_per_job(self, tmp_path, capsys, monkeypatch):
        m, e = lm.generate(lm.Scenario("brock", sf.TORUS_1_2))
        path = write_model(tmp_path, "brock.brick", m.complex, e)
        builds = count_sweeps(monkeypatch)
        code, doc, _ = run_json(capsys, ["decompose", path])
        assert code == 0 and doc["pass"] is True
        assert len(builds) == 1

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

    def test_sweeps_per_job(self, capsys, monkeypatch):
        # decompose's input, the model for exhaust and the theorem report,
        # and the one approximant of the single stage
        builds = count_sweeps(monkeypatch)
        code, _, _ = run_json(
            capsys, ["limit", "--scenario", "kt:1", "--stages", "1"]
        )
        assert code == 0
        assert len(builds) == 3

    def test_unknown_scenario(self, capsys):
        code, _, err = run_json(capsys, ["limit", "--scenario", "bogus"])
        assert code == 2
        assert err["error"] == "parse"

    def test_custom_scenario_file(self, tmp_path, capsys):
        m, e = lm.generate(lm.Scenario("kerckhoff-thurston", sf.TORUS_1_1))
        path = write_model(tmp_path, "custom.json", m.complex, e)
        code, doc, _ = run_json(capsys, ["limit", "--scenario", path])
        assert code == 0
        assert doc["pass"] is True


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
        (c,) = b.terminal.base.sorted_curves()
        assert sz.curve_str(c) == "F:8/5"


@pytest.mark.parametrize("make", [no_bricks_path, reversed_levels_path])
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
