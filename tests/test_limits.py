import json
from fractions import Fraction

import pytest

from brickforge import bricks as bk
from brickforge import cli
from brickforge import limits as lm
from brickforge import serialize as sz
from brickforge import surfaces as sf
from brickforge.errors import ObstructionSearchFailure, ParseError

F = Fraction


def kt(base=sf.TORUS_1_1):
    return lm.generate(lm.Scenario("kerckhoff-thurston", base))


def bo(d, base=sf.TORUS_1_1):
    return lm.generate(lm.Scenario("bonahon-otal", base, depth=d))


def brock():
    return lm.generate(lm.Scenario("brock", sf.TORUS_1_2))


def sweep_of(m, e):
    return bk.LevelSweep.of(m.complex, e)


def parallel_pair():
    """Two removed tubes around the same core with clear space between:
    an essential annulus joins their boundary tori."""
    full = sf.full_surface(sf.TORUS_1_1)
    c = sf.slope_curve(full, 0, 1)
    return lm._tower(sf.TORUS_1_1, [c, c])


class TestScenarios:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            lm.Scenario("thurston", sf.TORUS_1_1)

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            lm.Scenario("bonahon-otal", sf.TORUS_1_1, depth=0)

    def test_single_tube_boundary_and_ends(self):
        m, e = kt()
        comps = bk.boundary_components(bk.LevelSweep.of(m.complex, e))
        assert [c.kind for c in comps] == ["torus"]
        ends = bk.classify_ends(m, e)
        assert sorted(x.kind for x in ends) == ["GF", "GF"]

    def test_removed_leaf_ends(self):
        m, e = brock()
        ends = bk.classify_ends(m, e)
        assert sorted(x.kind for x in ends) == ["GF", "GF", "SD", "SD"]

    def test_nested_tower_boundary_counts(self):
        for d in range(1, 6):
            m, e = bo(d)
            comps = bk.boundary_components(bk.LevelSweep.of(m.complex, e))
            assert sum(1 for c in comps if c.kind == "torus") == d

    def test_custom_round_trip(self):
        m, e = bo(2)
        doc = sz.complex_doc(m.complex, e)
        m2, e2 = lm.generate(
            lm.Scenario("custom", m.complex.base, document=sz.dumps(doc))
        )
        assert sz.complex_doc(m2.complex, e2) == doc

    def test_custom_needs_document(self):
        with pytest.raises(ParseError):
            lm.generate(lm.Scenario("custom", sf.TORUS_1_1))


class TestExhaust:
    def test_single_tube_stage_one(self):
        m, e = kt()
        state = lm.exhaust(sweep_of(m, e), 1)[0]
        assert state.obstructors == ()
        assert state.acylindrical
        # the approximant keeps the one removed tube
        comps = bk.boundary_components(
            bk.LevelSweep.of(state.z.complex, state.z_embedding)
        )
        assert sum(1 for c in comps if c.kind == "torus") == 1

    def test_parallel_tubes_need_an_obstructor(self):
        m, e = parallel_pair()
        state = lm.exhaust(sweep_of(m, e), 1)[0]
        assert len(state.obstructors) >= 1
        assert state.acylindrical
        core = state.obstructors[0][0]
        original = sf.slope_curve(sf.full_surface(sf.TORUS_1_1), 0, 1)
        assert sf.intersection_number(core, original) > 0

    def test_small_budget_keeps_the_obstructor(self, monkeypatch):
        # the candidate pool has a fixed size; the budget does not cut it
        m, e = parallel_pair()
        monkeypatch.setenv("BRICKFORGE_BUDGET", "2")
        state = lm.exhaust(sweep_of(m, e), 1)[0]
        assert sz.curve_str(state.obstructors[0][0]) == "F:-1/1"

    def test_windows_strictly_ascending(self):
        m, e = bo(3)
        states = lm.exhaust(sweep_of(m, e), 3)
        for a, b in zip(states, states[1:]):
            assert b.window[0] < a.window[0]
            assert a.window[1] < b.window[1]
            assert {x.bid for x in a.w.bricks} <= {x.bid for x in b.w.bricks}

    def test_stable_data_byte_equal_across_stages(self):
        for m, e in (kt(), bo(3), brock()):
            states = lm.exhaust(sweep_of(m, e), 3)
            for a, b in zip(states, states[1:]):
                earlier, later = dict(a.stable), dict(b.stable)
                for bid, doc in earlier.items():
                    assert later[bid] == doc

    def test_every_approximant_acylindrical(self):
        for m, e in (kt(), kt(sf.TORUS_1_2), bo(2), brock(), parallel_pair()):
            for state in lm.exhaust(sweep_of(m, e), 2):
                assert state.acylindrical
                sweep = bk.LevelSweep.of(state.z.complex, state.z_embedding)
                assert bk.check_a2(sweep)
                assert bk.check_a2_bruteforce(sweep)

    def test_truncated_ends_become_closed(self):
        m, e = kt()
        state = lm.exhaust(sweep_of(m, e), 1)[0]
        w = {b.bid: b for b in state.w.bricks}
        assert w["gf0"].kind == "closed"
        assert w["gf0"].lo == state.window[0]
        assert w["gf1"].kind == "closed"
        assert w["gf1"].hi == state.window[1]

    def test_obstruction_search_failure(self, monkeypatch):
        m, e = parallel_pair()
        monkeypatch.setattr(lm, "_crossing_candidates", lambda base, core: [])
        with pytest.raises(ObstructionSearchFailure):
            lm.exhaust(sweep_of(m, e), 1)

    def test_slit_work_is_bounded(self, monkeypatch):
        # the run meets 30 distinct (complex, embedding, level) triples;
        # the model is swept once for decompose and once for exhaust and
        # the theorem report, and each stage sweeps its approximant once
        calls = []
        slit_at = bk.slit_at

        def counted(k, e, c):
            calls.append(c)
            return slit_at(k, e, c)

        monkeypatch.setattr(bk, "slit_at", counted)
        assert cli.run(["limit", "--scenario", "bo:6", "--stages", "4"]) == 0
        assert len(calls) <= 90

    def test_stage_report_serializable(self):
        m, e = bo(2)
        state = lm.exhaust(sweep_of(m, e), 1)[0]
        doc = lm.exhaustion_doc(state)
        text = json.dumps(doc, sort_keys=True)
        assert json.loads(text) == doc
        assert doc["stage"] == 1
        assert doc["acylindrical"] is True
        assert any("hyperbolization" in note for note in doc["assumed"])


class TestVerifyTheoremA:
    def test_scenarios_pass(self):
        for m, e in (kt(), kt(sf.TORUS_1_2), bo(3), brock()):
            report = lm.verify_theorem_a(sweep_of(m, e))
            assert report["pass"], report["checks"]

    def test_parallel_tubes_fail_acylindricity(self):
        m, e = parallel_pair()
        report = lm.verify_theorem_a(sweep_of(m, e))
        assert not report["checks"]["acylindrical"]
        assert not report["pass"]

    def test_gf_end_bound(self):
        for m, e in (kt(sf.TORUS_1_2), bo(2, sf.TORUS_1_2), brock()):
            report = lm.verify_theorem_a(sweep_of(m, e))
            assert report["gf-end-bound"] == 4
            gf = [x for x in report["ends"] if x[0] == "GF"]
            assert len(gf) <= 4

    def test_report_names_basepoint(self):
        m, e = kt()
        report = lm.verify_theorem_a(sweep_of(m, e))
        assert report["basepoint"]["brick"] == "gf0"
        assert report["basepoint"]["level"] == "0/1"
