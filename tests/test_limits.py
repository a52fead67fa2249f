import copy
import hashlib
import json
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from brickforge import blocks as bl
from brickforge import bricks as bk
from brickforge import cli
from brickforge import hierarchy as hy
from brickforge import limits as lm
from brickforge import serialize as sz
from brickforge import surfaces as sf
from brickforge.config import get_budget
from brickforge.errors import ObstructionSearchFailure

F = Fraction
BENCH = Path(__file__).resolve().parents[1] / "bench"


def kt(base=sf.TORUS_1_1):
    return lm.generate(lm.Scenario("kerckhoff-thurston", base))


def bo(d, base=sf.TORUS_1_1):
    return lm.generate(lm.Scenario("bonahon-otal", base, depth=d))


def brock():
    return lm.generate(lm.Scenario("brock", sf.TORUS_1_2))


def sweep_of(m, e):
    return bk.LevelSweep.of(m.complex, e)


def parallel_pair():
    """The sweep of two removed tubes around the same core with clear
    space between: an essential annulus joins their boundary tori."""
    full = sf.full_surface(sf.TORUS_1_1)
    c = sf.slope_curve(full, 0, 1)
    return bk.LevelSweep.of(*lm._tower(sf.TORUS_1_1, [c, c]))


# scenarios whose exhaustions are checked against the rearrangement and
# limit lemmas, by their `limit --scenario` names
EXHAUST_SCENARIOS = {
    **{
        f"kt:{d}": lm.Scenario("kerckhoff-thurston", sf.TORUS_1_1, depth=d)
        for d in range(1, 7)
    },
    **{
        f"bo:{d}": lm.Scenario("bonahon-otal", sf.TORUS_1_1, depth=d)
        for d in range(1, 7)
    },
    "brock": lm.Scenario("brock", sf.TORUS_1_2),
    "kt:1,2:2": lm.Scenario("kerckhoff-thurston", sf.TORUS_1_2, depth=2),
    "bo:1,2:1": lm.Scenario("bonahon-otal", sf.TORUS_1_2, depth=1),
}


class TestScenarios:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            lm.Scenario("thurston", sf.TORUS_1_1)

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            lm.Scenario("bonahon-otal", sf.TORUS_1_1, depth=0)

    def test_single_tube_boundary_and_ends(self):
        sweep = sweep_of(*kt())
        comps = bk.boundary_components(sweep)
        assert [c.kind for c in comps] == ["torus"]
        ends = bk.classify_ends(sweep)
        assert sorted(x.kind for x in ends) == ["GF", "GF"]

    def test_removed_leaf_ends(self):
        ends = bk.classify_ends(sweep_of(*brock()))
        assert sorted(x.kind for x in ends) == ["GF", "GF", "SD", "SD"]

    def test_nested_tower_boundary_counts(self):
        for d in range(1, 6):
            m, e = bo(d)
            comps = bk.boundary_components(bk.LevelSweep.of(m.complex, e))
            assert sum(1 for c in comps if c.kind == "torus") == d


class TestExhaust:
    def test_single_tube_stage_one(self):
        m, e = kt()
        state = lm.exhaust(sweep_of(m, e), 1)[0]
        assert state.obstructors == ()
        assert state.acylindrical
        # the approximant keeps the one removed tube
        comps = bk.boundary_components(state.z)
        assert sum(1 for c in comps if c.kind == "torus") == 1

    def test_parallel_tubes_need_an_obstructor(self):
        state = lm.exhaust(parallel_pair(), 1)[0]
        assert len(state.obstructors) >= 1
        assert state.acylindrical
        core = state.obstructors[0][0]
        original = sf.slope_curve(sf.full_surface(sf.TORUS_1_1), 0, 1)
        assert sf.intersection_number(core, original) > 0

    def test_small_budget_keeps_the_obstructor(
        self, monkeypatch, cold_caches, count_calls
    ):
        # the candidate pool has a fixed size; the budget does not cut it
        sweep = parallel_pair()
        searches = count_calls(lm, "_find_obstructors")
        monkeypatch.setenv("BRICKFORGE_BUDGET", "2")
        state = lm.exhaust(sweep, 1)[0]
        assert len(searches) == 1
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
                later = dict(b.stable)
                for bid, brick in a.stable:
                    assert sz.dumps(sz.brick_doc(later[bid])) == sz.dumps(
                        sz.brick_doc(brick)
                    )

    def test_every_approximant_acylindrical(self):
        models = [sweep_of(m, e) for m, e in (kt(), kt(sf.TORUS_1_2), bo(2), brock())]
        for sweep in models + [parallel_pair()]:
            for state in lm.exhaust(sweep, 2):
                assert state.acylindrical
                assert bk.check_a2(state.z)
                assert bk.check_a2_bruteforce(state.z)

    @pytest.mark.parametrize("spec", list(EXHAUST_SCENARIOS))
    def test_stages_ascend_to_the_model(self, spec):
        m, e = lm.generate(EXHAUST_SCENARIOS[spec])
        states = lm.exhaust(sweep_of(m, e), 4)
        # raises NotAscending when a stage drops a brick of an earlier one
        stabilized = bk.rearrange([(s.w, s.w_embedding) for s in states])
        limit, _ = bk.limit_embedding(stabilized)
        for a, b in zip(states, states[1:]):
            assert {bid for bid, _ in a.stable} <= {bid for bid, _ in b.stable}
        for state in states:
            for bid, _ in state.stable:
                assert limit.level_of(bid) == e.level_of(bid)

    def test_truncated_ends_become_closed(self):
        m, e = kt()
        state = lm.exhaust(sweep_of(m, e), 1)[0]
        w = {b.bid: b for b in state.w.bricks}
        assert w["gf0"].kind == "closed"
        assert w["gf0"].lo == state.window[0]
        assert w["gf1"].kind == "closed"
        assert w["gf1"].hi == state.window[1]

    def test_truncation_keeps_the_bricks_it_does_not_cut(self):
        m, e = bo(3)
        k = m.complex
        window = lm.exhaust(sweep_of(m, e), 1)[0].window
        w, we = lm._truncate_model(k, e, window)
        cut = 0
        for b in w.bricks:
            alpha, beta = e.level_of(b.bid)
            if window[0] <= alpha and beta <= window[1]:
                assert b is k.brick(b.bid)
            else:
                cut += 1
                assert (b.lo, b.hi) == we.level_of(b.bid) != (alpha, beta)
        assert 0 < cut < len(w.bricks)

    def test_obstruction_search_failure(self, monkeypatch, cold_caches):
        sweep = parallel_pair()
        with monkeypatch.context() as patched:
            patched.setattr(lm, "_crossing_candidates", lambda base, core: [])
            with pytest.raises(ObstructionSearchFailure):
                lm.exhaust(sweep, 1)
        # the failure stores nothing, so the real search runs next
        assert lm._APPROXIMANTS == {}
        assert lm.exhaust(sweep, 1)[0].acylindrical

    def test_one_memo_entry_per_removal_set(
        self, monkeypatch, cold_caches, count_calls
    ):
        searches = count_calls(lm, "_find_obstructors")

        def removals(p, q, lo=F(3, 8)):
            # a fresh curve object each time: the key compares classes
            full = sf.full_surface(sf.TORUS_1_1)
            return [(sf.slope_curve(full, p, q), (lo, lo + F(1, 4)))]

        a = lm._approximant(sf.TORUS_1_1, removals(0, 1))
        b = lm._approximant(sf.TORUS_1_1, removals(1, 0))
        c = lm._approximant(sf.TORUS_1_1, removals(0, 1, F(1, 4)))
        assert lm._approximant(sf.TORUS_1_1, removals(0, 1)) is a
        assert len(searches) == len(lm._APPROXIMANTS) == 3
        assert len({x[1].complex for x in (a, b, c)}) == 3
        # a full memo is emptied before the next entry goes in, and a
        # dropped entry is searched again with the same answer
        monkeypatch.setattr(lm._APPROXIMANTS, "bound", 3)
        d = lm._approximant(sf.TORUS_1_1, removals(1, 0, F(1, 4)))
        assert list(lm._APPROXIMANTS.values()) == [d]
        again = lm._approximant(sf.TORUS_1_1, removals(0, 1))
        assert len(searches) == 5
        assert again is not a and again[0] == a[0] and again[2] == a[2]
        assert again[1].complex == a[1].complex

    def test_memo_never_changes_a_stage(self, capsys, cold_caches):
        specs = [f"{kind}:{d}" for kind in ("kt", "bo") for d in (1, 2, 3)]

        def stdout(spec):
            assert cli.run(["limit", "--scenario", spec, "--stages", "3"]) == 0
            return capsys.readouterr().out

        cold = {}
        for spec in specs:
            cold_caches()
            cold[spec] = stdout(spec)
        for spec in specs:
            stdout(spec)
        # each rerun finds every scenario's approximants in the memo
        assert {spec: stdout(spec) for spec in reversed(specs)} == cold

    def test_slit_work_is_bounded(self, monkeypatch, cold_caches, count_calls):
        # the run meets 30 distinct (complex, embedding, level) triples;
        # the model is swept once for decompose and once for exhaust and
        # the theorem report, and the approximant that the 4 stages share
        # is searched, checked by the oracle and swept once
        searches = count_calls(lm, "_find_obstructors")
        oracle_checks = count_calls(bk, "check_a2_bruteforce")
        calls = []
        slit_at = bk.slit_at

        def counted(k, e, c):
            calls.append(c)
            return slit_at(k, e, c)

        monkeypatch.setattr(bk, "slit_at", counted)
        assert cli.run(["limit", "--scenario", "bo:6", "--stages", "4"]) == 0
        assert len(calls) <= 30
        assert len(searches) == len(oracle_checks) == 1

    def test_merge_work_is_bounded(self, monkeypatch, cold_caches, count_calls):
        # the merge tests each same-core pair it holds at most once: for a
        # core with n tubes placed and m merges, the n(n - 1)/2 placed
        # pairs and, for the k-th merge, the n - k - 2 pairs of the merged
        # tube (k from 0).  Cold, so that the model is decomposed, and its
        # tubes merged, in this run
        gaps = count_calls(bk.LevelSweep, "clear_gap")
        merges = []
        merge = bl.merge_homotopic

        def counted(tubes, sweep):
            before = len(gaps)
            out = merge(tubes, sweep)
            merges.append((tubes, out, len(gaps) - before))
            return out

        monkeypatch.setattr(bl, "merge_homotopic", counted)
        assert cli.run(["limit", "--scenario", "bo:40", "--stages", "2"]) == 0
        assert merges
        for tubes, out, tests in merges:
            held = 0
            for core in {t.core for t in tubes}:
                n = sum(1 for t in tubes if t.core == core)
                m = n - sum(1 for t in out if t.core == core)
                held += n * (n - 1) // 2 + sum(n - k - 2 for k in range(m))
            assert 0 < tests <= held

    def test_slit_tests_are_bounded(self, monkeypatch, cold_caches):
        # a sweep asks whether a core meets a slit at most once per slit
        # of that sweep; calls outside `meets_between` (the brute-force
        # oracle) are not counted.  Cold, so that the model is swept, and
        # its slits tested, in this run
        asked = []  # the (sweep, core) of the running meets_between
        calls = {}  # (id(sweep), core) -> (sweep, ids of the slits tested)
        meets_between = bk.LevelSweep.meets_between
        curve_meets_slit = bk.curve_meets_slit

        def meets(sweep, c, lo, hi):
            asked.append((sweep, c))
            try:
                return meets_between(sweep, c, lo, hi)
            finally:
                asked.pop()

        def tested(c, slit):
            if asked:
                sweep, core = asked[-1]
                assert c == core
                entry = calls.setdefault((id(sweep), c), (sweep, []))
                entry[1].append(id(slit))
            return curve_meets_slit(c, slit)

        monkeypatch.setattr(bk.LevelSweep, "meets_between", meets)
        monkeypatch.setattr(bk, "curve_meets_slit", tested)
        assert cli.run(["limit", "--scenario", "bo:40", "--stages", "2"]) == 0
        assert calls
        for sweep, slits in calls.values():
            # the slit objects stay alive with their sweep, so ids are
            # unique; an empty slit is one object at many levels
            per_level = Counter(id(slit) for _, slit in sweep.slits)
            assert not Counter(slits) - per_level

    @pytest.mark.parametrize(
        "model", [lambda: kt(sf.TORUS_1_2), brock], ids=["kt12", "brock"]
    )
    def test_truncations_of_a_moved_model_validate(self, model, tmp_path, capsys):
        # windows and the bricks of W are in embedded levels, so a joint of
        # W is kept by its upper brick's embedded front
        m, e = model()
        moved = bk.LeafEmbedding(
            tuple((bid, (F(1, 5) + 3 * lo / 5, F(1, 5) + 3 * hi / 5))
                  for bid, (lo, hi) in e.levels)
        )
        path = tmp_path / "moved.json"
        path.write_text(sz.dumps(sz.complex_doc(m.complex, moved)))
        # the geometrically finite ends now sit at 1/5 and 4/5, off the
        # surface boundary, so the report fails and the command exits 1
        assert cli.run(["limit", "--scenario", str(path), "--stages", "2"]) == 1
        doc = json.loads(capsys.readouterr().out)
        failed = {name for name, ok in doc["theorem"]["checks"].items() if not ok}
        assert failed == {"leaf-embedding", "peripheral-gf"}
        assert len(doc["stages"]) == 2
        for stage in doc["stages"]:
            w, we = sz.parse_complex(stage["w"])
            ok, report = bk.validate_complex(w)
            assert ok, report
            assert w.joints
            # its bricks fit at every level
            bk.LevelSweep.of(w, we)

    def test_level_comparisons_are_bounded(self, count_calls):
        # slits, clear-annulus tests and gap fronts bisect level indices; a
        # warm rerun made 10,521 Fraction comparisons when each level
        # question scanned every level, 3,562 when it searched each stage's
        # approximant again, 2,575 when each gap band was derived again
        # from its tube band, 2,549 when a brick's joints were found by
        # level, 2,325 when every merge rescanned the tube pairs and each
        # brick front tested every boundary component, and makes 947 now
        args = ["limit", "--scenario", "bo:6", "--stages", "4"]
        assert cli.run(args) == 0
        ordered = count_calls(Fraction, "_richcmp")
        equal = count_calls(Fraction, "__eq__")
        assert cli.run(args) == 0
        assert len(ordered) + len(equal) <= 947

    def test_report_builds_each_brick_document_once(self, count_calls, capsys):
        # the stages of one report share one memo of documents: a report
        # built each stage alone made 120 brick documents for 25 distinct
        # bricks, and one memo keyed by brick object makes 36
        args = ["limit", "--scenario", "bo:6", "--stages", "4"]
        built = count_calls(sz, "brick_doc")
        assert cli.run(args) == 0
        assert len(built) <= 36
        out = capsys.readouterr().out
        goldens = json.loads((BENCH / "goldens.json").read_text())
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == goldens[" ".join(args)]

    def test_stage_report_serializable(self):
        m, e = bo(2)
        sweep = sweep_of(m, e)
        (doc,) = lm.exhaustion_docs(sweep, lm.exhaust(sweep, 1))
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
        report = lm.verify_theorem_a(parallel_pair())
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


def limit_stdout(capsys, spec, stages):
    assert cli.run(["limit", "--scenario", spec, "--stages", str(stages)]) == 0
    return capsys.readouterr().out


class TestScenarioMemo:
    @pytest.mark.parametrize("spec", ["kt:2", "bo:3", "kt:1,2:2", "bo:1,2:1", "brock"])
    def test_a_kept_model_prints_the_cold_bytes(self, spec, capsys, cold_caches):
        # each stage count runs after other stage counts of its scenario,
        # with the model swept and decomposed by the first job
        warm = {}
        for stages in (4, 1, 3, 2):
            warm[stages] = limit_stdout(capsys, spec, stages)
        assert len(lm._SCENARIO_SWEEPS) == 1
        for stages in (1, 3, 2):
            cold_caches()
            assert limit_stdout(capsys, spec, stages) == warm[stages]

    def test_one_sweep_and_decomposition_per_scenario(self, cold_caches, count_calls):
        s = lm.Scenario("bonahon-otal", sf.TORUS_1_1, depth=2)
        generated = count_calls(lm, "generate")
        decomposed = count_calls(bl, "_decompose")
        sweep = lm.scenario_sweep(s)
        again = lm.scenario_sweep(lm.Scenario("bonahon-otal", sf.TORUS_1_1, depth=2))
        assert again is sweep
        assert bl.decompose(sweep) is bl.decompose(again)
        assert len(generated) == len(decomposed) == 1

    def test_a_full_memo_is_emptied_and_reports_stay(self, capsys, cold_caches):
        specs = [f"kt:{n}" for n in range(1, 66)]
        warm = [limit_stdout(capsys, spec, 1) for spec in specs]
        assert len(lm._SCENARIO_SWEEPS) <= 64
        # the 65th entry found the memo full: only it is kept
        assert list(lm._SCENARIO_SWEEPS) == [
            lm.Scenario("kerckhoff-thurston", sf.TORUS_1_1, depth=65)
        ]
        for spec, out in zip(specs, warm):
            cold_caches()
            assert limit_stdout(capsys, spec, 1) == out

    def test_each_budget_decomposes_once(self, monkeypatch, count_calls):
        # a lamination end is truncated at the budget's depth: the
        # decomposition kept under one budget answers for that budget only
        full = sf.full_surface(sf.TORUS_1_1)
        b = bk.Brick(
            "b0", full, "closed", F(0), F(1),
            initial=sf.Marking(sf.Simplex.of(full, sf.slope_curve(full, 0, 1))),
            terminal=sf.LaminationDescriptor(full, sf.IrrationalSlope((1,) * 10)),
        )
        k = bk.BrickComplex(sf.TORUS_1_1, (b,), ())

        def sweep():
            return bk.LevelSweep.of(k, bk.identity_embedding(k))

        kept = sweep()
        geodesics = count_calls(hy, "tight_geodesic")
        monkeypatch.setenv("BRICKFORGE_BUDGET", "10000")
        deep = bl.decompose(kept)
        assert geodesics and bl.decompose(kept) is deep
        monkeypatch.setenv("BRICKFORGE_BUDGET", "600")
        del geodesics[:]
        shallow = bl.decompose(kept)
        assert geodesics
        assert len(shallow.tubes) < len(deep.tubes)
        assert shallow.tubes == bl.decompose(sweep()).tubes
        monkeypatch.setenv("BRICKFORGE_BUDGET", "10000")
        del geodesics[:]
        assert bl.decompose(kept) is deep
        assert not geodesics

    def test_a_budget_change_reaches_a_kept_scenario(
        self, capsys, monkeypatch, cold_caches
    ):
        # a spy on the geodesic builder reads the budget of each call:
        # under the second budget the kept model is decomposed again, and
        # the report is the one a cold process prints under that budget
        budgets = []
        tight_geodesic = hy.tight_geodesic

        def spy(*args):
            budgets.append(get_budget())
            return tight_geodesic(*args)

        monkeypatch.setattr(hy, "tight_geodesic", spy)
        monkeypatch.setenv("BRICKFORGE_BUDGET", "10000")
        limit_stdout(capsys, "brock", 2)
        assert set(budgets) == {10000}
        monkeypatch.setenv("BRICKFORGE_BUDGET", "300")
        del budgets[:]
        warm = limit_stdout(capsys, "brock", 3)
        assert budgets and set(budgets) == {300}
        cold_caches()
        assert limit_stdout(capsys, "brock", 3) == warm

    def test_a_job_builds_only_the_stages_not_yet_kept(
        self, capsys, cold_caches, count_calls
    ):
        # each stage of bo:6 has its own window; all share one removal set
        truncated = count_calls(lm, "_truncate_model")
        searched = count_calls(lm, "_approximant")
        for stages, built in ((2, 2), (2, 0), (4, 2), (1, 0), (3, 0), (4, 0)):
            del truncated[:], searched[:]
            limit_stdout(capsys, "bo:6", stages)
            assert len(truncated) == len(searched) == built, stages

    def test_a_budget_change_keeps_nothing_of_the_first_budget(
        self, capsys, monkeypatch, cold_caches, count_calls
    ):
        # brock has 4 ends: at budget 4 its stages are built and kept, but
        # the end count refuses the report on every job
        args = ["limit", "--scenario", "brock", "--stages", "2"]
        monkeypatch.setenv("BRICKFORGE_BUDGET", "10000")
        limit_stdout(capsys, "brock", 2)
        truncated = count_calls(lm, "_truncate_model")
        reported = count_calls(lm, "_theorem_a")
        monkeypatch.setenv("BRICKFORGE_BUDGET", "4")
        for _ in range(2):
            assert cli.run(args) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "BudgetExceeded"
        assert (len(truncated), len(reported)) == (2, 2)
        monkeypatch.setenv("BRICKFORGE_BUDGET", "300")
        warm = limit_stdout(capsys, "brock", 2)
        assert (len(truncated), len(reported)) == (4, 3)
        cold_caches()
        assert limit_stdout(capsys, "brock", 2) == warm

    def test_a_failed_stage_keeps_nothing(
        self, capsys, monkeypatch, cold_caches, count_calls
    ):
        limit_stdout(capsys, "bo:6", 2)
        truncated = count_calls(lm, "_truncate_model")

        def fail(base, removals):
            raise ObstructionSearchFailure("patched search")

        with monkeypatch.context() as patched:
            patched.setattr(lm, "_approximant", fail)
            assert cli.run(["limit", "--scenario", "bo:6", "--stages", "4"]) == 1
        assert json.loads(capsys.readouterr().err)["detail"] == "patched search"
        assert len(truncated) == 1  # stage 3, whose search raised
        del truncated[:]
        warm = limit_stdout(capsys, "bo:6", 4)
        assert len(truncated) == 2  # stages 3 and 4
        cold_caches()
        assert limit_stdout(capsys, "bo:6", 4) == warm

    def test_kept_stage_documents_are_never_edited(self, capsys, cold_caches, tmp_path):
        # every report and export that shows a kept part holds it, so a
        # caller that edited one would change later reports
        sweep = lm.scenario_sweep(lm.Scenario("bonahon-otal", sf.TORUS_1_1, depth=6))
        kept = lm.exhaustion_docs(sweep, lm.exhaust(sweep, 4))
        theorem = lm.verify_theorem_a(sweep)
        before = copy.deepcopy((kept, theorem))
        path = tmp_path / "w.json"
        path.write_text(sz.dumps(kept[-1]["w"]))
        for stages in (1, 2, 3, 4, 5):
            limit_stdout(capsys, "bo:6", stages)
        assert cli.run(["export", str(path)]) == 0
        assert lm.exhaustion_docs(sweep, lm.exhaust(sweep, 4)) == kept
        assert (kept, theorem) == before

    def test_kept_stages_hold_at_most_a_megabyte(self, capsys, cold_caches):
        # the twelve c4-stream scenarios, each swept and decomposed: what
        # their first four stages, stage documents and reports keep
        scenarios = {
            f"{spec}:{d}": lm.Scenario(kind, sf.TORUS_1_1, depth=d)
            for spec, kind in (("kt", "kerckhoff-thurston"), ("bo", "bonahon-otal"))
            for d in range(1, 7)
        }
        for s in scenarios.values():
            bl.decompose(lm.scenario_sweep(s))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for spec in scenarios:
                for stages in (1, 2, 3, 4):
                    limit_stdout(capsys, spec, stages)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert held <= 1 << 20


class TestStagesExtend:
    """Stage n of an exhaustion reads the model and the budget, never the
    stage count, and the theorem report reads no stage: the facts that let
    a process keep the stages.  Each job runs with cold caches, so nothing
    kept answers."""

    @pytest.mark.parametrize(
        "spec",
        [f"kt:{d}" for d in range(1, 7)]
        + [f"bo:{d}" for d in range(1, 7)]
        + ["kt:1,2:1", "bo:1,2:1", "brock"],
    )
    def test_a_stage_count_extends_the_one_before(self, spec, capsys, cold_caches):
        reports = []
        for stages in (1, 2, 3, 4):
            cold_caches()
            reports.append(json.loads(limit_stdout(capsys, spec, stages)))
        for shorter, longer in zip(reports, reports[1:]):
            assert longer["stages"][: len(shorter["stages"])] == shorter["stages"]
            assert longer["theorem"] == shorter["theorem"]
