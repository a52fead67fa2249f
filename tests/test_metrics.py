import math
import random
from fractions import Fraction

import pytest

from brickforge import blocks as bl
from brickforge import bricks as bk
from brickforge import limits as lm
from brickforge import metrics as mt
from brickforge import surfaces as sf
from brickforge.errors import NotTorusInterface
from brickforge.records import replace

F = Fraction


def kt(base=sf.TORUS_1_1):
    return lm.generate(lm.Scenario("kerckhoff-thurston", base))


def bo(d, base=sf.TORUS_1_1):
    return lm.generate(lm.Scenario("bonahon-otal", base, depth=d))


def identity_sweep(m):
    return bk.LevelSweep.of(m.complex, bk.identity_embedding(m.complex))


def torus_tube(core, band, twist=0):
    return bl.Tube(
        tid="t0",
        core=core,
        band=band,
        origin=(0, "boundary"),
        token="boundary",
        interface="torus",
        twist=twist,
    )


def flanked_fixture(blocks_per_side=1, twist=0):
    """A single torus tube flanked by full-support blocks, two boundary
    annuli contributed per block."""
    full = sf.full_surface(sf.TORUS_1_1)
    core = sf.slope_curve(full, 0, 1)
    n = 2 * blocks_per_side
    v = torus_tube(core, (F(1, 2 * n), 1 - F(1, 2 * n)), twist=twist)
    blocks = []
    for i in range(n):
        blocks.append(
            bl.Block(
                blid=f"bl{i}",
                btype="S11",
                interval=(F(i, n), F(i + 1, n)),
                support=full,
            )
        )
    k = bk.BrickComplex(
        sf.TORUS_1_1, (bk.Brick("b0", full, "closed", F(0), F(1)),), ()
    )
    d = bl.BlockDecomposition(
        sweep=bk.LevelSweep.of(k, bk.identity_embedding(k)),
        blocks=tuple(blocks),
        tubes=(v,),
        placed=(v,),
        adjustments=(),
        rounds_used=0,
    )
    return v, d


class TestMeridianCoefficient:
    def test_abs2(self):
        assert mt.MeridianCoefficient("t", 3, 4).abs2() == 25
        assert mt.MeridianCoefficient("t", -2, 1).abs2() == 5

    def test_height_must_be_positive(self):
        with pytest.raises(ValueError):
            mt.MeridianCoefficient("t", 0, 0)

    def test_two_flanking_blocks_give_height_three(self):
        v, d = flanked_fixture(blocks_per_side=1)
        omega = mt.boundary_torus_geometry(v, d)
        assert (omega.re, omega.im) == (0, 3)

    def test_extra_block_per_side_raises_height_by_one(self):
        base = mt.boundary_torus_geometry(*flanked_fixture(1))
        taller = mt.boundary_torus_geometry(*flanked_fixture(2))
        assert taller.im == base.im + 2
        one_more = flanked_fixture(1)
        # a single additional vertical block adds one to the height
        v, d = one_more
        extra = bl.Block(
            blid="blx",
            btype="S11",
            interval=(F(1, 4), F(1, 2)),
            support=d.blocks[0].support,
        )
        d2 = replace(d, blocks=d.blocks + (extra,))
        assert mt.boundary_torus_geometry(v, d2).im == base.im + 1

    def test_twist_becomes_real_part(self):
        v, d = flanked_fixture(1, twist=-2)
        assert mt.boundary_torus_geometry(v, d).re == -2

    def test_annulus_interface_rejected(self):
        v, d = flanked_fixture(1)
        bad = bl.Tube(
            tid=v.tid,
            core=v.core,
            band=v.band,
            origin=v.origin,
            token=v.token,
            interface="annulus",
        )
        with pytest.raises(NotTorusInterface):
            mt.boundary_torus_geometry(bad, d)

    def test_disjoint_blocks_do_not_count(self):
        v, d = flanked_fixture(1)
        narrow = bl.Tube(
            tid=v.tid,
            core=v.core,
            band=(F(0), F(1, 2)),
            origin=v.origin,
            token=v.token,
            interface="torus",
        )
        omega = mt.boundary_torus_geometry(narrow, d)
        # only the lower block overlaps the shrunken band
        assert omega.im == 2


class TestAnnulusIncidence:
    def test_full_support_counts_two(self):
        full = sf.full_surface(sf.TORUS_1_1)
        core = sf.slope_curve(full, 1, 0)
        assert mt._annulus_incidence(core, full) == 2

    def test_interior_curve_counts_two(self):
        full = sf.full_surface(sf.TORUS_1_2)
        sigma = sf.slot_class(full, (0, 0), (1, 0))
        pieces = sf.component_domains(full, sf.Simplex.of(full, sigma))
        torus_side = next(
            y for y in pieces if y.kind == "proper" and y.ttype == (1, 1)
        )
        inner = sf.line_class(full, 0, 1, 1)
        assert mt._annulus_incidence(inner, torus_side) == 2

    def test_separating_boundary_counts_one_per_side(self):
        full = sf.full_surface(sf.TORUS_1_2)
        sigma = sf.slot_class(full, (0, 0), (1, 0))
        pieces = [
            y
            for y in sf.component_domains(full, sf.Simplex.of(full, sigma))
            if y.kind == "proper"
        ]
        assert len(pieces) == 2
        for y in pieces:
            assert mt._annulus_incidence(sigma, y) == 1

    def test_nonseparating_boundary_counts_two(self):
        full = sf.full_surface(sf.TORUS_1_2)
        v0 = sf.line_class(full, 0, 1, 0)
        pieces = [
            y
            for y in sf.component_domains(full, sf.Simplex.of(full, v0))
            if y.kind == "proper"
        ]
        assert len(pieces) == 1
        assert mt._annulus_incidence(v0, pieces[0]) == 2

    def test_disjoint_curve_counts_zero(self):
        full = sf.full_surface(sf.TORUS_1_2)
        sigma = sf.slot_class(full, (0, 0), (1, 0))
        pieces = sf.component_domains(full, sf.Simplex.of(full, sigma))
        pants = next(
            y for y in pieces if y.kind == "proper" and y.ttype == (0, 3)
        )
        v0 = sf.line_class(full, 0, 1, 0)
        assert mt._annulus_incidence(v0, pants) == 0


class TestFiltration:
    def test_membership_is_exact(self):
        rng = random.Random(7)
        for _ in range(1200):
            re = rng.randint(-50, 50)
            im = rng.randint(1, 80)
            k = rng.randint(0, 100)
            omega = mt.MeridianCoefficient("t", re, im)
            kept = omega.abs2() >= k * k
            # |omega| >= k iff floor(|omega|) >= k for integer k
            assert kept == (math.isqrt(omega.abs2()) >= k)

    def test_pythagorean_boundary(self):
        omega = mt.MeridianCoefficient("t", 3, 4)
        v, d = flanked_fixture(1)
        assert omega.abs2() == 25
        assert omega.abs2() >= 5 * 5
        assert not (omega.abs2() >= 6 * 6)

    def test_filtration_nested(self):
        m, _ = kt()
        d = bl.decompose(identity_sweep(m))
        prev = None
        for k in range(0, 8):
            f = mt.filtration(d, k)
            assert set(f.tubes) | set(f.released) == set(d.torus_tubes)
            if prev is not None:
                assert set(f.tubes) <= set(prev.tubes)
            prev = f

    def test_level_zero_keeps_everything(self):
        m, _ = bo(3)
        d = bl.decompose(identity_sweep(m))
        f = mt.filtration(d, 0)
        assert set(f.tubes) == set(d.torus_tubes)
        assert not f.released

    def test_negative_level_rejected(self):
        m, _ = kt()
        with pytest.raises(ValueError):
            mt.filtration(bl.decompose(identity_sweep(m)), -1)


class TestTubeMetric:
    def test_core_length_coefficient(self):
        omega = mt.MeridianCoefficient("t", 0, 1)
        assert mt.tube_metric(omega).core_length_eps1_pi == F(2)
        omega = mt.MeridianCoefficient("t", 3, 4)
        assert mt.tube_metric(omega).core_length_eps1_pi == F(2, 25)

    def test_core_length_strictly_decreasing(self):
        lengths = [
            mt.tube_metric(mt.MeridianCoefficient("t", 0, im)).core_length()
            for im in range(1, 12)
        ]
        assert all(a > b for a, b in zip(lengths, lengths[1:]))

    def test_doubling_height_quarters_core_length(self):
        for im in (1, 2, 5, 9):
            one = mt.tube_metric(mt.MeridianCoefficient("t", 0, im))
            two = mt.tube_metric(mt.MeridianCoefficient("t", 0, 2 * im))
            assert (
                two.core_length_eps1_pi == one.core_length_eps1_pi / 4
            )

    def test_radius_positive_and_grows_with_height(self):
        radii = [
            mt.tube_metric(mt.MeridianCoefficient("t", 0, im)).radius
            for im in range(1, 10)
        ]
        assert all(r > 0 for r in radii)
        assert all(a < b for a, b in zip(radii, radii[1:]))

    def test_formula_flagged(self):
        m, _ = kt()
        doc = mt.metric_report(bl.decompose(identity_sweep(m)))
        assert "own closed form" in doc["tube-formula"]


class TestMetricReport:
    def test_report_structure(self):
        m, _ = kt()
        d = bl.decompose(identity_sweep(m))
        doc = mt.metric_report(d, ks=(0, 2, 5))
        assert doc["convention"] == "right-handed twisting counts positive"
        assert doc["eps1"] == "1/10"
        assert {b["id"] for b in doc["blocks"]} == {b.blid for b in d.blocks}
        assert {t["id"] for t in doc["tubes"]} == set(d.torus_tubes)
        for t in doc["tubes"]:
            assert t["abs2"] == t["re"] ** 2 + t["im"] ** 2
            num, den = t["core-length-eps1-pi"].split("/")
            assert F(int(num), int(den)) == F(2, t["abs2"])
        assert set(doc["filtrations"]) == {"0", "2", "5"}
        for table in doc["filtrations"].values():
            assert set(table["kept"]) | set(table["released"]) == set(
                d.torus_tubes
            )

    def test_one_coefficient_per_torus_tube(self, count_calls):
        m, _ = bo(3)
        d = bl.decompose(identity_sweep(m))
        calls = count_calls(mt, "boundary_torus_geometry")
        doc = mt.metric_report(d, ks=(0, 5))
        assert len(d.torus_tubes) == 3
        assert len(calls) == 3
        for k in (0, 5):
            f = mt.filtration(d, k)
            assert doc["filtrations"][str(k)] == {
                "kept": list(f.tubes), "released": list(f.released)
            }

    def test_report_json_serializable(self):
        import json

        m, _ = bo(2)
        doc = mt.metric_report(bl.decompose(identity_sweep(m)), ks=(0, 3))
        text = json.dumps(doc, sort_keys=True)
        assert json.loads(text) == doc
