"""Refinement as a metamorphic relation: a report is a function of the
model, so splitting a full closed brick at an interior level into two
bricks joined on their whole support changes nothing that `validate`,
`decompose` or `metric` prints.  `limit` is left out: its stages list the
document's own bricks, so the relation holds for it only once a report is
defined on the normalized model or on the document."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from brickforge import cli
from brickforge.serialize import frac_str

BENCH_INPUTS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "inputs.json").read_text()
)


def refine(text: str, bid: str, level: Fraction) -> str:
    """The document with brick `bid`, full and closed, split at `level` of
    its own coordinates into `bid` below and `bid_hi` above, joined on
    their whole support.  The lower piece keeps the initial marking and
    the joints below, the upper the terminal marking and the joints above,
    and the brick's embedded interval is split affinely."""
    doc = json.loads(text)
    (brick,) = [b for b in doc["bricks"] if b["id"] == bid]
    assert brick["kind"] == "closed" and brick["support"]["kind"] == "full"
    lo, hi = Fraction(brick["lo"]), Fraction(brick["hi"])
    assert lo < level < hi
    upper_id = f"{bid}_hi"
    lower = {k: v for k, v in brick.items() if k != "terminal"}
    upper = {k: v for k, v in brick.items() if k != "initial"}
    lower["hi"] = upper["lo"] = frac_str(level)
    upper["id"] = upper_id
    doc["bricks"].insert(doc["bricks"].index(brick), lower)
    doc["bricks"][doc["bricks"].index(brick)] = upper
    for joint in doc["joints"]:
        if joint["lower"] == bid:
            joint["lower"] = upper_id
    doc["joints"].append(
        {"level": frac_str(level), "lower": bid, "surface": brick["support"], "upper": upper_id}
    )
    e_lo, e_hi = (Fraction(x) for x in doc["embedding"][bid])
    cut = e_lo + (level - lo) / (hi - lo) * (e_hi - e_lo)
    doc["embedding"][bid] = [frac_str(e_lo), frac_str(cut)]
    doc["embedding"][upper_id] = [frac_str(cut), frac_str(e_hi)]
    return json.dumps(doc, indent=1, sort_keys=True)


CASES = [
    ("kt12", "buf1", Fraction(23, 32)),
    ("brock", "buf1", Fraction(7, 10)),
    ("sb11_0-1_2-1", "b0", Fraction(1, 2)),
]


def run(capsys, argv):
    code = cli.run(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name,bid,level", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("command", [["validate"], ["decompose"], ["metric", "--k", "2"]])
def test_splitting_a_full_brick_changes_no_report(tmp_path, capsys, name, bid, level, command):
    model = tmp_path / "model.json"
    split = tmp_path / "split.json"
    model.write_text(BENCH_INPUTS[name])
    split.write_text(refine(BENCH_INPUTS[name], bid, level))
    assert json.loads(split.read_text()) != json.loads(model.read_text())
    before = run(capsys, [command[0], str(model), *command[1:]])
    assert before[0] == 0 and before[1]
    assert run(capsys, [command[0], str(split), *command[1:]]) == before
