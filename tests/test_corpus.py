"""The single-brick corpus of the twice-punctured torus: `decompose` and
`crosscheck` of the model made of one closed brick for each unordered
pair of `ambient_universe(2)`, 420 commands in one process, pinned by the
digest of everything they print."""

import hashlib
from collections import Counter
from fractions import Fraction

from brickforge import bricks as bk
from brickforge import cli
from brickforge import hierarchy as hy
from brickforge import serialize as sz
from brickforge import surfaces as sf

# sha256 over each command's name, pair, exit code, stdout and stderr, in
# pair order, decompose before crosscheck
CORPUS_DIGEST = "c18af57e201be627e785cf93c629283a9fbe2c655801c645a95d985625c17da8"


def pair_documents():
    """(i, j, document text) for each pair i < j of `ambient_universe(2)`:
    one closed brick on [0, 1] from curve i to curve j, embedded by the
    identity."""
    full = sf.full_surface(sf.TORUS_1_2)
    universe = hy.ambient_universe(2)
    for i, a in enumerate(universe):
        for j in range(i + 1, len(universe)):
            b = bk.Brick(
                "b0", full, "closed", Fraction(0), Fraction(1),
                initial=sf.Marking(sf.Simplex.of(full, a)),
                terminal=sf.Marking(sf.Simplex.of(full, universe[j])),
            )
            k = bk.BrickComplex(sf.TORUS_1_2, (b,), ())
            yield i, j, sz.dumps(sz.complex_doc(k, bk.identity_embedding(k)))


def test_the_pair_corpus_prints_what_it_always_printed(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("BRICKFORGE_BUDGET", raising=False)
    digest = hashlib.sha256()
    exits = Counter()
    for i, j, text in pair_documents():
        path = tmp_path / f"pair_{i}_{j}.json"
        path.write_text(text)
        for command in ("decompose", "crosscheck"):
            code = cli.run([command, str(path)])
            out, err = capsys.readouterr()
            exits[command, code] += 1
            digest.update(f"{command} {i} {j} {code}\n{out}\0{err}\0".encode())
    assert sorted(exits.items()) == [
        (("crosscheck", 0), 41),
        (("crosscheck", 1), 169),
        (("decompose", 0), 170),
        (("decompose", 1), 40),
    ]
    assert digest.hexdigest() == CORPUS_DIGEST
