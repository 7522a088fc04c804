"""Byte-identity gate: ``scripts/output_digests.py``'s ``ablate`` and ``simulate`` lines against ``golden_digests.txt``.

The file holds, for I, L, T and the README example scenario
(``scenario.EXAMPLE_SCENARIO``, named ``example``), the ``ablate`` lines at
seeds 0 and 7 and the ``simulate`` line at seed 0, recomputed here with the
script's own ``cli_lines``.  A change that moves one byte of a file those
commands write fails this test.  A change meant to alter outputs updates the
file in the same commit, regenerated with the command on the file's ``#``
line, and lists the old and new lines with their cause in CHANGES.md.

The script's ``noisy``, ``reanchor`` and ``posegraph`` lines stay a manual
check, two checkouts ``diff``-ed: they hash poses solved by
``np.linalg.solve``, whose last bits may differ under another LAPACK build,
so a committed value could fail on correct code.
"""

import pathlib
import runpy
import tempfile

from travmap import pipeline
from travmap.gridmap import CellState
from travmap.scenario import EXAMPLE_SCENARIO

GOLDEN = pathlib.Path(__file__).with_name("golden_digests.txt")
SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "output_digests.py"
HEADER = "# Regenerate: PYTHONPATH=src python tests/test_golden_digests.py > tests/golden_digests.txt"
SCENES = ("I", "L", "T", "example")


def golden_lines(scenes=SCENES) -> list[str]:
    """The digest lines of ``scenes``, builtin kinds or ``example``, as the script prints them."""
    cli_lines = runpy.run_path(str(SCRIPT))["cli_lines"]
    with tempfile.TemporaryDirectory() as tmp:
        example = pathlib.Path(tmp, "example.ini")
        example.write_text(EXAMPLE_SCENARIO)
        sources = {"example": str(example)}
        return [
            line
            for n, scene in enumerate(scenes)
            for line in cli_lines(sources.get(scene, scene), scene, pathlib.Path(tmp, str(n)))
        ]


def _expected() -> list[str]:
    return [line for line in GOLDEN.read_text(encoding="ascii").splitlines() if not line.startswith("#")]


def test_outputs_match_the_golden_digests():
    assert golden_lines() == _expected()


def test_one_flipped_map_cell_fails_the_golden_digests(monkeypatch):
    rebuild_map = pipeline.rebuild_map

    def flipped(*args, **kwargs):
        m = rebuild_map(*args, **kwargs)
        m.cells = m.cells.copy()
        free = m.cells[0, 0] == int(CellState.TRAVERSABLE)
        m.cells[0, 0] = int(CellState.UNTRAVERSABLE if free else CellState.TRAVERSABLE)
        return m

    monkeypatch.setattr(pipeline, "rebuild_map", flipped)
    got, expected = golden_lines(["I"]), _expected()[:3]
    assert [line.split(" sha256=")[0] for line in got] == [line.split(" sha256=")[0] for line in expected]
    # Both ablate lines change; the simulate line, which no map reaches, does not.
    assert [a != b for a, b in zip(got, expected)] == [True, True, False]


if __name__ == "__main__":
    print(HEADER, *golden_lines(), sep="\n")
