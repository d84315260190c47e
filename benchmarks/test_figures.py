"""Regenerate every table of ``figures.FIGURES`` and check its claim.

``pytest benchmarks -k fig11`` regenerates one table; a full run rewrites
all of them, and ``git diff benchmarks/results/`` is the review of a re-pin.
"""

import pathlib

import pytest
from figures import FIGURES, SessionState

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def state() -> SessionState:
    return SessionState()


@pytest.mark.parametrize("figure", FIGURES, ids=lambda figure: figure.name)
def test_figure(figure, state):
    result = figure.run(state)
    text = figure.render(result)
    assert figure.claim(result), f"{figure.name} no longer makes its claim:\n{text}"
    (RESULTS_DIR / f"{figure.name}.txt").write_text(text + "\n")


def _orphans(directory: pathlib.Path) -> set[str]:
    """The files in ``directory`` that no row writes."""
    return {path.name for path in directory.iterdir()} - {f"{f.name}.txt" for f in FIGURES}


def test_every_table_is_written_by_one_row():
    names = [figure.name for figure in FIGURES]
    assert len(set(names)) == len(names), "two rows write the same table"
    orphans = _orphans(RESULTS_DIR)
    assert not orphans, f"no row writes {sorted(orphans)}"


def test_a_stray_table_is_an_orphan(tmp_path):
    (tmp_path / f"{FIGURES[0].name}.txt").write_text("")
    (tmp_path / "fig99_stray.txt").write_text("")
    assert _orphans(tmp_path) == {"fig99_stray.txt"}
