"""Fresh studies against the committed golden data files.

The table, fig7 and fig8 studies are the session fixtures of
``conftest.py`` that the acceptance criteria use, so this comparison runs
no study of its own.  Counts and other integers must match exactly,
every other number within GOLDEN_RTOL relative, and the remaining text
exactly.  ``tests/golden/regen.py`` rewrites the files.
"""

import math

import pytest

from golden import regen

# A change that only reorders arithmetic has moved the norms by up to
# 6.2e-8 relative: this bound shows such a move and forgives last-digit
# noise.
GOLDEN_RTOL = 1e-9


def _number(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return None


def _cell_matches(golden: str, fresh: str) -> bool:
    if golden == fresh:
        return True
    g, f = _number(golden), _number(fresh)
    if isinstance(g, int) or isinstance(f, int) or g is None or f is None:
        return False
    if math.isnan(g) or math.isnan(f):
        return math.isnan(g) and math.isnan(f)
    return abs(g - f) <= GOLDEN_RTOL * max(abs(g), abs(f))


def _diff(name: str, golden: str, fresh: str) -> list:
    """One line per cell (or line) of ``fresh`` that differs from the
    golden text, naming its row and column."""
    want = [ln for ln in golden.splitlines()
            if not ln.startswith(regen.HEADER)]
    got = fresh.splitlines()
    if len(want) != len(got):
        return [f"{name}: {len(got)} lines, golden has {len(want)}"]
    columns = want[0].split(",")
    out = []
    for row, (w, g) in enumerate(zip(want, got), start=1):
        w_cells, g_cells = w.split(","), g.split(",")
        if len(w_cells) != len(g_cells):
            out.append(f"{name} line {row}: {g!r}, golden {w!r}")
            continue
        key = w_cells[0] if _number(w_cells[0]) is not None else (
            ",".join(w_cells[:2]))
        for col, (wc, gc) in enumerate(zip(w_cells, g_cells)):
            if not _cell_matches(wc, gc):
                label = columns[col] if col < len(columns) else col
                out.append(f"{name} line {row} ({key}) column {label}: "
                           f"{gc}, golden {wc}")
    return out


def test_studies_match_golden_files(table_run, fig7_runs, fig8_runs):
    fresh = regen.texts(table_run, fig7_runs["half"][1], fig8_runs)
    diffs, headers = [], []
    for name, text in fresh.items():
        golden = (regen.HERE / name).read_text()
        headers.append(f"{name}: {golden.splitlines()[0]}")
        diffs += _diff(name, golden, text)
    if diffs:
        pytest.fail("\n".join(
            ["studies differ from tests/golden:", *diffs,
             "written on:", *headers,
             f"this run: {regen.machine_block()}",
             "(on another machine, SuperLU's BLAS kernels can move MINRES "
             "counts by one)"]), pytrace=False)
