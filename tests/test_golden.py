"""Fresh studies against the committed golden data files.

The table, fig7, fig8 and spectrum studies and ``ddcauchy verify`` are
session fixtures of ``conftest.py`` (the studies shared with the
acceptance criteria, verify with the CLI test), so this comparison runs
no study of its own, only the two ``ddcauchy solve`` triples of
solve.txt.  truth.csv, verify.txt and solve.txt must match byte for
byte.
In the other files counts, sizes, indices and other integers must match
exactly, every other number within GOLDEN_RTOL relative (eigenvalues, on
the data and ``# band`` lines of spectrum.csv, within SPECTRUM_TOL of the
largest |eigenvalue|), and the remaining text exactly.
``tests/golden/regen.py`` rewrites the files.
"""

import collections
import math

import pytest

from golden import regen

# A change that only reorders arithmetic has moved the norms by up to
# 6.2e-8 relative: this bound shows such a move and forgives last-digit
# noise.
GOLDEN_RTOL = 1e-9

# The dense eigensolver's BLAS calls sum in an order set by the thread
# count: between one and two threads the default spectrum's eigenvalues
# move by up to 2.3e-14 of the largest |eigenvalue|, so this bound
# forgives that and nothing near a change of the operator.
SPECTRUM_TOL = 1e-13


def _number(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return None


def _cell_matches(golden: str, fresh: str, rtol: float, atol: float) -> bool:
    if golden == fresh:
        return True
    g, f = _number(golden), _number(fresh)
    if isinstance(g, int) or isinstance(f, int) or g is None or f is None:
        return False
    if math.isnan(g) or math.isnan(f):
        return math.isnan(g) and math.isnan(f)
    return abs(g - f) <= max(rtol * max(abs(g), abs(f)), atol)


def _cells(line: str) -> list:
    """The cells of a CSV row, or the words of a ``#`` comment line."""
    return line.split() if line.startswith("#") else line.split(",")


def _diff(name: str, golden: str, fresh: str, rtol: float = GOLDEN_RTOL,
          atol: float = 0.0) -> list:
    """One line per cell (or line) of ``fresh`` that differs from the
    golden text, naming its row and column."""
    want = [ln for ln in golden.splitlines()
            if not ln.startswith(regen.HEADER)]
    got = fresh.splitlines()
    if len(want) != len(got):
        # rows per first cell (per table context in residuals.csv)
        count_w = collections.Counter(_cells(w)[0] for w in want)
        count_g = collections.Counter(_cells(g)[0] for g in got)
        return [f"{name}: {len(got)} lines, golden has {len(want)}"] + [
            f"{name} {key}: {count_g[key]} lines, golden {count_w[key]}"
            for key in sorted(count_w.keys() | count_g.keys())
            if count_w[key] != count_g[key]]
    columns = want[0].split(",")
    out = []
    for row, (w, g) in enumerate(zip(want, got), start=1):
        w_cells, g_cells = _cells(w), _cells(g)
        if len(w_cells) != len(g_cells):
            out.append(f"{name} line {row}: {g!r}, golden {w!r}")
            continue
        comment = w.startswith("#")
        if comment:
            key = " ".join(w_cells[:3])
        elif _number(w_cells[0]) is not None:
            key = w_cells[0]
        else:
            key = ",".join(w_cells[:2])
        for col, (wc, gc) in enumerate(zip(w_cells, g_cells)):
            if not _cell_matches(wc, gc, rtol, atol):
                label = (f"word {col}" if comment else
                         columns[col] if col < len(columns) else col)
                out.append(f"{name} line {row} ({key}) column {label}: "
                           f"{gc}, golden {wc}")
    return out


# Files whose text must not move at all.
EXACT = ("truth.csv", "verify.txt", "solve.txt")


def _diff_text(name: str, golden: str, fresh: str) -> list:
    """One line per line of ``fresh`` that differs from the golden text."""
    want = [ln for ln in golden.splitlines(keepends=True)
            if not ln.startswith(regen.HEADER)]
    got = fresh.splitlines(keepends=True)
    if len(want) != len(got):
        return [f"{name}: {len(got)} lines, golden has {len(want)}"]
    return [f"{name} line {row}: {g!r}, golden {w!r}"
            for row, (w, g) in enumerate(zip(want, got), start=1) if w != g]


def _largest_eigenvalue(golden: str) -> float:
    """max |eigenvalue| over the data rows of a golden spectrum.csv."""
    rows = [ln.split(",") for ln in golden.splitlines()[2:]
            if not ln.startswith("#")]
    return max(abs(float(value)) for _, value in rows)


def test_studies_match_golden_files(table_run, fig7_runs, fig8_runs,
                                    spectrum_run, verify_run):
    fresh = regen.texts(table_run, fig7_runs["half"][1], fig8_runs,
                        spectrum_run, verify_run[1], regen.solve_run())
    diffs, headers = [], []
    for name, text in fresh.items():
        golden = (regen.HERE / name).read_text()
        headers.append(f"{name}: {golden.splitlines()[0]}")
        if name in EXACT:
            diffs += _diff_text(name, golden, text)
        elif name == "spectrum.csv":
            diffs += _diff(name, golden, text, rtol=0.0, atol=SPECTRUM_TOL
                           * _largest_eigenvalue(golden))
        else:
            diffs += _diff(name, golden, text)
    if diffs:
        pytest.fail("\n".join(
            ["studies differ from tests/golden:", *diffs,
             "written on:", *headers,
             f"this run: {regen.machine_block()}",
             "(the numpy and OpenBLAS kernels that other CPUs pick have "
             "moved MINRES counts by up to 7 and kept eigenvalues within "
             "SPECTRUM_TOL)"]),
            pytrace=False)
