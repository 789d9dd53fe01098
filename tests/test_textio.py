import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclone import textio
from qclone.optimizer import scan_feasible_region
from qclone.textio import (BLOCK_ROWS, format_float, format_value, render_records_csv,
                           render_records_text, render_table)


def test_basic_rendering():
    assert format_float(0.0) == "0"
    assert format_float(0.9) == "0.9"
    assert format_float(0.05) == "0.05"
    assert format_float(1e-10) == "1e-10"
    assert format_float(np.pi / 2) == "1.57079632679"
    assert format_float(float("nan")) == "nan"
    assert format_float(float("inf")) == "inf"
    assert format_float(-math.inf) == "-inf"
    assert format_float(-2.5e7).endswith("e+07")
    # the window [1e-4, 1e6) at each edge and its neighbours, which print as the edge
    edges = {1e-4: ("0.0001", "0.0001", "0.0001"),
             1e6: ("1.00000000000e+06", "1.00000000000e+06", "1.00000000000e+06")}
    for edge, texts in edges.items():
        xs = (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf))
        assert tuple(map(format_float, xs)) == texts
        assert tuple(format_float(-x) for x in xs) == tuple("-" + t for t in texts)


def test_format_value_kinds():
    assert format_value(3) == "3"
    assert format_value(np.int64(7)) == "7"
    assert format_value(True) == "1"
    assert format_value(np.float64(0.25)) == "0.25"
    assert format_value("text") == "text"


def test_roundtrip_idempotence():
    rng = np.random.default_rng(17)
    mags = rng.uniform(-12, 12, 500)
    xs = np.sign(rng.normal(size=500)) * 10.0 ** mags * rng.uniform(1, 10, 500)
    # just below each edge of the window, where 12 digits round up to the edge
    edges = [9.99999999999995e-05, np.nextafter(1e-4, 0.0), 999999.9999996,
             np.nextafter(1e6, 0.0)]
    for x in [*xs, *edges, *(-x for x in edges)]:
        s = format_float(float(x))
        assert format_float(float(s)) == s


def test_render_table_and_records():
    table = "".join(render_table(("a", "b"), [(1, 0.5), (2, 0.25)]))
    assert table == "a,b\n1,0.5\n2,0.25\n"
    cells = np.array([[-0.0, np.nan, np.inf], [-np.inf, 5e-5, 1e-4],
                      [1e6, 1e12, 0.0], [1.0, -1.0, np.pi]])
    for sep in (",", "\t"):
        lines = "".join(render_table(("x", "y", "z"), cells, sep)).split("\n")
        assert lines[0] == sep.join(("x", "y", "z")) and lines[-1] == ""
        assert len(lines) == len(cells) + 2
        for line, row in zip(lines[1:], cells):
            assert line == sep.join(format_float(x) for x in row)
    assert "".join(render_table(("x", "y", "z"), cells)).split("\n")[1] == "0,nan,inf"
    recs = render_records_text([("x", 1), ("y", "ok")])
    assert recs == "x=1\ny=ok\n"


# Values where format_float changes branch (nan, signed zeros and infinities,
# subnormals, the 1e-4 and 1e6 edges of the positional window, %g's switch
# at 1e12) and distinct floats that print alike (0.3 and 0.1 + 0.2).
CELL_POOL = [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
             2.2250738585072014e-308, 1e-4, math.nextafter(1e-4, 0.0), -1e-4,
             1e6, math.nextafter(1e6, 0.0), -1e6, 1e12, math.nextafter(1e12, math.inf),
             1.0, -1.0, 0.3, 0.1 + 0.2, 1 / 3, math.pi, 123456.7890123]


@st.composite
def pooled_tables(draw):
    cols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.sampled_from(CELL_POOL), min_size=cols, max_size=cols),
                         max_size=25))
    return np.array(rows, dtype=float).reshape(len(rows), cols)


@settings(deadline=None)
@given(pooled_tables(), st.sampled_from([",", "\t"]))
def test_render_table_matches_per_cell_formatting(cells, sep):
    header = [f"c{j}" for j in range(cells.shape[1])]
    lines = [sep.join(header)] + [sep.join(map(format_float, row)) for row in cells.tolist()]
    assert "".join(render_table(header, cells, sep)) == "\n".join(lines) + "\n"


def test_render_table_at_scale_matches_per_cell_formatting():
    # 20,000 rows: every column mixes the branch values of CELL_POOL with
    # random floats over 24 decades, so columns hold both repeated and
    # distinct values and nan, signed zeros and subnormals land anywhere
    rng = np.random.default_rng(12)
    shape = (20_000, 5)
    rand = np.sign(rng.normal(size=shape)) * 10.0 ** rng.uniform(-12, 12, shape)
    pooled = np.array(CELL_POOL)[rng.integers(len(CELL_POOL), size=shape)]
    cells = np.where(rng.random(shape) < 0.5, pooled, rand)
    header = [f"c{j}" for j in range(shape[1])]
    for sep in (",", "\t"):
        lines = [sep.join(header)] + [sep.join(map(format_float, row)) for row in cells.tolist()]
        assert "".join(render_table(header, cells, sep)) == "\n".join(lines) + "\n"


@pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                  2 * BLOCK_ROWS + 1])
def test_render_table_chunks(rows, monkeypatch):
    # pooled values repeat across blocks, so a column formatted block by
    # block would call format_float more often than it has distinct values
    rng = np.random.default_rng(rows)
    cells = np.array(CELL_POOL)[rng.integers(len(CELL_POOL), size=(rows, 3))]
    header = ["a", "b", "c"]
    lines = [",".join(header)] + [",".join(map(format_float, row)) for row in cells.tolist()]
    calls = []
    monkeypatch.setattr(textio, "format_float", lambda x: calls.append(x) or format_float(x))
    chunks = render_table(header, cells)
    assert "".join(chunks) == "\n".join(lines) + "\n"
    assert chunks[0].startswith("a,b,c\n")
    assert len(chunks) == max(1, math.ceil(rows / BLOCK_ROWS))
    for chunk in chunks:
        assert chunk.endswith("\n")
        assert chunk.count("\n") - chunk.startswith("a,b,c\n") <= BLOCK_ROWS
    assert len(calls) == sum(len(np.unique(col)) for col in cells.T)


def test_render_table_peak_memory_is_about_the_text():
    # the scan --grid-steps 56 table: 175,616 rows and 8.86 MB of text, which
    # three whole-table copies took to 2.84 times the text's length
    table = scan_feasible_region(56)
    tracemalloc.start()
    try:
        chunks = render_table(("zeta", "eta", "kappa", "feasible", "avg_fidelity"), table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * sum(map(len, chunks)) + 2**20


def test_csv_records_quote_only_fields_that_need_it():
    items = [("plain", "ok"), ("comma", "a,b"), ("quote", 'say "hi"'), ("break", "x\ny"),
             ("num", 0.5)]
    assert render_records_csv(items) == (
        'plain,comma,quote,break,num\nok,"a,b","say ""hi""","x\ny",0.5\n')
