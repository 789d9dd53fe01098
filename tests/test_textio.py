import numpy as np

from qclone.textio import format_float, format_value, render_records_text, render_table


def test_basic_rendering():
    assert format_float(0.0) == "0"
    assert format_float(0.9) == "0.9"
    assert format_float(0.05) == "0.05"
    assert format_float(1e-10) == "1e-10"
    assert format_float(np.pi / 2) == "1.57079632679"
    assert format_float(float("nan")) == "nan"
    assert format_float(float("inf")) == "inf"
    assert format_float(-2.5e7).endswith("e+07")


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
    for x in xs:
        s = format_float(float(x))
        assert format_float(float(s)) == s


def test_render_table_and_records():
    table = render_table(("a", "b"), [(1, 0.5), (2, 0.25)])
    assert table == "a,b\n1,0.5\n2,0.25\n"
    cells = np.array([[-0.0, np.nan, np.inf], [-np.inf, 5e-5, 1e-4],
                      [1e6, 1e12, 0.0], [1.0, -1.0, np.pi]])
    for sep in (",", "\t"):
        lines = render_table(("x", "y", "z"), cells, sep).split("\n")
        assert lines[0] == sep.join(("x", "y", "z")) and lines[-1] == ""
        assert len(lines) == len(cells) + 2
        for line, row in zip(lines[1:], cells):
            assert line == sep.join(format_float(x) for x in row)
    assert render_table(("x", "y", "z"), cells).split("\n")[1] == "0,nan,inf"
    recs = render_records_text([("x", 1), ("y", "ok")])
    assert recs == "x=1\ny=ok\n"
