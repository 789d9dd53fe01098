"""Deterministic text rendering shared by the CLI and serializations.

Floats carry at most 12 significant digits, positional where the printed
12-digit value lies in [1e-4, 1e6) and scientific outside that window.
Twelve digits is coarse enough that parse -> re-emit reproduces the same
bytes (the nearest double to a 12-digit decimal rounds back to that
decimal), and deciding the window on the printed value rather than the
input keeps that so at the window's edges. That is all the format
guarantees: a value that numpy computes differently on another CPU dispatch
path can still print differently. A b92 curve over the five built-ins at
50,001 overlaps differs in 35 of its 750,015 cells between numpy's AVX-512
and AVX2 paths. A table is a float array, so every cell is a format_float,
and its text comes in chunks of at most BLOCK_ROWS rows, which the CLI
writes one by one, so the text is never joined or encoded whole. Records
mix ints, floats and strings. CSV record fields are quoted per RFC 4180
only where they hold a comma, a double quote or a line break, so plain
fields print bare.
"""

from __future__ import annotations

import numbers

import numpy as np

# rows per chunk of render_table's text
BLOCK_ROWS = 4096


def format_float(x: float) -> str:
    x = float(x)
    if x == 0.0:
        return "0"
    out = f"{x:.12g}"
    if 1e-4 <= abs(float(out)) < 1e6:
        return out
    # %g keeps magnitudes up to 1e12 positional; force scientific above 1e6
    return out if "e" in out else f"{x:.11e}"


def format_value(v) -> str:
    if isinstance(v, numbers.Integral):
        return str(int(v))
    if isinstance(v, numbers.Real):
        return format_float(float(v))
    return str(v)


def render_table(header, table, sep: str = ",") -> list[str]:
    """Header line, then one line per row of the 2-d float array `table`, as
    a list of chunks whose join is the text; the first chunk starts with the
    header line, and each ends in a line break and holds at most BLOCK_ROWS
    rows, so a table of at most BLOCK_ROWS rows is one chunk.

    Each column is formatted once per distinct value, separator (or line
    break) attached, and np.searchsorted picks each cell's text, so a chunk
    is one join over a (BLOCK_ROWS, cols) array of texts, reused block after
    block. np.unique merges -0.0 with 0.0 and every nan, which format_float
    prints alike; return_counts keeps it off numpy 2's hash path, whose
    masked-array check imports numpy.ma.
    """
    cells = np.asarray(table, dtype=float)
    ends = [sep] * (cells.shape[1] - 1) + ["\n"]
    columns = []
    for col, end in zip(cells.T, ends):
        values, _ = np.unique(col, return_counts=True)
        columns.append((values, np.array([format_float(v) + end for v in values.tolist()],
                                         dtype=object)))
    texts = np.empty((min(len(cells), BLOCK_ROWS), cells.shape[1]), dtype=object)
    chunks = []
    for start in range(0, max(len(cells), 1), BLOCK_ROWS):
        block = cells[start:start + BLOCK_ROWS]
        for j, (values, distinct) in enumerate(columns):
            texts[:len(block), j] = distinct[np.searchsorted(values, block[:, j])]
        chunks.append("".join(texts[:len(block)].ravel().tolist()))
    chunks[0] = sep.join(header) + "\n" + chunks[0]
    return chunks


def render_records_text(items) -> str:
    return "".join(f"{k}={format_value(v)}\n" for k, v in items)


def _csv_field(text: str) -> str:
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def render_records_csv(items) -> str:
    keys = [_csv_field(k) for k, _ in items]
    vals = [_csv_field(format_value(v)) for _, v in items]
    return ",".join(keys) + "\n" + ",".join(vals) + "\n"
