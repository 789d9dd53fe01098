"""Deterministic text rendering shared by the CLI and serializations.

Floats carry at most 12 significant digits, positional for magnitudes in
[1e-4, 1e6) and scientific outside that window. Twelve digits is coarse
enough that parse -> re-emit reproduces the same bytes (the nearest double
to a 12-digit decimal rounds back to that decimal), which keeps committed
golden files stable across platforms. A table is a float array, so every
cell is a format_float; records mix ints, floats and strings.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def format_float(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        return "0"
    out = f"{x:.12g}"
    if 1e-4 <= abs(x) < 1e6:
        return out
    # %g keeps magnitudes up to 1e12 positional; force scientific above 1e6
    return out if "e" in out else f"{x:.11e}"


def format_value(v) -> str:
    if isinstance(v, numbers.Integral):
        return str(int(v))
    if isinstance(v, numbers.Real):
        return format_float(float(v))
    return str(v)


def render_table(header, table, sep: str = ",") -> str:
    lines = [sep.join(header)]
    lines += [sep.join(map(format_float, row))
              for row in np.asarray(table, dtype=float).tolist()]
    return "\n".join(lines) + "\n"


def render_records_text(items) -> str:
    return "".join(f"{k}={format_value(v)}\n" for k, v in items)


def render_records_csv(items) -> str:
    keys = [k for k, _ in items]
    vals = [format_value(v) for _, v in items]
    return ",".join(keys) + "\n" + ",".join(vals) + "\n"
