"""Counter-based uniform variates built on SplitMix64.

Every variate is a pure function of (seed, trial, draw), so trials can be
generated in any order or partition and still reproduce the serial stream
exactly. The generator is SplitMix64 (Steele, Lea & Flood, 2014): output n
of the sequence seeded with s is

    mix64(s + (n + 1) * 0x9E3779B97F4A7C15)

where mix64 is the xor-shift/multiply finalizer with constants
0xBF58476D1CE4E5B9 and 0x94D049BB133111EB. A trial's stream key is output
`trial` of the seed sequence; draw j within the trial is output j of the
key's own sequence. Floats take the top 53 bits, uniform on [0, 1).
"""

from __future__ import annotations

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_TO_FLOAT = 2.0 ** -53


def _mix64(x):
    """SplitMix64 finalizer on uint64 scalars or arrays (wrapping mod 2^64)."""
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * _M1
        x = (x ^ (x >> np.uint64(27))) * _M2
        return x ^ (x >> np.uint64(31))


def _seq_output(state, n):
    """Output n (0-based) of the SplitMix64 sequence starting at `state`."""
    with np.errstate(over="ignore"):
        return _mix64(state + (n + np.uint64(1)) * GOLDEN)


def stream_key(seed: int, trial) -> np.uint64:
    """Per-trial stream key derived from (seed, trial index)."""
    s = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    t = np.asarray(trial, dtype=np.uint64)
    return _seq_output(s, t)


def uniform(seed: int, trial: int, draw: int) -> float:
    """Scalar uniform variate in [0, 1) for the given (seed, trial, draw)."""
    key = stream_key(seed, np.uint64(int(trial)))
    word = _seq_output(key, np.uint64(int(draw)))
    return float(word >> np.uint64(11)) * _TO_FLOAT


def trial_uniforms(seed: int, n: int, draw: int, start: int = 0) -> np.ndarray:
    """Uniform variates in [0, 1), one per trial index start..start+n-1, for
    one draw slot; any split of a trial range reproduces the whole range."""
    n, start = int(n), int(start)
    if n < 0:
        raise ValueError(f"trial count must be non-negative, got {n}")
    if start < 0:
        raise ValueError(f"first trial index must be non-negative, got {start}")
    keys = stream_key(seed, np.arange(start, start + n, dtype=np.uint64))
    words = _seq_output(keys, np.uint64(int(draw)))
    return (words >> np.uint64(11)).astype(np.float64) * _TO_FLOAT
