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

trial_uniforms is the module's one entry point. It derives each trial's key
once and serves every requested draw slot from it, so k slots cost k + 1
finalizer passes per trial. The finalizer runs in place on uint64 buffers
the size of the trial range. The test suite checks it against a
Python-integer SplitMix64 written independently of this module.
"""

from __future__ import annotations

import numpy as np

from .qcore import _integer

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF
_TO_FLOAT = 2.0 ** -53


def _mix64(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place on the uint64 array x (wrapping mod
    2^64); tmp is scratch space of x's shape. Returns x."""
    for shift, mult in ((30, _M1), (27, _M2)):
        np.right_shift(x, shift, out=tmp)
        x ^= tmp
        x *= mult
    np.right_shift(x, 31, out=tmp)
    x ^= tmp
    return x


def _counter(x: np.ndarray, state) -> np.ndarray:
    """state + (x + 1) * GOLDEN, in place on the uint64 array x of sequence
    indices (wrapping mod 2^64): the word whose mix64 is output x of the
    sequence starting at `state`. Returns x."""
    x += np.uint64(1)
    x *= GOLDEN
    x += state
    return x


def trial_uniforms(seed: int, n: int, draw, start: int = 0) -> np.ndarray:
    """Uniform variates in [0, 1) for trial indices start..start+n-1.

    `draw` is one draw slot, giving shape (n,), or a sequence of k slots,
    giving shape (k, n) with row i for slot draw[i]. Any split of a trial
    range, and any grouping of slots, reproduces the same values. Every
    argument is an integer (qcore._integer; a float, string or bool raises
    ValueError): n, start, slots >= 0, start + n and slots < 2**64, seed mod 2**64."""
    seed = _integer(seed, f"seed must be an integer, got {seed!r}")
    n = _integer(n, f"trial count must be a non-negative integer, got {n!r}", 0)
    start = _integer(start, f"first trial index must be a non-negative integer with "
                            f"start + n < 2**64, got {start!r}", 0, _MASK - n)
    slots = np.array([_integer(s, f"draw slots must be non-negative integers below 2**64, "
                                  f"got {draw!r}", 0, _MASK)
                      for s in np.atleast_1d(np.asarray(draw, dtype=object))], dtype=np.uint64)
    keys = _counter(np.arange(start, start + n, dtype=np.uint64), np.uint64(seed & _MASK))
    tmp = np.empty_like(keys)
    _mix64(keys, tmp)  # output `trial` of the seed's sequence
    steps = _counter(slots, np.uint64(0))
    words = np.empty((len(slots), n), dtype=np.uint64)
    for row, step in zip(words, steps):
        np.add(keys, step, out=row)
        _mix64(row, tmp)  # output `slot` of the key's sequence
    words >>= np.uint64(11)  # below 2^53, so exact as int64 and as float64
    out = words.view(np.int64).astype(np.float64)
    out *= _TO_FLOAT
    return out if np.ndim(draw) else out[0]
