import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclone import rng

import oracles


def test_matches_published_splitmix64_outputs():
    # first three outputs of the reference splitmix64 sequence seeded with 0
    expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert [oracles.splitmix64(0, n) for n in range(3)] == expected


def test_uniform_range_and_determinism():
    vals = rng.trial_uniforms(12345, 50, (0, 1, 2))
    assert np.all((0.0 <= vals) & (vals < 1.0))
    np.testing.assert_array_equal(vals, rng.trial_uniforms(12345, 50, (0, 1, 2)))


def test_vectorized_matches_scalar():
    for draw in (0, 1, 5):
        arr = rng.trial_uniforms(777, 64, draw)
        assert arr.dtype == np.float64
        for trial in range(64):
            assert arr[trial] == oracles.trial_uniform(777, trial, draw)


def test_prefix_property():
    # trial streams are pure functions of (seed, trial, draw): extending the
    # run leaves earlier trials untouched
    short = rng.trial_uniforms(31415, 100, 0)
    long = rng.trial_uniforms(31415, 1000, 0)
    np.testing.assert_array_equal(short, long[:100])


@pytest.mark.parametrize("start, n", [(0, 50), (1, 0), (7, 1), (65_536, 300), (123_457, 64)])
def test_start_offset_is_a_slice_of_the_longer_range(start, n):
    for draw in (0, 1):
        got = rng.trial_uniforms(31415, n, draw, start=start)
        np.testing.assert_array_equal(got, rng.trial_uniforms(31415, start + n, draw)[start:])


def test_negative_start_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        rng.trial_uniforms(1, 10, 0, start=-1)


def test_seed_masked_to_64_bits():
    assert rng.trial_uniforms(2**64 + 5, 1, 1, start=3) == rng.trial_uniforms(5, 1, 1, start=3)
    assert rng.trial_uniforms(-1, 1, 0) == rng.trial_uniforms(2**64 - 1, 1, 0)


def test_draws_are_distinct_streams():
    a = rng.trial_uniforms(2, 1000, 0)
    b = rng.trial_uniforms(2, 1000, 1)
    assert not np.array_equal(a, b)
    # crude independence check: no shared values at matching positions
    assert np.count_nonzero(a == b) == 0


def test_uniformity_rough():
    vals = rng.trial_uniforms(99, 200_000, 0)
    assert abs(vals.mean() - 0.5) < 0.005
    hist, _ = np.histogram(vals, bins=10, range=(0, 1))
    assert hist.min() > 18_000


def test_distinct_seeds_differ():
    assert rng.trial_uniforms(0, 8, 0).tolist() != rng.trial_uniforms(1, 8, 0).tolist()


@pytest.mark.parametrize("seed", [0, 12345, 2 ** 64 - 1])
def test_matches_python_integer_oracle(seed):
    start = 2 ** 40 - 3
    got = rng.trial_uniforms(seed, 6, (2, 0, 1), start=start)
    want = [[oracles.trial_uniform(seed, start + t, d) for t in range(6)] for d in (2, 0, 1)]
    assert got.tolist() == want


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 64 - 1), start=st.integers(0, 2 ** 48), n=st.integers(0, 40),
       slots=st.lists(st.integers(0, 2 ** 20), min_size=1, max_size=5))
def test_multi_slot_call_equals_single_slot_rows(seed, start, n, slots):
    rows = rng.trial_uniforms(seed, n, slots, start=start)
    assert rows.shape == (len(slots), n)
    for row, slot in zip(rows, slots):
        np.testing.assert_array_equal(row, rng.trial_uniforms(seed, n, slot, start=start))


def test_negative_draw_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        rng.trial_uniforms(1, 10, (0, -1))


@pytest.mark.parametrize("kwargs", [
    {"n": 2.7}, {"seed": 0.9}, {"start": 1.5}, {"draw": True}, {"draw": [0, "1"]},
    {"draw": [0, True]}, {"n": "3"}, {"start": 2 ** 64 - 1},
], ids=["n-float", "seed-float", "start-float", "draw-bool", "draw-string", "draw-bool-slot",
        "n-string", "range-past-uint64"])
def test_arguments_must_be_integers(kwargs):
    """seed, n, start and every draw slot are integers, never cast: a float,
    a string or a bool is a ValueError, not truncated or taken as 0 or 1, and
    so is a trial range that runs past 2**64."""
    with pytest.raises(ValueError, match="integer"):
        rng.trial_uniforms(**{"seed": 0, "n": 5, "draw": 0, "start": 0, **kwargs})
