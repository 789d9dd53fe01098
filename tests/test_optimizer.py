import numpy as np
import pytest

from qclone.machines import BHParams, feasible
from qclone.optimizer import (
    average_fidelity,
    optimize_average,
    optimize_equal_fidelity,
    scan_feasible_region,
)

import oracles

# reference values frozen from the scipy scalar reduction in oracles.py
FREE_OPT_ZETA = 0.14993816796919426
FREE_OPT_ETA = 0.40024733889577957
FREE_OPT_KAPPA = 0.50961073955712277
FREE_OPT_MEAN = 0.9373068872458129


def test_average_fidelity_at_equal_fidelity_point():
    val = average_fidelity(BHParams(0.1, 0.4, 0.4))
    assert val == pytest.approx((3 - 0.2 + 0.4 + 1.6 / np.pi) / 4, abs=1e-15)
    assert round(val, 3) == 0.927


def test_average_fidelity_requires_feasible():
    with pytest.raises(ValueError):
        average_fidelity(BHParams(0.1, 0.7, 0.7))


def test_quadrature_matches_closed_form():
    rng = np.random.default_rng(31)
    done = 0
    while done < 20:
        p = BHParams(rng.uniform(0, 0.5), rng.uniform(0, 1), rng.uniform(0, 1))
        if not feasible(p):
            continue
        assert oracles.average_fidelity_quadrature(p.zeta, p.eta, p.kappa) == pytest.approx(
            average_fidelity(p), abs=1e-8)
        done += 1


def test_equal_fidelity_optimum():
    res = optimize_equal_fidelity()
    assert res.mode == "equal-fidelity"
    assert res.params.zeta == pytest.approx(0.1, abs=1e-6)
    assert res.params.eta == pytest.approx(0.4, abs=1e-6)
    assert res.params.kappa == pytest.approx(0.4, abs=1e-6)
    assert res.objective == pytest.approx(0.9, abs=1e-9)
    assert res.boundary_active["gram"]
    # the defining constraint of the mode
    assert res.params.kappa == pytest.approx(1 - res.params.eta - 2 * res.params.zeta,
                                             abs=1e-12)
    assert feasible(res.params)


def test_equal_fidelity_optimum_is_exact():
    p = optimize_equal_fidelity().params
    assert (p.zeta, p.eta, p.kappa) == pytest.approx((0.1, 0.4, 0.4), abs=1e-15)


def test_average_optimum_matches_scalar_oracle():
    res = optimize_average()
    assert res.mode == "average"
    z, e, k, f = oracles.average_optimum_scalar()
    assert res.objective == pytest.approx(f, abs=1e-9)
    assert res.objective == pytest.approx(FREE_OPT_MEAN, abs=1e-9)
    # the mean is flat near the top, so parameters are pinned more loosely
    assert res.params.zeta == pytest.approx(FREE_OPT_ZETA, abs=1e-4)
    assert res.params.eta == pytest.approx(FREE_OPT_ETA, abs=1e-4)
    assert res.params.kappa == pytest.approx(FREE_OPT_KAPPA, abs=1e-4)
    assert res.boundary_active["gram"]
    assert feasible(res.params)
    assert "equal-fidelity" in res.notes


def test_average_optimum_beats_equal_fidelity_point():
    res = optimize_average()
    assert res.objective > average_fidelity(BHParams(0.1, 0.4, 0.4)) + 0.005


def test_objective_range_invariant():
    for res in (optimize_equal_fidelity(), optimize_average()):
        assert 0.5 <= res.objective <= 1.0


def test_scan_shape_and_flags():
    rows = scan_feasible_region(4)
    assert rows.shape == (64, 5)
    feas = rows[:, 3] == 1.0
    assert np.isfinite(rows[feas, 4]).all()
    assert np.isnan(rows[~feas, 4]).all()
    for r in rows:
        assert feasible(BHParams(r[0], r[1], r[2])) == bool(r[3])
    with pytest.raises(ValueError):
        scan_feasible_region(1)


def test_scan_feasible_fraction_pinned():
    # regression pin for the 50^3 grid; it counts the four grid points on the
    # exact Gram boundary, such as (9/98, 12/49, 24/49) and (10/49, 2/49,
    # 34/49), whose float margin is -5.6e-17
    rows = scan_feasible_region(50)
    assert rows.shape == (125000, 5)
    assert int(rows[:, 3].sum()) == 32110
    feas = rows[:, 3] == 1.0
    assert rows[feas, 4].max() == pytest.approx(0.9365191279267546, abs=1e-12)
    assert rows[feas, 4].min() == pytest.approx(0.5, abs=1e-12)
