"""Average fidelity over the Eastern meridian and the optimal machine parameters.

The objective is the uniform-in-theta mean of the Eastern-branch fidelity,

    Favg(zeta, eta, kappa) = (3 - 2 zeta + eta + 4 kappa / pi) / 4,

maximized over the realizable region kappa^2 + eta^2 <= 4 zeta (1 - 2 zeta)
(the Cauchy-Schwarz bounds alone leave Favg unbounded above 1, so the Gram
positivity condition is what actually constrains the optimum; the result
notes record how the free optimum compares with the equal-fidelity point).

Both modes have closed-form optima:

  * equal-fidelity: maximize the common value F(0) = F(pi/2) = F(pi) on the
    Eastern branch. Equality at 0 and pi is automatic; equality at pi/2
    forces kappa = 1 - eta - 2 zeta, and the common value is 1 - zeta. On
    that line the Gram margin 4 zeta (1 - 2 zeta) - kappa^2 - eta^2 is a
    concave quadratic in eta, largest at eta = kappa = (1 - 2 zeta) / 2,
    where it equals (1 - 2 zeta)(10 zeta - 1) / 2. Feasibility therefore
    reduces to zeta >= 1/10, and the unique optimum is the boundary point
    (1/10, 2/5, 2/5) with F = 0.90.
  * average: maximize Favg itself, which gives a slightly larger mean at
    the cost of unequal anchor fidelities. For fixed zeta, Favg is affine in
    (eta, kappa) with gradient (1, 4/pi)/4, so its maximum on the quarter
    disk of radius r = 2 sqrt(zeta (1 - 2 zeta)) is (eta, kappa) =
    r (1, 4/pi) / c with c = sqrt(1 + 16/pi^2), and Favg = (3 - 2 zeta +
    c r) / 4. Setting the zeta-derivative to zero and squaring gives
    (16 c^2 + 8) zeta^2 - (8 c^2 + 4) zeta + c^2 = 0, whose discriminant is
    16 (2 c^2 + 1); the stationary point (zeta < 1/4) is the smaller root,
    zeta* = (1 - 1 / sqrt(2 c^2 + 1)) / 4.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .machines import BHParams, _require_feasible, gram_margin
from .qcore import BOUNDARY_TOL, FEASIBILITY_TOL, _integer

_FOUR_OVER_PI = 4.0 / np.pi


def _mean_fidelity(zeta, eta, kappa):
    """Favg = (3 - 2 zeta + eta + 4 kappa / pi) / 4, for scalars or arrays."""
    return (3.0 - 2.0 * zeta + eta + _FOUR_OVER_PI * kappa) / 4.0


def average_fidelity(p: BHParams) -> float:
    """Closed-form mean Eastern-meridian fidelity of a realizable triple."""
    _require_feasible(p)
    return _mean_fidelity(p.zeta, p.eta, p.kappa)


# the optimal machine of one mode, its objective value, which bounds are
# active there, and notes ("" when there are none)
_Result = namedtuple("_Result", "params objective boundary_active notes")


def _boundary_flags(p: BHParams) -> dict:
    return {
        "gram": abs(gram_margin(p.zeta, p.eta, p.kappa)) <= BOUNDARY_TOL,
        "zeta_lower": p.zeta <= BOUNDARY_TOL,
        "zeta_upper": abs(p.zeta - 0.5) <= BOUNDARY_TOL,
        "eta_lower": p.eta <= BOUNDARY_TOL,
        "kappa_lower": p.kappa <= BOUNDARY_TOL,
    }


def optimize_equal_fidelity() -> tuple:
    """Best machine with equal fidelity at the three anchor states.

    Maximizes F(0) subject to F(0) = F(pi) = F(pi/2) on the Eastern branch
    (which pins kappa = 1 - eta - 2 zeta) over the realizable region. The
    common value is 1 - zeta, and the smallest realizable zeta on that line
    is 1/10, so the optimum is (1/10, 2/5, 2/5) with fidelity 0.90.
    """
    zeta = 0.1
    eta = kappa = (1.0 - 2.0 * zeta) / 2.0
    params = BHParams(zeta, eta, kappa)
    return _Result(params, 1.0 - zeta, _boundary_flags(params), "")


def optimize_average() -> tuple:
    """Maximize the mean Eastern-meridian fidelity over the realizable set.

    The optimum lies on the Gram boundary at zeta* = (1 - 1/sqrt(2 c^2 + 1))/4,
    the smaller root of (16 c^2 + 8) zeta^2 - (8 c^2 + 4) zeta + c^2 = 0, with
    (eta, kappa) = r (1, 4/pi) / c, r = 2 sqrt(zeta* (1 - 2 zeta*)) and
    c = sqrt(1 + 16/pi^2).
    """
    c = np.sqrt(1.0 + _FOUR_OVER_PI ** 2)
    zeta = (1.0 - 1.0 / np.sqrt(2.0 * c * c + 1.0)) / 4.0
    r = 2.0 * np.sqrt(zeta * (1.0 - 2.0 * zeta))
    params = BHParams(zeta, r / c, r * _FOUR_OVER_PI / c)
    best = average_fidelity(params)
    equal_point = average_fidelity(optimize_equal_fidelity().params)
    notes = (
        f"free optimum exceeds the equal-fidelity point's average {equal_point:.6f} "
        f"by {best - equal_point:.6f}; maximizing the mean does not keep the three "
        "anchor fidelities equal")
    return _Result(params, float(best), _boundary_flags(params), notes)


def scan_feasible_region(grid_steps: int) -> np.ndarray:
    """Tabulate feasibility and mean fidelity on a uniform parameter grid.

    Grid is grid_steps points per axis over [0, 1/2] x [0, 1] x [0, 1]
    (zeta outermost, kappa innermost). Returns an (n, 5) array with columns
    (zeta, eta, kappa, feasible, favg); favg is NaN where infeasible.
    """
    grid_steps = _integer(grid_steps, f"grid_steps must be an integer, got {grid_steps!r}")
    if grid_steps < 2:
        raise ValueError(f"grid_steps must be at least 2, got {grid_steps}")
    # an open mesh: the axes broadcast, and no grid-sized copy of them is made
    zs, es, ks = np.ix_(np.linspace(0.0, 0.5, grid_steps), np.linspace(0.0, 1.0, grid_steps),
                        np.linspace(0.0, 1.0, grid_steps))
    out = np.empty((grid_steps,) * 3 + (5,))
    out[..., 0], out[..., 1], out[..., 2] = zs, es, ks
    feas = gram_margin(zs, es, ks) >= -FEASIBILITY_TOL
    out[..., 3] = feas
    out[..., 4] = np.where(feas, _mean_fidelity(zs, es, ks), np.nan)
    return out.reshape(-1, 5)

