"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles (explicit
Gram matrices, loop-based partial traces, scipy entropy/optimizers) and
avoids the package's own closed forms so that agreement between the two
is evidence, not tautology. There is one oracle for each concept:

- realizability: gram_feasible_bruteforce
- mean fidelity: average_fidelity_quadrature, and its free optimum
  average_optimum_scalar
- clone: clone_pair_bruteforce (clone_bruteforce keeps clone a), on
  apparatus vectors given as data or built by apparatus_vectors
- channel: channel_output
- POVM: povm_elements on the signals of signal_states
- information: mutual_information_from_tables
- attack: attack, the per-state B92 reference (outcome tables from
  outcome_table, I and D) for any machine that machine_output takes
- simulation: simulate_b92_reference, one trial at a time on attack's tables
- RNG: trial_uniform, from splitmix64
"""

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.stats import entropy as shannon_entropy


# --- brute-force realizability -------------------------------------------
#
# A parameter triple (zeta, eta, kappa) is realizable iff the Gram matrix
# of the four apparatus vectors (Q0, Q1, Y0, Y1),
#
#        [[1-2z,  q,   k/2, e/2],
#   G =   [ q,   1-2z, e/2, k/2],
#         [k/2,  e/2,  z,   0  ],
#         [e/2,  k/2,  0,   z  ]],
#
# is positive semidefinite for some real overlap q. By Cauchy interlacing,
# lambda_min(G(q)) is at most the smallest eigenvalue of any principal
# submatrix, and the 2x2 ones on (Q0, Y0) and (Q0, Y1),
# [[1-2z, k/2], [k/2, z]] and [[1-2z, e/2], [e/2, z]], do not involve q.
# Where either eigenvalue is below -decide_tol no q can lift lambda_min(G(q))
# above it, so the search below would find that sample infeasible too, and
# it is decided without one. For the rest, lambda_min(G(q)) is concave in q
# (an infimum of affine functions) and 1-Lipschitz (dG/dq has unit spectral
# norm), so a coarse grid plus golden-section refinement with a Lipschitz
# certificate decides every sample whose margin is not essentially zero.

def _lambda_min(z, e, k, q):
    m = z.shape[0]
    g = np.zeros((m, 4, 4))
    g[:, 0, 0] = g[:, 1, 1] = 1.0 - 2.0 * z
    g[:, 2, 2] = g[:, 3, 3] = z
    g[:, 0, 1] = g[:, 1, 0] = q
    g[:, 0, 2] = g[:, 2, 0] = 0.5 * k
    g[:, 1, 3] = g[:, 3, 1] = 0.5 * k
    g[:, 0, 3] = g[:, 3, 0] = 0.5 * e
    g[:, 1, 2] = g[:, 2, 1] = 0.5 * e
    return np.linalg.eigvalsh(g)[:, 0]


def gram_feasible_bruteforce(zetas, etas, kappas, decide_tol=1e-12,
                             coarse_points=9, max_refine=80):
    """Boolean array: does some q make the Gram matrix PSD?

    Samples whose best eigenvalue stays within ``decide_tol`` of zero after
    refinement are reported by the sign of the best value found; callers
    comparing against a closed form should exclude near-boundary samples.
    """
    z = np.asarray(zetas, dtype=float)
    e = np.asarray(etas, dtype=float)
    k = np.asarray(kappas, dtype=float)
    answer = np.zeros(z.shape[0], dtype=bool)
    in_box = (z >= 0.0) & (z <= 0.5) & (e >= 0.0) & (k >= 0.0)
    # only in-box samples are searched, and only where the smaller eigenvalue
    # of the two q-free 2x2 submatrices (e, k >= 0 there) is not below -decide_tol
    sub_min = 0.5 * ((1.0 - z) - np.hypot(1.0 - 3.0 * z, np.maximum(e, k)))
    searched = np.nonzero(in_box & (sub_min >= -decide_tol))[0]
    z, e, k = z[searched], e[searched], k[searched]
    n = z.shape[0]

    # PSD needs |q| <= 1 - 2z (2x2 principal minor), so search that bracket.
    qmax = 1.0 - 2.0 * z
    best = np.full(n, -np.inf)
    best_frac = np.zeros(n)
    fracs = np.linspace(-1.0, 1.0, coarse_points)
    for f in fracs:
        # a sample already found feasible is decided; the others go on
        todo = np.nonzero(best < -decide_tol)[0]
        lam = _lambda_min(z[todo], e[todo], k[todo], f * qmax[todo])
        better = lam > best[todo]
        best[todo] = np.where(better, lam, best[todo])
        best_frac[todo] = np.where(better, f, best_frac[todo])

    spacing = (fracs[1] - fracs[0]) * qmax
    lo = np.maximum(best_frac - (fracs[1] - fracs[0]), -1.0) * qmax
    hi = np.minimum(best_frac + (fracs[1] - fracs[0]), 1.0) * qmax

    feasible = best >= -decide_tol
    # certificate: true max <= best observed + half the unexplored width
    undecided = ~feasible & (best + spacing > -decide_tol)
    idx = np.nonzero(undecided)[0]
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    it = 0
    while idx.size and it < max_refine:
        it += 1
        a, b = lo[idx], hi[idx]
        x1 = b - inv_phi * (b - a)
        x2 = a + inv_phi * (b - a)
        l1 = _lambda_min(z[idx], e[idx], k[idx], x1)
        l2 = _lambda_min(z[idx], e[idx], k[idx], x2)
        keep_right = l2 >= l1
        lo[idx] = np.where(keep_right, x1, a)
        hi[idx] = np.where(keep_right, b, x2)
        best[idx] = np.maximum(best[idx], np.maximum(l1, l2))
        feasible[idx] |= best[idx] >= -decide_tol
        width = hi[idx] - lo[idx]
        still = ~feasible[idx] & (best[idx] + 0.5 * width > -decide_tol)
        idx = idx[still]
    answer[searched] = feasible
    return answer


# --- information chain -----------------------------------------------------

def signal_states(vartheta):
    """B92 signal amplitudes u and v from plain trig, no package code."""
    u = np.array([np.cos(vartheta / 2.0), np.sin(vartheta / 2.0)])
    v = np.array([np.sin(vartheta / 2.0), np.cos(vartheta / 2.0)])
    return u, v


def povm_elements(vartheta):
    """B92 discrimination operators from plain trig, no package code."""
    u, v = signal_states(vartheta)
    s = float(u @ v)
    g1 = (np.eye(2) - np.outer(u, u)) / (1.0 + s)
    g2 = (np.eye(2) - np.outer(v, v)) / (1.0 + s)
    return g1, g2, np.eye(2) - g1 - g2


def mutual_information_from_tables(p_u, p_v):
    """I in bits given per-outcome probabilities for the two equiprobable states."""
    info = 1.0
    for mu in range(3):
        joint = np.array([0.5 * p_u[mu], 0.5 * p_v[mu]])
        q_mu = joint.sum()
        if q_mu <= 0.0:
            continue
        info -= q_mu * shannon_entropy(joint / q_mu, base=2)
    return float(info)


# --- mean fidelity and its free optimum -----------------------------------

def average_fidelity_quadrature(zeta, eta, kappa, nodes=100_000):
    """Trapezoid-rule mean of the Eastern-branch fidelity over [0, pi].

    Agrees with the package's closed form to well below 1e-8 at 1e5 nodes.
    """
    theta = np.linspace(0.0, np.pi, nodes)
    st = np.sin(theta)
    f = (1 - zeta) - 0.5 * (1 - eta - 2 * zeta) * st * st + (kappa / 2) * st
    return float(np.trapezoid(f, theta) / np.pi)


def average_optimum_scalar():
    """Best (zeta, eta, kappa) for the mean main-circle fidelity.

    For fixed zeta the mean is affine in (eta, kappa) with gradient
    (1, 4/pi)/4, so on the quarter disk of radius r = 2 sqrt(z (1 - 2z))
    the maximum sits at (eta, kappa) = r (1, 4/pi) / sqrt(1 + 16/pi^2).
    The remaining scalar problem in zeta is solved by Brent search.
    """
    c = np.sqrt(1.0 + 16.0 / np.pi ** 2)

    def neg_mean(z):
        r = 2.0 * np.sqrt(max(z * (1.0 - 2.0 * z), 0.0))
        eta = r / c
        kappa = r * (4.0 / np.pi) / c
        return -(3.0 - 2.0 * z + eta + 4.0 * kappa / np.pi) / 4.0

    res = minimize_scalar(neg_mean, bounds=(0.0, 0.5), method="bounded",
                          options={"xatol": 1e-12})
    z = float(res.x)
    r = 2.0 * np.sqrt(z * (1.0 - 2.0 * z))
    return z, r / c, r * (4.0 / np.pi) / c, -float(res.fun)


# --- cloning attacks and the B92 protocol, one trial at a time -------------

def clone_pair_bruteforce(vectors, alpha, beta):
    """Both clones' outputs (rho_a, rho_b) of the machine with apparatus
    vectors (Q0, Q1, Y0, Y1) on alpha|0> + beta|1>, via explicit loops over
    the joint |a b apparatus> amplitudes: rho_a traces out clone b and the
    apparatus, rho_b traces out clone a and the apparatus."""
    q0, q1, y0, y1 = (np.asarray(v, dtype=complex) for v in vectors)
    joint = np.zeros((2, 2, len(q0)), dtype=complex)
    for x in range(len(q0)):
        joint[0, 0, x] = alpha * q0[x]
        joint[1, 1, x] = beta * q1[x]
        joint[0, 1, x] = joint[1, 0, x] = alpha * y0[x] + beta * y1[x]
    rho_a = np.zeros((2, 2), dtype=complex)
    rho_b = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for ip in range(2):
            for j in range(2):
                for x in range(len(q0)):
                    rho_a[i, ip] += joint[i, j, x] * np.conj(joint[ip, j, x])
                    rho_b[i, ip] += joint[j, i, x] * np.conj(joint[j, ip, x])
    return rho_a / np.trace(rho_a).real, rho_b / np.trace(rho_b).real


def clone_bruteforce(vectors, alpha, beta):
    """Clone a's output from clone_pair_bruteforce."""
    return clone_pair_bruteforce(vectors, alpha, beta)[0]


def apparatus_vectors(zeta, eta, kappa):
    """Apparatus vectors (Q0, Q1, Y0, Y1) in three dimensions realizing a
    realizable (zeta, eta, kappa), built by hand.

    Y0 = sqrt(z) e1 and Y1 = sqrt(z) e2 are orthogonal with norm z; Q0 and
    Q1 carry the eta/2 and kappa/2 overlaps with them and a shared e0
    component r that completes the norm 1 - 2z. r^2 >= 0 is the
    realizability condition kappa^2 + eta^2 <= 4 z (1 - 2 z); it is clamped
    at 0 against rounding on the boundary. At zeta = 0 the Y vectors vanish
    and Q0 = Q1 = e0.
    """
    if zeta == 0.0:
        e0 = np.array([1.0, 0.0, 0.0])
        return e0, e0, np.zeros(3), np.zeros(3)
    s = np.sqrt(zeta)
    r = np.sqrt(max(1.0 - 2.0 * zeta - (kappa ** 2 + eta ** 2) / (4.0 * zeta), 0.0))
    return (np.array([r, kappa / (2 * s), eta / (2 * s)]),
            np.array([r, eta / (2 * s), kappa / (2 * s)]),
            np.array([0.0, s, 0.0]),
            np.array([0.0, 0.0, s]))


def channel_output(fidelity, state):
    """F |s><s| + (1 - F) |s_perp><s_perp| for a qubit amplitude pair s,
    with s_perp = (-conj s1, conj s0)."""
    s = np.asarray(state, dtype=complex)
    s_perp = np.array([-np.conj(s[1]), np.conj(s[0])])
    return (fidelity * np.outer(s, s.conj())
            + (1.0 - fidelity) * np.outer(s_perp, s_perp.conj()))


def machine_output(machine, state):
    """Single-clone output on the amplitude pair `state` of a machine given
    as data: a channel fidelity (a float), a (zeta, eta, kappa) triple
    realized by apparatus_vectors, or an object with `variant` 'channel' and
    `clone_fidelity`, or else apparatus vectors `q0`, `q1`, `y0` and `y1`."""
    if isinstance(machine, float):
        return channel_output(machine, state)
    if isinstance(machine, tuple):
        return clone_bruteforce(apparatus_vectors(*machine), *state)
    if machine.variant == "channel":
        return channel_output(machine.clone_fidelity, state)
    return clone_bruteforce((machine.q0, machine.q1, machine.y0, machine.y1), *state)


def outcome_table(vartheta, rho):
    """Tr(G_mu rho) over Bob's three outcomes, its rounding noise clipped
    into [0, 1] as the package clips it (unclipped, the ideal channel's
    tables give I = inf)."""
    return np.clip([np.trace(g @ rho).real for g in povm_elements(vartheta)], 0.0, 1.0)


def attack(machine, vartheta):
    """(table_u, table_v, I, D) of a cloning attack on B92 at vartheta: the
    outcome tables of each signal's clone (machine_output), I in bits from
    them, and D the larger of the two signals' <s_perp|rho_s|s_perp>."""
    tables, discrepancies = [], []
    for s in signal_states(vartheta):
        rho = machine_output(machine, s)
        tables.append(outcome_table(vartheta, rho))
        s_perp = np.array([-s[1], s[0]])
        discrepancies.append(np.vdot(s_perp, rho @ s_perp).real)
    return (*tables, mutual_information_from_tables(*tables), max(discrepancies))


def qubit_amplitudes(theta, phi=0.0):
    """(cos(theta/2), e^{i phi} sin(theta/2)) from plain trig."""
    return np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])


_MASK64 = (1 << 64) - 1


def splitmix64(state, n):
    """Output n (0-based) of the SplitMix64 sequence seeded with `state`
    (Steele, Lea & Flood 2014), in Python integers."""
    z = (state + (n + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def trial_uniform(seed, trial, draw):
    """Draw `draw` of trial `trial`: the trial's key is output `trial` of the
    seed's sequence, the draw is output `draw` of the key's sequence, and its
    top 53 bits make a float in [0, 1)."""
    return (splitmix64(splitmix64(seed, trial), draw) >> 11) / 2 ** 53


def simulate_b92_reference(machine, vartheta, n, seed):
    """(conclusive, errors) of n B92 trials on attack's outcome tables, run
    one trial at a time.

    Draw 0 picks the bit (>= 1/2 sends v, bit 1); draw 1 picks Bob's outcome
    by inverse CDF over (G1, G2, G3). G1 decodes as bit 1, G2 as bit 0."""
    tables = attack(machine, vartheta)[:2]
    conclusive = errors = 0
    for trial in range(n):
        bit = 1 if trial_uniform(seed, trial, 0) >= 0.5 else 0
        p_g1, p_g2, _ = tables[bit]
        x = trial_uniform(seed, trial, 1)
        if x < p_g1:
            decoded = 1
        elif x < p_g1 + p_g2:
            decoded = 0
        else:
            continue
        conclusive += 1
        errors += decoded != bit
    return conclusive, errors
