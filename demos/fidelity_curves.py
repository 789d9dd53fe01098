"""Walk through the cloning-machine family and its fidelity curves.

Run: python3 demos/fidelity_curves.py
"""

import numpy as np

from qclone import (
    bloch_amplitudes,
    fidelities,
    fidelity_closed_form,
    marginals,
    meridional_spec,
    wootters_zurek_spec,
)

print("A symmetric 1->2 cloning machine is fixed by four apparatus vectors")
print("(Q0, Q1, Y0, Y1); only three inner products matter for a single clone:")
print("zeta = <Y|Y>, eta = 2<Y0|Q1>, kappa = 2<Q0|Y0>.\n")

spec = meridional_spec()
p = spec.bh_params()
print(f"The meridional machine has (zeta, eta, kappa) = "
      f"({p.zeta:.4f}, {p.eta:.4f}, {p.kappa:.4f}).")

rho = marginals(spec, bloch_amplitudes(0.0))
print("Cloning |0> gives each copy the mixed state")
print(np.round(rho.real, 6))
print()

print("Fidelity along the Eastern meridian (phi = 0) stays inside [0.90, 0.95]:")
print(f"{'theta':>8} {'F_east':>10} {'F_west':>10}")
for deg in range(0, 181, 15):
    theta = np.radians(deg)
    fe, fw = fidelity_closed_form(p, theta, [0.0, np.pi])
    print(f"{deg:>7}d {fe:>10.6f} {fw:>10.6f}")
print()
print("The Western branch pays for the Eastern optimum: it dips to 0.5 at the")
print("equator, which is what a random guess would score.\n")

print("Both branches are slices of one formula for any Bloch input:")
print("F(theta, phi) = 1 - zeta - (1 - 2 zeta - eta) sin^2(theta)/2")
print("                + (kappa/2) sin(theta) cos(phi),")
print("which for this machine is 9/10 - (1/5) sin(theta) (sin(theta) - cos(phi)).")
print("The full simulation reproduces it to machine precision:")
rng = np.random.default_rng(1)
thetas, phis = rng.uniform(0, np.pi, 500), rng.uniform(0, 2 * np.pi, 500)
states = bloch_amplitudes(thetas, phis)
worst = np.max(np.abs(fidelities(states, marginals(spec, states))
                      - fidelity_closed_form(p, thetas, phis)))
print(f"max |kernel - closed form| over 500 random states: {worst:.2e}\n")

wz = wootters_zurek_spec()
print("Compare the basis-copying machine (Y = 0): perfect at the poles,")
print("useless at the equator.")
for deg in (0, 45, 90):
    theta = np.radians(deg)
    s = bloch_amplitudes(theta)
    f = fidelities(s, marginals(wz, s))
    print(f"  theta = {deg:>3}d  F = {f:.6f}")
