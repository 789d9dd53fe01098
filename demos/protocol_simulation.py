"""Monte Carlo B92 runs with a counter-based generator.

Run: python3 demos/protocol_simulation.py
"""

import numpy as np

from qclone import attack_analysis, builtin_spec, meridional_spec, simulate_protocol
from qclone.textio import render_records_text

VARTHETA = 0.7
N = 50_000

print("Every trial draws Alice's bit and Bob's measurement outcome from a")
print("SplitMix64 stream keyed by (seed, trial index), so a run is a pure")
print("function of its seed; rerunning, resuming, or sharding trials across")
print("workers cannot change a single outcome.\n")

clean = simulate_protocol(builtin_spec("ideal"), VARTHETA, N, seed=2024)
print(f"No eavesdropper, n = {N}, seed 2024:")
print("  " + render_records_text(clean._asdict().items()).replace("\n", "\n  ").rstrip("  "))
print("Unambiguous discrimination never errs on intact states; the only cost")
print(f"is the inconclusive rate near sin(vartheta) = {np.sin(VARTHETA):.4f}.\n")

spec = meridional_spec()
attacked = simulate_protocol(spec, VARTHETA, N, seed=2024)
print("Same seed, meridional attack in the channel:")
print("  " + render_records_text(attacked._asdict().items()).replace("\n", "\n  ").rstrip("  "))

ana = attack_analysis(spec, VARTHETA)
(p1u, p1v), (p2u, p2v), _ = (ana.outcome_probs[k] for k in ("G1", "G2", "G3"))
pc = 0.5 * (p1u + p2u + p1v + p2v)
pe = (0.5 * p1u + 0.5 * p2v) / pc
print(f"Analytic rates: conclusive {pc:.5f}, error {pe:.5f}.")
print("The cloning disturbance now shows up as conclusive errors Bob and")
print("Alice can catch by comparing a sample of the sifted key.\n")

print("Calibration across 20 seeds (should hug the analytic values):")
print(f"{'seed':>6} {'conclusive':>11} {'error':>9}")
for seed in range(20):
    run = simulate_protocol(spec, VARTHETA, N, seed)
    print(f"{seed:>6} {run.conclusive_rate:>11.5f} {run.error_rate:>9.5f}")

se_c = np.sqrt(pc * (1 - pc) / N)
print(f"\nBinomial standard error on the conclusive rate is {se_c:.5f};")
print("the spread above is exactly that scale, which is the whole point of")
print("an honest generator: the only randomness left is the physics.")
