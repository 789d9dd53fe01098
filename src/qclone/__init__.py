"""Symmetric 1-to-2 qubit cloning machines and B92 eavesdropping analysis.

The package models a family of symmetric cloning machines parameterized by
apparatus inner products (zeta, eta, kappa), checks which parameter triples
are realizable by a unitary, synthesizes explicit machines, optimizes the
family for main-circle inputs, and quantifies what each machine buys an
eavesdropper on the B92 key-distribution protocol, analytically and by
seeded Monte Carlo simulation.
"""

from .qcore import bloch_amplitudes, fidelities
from .machines import (
    BHParams,
    BUILTIN_MACHINES,
    CloningSpec,
    builtin_spec,
    channel_spec,
    feasible,
    fidelity_closed_form,
    load_spec,
    marginals,
    meridional_spec,
    reduced_output_closed_form,
    save_spec,
    synthesize,
    validate_unitarity,
    wootters_zurek_spec,
)
from .optimizer import (
    average_fidelity,
    optimize_average,
    optimize_equal_fidelity,
    scan_feasible_region,
)
from .b92 import (
    attack_analysis,
    info_curve,
    simulate_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "BHParams",
    "BUILTIN_MACHINES",
    "CloningSpec",
    "attack_analysis",
    "average_fidelity",
    "bloch_amplitudes",
    "builtin_spec",
    "channel_spec",
    "feasible",
    "fidelities",
    "fidelity_closed_form",
    "info_curve",
    "load_spec",
    "marginals",
    "meridional_spec",
    "optimize_average",
    "optimize_equal_fidelity",
    "reduced_output_closed_form",
    "save_spec",
    "scan_feasible_region",
    "simulate_protocol",
    "synthesize",
    "validate_unitarity",
    "wootters_zurek_spec",
]
