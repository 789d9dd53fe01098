"""Symmetric 1-to-2 qubit cloning machines and B92 eavesdropping analysis.

The package models a family of symmetric cloning machines parameterized by
apparatus inner products (zeta, eta, kappa), checks which parameter triples
are realizable by a unitary, synthesizes explicit machines, optimizes the
family for main-circle inputs, and quantifies what each machine buys an
eavesdropper on the B92 key-distribution protocol, analytically and by
seeded Monte Carlo simulation.
"""

from .qcore import (
    DensityMatrix,
    bloch_amplitudes,
    fidelities,
    fidelity,
    partial_trace,
    to_density,
)
from .machines import (
    BHParams,
    BUILTIN_MACHINES,
    CloningSpec,
    ValidationReport,
    builtin_spec,
    channel_spec,
    clone,
    feasible,
    fidelity_closed_form,
    gram_matrix,
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
    OptimizationResult,
    average_fidelity,
    optimize_average,
    optimize_equal_fidelity,
    scan_feasible_region,
)
from .b92 import (
    AttackAnalysis,
    ProtocolRun,
    attack_analysis,
    info_curve,
    simulate_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "AttackAnalysis",
    "BHParams",
    "BUILTIN_MACHINES",
    "CloningSpec",
    "DensityMatrix",
    "OptimizationResult",
    "ProtocolRun",
    "ValidationReport",
    "attack_analysis",
    "average_fidelity",
    "bloch_amplitudes",
    "builtin_spec",
    "channel_spec",
    "clone",
    "feasible",
    "fidelities",
    "fidelity",
    "fidelity_closed_form",
    "gram_matrix",
    "info_curve",
    "load_spec",
    "marginals",
    "meridional_spec",
    "optimize_average",
    "optimize_equal_fidelity",
    "partial_trace",
    "reduced_output_closed_form",
    "save_spec",
    "scan_feasible_region",
    "simulate_protocol",
    "synthesize",
    "to_density",
    "validate_unitarity",
    "wootters_zurek_spec",
]
