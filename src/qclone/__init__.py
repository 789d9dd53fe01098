"""Symmetric 1-to-2 qubit cloning machines and B92 eavesdropping analysis.

The package models a family of symmetric cloning machines parameterized by
apparatus inner products (zeta, eta, kappa), checks which parameter triples
are realizable by a unitary, synthesizes explicit machines, optimizes the
family for main-circle inputs, and quantifies what each machine buys an
eavesdropper on the B92 key-distribution protocol, analytically and by
seeded Monte Carlo simulation.
"""

from importlib import import_module

# Each public name and the module that defines it. A name's module is
# imported on first use of the name, so `import qclone` loads no numpy.
_EXPORTS = {
    "bloch_amplitudes": "qcore", "fidelities": "qcore",
    "BHParams": "machines", "BUILTIN_MACHINES": "machines", "CloningSpec": "machines",
    "builtin_spec": "machines", "channel_spec": "machines", "feasible": "machines",
    "fidelity_closed_form": "machines", "load_spec": "machines", "marginals": "machines",
    "meridional_spec": "machines", "reduced_output_closed_form": "machines",
    "save_spec": "machines", "synthesize": "machines", "validate_unitarity": "machines",
    "wootters_zurek_spec": "machines",
    "average_fidelity": "optimizer", "optimize_average": "optimizer",
    "optimize_equal_fidelity": "optimizer", "scan_feasible_region": "optimizer",
    "attack_analysis": "b92", "info_curve": "b92", "simulate_protocol": "b92",
}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this function
    return value
