"""Qudit measurement-based quantum computation as a compiler stack.

Circuits and measurement patterns are the two intermediate
representations; rewrite passes bring patterns into completely standard
form, converters map between the representations, and a dense
statevector simulator provides the verification oracle.
"""

from .algebra import DimensionContext, PauliOperator, pauli_conjugate, pauli_multiply, pauli_to_matrix
from .circuit import Circuit, DepthReport, Operation, circuit_from_json, circuit_to_json, depth_and_size, lower_to_guni, simulate_circuit
from .pattern import (
    CorrectX,
    CorrectZ,
    Entangle,
    Measure,
    Pattern,
    Signal,
    entanglement_depth,
    entanglement_graph,
    pattern_depth_and_size,
    pattern_from_json,
    pattern_to_json,
    run,
    run_branches,
    validate,
)
from .rewrite import completely_standardise, pauli_simplify, signal_shift, standardise
from .sim import Gate, GateName, StateVector, fidelity_up_to_phase

__all__ = [
    "DimensionContext",
    "PauliOperator",
    "pauli_multiply",
    "pauli_conjugate",
    "pauli_to_matrix",
    "Gate",
    "GateName",
    "StateVector",
    "fidelity_up_to_phase",
    "Circuit",
    "Operation",
    "DepthReport",
    "depth_and_size",
    "simulate_circuit",
    "lower_to_guni",
    "circuit_to_json",
    "circuit_from_json",
    "Pattern",
    "Signal",
    "Entangle",
    "Measure",
    "CorrectX",
    "CorrectZ",
    "validate",
    "run",
    "run_branches",
    "pattern_depth_and_size",
    "entanglement_graph",
    "entanglement_depth",
    "pattern_to_json",
    "pattern_from_json",
    "standardise",
    "pauli_simplify",
    "signal_shift",
    "completely_standardise",
]

__version__ = "0.1.0"
