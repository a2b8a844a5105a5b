"""Hybrid classical-quantum tensor networks with variational ground-state search."""

from .pauli import (
    FieldValues,
    Hamiltonian,
    PauliTerm,
    SubsystemLayout,
    build_1d_cluster,
    build_2d_web,
    decompose_for_layout,
    hamiltonian_to_text,
)
from .statevector import (
    Circuit,
    GateOp,
    StateVector,
    build_hardware_efficient_ansatz,
    pauli_expectation,
)
from .tensors import (
    ClassicalTensor,
    HermitianObservable,
    MpsTensor,
    QuantumTensor,
    measure_branch_observable,
    realize_case,
)
from .tree import (
    EvalCounters,
    HybridTree,
    ProductObservable,
    build_two_layer_cq,
    build_two_layer_qc,
    build_two_layer_qq,
    tree_energy,
    tree_expectation,
    tree_overlap,
)
from .ite import (
    IteConfig,
    IteResult,
    TreeProblem,
    expand_in_subspace,
    run_ite,
    run_ite_tree,
    solve_subspace,
)
from .oracles import (
    OracleLimitError,
    exact_ground_energy,
    hamiltonian_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "FieldValues",
    "Hamiltonian",
    "PauliTerm",
    "SubsystemLayout",
    "build_1d_cluster",
    "build_2d_web",
    "decompose_for_layout",
    "hamiltonian_to_text",
    "Circuit",
    "GateOp",
    "StateVector",
    "build_hardware_efficient_ansatz",
    "pauli_expectation",
    "ClassicalTensor",
    "HermitianObservable",
    "MpsTensor",
    "QuantumTensor",
    "measure_branch_observable",
    "realize_case",
    "EvalCounters",
    "HybridTree",
    "ProductObservable",
    "build_two_layer_cq",
    "build_two_layer_qc",
    "build_two_layer_qq",
    "tree_energy",
    "tree_expectation",
    "tree_overlap",
    "IteConfig",
    "IteResult",
    "TreeProblem",
    "expand_in_subspace",
    "run_ite",
    "run_ite_tree",
    "solve_subspace",
    "OracleLimitError",
    "exact_ground_energy",
    "hamiltonian_matrix",
    "__version__",
]
