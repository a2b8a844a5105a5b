"""Helpers that only the tests use: reference evaluations, random and
product MPS, and parsers for the formats the package writes."""

import json
import math
from dataclasses import replace

import numpy as np

from hybridtn.pauli import Hamiltonian, PauliTerm, SubsystemLayout, decompose_for_layout
from hybridtn.statevector import (
    Circuit,
    GateOp,
    StateVector,
    apply_circuit_array,
    apply_pauli_array,
)
from hybridtn.tensors import (
    ClassicalTensor,
    MpsTensor,
    QuantumTensor,
    _direct_matrix,
    mps_general_expectation,
)
from hybridtn.tree import HybridTree, ProductObservable, _preorder


# ---------------------------------------------------------------------------
# the pointwise flow stencil

class PointwiseStencil:
    """The flow's two stencil methods from ``energy`` and ``overlap`` alone.

    Every stencil point is its own evaluation: p (p + 1) / 2 + p + 1
    overlaps for the metric and p + 1 energies for the gradient.  A class
    with ``num_params``, ``energy(params)`` and ``overlap(pa, pb)`` that
    mixes this in can be handed to :func:`hybridtn.ite.metric_a`,
    :func:`hybridtn.ite.gradient_c` and :func:`hybridtn.ite.run_ite`; it is
    the reference the batched stencil of :class:`hybridtn.ite.TreeProblem`
    is tested against.
    """

    def _overlap_fd_matrix(self, params, delta):
        p = self.num_params
        shifted = [params.copy() for _ in range(p)]
        for i in range(p):
            shifted[i][i] += delta
        s_mat = np.empty((p, p), dtype=complex)
        for i in range(p):
            for j in range(i, p):
                val = self.overlap(shifted[i], shifted[j])
                s_mat[i, j] = val
                s_mat[j, i] = np.conj(val)
        s_vec = np.array([self.overlap(params, sh) for sh in shifted])
        n0 = self.overlap(params, params)
        return (s_mat - np.conj(s_vec)[:, None] - s_vec[None, :] + n0).real

    def _energies_fd(self, params, delta):
        e0 = self.energy(params)
        evec = np.empty(self.num_params)
        for i in range(self.num_params):
            shifted = params.copy()
            shifted[i] += delta
            evec[i] = self.energy(shifted)
        return e0, evec


# ---------------------------------------------------------------------------
# contraction orders

def case1_expectation_orders(
    q: QuantumTensor,
    alpha: ClassicalTensor,
    weights: np.ndarray,
    local_obs: PauliTerm,
) -> tuple[float, float]:
    """Evaluate a case-1 pair + observable in both contraction orders.

    Order one realises psi~^m = sum_i alpha[i, m] psi^i first and then
    takes expectations; order two measures the branch matrix first and
    contracts classically.  The two must agree to working precision.
    """
    if alpha.entries.ndim != 2:
        raise ValueError("expected a matrix-shaped classical tensor")
    a = alpha.entries
    family = q.family_states()
    applied = apply_pauli_array(family, local_obs.factors, q.num_qubits)

    realized = np.einsum("im,ix->mx", a, family)
    realized_applied = np.einsum("im,ix->mx", a, applied)
    gram = local_obs.coefficient * np.einsum(
        "mx,nx->mn", realized.conj(), realized_applied
    )
    e_contract_first = float(np.real(np.einsum("mn,mn->", weights, gram)))

    m_branch = _direct_matrix(q, local_obs)
    e_measure_first = float(
        np.real(np.einsum("im,jn,mn,ij->", a.conj(), a, weights, m_branch))
    )
    return e_contract_first, e_measure_first


# ---------------------------------------------------------------------------
# matrix product states

def mps_expectation(m: MpsTensor, ops) -> complex:
    """Expectation of a product of single-site operators (None = identity)."""
    return mps_general_expectation(m, m, ops)


def random_mps(num_sites: int, chi: int, seed: int) -> MpsTensor:
    """Gaussian random MPS over binary sites, scaled to unit norm."""
    rng = np.random.default_rng(seed)
    cores = []
    for site in range(num_sites):
        left = 1 if site == 0 else chi
        right = 1 if site == num_sites - 1 else chi
        shape = (left, 2, right)
        core = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        cores.append(core / math.sqrt(left * 2 * right))
    m = MpsTensor(tuple(cores))
    norm_sq = mps_expectation(m, None).real
    return MpsTensor((m.cores[0] / math.sqrt(norm_sq),) + m.cores[1:])


def mps_from_product(bits: str) -> MpsTensor:
    """chi = 1 product state |bits> (leftmost character = site 0)."""
    cores = []
    for char in bits:
        core = np.zeros((1, 2, 1), dtype=complex)
        core[0, int(char), 0] = 1.0
        cores.append(core)
    return MpsTensor(tuple(cores))


# ---------------------------------------------------------------------------
# states and circuits

def init_basis_state(num_qubits: int, bits: str) -> StateVector:
    """Computational basis state labelled by ``bits`` (qubit n-1 leftmost)."""
    if len(bits) != num_qubits or set(bits) - {"0", "1"}:
        raise ValueError(f"bad basis label {bits!r} for {num_qubits} qubits")
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(num_qubits, amps)


def circuit_state(circuit: Circuit, params) -> np.ndarray:
    """Amplitudes of the circuit applied to |0..0> on the full register."""
    amps = np.zeros(2**circuit.num_qubits, dtype=complex)
    amps[0] = 1.0
    return apply_circuit_array(amps, circuit, np.asarray(params, dtype=float))


def circuit_from_json(text: str) -> Circuit:
    doc = json.loads(text)
    ops = tuple(
        GateOp(
            entry["kind"],
            tuple(entry["targets"]),
            param=entry.get("param"),
            angle=entry.get("angle"),
        )
        for entry in doc["ops"]
    )
    return Circuit(doc["num_qubits"], ops, doc["num_params"])


# ---------------------------------------------------------------------------
# flat parameter vectors

def payload_flat_params(payload: QuantumTensor) -> np.ndarray:
    return (
        np.concatenate(payload.params)
        if payload.params
        else np.zeros(0)
    )


def flat_params(tree: HybridTree) -> np.ndarray:
    """The tree's parameters, laid out by :meth:`HybridTree.param_slices`."""
    parts = [
        payload_flat_params(node.payload)
        for node in _preorder(tree.root)
        if isinstance(node.payload, QuantumTensor)
    ]
    return np.concatenate(parts) if parts else np.zeros(0)


# ---------------------------------------------------------------------------
# Hamiltonians

def pauli_term(coefficient, factors) -> PauliTerm:
    """Build a term from a {qubit: letter} mapping or pair iterable."""
    if hasattr(factors, "items"):
        factors = tuple(factors.items())
    return PauliTerm(coefficient, tuple(factors))


def to_global(layout: SubsystemLayout, subsystem: int, local: int) -> int:
    """Global qubit of local qubit ``local`` in subsystem ``subsystem``."""
    return sum(layout.subsystem_sizes[:subsystem]) + local


def product_observable(term: PauliTerm, layout: SubsystemLayout) -> ProductObservable:
    """The term's Pauli factors per subsystem, coefficient dropped."""
    decomposed = decompose_for_layout(
        Hamiltonian(layout.num_qubits, (replace(term, coefficient=1.0),)), layout
    )
    return ProductObservable(decomposed[0][1])


def recompose_for_layout(
    decomposed, layout: SubsystemLayout, num_qubits: int
) -> Hamiltonian:
    """Inverse of :func:`decompose_for_layout` (used for round-trip checks)."""
    terms = []
    for coeff, factors in decomposed:
        pairs = []
        for s, local_obs in enumerate(factors):
            for r, letter in local_obs:
                pairs.append((to_global(layout, s, r), letter))
        terms.append(PauliTerm(coeff, tuple(pairs)))
    return Hamiltonian(num_qubits, tuple(terms))


def hamiltonian_from_text(text: str) -> Hamiltonian:
    """Parse the line format written by :func:`hamiltonian_to_text`."""
    num_qubits = None
    terms = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if "qubits:" in line:
                num_qubits = int(line.split("qubits:")[1])
            continue
        fields = line.split()
        coeff = float(fields[0])
        factors = []
        for token in fields[1:]:
            letter, qubit = token[0], int(token[1:])
            factors.append((qubit, letter))
        terms.append(PauliTerm(coeff, tuple(factors)))
    if num_qubits is None:
        num_qubits = 1 + max(
            (term.max_qubit() for term in terms if term.factors), default=0
        )
    return Hamiltonian(num_qubits, tuple(terms))
