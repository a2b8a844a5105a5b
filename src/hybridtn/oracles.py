"""Brute-force reference implementations used to check the main paths.

Everything here trades efficiency for literalness: Hamiltonians of up to
``DENSE_LIMIT`` qubits become dense matrices via Kronecker products,
larger ones act through a matrix-free operator built from the Pauli bit
arithmetic alone, tree states are built by explicit summation over
classical labels, and the pair-contraction rules are transcribed as
einsum formulas.  The structured evaluators elsewhere in the package are
validated against these, so this module must not reuse their contraction
logic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import eigh_tridiagonal

from .pauli import Hamiltonian, PauliTerm, parity_signs, pauli_word_masks
from .statevector import StateVector
from .tensors import MpsTensor, QuantumTensor

DENSE_LIMIT = 10
ITERATIVE_LIMIT = 20
TREE_STATE_LIMIT = 16

_ID = np.eye(2, dtype=complex)
_P = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class OracleLimitError(ValueError):
    """Problem size exceeds what the oracle is allowed to attempt."""


def pauli_term_matrix(term: PauliTerm, num_qubits: int) -> np.ndarray:
    """Dense matrix of one term; qubit 0 is the least significant factor."""
    factor_map = term.factor_map()
    out = np.array([[1.0 + 0j]])
    for qubit in range(num_qubits):
        out = np.kron(_P.get(factor_map.get(qubit), _ID), out)
    return term.coefficient * out


def hamiltonian_matrix(h: Hamiltonian) -> np.ndarray:
    if h.num_qubits > DENSE_LIMIT:
        raise OracleLimitError(
            f"dense assembly limited to {DENSE_LIMIT} qubits, got {h.num_qubits}"
        )
    dim = 2**h.num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for term in h.terms:  # canonical order fixes the float summation order
        out += pauli_term_matrix(term, h.num_qubits)
    return out


@functools.lru_cache(maxsize=1)
def _compiled(h: Hamiltonian) -> tuple[tuple[object, tuple[int, ...]], ...]:
    """Terms grouped by X/Y flip mask, as (phase, flipped axes) pairs.

    A term c * W contributes phase ``c * (-i)**n_y * (-1)**popcount(x & s)``
    at output index x, read from amplitude ``x ^ m``, with (m, s, n_y) from
    :func:`~hybridtn.pauli.pauli_word_masks`.  Terms sharing a mask sum
    their phases; the phase stays a scalar when no term of the group has a
    Z or Y factor and is complex only when one has a Y factor.  Axis
    ``n - 1 - q`` of the ``(2,) * n`` amplitude view holds qubit q.
    """
    n = h.num_qubits
    idx = np.arange(2**n, dtype=np.int64).reshape((2,) * n)
    groups: dict[int, list[tuple[complex, int]]] = {}
    for term in h.terms:  # canonical order fixes the summation order
        flip, sign, n_y = pauli_word_masks(term.factors)
        coeff = term.coefficient * (-1j) ** n_y if n_y else term.coefficient
        groups.setdefault(flip, []).append((coeff, sign))
    compiled = []
    for flip, parts in sorted(groups.items()):
        phase = sum(
            coeff * parity_signs(idx, sign) if sign else coeff for coeff, sign in parts
        )
        axes = tuple(n - 1 - q for q in range(n) if flip >> q & 1)
        compiled.append((phase, axes))
    return tuple(compiled)


def apply_hamiltonian(amps: np.ndarray, h: Hamiltonian) -> np.ndarray:
    """Matrix-free H @ amps: one phase times one flipped view per flip mask."""
    psi = np.asarray(amps).reshape((2,) * h.num_qubits)
    out = np.zeros(psi.shape, dtype=complex)
    for phase, axes in _compiled(h):
        out += phase * np.flip(psi, axes)
    return out.reshape(-1)


def _lanczos_ground(h: Hamiltonian, seed: int) -> tuple[float, np.ndarray]:
    """Lanczos with full reorthogonalization and explicit restarts."""
    n = h.num_qubits
    dim = 2**n
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    krylov = min(dim, 80)
    basis = np.empty((krylov, dim), dtype=complex)
    previous = None
    for _ in range(60):  # restart cycles
        basis[0] = v
        alphas, betas = [], []
        w = apply_hamiltonian(v, h)
        a = float(np.real(np.vdot(v, w)))
        alphas.append(a)
        w = w - a * v
        for j in range(1, krylov):
            done = basis[:j]
            for _ in range(2):  # full reorthogonalization, twice, without conj copies
                w -= done.T @ np.conj(done @ np.conj(w))
            b = float(np.linalg.norm(w))
            if b < 1e-14:
                break
            basis[j] = w / b
            betas.append(b)
            w = apply_hamiltonian(basis[j], h)
            a = float(np.real(np.vdot(basis[j], w)))
            alphas.append(a)
            w = w - a * basis[j] - b * basis[j - 1]
        evals, evecs = eigh_tridiagonal(alphas, betas, select="i", select_range=(0, 0))
        ritz = float(evals[0])
        ground = evecs[:, 0] @ basis[: len(alphas)]
        ground /= np.linalg.norm(ground)
        residual = np.linalg.norm(apply_hamiltonian(ground, h) - ritz * ground)
        if previous is not None and abs(ritz - previous) < 1e-10 and residual < 1e-8:
            return ritz, ground
        previous = ritz
        v = ground
    raise OracleLimitError("Lanczos failed to converge within the restart budget")


def exact_ground_energy(h: Hamiltonian) -> tuple[float, StateVector]:
    """Ground energy and state: dense eigh up to 10 qubits, Lanczos to 20.

    Above ``DENSE_LIMIT`` no matrix is built: Lanczos runs on the
    matrix-free :func:`apply_hamiltonian`.
    """
    n = h.num_qubits
    if n <= DENSE_LIMIT:
        matrix = hamiltonian_matrix(h)
        evals, evecs = scipy.linalg.eigh(matrix, subset_by_index=[0, 0])
        return float(evals[0]), StateVector(n, evecs[:, 0].astype(complex))
    if n <= ITERATIVE_LIMIT:
        energy, vec = _lanczos_ground(h, seed=7)
        return energy, StateVector(n, vec)
    raise OracleLimitError(
        f"exact diagonalization limited to {ITERATIVE_LIMIT} qubits, got {n}"
    )


# ---------------------------------------------------------------------------
# dense embeddings of classical payloads

def mps_dense(m: MpsTensor) -> np.ndarray:
    """Coefficient tensor of an MPS, shape = site_dims (literal contraction)."""
    acc = m.cores[0]  # (1, p0, r)
    for core in m.cores[1:]:
        acc = np.einsum("...a,apb->...pb", acc, core)
    return acc.reshape(m.site_dims)


def dense_family(tensor) -> np.ndarray:
    """Stack of branch-index states as a dense (labels, dim) array.

    Quantum tensors yield their circuit families (projections for an open
    index); an MPS whose site 0 is the branch leg yields the slices of its
    dense coefficient tensor.
    """
    if isinstance(tensor, QuantumTensor):
        if tensor.open_qubit is not None:
            psi = tensor.joint_state().reshape((2,) * tensor.num_qubits)
            axis = tensor.num_qubits - 1 - tensor.open_qubit
            moved = np.moveaxis(psi, axis, 0)
            return moved.reshape(2, -1)
        return tensor.family_states()
    if isinstance(tensor, MpsTensor):
        coeffs = mps_dense(tensor)
        labels = coeffs.shape[0]
        # site m holds local qubit m-1, which is bit m-1 of the register
        # index, so reverse the remaining axes before flattening
        rows = [coeffs[i].transpose().reshape(-1) for i in range(labels)]
        return np.stack(rows)
    raise TypeError(f"no dense family for {type(tensor).__name__}")


# ---------------------------------------------------------------------------
# literal pair contraction (checks tensors.realize_case)

def dense_contract_pair(case: int, ta, label_a: str, tb, label_b: str):
    """Materialise one typed edge by literal tensor algebra.

    Returns (amps, squared_norm) where amps keeps a leading label axis and
    squared_norm is None except for case 5.  Implemented directly from the
    case equations over materialised family arrays; the only shared code
    with the operational route is the circuit simulator that defines the
    families themselves.
    """
    if case == 1:
        fam = ta.family_states()  # (L, dim)
        alpha = np.moveaxis(tb.entries, tb.axis_of(label_b), 0)
        flat = alpha.reshape(alpha.shape[0], -1)
        out = np.tensordot(flat.T, fam, axes=([1], [0]))
        return out, None
    if case == 2:
        group = ta.group_qubits(label_a)
        alpha = np.moveaxis(tb.entries, tb.axis_of(label_b), 0)
        flat = alpha.reshape(alpha.shape[0], -1)
        blocks = []
        for state in ta.family_states():
            proj = _literal_project(state, group, ta.num_qubits)
            blocks.append(np.tensordot(flat.T, proj, axes=([1], [0])))
        return np.concatenate(blocks, axis=0), None
    if case == 3:
        fam_a, fam_b = ta.family_states(), tb.family_states()
        # joint index = i_a + dim_a * i_b, i.e. tensor a on the low qubits
        out = np.einsum("ix,iy->yx", fam_a, fam_b).reshape(-1)
        return out[None, :], None
    if case == 4:
        group = ta.group_qubits(label_a)
        fam_b = tb.family_states()
        rows = []
        for state in ta.family_states():
            proj = _literal_project(state, group, ta.num_qubits)
            joint = np.einsum("ix,iy->yx", proj, fam_b).reshape(-1)
            rows.append(joint)
        return np.stack(rows), None
    if case == 5:
        ga, gb = ta.group_qubits(label_a), tb.group_qubits(label_b)
        proj_a = _literal_project(ta.joint_state(), ga, ta.num_qubits)
        proj_b = _literal_project(tb.joint_state(), gb, tb.num_qubits)
        out = np.einsum("ix,iy->yx", proj_a, proj_b).reshape(-1)
        norm_sq = float(np.sum(np.abs(out) ** 2))
        return out[None, :], norm_sq
    raise ValueError(f"unknown contraction case {case}")


def _literal_project(amps, group, n):
    """Same projection convention as the operational route, re-derived.

    Builds the (2**|g|, rest) array entry by entry from explicit bit
    arithmetic instead of axis moves.
    """
    g = len(group)
    rest_qubits = [q for q in range(n) if q not in group]
    out = np.zeros((2**g, 2 ** len(rest_qubits)), dtype=complex)
    for idx in range(2**n):
        gi = 0
        for j, q in enumerate(group):
            gi |= ((idx >> q) & 1) << j
        ri = 0
        for j, q in enumerate(rest_qubits):
            ri |= ((idx >> q) & 1) << j
        out[gi, ri] = amps[idx]
    return out


# ---------------------------------------------------------------------------
# dense tree states (checks tree_network evaluation)

@dataclass(frozen=True)
class DenseTreeSpec:
    """Ingredients of a two-layer tree in oracle-friendly form.

    ``coefficients`` is the dense root array alpha_{i1..ik} (shape (2,)*k
    for binary branch labels); ``branch_families`` holds one (labels, dim)
    array per branch, branch 0 occupying the lowest qubits.
    """

    coefficients: np.ndarray
    branch_families: tuple[np.ndarray, ...]


def dense_tree_state(spec: DenseTreeSpec) -> np.ndarray:
    """Explicit sum over classical labels of the branch product states."""
    dims = [fam.shape[1] for fam in spec.branch_families]
    total = int(np.prod(dims))
    if total > 2**TREE_STATE_LIMIT:
        raise OracleLimitError(
            f"dense tree state limited to {TREE_STATE_LIMIT} qubits"
        )
    k = len(spec.branch_families)
    if spec.coefficients.shape != tuple(
        fam.shape[0] for fam in spec.branch_families
    ):
        raise ValueError("coefficient shape does not match branch label counts")
    out = np.zeros(total, dtype=complex)
    for labels in np.ndindex(*spec.coefficients.shape):
        coeff = spec.coefficients[labels]
        if coeff == 0:
            continue
        piece = np.array([1.0 + 0j])
        for s in range(k - 1, -1, -1):  # kron: later branches are high qubits
            piece = np.kron(piece, spec.branch_families[s][labels[s]])
        out += coeff * piece
    return out
