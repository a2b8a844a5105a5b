"""Brute-force reference implementations used to check the main paths.

Everything here trades efficiency for literalness.  The ground-state
oracle works from the Pauli bit arithmetic alone: each term is compiled
to a bit flip and a phase, and Hamiltonians of up to ``DENSE_LIMIT``
qubits are diagonalized as the dense matrix written from those flips and
phases, larger ones through the matrix-free operator they define.
:func:`hamiltonian_matrix` is the literal reference, one Kronecker product
per term (up to ``DENSE_MATRIX_BYTES``), and the tests check the oracle
against it.  :func:`dense_tree_state` builds the state of any tree by
explicit summation over classical labels, in the pre-order qubit layout
of :attr:`~hybridtn.tree.HybridTree.layout`, and the pair-contraction
rules are transcribed as einsum formulas.  The structured evaluators
elsewhere in the package are validated against these, so this module
must not reuse their contraction logic: from :mod:`hybridtn.tree` it
reads the data classes alone, and it calls no MPS transfer contraction.

The module needs numpy only: every ``hybridtn run`` calls the ground-state
oracle, and importing ``scipy.linalg`` would cost more than the oracle.
"""

from __future__ import annotations

import numpy as np

# numpy imports np.random on first use; import it with the module, so that
# the first oracle call does not pay for it
import numpy.random  # noqa: F401

from .pauli import Hamiltonian, PauliTerm, parity_signs, pauli_word_masks
from .statevector import StateVector
from .tensors import MpsTensor, QuantumTensor
from .tree import HybridTree, TreeNode

# the crossover: an eigh of the compiled dense matrix against Lanczos took
# 6.6-6.9 against 6.5-6.7 ms at 8 qubits, 0.35-0.60 against 2.2-2.4 ms at 6
DENSE_LIMIT = 8
DENSE_MATRIX_BYTES = 2**24  # hamiltonian_matrix's 4**n * 16 bytes: 10 qubits
ITERATIVE_LIMIT = 20
LANCZOS_BASIS = 24  # Krylov vectors the Lanczos oracle holds
LANCZOS_KEPT = 8  # Ritz vectors a thick restart keeps
_LANCZOS_STEPS = 4800  # the budget: 300 thick restarts of 16 steps
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
    """The literal dense reference: every term's Kronecker product, summed."""
    if 16 * 4**h.num_qubits > DENSE_MATRIX_BYTES:
        raise OracleLimitError(
            f"a dense {h.num_qubits}-qubit matrix exceeds {DENSE_MATRIX_BYTES} bytes"
        )
    dim = 2**h.num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for term in h.terms:  # canonical order fixes the float summation order
        out += pauli_term_matrix(term, h.num_qubits)
    return out


def _compiled(h: Hamiltonian) -> tuple[tuple[object, tuple[int, ...]], ...]:
    """Terms grouped by X/Y flip mask, as (phase, flipped axes) pairs.

    Compiled once per Hamiltonian instance and kept on it: a cache keyed on
    the Hamiltonian would hash all its terms on every matvec.

    A term c * W contributes phase ``c * (-i)**n_y * (-1)**popcount(x & s)``
    at output index x, read from amplitude ``x ^ m``, with (m, s, n_y) from
    :func:`~hybridtn.pauli.pauli_word_masks`; an even ``n_y`` gives the
    real sign ``(-1)**(n_y // 2)``.  Terms sharing a mask sum their phases;
    the phase stays a scalar when no term of the group has a Z or Y factor
    and is complex only when some term of the group has an odd number of
    Y factors, so H is a real matrix exactly when no phase is complex.
    Axis ``n - 1 - q`` of the ``(2,) * n`` amplitude view holds qubit q.
    """
    compiled = vars(h).get("_oracle_operator")
    if compiled is not None:
        return compiled
    n = h.num_qubits
    idx = np.arange(2**n, dtype=np.int64).reshape((2,) * n)
    groups: dict[int, list[tuple[complex, int]]] = {}
    for term in h.terms:  # canonical order fixes the summation order
        flip, sign, n_y = pauli_word_masks(term.factors)
        # (-i)**n_y, kept real for even n_y
        coeff = term.coefficient * (-1) ** (n_y // 2) * (-1j if n_y % 2 else 1)
        groups.setdefault(flip, []).append((coeff, sign))
    compiled = []
    for flip, parts in sorted(groups.items()):
        phase = sum(
            coeff * parity_signs(idx, sign) if sign else coeff for coeff, sign in parts
        )
        axes = tuple(n - 1 - q for q in range(n) if flip >> q & 1)
        compiled.append((phase, axes))
    compiled = tuple(compiled)
    object.__setattr__(h, "_oracle_operator", compiled)  # h is frozen
    return compiled


def apply_hamiltonian(amps: np.ndarray, h: Hamiltonian) -> np.ndarray:
    """Matrix-free H @ amps: one phase times one flipped view per flip mask.

    The output takes the dtype of ``amps`` and the phases together: real
    for a real H and real amplitudes, complex otherwise.
    """
    psi = np.asarray(amps).reshape((2,) * h.num_qubits)
    compiled = _compiled(h)
    out = np.zeros(psi.shape, np.result_type(psi, *(phase for phase, _ in compiled)))
    for phase, axes in compiled:
        out += phase * np.flip(psi, axes)
    return out.reshape(-1)


def _lanczos_ground(h: Hamiltonian, seed: int) -> tuple[float, np.ndarray]:
    """Thick-restart Lanczos with full reorthogonalization.

    A real H (no complex compiled phase) runs in real arithmetic: the start
    vector is the real part of the seeded complex draw, and the Krylov
    basis is float64.  The basis holds ``LANCZOS_BASIS`` vectors, and
    ``t`` holds H projected on it, column j filled from the two
    Gram-Schmidt passes that orthogonalize ``H basis[j]``.  When the basis
    is full, a thick restart (Wu & Simon, SIAM J. Matrix Anal. Appl. 22,
    602 (2000)) keeps its ``LANCZOS_KEPT`` lowest Ritz vectors, with ``t``
    their diagonal of Ritz values, and continues from the normalized
    residual; the next columns of ``t`` fill its arrowhead.

    ``t`` is diagonalized 10 steps after the last check and whenever the
    basis is full.  The lowest Ritz pair is returned once its value has
    settled (moved by at most ``1e-12 * sum |c_t|`` since the last check),
    its residual estimate ``||w|| * |s_last|`` is at most
    ``1e-10 * sum |c_t|``, and its explicit residual ``||Hx - theta x||``
    is too.  ``sum |c_t| >= ||H||``, so scaling H changes none of the
    steps taken.
    """
    n = h.num_qubits
    dim = 2**n
    norm_bound = sum(abs(t.coefficient) for t in h.terms)
    # b is zero relative to the bound; "<=" stops H = 0 at b = 0
    invariant = 64 * np.finfo(float).eps * norm_bound
    settle, tol = 1e-12 * norm_bound, 1e-10 * norm_bound
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim)
    real = not any(np.iscomplexobj(phase) for phase, _ in _compiled(h))
    if not real:
        v = v + 1j * rng.normal(size=dim)
    size = min(dim, LANCZOS_BASIS)
    basis = np.empty((size, dim), dtype=v.dtype)
    basis[0] = v / np.linalg.norm(v)
    t = np.empty((size, size), dtype=v.dtype)
    previous = np.inf  # the lowest Ritz value at the last check
    j = unchecked = 0  # j: the vectors in the basis
    for _ in range(_LANCZOS_STEPS):
        w = apply_hamiltonian(basis[j], h)
        done = basis[: j + 1]
        coeffs = 0
        for _ in range(2):  # full reorthogonalization, twice
            # the complex route avoids a conj copy of the basis
            c = done @ w if real else np.conj(done @ np.conj(w))
            w -= done.T @ c
            coeffs = coeffs + c
        t[: j + 1, j] = coeffs
        t[j, : j + 1] = np.conj(coeffs)
        b = float(np.linalg.norm(w))
        j += 1
        unchecked += 1
        if unchecked == 10 or j == size or b <= invariant:
            unchecked = 0
            ritz_values, s = np.linalg.eigh(t[:j, :j])
            ritz = float(ritz_values[0])
            settled, previous = abs(ritz - previous) <= settle, ritz
            if b <= invariant or settled and b * abs(s[-1, 0]) <= tol:
                ground = s[:, 0] @ basis[:j]
                ground /= np.linalg.norm(ground)
                residual = np.linalg.norm(apply_hamiltonian(ground, h) - ritz * ground)
                if residual <= tol:
                    return ritz, ground
            if b <= invariant:  # no new direction: start again from the Ritz vector
                basis[0], j = ground, 0
                continue
            if j == size:  # thick restart
                basis[:LANCZOS_KEPT] = s[:, :LANCZOS_KEPT].T @ basis
                t[:LANCZOS_KEPT, :LANCZOS_KEPT] = np.diag(ritz_values[:LANCZOS_KEPT])
                j = LANCZOS_KEPT
        basis[j] = w / b
    raise OracleLimitError("Lanczos failed to converge within the restart budget")


def _dense_matrix(h: Hamiltonian) -> np.ndarray:
    """H written from its compiled groups: ``H[x, x ^ m] = phase[x]``.

    Distinct groups have distinct flip masks m, so no entry is written
    twice.  The matrix is float64 when no phase is complex.
    """
    n = h.num_qubits
    compiled = _compiled(h)
    rows = np.arange(2**n)
    out = np.zeros((2**n, 2**n), np.result_type(float, *(p for p, _ in compiled)))
    for phase, axes in compiled:
        flip = sum(1 << (n - 1 - axis) for axis in axes)
        out[rows, rows ^ flip] = np.reshape(phase, -1)
    return out


def exact_ground_energy(h: Hamiltonian) -> tuple[float, StateVector]:
    """Ground energy and state: dense eigh up to 8 qubits, Lanczos to 20.

    Up to ``DENSE_LIMIT`` qubits, ``np.linalg.eigh`` diagonalizes the
    matrix written from the compiled flip/phase groups, a real symmetric
    one when H is a real matrix; :func:`hamiltonian_matrix` is not called.
    Above it no matrix is built: thick-restart Lanczos runs on the
    matrix-free :func:`apply_hamiltonian`, in real arithmetic when H is a
    real matrix.  Its working set is bounded by the basis: about
    ``LANCZOS_BASIS + LANCZOS_KEPT + 4`` vectors of 2**n amplitudes.
    Nothing is cached but the compiled groups.  The returned state is
    complex either way.
    """
    n = h.num_qubits
    if n <= DENSE_LIMIT:
        evals, evecs = np.linalg.eigh(_dense_matrix(h))
        return float(evals[0]), StateVector(n, evecs[:, 0].astype(complex))
    if n <= ITERATIVE_LIMIT:
        energy, vec = _lanczos_ground(h, seed=7)
        return energy, StateVector(n, vec.astype(complex, copy=False))
    raise OracleLimitError(
        f"{n} qubits exceeds the {ITERATIVE_LIMIT}-qubit oracle limit"
    )


# ---------------------------------------------------------------------------
# dense node families

def mps_dense(m: MpsTensor) -> np.ndarray:
    """Coefficient tensor of an MPS, shape = site_dims (literal contraction)."""
    acc = m.cores[0]  # (1, p0, r)
    for core in m.cores[1:]:
        acc = np.einsum("...a,apb->...pb", acc, core)
    return acc.reshape(m.site_dims)


def dense_family(tensor: QuantumTensor) -> np.ndarray:
    """A quantum tensor's label states, or an open index's two projections,
    as a dense (labels, dim) array."""
    if tensor.open_qubit is None:
        return tensor.family_states()
    psi = tensor.joint_state().reshape((2,) * tensor.num_qubits)
    moved = np.moveaxis(psi, tensor.num_qubits - 1 - tensor.open_qubit, 0)
    return moved.reshape(2, -1)


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
# dense tree states (checks tree evaluation)

def _own_positions(node: TreeNode, root: bool) -> list[int]:
    """A node's qubits or MPS sites that no child attaches to (a branch
    MPS's site 0 is its upward leg)."""
    payload = node.payload
    quantum = isinstance(payload, QuantumTensor)
    size = payload.num_qubits if quantum else payload.num_sites
    attach = [link.attach for link in node.children]
    own = range(0 if quantum or root else 1, size)
    if len(set(attach)) != len(attach) or not set(attach) <= set(own):
        raise ValueError(f"attach points {attach} do not fit the node's {list(own)}")
    return [p for p in own if p not in attach]


def _tree_qubits(node: TreeNode, root: bool = True) -> int:
    below = sum(_tree_qubits(link.node, False) for link in node.children)
    return len(_own_positions(node, root)) + below


def _subtree_state(node: TreeNode, root: bool) -> np.ndarray:
    """The node's subtree as (upward label, qubit 0, qubit 1, ...).

    Integer einsum labels: 0 is the upward label and 1 + p the node's
    qubit or site p, which a child attached there sums its label against;
    the children's qubits get fresh labels.
    """
    payload = node.payload
    if isinstance(payload, QuantumTensor):
        n = payload.num_qubits
        fam = dense_family(payload)  # axis 1 of its view holds qubit n - 1
        operands = [fam.reshape((len(fam),) + (2,) * n), [0, *range(n, 0, -1)]]
    else:  # an MPS root gets a label axis of one; a branch's site 0 is its leg
        n = payload.num_sites
        coeffs = mps_dense(payload)
        operands = [coeffs[None], [*range(n + 1)]] if root else [coeffs, [0, *range(2, n + 1)]]
    out = [0] + [1 + p for p in _own_positions(node, root)]
    for link in node.children:
        child = _subtree_state(link.node, False)
        fresh = list(range(n + len(out), n + len(out) + child.ndim - 1))
        operands += [child, [1 + link.attach] + fresh]
        out += fresh
    return np.einsum(*operands, out)


def dense_tree_state(tree: HybridTree) -> np.ndarray:
    """The state of any tree, by explicit sums over every edge's label.

    Quantum and MPS nodes at any depth and children in any order: each
    node's :func:`dense_family` or :func:`mps_dense` coefficients, with
    each child's label summed against the parent qubit or site it attaches
    to.  Qubit order: the root's own qubits (those no child attaches to,
    in increasing order) are the low bits, then each child's subtree in
    the order the children are listed, recursively -- the pre-order of
    :attr:`~hybridtn.tree.HybridTree.layout`.  Above ``TREE_STATE_LIMIT``
    qubits, counted from the node sizes, nothing is simulated.
    """
    n = _tree_qubits(tree.root)
    if n > TREE_STATE_LIMIT:
        raise OracleLimitError(
            f"a {n}-qubit tree state exceeds the {TREE_STATE_LIMIT}-qubit limit"
        )
    psi = _subtree_state(tree.root, True)  # to qubit 0 least significant
    return psi.transpose([0, *range(psi.ndim - 1, 0, -1)]).reshape(-1)
