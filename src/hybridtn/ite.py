"""Variational ground-state search by imaginary-time evolution.

The parameter update follows the projected flow A theta_dot = -C with

    A_ij = Re <d_i psi | d_j psi>        (metric)
    C_i  = (1/2) d_i <psi| H |psi>       (half energy gradient)

both estimated by finite differences: the metric from the four-overlap
stencil

    <d_i psi|d_j psi> ~ [S_ij - conj(s_i) - s_j + n0] / delta**2

with S_ij = <psi(t+d e_i)|psi(t+d e_j)>, s_i = <psi(t)|psi(t+d e_i)>,
n0 = <psi(t)|psi(t)>, and the gradient from forward energy differences.
A step is accepted only if the energy does not increase (up to a small
slack); the step size shrinks on rejection and grows gently on success.

A *problem* is anything with ``num_params``, ``energy(params)`` and
``overlap(pa, pb) = <psi(pa)|psi(pb)>``.  Problems may additionally
provide ``overlap_fd_matrix(params, delta) -> (S, s, n0)`` and
``energies_fd(params, delta) -> (e0, evec)`` to service the whole
finite-difference stencil in one batched pass; :class:`TreeProblem`,
which evaluates every tree exactly, always does so.  All perturbed
states of one circuit are simulated together in a single sweep (each
rotation gate obeys G(t + d) = G(d) G(t), so a perturbed row is the
shared sweep plus one extra fixed-angle gate; a row joins the sweep at
its slot's first gate, as a copy of the base row).  A perturbed state differs from the base in
one node, so the tree contraction of :mod:`hybridtn.tree` with that node
open yields a whole block of the stencil: one contraction per unordered
node pair gives the overlaps (the reversed pair is its conjugate
transpose), one per (term, node) the energies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .oracles import apply_hamiltonian
from .pauli import Hamiltonian, decompose_for_layout
from .rng import SplitMix64
from .statevector import Circuit, apply_circuit_array, apply_op_array
from .tensors import SHARED_UNITARY, QuantumTensor
from .tree import HybridTree, _Pass, _preorder, tree_overlap, tree_transition_energy

ACCEPT_SLACK = 1e-9


# ---------------------------------------------------------------------------
# finite-difference metric and gradient

def metric_a(problem, params, delta: float) -> np.ndarray:
    """Symmetrized finite-difference estimate of Re <d_i psi|d_j psi>."""
    params = np.asarray(params, dtype=float)
    p = problem.num_params
    if hasattr(problem, "overlap_fd_matrix"):
        s_mat, s_vec, n0 = problem.overlap_fd_matrix(params, delta)
    else:
        shifted = [params.copy() for _ in range(p)]
        for i in range(p):
            shifted[i][i] += delta
        s_mat = np.empty((p, p), dtype=complex)
        for i in range(p):
            for j in range(i, p):
                val = problem.overlap(shifted[i], shifted[j])
                s_mat[i, j] = val
                s_mat[j, i] = np.conj(val)
        s_vec = np.array([problem.overlap(params, sh) for sh in shifted])
        n0 = problem.overlap(params, params)
    a = (s_mat - np.conj(s_vec)[:, None] - s_vec[None, :] + n0).real
    a /= delta**2
    return 0.5 * (a + a.T)


def gradient_c(problem, params, delta: float) -> np.ndarray:
    """C_i = (E(t + d e_i) - E(t)) / (2 d) by forward differences."""
    params = np.asarray(params, dtype=float)
    if hasattr(problem, "energies_fd"):
        e0, evec = problem.energies_fd(params, delta)
    else:
        e0 = problem.energy(params)
        evec = np.empty(problem.num_params)
        for i in range(problem.num_params):
            shifted = params.copy()
            shifted[i] += delta
            evec[i] = problem.energy(shifted)
    return 0.5 * (np.asarray(evec) - e0) / delta


def flow_direction(a: np.ndarray, c: np.ndarray, reg: float) -> np.ndarray:
    """Least-squares solution of (A + reg I) theta_dot = -C."""
    lhs = a + reg * np.eye(len(c))
    theta_dot, *_ = np.linalg.lstsq(lhs, -c, rcond=None)
    return theta_dot


# ---------------------------------------------------------------------------
# driver

@dataclass(frozen=True)
class IteConfig:
    delta: float = 1e-3
    dtau0: float = 0.05
    dtau_min: float = 1e-12
    dtau_shrink: float = 0.5
    dtau_grow: float = 1.2
    dtau_cap: float = 0.5
    reg: float = 1e-6
    conv_tol: float = 1e-8
    conv_window: int = 10
    max_iters: int = 2000
    max_retries: int = 8
    seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self):
        if self.delta <= 0 or self.dtau0 <= 0 or self.reg < 0:
            raise ValueError("delta and dtau0 must be positive, reg nonnegative")


@dataclass
class IteState:
    """Flow state after one step: parameters, clock, and the solve inputs."""

    params: np.ndarray
    tau: float
    energy: float
    dtau: float
    a_matrix: np.ndarray | None = None
    c_vector: np.ndarray | None = None
    accepted: bool = True
    last_dtau: float = 0.0


@dataclass(frozen=True)
class IteRecord:
    iteration: int
    tau: float
    dtau: float
    energy: float
    accepted: bool
    grad_norm: float


@dataclass(frozen=True)
class IteResult:
    params: np.ndarray
    energy: float
    converged: bool
    iterations: int
    trajectory: tuple[IteRecord, ...]


def ite_step(problem, state: IteState, config: IteConfig) -> IteState:
    """One flow step with monotonic-energy acceptance.

    Solves (A + reg I) theta_dot = -C at the current parameters, then
    proposes params + dtau * theta_dot, halving dtau until the energy
    stops increasing; on acceptance dtau grows gently for the next step.
    A rejected step leaves parameters and energy unchanged.
    """
    a = metric_a(problem, state.params, config.delta)
    c = gradient_c(problem, state.params, config.delta)
    theta_dot = flow_direction(a, c, config.reg)
    dtau = state.dtau
    for _ in range(config.max_retries + 1):
        cand = state.params + dtau * theta_dot
        e_new = float(problem.energy(cand))
        if e_new <= state.energy + ACCEPT_SLACK:
            return IteState(
                params=cand,
                tau=state.tau + dtau,
                energy=e_new,
                dtau=min(dtau * config.dtau_grow, config.dtau_cap),
                a_matrix=a,
                c_vector=c,
                accepted=True,
                last_dtau=dtau,
            )
        dtau *= config.dtau_shrink
        if dtau < config.dtau_min:
            break
    return IteState(
        params=state.params,
        tau=state.tau,
        energy=state.energy,
        dtau=dtau,
        a_matrix=a,
        c_vector=c,
        accepted=False,
        last_dtau=dtau,
    )


def initial_parameters(num_params: int, seed: int, scale: float = 0.1) -> np.ndarray:
    stream = SplitMix64(seed)
    return np.array([stream.uniform(-scale, scale) for _ in range(num_params)])


def run_ite(problem, config: IteConfig = IteConfig(), init_params=None) -> IteResult:
    """Iterate the flow until the energy is flat over a trailing window."""
    if init_params is None:
        params = initial_parameters(problem.num_params, config.seed, config.init_scale)
    else:
        params = np.asarray(init_params, dtype=float).copy()
        if len(params) != problem.num_params:
            raise ValueError("initial parameter vector length mismatch")
    state = IteState(
        params=params, tau=0.0, energy=float(problem.energy(params)), dtau=config.dtau0
    )
    records = [IteRecord(0, 0.0, config.dtau0, state.energy, True, 0.0)]
    flat = 0
    converged = False
    iteration = 0
    for iteration in range(1, config.max_iters + 1):
        new_state = ite_step(problem, state, config)
        grad_norm = float(np.linalg.norm(new_state.c_vector))
        records.append(
            IteRecord(
                iteration,
                new_state.tau,
                new_state.last_dtau,
                new_state.energy,
                new_state.accepted,
                grad_norm,
            )
        )
        if new_state.accepted:
            flat = (
                flat + 1
                if abs(new_state.energy - state.energy) < config.conv_tol
                else 0
            )
            state = new_state
            if flat >= config.conv_window:
                converged = True
                break
        else:
            state = new_state
            if state.dtau < config.dtau_min:
                break  # stalled: no descent direction at the smallest step
    return IteResult(state.params, state.energy, converged, iteration, tuple(records))


# ---------------------------------------------------------------------------
# full-statevector problem (small systems, tests)

class CircuitProblem:
    """Variational problem over one circuit simulated on the full register."""

    def __init__(self, circuit: Circuit, h: Hamiltonian):
        if h.num_qubits != circuit.num_qubits:
            raise ValueError("Hamiltonian register does not match the circuit")
        self.circuit = circuit
        self.h = h

    @property
    def num_params(self) -> int:
        return self.circuit.num_params

    def state(self, params) -> np.ndarray:
        amps = np.zeros(2**self.circuit.num_qubits, dtype=complex)
        amps[0] = 1.0
        return apply_circuit_array(amps, self.circuit, np.asarray(params, dtype=float))

    def energy(self, params) -> float:
        psi = self.state(params)
        return float(np.real(np.vdot(psi, apply_hamiltonian(psi, self.h))))

    def overlap(self, pa, pb) -> complex:
        return complex(np.vdot(self.state(pa), self.state(pb)))


# ---------------------------------------------------------------------------
# tree problem with a batched finite-difference fast path

def _perturbed_stack(circuit: Circuit, params, init_states: np.ndarray, delta: float):
    """States for the base and every single-slot perturbation, in one sweep.

    Returns shape (num_params + 1, labels, 2**n); row 0 is the unperturbed
    family, row 1 + q the family at params + delta e_q.  Rotation-angle
    additivity lets every row share the base sweep: after applying a gate
    with slot q at the base angle, row 1 + q receives the same gate at the
    fixed angle delta.  Row 1 + q equals row 0 until slot q's first gate,
    where it is spawned as a copy of row 0; each gate acts on the rows
    spawned so far (kept in order of first use).  Unused slots keep row 0.
    """
    m = circuit.num_params
    n = circuit.num_qubits
    buf = np.empty((m + 1,) + init_states.shape, dtype=complex)
    buf[0] = init_states
    row_of: dict[int, int] = {}  # slot -> buffer row, in order of first use
    for op in circuit.ops:
        slot = op.param
        if slot is not None and slot not in row_of:
            row_of[slot] = len(row_of) + 1
            buf[row_of[slot]] = buf[0]
        live = len(row_of) + 1
        buf[:live] = apply_op_array(buf[:live], op, params, n)
        if slot is not None:
            row = row_of[slot]
            bump = replace(op, param=None, angle=delta)
            buf[row] = apply_op_array(buf[row], bump, None, n)
    order = [0] + [row_of.get(q, 0) for q in range(m)]
    if order != list(range(m + 1)):
        buf = buf[order]
    return buf


def _payload_stack(payload: QuantumTensor, delta: float) -> np.ndarray:
    """Row stack of a quantum payload: its family, then one row per parameter.

    Row 1 + q is the family at the payload's flat parameters + delta e_q.
    Each circuit's rows come from one :func:`_perturbed_stack` over the
    labels it prepares: all of them (shared unitary) or its own.
    """
    init = payload.initial_states()
    out = np.empty((1 + payload.num_params,) + init.shape, dtype=complex)
    at = 1
    for j, (circuit, vec) in enumerate(zip(payload.circuits, payload.params)):
        labels = slice(None) if payload.mode == SHARED_UNITARY else slice(j, j + 1)
        stack = _perturbed_stack(circuit, vec, init[labels], delta)
        out[:, labels] = stack[0]
        out[at : at + circuit.num_params, labels] = stack[1:]
        at += circuit.num_params
    return out


class TreeProblem:
    """Ground-state search problem over a hybrid tree ansatz.

    Energies and overlaps are exact contractions of the tree's state
    vectors (no sampling), and the flow gets the batched finite-difference
    stencil for every tree shape: qq, qc, cq and deeper.
    """

    def __init__(self, tree: HybridTree, h: Hamiltonian):
        if h.num_qubits != tree.layout.num_qubits:
            raise ValueError("Hamiltonian register does not match the tree layout")
        self.tree = tree
        self.h = h
        self.factors = decompose_for_layout(h, tree.layout)
        self._words: dict = {}  # compiled local words per quantum leaf
        self._energy_cache: dict[bytes, float] = {}
        self._point: tuple | None = None
        # (pre-order index, parameter slice) of every quantum payload with
        # parameters: the nodes the stencil perturbs
        quantum = [
            i
            for i, node in enumerate(_preorder(tree.root))
            if isinstance(node.payload, QuantumTensor)
        ]
        self._open = [
            (i, slice(start, stop))
            for i, (start, stop) in zip(quantum, tree.param_slices())
            if stop > start
        ]
        # the driver dispatches on attribute presence
        self.overlap_fd_matrix = self._overlap_fd_matrix
        self.energies_fd = self._energies_fd

    @property
    def num_params(self) -> int:
        return self.tree.num_params

    def _pass(self, tree: HybridTree, stacks=None) -> _Pass:
        return _Pass(tree, tree, self.factors, words=self._words, stacks=stacks)

    def energy(self, params) -> float:
        params = np.asarray(params, dtype=float)
        key = params.tobytes()
        hit = self._energy_cache.get(key)
        if hit is None:
            run = self._pass(self.tree.with_params(params))
            hit = self._energy_cache[key] = run.term_sum().real
        return hit

    def overlap(self, pa, pb) -> complex:
        return tree_overlap(
            self.tree.with_params(pa), self.tree.with_params(pb)
        )

    # -- batched finite-difference stencil ----------------------------------

    def _fd_pass(self, params: np.ndarray, delta: float) -> _Pass:
        """The contraction pass over every node's perturbed row stack."""
        key = (params.tobytes(), delta)
        if self._point is None or self._point[0] != key:
            tree = self.tree.with_params(params)
            nodes = list(_preorder(tree.root))
            stacks = {i: _payload_stack(nodes[i].payload, delta) for i, _ in self._open}
            self._point = (key, self._pass(tree, stacks=stacks))
        return self._point[1]

    def _overlap_fd_matrix(self, params, delta):
        """All overlaps of the finite-difference stencil, one pass per node pair.

        A perturbed state differs from the base in one node, so the bra
        opens node u and the ket node v, and the (u, v) root block holds
        <psi(t + d e_i)|psi(t + d e_j)> for i in u's slice, j in v's, with
        the base state in row and column 0.
        """
        params = np.asarray(params, dtype=float)
        run = self._fd_pass(params, delta)
        p = self.num_params
        s_mat = np.empty((p, p), dtype=complex)
        s_vec = np.empty(p, dtype=complex)
        for at, (u, su) in enumerate(self._open):
            for v, sv in self._open[at:]:
                blk = run.block(0, None, u, v)[:, :, 0, 0]
                s_mat[su, sv] = blk[1:, 1:]
                s_mat[sv, su] = blk[1:, 1:].conj().T
                if v == u:
                    s_vec[su] = blk[0, 1:]
        first = self._open[0][0] if self._open else None  # row 0 is the base
        n0 = complex(run.block(0, None, first, first)[0, 0, 0, 0])
        return s_mat, s_vec, n0

    def _energies_fd(self, params, delta):
        """Base energy and all single-slot forward-perturbed energies.

        One pass per (term, node): the node is open on both sides, so its
        paired rows give the term's expectation in every perturbed state.
        """
        params = np.asarray(params, dtype=float)
        run = self._fd_pass(params, delta)
        e0 = 0.0
        evec = np.zeros(self.num_params)
        first = self._open[0][0] if self._open else None  # row 0 is the base
        for coeff, locals_ in self.factors:
            e0 += coeff * run.block(0, locals_, first, first)[0, 0, 0, 0].real
            for u, su in self._open:
                evec[su] += coeff * run.block(0, locals_, u, u)[1:, 0, 0, 0].real
        self._energy_cache.setdefault(params.tobytes(), float(e0))
        return float(e0), evec


def run_ite_tree(
    tree: HybridTree,
    h: Hamiltonian,
    config: IteConfig = IteConfig(),
    init_params=None,
) -> tuple[IteResult, HybridTree]:
    """Ground-state search over a tree ansatz; returns the optimized tree."""
    problem = TreeProblem(tree, h)
    result = run_ite(problem, config, init_params)
    return result, tree.with_params(result.params)


# ---------------------------------------------------------------------------
# subspace expansion

def solve_subspace(h_mat, s_mat, cutoff: float = 1e-10):
    """Generalized eigenproblem H a = E S a on a possibly degenerate basis.

    Directions of S with eigenvalue below ``cutoff`` are discarded before
    inverting, which makes linearly dependent basis states harmless.  The
    returned eigenvector columns satisfy a^dag S a = identity.
    """
    h_mat = np.asarray(h_mat, dtype=complex)
    s_mat = np.asarray(s_mat, dtype=complex)
    if h_mat.shape != s_mat.shape or h_mat.ndim != 2:
        raise ValueError("H and S must be square matrices of equal size")
    if not np.allclose(h_mat, h_mat.conj().T, atol=1e-8):
        raise ValueError("H must be Hermitian")
    if not np.allclose(s_mat, s_mat.conj().T, atol=1e-8):
        raise ValueError("S must be Hermitian")
    s_eigvals, s_vecs = np.linalg.eigh(s_mat)
    if s_eigvals[-1] <= cutoff:
        raise ValueError("overlap matrix has no usable directions")
    if s_eigvals[0] < -1e-8:
        raise ValueError("overlap matrix is not positive semidefinite")
    keep = s_eigvals > cutoff
    basis = s_vecs[:, keep] / np.sqrt(s_eigvals[keep])
    h_red = basis.conj().T @ h_mat @ basis
    h_red = 0.5 * (h_red + h_red.conj().T)
    evals, evecs = np.linalg.eigh(h_red)
    return evals, basis @ evecs


def subspace_matrices(trees, h: Hamiltonian):
    """Pairwise <a|H|b> and <a|b> matrices over a list of trees."""
    trees = list(trees)
    count = len(trees)
    h_mat = np.empty((count, count), dtype=complex)
    s_mat = np.empty((count, count), dtype=complex)
    for i in range(count):
        for j in range(i, count):
            h_mat[i, j] = tree_transition_energy(trees[i], trees[j], h)
            h_mat[j, i] = np.conj(h_mat[i, j])
            s_mat[i, j] = tree_overlap(trees[i], trees[j])
            s_mat[j, i] = np.conj(s_mat[i, j])
    h_mat = 0.5 * (h_mat + h_mat.conj().T)
    s_mat = 0.5 * (s_mat + s_mat.conj().T)
    return h_mat, s_mat


def expand_in_subspace(trees, h: Hamiltonian, cutoff: float = 1e-10):
    """Best energy reachable by mixing the given tree states."""
    h_mat, s_mat = subspace_matrices(trees, h)
    evals, vecs = solve_subspace(h_mat, s_mat, cutoff=cutoff)
    return float(evals[0]), vecs[:, 0], (h_mat, s_mat)
