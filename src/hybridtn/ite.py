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
which evaluates every tree exactly, always does so.  Payload circuits
that are equal on equal initial states, like the sibling branches of the
built trees, form a group, and each group is simulated in one sweep
(:func:`hybridtn.statevector.sweep_circuit`) with a parameter row per
member: at a stencil point the sweep carries the base and every
single-slot perturbed row of every member, and at a line-search energy
the families alone.  A perturbed state differs from the base in one
node, so the tree contraction of :mod:`hybridtn.tree` with that node open
yields a whole block of the stencil: one contraction per unordered node
pair gives the overlaps (the reversed pair is its conjugate transpose),
and one per node the energies, whose terms are summed into the node's
environment before its perturbed rows are contracted.  The flow system is
solved by Cholesky, with a least-squares fallback when A + reg I is not
numerically positive definite; a non-finite metric, gradient or energy
ends the run with a stated reason.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracles import apply_hamiltonian
from .pauli import Hamiltonian, decompose_for_layout
from .rng import SplitMix64
from .statevector import Circuit, apply_circuit_array
from .statevector import sweep_circuit as _perturbed_stack
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


def _lower_solve(low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve low x = rhs for lower-triangular ``low`` by block substitution.

    numpy has no triangular solver; 64-row blocks keep its O(p**3) general
    solve to the diagonal blocks and the rest to matrix-vector products.
    """
    x = rhs.copy()
    for start in range(0, len(x), 64):
        end = start + 64
        x[start:end] -= low[start:end, :start] @ x[:start]
        x[start:end] = np.linalg.solve(low[start:end, start:end], x[start:end])
    return x


def flow_direction(a: np.ndarray, c: np.ndarray, reg: float) -> np.ndarray:
    """Solution of (A + reg I) theta_dot = -C.

    A positive definite system is solved through its Cholesky factor
    L L^T; one the factorization refuses (``reg`` = 0 on a singular metric,
    or a numerically indefinite one) gets the minimum-norm least-squares
    solution.  A non-finite A or C raises FloatingPointError.
    """
    if not (np.isfinite(a).all() and np.isfinite(c).all()):
        raise FloatingPointError("non-finite metric or gradient")
    lhs = a + reg * np.eye(len(c))
    try:
        low = np.linalg.cholesky(lhs)
    except np.linalg.LinAlgError:
        theta_dot, *_ = np.linalg.lstsq(lhs, -c, rcond=None)
        return theta_dot
    # L^T is lower triangular in reversed index order
    y = _lower_solve(low, -c)
    return _lower_solve(low.T[::-1, ::-1], y[::-1])[::-1]


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
        # the metric divides by delta**2
        if not 0.0 < self.delta * self.delta < np.inf:
            raise ValueError(f"delta**2 must be finite and nonzero, got {self.delta!r}")
        # a zero cap or a shrinking "growth" flattens the energy into false convergence
        if not self.dtau_cap > 0:
            raise ValueError(f"dtau_cap must be positive, got {self.dtau_cap!r}")
        if not self.dtau_grow >= 1:
            raise ValueError(f"dtau_grow must be >= 1, got {self.dtau_grow!r}")
        # the initial point is drawn from [-init_scale, init_scale]
        if not np.isfinite(2.0 * self.init_scale):
            raise ValueError(f"2 * init_scale must be finite, got {self.init_scale!r}")


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
    # why the run ended: "converged", "stalled", "max_iters", or what turned
    # non-finite; not part of the written results
    stop_reason: str


def ite_step(problem, state: IteState, config: IteConfig) -> IteState:
    """One flow step with monotonic-energy acceptance.

    Solves (A + reg I) theta_dot = -C at the current parameters, then
    proposes params + dtau * theta_dot, halving dtau until the energy
    stops increasing; on acceptance dtau grows gently for the next step.
    A rejected step leaves parameters and energy unchanged.  A non-finite
    metric, gradient, candidate step or candidate energy raises
    FloatingPointError.
    """
    a = metric_a(problem, state.params, config.delta)
    c = gradient_c(problem, state.params, config.delta)
    theta_dot = flow_direction(a, c, config.reg)
    dtau = state.dtau
    for _ in range(config.max_retries + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            cand = state.params + dtau * theta_dot
        if not np.isfinite(cand).all():
            raise FloatingPointError("non-finite parameters at a candidate step")
        e_new = float(problem.energy(cand))
        if not np.isfinite(e_new):
            raise FloatingPointError("non-finite energy at a candidate step")
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
    """Iterate the flow until the energy is flat over a trailing window.

    The run also ends when the step stalls below ``dtau_min``, after
    ``max_iters`` steps, or when a metric, gradient, candidate step or
    energy turns non-finite; ``stop_reason`` says which.
    """
    if init_params is None:
        params = initial_parameters(problem.num_params, config.seed, config.init_scale)
    else:
        params = np.asarray(init_params, dtype=float).copy()
        if len(params) != problem.num_params:
            raise ValueError("initial parameter vector length mismatch")
    if not np.isfinite(params).all():
        raise ValueError("non-finite initial parameters")
    state = IteState(
        params=params, tau=0.0, energy=float(problem.energy(params)), dtau=config.dtau0
    )
    records = [IteRecord(0, 0.0, config.dtau0, state.energy, True, 0.0)]
    flat = 0
    reason = None
    if not np.isfinite(state.energy):
        reason = "non-finite energy at the initial parameters"
    while reason is None and len(records) <= config.max_iters:
        try:
            new_state = ite_step(problem, state, config)
        except FloatingPointError as exc:
            reason = str(exc)
            break
        with np.errstate(over="ignore"):  # a finite gradient's norm may overflow
            grad_norm = float(np.linalg.norm(new_state.c_vector))
        records.append(
            IteRecord(
                len(records),
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
            if flat >= config.conv_window:
                reason = "converged"
        elif new_state.dtau < config.dtau_min:
            reason = "stalled"  # no descent direction at the smallest step
        state = new_state
    return IteResult(
        state.params,
        state.energy,
        reason == "converged",
        len(records) - 1,
        tuple(records),
        reason or "max_iters",
    )


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

def _payload_stack(payload: QuantumTensor, parts) -> np.ndarray:
    """Row stack of a quantum payload from its circuits' rows, one part each.

    Row 0 is the family and, when the parts carry perturbed rows, row 1 + q
    the family at the payload's flat parameters + delta e_q.  A single
    circuit's rows are the stack itself; under distinct unitaries circuit j
    prepares label j alone, so its rows perturb only that label.
    """
    if len(parts) == 1:
        return parts[0]
    rows = 1 + sum(len(part) - 1 for part in parts)
    out = np.empty((rows,) + payload.initial_states().shape, dtype=complex)
    at = 1
    for j, part in enumerate(parts):
        out[:, j] = part[0, 0]
        out[at : at + len(part) - 1, j] = part[1:, 0]
        at += len(part) - 1
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
        self._point: tuple | None = None
        # (pre-order index, parameter slice) of every quantum payload with
        # parameters: the nodes the stencil perturbs
        self._open = [
            (i, slice(start, stop))
            for i, start, stop in tree.param_slices()
            if stop > start
        ]
        # the open payloads' circuits as (circuit, initial states, members),
        # a member (node, circuit index); equal circuits on equal initial
        # states share one sweep, as the branches of the built trees do
        nodes = list(_preorder(tree.root))
        groups: dict = {}
        for i, _ in self._open:
            payload = nodes[i].payload
            init = payload.initial_states()
            for j, circuit in enumerate(payload.circuits):
                labels = slice(None) if payload.mode == SHARED_UNITARY else slice(j, j + 1)
                key = (circuit, payload.initial_bits[labels])
                groups.setdefault(key, (circuit, init[labels], []))[2].append((i, j))
        self._groups = list(groups.values())
        # the driver dispatches on attribute presence
        self.overlap_fd_matrix = self._overlap_fd_matrix
        self.energies_fd = self._energies_fd

    @property
    def num_params(self) -> int:
        return self.tree.num_params

    def _pass(self, tree: HybridTree, stacks=None) -> _Pass:
        return _Pass(tree, tree, self.factors, words=self._words, stacks=stacks)

    def energy(self, params) -> float:
        tree = self.tree.with_params(params)
        return self._pass(tree, stacks=self._stacks(tree, None)).term_sum().real

    def overlap(self, pa, pb) -> complex:
        return tree_overlap(
            self.tree.with_params(pa), self.tree.with_params(pb)
        )

    # -- batched finite-difference stencil ----------------------------------

    def _stacks(self, tree: HybridTree, delta) -> dict:
        """The open nodes' row stacks, one sweep per circuit group: the
        families alone when ``delta`` is None, else with perturbed rows."""
        nodes = list(_preorder(tree.root))
        rows = {}  # (node, circuit index) -> that circuit's rows
        for circuit, init, members in self._groups:
            thetas = np.array([nodes[i].payload.params[j] for i, j in members])
            rows.update(zip(members, _perturbed_stack(circuit, thetas, init, delta)))
        stacks = {}
        for i, _ in self._open:
            payload = nodes[i].payload
            parts = [rows[i, j] for j in range(len(payload.circuits))]
            stacks[i] = _payload_stack(payload, parts)
        return stacks

    def _fd_pass(self, params: np.ndarray, delta: float) -> _Pass:
        """The contraction pass over every node's perturbed row stack."""
        key = (params.tobytes(), delta)
        if self._point is None or self._point[0] != key:
            tree = self.tree.with_params(params)
            self._point = (key, self._pass(tree, stacks=self._stacks(tree, delta)))
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
                blk = run.block(0, u, v)[:, :, 0, 0]
                s_mat[su, sv] = blk[1:, 1:]
                s_mat[sv, su] = blk[1:, 1:].conj().T
                if v == u:
                    s_vec[su] = blk[0, 1:]
        first = self._open[0][0] if self._open else None  # row 0 is the base
        n0 = complex(run.block(0, first, first)[0, 0, 0, 0])
        return s_mat, s_vec, n0

    def _energies_fd(self, params, delta):
        """Base energy and all single-slot forward-perturbed energies.

        One row-carrying contraction per open node: its environment, summed
        over the terms, against its blocks in every perturbed row.
        """
        params = np.asarray(params, dtype=float)
        run = self._fd_pass(params, delta)
        evec = np.empty(self.num_params)
        for u, su in self._open:
            evec[su] = run.term_sum(u)[1:].real
        return run.term_sum().real, evec


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

def solve_subspace(h_mat, s_mat):
    """Generalized eigenproblem H a = E S a on a possibly degenerate basis.

    Directions of S with eigenvalue below 1e-10 are discarded before
    inverting, which makes linearly dependent basis states harmless.  The
    returned eigenvector columns satisfy a^dag S a = identity.
    """
    h_mat = np.asarray(h_mat, dtype=complex)
    s_mat = np.asarray(s_mat, dtype=complex)
    cutoff = 1e-10
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


def expand_in_subspace(trees, h: Hamiltonian):
    """Best energy reachable by mixing the given tree states."""
    h_mat, s_mat = subspace_matrices(trees, h)
    evals, vecs = solve_subspace(h_mat, s_mat)
    return float(evals[0]), vecs[:, 0], (h_mat, s_mat)
