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
finite-difference stencil in one batched pass; :class:`TreeProblem`
does so for the two-layer quantum-quantum trees, where all perturbed
states of one circuit are simulated together in a single sweep (each
rotation gate obeys G(t + d) = G(d) G(t), so a perturbed row is the
shared sweep plus one extra fixed-angle gate) and the stencil reduces
to a handful of Gram-block contractions.  A perturbed row joins the
sweep at its slot's first gate, as a copy of the base row.  The branch
observable blocks <B[a, x]| W |B[a, y]> cost one flipped copy of the
stack, one product with the bras and one GEMM per X/Y flip mask of W.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .oracles import apply_hamiltonian
from .pauli import Hamiltonian, decompose_for_layout, parity_signs, pauli_word_masks
from .rng import SplitMix64
from .statevector import Circuit, _apply_1q, apply_circuit_array, apply_op_array
from .tree import (
    HybridTree,
    is_two_layer_qq,
    tree_energy,
    tree_overlap,
    tree_transition_energy,
)

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
    shots: int = 0
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


def _compile_words(words, n: int):
    """Local Pauli words as (flipped axes, word columns, phases) per flip mask.

    Column j of the (2**n, g) phase matrix is the group's j-th word's phase
    at each output index (:func:`~hybridtn.pauli.pauli_word_masks`); axis
    ``n - 1 - q`` of the ``(2,) * n`` amplitude view holds qubit q.
    """
    idx = np.arange(2**n, dtype=np.int64)
    groups: dict[int, list[tuple[int, np.ndarray]]] = {}
    for col, word in enumerate(words):
        flip, sign, n_y = pauli_word_masks(word)
        groups.setdefault(flip, []).append((col, (-1j) ** n_y * parity_signs(idx, sign)))
    return tuple(
        (
            tuple(n - 1 - q for q in range(n) if flip >> q & 1),
            np.array([col for col, _ in members]),
            np.stack([phase for _, phase in members], axis=1),
        )
        for flip, members in sorted(groups.items())
    )


def _obs_blocks(b: np.ndarray, groups) -> np.ndarray:
    """H[w, a, x, y] = <b[a, x]| W_w |b[a, y]> for every compiled word.

    Per flip mask: one flipped view of the stack, one elementwise product
    with the conjugate bras, and one GEMM against the phase matrix.
    """
    rows, labels, dim = b.shape
    n = dim.bit_length() - 1
    num_words = sum(len(cols) for _, cols, _ in groups)
    bras = b.conj()[:, :, None, :]
    view = b.reshape((rows * labels,) + (2,) * n)
    out = np.empty((num_words, rows * labels * labels), dtype=complex)
    for axes, cols, phases in groups:
        flipped = np.flip(view, tuple(1 + ax for ax in axes)).reshape(b.shape)
        prod = bras * flipped[:, None, :, :]
        out[cols] = (prod.reshape(-1, dim) @ phases).T
    return out.reshape(num_words, rows, labels, labels)


def _reduced(v_bra, w_ket, qubits, k: int) -> np.ndarray:
    """One- or two-qubit reduction of <v_bra| . |w_ket> on a k-qubit register.

    D[x, y] = <v| (|x><y| at s) |w> for qubits (s,), and
    D[x, u, y, v] = <v| (|x><y| at s)(|u><v| at r) |w> for (s, r).
    """
    axes = [k - 1 - q for q in qubits]

    def split(amps):
        moved = np.moveaxis(amps.reshape((2,) * k), axes, range(len(axes)))
        return moved.reshape(2 ** len(axes), -1)

    return (split(v_bra).conj() @ split(w_ket).T).reshape((2,) * (2 * len(axes)))


class _FdWorkspace:
    """Perturbation stacks and Gram blocks at one (params, delta) point.

    Each node's stack comes from :func:`_perturbed_stack`, whose rows are
    spawned lazily at their slot's first gate.  The branch Gram blocks
    G[a, b, x, y] = <B[a, x]|B[b, y]> are one GEMM per branch; the branch
    observable blocks of :func:`_obs_blocks` are formed from the same
    stacks, one GEMM per flip-mask group of the branch's local words.
    """

    def __init__(self, tree: HybridTree, delta: float):
        payloads = [tree.root.payload] + [
            link.node.payload for link in tree.root.children
        ]
        self.k = len(payloads) - 1
        self.slices = tree.param_slices()  # pre-order: root, then branches
        self.stacks = [
            _perturbed_stack(p.circuits[0], p.params[0], p.initial_states(), delta)
            for p in payloads
        ]
        self.root_stack = self.stacks[0][:, 0, :]  # (m0 + 1, 2**k)
        self.v0 = self.root_stack[0]
        self.grams = [None]
        for b in self.stacks[1:]:
            m_plus = b.shape[0]
            b2 = b.reshape(m_plus * 2, -1)
            g2 = b2.conj() @ b2.T
            self.grams.append(g2.reshape(m_plus, 2, m_plus, 2).transpose(0, 2, 1, 3))
        self.base_mats = [g[0, 0] for g in self.grams[1:]]


def _with_branch_mats(w, mats, k: int, skip=()) -> np.ndarray:
    """Root amplitudes with 2x2 matrix mats[r] applied at qubit r, r not in skip."""
    for r in range(k):
        if r not in skip:
            w = _apply_1q(w, mats[r], r, k)
    return w


class TreeProblem:
    """Ground-state search problem over a hybrid tree ansatz.

    Two-layer quantum-quantum trees evaluated exactly get the batched
    finite-difference fast path; everything else falls back to per-point
    tree evaluations.
    """

    def __init__(
        self,
        tree: HybridTree,
        h: Hamiltonian,
        strategy: str = "direct",
        shots: int = 0,
        seed: int = 0,
    ):
        if h.num_qubits != tree.layout.num_qubits:
            raise ValueError("Hamiltonian register does not match the tree layout")
        self.tree = tree
        self.h = h
        self.strategy = strategy
        self.shots = shots
        self.seed = seed
        self.factors = decompose_for_layout(h, tree.layout)
        self._fast = is_two_layer_qq(tree) and strategy == "direct" and shots == 0
        self._energy_cache: dict[bytes, float] = {}
        self._workspace: tuple | None = None
        if self._fast:
            # each branch's distinct local words, compiled once into
            # flip-mask groups; _word_cols[t][s] is term t's word on branch s
            branches = range(len(tree.root.children))
            words = [sorted({t[s] for _, t in self.factors}) for s in branches]
            self._word_groups = [
                _compile_words(ws, link.node.payload.num_qubits)
                for ws, link in zip(words, tree.root.children)
            ]
            self._word_cols = [
                [ws.index(locals_[s]) for s, ws in enumerate(words)]
                for _, locals_ in self.factors
            ]
            # expose the batched stencil only for the exact qq evaluation;
            # the driver dispatches on attribute presence
            self.overlap_fd_matrix = self._overlap_fd_matrix
            self.energies_fd = self._energies_fd

    @property
    def num_params(self) -> int:
        return self.tree.num_params

    def energy(self, params) -> float:
        params = np.asarray(params, dtype=float)
        key = params.tobytes()
        hit = self._energy_cache.get(key)
        if hit is None:
            hit = tree_energy(
                self.tree.with_params(params),
                self.h,
                strategy=self.strategy,
                shots=self.shots,
                seed=self.seed + len(self._energy_cache),
            )
            self._energy_cache[key] = hit
        return hit

    def overlap(self, pa, pb) -> complex:
        return tree_overlap(
            self.tree.with_params(pa), self.tree.with_params(pb)
        )

    # -- batched finite-difference stencil (fast path) ----------------------

    def _fd_workspace(self, params: np.ndarray, delta: float) -> _FdWorkspace:
        key = (params.tobytes(), delta)
        if self._workspace is None or self._workspace[0] != key:
            tree = self.tree.with_params(params)
            self._workspace = (key, _FdWorkspace(tree, delta))
        return self._workspace[1]

    def _overlap_fd_matrix(self, params, delta):
        """All overlaps of the finite-difference stencil in Gram blocks.

        Perturbed states differ from the base in a single component (root
        or one branch), so every stencil overlap factorizes into branch
        Gram entries contracted against one- or two-qubit reductions of
        the root state.
        """
        params = np.asarray(params, dtype=float)
        ws = self._fd_workspace(params, delta)
        k = ws.k
        p = self.num_params
        s_mat = np.empty((p, p), dtype=complex)
        s_vec = np.empty(p, dtype=complex)
        root = ws.root_stack
        slices = [slice(a, b) for a, b in ws.slices]

        # root-root block: every branch carries its base Gram matrix
        blk = root.conj() @ _with_branch_mats(root, ws.base_mats, k).T
        s_mat[slices[0], slices[0]] = blk[1:, 1:]
        s_vec[slices[0]] = blk[0, 1:]
        n0 = complex(blk[0, 0])

        for s in range(1, k + 1):
            qs = s - 1
            gram = ws.grams[s]
            w_s = _with_branch_mats(ws.v0, ws.base_mats, k, {qs})
            # root-bra against branch-ket perturbations
            pre, post = 2 ** (k - 1 - qs), 2**qs
            w3 = w_s.reshape(pre, 2, post)
            u = np.einsum("bxy,pyq->bpxq", gram[0], w3).reshape(gram.shape[0], -1)
            blk = root.conj() @ u.T
            s_mat[slices[0], slices[s]] = blk[1:, 1:]
            s_mat[slices[s], slices[0]] = blk[1:, 1:].conj().T
            # same-branch block via the one-qubit reduction of the root
            d1 = _reduced(ws.v0, w_s, (qs,), k)
            blk = np.einsum("abxy,xy->ab", gram, d1)
            s_mat[slices[s], slices[s]] = blk[1:, 1:]
            s_vec[slices[s]] = blk[0, 1:]
            # cross-branch blocks via two-qubit reductions
            for r in range(s + 1, k + 1):
                qr = r - 1
                w_sr = _with_branch_mats(ws.v0, ws.base_mats, k, {qs, qr})
                d2 = _reduced(ws.v0, w_sr, (qs, qr), k)
                blk = np.einsum(
                    "axy,buv,xuyv->ab", gram[:, 0], ws.grams[r][0], d2
                )
                s_mat[slices[s], slices[r]] = blk[1:, 1:]
                s_mat[slices[r], slices[s]] = blk[1:, 1:].conj().T
        return s_mat, s_vec, n0

    def _energies_fd(self, params, delta):
        """Base energy and all single-slot forward-perturbed energies."""
        params = np.asarray(params, dtype=float)
        ws = self._fd_workspace(params, delta)
        k = ws.k
        root = ws.root_stack
        slices = [slice(a, b) for a, b in ws.slices]
        e0 = 0.0
        evec = np.zeros(self.num_params)
        blocks = [
            _obs_blocks(ws.stacks[s + 1], self._word_groups[s]) for s in range(k)
        ]
        for (coeff, _), cols in zip(self.factors, self._word_cols):
            diags = [blocks[s][cols[s]] for s in range(k)]
            base_mats = [d[0] for d in diags]
            w = _with_branch_mats(root, base_mats, k)
            vals_root = np.einsum("ad,ad->a", root.conj(), w).real
            e0 += coeff * vals_root[0]
            evec[slices[0]] += coeff * vals_root[1:]
            for s in range(k):
                w_s = _with_branch_mats(ws.v0, base_mats, k, {s})
                d1 = _reduced(ws.v0, w_s, (s,), k)
                vals = np.einsum("axy,xy->a", diags[s], d1).real
                evec[slices[s + 1]] += coeff * vals[1:]
        key = params.tobytes()
        self._energy_cache.setdefault(key, float(e0))
        return float(e0), evec


def run_ite_tree(
    tree: HybridTree,
    h: Hamiltonian,
    config: IteConfig = IteConfig(),
    strategy: str = "direct",
    shots: int | None = None,
    init_params=None,
) -> tuple[IteResult, HybridTree]:
    """Ground-state search over a tree ansatz; returns the optimized tree."""
    if shots is None:
        shots = config.shots
    problem = TreeProblem(tree, h, strategy=strategy, shots=shots, seed=config.seed)
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
