"""Hybrid tree tensor networks and their bottom-up evaluation.

A tree is a rooted hierarchy of tensors.  Child nodes hang off a parent
index (a qubit of a quantum parent, a site of an MPS parent) through one
of the typed contraction cases; each child exposes a binary branch index
upward.  The three two-layer variants are

* ``qq``  quantum root V on k qubits, quantum branches U_s prepared from
          |0..0> and |1..1> (case 4 edges) -- the variational ansatz,
* ``qc``  classical MPS root over k binary sites, quantum branches
          (case 1 edges),
* ``cq``  quantum root, MPS branches whose site 0 is the branch leg
          (case 2 edges).

Evaluation is bottom-up: every branch is reduced to its 2x2 observable (or
overlap) matrix, parents absorb child matrices on the attach indices, and
the root closes the contraction to a scalar.  Deeper trees evaluate by the
same recursion.  Branch matrices are cached per (node, local observable)
within an energy call so repeated Hamiltonian factors are measured once;
an :class:`EvalCounters` passed in by the caller observes the number of
quantum- and classical-node evaluations actually performed.

Parameters form one flat vector, distributed over quantum payloads in
pre-order (root first, then branches in attach order).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .pauli import Hamiltonian, LocalObs, PauliTerm, SubsystemLayout, decompose_for_layout
from .rng import SplitMix64
from .statevector import Circuit, PAULI_MATRICES, _apply_1q
from .tensors import (
    MpsTensor,
    QuantumTensor,
    branch_matrix_raw,
    mps_general_expectation,
    mps_open_site_matrix,
)


@dataclass(frozen=True)
class ProductObservable:
    """One local Pauli factor per subsystem; empty tuple = identity."""

    factors: tuple[LocalObs, ...]

    @classmethod
    def identity(cls, num_subsystems: int) -> "ProductObservable":
        return cls(((),) * num_subsystems)

    @classmethod
    def from_term(cls, term: PauliTerm, layout: SubsystemLayout) -> "ProductObservable":
        decomposed = decompose_for_layout(
            Hamiltonian(layout.num_qubits, (replace(term, coefficient=1.0),)), layout
        )
        return cls(decomposed[0][1])


@dataclass(frozen=True)
class ChildLink:
    attach: int  # parent qubit (quantum parent) or site (MPS parent)
    case: int
    node: "TreeNode"


@dataclass(frozen=True)
class TreeNode:
    payload: QuantumTensor | MpsTensor
    children: tuple[ChildLink, ...] = ()
    role: str = "branch"


@dataclass(frozen=True)
class HybridTree:
    root: TreeNode
    layout: SubsystemLayout
    depth: int
    degree: int

    @property
    def num_params(self) -> int:
        return sum(
            node.payload.num_params
            for node in _preorder(self.root)
            if isinstance(node.payload, QuantumTensor)
        )

    def with_params(self, flat) -> "HybridTree":
        flat = np.asarray(flat, dtype=float)
        if len(flat) != self.num_params:
            raise ValueError(
                f"expected {self.num_params} parameters, got {len(flat)}"
            )
        cursor = 0

        def rebuild(node: TreeNode) -> TreeNode:
            nonlocal cursor
            payload = node.payload
            if isinstance(payload, QuantumTensor):
                take = payload.num_params
                payload = payload.with_params(flat[cursor : cursor + take])
                cursor += take
            children = tuple(
                ChildLink(link.attach, link.case, rebuild(link.node))
                for link in node.children
            )
            return TreeNode(payload, children, node.role)

        return replace(self, root=rebuild(self.root))

    def flat_params(self) -> np.ndarray:
        parts = [
            node.payload.flat_params()
            for node in _preorder(self.root)
            if isinstance(node.payload, QuantumTensor)
        ]
        return np.concatenate(parts) if parts else np.zeros(0)

    def param_slices(self) -> tuple[tuple[int, int], ...]:
        """(start, stop) per quantum payload in pre-order."""
        out, at = [], 0
        for node in _preorder(self.root):
            if isinstance(node.payload, QuantumTensor):
                out.append((at, at + node.payload.num_params))
                at += node.payload.num_params
        return tuple(out)


def _preorder(node: TreeNode):
    yield node
    for link in node.children:
        yield from _preorder(link.node)


@dataclass
class EvalCounters:
    quantum_evals: int = 0
    classical_evals: int = 0


@dataclass
class _EvalContext:
    strategy: str
    shots: int
    seed_stream: SplitMix64
    counters: EvalCounters
    state_cache: dict = field(default_factory=dict)
    matrix_cache: dict = field(default_factory=dict)
    subsystem_of: dict = field(default_factory=dict)
    covered: dict = field(default_factory=dict)


def _assign_subsystems(tree: HybridTree, ctx: _EvalContext):
    """Give each node with physical slots a subsystem index, pre-order."""
    counter = 0

    def visit(node: TreeNode) -> set[int]:
        nonlocal counter
        payload = node.payload
        attach = {link.attach for link in node.children}
        if isinstance(payload, QuantumTensor):
            physical = [q for q in range(payload.num_qubits) if q not in attach]
        else:
            first_physical = 0 if node.role == "root" else 1
            physical = [
                s
                for s in range(first_physical, payload.num_sites)
                if s not in attach
            ]
        covered: set[int] = set()
        if physical:
            ctx.subsystem_of[id(node)] = (counter, tuple(physical))
            covered.add(counter)
            counter += 1
        for link in node.children:
            covered |= visit(link.node)
        ctx.covered[id(node)] = covered
        return covered

    total = visit(tree.root)
    if total != set(range(tree.layout.num_subsystems)):
        raise ValueError("tree structure does not cover the subsystem layout")


def _restrict(obs: ProductObservable, covered: set[int]) -> tuple:
    return tuple(sorted((s, obs.factors[s]) for s in covered if obs.factors[s]))


def _family_states(ctx: _EvalContext, node: TreeNode) -> np.ndarray:
    key = id(node)
    if key not in ctx.state_cache:
        ctx.state_cache[key] = node.payload.family_states()
    return ctx.state_cache[key]


def _local_factors(node, ctx, obs) -> tuple[tuple[int, str], ...]:
    """Translate the node's subsystem observable into payload coordinates."""
    entry = ctx.subsystem_of.get(id(node))
    if entry is None:
        return ()
    subsystem, physical = entry
    local_obs = obs.factors[subsystem]
    out = []
    for local_qubit, letter in local_obs:
        out.append((physical[local_qubit], letter))
    return tuple(out)


def _node_matrix(node: TreeNode, obs: ProductObservable, ctx: _EvalContext) -> np.ndarray:
    """Observable matrix over the node's upward index (1x1 at the root)."""
    cache_key = (id(node), _restrict(obs, ctx.covered[id(node)]))
    hit = ctx.matrix_cache.get(cache_key)
    if hit is not None:
        return hit

    payload = node.payload
    child_mats = [
        (link.attach, _node_matrix(link.node, obs, ctx)) for link in node.children
    ]
    if isinstance(payload, QuantumTensor):
        factors = _local_factors(node, ctx, obs)
        if not node.children and ctx.strategy != "direct":
            term = PauliTerm(1.0, factors)
            raw = branch_matrix_raw(
                payload,
                term,
                ctx.strategy,
                ctx.shots,
                ctx.seed_stream.next_u64() >> 1,
            )
        else:
            states = _family_states(ctx, node)
            n = payload.num_qubits
            ket = states
            for qubit, letter in factors:
                ket = _apply_1q(ket, PAULI_MATRICES[letter], qubit, n)
            for qubit, mat in child_mats:
                if mat.shape != (2, 2):
                    raise ValueError("child branch index must be binary")
                ket = _apply_1q(ket, mat, qubit, n)
            raw = np.einsum("ax,bx->ab", states.conj(), ket)
        ctx.counters.quantum_evals += 1
    else:
        ops: list = [None] * payload.num_sites
        factors = _local_factors(node, ctx, obs)
        for site, letter in factors:
            ops[site] = PAULI_MATRICES[letter]
        for site, mat in child_mats:
            ops[site] = mat
        if node.role == "root":
            raw = np.array([[mps_general_expectation(payload, payload, ops)]])
        else:
            raw = mps_open_site_matrix(payload, payload, 0, ops)
        ctx.counters.classical_evals += 1
    ctx.matrix_cache[cache_key] = raw
    return raw


def _make_context(tree, strategy, shots, seed, counters) -> _EvalContext:
    ctx = _EvalContext(
        strategy=strategy,
        shots=shots,
        seed_stream=SplitMix64(seed),
        counters=counters if counters is not None else EvalCounters(),
    )
    _assign_subsystems(tree, ctx)
    return ctx


def tree_expectation(
    tree: HybridTree,
    obs: ProductObservable,
    strategy: str = "direct",
    shots: int = 0,
    seed: int = 0,
    counters: EvalCounters | None = None,
) -> float:
    """<psi~| O_1 (x) ... (x) O_k |psi~> by bottom-up branch measurement."""
    if len(obs.factors) != tree.layout.num_subsystems:
        raise ValueError("observable factor count does not match the layout")
    ctx = _make_context(tree, strategy, shots, seed, counters)
    value = _node_matrix(tree.root, obs, ctx)[0, 0]
    return float(np.real(value))


def tree_energy(
    tree: HybridTree,
    h: Hamiltonian,
    strategy: str = "direct",
    shots: int = 0,
    seed: int = 0,
    counters: EvalCounters | None = None,
) -> float:
    """Energy as the decomposed-term sum, sharing one branch-matrix cache."""
    factors = decompose_for_layout(h, tree.layout)
    ctx = _make_context(tree, strategy, shots, seed, counters)
    total = 0.0
    for coeff, locals_ in factors:
        obs = ProductObservable(locals_)
        total += coeff * float(np.real(_node_matrix(tree.root, obs, ctx)[0, 0]))
    return total


def _overlap_matrix(na: TreeNode, nb: TreeNode, obs, ctx_a, ctx_b) -> np.ndarray:
    """<bra node a | O | ket node b> matrix over the shared upward index.

    ``obs`` may be None (plain overlap) or a ProductObservable whose local
    factors act on the ket-side physical qubits.
    """
    pa, pb = na.payload, nb.payload
    if type(pa) is not type(pb) or len(na.children) != len(nb.children):
        raise ValueError("overlap requires structurally identical trees")
    child_mats = [
        (la.attach, _overlap_matrix(la.node, lb.node, obs, ctx_a, ctx_b))
        for la, lb in zip(na.children, nb.children)
    ]
    factors = _local_factors(nb, ctx_b, obs) if obs is not None else ()
    if isinstance(pa, QuantumTensor):
        bra = _family_states(ctx_a, na)
        ket = _family_states(ctx_b, nb)
        n = pa.num_qubits
        for qubit, letter in factors:
            ket = _apply_1q(ket, PAULI_MATRICES[letter], qubit, n)
        for qubit, mat in child_mats:
            ket = _apply_1q(ket, mat, qubit, n)
        ctx_a.counters.quantum_evals += 1
        return np.einsum("ax,bx->ab", bra.conj(), ket)
    ops: list = [None] * pa.num_sites
    for site, letter in factors:
        ops[site] = PAULI_MATRICES[letter]
    for site, mat in child_mats:
        ops[site] = mat
    ctx_a.counters.classical_evals += 1
    if na.role == "root":
        return np.array([[mps_general_expectation(pa, pb, ops)]])
    return mps_open_site_matrix(pa, pb, 0, ops)


def tree_overlap(
    a: HybridTree, b: HybridTree, counters: EvalCounters | None = None
) -> complex:
    """<psi~_a | psi~_b> for structurally identical trees."""
    shared = counters if counters is not None else EvalCounters()
    ctx_a = _make_context(a, "direct", 0, 0, shared)
    ctx_b = _make_context(b, "direct", 0, 0, shared)
    return complex(_overlap_matrix(a.root, b.root, None, ctx_a, ctx_b)[0, 0])


def tree_transition(
    a: HybridTree,
    b: HybridTree,
    obs: ProductObservable,
    counters: EvalCounters | None = None,
) -> complex:
    """<psi~_a | O_1 (x) ... (x) O_k | psi~_b> between two trees."""
    if len(obs.factors) != b.layout.num_subsystems:
        raise ValueError("observable factor count does not match the layout")
    shared = counters if counters is not None else EvalCounters()
    ctx_a = _make_context(a, "direct", 0, 0, shared)
    ctx_b = _make_context(b, "direct", 0, 0, shared)
    return complex(_overlap_matrix(a.root, b.root, obs, ctx_a, ctx_b)[0, 0])


def tree_transition_energy(
    a: HybridTree, b: HybridTree, h: Hamiltonian,
    counters: EvalCounters | None = None,
) -> complex:
    """<psi~_a | H | psi~_b> as a decomposed-term sum."""
    factors = decompose_for_layout(h, b.layout)
    shared = counters if counters is not None else EvalCounters()
    ctx_a = _make_context(a, "direct", 0, 0, shared)
    ctx_b = _make_context(b, "direct", 0, 0, shared)
    total = 0.0 + 0.0j
    for coeff, locals_ in factors:
        obs = ProductObservable(locals_)
        total += coeff * _overlap_matrix(a.root, b.root, obs, ctx_a, ctx_b)[0, 0]
    return complex(total)


# ---------------------------------------------------------------------------
# builders

def _layout_for_sizes(sizes: tuple[int, ...]) -> SubsystemLayout:
    assignment = []
    for s, size in enumerate(sizes):
        assignment.extend((s, r) for r in range(size))
    return SubsystemLayout(len(sizes), tuple(sizes), tuple(assignment))


def _split_params(params, sizes):
    params = np.asarray(params, dtype=float)
    if len(params) != sum(sizes):
        raise ValueError(f"expected {sum(sizes)} parameters, got {len(params)}")
    out, at = [], 0
    for size in sizes:
        out.append(params[at : at + size])
        at += size
    return out


def build_two_layer_qq(
    root_circuit: Circuit, branch_circuits, params
) -> HybridTree:
    """Quantum root over quantum branches (case-4 edges).

    Root qubit s carries branch s; branch s is a shared-unitary family
    prepared from |0..0> and |1..1>.  The realized state is automatically
    normalized because the branch families are orthonormal.
    """
    branch_circuits = tuple(branch_circuits)
    k = root_circuit.num_qubits
    if len(branch_circuits) != k:
        raise ValueError("one branch circuit per root qubit expected")
    sizes = (root_circuit.num_params,) + tuple(c.num_params for c in branch_circuits)
    pieces = _split_params(params, sizes)
    root_payload = QuantumTensor.shared(root_circuit, ("0" * k,), pieces[0])
    links = []
    for s, circuit in enumerate(branch_circuits):
        n = circuit.num_qubits
        payload = QuantumTensor.shared(circuit, ("0" * n, "1" * n), pieces[1 + s])
        links.append(ChildLink(s, 4, TreeNode(payload, (), "branch")))
    root = TreeNode(root_payload, tuple(links), "root")
    layout = _layout_for_sizes(tuple(c.num_qubits for c in branch_circuits))
    return HybridTree(root, layout, depth=2, degree=k)


def build_two_layer_qc(root_mps: MpsTensor, branch_circuits, params) -> HybridTree:
    """Classical MPS root over quantum branches (case-1 edges)."""
    branch_circuits = tuple(branch_circuits)
    k = root_mps.num_sites
    if len(branch_circuits) != k:
        raise ValueError("one branch circuit per root site expected")
    if any(dim != 2 for dim in root_mps.site_dims):
        raise ValueError("root sites must be binary branch indices")
    sizes = tuple(c.num_params for c in branch_circuits)
    pieces = _split_params(params, sizes)
    links = []
    for s, circuit in enumerate(branch_circuits):
        n = circuit.num_qubits
        payload = QuantumTensor.shared(circuit, ("0" * n, "1" * n), pieces[s])
        links.append(ChildLink(s, 1, TreeNode(payload, (), "branch")))
    root = TreeNode(root_mps, tuple(links), "root")
    layout = _layout_for_sizes(tuple(c.num_qubits for c in branch_circuits))
    return HybridTree(root, layout, depth=2, degree=k)


def build_two_layer_cq(root_circuit: Circuit, branch_mps, params) -> HybridTree:
    """Quantum root over classical MPS branches (case-2 edges).

    Branch s is an MPS over n+1 sites whose site 0 is the binary branch
    leg; sites 1..n hold the block's physical qubits 0..n-1.
    """
    branch_mps = tuple(branch_mps)
    k = root_circuit.num_qubits
    if len(branch_mps) != k:
        raise ValueError("one branch MPS per root qubit expected")
    for m in branch_mps:
        if m.site_dims[0] != 2:
            raise ValueError("branch MPS site 0 must be the binary branch leg")
    root_payload = QuantumTensor.shared(
        root_circuit, ("0" * k,), np.asarray(params, dtype=float)
    )
    links = []
    for s, m in enumerate(branch_mps):
        links.append(ChildLink(s, 2, TreeNode(m, (), "branch")))
    root = TreeNode(root_payload, tuple(links), "root")
    layout = _layout_for_sizes(tuple(m.num_sites - 1 for m in branch_mps))
    return HybridTree(root, layout, depth=2, degree=k)


def is_two_layer_qq(tree: HybridTree) -> bool:
    root = tree.root
    if not isinstance(root.payload, QuantumTensor):
        return False
    if root.payload.num_labels_classical() != 1:
        return False
    if len(root.children) != root.payload.num_qubits:
        return False
    for s, link in enumerate(root.children):
        node = link.node
        if link.attach != s or link.case != 4 or node.children:
            return False
        if not isinstance(node.payload, QuantumTensor):
            return False
        if node.payload.num_labels_classical() != 2:
            return False
    return True


# ---------------------------------------------------------------------------
# cost model

class CostEstimate(NamedTuple):
    quantum_evals: int
    classical_flops: float
    quantum_samples: float
    bound: float


def cost_estimate(tree: HybridTree, epsilon: float) -> CostEstimate:
    """Evaluation cost of one product-observable pass.

    Each quantum node contributes one evaluation of chi**2 / epsilon**2
    samples; each classical node contributes sites * chi**4 contraction
    flops.  The reported ``bound`` is the geometric node-count envelope
    sum_{i<D} t**i times the worst per-node cost, which dominates the
    actual totals and grows linearly in the leaf count for fixed depth.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    quantum_nodes = 0
    classical_flops = 0.0
    chi = 2
    max_sites = tree.degree
    for node in _preorder(tree.root):
        for link in node.children:
            if isinstance(link.node.payload, QuantumTensor):
                chi = max(chi, link.node.payload.num_labels)
        if isinstance(node.payload, QuantumTensor):
            quantum_nodes += 1
        else:
            payload = node.payload
            chi = max(chi, payload.chi)
            max_sites = max(max_sites, payload.num_sites)
            classical_flops += payload.num_sites * payload.chi**4
    cq_unit = float(np.ceil(chi**2 / epsilon**2))
    cc_unit = max_sites * chi**4
    nodes_geom = sum(tree.degree**i for i in range(tree.depth))
    bound = nodes_geom * (cq_unit + cc_unit)
    return CostEstimate(
        quantum_evals=quantum_nodes,
        classical_flops=classical_flops,
        quantum_samples=quantum_nodes * cq_unit,
        bound=bound,
    )
