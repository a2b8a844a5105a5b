"""Hybrid tree tensor networks and their bottom-up evaluation.

A tree is a rooted hierarchy of tensors.  Child nodes hang off a parent
index (a qubit of a quantum parent, a site of an MPS parent); each child
exposes a binary branch index upward.  A tree stores only its payloads,
attach points and subsystem layout: the root is pre-order node 0, the
depth and degree follow from the children, and the contraction case of
each edge is read off the payload types of the two nodes it joins.  The
three two-layer variants are

* ``qq``  quantum root V on k qubits, quantum branches U_s prepared from
          |0..0> and |1..1> (case 4: quantum parent, quantum child) --
          the variational ansatz,
* ``qc``  classical MPS root over k binary sites, quantum branches
          (case 1: MPS parent, quantum child),
* ``cq``  quantum root, MPS branches whose site 0 is the branch leg
          (case 2: quantum parent, MPS child).

Every tree quantity -- expectation, energy, overlap, transition element,
and the perturbed states of the imaginary-time stencil -- comes from one
bottom-up contraction (:class:`_Pass`).  Each node is reduced to a block
<bra family| O |ket family> over its upward index, batched over bra and
ket rows: a node whose family is a stack of perturbed rows is *open*,
and its rows travel up to the root (paired, under an observable, when
the node is open on both sides).  A quantum leaf serves every block as a
slice of one Gram GEMM and one pass of local-word blocks over its rows.
A quantum parent reduces its own states on its children's qubits and
absorbs each child's block into that reduction by one GEMM; an MPS
parent takes the blocks as batched site operators.  Blocks are cached
per (node, local observable, open nodes below), so repeated Hamiltonian
factors are measured once and unperturbed subtrees are shared; an
:class:`EvalCounters` passed in by the caller observes the number of
quantum- and classical-node evaluations actually performed.  The
contraction is exact; measuring one branch observable on a register,
sampled or not, is :func:`~hybridtn.tensors.measure_branch_observable`.

Parameters form one flat vector, laid out by
:meth:`HybridTree.param_slices` over the quantum payloads in pre-order
(root first, then branches in attach order).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .pauli import (
    Hamiltonian,
    LocalObs,
    PauliTerm,
    SubsystemLayout,
    decompose_for_layout,
    parity_signs,
    pauli_word_masks,
)
from .statevector import Circuit, PAULI_MATRICES, _apply_1q, apply_pauli_array
from .tensors import (
    MpsTensor,
    QuantumTensor,
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
    node: "TreeNode"


@dataclass(frozen=True)
class TreeNode:
    payload: QuantumTensor | MpsTensor
    children: tuple[ChildLink, ...] = ()


@dataclass(frozen=True)
class HybridTree:
    root: TreeNode
    layout: SubsystemLayout

    def param_slices(self) -> tuple[tuple[int, int, int], ...]:
        """(pre-order node index, start, stop) per quantum payload."""
        out, at = [], 0
        for i, node in enumerate(_preorder(self.root)):
            if isinstance(node.payload, QuantumTensor):
                out.append((i, at, at + node.payload.num_params))
                at += node.payload.num_params
        return tuple(out)

    @property
    def num_params(self) -> int:
        return sum(stop - start for _, start, stop in self.param_slices())

    def with_params(self, flat) -> "HybridTree":
        flat = np.asarray(flat, dtype=float)
        if len(flat) != self.num_params:
            raise ValueError(
                f"expected {self.num_params} parameters, got {len(flat)}"
            )
        slices = iter(self.param_slices())

        def rebuild(node: TreeNode) -> TreeNode:
            payload = node.payload
            if isinstance(payload, QuantumTensor):
                _, start, stop = next(slices)
                payload = payload.with_params(flat[start:stop])
            children = tuple(
                ChildLink(link.attach, rebuild(link.node)) for link in node.children
            )
            return TreeNode(payload, children)

        return replace(self, root=rebuild(self.root))

    def flat_params(self) -> np.ndarray:
        parts = [
            node.payload.flat_params()
            for node in _preorder(self.root)
            if isinstance(node.payload, QuantumTensor)
        ]
        return np.concatenate(parts) if parts else np.zeros(0)


def _preorder(node: TreeNode):
    yield node
    for link in node.children:
        yield from _preorder(link.node)


@dataclass
class EvalCounters:
    quantum_evals: int = 0
    classical_evals: int = 0


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


def _obs_blocks(b: np.ndarray, groups, bra: np.ndarray | None = None) -> np.ndarray:
    """H[w, r, x, y] = <bra[r, x]| W_w |b[r, y]> for every compiled word.

    ``bra`` defaults to ``b``.  Per flip mask: one flipped view of the
    kets, one elementwise product with the conjugate bras, and one GEMM
    against the phase matrix.
    """
    rows, labels, dim = b.shape
    n = dim.bit_length() - 1
    num_words = sum(len(cols) for _, cols, _ in groups)
    bras = (b if bra is None else bra).conj()[:, :, None, :]
    view = b.reshape((rows * labels,) + (2,) * n)
    out = np.empty((num_words, rows * labels * labels), dtype=complex)
    for axes, cols, phases in groups:
        flipped = np.flip(view, tuple(1 + ax for ax in axes)).reshape(b.shape)
        prod = bras * flipped[:, None, :, :]
        out[cols] = (prod.reshape(-1, dim) @ phases).T
    return out.reshape(num_words, rows, labels, labels)


# entries of the base-state reduction a quantum parent keeps (4**q for q
# children); a larger parent applies its unperturbed child blocks to its
# amplitudes on every call instead
_REDUCTION_MAX = 4**6


def _reduce(bra, ket, qubits, n: int, paired: bool) -> np.ndarray:
    """Reduction of a quantum parent's states on its children's qubits.

    D[a, b, x, y, x_0 .. x_q-1, y_0 .. y_q-1] =
    <bra[a, x]| (|x_0><y_0| on qubits[0]) ... |ket[b, y]> for row stacks
    bra (A, l, 2**n) and ket (B, m, 2**n), by one GEMM over the other
    qubits.  ``paired`` pairs bra row r with ket row r into D[r, 0].
    """
    q = len(qubits)
    # axis n - t of the (rows, (2,) * n) view holds qubit t
    front = [n - qubit for qubit in qubits]
    perm = [0] + front + [ax for ax in range(1, 1 + n) if ax not in front]

    def split(amps):
        t = amps.reshape((-1,) + (2,) * n).transpose(perm)
        return t.reshape(amps.shape[:2] + (2**q, -1))

    b, k = split(bra).conj(), split(ket)
    if paired:
        d = np.einsum("alxn,amyn->almxy", b, k)[:, None]
    else:
        d = b.reshape(-1, b.shape[-1]) @ k.reshape(-1, k.shape[-1]).T
        d = d.reshape(b.shape[:3] + k.shape[:3]).transpose(0, 3, 1, 4, 2, 5)
    return d.reshape(d.shape[:4] + (2,) * (2 * q))


def _absorb(d: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """sum_k d[a, b, L, k] mat[a, b, k] with the row axes broadcast, one GEMM.

    Each row axis comes from one operand at most.
    """
    (ad, bd, size, k), (am, bm, _) = d.shape, mat.shape
    if am == bm == 1:
        return d @ mat[0, 0]
    if am > 1 < ad or bm > 1 < bd:
        raise ValueError("a row axis comes from more than one node")
    p = (mat.reshape(-1, k) @ d.reshape(-1, k).T).reshape(am, bm, ad, bd, size)
    return p.transpose(0, 2, 1, 3, 4).reshape(am * ad, bm * bd, size)


class _Pass:
    """One bottom-up contraction of <bra tree| . |ket tree>.

    :meth:`block` gives node i's block (A, B, l_bra, l_ket) over its upward
    index, nodes numbered in pre-order; the root's is (A, B, 1, 1).  Each
    quantum node's family is a row stack (rows, labels, 2**n) whose row 0
    is the family itself: ``stacks`` may supply them (the flow stencil's
    perturbed rows), the others are the one-row family states.  The node
    ``bra_open`` takes all rows of its bra stack and every other node row
    0, likewise on the ket side, so A and B are 1 or an open node's row
    count.  Under an observable a node open on both sides pairs its rows:
    row r of the result is the expectation in the r-th family.
    ``factors`` lists the (coefficient, factor tuple) terms asked for, so
    a quantum leaf measures all its local words in one pass.
    """

    def __init__(
        self,
        bra: HybridTree,
        ket: HybridTree,
        factors=(),
        counters: EvalCounters | None = None,
        words: dict | None = None,
        stacks: dict | None = None,
    ):
        if any(len(f) != ket.layout.num_subsystems for _, f in factors):
            raise ValueError("observable factor count does not match the layout")
        self.factors = factors
        self.counters = counters if counters is not None else EvalCounters()
        self.words = {} if words is None else words  # compiled, per leaf
        self.ket_nodes = list(_preorder(ket.root))
        self.ket_stacks = dict(stacks or {})
        if bra is ket:
            self.bra_nodes, self.bra_stacks = self.ket_nodes, self.ket_stacks
        else:
            self.bra_nodes, self.bra_stacks = list(_preorder(bra.root)), {}
            for na, nb in zip(self.bra_nodes, self.ket_nodes):
                if type(na.payload) is not type(nb.payload) or len(
                    na.children
                ) != len(nb.children):
                    raise ValueError("overlap requires structurally identical trees")
        # children[i] lists (attach, child index); node i's subtree is
        # nodes i .. end[i] - 1 and covers the subsystems covered[i];
        # physical[i] is (subsystem, physical qubits or sites) or None
        self.children, self.end, self.physical, self.covered = [], [], [], []
        self._index(ket.root)
        if self.covered[0] != tuple(range(ket.layout.num_subsystems)):
            raise ValueError("tree structure does not cover the subsystem layout")
        self.blocks: dict = {}
        self.grams: dict = {}
        self.tables: dict = {}
        self.reductions: dict = {}

    def _index(self, node: TreeNode) -> int:
        i = len(self.end)
        self.end.append(0)
        self.children.append(())
        self.covered.append(())
        payload = node.payload
        attach = {link.attach for link in node.children}
        if isinstance(payload, QuantumTensor):
            physical = [q for q in range(payload.num_qubits) if q not in attach]
        else:
            first = 0 if i == 0 else 1  # a branch MPS's site 0 is its upward leg
            physical = [s for s in range(first, payload.num_sites) if s not in attach]
        subsystem = sum(entry is not None for entry in self.physical)
        self.physical.append((subsystem, tuple(physical)) if physical else None)
        self.children[i] = tuple(
            (link.attach, self._index(link.node)) for link in node.children
        )
        covered = [subsystem] if physical else []
        for _, j in self.children[i]:
            covered.extend(self.covered[j])
        self.covered[i] = tuple(sorted(covered))
        self.end[i] = len(self.end)
        return i

    def term_sum(self) -> complex:
        """sum_t c_t <bra| O_t |ket> over the pass's terms."""
        total = 0.0 + 0.0j
        for coeff, locals_ in self.factors:
            total += coeff * self.block(0, locals_)[0, 0, 0, 0]
        return complex(total)

    def block(self, i: int, obs, bra_open: int | None = None, ket_open=None):
        """Block of node i under the factor tuple ``obs`` (None: overlap)."""
        end = self.end[i]
        if bra_open is not None and not i <= bra_open < end:
            bra_open = None
        if ket_open is not None and not i <= ket_open < end:
            ket_open = None
        local = None if obs is None else tuple(obs[s] for s in self.covered[i])
        key = (i, local, bra_open, ket_open)
        out = self.blocks.get(key)
        if out is not None:
            return out
        kids = [
            (attach, self.block(j, obs, bra_open, ket_open))
            for attach, j in self.children[i]
        ]
        factors = self._local_factors(i, obs)
        if isinstance(self.ket_nodes[i].payload, QuantumTensor):
            out = self._quantum(i, obs, factors, kids, bra_open == i, ket_open == i)
            self.counters.quantum_evals += 1
        else:
            out = self._mps(i, factors, kids)
            self.counters.classical_evals += 1
        self.blocks[key] = out
        return out

    def _local_factors(self, i: int, obs) -> tuple[tuple[int, str], ...]:
        """The node's subsystem factor in payload coordinates."""
        entry = self.physical[i]
        if entry is None or obs is None:
            return ()
        subsystem, physical = entry
        return tuple((physical[q], letter) for q, letter in obs[subsystem])

    def _stack(self, stacks: dict, nodes: list, i: int) -> np.ndarray:
        out = stacks.get(i)
        if out is None:
            out = stacks[i] = nodes[i].payload.family_states()[None]
        return out

    def _quantum(self, i, obs, factors, kids, bra_open, ket_open) -> np.ndarray:
        bra = self._stack(self.bra_stacks, self.bra_nodes, i)
        ket = self._stack(self.ket_stacks, self.ket_nodes, i)
        rows_b = slice(None) if bra_open else slice(1)
        rows_k = slice(None) if ket_open else slice(1)
        if not kids:
            return self._leaf(i, obs, factors, bra, ket, rows_b, rows_k)
        for _, mat in kids:
            if mat.shape[2:] != (2, 2):
                raise ValueError("child branch index must be binary")
        plain = [mat.shape[:2] == (1, 1) for _, mat in kids]  # no open rows below
        n = self.ket_nodes[i].payload.num_qubits
        if not (bra_open or ket_open or factors) and 4 ** len(kids) <= _REDUCTION_MAX:
            # the base states' reduction on every child qubit is shared by
            # all observables and open nodes; plain children go in first
            d = self.reductions.get(i)
            if d is None:
                d = self.reductions[i] = _reduce(
                    bra[:1], ket[:1], [q for q, _ in kids], n, False
                )
            order = sorted(range(len(kids)), key=lambda c: not plain[c])
        else:
            bra, ket = bra[rows_b], ket[rows_k]
            ket = apply_pauli_array(ket, factors, n)
            for (qubit, mat), is_plain in zip(kids, plain):
                if is_plain:
                    ket = _apply_1q(ket, mat[0, 0], qubit, n)
            kids = [kid for kid, is_plain in zip(kids, plain) if not is_plain]
            paired = obs is not None and bra_open and ket_open
            d = _reduce(bra, ket, [q for q, _ in kids], n, paired)
            order = list(range(len(kids)))
        # absorb the children in order, one GEMM each: their bits go last
        labels, q = d.shape[2:4], len(kids)
        d = d.transpose([0, 1, 2, 3] + [4 + j for c in order[::-1] for j in (c, q + c)])
        for c in order:
            mat = kids[c][1]
            d = d.reshape(d.shape[:2] + (-1, 4))
            d = _absorb(d, mat.reshape(mat.shape[:2] + (4,)))
        return d.reshape(d.shape[:2] + labels)

    def _leaf(self, i, obs, factors, bra, ket, rows_b, rows_k) -> np.ndarray:
        """Slices of the leaf's Gram block or of its local-word blocks."""
        if obs is None:
            gram = self.grams.get(i)
            if gram is None:
                (a, l, dim), (b, m, _) = bra.shape, ket.shape
                g = bra.reshape(a * l, dim).conj() @ ket.reshape(b * m, dim).T
                gram = g.reshape(a, l, b, m).transpose(0, 2, 1, 3)
                gram = self.grams[i] = np.ascontiguousarray(gram)
            return gram[rows_b, rows_k]
        if rows_b != rows_k:
            raise ValueError("an observable needs its node open on both sides")
        table = self.tables.get(i)
        if table is None:
            entry = self.words.get(i)
            if entry is None:
                words = sorted({self._local_factors(i, f) for _, f in self.factors})
                n = self.ket_nodes[i].payload.num_qubits
                entry = self.words[i] = (
                    {word: col for col, word in enumerate(words)},
                    _compile_words(words, n),
                )
            table = self.tables[i] = (entry[0], _obs_blocks(ket, entry[1], bra))
        col_of, blocks = table
        return blocks[col_of[factors], rows_b, None]

    def _mps(self, i, factors, kids) -> np.ndarray:
        bra, ket = self.bra_nodes[i].payload, self.ket_nodes[i].payload
        ops: list = [None] * ket.num_sites
        for site, letter in factors:
            ops[site] = PAULI_MATRICES[letter]
        for site, mat in kids:
            ops[site] = mat
        if i == 0:  # the root MPS has no upward leg
            out = np.asarray(mps_general_expectation(bra, ket, ops))[..., None, None]
        else:
            out = mps_open_site_matrix(bra, ket, 0, ops)
        return out.reshape((1,) * (4 - out.ndim) + out.shape)


def tree_expectation(
    tree: HybridTree, obs: ProductObservable, counters: EvalCounters | None = None
) -> float:
    """<psi~| O_1 (x) ... (x) O_k |psi~> by one exact bottom-up contraction."""
    return _Pass(tree, tree, ((1.0, obs.factors),), counters).term_sum().real


def tree_energy(
    tree: HybridTree, h: Hamiltonian, counters: EvalCounters | None = None
) -> float:
    """Energy as the decomposed-term sum, sharing one branch-block cache."""
    factors = decompose_for_layout(h, tree.layout)
    return _Pass(tree, tree, factors, counters).term_sum().real


def tree_overlap(a: HybridTree, b: HybridTree) -> complex:
    """<psi~_a | psi~_b> for structurally identical trees."""
    return complex(_Pass(a, b).block(0, None)[0, 0, 0, 0])


def tree_transition(a: HybridTree, b: HybridTree, obs: ProductObservable) -> complex:
    """<psi~_a | O_1 (x) ... (x) O_k | psi~_b> between two trees."""
    return _Pass(a, b, ((1.0, obs.factors),)).term_sum()


def tree_transition_energy(a: HybridTree, b: HybridTree, h: Hamiltonian) -> complex:
    """<psi~_a | H | psi~_b> as a decomposed-term sum."""
    return _Pass(a, b, decompose_for_layout(h, b.layout)).term_sum()


# ---------------------------------------------------------------------------
# builders

def _layout_for_sizes(sizes: tuple[int, ...]) -> SubsystemLayout:
    assignment = []
    for s, size in enumerate(sizes):
        assignment.extend((s, r) for r in range(size))
    return SubsystemLayout(len(sizes), tuple(sizes), tuple(assignment))


def _family(circuit: Circuit, labels: int) -> QuantumTensor:
    """Shared-unitary payload prepared from |0..0> (and |1..1>), parameters zero."""
    n = circuit.num_qubits
    bits = ("0" * n, "1" * n)[:labels]
    return QuantumTensor.shared(circuit, bits, np.zeros(circuit.num_params))


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
    links = tuple(
        ChildLink(s, TreeNode(_family(c, 2))) for s, c in enumerate(branch_circuits)
    )
    layout = _layout_for_sizes(tuple(c.num_qubits for c in branch_circuits))
    return HybridTree(TreeNode(_family(root_circuit, 1), links), layout).with_params(params)


def build_two_layer_qc(root_mps: MpsTensor, branch_circuits, params) -> HybridTree:
    """Classical MPS root over quantum branches (case-1 edges)."""
    branch_circuits = tuple(branch_circuits)
    if len(branch_circuits) != root_mps.num_sites:
        raise ValueError("one branch circuit per root site expected")
    if any(dim != 2 for dim in root_mps.site_dims):
        raise ValueError("root sites must be binary branch indices")
    links = tuple(
        ChildLink(s, TreeNode(_family(c, 2))) for s, c in enumerate(branch_circuits)
    )
    layout = _layout_for_sizes(tuple(c.num_qubits for c in branch_circuits))
    return HybridTree(TreeNode(root_mps, links), layout).with_params(params)


def build_two_layer_cq(root_circuit: Circuit, branch_mps, params) -> HybridTree:
    """Quantum root over classical MPS branches (case-2 edges).

    Branch s is an MPS over n+1 sites whose site 0 is the binary branch
    leg; sites 1..n hold the block's physical qubits 0..n-1.
    """
    branch_mps = tuple(branch_mps)
    if len(branch_mps) != root_circuit.num_qubits:
        raise ValueError("one branch MPS per root qubit expected")
    for m in branch_mps:
        if m.site_dims[0] != 2:
            raise ValueError("branch MPS site 0 must be the binary branch leg")
    links = tuple(ChildLink(s, TreeNode(m)) for s, m in enumerate(branch_mps))
    layout = _layout_for_sizes(tuple(m.num_sites - 1 for m in branch_mps))
    return HybridTree(TreeNode(_family(root_circuit, 1), links), layout).with_params(params)


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
    sum_{i<D} t**i times the worst per-node cost, with D the number of
    levels and t the largest child count, which dominates the actual
    totals and grows linearly in the leaf count for fixed depth.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")

    def levels(node: TreeNode) -> int:
        return 1 + max((levels(link.node) for link in node.children), default=0)

    nodes = list(_preorder(tree.root))
    degree = max(len(node.children) for node in nodes)
    quantum_nodes = 0
    classical_flops = 0.0
    chi = 2
    max_sites = degree
    for node in nodes:
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
    nodes_geom = sum(degree**i for i in range(levels(tree.root)))
    bound = nodes_geom * (cq_unit + cc_unit)
    return CostEstimate(
        quantum_evals=quantum_nodes,
        classical_flops=classical_flops,
        quantum_samples=quantum_nodes * cq_unit,
        bound=bound,
    )
