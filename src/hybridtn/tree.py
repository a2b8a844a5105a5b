"""Hybrid tree tensor networks and their bottom-up evaluation.

A tree is a rooted hierarchy of tensors.  Child nodes hang off a parent
index (a qubit of a quantum parent, a site of an MPS parent); each child
exposes a binary branch index upward.  A tree stores only its payloads
and attach points: the root is pre-order node 0, the depth and degree
follow from the children, and the contraction case of each edge is read
off the payload types of the two nodes it joins.  A node's *physical*
qubits (or MPS sites) are those no child attaches to; in pre-order, each
node that has any is one subsystem of the tree's layout, sized by their
count.  The three two-layer variants are

* ``qq``  quantum root V on k qubits, quantum branches U_s prepared from
          |0..0> and |1..1> (case 4: quantum parent, quantum child) --
          the variational ansatz,
* ``qc``  classical MPS root over k binary sites, quantum branches
          (case 1: MPS parent, quantum child),
* ``cq``  quantum root, MPS branches whose site 0 is the branch leg
          (case 2: quantum parent, MPS child).

Every tree quantity -- expectation, energy, overlap, the transition
element <a|H|b> between two trees, and the perturbed states of the
imaginary-time stencil -- comes from one bottom-up contraction
(:class:`_Pass`).  A node whose family is a stack
of perturbed rows is *open*.

* Overlaps reduce each node to a block <bra family|ket family> over its
  upward index, batched over bra and ket rows, and the open rows travel
  up to the root.  A quantum leaf's blocks are slices of one Gram GEMM; a
  quantum parent applies its row-less children's blocks to its states and
  absorbs the others into one reduction on their qubits, one GEMM each.
* Observables are Hamiltonian term sums.  The contraction is linear in
  each block, so every node keeps its base block under each of its
  *local words* (the distinct restrictions of the terms to the subsystems
  below it) in one word-batched array: a quantum leaf measures all its
  words in one pass over its rows, a quantum parent applies its
  children's word-batched blocks to its states, an MPS node takes them as
  batched site operators.  The environment step of tree tensor-network
  sweeps (Shi, Duan & Vidal, arXiv:quant-ph/0511070) then goes down the
  tree: a node's environment is the rest of the tree with its block left
  out, summed with the coefficients over the terms that share its local
  word.  One contraction of an open node's environment with its blocks in
  every perturbed row gives all of that node's perturbed energies; at a
  quantum parent the environment becomes one effective operator on the
  parent's register.

An :class:`EvalCounters` passed in by the caller counts the measurements
the paper's algorithm makes: one per (quantum node, distinct local
observable) and one per overlap block, likewise for classical nodes.  The
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
    SubsystemLayout,
    decompose_for_layout,
    parity_signs,
    pauli_word_masks,
)
from .statevector import Circuit, PAULI_MATRICES, _apply_1q, _kron
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


@dataclass(frozen=True)
class ChildLink:
    attach: int  # parent qubit (quantum parent) or site (MPS parent)
    node: "TreeNode"


@dataclass(frozen=True)
class TreeNode:
    payload: QuantumTensor | MpsTensor
    children: tuple[ChildLink, ...] = ()


def _physical(node: TreeNode, root: bool) -> tuple[int, ...]:
    """The node's physical qubits or sites: those no child attaches to.

    A branch MPS's site 0 is its upward leg, neither physical nor an
    attach point.  Each child needs its own qubit or site of the node.
    """
    payload = node.payload
    if isinstance(payload, QuantumTensor):
        first, size = 0, payload.num_qubits
    else:
        first, size = (0 if root else 1), payload.num_sites
    attach = [link.attach for link in node.children]
    if len(set(attach)) != len(attach):
        raise ValueError(f"two children share an attach point: {attach}")
    for point in attach:
        if not first <= point < size:
            raise ValueError(
                f"attach point {point} is not one of the node's {first}..{size - 1}"
            )
    return tuple(p for p in range(first, size) if p not in attach)


def _shape(node: TreeNode) -> tuple:
    """A node's payload type and size and its children's attach points."""
    payload = node.payload
    quantum = isinstance(payload, QuantumTensor)
    size = payload.num_qubits if quantum else payload.num_sites
    return type(payload), size, tuple(link.attach for link in node.children)


@dataclass(frozen=True)
class HybridTree:
    root: TreeNode

    @property
    def layout(self) -> SubsystemLayout:
        """One subsystem per node with physical qubits or sites, in pre-order."""
        nodes = enumerate(_preorder(self.root))
        sizes = (len(_physical(node, i == 0)) for i, node in nodes)
        return SubsystemLayout(tuple(size for size in sizes if size))

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


def _preorder(node: TreeNode):
    yield node
    for link in node.children:
        yield from _preorder(link.node)


@dataclass
class EvalCounters:
    """Node evaluations: one per (node, distinct local observable) measured
    for a term sum, one per block of an overlap."""

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


# identity and the Pauli matrices, indexed by _PAULI_CODE
_PAULI_STACK = np.stack([np.eye(2)] + [PAULI_MATRICES[c] for c in "XYZ"]).astype(complex)
_PAULI_CODE = {"X": 1, "Y": 2, "Z": 3}


def _reduce(bra, ket, qubits, n: int) -> np.ndarray:
    """Reduction of a quantum parent's states on its children's qubits.

    D[a, b, x, y, x_0 .. x_q-1, y_0 .. y_q-1] =
    <bra[a, x]| (|x_0><y_0| on qubits[0]) ... |ket[b, y]> for row stacks
    bra (A, l, 2**n) and ket (B, m, 2**n), by one GEMM over the other
    qubits.
    """
    q = len(qubits)
    # axis n - t of the (rows, (2,) * n) view holds qubit t
    front = [n - qubit for qubit in qubits]
    perm = [0] + front + [ax for ax in range(1, 1 + n) if ax not in front]

    def split(amps):
        t = amps.reshape((-1,) + (2,) * n).transpose(perm)
        return t.reshape(amps.shape[:2] + (2**q, -1))

    b, k = split(bra).conj(), split(ket)
    d = b.reshape(-1, b.shape[-1]) @ k.reshape(-1, k.shape[-1]).T
    d = d.reshape(b.shape[:3] + k.shape[:3]).transpose(0, 3, 1, 4, 2, 5)
    return d.reshape(d.shape[:4] + (2,) * (2 * q))


def _absorb(d: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """sum_k d[a, b, L, k] mat[a, b, k] with the row axes broadcast, one GEMM.

    Each row axis comes from one operand at most.
    """
    (ad, bd, size, k), (am, bm, _) = d.shape, mat.shape
    if am > 1 < ad or bm > 1 < bd:
        raise ValueError("a row axis comes from more than one node")
    p = (mat.reshape(-1, k) @ d.reshape(-1, k).T).reshape(am, bm, ad, bd, size)
    return p.transpose(0, 2, 1, 3, 4).reshape(am * ad, bm * bd, size)


def _apply_ops(amps: np.ndarray, ops: dict, n: int) -> np.ndarray:
    """Per-word factors {qubit: (words, 2, 2)} on amps (l, 2**n): (words, l, 2**n)."""
    for qubit, mats in ops.items():
        amps = _apply_1q(amps, mats[:, None], qubit, n)
    return amps


def _effective_rows(env: np.ndarray, ops: dict, bra: np.ndarray, ket: np.ndarray):
    """sum_w env[w, x, y] <bra[r, x]| (x)_q ops[q][w] |ket[r, y]> for every row r.

    The environment acts as one effective operator on the register,
    sum_w env[w] (x) hi_w (x) lo_w, where hi_w and lo_w kron the word's
    factors on the high and the low half of the qubits.  It is built one
    high-half output index at a time, by a GEMM over the words, and applied
    at once, so it never takes more than l**2 2**n 2**(n/2) entries instead
    of the whole operator's l**2 4**n.
    """
    (count, l), (rows, _, dim) = env.shape[:2], ket.shape
    n = dim.bit_length() - 1
    half = n // 2
    facs = np.stack([ops[q] for q in range(n)], axis=1)  # (words, n, 2, 2)
    hi, lo = _kron(facs[:, half:]), _kron(facs[:, :half])
    d_hi, d_lo = 2 ** (n - half), 2**half
    kets = ket.reshape(rows, l * dim)
    bras = bra.conj().reshape(rows, l, d_hi, d_lo)
    out = np.zeros(rows, dtype=complex)
    for a in range(d_hi):
        left = (env[:, :, :, None] * hi[:, None, None, a]).reshape(count, l * l * d_hi)
        k = (left.T @ lo.reshape(count, d_lo * d_lo)).reshape(l, l, d_hi, d_lo, d_lo)
        k = k.transpose(0, 3, 1, 2, 4).reshape(l * d_lo, l * dim)  # (x, A_lo), (y, B)
        kx = (kets @ k.T).reshape(rows, l, d_lo)
        out += np.einsum("rxa,rxa->r", bras[:, :, a], kx)
    return out


class _Words(NamedTuple):
    """A node's local words: the distinct restrictions of the pass's terms
    to the subsystems below it, in sorted order."""

    count: int
    of_term: np.ndarray  # word index of every term
    of_parent: np.ndarray | None  # word index under each word of the parent
    paulis: dict  # physical qubit or site -> (count, 2, 2) Pauli factors
    compiled: tuple | None  # a quantum leaf's words, compiled for _obs_blocks


class _Pass:
    """One bottom-up contraction of <bra tree| . |ket tree>.

    Each quantum node's family is a row stack (rows, labels, 2**n) whose
    row 0 is the family itself: ``stacks`` may supply them (the flow
    stencil's perturbed rows), the others are the one-row family states.
    Nodes are numbered in pre-order.

    Overlaps: :meth:`block` gives node i's block (A, B, l_bra, l_ket) over
    its upward index; the root's is (A, B, 1, 1).  The node ``bra_open``
    takes all rows of its bra stack and every other node row 0, likewise
    on the ket side, so A and B are 1 or an open node's row count.

    Observables: ``factors`` lists the (coefficient, factor tuple) terms.
    With ``terms`` set, :meth:`block` gives node i's row-0 blocks under
    each of its local words at once, (words, l_bra, l_ket): a quantum leaf
    measures all its words in one pass, and a parent applies its
    children's blocks word-batched.  :meth:`env` goes down the tree with
    the coefficients, and :meth:`term_sum` contracts a node's environment
    with its blocks, for the base state or for every row of an open node.
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
        self.factors = factors
        self.coeffs = np.array([c for c, _ in factors], dtype=float)
        self.counters = counters if counters is not None else EvalCounters()
        self.words = {} if words is None else words  # _Words per node
        self.ket_nodes = list(_preorder(ket.root))
        self.ket_stacks = dict(stacks or {})
        if bra is ket:
            self.bra_nodes, self.bra_stacks = self.ket_nodes, self.ket_stacks
        else:
            self.bra_nodes, self.bra_stacks = list(_preorder(bra.root)), {}
            pairs = zip(self.bra_nodes, self.ket_nodes)
            if any(_shape(na) != _shape(nb) for na, nb in pairs):
                raise ValueError("overlap requires structurally identical trees")
        # children[i] lists (attach, child index) and parent[i] is (parent,
        # attach); node i's subtree is nodes i .. end[i] - 1 and covers the
        # subsystems covered[i]; physical[i] is (subsystem, physical qubits
        # or sites) or None
        self.children, self.parent, self.end, self.physical, self.covered = (
            [], [None], [], [], []
        )
        self._index(ket.root)
        if any(len(f) != len(self.covered[0]) for _, f in factors):
            raise ValueError("observable factor count does not match the layout")
        self.blocks: dict = {}
        self.envs: dict = {}
        self.grams: dict = {}
        self.tables: dict = {}

    def _index(self, node: TreeNode) -> int:
        i = len(self.end)
        self.end.append(0)
        self.children.append(())
        self.covered.append(())
        physical = _physical(node, i == 0)
        subsystem = sum(entry is not None for entry in self.physical)
        self.physical.append((subsystem, physical) if physical else None)
        kids = []
        for link in node.children:
            self.parent.append((i, link.attach))
            kids.append((link.attach, self._index(link.node)))
        self.children[i] = tuple(kids)
        covered = [subsystem] if physical else []
        for _, j in self.children[i]:
            covered.extend(self.covered[j])
        self.covered[i] = tuple(sorted(covered))
        self.end[i] = len(self.end)
        return i

    def _node_words(self, i: int) -> _Words:
        entry = self.words.get(i)
        if entry is not None:
            return entry
        covered = self.covered[i]
        restricted = [tuple(f[s] for s in covered) for _, f in self.factors]
        words = sorted(set(restricted))
        col = {word: j for j, word in enumerate(words)}
        of_term = np.array([col[word] for word in restricted], dtype=np.intp)
        of_parent = None
        if i:
            parent = self._node_words(self.parent[i][0])
            of_parent = np.empty(parent.count, dtype=np.intp)
            of_parent[parent.of_term] = of_term
        local = [self._local_factors(i, word) for word in words]
        payload = self.ket_nodes[i].payload
        compiled, paulis = None, {}
        if isinstance(payload, QuantumTensor) and not self.children[i]:
            compiled = _compile_words(local, payload.num_qubits)
        elif self.physical[i] is not None:
            codes = {pos: np.zeros(len(words), np.intp) for pos in self.physical[i][1]}
            for j, factors in enumerate(local):
                for pos, letter in factors:
                    codes[pos][j] = _PAULI_CODE[letter]
            paulis = {pos: _PAULI_STACK[c] for pos, c in codes.items()}
        entry = _Words(len(words), of_term, of_parent, paulis, compiled)
        self.words[i] = entry
        return entry

    def _local_factors(self, i: int, word) -> tuple[tuple[int, str], ...]:
        """The node's subsystem factor of a local word, in payload coordinates."""
        entry = self.physical[i]
        if entry is None:
            return ()
        subsystem, physical = entry
        own = word[self.covered[i].index(subsystem)]
        return tuple((physical[q], letter) for q, letter in own)

    def _ops(self, i: int, skip=None) -> dict:
        """Node i's per-word factors (words, 2, 2) by qubit or site: its Pauli
        factors and its children's blocks, bar the child attached at ``skip``."""
        ops = dict(self._node_words(i).paulis)
        for attach, j in self.children[i]:
            if attach != skip:
                ops[attach] = self.block(j, terms=True)[self._node_words(j).of_parent]
        return ops

    def term_sum(self, u: int | None = None):
        """sum_t c_t <bra| O_t |ket> over the pass's terms.

        With an open node u, the sum in every family of u's paired bra and
        ket rows (one value per row) by one row-carrying contraction:
        environment times u's blocks, summed over u's local words.
        """
        if u is None:
            return complex(np.sum(self.env(0) * self.block(0, terms=True)))
        env = self.env(u)
        if not self.children[u]:
            return np.einsum("wxy,wrxy->r", env, self._leaf_table(u))
        return _effective_rows(env, self._ops(u), *self._states(u))

    def env(self, i: int) -> np.ndarray:
        """Node i's environment (words, l_bra, l_ket).

        Entry w is the rest of the tree, with i's block left out, summed
        with the coefficients over the terms whose local word on i is w;
        so sum(env(i) * block(i, terms=True)) is the term sum.  At the root
        it is the coefficients; below, the parent's hole at i's attach
        point, summed into i's words.
        """
        out = self.envs.get(i)
        if out is not None:
            return out
        words = self._node_words(i)
        if i == 0:
            out = np.bincount(words.of_term, self.coeffs, words.count)
            out = out.astype(complex)[:, None, None]
        else:
            hole = self._hole(*self.parent[i])
            out = np.zeros((words.count,) + hole.shape[1:], dtype=complex)
            np.add.at(out, words.of_parent, hole)
        self.envs[i] = out
        return out

    def _hole(self, p: int, attach: int) -> np.ndarray:
        """Parent p's environment contracted with everything at p but the
        child at ``attach``: (p's words, 2, 2) over that child's index."""
        env = self.env(p)
        ops = self._ops(p, skip=attach)
        if isinstance(self.ket_nodes[p].payload, QuantumTensor):
            (bra, *_), (ket, *_) = self._states(p)
            n = self.ket_nodes[p].payload.num_qubits
            x = np.broadcast_to(_apply_ops(ket, ops, n), (len(env),) + ket.shape)
            view = (len(bra), 2 ** (n - 1 - attach), 2, 2**attach)
            chi = (env @ x).reshape((len(env),) + view)
            b = bra.conj().reshape(view)
            return np.einsum("xhil,wxhjl->wij", b, chi)
        if p == 0:
            return self._mps(p, ops, attach) * env  # env: (words, 1, 1)
        ops[0] = env  # the operator on p's upward leg
        return self._mps(p, ops, attach)

    def block(self, i: int, bra_open=None, ket_open=None, terms: bool = False):
        """Node i's overlap block, or with ``terms`` its blocks per local word."""
        end = self.end[i]
        if bra_open is not None and not i <= bra_open < end:
            bra_open = None
        if ket_open is not None and not i <= ket_open < end:
            ket_open = None
        key = (i, bra_open, ket_open, terms)
        out = self.blocks.get(key)
        if out is not None:
            return out
        quantum = isinstance(self.ket_nodes[i].payload, QuantumTensor)
        if terms:
            if quantum and not self.children[i]:
                out = self._leaf_table(i)[:, 0]
            elif quantum:
                (bra, *_), (ket, *_) = self._states(i)
                x = _apply_ops(ket, self._ops(i), self.ket_nodes[i].payload.num_qubits)
                out = np.einsum("xa,wya->wxy", bra.conj(), x)
            else:
                out = self._mps(i, self._ops(i))
            evals = self._node_words(i).count
        else:
            kids = [
                (attach, self.block(j, bra_open, ket_open))
                for attach, j in self.children[i]
            ]
            if quantum:
                out = self._quantum(i, kids, bra_open == i, ket_open == i)
            else:
                out = self._mps(i, dict(kids))
                out = out.reshape((1,) * (4 - out.ndim) + out.shape)
            evals = 1
        if i and out.shape[-2:] != (2, 2):
            if isinstance(self.ket_nodes[self.parent[i][0]].payload, QuantumTensor):
                raise ValueError("child branch index must be binary")
        if quantum:
            self.counters.quantum_evals += evals
        else:
            self.counters.classical_evals += evals
        self.blocks[key] = out
        return out

    def _states(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Node i's bra and ket row stacks; a node without one gets its family."""
        sides = ((self.bra_stacks, self.bra_nodes), (self.ket_stacks, self.ket_nodes))
        for stacks, nodes in sides:
            if i not in stacks:
                stacks[i] = nodes[i].payload.family_states()[None]
        return self.bra_stacks[i], self.ket_stacks[i]

    def _quantum(self, i, kids, bra_open, ket_open) -> np.ndarray:
        bra, ket = self._states(i)
        if not kids:
            gram = self.grams.get(i)
            if gram is None:
                (a, l, dim), (b, m, _) = bra.shape, ket.shape
                g = bra.reshape(a * l, dim).conj() @ ket.reshape(b * m, dim).T
                gram = g.reshape(a, l, b, m).transpose(0, 2, 1, 3)
                gram = self.grams[i] = np.ascontiguousarray(gram)
            return gram[: None if bra_open else 1, : None if ket_open else 1]
        bra, ket = bra[: None if bra_open else 1], ket[: None if ket_open else 1]
        n = self.ket_nodes[i].payload.num_qubits
        # children without open rows go onto the kets; the others are
        # absorbed into the reduction on their qubits, one GEMM each
        for qubit, mat in kids:
            if mat.shape[:2] == (1, 1):
                ket = _apply_1q(ket, mat[0, 0], qubit, n)
        kids = [(qubit, mat) for qubit, mat in kids if mat.shape[:2] != (1, 1)]
        d = _reduce(bra, ket, [qubit for qubit, _ in kids], n)
        labels, q = d.shape[2:4], len(kids)
        bits = [4 + j for c in range(q - 1, -1, -1) for j in (c, q + c)]
        d = d.transpose([0, 1, 2, 3] + bits)
        for _, mat in kids:
            d = d.reshape(d.shape[:2] + (-1, 4))
            d = _absorb(d, mat.reshape(mat.shape[:2] + (4,)))
        return d.reshape(d.shape[:2] + labels)

    def _leaf_table(self, i: int) -> np.ndarray:
        """H[w, r, x, y] = <bra[r, x]| W_w |ket[r, y]>: leaf i's local words
        on its paired rows."""
        table = self.tables.get(i)
        if table is None:
            bra, ket = self._states(i)
            table = _obs_blocks(ket, self._node_words(i).compiled, bra)
            self.tables[i] = table
        return table

    def _mps(self, i: int, ops: dict, open_site: int | None = None) -> np.ndarray:
        """An MPS node's contraction with operators {site: (..., d, d)}: its
        block over the upward leg, or its open-site matrix at ``open_site``."""
        bra, ket = self.bra_nodes[i].payload, self.ket_nodes[i].payload
        slots = [ops.get(site) for site in range(ket.num_sites)]
        if open_site is not None:
            return mps_open_site_matrix(bra, ket, open_site, slots)
        if i == 0:  # the root MPS has no upward leg
            return np.asarray(mps_general_expectation(bra, ket, slots))[..., None, None]
        return mps_open_site_matrix(bra, ket, 0, slots)


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
    return complex(_Pass(a, b).block(0)[0, 0, 0, 0])


def tree_transition_energy(a: HybridTree, b: HybridTree, h: Hamiltonian) -> complex:
    """<psi~_a | H | psi~_b> as a decomposed-term sum."""
    return _Pass(a, b, decompose_for_layout(h, b.layout)).term_sum()


# ---------------------------------------------------------------------------
# builders

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
    return HybridTree(TreeNode(_family(root_circuit, 1), links)).with_params(params)


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
    return HybridTree(TreeNode(root_mps, links)).with_params(params)


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
    return HybridTree(TreeNode(_family(root_circuit, 1), links)).with_params(params)
