"""Hybrid tensors and the five typed contraction cases.

A *quantum tensor* is a family of circuit-prepared states indexed by
classical labels: either one circuit per label acting on |0...0>
(``distinct_unitaries``) or a single circuit acting on per-label basis
states (``shared_unitary``).  A tensor may instead expose one of its qubits
as an *open quantum index*, in which case the family members are the
(unnormalised) projections onto that qubit's basis.  A *classical tensor*
is a plain dense array.

Connecting indices yields exactly five cases, each with its own
realization rule (psi / phi are family states, alpha a classical array):

    1. classical index of a quantum tensor <-> classical tensor:
       psi~^{i2} = sum_{i1} alpha^{i1,i2} psi^{i1}
    2. quantum index of a quantum tensor <-> classical tensor:
       psi~^{i2} = sum_{i1} alpha^{i1,i2} <i1|psi>
    3. classical <-> classical between two quantum tensors:
       psi~ = sum_i psi^i (x) phi^i
    4. quantum <-> classical between two quantum tensors:
       psi~ = sum_i <i|psi> (x) phi^i
    5. quantum <-> quantum between two quantum tensors:
       psi~ = sum_i <i|psi> (x) <i|phi>

Case 5 is a Bell-pair projection: the result is unnormalised and the
network tracks its squared norm explicitly; each network admits at most
``CASE5_BUDGET`` (2) such edges.

Branch observables M^{i',i} = <psi^{i'}| O_1 (x) ... (x) O_n |psi^i> can be
measured four ways (``direct``, ``hadamard_test``, ``superposition_input``,
``pauli_open_index``); in exact mode all agree with ``direct`` to machine
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .pauli import PauliTerm
from .rng import SplitMix64
from .statevector import (
    Circuit,
    apply_circuit_array,
    apply_pauli_array,
    pauli_expectation,
    sample_pauli_expectation,
    StateVector,
)

DISTINCT_UNITARIES = "distinct_unitaries"
SHARED_UNITARY = "shared_unitary"

HERMITICITY_TOL = 1e-10


class Case5BudgetError(ValueError):
    """Raised when a network exceeds its quantum-quantum contraction budget."""


@dataclass(frozen=True)
class TensorIndex:
    label: str
    dimension: int
    kind: str  # "quantum" | "classical"

    def __post_init__(self):
        if self.kind not in ("quantum", "classical"):
            raise ValueError(f"bad index kind {self.kind!r}")
        if self.dimension < 1:
            raise ValueError("index dimension must be positive")


@dataclass(frozen=True)
class QuantumTensor:
    """Family of circuit-prepared states with classical and quantum indices.

    ``params`` holds one parameter vector per circuit.  ``quantum_groups``
    partitions (a subset of) the qubits into groups exposed as quantum
    indices ``q0, q1, ...``; by default all qubits (minus an open-index
    qubit) form a single group.  Within a group the first listed qubit is
    the least significant bit of the group's basis index.
    """

    num_qubits: int
    mode: str
    circuits: tuple[Circuit, ...]
    initial_bits: tuple[str, ...]
    params: tuple[np.ndarray, ...]
    open_qubit: int | None = None
    quantum_groups: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.mode not in (DISTINCT_UNITARIES, SHARED_UNITARY):
            raise ValueError(f"bad mode {self.mode!r}")
        for circuit in self.circuits:
            if circuit.num_qubits != self.num_qubits:
                raise ValueError("circuit register size mismatch")
        for bits in self.initial_bits:
            if len(bits) != self.num_qubits or set(bits) - {"0", "1"}:
                raise ValueError(f"bad initial bits {bits!r}")
        if self.mode == SHARED_UNITARY:
            if len(self.circuits) != 1:
                raise ValueError("shared_unitary takes exactly one circuit")
            if len(set(self.initial_bits)) != len(self.initial_bits):
                raise ValueError("shared_unitary initial states must be distinct")
        else:
            if len(self.initial_bits) != len(self.circuits):
                raise ValueError("one initial state per circuit expected")
            if any(set(bits) != {"0"} and bits != "0" * self.num_qubits
                   for bits in self.initial_bits):
                raise ValueError("distinct_unitaries families start from |0...0>")
        if len(self.params) != len(self.circuits):
            raise ValueError("one parameter vector per circuit expected")
        for circuit, vec in zip(self.circuits, self.params):
            if len(vec) != circuit.num_params:
                raise ValueError("parameter vector length mismatch")
        if self.open_qubit is not None:
            if not (0 <= self.open_qubit < self.num_qubits):
                raise ValueError("open qubit out of range")
            if self.num_labels_classical() != 1:
                raise ValueError("open-index tensors carry a single joint state")
        used = set() if self.open_qubit is None else {self.open_qubit}
        groups = self.quantum_groups
        if not groups:
            rest = tuple(q for q in range(self.num_qubits) if q not in used)
            groups = (rest,) if rest else ()
            object.__setattr__(self, "quantum_groups", groups)
        for group in groups:
            for q in group:
                if not (0 <= q < self.num_qubits) or q in used:
                    raise ValueError(f"bad or reused qubit {q} in quantum group")
                used.add(q)

    # -- constructors -------------------------------------------------------

    @classmethod
    def distinct(cls, circuits, params, **kw) -> "QuantumTensor":
        circuits = tuple(circuits)
        n = circuits[0].num_qubits
        return cls(
            n,
            DISTINCT_UNITARIES,
            circuits,
            ("0" * n,) * len(circuits),
            tuple(np.asarray(p, dtype=float) for p in params),
            **kw,
        )

    @classmethod
    def shared(cls, circuit, initial_bits, params, **kw) -> "QuantumTensor":
        return cls(
            circuit.num_qubits,
            SHARED_UNITARY,
            (circuit,),
            tuple(initial_bits),
            (np.asarray(params, dtype=float),),
            **kw,
        )

    @classmethod
    def with_open_index(cls, circuit, params, open_qubit: int, **kw) -> "QuantumTensor":
        n = circuit.num_qubits
        return cls(
            n,
            SHARED_UNITARY,
            (circuit,),
            ("0" * n,),
            (np.asarray(params, dtype=float),),
            open_qubit=open_qubit,
            **kw,
        )

    # -- structure ----------------------------------------------------------

    def num_labels_classical(self) -> int:
        if self.mode == SHARED_UNITARY:
            return len(self.initial_bits)
        return len(self.circuits)

    @property
    def num_labels(self) -> int:
        """Branch-index size: open index dimension or classical label count."""
        return 2 if self.open_qubit is not None else self.num_labels_classical()

    @property
    def num_params(self) -> int:
        return sum(c.num_params for c in self.circuits)

    def with_params(self, flat) -> "QuantumTensor":
        flat = np.asarray(flat, dtype=float)
        if len(flat) != self.num_params:
            raise ValueError("flat parameter vector length mismatch")
        vecs, at = [], 0
        for circuit in self.circuits:
            vecs.append(flat[at : at + circuit.num_params].copy())
            at += circuit.num_params
        return replace(self, params=tuple(vecs))

    def flat_params(self) -> np.ndarray:
        return (
            np.concatenate(self.params)
            if self.params
            else np.zeros(0)
        )

    def indices(self) -> dict[str, TensorIndex]:
        out: dict[str, TensorIndex] = {}
        if self.open_qubit is not None:
            out["open"] = TensorIndex("open", 2, "quantum")
        elif self.num_labels_classical() >= 1:
            out["i"] = TensorIndex("i", self.num_labels_classical(), "classical")
        for j, group in enumerate(self.quantum_groups):
            out[f"q{j}"] = TensorIndex(f"q{j}", 2 ** len(group), "quantum")
        return out

    def group_qubits(self, label: str) -> tuple[int, ...]:
        if label == "open":
            return (self.open_qubit,)
        return self.quantum_groups[int(label[1:])]

    # -- realization --------------------------------------------------------

    def initial_states(self) -> np.ndarray:
        """Basis states the circuits start from, one row per initial label."""
        init = np.zeros((len(self.initial_bits), 2**self.num_qubits), dtype=complex)
        for row, bits in enumerate(self.initial_bits):
            init[row, int(bits, 2)] = 1.0
        return init

    def family_states(self) -> np.ndarray:
        """Stack of the label states, shape (num_labels_classical, 2**n)."""
        init = self.initial_states()
        if self.mode == SHARED_UNITARY:
            return apply_circuit_array(init, self.circuits[0], self.params[0])
        return np.stack([
            apply_circuit_array(row, circuit, vec)
            for row, circuit, vec in zip(init, self.circuits, self.params)
        ])

    def joint_state(self) -> np.ndarray:
        if self.num_labels_classical() != 1:
            raise ValueError("joint_state needs a single-label tensor")
        return self.family_states()[0]


@dataclass(frozen=True)
class ClassicalTensor:
    """Dense array with named axes."""

    entries: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=complex))
        if len(self.labels) != self.entries.ndim:
            raise ValueError("one label per axis expected")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("axis labels must be unique")

    def indices(self) -> dict[str, TensorIndex]:
        return {
            label: TensorIndex(label, dim, "classical")
            for label, dim in zip(self.labels, self.entries.shape)
        }

    def axis_of(self, label: str) -> int:
        return self.labels.index(label)


@dataclass(frozen=True)
class MpsTensor:
    """Open-boundary matrix product state: rank-3 cores (left, phys, right)."""

    cores: tuple[np.ndarray, ...]

    def __post_init__(self):
        cores = tuple(np.asarray(c, dtype=complex) for c in self.cores)
        if not cores:
            raise ValueError("empty MPS")
        if cores[0].shape[0] != 1 or cores[-1].shape[2] != 1:
            raise ValueError("boundary bonds must have dimension 1")
        for left, right in zip(cores, cores[1:]):
            if left.shape[2] != right.shape[0]:
                raise ValueError("bond dimensions do not chain")
        object.__setattr__(self, "cores", cores)

    @property
    def num_sites(self) -> int:
        return len(self.cores)

    @property
    def chi(self) -> int:
        return max(core.shape[2] for core in self.cores)

    @property
    def site_dims(self) -> tuple[int, ...]:
        return tuple(core.shape[1] for core in self.cores)

    def indices(self) -> dict[str, TensorIndex]:
        return {
            f"site{j}": TensorIndex(f"site{j}", dim, "classical")
            for j, dim in enumerate(self.site_dims)
        }


@dataclass(frozen=True)
class HermitianObservable:
    """chi x chi Hermitian matrix, validated at construction."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("observable must be square")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        object.__setattr__(self, "entries", m)

    @classmethod
    def hermitized(cls, m) -> "HermitianObservable":
        m = np.asarray(m, dtype=complex)
        return cls((m + m.conj().T) / 2.0)

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


# ---------------------------------------------------------------------------
# network of typed edges

@dataclass(frozen=True)
class Endpoint:
    node: str
    index: str


@dataclass(frozen=True)
class Edge:
    case: int
    a: Endpoint
    b: Endpoint
    dimension: int


CASE5_BUDGET = 2  # case-5 (Bell-pair projection) edges one network admits


class HybridNetwork:
    """Nodes plus typed edges; enforces case typing and the case-5 budget."""

    def __init__(self):
        self.nodes: dict[str, object] = {}
        self.edges: list[Edge] = []

    def add(self, name: str, tensor) -> "HybridNetwork":
        if name in self.nodes:
            raise ValueError(f"node {name!r} already present")
        if not isinstance(tensor, (QuantumTensor, ClassicalTensor, MpsTensor)):
            raise TypeError("unsupported tensor type")
        self.nodes[name] = tensor
        return self

    def _endpoint_index(self, endpoint: tuple[str, str]) -> TensorIndex:
        node, label = endpoint
        if node not in self.nodes:
            raise ValueError(f"unknown node {node!r}")
        table = self.nodes[node].indices()
        if label not in table:
            raise ValueError(f"node {node!r} has no index {label!r}")
        return table[label]

    def _used(self, endpoint: Endpoint) -> bool:
        return any(endpoint in (edge.a, edge.b) for edge in self.edges)

    def connect(self, a: tuple[str, str], b: tuple[str, str]) -> Edge:
        """Connect two indices, classifying the contraction case.

        For the mixed cases the stored edge puts the quantum tensor (case
        1, 2) or the quantum-index side (case 4) first.
        """
        idx_a, idx_b = self._endpoint_index(a), self._endpoint_index(b)
        ta, tb = self.nodes[a[0]], self.nodes[b[0]]
        if idx_a.dimension != idx_b.dimension:
            raise ValueError(
                f"dimension mismatch: {idx_a.dimension} vs {idx_b.dimension}"
            )
        ea, eb = Endpoint(*a), Endpoint(*b)
        for endpoint in (ea, eb):
            if self._used(endpoint):
                raise ValueError(f"index {endpoint} already contracted")

        quantum_a = isinstance(ta, QuantumTensor)
        quantum_b = isinstance(tb, QuantumTensor)
        if quantum_a and quantum_b:
            case = {"classical-classical": 3, "quantum-classical": 4,
                    "classical-quantum": 4, "quantum-quantum": 5}[
                        f"{idx_a.kind}-{idx_b.kind}"]
            if case == 4 and idx_a.kind == "classical":
                ea, eb = eb, ea
        elif quantum_a or quantum_b:
            if not quantum_a:
                ea, eb, idx_a = eb, ea, idx_b
            case = 1 if idx_a.kind == "classical" else 2
        else:
            raise ValueError(
                "purely classical contraction is outside the five hybrid cases"
            )
        if case == 5:
            have = sum(1 for e in self.edges if e.case == 5)
            if have >= CASE5_BUDGET:
                raise Case5BudgetError(
                    f"case-5 budget of {CASE5_BUDGET} edges exhausted"
                )
        edge = Edge(case, ea, eb, idx_a.dimension)
        self.edges.append(edge)
        return edge

    # -- realization of a single contracted pair ----------------------------

    def realize_pair(self) -> "RealizedState":
        """Materialise a two-node, one-edge network as a dense state family."""
        if len(self.nodes) != 2 or len(self.edges) != 1:
            raise ValueError("realize_pair needs exactly two nodes and one edge")
        edge = self.edges[0]
        ta, tb = self.nodes[edge.a.node], self.nodes[edge.b.node]
        return realize_case(edge.case, ta, edge.a.index, tb, edge.b.index)


@dataclass(frozen=True)
class RealizedState:
    """Dense result of a contraction: a family of register states.

    ``amps`` always keeps a leading label axis (length 1 when the result is
    a single state).  ``squared_norm`` is tracked only for case-5 results,
    which are intentionally left unnormalised.
    """

    amps: np.ndarray
    squared_norm: float | None = None


def project_group(amps: np.ndarray, group: tuple[int, ...], n: int) -> np.ndarray:
    """Components <i|_g psi for all basis values i of the qubit group.

    Returns shape (2**len(group), 2**(n - len(group))); the remaining
    qubits keep their relative order.  Within the group the first listed
    qubit is the least significant bit of i.
    """
    t = amps.reshape((2,) * n)
    src = [n - 1 - q for q in reversed(group)]
    t = np.moveaxis(t, src, range(len(group)))
    return t.reshape(2 ** len(group), -1)


def compose_registers(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Joint state with ``low``'s qubits as the low-order bits."""
    return np.kron(high, low)


def realize_case(case: int, ta, label_a: str, tb, label_b: str) -> RealizedState:
    """Dense realization of one typed edge (the operational route).

    The quantum side(s) are realised through the circuit simulator and the
    case equation is evaluated by direct vector arithmetic.
    """
    if case == 1:
        family = ta.family_states()
        alpha = np.moveaxis(tb.entries, tb.axis_of(label_b), 0)
        alpha = alpha.reshape(alpha.shape[0], -1)
        out = np.einsum("im,ix->mx", alpha, family)
        return RealizedState(out)
    if case == 2:
        group = ta.group_qubits(label_a)
        alpha = np.moveaxis(tb.entries, tb.axis_of(label_b), 0)
        alpha = alpha.reshape(alpha.shape[0], -1)
        rows = []
        for state in ta.family_states():
            proj = project_group(state, group, ta.num_qubits)
            rows.append(np.einsum("im,ix->mx", alpha, proj))
        out = np.concatenate(rows, axis=0)
        return RealizedState(out)
    if case == 3:
        fam_a, fam_b = ta.family_states(), tb.family_states()
        if fam_a.shape[0] != fam_b.shape[0]:
            raise ValueError("case-3 label counts differ")
        dim = fam_a.shape[1] * fam_b.shape[1]
        out = np.zeros(dim, dtype=complex)
        for psi, phi in zip(fam_a, fam_b):
            out += compose_registers(psi, phi)
        return RealizedState(out[None, :])
    if case == 4:
        group = ta.group_qubits(label_a)
        fam_b = tb.family_states()
        if 2 ** len(group) != fam_b.shape[0]:
            raise ValueError("case-4 dimensions differ")
        rows = []
        for state in ta.family_states():
            proj = project_group(state, group, ta.num_qubits)
            dim = proj.shape[1] * fam_b.shape[1]
            acc = np.zeros(dim, dtype=complex)
            for i in range(fam_b.shape[0]):
                acc += compose_registers(proj[i], fam_b[i])
            rows.append(acc)
        return RealizedState(np.stack(rows))
    if case == 5:
        if ta.num_labels_classical() != 1 or tb.num_labels_classical() != 1:
            raise ValueError("case-5 realization expects single-label tensors")
        ga, gb = ta.group_qubits(label_a), tb.group_qubits(label_b)
        if len(ga) != len(gb):
            raise ValueError("case-5 group dimensions differ")
        proj_a = project_group(ta.joint_state(), ga, ta.num_qubits)
        proj_b = project_group(tb.joint_state(), gb, tb.num_qubits)
        dim = proj_a.shape[1] * proj_b.shape[1]
        out = np.zeros(dim, dtype=complex)
        for i in range(proj_a.shape[0]):
            out += compose_registers(proj_a[i], proj_b[i])
        norm_sq = float(np.real(np.vdot(out, out)))
        return RealizedState(out[None, :], squared_norm=norm_sq)
    raise ValueError(f"unknown contraction case {case}")


# ---------------------------------------------------------------------------
# branch-observable measurement strategies

STRATEGIES = ("direct", "hadamard_test", "superposition_input", "pauli_open_index")


def _component_seeds(seed: int):
    stream = SplitMix64(seed)
    while True:
        yield stream.next_u64() >> 1


def _expect(amps: np.ndarray, factors, n: int, shots: int, seed) -> float:
    state = StateVector(n, amps)
    term = PauliTerm(1.0, tuple(factors))
    if shots == 0:
        return pauli_expectation(state, term)
    return sample_pauli_expectation(state, term, shots, next(seed))


def _direct_matrix(q: QuantumTensor, local_obs: PauliTerm) -> np.ndarray:
    n = q.num_qubits
    if q.open_qubit is not None:
        psi = q.joint_state()
        applied = apply_pauli_array(psi, local_obs.factors, n)
        bra = project_group(psi, (q.open_qubit,), n)
        ket = project_group(applied, (q.open_qubit,), n)
        raw = np.einsum("ax,bx->ab", bra.conj(), ket)
    else:
        states = q.family_states()
        applied = apply_pauli_array(states, local_obs.factors, n)
        raw = np.einsum("ax,bx->ab", states.conj(), applied)
    return local_obs.coefficient * raw


def _hadamard_matrix(q, local_obs, shots, seed) -> np.ndarray:
    states = q.family_states()
    count = states.shape[0]
    n = q.num_qubits
    coeff = local_obs.coefficient
    base = tuple(local_obs.factors)
    shots_each = max(1, shots // 4) if shots else 0
    raw = np.zeros((count, count), dtype=complex)
    if count == 1:
        raw[0, 0] = coeff * _expect(states[0], base, n, shots_each, seed)
        return raw
    for i in range(count):
        for ip in range(i + 1, count):
            # ancilla is the new most-significant qubit: first half anc=0
            joint = np.concatenate([states[i], states[ip]]) / math.sqrt(2.0)
            anc = n
            e_i = _expect(joint, base, n + 1, shots_each, seed)
            e_x = _expect(joint, base + ((anc, "X"),), n + 1, shots_each, seed)
            e_y = _expect(joint, base + ((anc, "Y"),), n + 1, shots_each, seed)
            e_z = _expect(joint, base + ((anc, "Z"),), n + 1, shots_each, seed)
            off = e_x - 1j * e_y  # = <psi^{i'}|O|psi^{i}>
            raw[ip, i] = coeff * off
            raw[i, ip] = coeff * np.conj(off)
            raw[i, i] = coeff * (e_i + e_z)
            raw[ip, ip] = coeff * (e_i - e_z)
    return raw


def _superposition_matrix(q, local_obs, shots, seed) -> np.ndarray:
    if q.mode != SHARED_UNITARY:
        raise ValueError("superposition_input requires a shared_unitary tensor")
    n = q.num_qubits
    dim = 2**n
    circuit, params = q.circuits[0], q.params[0]
    count = len(q.initial_bits)
    base = tuple(local_obs.factors)
    pairs = count * (count - 1) // 2
    n_components = count + 2 * pairs
    shots_each = max(1, shots // n_components) if shots else 0

    def run(init):
        return apply_circuit_array(init, circuit, params)

    diag = np.zeros(count)
    states = q.family_states()
    for i in range(count):
        diag[i] = _expect(states[i], base, n, shots_each, seed)
    raw = np.zeros((count, count), dtype=complex)
    for i in range(count):
        raw[i, i] = diag[i]
    for i in range(count):
        for ip in range(i + 1, count):
            bi, bip = int(q.initial_bits[i], 2), int(q.initial_bits[ip], 2)
            plus = np.zeros(dim, dtype=complex)
            plus[bi] = plus[bip] = 1.0 / math.sqrt(2.0)
            plusi = np.zeros(dim, dtype=complex)
            plusi[bi], plusi[bip] = 1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)
            e_plus = _expect(run(plus), base, n, shots_each, seed)
            e_plusi = _expect(run(plusi), base, n, shots_each, seed)
            d = 0.5 * (diag[i] + diag[ip])
            off = (e_plus - d) + 1j * (e_plusi - d)  # = <psi^{i'}|O|psi^{i}>
            raw[ip, i] = off
            raw[i, ip] = np.conj(off)
    return local_obs.coefficient * raw


def _open_index_matrix(q, local_obs, shots, seed) -> np.ndarray:
    if q.open_qubit is None:
        raise ValueError("pauli_open_index requires an open quantum index")
    anc = q.open_qubit
    if any(qubit == anc for qubit, _ in local_obs.factors):
        raise ValueError("observable must not touch the open qubit")
    psi = q.joint_state()
    n = q.num_qubits
    base = tuple(local_obs.factors)
    shots_each = max(1, shots // 4) if shots else 0
    e_i = _expect(psi, base, n, shots_each, seed)
    e_x = _expect(psi, base + ((anc, "X"),), n, shots_each, seed)
    e_y = _expect(psi, base + ((anc, "Y"),), n, shots_each, seed)
    e_z = _expect(psi, base + ((anc, "Z"),), n, shots_each, seed)
    recon = reconstruct_from_pauli(e_i, e_x, e_y, e_z).entries
    return local_obs.coefficient * recon


def branch_matrix_raw(
    q: QuantumTensor,
    local_obs: PauliTerm,
    strategy: str = "direct",
    shots: int = 0,
    seed: int = 0,
) -> np.ndarray:
    """Unhermitized branch-observable matrix (internal / diagnostics)."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if local_obs.max_qubit() >= q.num_qubits:
        raise ValueError("observable acts outside the tensor register")
    if strategy == "direct":
        return _direct_matrix(q, local_obs)
    seeds = _component_seeds(seed)
    if strategy == "hadamard_test":
        if q.open_qubit is not None:
            raise ValueError("hadamard_test applies to classically indexed tensors")
        return _hadamard_matrix(q, local_obs, shots, seeds)
    if strategy == "superposition_input":
        if q.open_qubit is not None:
            raise ValueError(
                "superposition_input applies to classically indexed tensors"
            )
        return _superposition_matrix(q, local_obs, shots, seeds)
    return _open_index_matrix(q, local_obs, shots, seeds)


def measure_branch_observable(
    q: QuantumTensor,
    local_obs: PauliTerm,
    strategy: str = "direct",
    shots: int = 0,
    seed: int = 0,
) -> HermitianObservable:
    """Branch observable M^{i',i} = <psi^{i'}|O|psi^{i}> over the branch index.

    ``shots == 0`` evaluates exactly; with shots the non-direct strategies
    estimate each Pauli component from an equal share of the budget.
    The returned matrix is Hermitized, (M + M^dagger) / 2.
    """
    raw = branch_matrix_raw(q, local_obs, strategy, shots, seed)
    return HermitianObservable.hermitized(raw)


def reconstruct_from_pauli(
    e_identity: float, e_x: float, e_y: float, e_z: float
) -> HermitianObservable:
    """Rebuild a 2x2 branch matrix from open-index Pauli expectations.

    M = (E(I) I + E(X) X - E(Y) Y + E(Z) Z) / 2; the minus sign on Y makes
    the off-diagonal come out as M[0,1] = (E(X) + i E(Y)) / 2, matching the
    basis expansion |0><1| = (X + iY)/2.
    """
    eye = np.eye(2, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    m = 0.5 * (e_identity * eye + e_x * x - e_y * y + e_z * z)
    return HermitianObservable.hermitized(m)


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
# matrix product state contractions

def _site_op(op, dim):
    if op is None:
        return np.eye(dim, dtype=complex)
    op = np.asarray(op, dtype=complex)
    if op.shape[-2:] != (dim, dim):
        raise ValueError("site operator dimension mismatch")
    return op


def mps_general_expectation(bra: MpsTensor, ket: MpsTensor, ops):
    """<bra| O_1 (x) ... (x) O_n |ket> via left-to-right transfer matrices.

    Operators of shape (..., d, d) broadcast their batch axes into the result.
    """
    if bra.num_sites != ket.num_sites:
        raise ValueError("site counts differ")
    if ops is None:
        ops = [None] * bra.num_sites
    if len(ops) != bra.num_sites:
        raise ValueError("one operator slot per site expected")
    env = np.ones((1, 1), dtype=complex)
    for site in range(bra.num_sites):
        cb, ck = bra.cores[site], ket.cores[site]
        op = _site_op(ops[site], cb.shape[1])
        env = np.einsum("...ac,apb,...pq,cqd->...bd", env, cb.conj(), op, ck)
    out = env[..., 0, 0]
    return complex(out) if out.ndim == 0 else out


def mps_expectation(m: MpsTensor, ops) -> complex:
    """Expectation of a product of single-site operators (None = identity)."""
    return mps_general_expectation(m, m, ops)


def mps_open_site_matrix(
    bra: MpsTensor, ket: MpsTensor, open_site: int, ops
) -> np.ndarray:
    """Transfer contraction with one site left open on both layers.

    Returns M[p', p] over the open site's physical index; ``ops`` covers
    the other sites (entries at ``open_site`` are ignored); batched
    operators give M[..., p', p].
    """
    if bra.num_sites != ket.num_sites:
        raise ValueError("site counts differ")
    if ops is None:
        ops = [None] * bra.num_sites
    left = np.ones((1, 1), dtype=complex)
    for site in range(open_site):
        cb, ck = bra.cores[site], ket.cores[site]
        op = _site_op(ops[site], cb.shape[1])
        left = np.einsum("...ac,apb,...pq,cqd->...bd", left, cb.conj(), op, ck)
    right = np.ones((1, 1), dtype=complex)
    for site in range(bra.num_sites - 1, open_site, -1):
        cb, ck = bra.cores[site], ket.cores[site]
        op = _site_op(ops[site], cb.shape[1])
        right = np.einsum("apb,...pq,cqd,...bd->...ac", cb.conj(), op, ck, right)
    cb, ck = bra.cores[open_site], ket.cores[open_site]
    return np.einsum("...ac,apb,cqd,...bd->...pq", left, cb.conj(), ck, right)


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
