"""Dense statevector circuit simulator.

Conventions, fixed across the package:

* Qubit 0 is the least significant bit of the amplitude index, so basis
  label strings read like kets: ``init_basis_state(3, "100")`` puts the
  excitation on qubit 2 and sets amplitude index ``int("100", 2) == 4``.
* Rotation gates are ``R_P(theta) = exp(-i * theta * P / 2)`` for
  P in {X, Y, Z}; the two-qubit coupler is ``RZZ(theta) = exp(-i * theta *
  Z (x) Z)`` with no half-angle, so ``RZZ(theta)|00> = exp(-i*theta)|00>``.
* Angles are plain radians.  Parameterised gates reference a slot in a flat
  parameter vector; slots are assigned in order of gate appearance.

The array-level helpers (``apply_circuit_array`` and friends) accept any
leading batch dimensions, which the variational engine uses to push whole
stacks of perturbed states through a circuit at once.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .pauli import PauliTerm, parity_signs

GATE_KINDS = frozenset({"RX", "RY", "RZ", "RZZ", "H", "X", "CNOT"})
ROTATION_KINDS = frozenset({"RX", "RY", "RZ", "RZZ"})
TWO_QUBIT_KINDS = frozenset({"RZZ", "CNOT"})

_SQ2 = 1.0 / math.sqrt(2.0)
_H_MAT = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
_Y_MAT = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z_MAT = np.array([[1, 0], [0, -1]], dtype=complex)
_SDG_MAT = np.array([[1, 0], [0, -1j]], dtype=complex)
PAULI_MATRICES = {"X": _X_MAT, "Y": _Y_MAT, "Z": _Z_MAT}

NORM_TOL = 1e-10


@dataclass(frozen=True)
class GateOp:
    """A single gate: fixed-angle, parameterised, or non-rotation."""

    kind: str
    targets: tuple[int, ...]
    param: int | None = None
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        want = 2 if self.kind in TWO_QUBIT_KINDS else 1
        if len(self.targets) != want:
            raise ValueError(f"{self.kind} expects {want} target(s)")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("repeated target qubit")
        if self.kind in ROTATION_KINDS:
            if (self.param is None) == (self.angle is None):
                raise ValueError(
                    f"{self.kind} needs exactly one of param slot or fixed angle"
                )
        elif self.param is not None or self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    ops: tuple[GateOp, ...]
    num_params: int

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        for op in self.ops:
            if max(op.targets) >= self.num_qubits:
                raise ValueError(
                    f"gate {op.kind} on {op.targets} outside {self.num_qubits} qubits"
                )
            if op.param is not None and not (0 <= op.param < self.num_params):
                raise ValueError(f"parameter slot {op.param} out of range")


@dataclass(frozen=True)
class StateVector:
    num_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        if self.amps.shape != (2**self.num_qubits,):
            raise ValueError("amplitude length does not match qubit count")


def init_basis_state(num_qubits: int, bits: str) -> StateVector:
    """Computational basis state labelled by ``bits`` (qubit n-1 leftmost)."""
    if len(bits) != num_qubits or set(bits) - {"0", "1"}:
        raise ValueError(f"bad basis label {bits!r} for {num_qubits} qubits")
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(num_qubits, amps)


# ---------------------------------------------------------------------------
# array-level kernels (batched over any leading dimensions)

def _apply_1q(amps: np.ndarray, mat: np.ndarray, q: int, n: int) -> np.ndarray:
    """``mat`` on qubit q as a two-slice update: out_i = m_i0 a_0 + m_i1 a_1.

    a_0 and a_1 are the halves of the (..., 2**(n-1-q), 2, 2**q) view.  A
    stack of matrices (..., 2, 2) broadcasts its leading axes against those
    of ``amps``.
    """
    a = amps.reshape(amps.shape[:-1] + (2 ** (n - 1 - q), 1, 2, 2**q))
    m = mat[..., None, :, :, None]  # (..., 1, out index, in index, 1)
    out = m[..., 0, :] * a[..., 0, :]
    out += m[..., 1, :] * a[..., 1, :]
    return out.reshape(out.shape[:-3] + (2**n,))


@functools.lru_cache(maxsize=None)
def _bit_index(n: int, targets: tuple[int, ...]) -> np.ndarray:
    """Local basis index of every amplitude on ``targets`` (first target high)."""
    idx = np.arange(2**n)
    out = np.zeros(2**n, dtype=np.intp)
    for t in targets:
        out = 2 * out + ((idx >> t) & 1)
    out.flags.writeable = False
    return out


def _diagonal(kind: str, theta: float) -> np.ndarray:
    """Diagonal of RZ or RZZ over the local basis of :func:`_bit_index`."""
    if kind == "RZ":
        return np.array([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    e_m, e_p = np.exp(-1j * theta), np.exp(1j * theta)
    return np.array([e_m, e_p, e_p, e_m])


def _apply_cnot(amps, control, target, n):
    # axis n - q of the (rows, (2,) * n) view holds qubit q
    src = amps.reshape((-1,) + (2,) * n)
    out = src.copy()
    high = (slice(None),) * (n - control) + (slice(1, 2),)  # control bit 1
    out[high] = np.flip(src[high], n - target)
    return out.reshape(amps.shape)


def _rotation_matrix(kind: str, theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    raise ValueError(kind)


def _angle(op: GateOp, params) -> float:
    return op.angle if op.param is None else float(params[op.param])


def gate_matrix(op: GateOp, params=None) -> np.ndarray:
    """Dense matrix of one gate (2x2 or 4x4), used by the oracle checks."""
    if op.kind in ("RX", "RY"):
        return _rotation_matrix(op.kind, _angle(op, params))
    if op.kind in ("RZ", "RZZ"):
        return np.diag(_diagonal(op.kind, _angle(op, params)))
    if op.kind == "H":
        return _H_MAT.copy()
    if op.kind == "X":
        return _X_MAT.copy()
    if op.kind == "CNOT":
        m = np.eye(4, dtype=complex)
        m[[2, 3]] = m[[3, 2]]
        return m
    raise ValueError(op.kind)


def apply_op_array(amps: np.ndarray, op: GateOp, params, n: int) -> np.ndarray:
    if op.kind in ("RZ", "RZZ"):
        diag = _diagonal(op.kind, _angle(op, params))
        return amps * diag[_bit_index(n, op.targets)]
    if op.kind in ("RX", "RY"):
        mat = _rotation_matrix(op.kind, _angle(op, params))
        return _apply_1q(amps, mat, op.targets[0], n)
    if op.kind == "H":
        return _apply_1q(amps, _H_MAT, op.targets[0], n)
    if op.kind == "X":
        return _apply_1q(amps, _X_MAT, op.targets[0], n)
    if op.kind == "CNOT":
        return _apply_cnot(amps, op.targets[0], op.targets[1], n)
    raise ValueError(op.kind)


def apply_circuit_array(amps: np.ndarray, circuit: Circuit, params) -> np.ndarray:
    """Run the circuit over an amplitude array with arbitrary batch dims."""
    if params is None:
        params = ()
    if circuit.num_params and len(params) != circuit.num_params:
        raise ValueError(
            f"expected {circuit.num_params} parameters, got {len(params)}"
        )
    for op in circuit.ops:
        amps = apply_op_array(amps, op, params, circuit.num_qubits)
    return amps


def apply_pauli_array(amps: np.ndarray, factors, n: int) -> np.ndarray:
    """Apply a product of Pauli factors ((qubit, letter) pairs)."""
    for qubit, letter in factors:
        amps = _apply_1q(amps, PAULI_MATRICES[letter], qubit, n)
    return amps


# ---------------------------------------------------------------------------
# public statevector operations

def apply_circuit(state: StateVector, circuit: Circuit, params=None) -> StateVector:
    if state.num_qubits != circuit.num_qubits:
        raise ValueError("state and circuit sizes differ")
    amps = apply_circuit_array(state.amps, circuit, params)
    norm = float(np.linalg.norm(amps))
    if abs(norm - np.linalg.norm(state.amps)) > NORM_TOL:
        raise AssertionError(f"circuit application changed the norm: {norm}")
    return StateVector(state.num_qubits, amps)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> with the bra conjugated."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states live on different registers")
    return complex(np.vdot(a.amps, b.amps))


def pauli_expectation(state: StateVector, term: PauliTerm) -> float:
    """coefficient * <s|P|s>; real because Pauli strings are Hermitian."""
    if term.max_qubit() >= state.num_qubits:
        raise ValueError("term acts outside the register")
    applied = apply_pauli_array(state.amps, term.factors, state.num_qubits)
    return term.coefficient * float(np.real(np.vdot(state.amps, applied)))


def sample_pauli_expectation(
    state: StateVector, term: PauliTerm, shots: int, seed: int
) -> float:
    """Monte-Carlo estimate of :func:`pauli_expectation`.

    The state is rotated into the eigenbasis of the Pauli string (H for X,
    S-dagger then H for Y), each computational outcome contributes the
    eigenvalue (-1)^(parity of the measured bits), and ``shots`` outcomes
    are drawn from the exact distribution.  ``shots == 0`` returns the
    exact expectation, bit-for-bit equal to the deterministic path.
    """
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if shots == 0:
        return pauli_expectation(state, term)
    if not term.factors:
        return term.coefficient
    amps = state.amps
    n = state.num_qubits
    for qubit, letter in term.factors:
        if letter == "X":
            amps = _apply_1q(amps, _H_MAT, qubit, n)
        elif letter == "Y":
            amps = _apply_1q(amps, _SDG_MAT, qubit, n)
            amps = _apply_1q(amps, _H_MAT, qubit, n)
    probs = np.abs(amps) ** 2
    mask = sum(1 << qubit for qubit, _ in term.factors)
    even = parity_signs(np.arange(2**n), mask) > 0
    p_even = float(np.clip(probs[even].sum(), 0.0, 1.0))
    rng = np.random.default_rng(seed)
    hits = int(rng.binomial(shots, p_even))
    return term.coefficient * (2.0 * hits / shots - 1.0)


# ---------------------------------------------------------------------------
# hardware-efficient ansatz

def build_hardware_efficient_ansatz(num_qubits: int, depth: int) -> Circuit:
    """Layered variational circuit on ``num_qubits`` qubits.

    Each of the ``depth`` blocks applies a parameterised RX then RZ on every
    qubit (net single-qubit action RZ * RX) followed by a ladder of RZZ
    couplers on neighbouring pairs (0,1) .. (n-2,n-1).  Blocks 1 and
    depth//2 + 1 are preceded by an extra parameterised RY layer, which
    breaks the Z-basis bias of the bare blocks.  Parameter slots follow
    gate order; with all parameters zero the circuit is the identity.
    """
    if num_qubits < 1 or depth < 1:
        raise ValueError("num_qubits and depth must be positive")
    ops: list[GateOp] = []
    slot = 0

    def layer(kind):
        nonlocal slot
        for q in range(num_qubits):
            ops.append(GateOp(kind, (q,), param=slot))
            slot += 1

    extra_blocks = {1, depth // 2 + 1}
    for block in range(1, depth + 1):
        if block in extra_blocks:
            layer("RY")
        layer("RX")
        layer("RZ")
        for q in range(num_qubits - 1):
            ops.append(GateOp("RZZ", (q, q + 1), param=slot))
            slot += 1
    return Circuit(num_qubits, tuple(ops), slot)


def ansatz_param_count(num_qubits: int, depth: int) -> int:
    extra = len({1, depth // 2 + 1})
    return depth * (2 * num_qubits + max(num_qubits - 1, 0)) + extra * num_qubits


# ---------------------------------------------------------------------------
# serialization

def circuit_to_json(circuit: Circuit) -> str:
    ops = []
    for op in circuit.ops:
        entry: dict = {"kind": op.kind, "targets": list(op.targets)}
        if op.param is not None:
            entry["param"] = op.param
        if op.angle is not None:
            entry["angle"] = op.angle
        ops.append(entry)
    doc = {
        "num_qubits": circuit.num_qubits,
        "num_params": circuit.num_params,
        "ops": ops,
    }
    return json.dumps(doc, sort_keys=True)


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
