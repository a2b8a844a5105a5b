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

A circuit runs as its compiled :attr:`Circuit.program`: each maximal run
of consecutive RZ and RZZ gates is one diagonal phase, and every other
gate is applied on its own.  :func:`sweep_circuit` is the one runner of a
program.  It takes the branches that share a circuit, each with its own
parameters, and with a finite-difference ``delta`` also every
single-slot perturbed state of each, in one pass; the variational
engine's stencil uses that.  :func:`apply_circuit_array` is its
one-branch call, for any leading batch dimensions.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .pauli import PauliTerm, parity_signs

GATE_KINDS = frozenset({"RX", "RY", "RZ", "RZZ", "H", "X", "CNOT"})
ROTATION_KINDS = frozenset({"RX", "RY", "RZ", "RZZ"})
DIAGONAL_KINDS = frozenset({"RZ", "RZZ"})
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

    @functools.cached_property
    def program(self) -> tuple:
        """The single gates and diagonal runs, compiled once per instance."""
        return _compile(self)


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

def _apply_1q(amps: np.ndarray, mat: np.ndarray, q: int, n: int, out=None) -> np.ndarray:
    """``mat`` on qubit q as a two-slice update: out_i = m_i0 a_0 + m_i1 a_1.

    a_0 and a_1 are the halves of the (..., 2**(n-1-q), 2, 2**q) view.  A
    stack of matrices (..., 2, 2) broadcasts its leading axes against those
    of ``amps``.  ``out``, an array (or strided view) of the result's shape
    that does not overlap ``amps``, receives the result instead of a new
    array.
    """
    a = amps.reshape(amps.shape[:-1] + (2 ** (n - 1 - q), 1, 2, 2**q))
    m = mat[..., None, :, :, None]  # (..., 1, out index, in index, 1)
    if out is None:
        res = m[..., 0, :] * a[..., 0, :]
    else:
        res = out.reshape(out.shape[:-1] + (2 ** (n - 1 - q), 2, 2**q), copy=False)
        np.multiply(m[..., 0, :], a[..., 0, :], out=res)
    res += m[..., 1, :] * a[..., 1, :]
    return res.reshape(res.shape[:-3] + (2**n,))


@functools.lru_cache(maxsize=None)
def _phase_column(kind: str, n: int, targets: tuple[int, ...]) -> np.ndarray:
    """c with RZ(theta) or RZZ(theta) = diag(exp(-i theta c)) on n qubits."""
    mask = sum(1 << t for t in targets)
    col = parity_signs(np.arange(2**n), mask) * (0.5 if kind == "RZ" else 1.0)
    col.flags.writeable = False
    return col


def _phase(params: np.ndarray, run: DiagonalRun) -> np.ndarray:
    """The run's exp(-i (fixed + sum_q params[..., q] col_q)), one row per
    leading index of ``params`` (one row for all when the run has no slot).

    The angle sums in the run's slot order, element by element, so a row's
    phase does not depend on how many rows are computed with it.
    """
    angle = run.fixed
    for slot, col in zip(run.slots, run.cols):
        term = params[..., slot, None] * col
        angle = term if angle is None else angle + term
    return np.exp(-1j * angle)


def _apply_cnot(amps, control, target, n, out) -> None:
    """CNOT into ``out``, an array (or strided view) of the shape of ``amps``
    that does not overlap it."""
    # axis -1 - q of the (..., (2,) * n) view holds qubit q
    src = amps.reshape(amps.shape[:-1] + (2,) * n)
    dst = out.reshape(src.shape, copy=False)
    for bit in (0, 1):  # the control bit
        half = (..., slice(bit, bit + 1)) + (slice(None),) * control
        dst[half] = np.flip(src[half], -1 - target) if bit else src[half]


def _rotation_matrices(kind: str, thetas) -> np.ndarray:
    """RX or RY at each angle of ``thetas``, (len(thetas), 2, 2)."""
    if kind not in ("RX", "RY"):
        raise ValueError(kind)
    mats = []
    for theta in thetas:
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        mats.append([[c, -1j * s], [-1j * s, c]] if kind == "RX" else [[c, -s], [s, c]])
    return np.array(mats, dtype=complex)


def _angle(op: GateOp, params) -> float:
    return op.angle if op.param is None else float(params[op.param])


def gate_matrix(op: GateOp, params=None) -> np.ndarray:
    """Dense matrix of a single-qubit gate (2x2) or an RZZ (4x4) on its own
    targets."""
    if op.kind in ("RX", "RY"):
        return _rotation_matrices(op.kind, [_angle(op, params)])[0]
    if op.kind in DIAGONAL_KINDS:
        local = _phase_column(op.kind, len(op.targets), tuple(range(len(op.targets))))
        return np.diag(np.exp(-1j * (_angle(op, params) * local)))
    if op.kind == "H":
        return _H_MAT.copy()
    if op.kind == "X":
        return _X_MAT.copy()
    raise ValueError(op.kind)


class DiagonalRun(NamedTuple):
    """A maximal run of consecutive RZ/RZZ gates, as one diagonal phase.

    The gates commute, so the run multiplies by exp(-i (fixed + sum_q
    theta_q cols[k])) over its distinct parameter slots q = ``slots[k]``, in
    order of first gate: ``cols[k]`` is the sum of slot q's gate columns,
    and the same column gives the slot's delta bump exp(-i delta cols[k]).
    ``fixed`` is angle times column summed over the run's fixed-angle gates,
    or None when it has none.
    """

    slots: tuple[int, ...]
    cols: tuple[np.ndarray, ...]
    fixed: np.ndarray | None


def _compile(circuit: Circuit) -> tuple:
    n = circuit.num_qubits
    steps = []
    runs = itertools.groupby(circuit.ops, lambda op: op.kind in DIAGONAL_KINDS)
    for diagonal, ops in runs:
        if not diagonal:
            steps.extend(ops)
            continue
        # slot -> the sum of its gates' columns, slots in order of first gate
        cols, fixed = {}, None
        for op in ops:
            col = _phase_column(op.kind, n, op.targets)
            if op.param is None:
                fixed = op.angle * col if fixed is None else fixed + op.angle * col
            else:  # a slot of one gate shares that gate's column
                cols[op.param] = cols[op.param] + col if op.param in cols else col
        steps.append(DiagonalRun(tuple(cols), tuple(cols.values()), fixed))
    return tuple(steps)


def sweep_circuit(circuit: Circuit, params, init: np.ndarray, delta=None) -> np.ndarray:
    """Run the circuit's program for g branches that share it.

    ``params`` is (g, num_params), one row per branch, and ``init``
    (labels, 2**n).  Without ``delta`` returns (g, 1, labels, 2**n), each
    branch's family; with it (g, num_params + 1, labels, 2**n), where
    [b, 0] is branch b's family and [b, 1 + q] its family at
    params[b] + delta e_q.

    One pass over the program serves every row of every branch, each step
    one kernel call over the swept prefix of rows.  Row 1 + q belongs to
    slot q throughout: before each step the prefix grows, by copies of
    row 0, to take the rows of the step's slots, and the slots no gate
    uses take row 0 at the end.  A single gate acts on all rows with a
    per-branch matrix, and on its slot's row with the gate at the
    perturbed angle, writing into a second buffer; the two buffers swap
    after every gate, so no gate's result is a new array or is copied back
    (the kernel's second product still takes one temporary).  A diagonal
    run multiplies the rows in place by its phase, then each of its slots'
    rows by that slot's bump exp(-i delta col): the run's gates commute,
    so the bump may wait for the run's end.  Row 0 takes the same
    operations with or without ``delta``, so it is the family bit for bit.
    """
    params = np.asarray(params, dtype=float)
    g, m = params.shape
    n = circuit.num_qubits
    src = np.empty((g, 1 if delta is None else m + 1) + init.shape, dtype=complex)
    dst = np.empty_like(src)
    src[:, 0] = init
    live = 1  # rows swept so far
    for step in circuit.program:
        run = isinstance(step, DiagonalRun)
        if delta is not None:
            slots = step.slots if run else () if step.param is None else (step.param,)
            top = 2 + max(slots, default=-1)
            if top > live:
                src[:, live:top] = src[:, :1]
                live = top
        if run:
            src[:, :live] *= _phase(params[:, None, None], step)
            if delta is not None:
                bumps = np.exp(-1j * delta * np.reshape(step.cols, (len(slots), 1, 2**n)))
                src[:, [1 + q for q in slots]] *= bumps
            continue
        if step.kind == "CNOT":
            _apply_cnot(src[:, :live], *step.targets, n, out=dst[:, :live])
        else:
            mats = _gate_mats(step, params, live, delta)
            _apply_1q(src[:, :live], mats, step.targets[0], n, out=dst[:, :live])
        src, dst = dst, src
    src[:, live:] = src[:, :1]
    return src


def _gate_mats(op: GateOp, params: np.ndarray, live: int, delta):
    """A single gate's matrices in the sweep: shared, per branch (g, 1, 1,
    2, 2) without ``delta``, else per branch and row (g, live, 1, 2, 2)
    with the slot's row 1 + slot at its angle + delta."""
    if op.param is None:
        return gate_matrix(op)  # H, X or a fixed angle
    theta = params[:, op.param].tolist()
    base = _rotation_matrices(op.kind, theta)[:, None, None]
    if delta is None:
        return base
    mats = np.empty((len(theta), live, 1, 2, 2), dtype=complex)
    mats[:] = base
    mats[:, 1 + op.param, 0] = _rotation_matrices(op.kind, [t + delta for t in theta])
    return mats


def apply_circuit_array(amps: np.ndarray, circuit: Circuit, params) -> np.ndarray:
    """Run the circuit over an amplitude array with arbitrary batch dims."""
    params = np.asarray(() if params is None else params, dtype=float)
    if circuit.num_params and len(params) != circuit.num_params:
        raise ValueError(
            f"expected {circuit.num_params} parameters, got {len(params)}"
        )
    flat = amps.reshape(-1, amps.shape[-1])
    return sweep_circuit(circuit, params[None], flat)[0, 0].reshape(amps.shape)


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
