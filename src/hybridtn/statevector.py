"""Dense statevector circuit simulator.

Conventions, fixed across the package:

* Qubit 0 is the least significant bit of the amplitude index, so basis
  label strings read like kets: on 3 qubits the label ``"100"`` puts the
  excitation on qubit 2 and is amplitude index ``int("100", 2) == 4``.
* Rotation gates are ``R_P(theta) = exp(-i * theta * P / 2)`` for
  P in {X, Y, Z}; the two-qubit coupler is ``RZZ(theta) = exp(-i * theta *
  Z (x) Z)`` with no half-angle, so ``RZZ(theta)|00> = exp(-i*theta)|00>``.
* Angles are plain radians.  Parameterised gates reference a slot in a flat
  parameter vector; slots are assigned in order of gate appearance.

A circuit runs as its compiled :attr:`Circuit.program`: each maximal run
of consecutive RZ and RZZ gates is one diagonal phase, each maximal run of
consecutive RX, RY, H and X gates one Kronecker-product layer applied as
one matrix product per piece of the register (equal pieces of at most
four qubits), and each CNOT a permutation.
:func:`sweep_circuit` is the one runner of a program.  It takes the
branches that share a circuit, each with its own parameters, and with a
finite-difference ``delta`` also every single-slot perturbed state of
each, in one pass; the variational engine's stencil uses that.
:func:`apply_circuit_array` is its one-branch call, for any leading batch
dimensions.  A Pauli word is a flip of its X and Y qubits and a phase.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .pauli import PauliTerm, parity_signs, pauli_word_masks

GATE_KINDS = frozenset({"RX", "RY", "RZ", "RZZ", "H", "X", "CNOT"})
ROTATION_KINDS = frozenset({"RX", "RY", "RZ", "RZZ"})
DIAGONAL_KINDS = frozenset({"RZ", "RZZ"})
TWO_QUBIT_KINDS = frozenset({"RZZ", "CNOT"})

_SQ2 = 1.0 / math.sqrt(2.0)
_H_MAT = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
_Y_MAT = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z_MAT = np.array([[1, 0], [0, -1]], dtype=complex)
_I_MAT = np.eye(2, dtype=complex)
PAULI_MATRICES = {"X": _X_MAT, "Y": _Y_MAT, "Z": _Z_MAT}
# RX(theta) = cos(theta/2) I + sin(theta/2) (-iX), RY likewise with -iY
_GENERATORS = {"RX": -1j * _X_MAT, "RY": -1j * _Y_MAT}


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
        """The layers, diagonal runs and CNOTs, compiled once per instance."""
        return _compile(self)


@dataclass(frozen=True)
class StateVector:
    num_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        if self.amps.shape != (2**self.num_qubits,):
            raise ValueError("amplitude length does not match qubit count")


# ---------------------------------------------------------------------------
# array-level kernels (batched over any leading dimensions)

def _apply_1q(amps: np.ndarray, mat: np.ndarray, q: int, n: int) -> np.ndarray:
    """``mat`` on qubit q as a two-slice update: out_i = m_i0 a_0 + m_i1 a_1,
    for the tree's word-batched blocks only.

    a_0 and a_1 are the halves of the (..., 2**(n-1-q), 2, 2**q) view.  A
    stack of matrices (..., 2, 2) broadcasts its leading axes against those
    of ``amps``.
    """
    a = amps.reshape(amps.shape[:-1] + (2 ** (n - 1 - q), 1, 2, 2**q))
    m = mat[..., None, :, :, None]  # (..., 1, out index, in index, 1)
    res = m[..., 0, :] * a[..., 0, :]
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


def _angle(op: GateOp, params) -> float:
    return op.angle if op.param is None else float(params[op.param])


def gate_matrix(op: GateOp, params=None) -> np.ndarray:
    """Dense matrix of a single-qubit gate (2x2) or an RZZ (4x4) on its own
    targets."""
    if op.kind in _GENERATORS:
        half = _angle(op, params) / 2.0
        return math.cos(half) * _I_MAT + math.sin(half) * _GENERATORS[op.kind]
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


class LocalLayer(NamedTuple):
    """A maximal run of consecutive RX, RY, H and X gates, as one matrix.

    Gates on different qubits commute, so the layer is the Kronecker
    product of one 2 x 2 factor per qubit: its qubit's gates multiplied in
    circuit order (the identity on a qubit without gates).  ``slots`` holds
    the run's distinct parameter slots in order of first gate, and
    ``pieces`` the ranges of :func:`_layer_pieces` that hold a gate.  The
    rest is compiled for :func:`_layer_factors`: the slot and the generator
    -iX or -iY of each parameterised gate, in gate order; the matrices of
    the other gates, then the identity; and ``stages``, where stages[j, q]
    indexes qubit q's (j + 1)-th gate in those two lists joined, or the
    identity once its gates run out.
    """

    slots: tuple[int, ...]
    pieces: tuple[tuple[int, int], ...]
    gate_slots: np.ndarray
    gens: np.ndarray
    fixed: np.ndarray
    stages: np.ndarray


def _step_kind(op: GateOp) -> str:
    if op.kind in DIAGONAL_KINDS:
        return "diagonal"
    return "CNOT" if op.kind == "CNOT" else "local"


def _compile(circuit: Circuit) -> tuple:
    n = circuit.num_qubits
    steps = []
    for kind, ops in itertools.groupby(circuit.ops, _step_kind):
        if kind == "CNOT":
            steps.extend(ops)
        elif kind == "local":
            steps.append(_local_layer(tuple(ops), n))
        else:
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


def _local_layer(ops: tuple[GateOp, ...], n: int) -> LocalLayer:
    rotations = [op for op in ops if op.param is not None]
    fixed = [gate_matrix(op) for op in ops if op.param is None] + [_I_MAT]
    # each gate's index in rotations + fixed, appended to its qubit's chain
    index = {True: itertools.count(), False: itertools.count(len(rotations))}
    chains = [[] for _ in range(n)]
    for op in ops:
        chains[op.targets[0]].append(next(index[op.param is not None]))
    stages = np.full((max(map(len, chains)), n), len(rotations) + len(fixed) - 1)
    for q, chain in enumerate(chains):
        stages[: len(chain), q] = chain
    return LocalLayer(
        tuple(dict.fromkeys(op.param for op in rotations)),
        tuple((lo, hi) for lo, hi in _layer_pieces(n) if any(chains[lo:hi])),
        np.array([op.param for op in rotations], dtype=np.intp),
        np.array([_GENERATORS[op.kind] for op in rotations]).reshape(-1, 2, 2),
        np.array(fixed),
        stages,
    )


def sweep_circuit(circuit: Circuit, params, init: np.ndarray, delta=None) -> np.ndarray:
    """Run the circuit's program for g branches that share it.

    ``params`` is (g, num_params), one row per branch, and ``init``
    (labels, 2**n).  Without ``delta`` returns (g, 1, labels, 2**n), each
    branch's family; with it (g, num_params + 1, labels, 2**n), where
    [b, 0] is branch b's family and [b, 1 + q] its family at
    params[b] + delta e_q.

    One pass over the program serves every row of every branch, each step
    over the swept prefix of rows.  Row 1 + q belongs to slot q throughout:
    before each step the prefix grows, by copies of row 0, to take the rows
    of the step's slots, and the slots no gate uses take row 0 at the end.
    A layer of single-qubit gates is a GEMM per piece of the register
    (:func:`_apply_layer`) and a CNOT a permutation, each writing into a
    second buffer; the two buffers swap after each write, so no step's
    result is a new array or is copied back.  A diagonal run multiplies
    the rows in place by its phase, then each of its slots' rows by that
    slot's bump exp(-i delta col): the run's gates commute, so the bump may
    wait for the run's end.  Row 0 takes the same operations with or
    without ``delta``, so it is the family bit for bit.
    """
    params = np.asarray(params, dtype=float)
    g, m = params.shape
    n = circuit.num_qubits
    src = np.empty((g, 1 if delta is None else m + 1) + init.shape, dtype=complex)
    dst = np.empty_like(src)
    src[:, 0] = init
    live = 1  # rows swept so far
    for step in circuit.program:
        if isinstance(step, GateOp):  # a CNOT
            _apply_cnot(src[:, :live], *step.targets, n, out=dst[:, :live])
            src, dst = dst, src
            continue
        if delta is not None:
            top = 2 + max(step.slots, default=-1)
            if top > live:
                src[:, live:top] = src[:, :1]
                live = top
        if isinstance(step, LocalLayer):
            if _apply_layer(step, src[:, :live], dst[:, :live], params, delta, n):
                src, dst = dst, src
            continue
        src[:, :live] *= _phase(params[:, None, None], step)
        if delta is not None:
            bumps = np.exp(-1j * delta * np.reshape(step.cols, (len(step.slots), 1, 2**n)))
            src[:, [1 + q for q in step.slots]] *= bumps
    src[:, live:] = src[:, :1]
    return src


def _layer_factors(layer: LocalLayer, params: np.ndarray, delta) -> np.ndarray:
    """The layer's per-qubit factors, (g, variants, n, 2, 2): variant 0 at
    each branch's ``params`` and, with ``delta``, variant 1 + k with slot
    min(slots) + k at angle + delta, for every slot up to max(slots); a
    slot in that range that the layer does not use gets the base factors."""
    theta = params[:, None, layer.gate_slots]  # (g, 1, rotations)
    if delta is not None and layer.slots:
        variants = [-1, *range(min(layer.slots), max(layer.slots) + 1)]
        theta = theta + delta * np.equal.outer(variants, layer.gate_slots)
    half = theta[..., None, None] / 2.0
    p = len(layer.gate_slots)
    mats = np.empty(theta.shape[:2] + (p + len(layer.fixed), 2, 2), dtype=complex)
    np.multiply(np.cos(half), _I_MAT, out=mats[:, :, :p])
    mats[:, :, :p] += np.sin(half) * layer.gens
    mats[:, :, p:] = layer.fixed
    facs = mats[:, :, layer.stages[0]]
    for stage in layer.stages[1:]:
        facs = mats[:, :, stage] @ facs
    return facs


def _kron(facs: np.ndarray) -> np.ndarray:
    """kron(facs[..., -1, :, :], ..., facs[..., 0, :, :]): factor j acts on
    bit j of the row and column index.  The fold starts from the (..., 1, 1)
    identity, which is also the product of no factors."""
    out = np.ones(facs.shape[:-3] + (1, 1), dtype=facs.dtype)
    for j in range(facs.shape[-3] - 1, -1, -1):
        prod = out[..., :, None, :, None] * facs[..., j, None, :, None, :]
        out = prod.reshape(prod.shape[:-4] + (2 * out.shape[-1],) * 2)
    return out


# A layer's Kronecker factors span at most _PIECE_QUBITS qubits each, and
# each of its GEMMs multiplies a factor with at most _GEMM_COLUMNS rows or
# columns of amplitudes: 16 x 16 x 128 complex multiply-adds stay under the
# size at which OpenBLAS splits a GEMM over threads, which on a busy host
# can cost milliseconds per call.
_PIECE_QUBITS = 4
_GEMM_COLUMNS = 128


def _layer_pieces(n: int) -> list[tuple[int, int]]:
    """The qubit ranges [lo, hi) of a layer's Kronecker factors, lowest
    first: the fewest equal pieces of at most _PIECE_QUBITS qubits."""
    count = -(-n // _PIECE_QUBITS)
    bounds = [j * n // count for j in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def _row_blocks(layer: LocalLayer, live: int, delta) -> list[tuple[slice, slice]]:
    """Rows 0 .. live as (rows, variants) slice pairs: the rows 1 + s of
    the layer's slot range with their variants (:func:`_layer_factors`),
    and the rows below and above it with variant 0."""
    if delta is None or not layer.slots:
        return [(slice(0, live), slice(0, 1))]
    first, last = min(layer.slots), max(layer.slots)
    blocks = [
        (slice(0, 1 + first), slice(0, 1)),
        (slice(1 + first, 2 + last), slice(1, 2 + last - first)),
    ]
    if 2 + last < live:
        blocks.append((slice(2 + last, live), slice(0, 1)))
    return blocks


def _apply_layer(layer, src, dst, params, delta, n) -> bool:
    """Multiply the rows (g, live, labels, 2**n) of ``src`` by the layer,
    the Kronecker product of its pieces' factors (:func:`_layer_pieces`),
    with ``dst`` as the second buffer; True when the result ends in
    ``dst``.

    Each piece [lo, hi) that has a gate is one matmul per block of rows:
    seen as a (labels 2**(n-hi), 2**(hi-lo), 2**lo) array A per row, a row
    becomes K A, with K the piece's factor, or A K^T for the lowest piece.
    A row's K is its variant's (:func:`_row_blocks`): the rows of the
    layer's slot range take its stack of variants, the other rows the
    branch's base, broadcast, so no K is copied per row.
    """
    g, live = src.shape[:2]
    facs = _layer_factors(layer, params, delta)
    blocks = _row_blocks(layer, live, delta)
    swapped = False
    for lo, hi in layer.pieces:
        k = _kron(facs[:, :, lo:hi])
        if lo == 0:  # labels and high bits as the GEMM's M, in chunks
            m = math.gcd(src.shape[2] * 2 ** (n - hi), _GEMM_COLUMNS)
            shape = (g, live, -1, m, 2**hi)
            k = k.swapaxes(-1, -2)[:, :, None]
        else:  # low bits as the GEMM's N, in chunks
            c = min(2**lo, _GEMM_COLUMNS)
            shape = (g, live, -1, 2 ** (hi - lo), 2**lo // c, c)
            k = k[:, :, None, None]
        a = src.reshape(shape, copy=False)
        out = dst.reshape(shape, copy=False)
        if lo:
            a, out = a.swapaxes(-3, -2), out.swapaxes(-3, -2)
        for rows, variants in blocks:
            if lo == 0:
                np.matmul(a[:, rows], k[:, variants], out=out[:, rows])
            else:
                np.matmul(k[:, variants], a[:, rows], out=out[:, rows])
        src, dst, swapped = dst, src, not swapped
    return swapped


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
    """Apply a product of Pauli factors ((qubit, letter) pairs) as a flip
    and a phase: out[x] = (-i)**n_y (-1)**popcount(x & sign) amps[x ^ flip]
    (:func:`~hybridtn.pauli.pauli_word_masks`)."""
    flip, sign, n_y = pauli_word_masks(factors)
    view = amps.reshape(amps.shape[:-1] + (2,) * n)
    axes = [view.ndim - 1 - q for q in range(n) if flip >> q & 1]  # axis of qubit q
    flipped = np.flip(view, axes).reshape(amps.shape)
    return flipped * ((-1j) ** n_y * parity_signs(np.arange(2**n), sign))


# ---------------------------------------------------------------------------
# public statevector operations

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

    Measuring the Pauli string gives +1 with probability p_even = (1 +
    <P>)/2, so the ``shots`` outcomes are one binomial draw from the exact
    expectation.  ``shots == 0`` returns the exact expectation, bit-for-bit
    equal to the deterministic path.
    """
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if shots == 0:
        return pauli_expectation(state, term)
    if not term.factors:
        return term.coefficient
    exact = pauli_expectation(state, PauliTerm(1.0, term.factors))
    p_even = float(np.clip((1.0 + exact) / 2.0, 0.0, 1.0))
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
