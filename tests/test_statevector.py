"""Gate kernels against dense matrix oracles, ansatz structure, sampling."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybridtn.pauli import PauliTerm
from hybridtn.statevector import (
    Circuit,
    GateOp,
    StateVector,
    ansatz_param_count,
    apply_circuit,
    apply_circuit_array,
    apply_pauli_array,
    build_hardware_efficient_ansatz,
    circuit_from_json,
    circuit_to_json,
    gate_matrix,
    init_basis_state,
    inner_product,
    pauli_expectation,
    sample_pauli_expectation,
)
from hybridtn.verify import random_circuit


# ---------------------------------------------------------------------------
# dense oracles built by explicit loops over basis states

def embed_1q(mat: np.ndarray, q: int, n: int) -> np.ndarray:
    return np.kron(np.eye(2 ** (n - 1 - q)), np.kron(mat, np.eye(2**q)))


def dense_rzz(theta: float, qa: int, qb: int, n: int) -> np.ndarray:
    diag = np.empty(2**n, dtype=complex)
    for x in range(2**n):
        parity = ((x >> qa) & 1) ^ ((x >> qb) & 1)
        diag[x] = np.exp(1j * theta) if parity else np.exp(-1j * theta)
    return np.diag(diag)


def dense_cnot(control: int, target: int, n: int) -> np.ndarray:
    mat = np.zeros((2**n, 2**n))
    for x in range(2**n):
        y = x ^ (1 << target) if (x >> control) & 1 else x
        mat[y, x] = 1.0
    return mat


def dense_op(op: GateOp, params, n: int) -> np.ndarray:
    if op.kind == "RZZ":
        theta = op.angle if op.param is None else float(params[op.param])
        return dense_rzz(theta, op.targets[0], op.targets[1], n)
    if op.kind == "CNOT":
        return dense_cnot(op.targets[0], op.targets[1], n)
    return embed_1q(gate_matrix(op, params), op.targets[0], n)


def dense_circuit(circuit: Circuit, params) -> np.ndarray:
    """The circuit's unitary as the product of its gates' dense matrices."""
    total = np.eye(2**circuit.num_qubits, dtype=complex)
    for op in circuit.ops:
        total = dense_op(op, params, circuit.num_qubits) @ total
    return total


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


# ---------------------------------------------------------------------------
# gates

def test_rotation_matrices_analytic():
    theta = 0.7
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    rx = gate_matrix(GateOp("RX", (0,), angle=theta))
    np.testing.assert_allclose(rx, [[c, -1j * s], [-1j * s, c]], atol=1e-15)
    ry = gate_matrix(GateOp("RY", (0,), angle=theta))
    np.testing.assert_allclose(ry, [[c, -s], [s, c]], atol=1e-15)
    rz = gate_matrix(GateOp("RZ", (0,), angle=theta))
    np.testing.assert_allclose(
        rz, np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]), atol=1e-15
    )


def test_rx_pi_flips():
    state = init_basis_state(1, "0")
    circuit = Circuit(1, (GateOp("RX", (0,), angle=math.pi),), 0)
    out = apply_circuit_array(state.amps, circuit, None)
    np.testing.assert_allclose(out, [0.0, -1j], atol=1e-15)


def test_kernels_match_dense_embeddings():
    rng = np.random.default_rng(5)
    params = np.array([0.37])
    for n in range(1, 6):
        ops = [GateOp(kind, (q,)) for kind in ("H", "X") for q in range(n)]
        for kind in ("RX", "RY", "RZ"):
            for q in range(n):  # fixed angles and a parameter slot
                ops.append(GateOp(kind, (q,), angle=float(rng.uniform(-np.pi, np.pi))))
                ops.append(GateOp(kind, (q,), param=0))
        for pair in itertools.permutations(range(n), 2):
            ops.append(GateOp("CNOT", pair))
            ops.append(GateOp("RZZ", pair, angle=float(rng.uniform(-np.pi, np.pi))))
            ops.append(GateOp("RZZ", pair, param=0))
        for op in ops:
            dense = dense_op(op, params, n)
            circuit = Circuit(n, (op,), 1)
            assert len(circuit.program) == 1  # RZ and RZZ: a one-gate diagonal run
            amps = random_state(rng, n)
            got = apply_circuit_array(amps, circuit, params)
            np.testing.assert_allclose(got, dense @ amps, atol=1e-12, err_msg=str(op))
            batch = np.stack([random_state(rng, n) for _ in range(6)]).reshape(2, 3, -1)
            got = apply_circuit_array(batch, circuit, params)
            assert got.shape == batch.shape
            np.testing.assert_allclose(got, batch @ dense.T, atol=1e-12, err_msg=str(op))


def test_kernels_batched_leading_axes():
    rng = np.random.default_rng(6)
    batch = np.stack([random_state(rng, 2) for _ in range(3)]).reshape(3, 1, 4)
    circuit = Circuit(2, (GateOp("CNOT", (0, 1)),), 0)
    got = apply_circuit_array(batch, circuit, None)
    for row in range(3):
        want = dense_cnot(0, 1, 2) @ batch[row, 0]
        np.testing.assert_allclose(got[row, 0], want, atol=1e-12)


def test_circuit_matches_accumulated_matrix():
    rng = np.random.default_rng(7)
    circuit, params = random_circuit(rng, 3, 3)
    amps = random_state(rng, 3)
    got = apply_circuit_array(amps, circuit, params)
    np.testing.assert_allclose(got, dense_circuit(circuit, params) @ amps, atol=1e-10)


def test_basis_state_labels():
    state = init_basis_state(3, "011")
    assert state.amps[3] == 1.0
    with pytest.raises(ValueError):
        init_basis_state(2, "012")


def test_apply_circuit_state_level():
    circuit = Circuit(2, (GateOp("H", (0,)), GateOp("CNOT", (0, 1))), 0)
    out = apply_circuit(init_basis_state(2, "00"), circuit)
    np.testing.assert_allclose(
        out.amps, np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-15
    )
    assert abs(inner_product(out, out) - 1.0) < 1e-12


@given(st.integers(0, 2**32 - 1))
def test_rotation_circuits_preserve_norm(seed):
    rng = np.random.default_rng(seed)
    circuit, params = random_circuit(rng, 2, 2)
    amps = random_state(rng, 2)
    out = apply_circuit_array(amps, circuit, params)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# Pauli expectations and sampling

def test_pauli_application_matches_matrix():
    from hybridtn.oracles import pauli_term_matrix

    rng = np.random.default_rng(8)
    n = 3
    for factors in [((0, "X"),), ((1, "Y"), (2, "Z")), ((0, "Z"), (1, "X"), (2, "Y"))]:
        term = PauliTerm(1.0, factors)
        amps = random_state(rng, n)
        got = apply_pauli_array(amps, term.factors, n)
        want = pauli_term_matrix(term, n) @ amps
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_pauli_expectation_quadratic_form():
    from hybridtn.oracles import pauli_term_matrix

    rng = np.random.default_rng(9)
    amps = random_state(rng, 2)
    term = PauliTerm(-0.7, ((0, "Y"), (1, "Z")))
    state = StateVector(2, amps)
    want = -0.7 * np.real(amps.conj() @ pauli_term_matrix(PauliTerm(1.0, term.factors), 2) @ amps)
    assert pauli_expectation(state, term) == pytest.approx(want, abs=1e-12)


def test_sampling_eigenstate_is_exact():
    state = init_basis_state(2, "01")
    term = PauliTerm(1.0, ((0, "Z"),))
    # |01> has qubit 0 set, so Z0 measures -1 on every shot
    assert sample_pauli_expectation(state, term, shots=13, seed=0) == -1.0
    # the Bell state (|00> + |11>)/sqrt(2) is an eigenstate of XX, YY and ZZ
    bell = StateVector(2, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0))
    for letter, eigenvalue in (("X", 1.0), ("Y", -1.0), ("Z", 1.0)):
        term = PauliTerm(1.0, ((0, letter), (1, letter)))
        for shots in (1, 7, 1000):
            for seed in range(3):
                got = sample_pauli_expectation(bell, term, shots=shots, seed=seed)
                assert got == eigenvalue, (letter, shots, seed)


def test_sampling_deterministic_and_unbiased():
    theta = 0.9
    circuit = Circuit(1, (GateOp("RX", (0,), angle=theta),), 0)
    amps = apply_circuit_array(init_basis_state(1, "0").amps, circuit, None)
    state = StateVector(1, amps)
    term = PauliTerm(1.0, ((0, "Z"),))
    a = sample_pauli_expectation(state, term, shots=20000, seed=4)
    b = sample_pauli_expectation(state, term, shots=20000, seed=4)
    assert a == b
    exact = math.cos(theta)
    sigma = math.sqrt((1 - exact**2) / 20000)
    assert abs(a - exact) < 5 * sigma
    # shots == 0 short-circuits to the exact path
    assert sample_pauli_expectation(state, term, shots=0, seed=4) == pytest.approx(
        exact, abs=1e-12
    )


# ---------------------------------------------------------------------------
# ansatz

def test_ansatz_param_counts():
    assert ansatz_param_count(8, 8) == 200
    assert ansatz_param_count(4, 8) == 96
    assert ansatz_param_count(3, 4) == 38
    assert ansatz_param_count(2, 4) == 24
    for n, d in [(1, 1), (2, 3), (5, 2), (4, 7)]:
        circuit = build_hardware_efficient_ansatz(n, d)
        assert circuit.num_params == ansatz_param_count(n, d)


def test_ansatz_extra_ry_layers():
    # depth >= 2 inserts RY layers before blocks 1 and depth//2 + 1
    shallow = build_hardware_efficient_ansatz(3, 1)
    deep = build_hardware_efficient_ansatz(3, 4)
    assert sum(1 for op in shallow.ops if op.kind == "RY") == 3
    assert sum(1 for op in deep.ops if op.kind == "RY") == 6


def test_ansatz_identity_at_zero():
    rng = np.random.default_rng(10)
    circuit = build_hardware_efficient_ansatz(3, 2)
    amps = random_state(rng, 3)
    out = apply_circuit_array(amps, circuit, np.zeros(circuit.num_params))
    np.testing.assert_allclose(out, amps, atol=1e-12)


def test_circuit_json_round_trip():
    circuit = build_hardware_efficient_ansatz(3, 2)
    assert circuit_from_json(circuit_to_json(circuit)) == circuit
