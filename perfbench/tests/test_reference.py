"""Tests of the benchmark's reference code.

    python3 -m pytest perfbench/tests -q

Spectra are checked against values worked out by hand; the dense tree
rebuild is checked against ``hybridtn.tree.tree_energy`` on tiny trees.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import reference  # noqa: E402
from worker import describe_tree  # noqa: E402
from workloads import WORKLOADS, mps_root_cores  # noqa: E402

from hybridtn.pauli import build_1d_cluster, hamiltonian_to_text  # noqa: E402
from hybridtn.statevector import build_hardware_efficient_ansatz  # noqa: E402
from hybridtn.tensors import MpsTensor  # noqa: E402
from hybridtn.tree import build_two_layer_qc, build_two_layer_qq, tree_energy  # noqa: E402


def spectrum(text: str) -> np.ndarray:
    n, terms = reference.parse_hamiltonian(text)
    return np.linalg.eigvalsh(reference.pauli_sparse(n, terms).toarray())


@pytest.mark.parametrize(
    "text, want",
    [
        ("# qubits: 1\n1.0 Z0\n", [-1, 1]),
        ("# qubits: 1\n0.5 Y0\n", [-0.5, 0.5]),
        ("# qubits: 1\n1.0 X0\n1.0 Z0\n", [-np.sqrt(2), np.sqrt(2)]),
        ("# qubits: 1\n2.5\n-1.0 Z0\n", [1.5, 3.5]),
        ("# qubits: 2\n1.0 X0 X1\n1.0 Y0 Y1\n1.0 Z0 Z1\n", [-3, 1, 1, 1]),
        ("# qubits: 2\n1.0 X0\n2.0 Z1\n", [-3, -1, 1, 3]),
        ("# qubits: 2\n1.0 Z0 Z1\n0.5 X0\n", [-np.sqrt(1.25)] * 2 + [np.sqrt(1.25)] * 2),
        ("# qubits: 2\n1.0 X0 Y1\n1.0 Y0 X1\n", [-2, 0, 0, 2]),
    ],
)
def test_small_spectra_match_hand_values(text, want):
    assert spectrum(text) == pytest.approx(sorted(want), abs=1e-12)


def test_qubit_zero_is_the_low_bit_and_y_has_the_standard_sign():
    x1 = reference.pauli_sparse(2, [(1.0, ((1, "X"),))]).toarray()
    assert np.array_equal(x1, np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)))
    y0 = reference.pauli_sparse(1, [(1.0, ((0, "Y"),))]).toarray()
    assert np.array_equal(y0, np.array([[0, -1j], [1j, 0]]))


def test_eigsh_ground_energy_on_two_qubits():
    n, terms = reference.parse_hamiltonian("# qubits: 2\n1.0 X0 X1\n1.0 Y0 Y1\n1.0 Z0 Z1\n")
    assert reference.ground_energy(reference.pauli_sparse(n, terms), seed=3) == pytest.approx(
        -3.0, abs=1e-12
    )


def test_gate_conventions():
    rzz = reference.gate_full_matrix({"kind": "RZZ", "targets": [0, 1], "angle": 0.3}, None, 2)
    assert rzz[0, 0] == pytest.approx(np.exp(-0.3j))
    assert rzz[1, 1] == pytest.approx(np.exp(0.3j))
    rx = reference.gate_full_matrix({"kind": "RX", "targets": [0], "param": 0}, [np.pi], 1)
    assert np.allclose(rx, [[0, -1j], [-1j, 0]])
    cnot = reference.gate_full_matrix({"kind": "CNOT", "targets": [0, 1]}, None, 2)
    assert cnot[3, 1] == 1 and cnot[1, 3] == 1 and cnot[0, 0] == 1 and cnot[2, 2] == 1


def energy_by_reference(tree, h):
    psi = reference.rebuild_tree_state(describe_tree(tree))
    n, terms = reference.parse_hamiltonian(hamiltonian_to_text(h))
    return reference.state_energy(psi, reference.pauli_sparse(n, terms))


def test_dense_rebuild_matches_tree_energy_on_a_qq_tree():
    rng = np.random.default_rng(5)
    root = build_hardware_efficient_ansatz(2, 2)
    branches = [build_hardware_efficient_ansatz(2, 2) for _ in range(2)]
    total = root.num_params + sum(b.num_params for b in branches)
    tree = build_two_layer_qq(root, branches, rng.uniform(-np.pi, np.pi, total))
    h, _ = build_1d_cluster(2, 2, lam=0.7, seed=11)
    norm, energy = energy_by_reference(tree, h)
    assert norm == pytest.approx(1.0, abs=1e-12)
    assert energy == pytest.approx(tree_energy(tree, h), abs=1e-10)


def test_dense_rebuild_matches_tree_energy_on_a_qc_tree():
    rng = np.random.default_rng(6)
    cores = mps_root_cores(WORKLOADS["qc-n2k2"], seed=9)
    branches = [build_hardware_efficient_ansatz(2, 1) for _ in range(2)]
    total = sum(b.num_params for b in branches)
    tree = build_two_layer_qc(MpsTensor(tuple(cores)), branches, rng.uniform(-np.pi, np.pi, total))
    h, _ = build_1d_cluster(2, 2, lam=0.7, seed=12)
    norm, energy = energy_by_reference(tree, h)
    assert norm == pytest.approx(1.0, abs=1e-12)
    assert energy == pytest.approx(tree_energy(tree, h), abs=1e-10)
