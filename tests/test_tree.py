"""Bottom-up tree evaluation against dense state reconstructions."""

import numpy as np
import pytest

from hybridtn.oracles import dense_tree_state, hamiltonian_matrix, pauli_term_matrix
from hybridtn.pauli import (
    Hamiltonian,
    PauliTerm,
    SubsystemLayout,
    build_1d_cluster,
    build_2d_web,
    decompose_for_layout,
)
from hybridtn.statevector import build_hardware_efficient_ansatz
from hybridtn.tensors import QuantumTensor, measure_branch_observable
from hybridtn.tree import (
    ChildLink,
    EvalCounters,
    HybridTree,
    ProductObservable,
    TreeNode,
    build_two_layer_qq,
    tree_energy,
    tree_expectation,
    tree_overlap,
    tree_transition_energy,
)
from hybridtn.verify import random_qq_tree

from _support import flat_params, product_observable, random_mps


def global_term(rng: np.random.Generator, num_qubits: int) -> PauliTerm:
    count = int(rng.integers(1, 4))
    qubits = [int(q) for q in rng.permutation(num_qubits)[:count]]
    factors = tuple(sorted((q, str(rng.choice(["X", "Y", "Z"]))) for q in qubits))
    return PauliTerm(float(rng.uniform(-1, 1)), factors)


# ---------------------------------------------------------------------------
# quantum root, quantum branches

def test_expectation_matches_dense_state():
    rng = np.random.default_rng(50)
    for _ in range(8):
        tree = random_qq_tree(rng, 2, 2)
        psi = dense_tree_state(tree)
        term = global_term(rng, 4)
        obs = product_observable(term, tree.layout)
        got = tree_expectation(tree, obs)
        # the observable is the bare Pauli string; coefficients live in terms
        want = np.real(
            psi.conj() @ pauli_term_matrix(PauliTerm(1.0, term.factors), 4) @ psi
        )
        assert got == pytest.approx(float(want), abs=1e-10)


def test_identity_expectation_and_eval_count():
    rng = np.random.default_rng(51)
    k, n = 3, 2
    tree = random_qq_tree(rng, k, n)
    counters = EvalCounters()
    val = tree_expectation(
        tree, ProductObservable.identity(k), counters=counters
    )
    assert val == pytest.approx(1.0, abs=1e-10)
    # one evaluation per branch plus the root closure
    assert counters.quantum_evals == k + 1


def test_energy_matches_dense_both_models():
    rng = np.random.default_rng(52)
    # seven branches: more than the root keeps its base reduction for
    cases = ((build_1d_cluster, 2, 2), (build_2d_web, 2, 3), (build_1d_cluster, 1, 7))
    for builder, n, k in cases:
        h, _ = builder(n, k, lam=0.8, seed=13)
        tree = random_qq_tree(rng, k, n)
        # one subsystem per branch: the root's qubits all carry branches
        assert tree.layout == SubsystemLayout((n,) * k)
        psi = dense_tree_state(tree)
        want = float(np.real(psi.conj() @ hamiltonian_matrix(h) @ psi))
        assert tree_energy(tree, h) == pytest.approx(want, abs=1e-10)


def test_energy_shares_branch_evaluations_across_terms():
    h, _ = build_1d_cluster(2, 2, lam=1.0, seed=3)  # 11 terms
    rng = np.random.default_rng(53)
    tree = random_qq_tree(rng, 2, 2)
    counters = EvalCounters()
    tree_energy(tree, h, counters=counters)
    # 11 root closures + 6 distinct local observables per branch
    assert counters.quantum_evals == len(h.terms) + 2 * 6


def test_strategies_agree_through_the_tree():
    # contract exactly measured branch matrices with the root state by hand:
    # sum_t c_t <V| M_1^t (x) M_0^t |V>, root qubit s carrying branch s
    rng = np.random.default_rng(54)
    tree = random_qq_tree(rng, 2, 2)
    h, _ = build_1d_cluster(2, 2, lam=0.6, seed=21)
    want = tree_energy(tree, h)
    root = tree.root.payload.joint_state()
    branches = [link.node.payload for link in tree.root.children]
    for strategy in ("hadamard_test", "superposition_input"):
        got = 0.0
        for coeff, factors in decompose_for_layout(h, tree.layout):
            m0, m1 = (
                measure_branch_observable(q, PauliTerm(1.0, f), strategy).entries
                for q, f in zip(branches, factors)
            )
            got += coeff * np.real(root.conj() @ np.kron(m1, m0) @ root)
        assert got == pytest.approx(want, abs=1e-9), strategy


def test_energy_matches_dense_with_branches_listed_out_of_attach_order():
    # the first listed branch, on root qubit 1, holds the low qubits
    tree = random_qq_tree(np.random.default_rng(1), 2, 2)
    swapped = HybridTree(TreeNode(tree.root.payload, tree.root.children[::-1]))
    h, _ = build_1d_cluster(2, 2, lam=0.9, seed=4)
    psi = dense_tree_state(swapped)
    want = float(np.real(psi.conj() @ hamiltonian_matrix(h) @ psi))
    assert tree_energy(swapped, h) == pytest.approx(want, abs=1e-10)


# ---------------------------------------------------------------------------
# overlaps and transition elements

def test_overlap_self_and_cross():
    rng = np.random.default_rng(61)
    a = random_qq_tree(rng, 2, 2)
    b = random_qq_tree(rng, 2, 2)
    assert tree_overlap(a, a) == pytest.approx(1.0 + 0j, abs=1e-10)
    psi_a = dense_tree_state(a)
    psi_b = dense_tree_state(b)
    want = complex(np.vdot(psi_a, psi_b))
    assert tree_overlap(a, b) == pytest.approx(want, abs=1e-10)


def test_transition_elements_match_dense():
    rng = np.random.default_rng(62)
    a = random_qq_tree(rng, 2, 2)
    b = random_qq_tree(rng, 2, 2)
    psi_a = dense_tree_state(a)
    psi_b = dense_tree_state(b)

    term = PauliTerm(1.0, global_term(rng, 4).factors)
    got = tree_transition_energy(a, b, Hamiltonian(4, (term,)))
    want = psi_a.conj() @ pauli_term_matrix(term, 4) @ psi_b
    assert got == pytest.approx(complex(want), abs=1e-10)

    h, _ = build_1d_cluster(2, 2, lam=0.9, seed=25)
    got_h = tree_transition_energy(a, b, h)
    want_h = complex(psi_a.conj() @ hamiltonian_matrix(h) @ psi_b)
    assert got_h == pytest.approx(want_h, abs=1e-10)


# ---------------------------------------------------------------------------
# parameters

def test_parameter_round_trip_and_slices():
    rng = np.random.default_rng(63)
    tree = random_qq_tree(rng, 3, 2)
    flat = flat_params(tree)
    rebuilt = tree.with_params(flat)
    np.testing.assert_array_equal(flat_params(rebuilt), flat)
    slices = tree.param_slices()
    assert sum(stop - start for _, start, stop in slices) == tree.num_params
    fresh = rng.uniform(-1, 1, size=tree.num_params)
    np.testing.assert_array_equal(flat_params(tree.with_params(fresh)), fresh)


def test_builder_rejects_wrong_param_length():
    root = build_hardware_efficient_ansatz(2, 1)
    branches = [build_hardware_efficient_ansatz(2, 1) for _ in range(2)]
    with pytest.raises(ValueError):
        build_two_layer_qq(root, branches, np.zeros(3))


def test_quantum_parent_refuses_a_non_binary_child():
    # a four-label child cannot hang off one qubit of a quantum parent
    child_circuit, root_circuit = (build_hardware_efficient_ansatz(w, 1) for w in (2, 1))
    labels = ("00", "01", "10", "11")
    child = QuantumTensor.shared(child_circuit, labels, np.zeros(child_circuit.num_params))
    root = QuantumTensor.shared(root_circuit, ("0",), np.zeros(root_circuit.num_params))
    tree = HybridTree(TreeNode(root, (ChildLink(0, TreeNode(child)),)))
    h, _ = build_1d_cluster(2, 1, lam=0.5, seed=1)
    with pytest.raises(ValueError, match="binary"):
        tree_overlap(tree, tree)
    with pytest.raises(ValueError, match="binary"):
        tree_energy(tree, h)


# ---------------------------------------------------------------------------
# malformed shapes

def _branch(width: int, seed: int) -> TreeNode:
    circuit = build_hardware_efficient_ansatz(width, 1)
    params = np.random.default_rng(seed).uniform(-np.pi, np.pi, circuit.num_params)
    return TreeNode(QuantumTensor.shared(circuit, ("0" * width, "1" * width), params))


def _two_qubit_root(*links: ChildLink) -> HybridTree:
    circuit = build_hardware_efficient_ansatz(2, 1)
    params = np.random.default_rng(0).uniform(-np.pi, np.pi, circuit.num_params)
    return HybridTree(TreeNode(QuantumTensor.shared(circuit, ("00",), params), links))


def test_tree_rejects_two_children_on_one_attach_point():
    # both branches on root qubit 0 gave an energy that moved with their order
    tree = _two_qubit_root(ChildLink(0, _branch(1, 1)), ChildLink(0, _branch(1, 2)))
    h, _ = build_1d_cluster(3, 1, lam=0.5, seed=1)
    with pytest.raises(ValueError, match="share an attach point"):
        tree_energy(tree, h)
    with pytest.raises(ValueError, match="share an attach point"):
        tree.layout
    with pytest.raises(ValueError, match="do not fit"):
        dense_tree_state(tree)


def test_tree_rejects_an_attach_point_outside_the_parent():
    # root qubit 1 and the two branches: a register of three qubits
    tree = _two_qubit_root(ChildLink(0, _branch(1, 1)), ChildLink(5, _branch(1, 2)))
    h, _ = build_1d_cluster(3, 1, lam=0.5, seed=1)
    with pytest.raises(ValueError, match="attach point 5"):
        tree_energy(tree, h)
    with pytest.raises(ValueError, match="attach point 5"):
        tree_overlap(tree, tree)
    with pytest.raises(ValueError, match="do not fit"):
        dense_tree_state(tree)


def test_branch_mps_rejects_a_child_on_its_upward_leg():
    # site 0 of a branch MPS is the leg to its parent, not an attach point
    mid = TreeNode(random_mps(3, chi=2, seed=5), (ChildLink(0, _branch(1, 1)),))
    tree = _two_qubit_root(ChildLink(0, mid), ChildLink(1, _branch(1, 2)))
    h, _ = build_1d_cluster(4, 1, lam=0.5, seed=1)
    with pytest.raises(ValueError, match="attach point 0"):
        tree_energy(tree, h)


def test_overlap_rejects_trees_whose_branches_sit_on_other_qubits():
    # same payloads and child counts, but the branches swap root qubits: the
    # overlap read 1 where the two states' overlap is not
    a = _two_qubit_root(ChildLink(0, _branch(1, 1)), ChildLink(1, _branch(1, 2)))
    b = _two_qubit_root(ChildLink(1, _branch(1, 1)), ChildLink(0, _branch(1, 2)))
    with pytest.raises(ValueError, match="structurally identical"):
        tree_overlap(a, b)
    # and the branches' sizes must agree too
    c = _two_qubit_root(ChildLink(0, _branch(1, 1)), ChildLink(1, _branch(2, 2)))
    with pytest.raises(ValueError, match="structurally identical"):
        tree_overlap(a, c)
