"""Typed contraction cases, measurement strategies, MPS contractions."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybridtn.oracles import dense_contract_pair, mps_dense
from hybridtn.pauli import PauliTerm
from hybridtn.statevector import Circuit, GateOp
from hybridtn.tensors import (
    ClassicalTensor,
    HermitianObservable,
    MpsTensor,
    QuantumTensor,
    branch_matrix_raw,
    compose_registers,
    measure_branch_observable,
    mps_general_expectation,
    mps_open_site_matrix,
    project_group,
    realize_case,
    reconstruct_from_pauli,
)
from hybridtn.verify import (
    check_measurement_strategies,
    random_case_instance,
    random_local_term,
    random_quantum_tensor,
)

from _support import case1_expectation_orders, mps_expectation, mps_from_product, random_mps


def computational_family(n: int, labels) -> QuantumTensor:
    """Gate-free shared tensor whose family is the given basis states."""
    return QuantumTensor.shared(Circuit(n, (), 0), labels, np.zeros(0))


def bell_tensor(group=()) -> QuantumTensor:
    circuit = Circuit(2, (GateOp("H", (0,)), GateOp("CNOT", (0, 1))), 0)
    return QuantumTensor.shared(
        circuit, ("00",), np.zeros(0), quantum_groups=(group,) if group else ()
    )


# ---------------------------------------------------------------------------
# worked contraction examples

def test_case1_mixes_family_members():
    q = computational_family(1, ("0", "1"))
    alpha = ClassicalTensor(
        np.array([[1.0], [1.0]]) / math.sqrt(2), ("i", "m")
    )
    out = realize_case(1, q, "i", alpha, "i")
    assert out.squared_norm is None
    np.testing.assert_allclose(
        out.amps, [[1 / math.sqrt(2), 1 / math.sqrt(2)]], atol=1e-15
    )


def test_case3_sums_product_states():
    qa = computational_family(1, ("0", "1"))
    qb = computational_family(1, ("0", "1"))
    out = realize_case(3, qa, "i", qb, "i")
    # unnormalized |00> + |11>, first register in the low bits
    np.testing.assert_allclose(out.amps.reshape(-1), [1, 0, 0, 1], atol=1e-15)


def test_case5_bell_projection():
    qa = bell_tensor(group=(1,))
    qb = bell_tensor(group=(1,))
    out = realize_case(5, qa, "q0", qb, "q0")
    np.testing.assert_allclose(
        out.amps.reshape(-1), [0.5, 0, 0, 0.5], atol=1e-15
    )
    assert out.squared_norm == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("case", [1, 2, 3, 4, 5])
def test_random_cases_match_dense(case):
    rng = np.random.default_rng(100 + case)
    for _ in range(30):
        ta, la, tb, lb = random_case_instance(case, rng)
        got = realize_case(case, ta, la, tb, lb)
        want_amps, want_norm = dense_contract_pair(case, ta, la, tb, lb)
        np.testing.assert_allclose(got.amps, want_amps, atol=1e-10)
        if case == 5:
            assert got.squared_norm == pytest.approx(want_norm, abs=1e-10)


def test_case1_contraction_orders_agree():
    rng = np.random.default_rng(31)
    for _ in range(10):
        q = random_quantum_tensor(rng, 2, 3)
        a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        alpha = ClassicalTensor(a, ("i", "m"))
        weights = rng.normal(size=(2, 2))
        term = random_local_term(rng, 2)
        first, second = case1_expectation_orders(q, alpha, weights, term)
        assert first == pytest.approx(second, abs=1e-10)


# ---------------------------------------------------------------------------
# register bookkeeping

def test_project_group_manual_oracle():
    rng = np.random.default_rng(32)
    n = 3
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    group = (2, 0)  # qubit 2 is the low bit of the group index
    got = project_group(amps, group, n)
    assert got.shape == (4, 2)
    for g in range(4):
        b2, b0 = g & 1, (g >> 1) & 1
        for rest in range(2):  # remaining qubit 1
            x = b0 | (rest << 1) | (b2 << 2)
            assert got[g, rest] == amps[x]


def test_compose_registers_bit_layout():
    low = np.array([0.0, 1.0])  # |1> on one qubit
    high = np.array([1.0, 0.0, 0.0, 0.0])  # |00> on two qubits
    out = compose_registers(low, high)
    assert out.shape == (8,)
    assert out[1] == 1.0  # global |001>


# ---------------------------------------------------------------------------
# measurement strategies

def test_strategies_match_direct_small():
    rng = np.random.default_rng(33)
    for strategy in ("hadamard_test", "superposition_input", "pauli_open_index"):
        for _ in range(5):
            if strategy == "pauli_open_index":
                q = random_quantum_tensor(rng, 3, 1, open_qubit=1)
                term = random_local_term(rng, 3, avoid=1)
            else:
                q = random_quantum_tensor(rng, 2, 2)
                term = random_local_term(rng, 2)
            got = measure_branch_observable(q, term, strategy).entries
            want = measure_branch_observable(q, term, "direct").entries
            np.testing.assert_allclose(got, want, atol=1e-10)


def test_strategy_mode_restrictions():
    rng = np.random.default_rng(34)
    open_q = random_quantum_tensor(rng, 2, 1, open_qubit=0)
    shared = random_quantum_tensor(rng, 2, 2)
    distinct = random_quantum_tensor(rng, 2, 2, mode="distinct")
    z1 = PauliTerm(1.0, ((1, "Z"),))
    with pytest.raises(ValueError):
        measure_branch_observable(open_q, z1, "hadamard_test")
    with pytest.raises(ValueError):
        measure_branch_observable(open_q, z1, "superposition_input")
    with pytest.raises(ValueError):
        measure_branch_observable(distinct, z1, "superposition_input")
    with pytest.raises(ValueError):
        measure_branch_observable(shared, z1, "pauli_open_index")
    with pytest.raises(ValueError):
        # observable may not touch the open qubit
        measure_branch_observable(open_q, PauliTerm(1.0, ((0, "Z"),)), "pauli_open_index")
    with pytest.raises(ValueError):
        measure_branch_observable(shared, z1, "bogus")
    with pytest.raises(ValueError):
        measure_branch_observable(shared, PauliTerm(1.0, ((5, "Z"),)), "direct")


def test_seeded_branch_sampling_repeats_per_seed():
    rng = np.random.default_rng(41)
    q = random_quantum_tensor(rng, 2, 2)
    term = random_local_term(rng, 2)

    def sample(seed):
        return measure_branch_observable(
            q, term, "hadamard_test", shots=256, seed=seed
        ).entries

    np.testing.assert_array_equal(sample(9), sample(9))
    assert not np.array_equal(sample(9), sample(10))


def test_negative_shots_rejected():
    rng = np.random.default_rng(42)
    q = random_quantum_tensor(rng, 2, 2)
    term = random_local_term(rng, 2)
    for strategy in ("direct", "hadamard_test", "superposition_input"):
        with pytest.raises(ValueError, match="shots"):
            branch_matrix_raw(q, term, strategy, shots=-5)


def test_sampled_strategy_check_passes():
    result = check_measurement_strategies(shots=4000)
    assert result.passed, result.detail


def test_reconstruction_formula_entries():
    e_i, e_x, e_y, e_z = 0.9, 0.3, -0.2, 0.5
    m = reconstruct_from_pauli(e_i, e_x, e_y, e_z).entries
    assert m[0, 0] == pytest.approx((e_i + e_z) / 2)
    assert m[1, 1] == pytest.approx((e_i - e_z) / 2)
    assert m[0, 1] == pytest.approx((e_x + 1j * e_y) / 2)
    assert m[1, 0] == pytest.approx((e_x - 1j * e_y) / 2)


def test_open_index_reconstruction_matches_direct():
    rng = np.random.default_rng(35)
    for _ in range(10):
        q = random_quantum_tensor(rng, 3, 1, open_qubit=2)
        term = random_local_term(rng, 3, avoid=2)
        got = branch_matrix_raw(q, term, "pauli_open_index")
        want = branch_matrix_raw(q, term, "direct")
        np.testing.assert_allclose(got, want, atol=1e-10)


@given(st.integers(0, 10**6))
def test_shared_families_are_orthonormal(seed):
    rng = np.random.default_rng(seed)
    q = random_quantum_tensor(rng, 2, 3)
    gram = q.family_states() @ q.family_states().conj().T
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)


# ---------------------------------------------------------------------------
# observables

def test_hermitian_observable_validation():
    with pytest.raises(ValueError):
        HermitianObservable(np.array([[0.0, 1.0], [0.0, 0.0]]))
    m = np.array([[1.0, 2.0 + 1j], [0.0, 3.0]])
    sym = HermitianObservable.hermitized(m).entries
    np.testing.assert_allclose(sym, (m + m.conj().T) / 2)


# ---------------------------------------------------------------------------
# matrix product states

def test_mps_expectation_matches_dense():
    m = random_mps(3, chi=3, seed=40)
    coeffs = mps_dense(m)
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    ops = [z, None, x]
    dense_ops = [z, np.eye(2), x]
    want = np.einsum(
        "abc,ax,by,cz,xyz->",
        coeffs.conj(),
        *dense_ops,
        coeffs,
    )
    got = mps_expectation(m, ops)
    assert got == pytest.approx(complex(want), abs=1e-12)
    assert mps_expectation(m, None).real == pytest.approx(1.0, abs=1e-12)


def test_mps_open_site_matrix_matches_dense():
    m = random_mps(3, chi=2, seed=41)
    coeffs = mps_dense(m)
    z = np.diag([1.0, -1.0])
    got = mps_open_site_matrix(m, m, 0, [None, z, None])
    want = np.einsum("pbc,by,qyc->pq", coeffs.conj(), z, coeffs)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_mps_transfers_broadcast_batched_operators():
    rng = np.random.default_rng(42)
    bra, ket = random_mps(4, chi=2, seed=43), random_mps(4, chi=3, seed=44)

    def ops_batch(shape):
        return rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))

    # batch axes (3, 1) and (1, 4) on two sites broadcast to (3, 4)
    a, b, z = ops_batch((3, 1)), ops_batch((1, 4)), np.diag([1.0, -1.0])
    got = mps_general_expectation(bra, ket, [a, None, b, z])
    open_got = mps_open_site_matrix(bra, ket, 1, [a, None, b, z])
    assert got.shape == (3, 4) and open_got.shape == (3, 4, 2, 2)
    for i in range(3):
        for j in range(4):
            ops = [a[i, 0], None, b[0, j], z]
            want = mps_general_expectation(bra, ket, ops)
            assert got[i, j] == pytest.approx(want, abs=1e-12)
            np.testing.assert_allclose(
                open_got[i, j], mps_open_site_matrix(bra, ket, 1, ops), atol=1e-12
            )


def test_mps_from_product():
    m = mps_from_product("10")
    coeffs = mps_dense(m)
    assert coeffs[1, 0] == 1.0
    assert np.count_nonzero(coeffs) == 1


def test_mps_shape_validation():
    with pytest.raises(ValueError):
        MpsTensor((np.zeros((2, 2, 1)),))  # boundary bond must be 1
    m = random_mps(3, 2, seed=4)
    for ops in ([None] * 2, [None] * 4):  # one slot per site, no more, no fewer
        with pytest.raises(ValueError, match="one operator slot per site"):
            mps_open_site_matrix(m, m, 0, ops)
        with pytest.raises(ValueError, match="one operator slot per site"):
            mps_general_expectation(m, m, ops)
