"""Exact-diagonalization oracles and dense reference routes."""

import ast
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybridtn import oracles
from hybridtn.cli import RUN_BYTES_LIMIT
from hybridtn.oracles import (
    OracleLimitError,
    _lanczos_ground,
    apply_hamiltonian,
    dense_family,
    dense_tree_state,
    exact_ground_energy,
    hamiltonian_matrix,
    pauli_term_matrix,
)
from hybridtn.pauli import Hamiltonian, PauliTerm, build_1d_cluster, build_2d_web
from hybridtn.statevector import Circuit
from hybridtn.tensors import MpsTensor, QuantumTensor
from hybridtn.tree import ChildLink, HybridTree, TreeNode
from hybridtn.verify import random_qq_tree

from _support import mps_from_product, pauli_term

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def test_pauli_term_matrix_low_qubit_is_low_bit():
    term = PauliTerm(2.0, ((0, "Z"), (1, "X")))
    want = 2.0 * np.kron(X, Z)  # qubit 0 sits in the low factor
    np.testing.assert_allclose(pauli_term_matrix(term, 2), want, atol=1e-15)
    term_y = PauliTerm(1.0, ((1, "Y"),))
    np.testing.assert_allclose(pauli_term_matrix(term_y, 2), np.kron(Y, I2), atol=1e-15)


def test_hamiltonian_matrix_hermitian_and_consistent():
    h, _ = build_1d_cluster(3, 2, lam=0.8, seed=4)
    mat = hamiltonian_matrix(h)
    np.testing.assert_allclose(mat, mat.conj().T, atol=1e-12)
    rng = np.random.default_rng(0)
    amps = rng.normal(size=2**6) + 1j * rng.normal(size=2**6)
    np.testing.assert_allclose(
        apply_hamiltonian(amps, h), mat @ amps, atol=1e-10
    )


@st.composite
def pauli_hamiltonians(draw, max_qubits=6):
    """Random X/Y/Z words on 1 to max_qubits qubits, with mask partners and I."""
    n = draw(st.integers(1, max_qubits))
    words = draw(
        st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=8)
    )
    # X<->Y and I<->Z keep a word's flip mask, so partners share its group
    swap = str.maketrans("IXYZ", "ZYXI")
    words += [w.translate(swap) for w in words[: draw(st.integers(0, len(words)))]]
    words.append("I" * n)
    coeffs = st.floats(-2.0, 2.0, allow_nan=False)
    terms = tuple(
        pauli_term(draw(coeffs), {q: c for q, c in enumerate(w) if c != "I"})
        for w in words
    )
    return Hamiltonian(n, terms)


@given(pauli_hamiltonians(), st.integers(0, 2**32 - 1))
def test_compiled_operator_matches_kronecker_assembly(h, seed):
    """The matrix-free operator and the dense matrix of the compiled groups."""
    rng = np.random.default_rng(seed)
    dim = 2**h.num_qubits
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    reference = hamiltonian_matrix(h)
    np.testing.assert_allclose(
        apply_hamiltonian(amps, h), reference @ amps, rtol=0, atol=1e-12
    )
    bound = sum(abs(t.coefficient) for t in h.terms)
    odd_y = any(sum(c == "Y" for _, c in t.factors) % 2 for t in h.terms)
    mat = oracles._dense_matrix(h)
    assert mat.dtype == (np.complex128 if odd_y else np.float64)
    np.testing.assert_allclose(mat, reference, rtol=0, atol=1e-14 * bound)


@pytest.mark.parametrize("n", range(1, 9))
def test_zero_hamiltonian_on_the_dense_route(n):
    h = Hamiltonian(n, ())
    mat = oracles._dense_matrix(h)
    assert mat.dtype == np.float64
    np.testing.assert_array_equal(mat, hamiltonian_matrix(h))
    e0, state = exact_ground_energy(h)
    assert e0 == 0.0
    assert state.amps.dtype == np.complex128
    assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-12)


@given(pauli_hamiltonians(max_qubits=8))
def test_dense_route_matches_the_kronecker_ground_energy(h):
    bound = sum(abs(t.coefficient) for t in h.terms)
    want = np.linalg.eigh(hamiltonian_matrix(h))[0][0]
    e0, state = exact_ground_energy(h)
    assert abs(e0 - want) <= 1e-12 * bound
    assert state.amps.dtype == np.complex128
    assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-12)
    residual = apply_hamiltonian(state.amps, h) - e0 * state.amps
    assert np.linalg.norm(residual) <= 1e-10 * bound


def test_dense_reference_reaches_ten_qubits():
    h, _ = build_1d_cluster(5, 2, lam=1.0, seed=6)  # 10 qubits, 16 MiB
    assert 16 * 4**h.num_qubits == oracles.DENSE_MATRIX_BYTES
    rng = np.random.default_rng(3)
    amps = rng.normal(size=2**10) + 1j * rng.normal(size=2**10)
    np.testing.assert_allclose(
        hamiltonian_matrix(h) @ amps, apply_hamiltonian(amps, h), rtol=0, atol=1e-12
    )
    with pytest.raises(OracleLimitError):
        hamiltonian_matrix(Hamiltonian(11, (PauliTerm(1.0, ((10, "Z"),)),)))


def test_operator_is_compiled_once_per_hamiltonian(monkeypatch):
    h, _ = build_2d_web(2, 2, lam=1.0, seed=4)
    amps = np.ones(2**h.num_qubits, dtype=complex)
    first = apply_hamiltonian(amps, h)

    def recompiled(factors):
        raise AssertionError("the Hamiltonian was compiled again")

    monkeypatch.setattr(oracles, "pauli_word_masks", recompiled)
    np.testing.assert_array_equal(apply_hamiltonian(amps, h), first)
    twin = Hamiltonian(h.num_qubits, h.terms)  # equal, but not compiled yet
    with pytest.raises(AssertionError):
        apply_hamiltonian(amps, twin)


def test_known_ground_energies():
    zz = Hamiltonian(2, (PauliTerm(1.0, ((0, "Z"), (1, "Z"))),))
    e0, _ = exact_ground_energy(zz)
    assert e0 == pytest.approx(-1.0, abs=1e-12)

    mixed = Hamiltonian(
        2,
        (
            PauliTerm(1.0, ((0, "Z"), (1, "Z"))),
            PauliTerm(0.5, ((0, "X"),)),
            PauliTerm(0.5, ((1, "X"),)),
        ),
    )
    e0, state = exact_ground_energy(mixed)
    assert e0 == pytest.approx(-math.sqrt(2.0), abs=1e-10)
    residual = apply_hamiltonian(state.amps, mixed) - e0 * state.amps
    assert np.linalg.norm(residual) < 1e-8


def test_dense_and_lanczos_agree():
    """Compiled dense, Lanczos and the Kronecker reference at the boundary."""
    h, _ = build_1d_cluster(4, 2, lam=1.0, seed=6)  # 8 qubits: the dense boundary
    assert h.num_qubits == oracles.DENSE_LIMIT
    e_dense, _ = exact_ground_energy(h)
    e_lanczos, vec = _lanczos_ground(h, seed=7)
    e_kron = np.linalg.eigh(hamiltonian_matrix(h))[0][0]
    assert abs(e_dense - e_kron) < 1e-12
    assert abs(e_dense - e_lanczos) < 1e-8
    residual = apply_hamiltonian(vec, h) - e_lanczos * vec
    assert np.linalg.norm(residual) < 1e-7


def test_lanczos_path_above_dense_limit():
    h, _ = build_1d_cluster(7, 2, lam=1.0, seed=8)  # 14 qubits
    e0, state = exact_ground_energy(h)
    residual = apply_hamiltonian(state.amps, h) - e0 * state.amps
    assert np.linalg.norm(residual) < 1e-7


def _no_dense_matrix(h):
    raise AssertionError(f"dense matrix built for {h.num_qubits} qubits")


def _no_lanczos(h, seed):
    raise AssertionError(f"Lanczos ran for {h.num_qubits} qubits")


def _forbid_dense(monkeypatch):
    """Fail on any dense matrix, compiled or Kronecker-summed."""
    monkeypatch.setattr(oracles, "hamiltonian_matrix", _no_dense_matrix)
    monkeypatch.setattr(oracles, "_dense_matrix", _no_dense_matrix)


@pytest.mark.parametrize("n", range(1, 9))
def test_dense_route_never_calls_the_kronecker_reference(monkeypatch, n):
    h, _ = build_1d_cluster(n, 1, lam=1.0, seed=6)
    want = np.linalg.eigh(hamiltonian_matrix(h))[0][0]
    monkeypatch.setattr(oracles, "hamiltonian_matrix", _no_dense_matrix)
    monkeypatch.setattr(oracles, "_lanczos_ground", _no_lanczos)
    e0, _ = exact_ground_energy(h)
    assert e0 == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize(
    "builder, n, k", [(build_2d_web, 3, 3), (build_1d_cluster, 5, 2)]
)
def test_nine_and_ten_qubits_take_the_lanczos_route(monkeypatch, builder, n, k):
    h, _ = builder(n, k, lam=1.0, seed=6)
    _forbid_dense(monkeypatch)
    e0, state = exact_ground_energy(h)
    residual = apply_hamiltonian(state.amps, h) - e0 * state.amps
    assert np.linalg.norm(residual) < 1e-7


def test_lanczos_stop_rule_scales_with_the_operator(monkeypatch):
    """Scaling H by 1e4 or 1e-4 costs no extra restart cycle."""
    h, _ = build_2d_web(4, 3, lam=1.0, seed=7)
    calls = []

    def counted(amps, ham):
        calls.append(1)
        return apply_hamiltonian(amps, ham)

    monkeypatch.setattr(oracles, "apply_hamiltonian", counted)
    results = {}
    for scale in (1.0, 1e4, 1e-4):
        scaled = Hamiltonian(
            h.num_qubits,
            tuple(PauliTerm(scale * t.coefficient, t.factors) for t in h.terms),
        )
        calls.clear()
        energy, _ = _lanczos_ground(scaled, seed=7)
        results[scale] = (energy, len(calls))
    base_energy, base_calls = results[1.0]
    for scale in (1e4, 1e-4):
        energy, count = results[scale]
        assert count <= base_calls + 10
        assert energy / scale == pytest.approx(base_energy, rel=1e-10)


def test_paired_y_factors_compile_to_real_phases():
    yy = Hamiltonian(2, (PauliTerm(1.0, ((0, "Y"), (1, "Y"))),))
    ((phase, _),) = oracles._compiled(yy)
    assert not np.iscomplexobj(phase)
    amps = np.arange(4.0)
    assert apply_hamiltonian(amps, yy).dtype == np.float64
    assert apply_hamiltonian(amps + 0j, yy).dtype == np.complex128
    want = hamiltonian_matrix(yy) @ amps
    np.testing.assert_allclose(apply_hamiltonian(amps, yy), want, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "extra, real",
    [
        ([], True),
        ([{0: "Y", 4: "Y"}, {2: "Y", 3: "X", 8: "Y"}], True),
        ([{1: "Y", 5: "X"}, {2: "Y", 6: "Y", 7: "Y"}], False),
    ],
    ids=["xz", "paired_y", "odd_y"],
)
def test_real_and_complex_lanczos_routes_match_the_dense_reference(extra, real):
    web, _ = build_2d_web(3, 3, lam=1.0, seed=5)  # 9 qubits: X, Z and ZZ terms
    terms = tuple(pauli_term(0.3, word) for word in extra)
    h = Hamiltonian(web.num_qubits, web.terms + terms)
    want = np.linalg.eigh(hamiltonian_matrix(h))[0][0]
    e0, vec = _lanczos_ground(h, seed=7)
    assert e0 == pytest.approx(want, abs=1e-9)
    assert np.linalg.norm(apply_hamiltonian(vec, h) - e0 * vec) < 1e-8
    assert (np.linalg.norm(np.imag(vec)) == 0) == real  # pins the route


def test_real_lanczos_basis_halves_the_oracle_memory():
    h, _ = build_1d_cluster(7, 2, lam=1.0, seed=8)  # 14 qubits
    complex_basis = 80 * 2**h.num_qubits * 16  # 20 MiB
    tracemalloc.start()
    try:
        _, state = exact_ground_energy(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < complex_basis
    assert state.amps.dtype == np.complex128


def test_lanczos_cycle_does_not_stop_on_a_plateau(monkeypatch):
    """A settled Ritz value alone does not end a cycle; its residual must too.

    On the 16-qubit seed-7 chain the Ritz value stalls near -15.644543 for
    steps 50-60 before it falls to -15.644571.  Ending the cycle there
    restarts from too small a space, and Lanczos never converges.
    """
    h, _ = build_1d_cluster(8, 2, lam=0.0, seed=7)  # 16 qubits, two equal blocks
    block, _ = build_1d_cluster(8, 1, lam=0.0, seed=7)
    block_energy, _ = exact_ground_energy(block)
    e0, _ = exact_ground_energy(h)
    assert e0 == pytest.approx(2 * block_energy, abs=1e-9)

    calls = []

    def counted(amps, ham):
        calls.append(1)
        return apply_hamiltonian(amps, ham)

    monkeypatch.setattr(oracles, "apply_hamiltonian", counted)
    for n, seed, most in ((8, 7, 170), (7, 8, 161)):  # 162 is two full cycles
        chain, _ = build_1d_cluster(n, 2, lam=1.0, seed=seed)
        calls.clear()
        energy, vec = _lanczos_ground(chain, seed=7)
        assert len(calls) <= most
        assert np.linalg.norm(apply_hamiltonian(vec, chain) - energy * vec) < 1e-8


def _with_terms(h: Hamiltonian, words) -> Hamiltonian:
    extra = tuple(pauli_term(0.3, word) for word in words)
    return Hamiltonian(h.num_qubits, h.terms + extra)


def _count_matvecs(monkeypatch) -> list:
    calls = []

    def counted(amps, ham):
        calls.append(1)
        return apply_hamiltonian(amps, ham)

    monkeypatch.setattr(oracles, "apply_hamiltonian", counted)
    return calls


@pytest.mark.parametrize(
    "words, itemsize",
    [((), 8), (({1: "Y", 5: "X"}, {2: "Y", 9: "Y", 12: "Y"}), 16)],
    ids=["real", "odd_y"],
)
def test_oracle_working_set_is_bounded_by_the_thick_restart_basis(words, itemsize):
    h = _with_terms(build_1d_cluster(7, 2, lam=1.0, seed=8)[0], words)  # 14 qubits
    tracemalloc.start()
    try:
        exact_ground_energy(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**h.num_qubits * itemsize  # 6 MiB real, 12 MiB complex


def test_thick_restarts_stay_exact_on_the_complex_route(monkeypatch):
    web, _ = build_2d_web(5, 2, lam=1.0, seed=5)  # 10 qubits
    h = _with_terms(web, [{1: "Y", 5: "X"}, {2: "Y", 6: "Y", 7: "Y"}])
    want = np.linalg.eigh(hamiltonian_matrix(h))[0][0]
    calls = _count_matvecs(monkeypatch)
    e0, vec = _lanczos_ground(h, seed=7)
    assert len(calls) > oracles.LANCZOS_BASIS  # at least one thick restart ran
    assert np.iscomplexobj(vec)
    assert e0 == pytest.approx(want, abs=1e-9)
    assert np.linalg.norm(apply_hamiltonian(vec, h) - e0 * vec) < 1e-8


def test_thick_restart_saves_matvecs_on_the_16_qubit_chain(monkeypatch):
    chain, _ = build_1d_cluster(8, 2, lam=1.0, seed=7)
    calls = _count_matvecs(monkeypatch)
    energy, vec = _lanczos_ground(chain, seed=7)
    assert len(calls) <= 130  # 115 measured; 162 with 80-vector explicit restarts
    assert np.linalg.norm(apply_hamiltonian(vec, chain) - energy * vec) < 1e-8


def test_oracle_basis_fits_the_run_budget():
    """A 20-qubit complex oracle: basis, restart product, w, ground, matvec."""
    vectors = oracles.LANCZOS_BASIS + oracles.LANCZOS_KEPT + 4
    assert vectors * 2**oracles.ITERATIVE_LIMIT * 16 < RUN_BYTES_LIMIT


def test_lanczos_route_reproduces_decoupled_web_blocks(monkeypatch):
    h, _ = build_2d_web(4, 3, lam=0.0, seed=7)  # 12 qubits, three equal rows
    block, _ = build_1d_cluster(4, 1, lam=0.0, seed=7)
    block_energy, _ = exact_ground_energy(block)
    _forbid_dense(monkeypatch)
    e0, state = exact_ground_energy(h)
    assert e0 == pytest.approx(3 * block_energy, abs=1e-9)
    residual = apply_hamiltonian(state.amps, h) - e0 * state.amps
    assert np.linalg.norm(residual) < 1e-8


def test_lanczos_route_identity_hamiltonian(monkeypatch):
    _forbid_dense(monkeypatch)
    h = Hamiltonian(11, (PauliTerm(-0.75, ()),))
    e0, state = exact_ground_energy(h)
    assert e0 == pytest.approx(-0.75, abs=1e-12)
    assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-12)


def test_lanczos_route_zero_hamiltonian(monkeypatch):
    _forbid_dense(monkeypatch)
    e0, state = exact_ground_energy(Hamiltonian(11, ()))
    assert e0 == 0.0
    assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-12)


def test_ground_energy_term_order_invariant():
    h, _ = build_1d_cluster(3, 2, lam=0.9, seed=9)
    shuffled = Hamiltonian(h.num_qubits, h.terms[::-1])
    a, _ = exact_ground_energy(h)
    b, _ = exact_ground_energy(shuffled)
    assert a == b  # canonical assembly makes the dense path bit-identical


def test_oracle_size_limits():
    big = Hamiltonian(21, (PauliTerm(1.0, ((20, "Z"),)),))
    with pytest.raises(OracleLimitError):
        exact_ground_energy(big)


def _python(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout; return its stdout."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=src.parent,
        env={**os.environ, "PYTHONPATH": path},
    )
    return done.stdout


def test_cli_import_and_run_load_no_scipy(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        '{"versions": {"config": 1}, "model": "2d_web", "n": 2, "k": 2,'
        ' "lambda": 1.0, "d_U": 2, "d_V": 2, "seed": 7, "ite": {"reg": 1e-2}}'
    )
    out = _python(
        "import sys\n"
        "import hybridtn.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        f"code = hybridtn.cli.main(['run', '--config', {str(config)!r},"
        f" '--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    lines = out.splitlines()
    assert "rel_error" in out  # the run reached the oracle
    assert (lines[0], lines[-1]) == ("[]", "0 []")


def test_oracle_calls_import_no_module():
    out = _python(
        "import sys\n"
        "from hybridtn.oracles import exact_ground_energy\n"
        "from hybridtn.pauli import build_1d_cluster\n"
        "small, _ = build_1d_cluster(2, 2, lam=1.0, seed=3)\n"
        "large, _ = build_1d_cluster(11, 1, lam=1.0, seed=3)\n"
        "before = set(sys.modules)\n"
        "exact_ground_energy(small)\n"
        "exact_ground_energy(large)\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# dense tree state

def computational_family(n: int, labels) -> QuantumTensor:
    return QuantumTensor.shared(Circuit(n, (), 0), labels, np.zeros(0))


def computational_leaves(*families: QuantumTensor):
    """One leaf per family, on the parent's qubit or site 0, 1, ..."""
    return tuple(ChildLink(s, TreeNode(f)) for s, f in enumerate(families))


def test_dense_tree_state_bell_root():
    # an MPS root with a diagonal bond over two one-qubit basis families
    bell = np.zeros((1, 2, 2))
    bell[0, 0, 0] = bell[0, 1, 1] = 1 / math.sqrt(2)
    root = MpsTensor((bell, np.eye(2).reshape(2, 2, 1)))
    fam = computational_family(1, ("0", "1"))
    psi = dense_tree_state(HybridTree(TreeNode(root, computational_leaves(fam, fam))))
    np.testing.assert_allclose(
        psi, np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-15
    )


def test_dense_tree_state_product_root_selects_members():
    # site 0 -> member 1 of branch 0, site 1 -> member 0 of branch 1
    fam0 = computational_family(1, ("0", "1"))
    fam1 = computational_family(2, ("10", "01"))
    leaves = computational_leaves(fam0, fam1)
    psi = dense_tree_state(HybridTree(TreeNode(mps_from_product("10"), leaves)))
    # branch 0 occupies the low qubit: |1> (x) |10> -> global |101>
    want = np.zeros(8)
    want[0b101] = 1.0
    np.testing.assert_allclose(psi, want, atol=1e-15)


def test_dense_tree_state_normalized_for_qq_trees():
    rng = np.random.default_rng(42)
    for _ in range(5):
        tree = random_qq_tree(rng, 2, 2)
        psi = dense_tree_state(tree)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)


def test_dense_tree_state_size_limit(monkeypatch):
    # a 3-qubit root over three 6-qubit branches: 18 qubits, refused before
    # any family is simulated
    def no_circuit(self):
        raise AssertionError("a family was simulated")

    monkeypatch.setattr(QuantumTensor, "family_states", no_circuit)
    fam = computational_family(6, ("0" * 6, "1" * 6))
    root = TreeNode(computational_family(3, ("000",)), computational_leaves(fam, fam, fam))
    with pytest.raises(OracleLimitError, match="18-qubit"):
        dense_tree_state(HybridTree(root))


def test_dense_tree_state_mps_site_order():
    # a root MPS's site m is its qubit m; a branch MPS's site 0 is its
    # label leg and site m its qubit m - 1
    np.testing.assert_allclose(
        dense_tree_state(HybridTree(TreeNode(mps_from_product("010")))),
        np.eye(8)[0b010],
        atol=1e-15,
    )
    branch = (ChildLink(0, TreeNode(mps_from_product("010"))),)
    for label, want in (("0", np.eye(4)[0b01]), ("1", np.zeros(4))):
        root = TreeNode(computational_family(1, (label,)), branch)
        np.testing.assert_allclose(dense_tree_state(HybridTree(root)), want, atol=1e-15)


def test_oracles_import_only_the_tree_data_classes():
    # the dense references must not reuse the contractions they check
    found: dict = {}
    for node in ast.walk(ast.parse(Path(oracles.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            module = ("hybridtn." if node.level else "") + (node.module or "")
            found.setdefault(module, set()).update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                found.setdefault(alias.name, set()).add("*")
    assert found.get("hybridtn.tree", set()) <= {"HybridTree", "TreeNode", "ChildLink"}
    transfer = {"mps_general_expectation", "mps_open_site_matrix"}
    assert not found.get("hybridtn.tensors", set()) & transfer


def test_dense_family_open_index_rows():
    rng = np.random.default_rng(44)
    from hybridtn.verify import random_quantum_tensor

    q = random_quantum_tensor(rng, 3, 1, open_qubit=1)
    fam = dense_family(q)
    psi = q.joint_state()
    from hybridtn.tensors import project_group

    np.testing.assert_allclose(fam, project_group(psi, (1,), 3), atol=1e-12)
