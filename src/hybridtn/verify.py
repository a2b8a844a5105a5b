"""Self-contained property checks runnable from the command line.

Each check builds randomized instances, compares the operational code
path against an independent dense route (or an analytic value), and
reports a named pass/fail with a short detail string.  With ``shots > 0``
the measurement-strategy check switches to a statistical mode that
allows five standard errors of slack.

The random-instance builders double as fixtures for the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ite import (
    IteConfig,
    IteState,
    TreeProblem,
    gradient_c,
    ite_step,
    metric_a,
    run_ite,
    solve_subspace,
)
from .oracles import dense_contract_pair, dense_tree_state, hamiltonian_matrix
from .pauli import Hamiltonian, PauliTerm, build_1d_cluster
from .statevector import Circuit, GateOp, build_hardware_efficient_ansatz
from .tensors import (
    ClassicalTensor,
    QuantumTensor,
    branch_matrix_raw,
    measure_branch_observable,
    realize_case,
)
from .tree import (
    EvalCounters,
    HybridTree,
    ProductObservable,
    TreeNode,
    _family,
    build_two_layer_qq,
    tree_energy,
    tree_expectation,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# randomized instance builders (shared with the test suite)

def random_circuit(rng: np.random.Generator, n: int, depth: int) -> tuple[Circuit, np.ndarray]:
    """Random mix of rotations and entanglers with every slot used once."""
    ops = []
    slot = 0
    for _ in range(depth):
        for q in range(n):
            kind = rng.choice(["RX", "RY", "RZ", "H"])
            if kind == "H":
                ops.append(GateOp("H", (q,)))
            else:
                ops.append(GateOp(str(kind), (q,), param=slot))
                slot += 1
        if n >= 2:
            a = int(rng.integers(0, n - 1))
            if rng.random() < 0.5:
                ops.append(GateOp("CNOT", (a, a + 1)))
            else:
                ops.append(GateOp("RZZ", (a, a + 1), param=slot))
                slot += 1
    circuit = Circuit(n, tuple(ops), slot)
    params = rng.uniform(-np.pi, np.pi, size=slot)
    return circuit, params


def random_quantum_tensor(
    rng: np.random.Generator,
    n: int,
    labels: int,
    mode: str = "shared",
    groups=None,
    open_qubit=None,
) -> QuantumTensor:
    if mode == "distinct":
        circuits, params = [], []
        for _ in range(labels):
            c, p = random_circuit(rng, n, 2)
            circuits.append(c)
            params.append(p)
        return QuantumTensor.distinct(
            circuits, params, quantum_groups=groups or ()
        )
    circuit, params = random_circuit(rng, n, 2)
    if open_qubit is not None:
        return QuantumTensor.with_open_index(
            circuit, params, open_qubit, quantum_groups=groups or ()
        )
    bit_pool = rng.permutation(2**n)[:labels]
    bits = tuple(format(int(b), f"0{n}b") for b in bit_pool)
    return QuantumTensor.shared(circuit, bits, params, quantum_groups=groups or ())


def random_classical_matrix(
    rng: np.random.Generator, rows: int, cols: int, labels=("i", "m")
) -> ClassicalTensor:
    entries = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    return ClassicalTensor(entries, labels)


def random_case_instance(case: int, rng: np.random.Generator):
    """(ta, label_a, tb, label_b) for one randomized contraction edge."""
    if case == 1:
        labels = int(rng.integers(2, 4))
        ta = random_quantum_tensor(rng, int(rng.integers(2, 4)), labels)
        tb = random_classical_matrix(rng, labels, int(rng.integers(1, 4)))
        return ta, "i", tb, "i"
    if case == 2:
        n = int(rng.integers(2, 4))
        g = int(rng.integers(1, n + 1))
        group = tuple(int(q) for q in rng.permutation(n)[:g])
        ta = random_quantum_tensor(rng, n, int(rng.integers(1, 3)), groups=(group,))
        tb = random_classical_matrix(rng, 2**g, int(rng.integers(1, 4)))
        return ta, "q0", tb, "i"
    if case == 3:
        labels = int(rng.integers(2, 4))
        ta = random_quantum_tensor(rng, int(rng.integers(2, 4)), labels)
        tb = random_quantum_tensor(rng, int(rng.integers(1, 4)), labels, mode="distinct")
        return ta, "i", tb, "i"
    if case == 4:
        n = int(rng.integers(2, 4))
        g = int(rng.integers(1, 3))
        group = tuple(int(q) for q in rng.permutation(n)[:g])
        ta = random_quantum_tensor(rng, n, int(rng.integers(1, 3)), groups=(group,))
        tb = random_quantum_tensor(rng, int(rng.integers(g, 4)), 2**g)
        return ta, "q0", tb, "i"
    if case == 5:
        g = int(rng.integers(1, 3))
        na = int(rng.integers(g, g + 2))
        nb = int(rng.integers(g, g + 2))
        group_a = tuple(int(q) for q in rng.permutation(na)[:g])
        group_b = tuple(int(q) for q in rng.permutation(nb)[:g])
        ta = random_quantum_tensor(rng, na, 1, groups=(group_a,))
        tb = random_quantum_tensor(rng, nb, 1, groups=(group_b,))
        return ta, "q0", tb, "q0"
    raise ValueError(case)


def random_local_term(rng: np.random.Generator, n: int, avoid=None) -> PauliTerm:
    count = int(rng.integers(1, min(n, 2) + 1))
    qubits = [int(q) for q in rng.permutation(n)[:count] if q != avoid]
    if not qubits:
        qubits = [next(q for q in range(n) if q != avoid)]
    factors = tuple(
        sorted((q, str(rng.choice(["X", "Y", "Z"]))) for q in qubits)
    )
    return PauliTerm(float(rng.uniform(-2, 2)), factors)


def random_qq_tree(
    rng: np.random.Generator, k: int, n: int, depth_u: int = 2, depth_v: int = 2
) -> HybridTree:
    root = build_hardware_efficient_ansatz(k, depth_v)
    branches = [build_hardware_efficient_ansatz(n, depth_u) for _ in range(k)]
    total = root.num_params + sum(b.num_params for b in branches)
    params = rng.uniform(-np.pi, np.pi, size=total)
    return build_two_layer_qq(root, branches, params)


def one_node_tree(circuit: Circuit) -> HybridTree:
    """The circuit on |0..0> as a tree of one quantum node."""
    return HybridTree(TreeNode(_family(circuit, 1)))


# ---------------------------------------------------------------------------
# individual checks

def check_contraction_cases(seed: int = 11) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for case in range(1, 6):
        for _ in range(20):
            ta, la, tb, lb = random_case_instance(case, rng)
            got = realize_case(case, ta, la, tb, lb)
            want_amps, want_norm = dense_contract_pair(case, ta, la, tb, lb)
            worst = max(worst, float(np.max(np.abs(got.amps - want_amps))))
            if case == 5:
                worst = max(worst, abs(got.squared_norm - want_norm))
    return CheckResult(
        "contraction_cases_match_dense",
        worst <= 1e-10,
        f"max deviation {worst:.2e} over 100 instances",
    )


def _strategy_instances(rng: np.random.Generator, strategy: str):
    if strategy == "pauli_open_index":
        n = int(rng.integers(2, 4))
        open_qubit = int(rng.integers(0, n))
        q = random_quantum_tensor(rng, n, 1, open_qubit=open_qubit)
        term = random_local_term(rng, n, avoid=open_qubit)
        return q, term
    n = int(rng.integers(2, 4))
    labels = int(rng.integers(2, 4))
    q = random_quantum_tensor(rng, n, labels)
    return q, random_local_term(rng, n)


def _entry_sigma(strategy: str, q, term, shots: int) -> float:
    """Conservative per-entry standard error for a sampled branch matrix."""
    if strategy == "superposition_input":
        count = len(q.initial_bits)
        components = count * count  # diagonals plus two runs per pair
        variance_factor = 3.0  # off-diagonals mix three estimates
    else:
        components = 4
        variance_factor = 2.0
    shots_each = max(1, shots // components)
    return abs(term.coefficient) * math.sqrt(variance_factor / shots_each)


def check_measurement_strategies(seed: int = 12, shots: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for strategy in ("hadamard_test", "superposition_input", "pauli_open_index"):
        for trial in range(15):
            q, term = _strategy_instances(rng, strategy)
            direct = measure_branch_observable(q, term, "direct").entries
            got = measure_branch_observable(
                q, term, strategy, shots=shots, seed=seed * 1000 + trial
            ).entries
            dev = float(np.max(np.abs(got - direct)))
            if shots:
                worst = max(worst, dev - 5.0 * _entry_sigma(strategy, q, term, shots))
            else:
                worst = max(worst, dev)
    if shots:
        passed = worst <= 0.0
        detail = f"worst exceedance over 5-sigma budget {worst:+.2e}"
    else:
        passed = worst <= 1e-10
        detail = f"max deviation from direct {worst:.2e}"
    return CheckResult("measurement_strategies_match_direct", passed, detail)


def check_open_index_reconstruction(seed: int = 13) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        q, term = _strategy_instances(rng, "pauli_open_index")
        recon = branch_matrix_raw(q, term, "pauli_open_index")
        direct = branch_matrix_raw(q, term, "direct")
        worst = max(worst, float(np.max(np.abs(recon - direct))))
    return CheckResult(
        "open_index_reconstruction",
        worst <= 1e-10,
        f"max deviation {worst:.2e}",
    )


def check_tree_normalization(seed: int = 14) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(1, 3))
        tree = random_qq_tree(rng, k, n)
        val = tree_expectation(tree, ProductObservable.identity(k))
        worst = max(worst, abs(val - 1.0))
    return CheckResult(
        "qq_tree_normalization",
        worst <= 1e-10,
        f"max |<psi|psi> - 1| = {worst:.2e}",
    )


def check_tree_against_dense(seed: int = 15) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        k, n = 2, 2
        tree = random_qq_tree(rng, k, n)
        h, layout = build_1d_cluster(n, k, lam=float(rng.uniform(0, 1)), seed=int(rng.integers(1 << 30)))
        energy = tree_energy(tree, h)
        psi = dense_tree_state(tree)
        dense = float(np.real(psi.conj() @ hamiltonian_matrix(h) @ psi))
        worst = max(worst, abs(energy - dense))
    return CheckResult(
        "tree_energy_matches_dense_sum",
        worst <= 1e-10,
        f"max |tree - dense| = {worst:.2e}",
    )


def check_metric_gradient_analytic() -> CheckResult:
    circuit = Circuit(1, (GateOp("RX", (0,), param=0),), 1)
    h = Hamiltonian(1, (PauliTerm(1.0, ((0, "Z"),)),))
    problem = TreeProblem(one_node_tree(circuit), h)
    delta = 1e-3
    errs = []
    a = metric_a(problem, np.array([0.3]), delta)
    errs.append(abs(a[0, 0] - 0.25))
    theta = np.pi / 2
    c = gradient_c(problem, np.array([theta]), delta)
    errs.append(abs(c[0] + 0.5 * math.sin(theta)))
    config = IteConfig(dtau0=0.1, reg=0.0)
    state = IteState(
        params=np.array([theta]),
        tau=0.0,
        energy=problem.energy(np.array([theta])),
        dtau=0.1,
    )
    stepped = ite_step(problem, state, config)
    errs.append(abs(stepped.params[0] - (theta + 0.2)))
    worst = max(errs)
    return CheckResult(
        "metric_gradient_analytic",
        worst <= 1e-4 and bool(stepped.accepted),
        f"max analytic deviation {worst:.2e}",
    )


def check_metric_psd(seed: int = 17) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        circuit, params = random_circuit(rng, 2, 2)
        h = Hamiltonian(2, (PauliTerm(1.0, ((0, "Z"), (1, "Z"))),))
        problem = TreeProblem(one_node_tree(circuit), h)
        a = metric_a(problem, params, 1e-3)
        sym = float(np.max(np.abs(a - a.T)))
        min_eig = float(np.linalg.eigvalsh(a).min())
        worst = max(worst, sym, -min_eig - 1e-6)
    return CheckResult(
        "metric_symmetric_psd",
        worst <= 1e-6,
        f"worst asymmetry / eigenvalue deficit {worst:.2e}",
    )


def check_subspace(seed: int = 18) -> CheckResult:
    import scipy.linalg  # the independent reference; only this check needs scipy

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(25):
        dim = int(rng.integers(2, 5))
        basis = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        s = basis.conj().T @ basis + 1e-3 * np.eye(dim)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = 0.5 * (m + m.conj().T)
        evals, vecs = solve_subspace(h, s)
        ref = scipy.linalg.eigh(h, s, eigvals_only=True)
        worst = max(worst, float(abs(evals[0] - ref[0])))
        norm = vecs[:, 0].conj() @ s @ vecs[:, 0]
        worst = max(worst, float(abs(norm - 1.0)))
        diag_best = min(
            (h[i, i] / s[i, i]).real for i in range(dim)
        )
        if evals[0] > diag_best + 1e-10:
            worst = max(worst, float(evals[0] - diag_best))
    return CheckResult(
        "subspace_expansion",
        worst <= 1e-10,
        f"max deviation {worst:.2e}",
    )


def check_cost_linearity(seed: int = 19) -> CheckResult:
    counts = []
    for k in range(2, 5):
        rng = np.random.default_rng(seed)
        tree = random_qq_tree(rng, k, 2, depth_u=1, depth_v=1)
        h, _ = build_1d_cluster(2, k, lam=1.0, seed=3)
        counters = EvalCounters()
        tree_energy(tree, h, counters=counters)
        counts.append(counters.quantum_evals)
    diffs = {counts[i + 1] - counts[i] for i in range(len(counts) - 1)}
    passed = len(diffs) == 1
    return CheckResult(
        "cost_linear_in_branches",
        passed,
        f"evaluation counts {counts} (first differences {sorted(diffs)})",
    )


def check_descent(seed: int = 21) -> CheckResult:
    rng = np.random.default_rng(seed)
    tree = random_qq_tree(rng, 2, 2, depth_u=2, depth_v=1)
    h, _ = build_1d_cluster(2, 2, lam=1.0, seed=5)
    problem = TreeProblem(tree, h)
    # reg 1e-2 as in the acceptance configs: at 1e-6 any rounding moves the path
    config = IteConfig(max_iters=15, reg=1e-2, seed=seed)
    result = run_ite(problem, config)
    energies = [r.energy for r in result.trajectory if r.accepted]
    drops = [b - a for a, b in zip(energies, energies[1:])]
    worst = max(drops) if drops else 0.0
    return CheckResult(
        "ite_monotonic_descent",
        worst <= 1e-9 and all(np.isfinite(energies)),
        f"max accepted-step energy increase {worst:.2e} over {len(energies)} steps",
    )


# ---------------------------------------------------------------------------
# suite

def run_checks(shots: int = 0, seed: int = 0) -> list[CheckResult]:
    """The full named suite; seed shifts each random check's instance stream."""
    return [
        check_contraction_cases(seed=11 + seed),
        check_measurement_strategies(seed=12 + seed, shots=shots),
        check_open_index_reconstruction(seed=13 + seed),
        check_tree_normalization(seed=14 + seed),
        check_tree_against_dense(seed=15 + seed),
        check_metric_gradient_analytic(),
        check_metric_psd(seed=17 + seed),
        check_subspace(seed=18 + seed),
        check_cost_linearity(seed=19 + seed),
        check_descent(seed=21 + seed),
    ]


def format_report(results) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {mark}  {r.detail}")
    total = sum(r.passed for r in results)
    lines.append(f"{total}/{len(results)} checks passed")
    return "\n".join(lines)
