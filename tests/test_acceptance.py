"""End-to-end acceptance checks, one numbered pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete; several checks diagonalize 12- and 16-qubit registers, so
the whole file takes about 40 s on 2 vCPUs.
"""

import json
from pathlib import Path

import numpy as np
import scipy.linalg

from hybridtn.cli import build_model, build_tree, config_from_dict, main
from hybridtn.ite import (
    IteConfig,
    TreeProblem,
    gradient_c,
    metric_a,
    run_ite_tree,
    solve_subspace,
)
from hybridtn.oracles import dense_contract_pair, exact_ground_energy
from hybridtn.pauli import Hamiltonian, PauliTerm, build_1d_cluster
from hybridtn.statevector import Circuit, GateOp
from hybridtn.tensors import (
    branch_matrix_raw,
    measure_branch_observable,
    realize_case,
)
from hybridtn.tree import EvalCounters, ProductObservable, tree_energy, tree_expectation
from hybridtn.verify import (
    _strategy_instances,
    one_node_tree,
    random_case_instance,
    random_circuit,
    random_qq_tree,
)

from _support import circuit_state


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"acceptance {num}: {detail}"


def experiment_config(model: str, n: int, k: int, lam: float) -> dict:
    return {
        "versions": {"config": 1},
        "model": model,
        "n": n,
        "k": k,
        "lambda": lam,
        "d_U": 8,
        "d_V": 4,
        "seed": 7,
        "ite": {"reg": 1e-2},
    }


def optimize_and_compare(model: str, n: int, k: int, lam: float):
    """Ground-state search vs. independent diagonalization; relative error."""
    config = config_from_dict(experiment_config(model, n, k, lam))
    h, _ = build_model(config, lam)
    result, _ = run_ite_tree(build_tree(config), h, config.ite)
    e0, _ = exact_ground_energy(h)
    return abs(1.0 - result.energy / e0), result, e0


def test_01_seeded_web_ground_state_accuracy():
    rel, result, e0 = optimize_and_compare("2d_web", 4, 3, 1.0)
    report(
        1,
        result.converged and rel <= 5e-3,
        f"2d web n=4 k=3: rel error {rel:.2e} vs exact {e0:.6f} "
        f"(tolerance 5e-3, target 1e-3 {'met' if rel <= 1e-3 else 'missed'})",
    )


def test_02_chain_accuracy_and_size_trend():
    rel_main, result, e0 = optimize_and_compare("1d_cluster", 8, 2, 1.0)
    trend = {
        k: optimize_and_compare("1d_cluster", 4, k, 1.0)[0] for k in (2, 3)
    }
    ok = (
        result.converged
        and rel_main <= 5e-3
        and all(rel <= 5e-3 for rel in trend.values())
    )
    report(
        2,
        ok,
        f"1d chain n=8 k=2: rel error {rel_main:.2e} vs iterative {e0:.6f}; "
        f"n=4 trend k=2 {trend[2]:.2e}, k=3 {trend[3]:.2e} (tolerance 5e-3)",
    )


def test_03_decoupled_blocks_reproduce_additive_energy():
    details = []
    ok = True
    for model, n, k in (("1d_cluster", 4, 2), ("2d_web", 2, 2)):
        config = config_from_dict(experiment_config(model, n, k, 0.0))
        h, _ = build_model(config, 0.0)
        result, _ = run_ite_tree(build_tree(config), h, config.ite)
        block, _ = build_1d_cluster(n, 1, lam=0.0, seed=7)
        block_energy, _ = exact_ground_energy(block)
        reference = k * block_energy
        rel = abs(1.0 - result.energy / reference)
        ok = ok and result.converged and rel <= 1e-3
        details.append(f"{model} n={n} k={k}: rel {rel:.2e}")
    report(3, ok, "; ".join(details) + " vs per-block sums (tolerance 1e-3)")


def test_04_contraction_cases_match_dense_oracle():
    rng = np.random.default_rng(401)
    worst = 0.0
    per_case = 200
    for case in range(1, 6):
        for _ in range(per_case):
            ta, la, tb, lb = random_case_instance(case, rng)
            got = realize_case(case, ta, la, tb, lb)
            want_amps, want_norm = dense_contract_pair(case, ta, la, tb, lb)
            worst = max(worst, float(np.max(np.abs(got.amps - want_amps))))
            if case == 5:
                worst = max(worst, abs(got.squared_norm - want_norm))
    report(
        4,
        worst <= 1e-10,
        f"5 contraction cases x {per_case} instances: max deviation {worst:.2e} "
        "(tolerance 1e-10, includes pair-projection norms)",
    )


def test_05_measurement_strategies_match_direct():
    rng = np.random.default_rng(501)
    worst = 0.0
    for strategy in ("hadamard_test", "superposition_input", "pauli_open_index"):
        for _ in range(50):
            q, term = _strategy_instances(rng, strategy)
            direct = measure_branch_observable(q, term, "direct").entries
            got = measure_branch_observable(q, term, strategy).entries
            worst = max(worst, float(np.max(np.abs(got - direct))))
    worst_recon = 0.0
    for _ in range(50):
        q, term = _strategy_instances(rng, "pauli_open_index")
        recon = branch_matrix_raw(q, term, "pauli_open_index")
        direct = branch_matrix_raw(q, term, "direct")
        worst_recon = max(worst_recon, float(np.max(np.abs(recon - direct))))
    report(
        5,
        worst <= 1e-10 and worst_recon <= 1e-10,
        f"3 strategies x 50 tensors: max deviation {worst:.2e}; "
        f"single-qubit reconstruction {worst_recon:.2e} (tolerance 1e-10)",
    )


def test_06_tree_states_are_normalized():
    rng = np.random.default_rng(601)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(1, 3))
        tree = random_qq_tree(rng, k, n)
        worst = max(
            worst, abs(tree_expectation(tree, ProductObservable.identity(k)) - 1.0)
        )
    report(
        6,
        worst <= 1e-10,
        f"100 random trees: max |<psi|psi> - 1| = {worst:.2e} (tolerance 1e-10)",
    )


def test_07_flow_stencils_match_dense_calculus():
    delta = 1e-3
    worst_a = worst_c = 0.0
    for seed in (701, 702, 703, 704, 705):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        circuit, params = random_circuit(rng, n, 2)
        h = Hamiltonian(
            n,
            (
                PauliTerm(1.0, ((0, "Z"), (1, "Z"))),
                PauliTerm(0.7, ((0, "X"),)),
                PauliTerm(0.4, ((1, "Y"),)),
            ),
        )
        problem = TreeProblem(one_node_tree(circuit), h)
        step = 1e-6
        tangents, grad = [], np.empty(problem.num_params)
        for i in range(problem.num_params):
            up, down = params.copy(), params.copy()
            up[i] += step
            down[i] -= step
            diff = circuit_state(circuit, up) - circuit_state(circuit, down)
            tangents.append(diff / (2 * step))
            grad[i] = (problem.energy(up) - problem.energy(down)) / (2 * step)
        tangents = np.array(tangents)
        gram = (tangents.conj() @ tangents.T).real
        worst_a = max(
            worst_a, float(np.abs(metric_a(problem, params, delta) - gram).max())
        )
        worst_c = max(
            worst_c,
            float(np.abs(2.0 * gradient_c(problem, params, delta) - grad).max()),
        )

    rx = TreeProblem(
        one_node_tree(Circuit(1, (GateOp("RX", (0,), param=0),), 1)),
        Hamiltonian(1, (PauliTerm(1.0, ((0, "Z"),)),)),
    )
    a_err = abs(metric_a(rx, np.array([0.3]), delta)[0, 0] - 0.25)
    c_err = abs(gradient_c(rx, np.array([np.pi / 2]), delta)[0] - (-0.5))
    report(
        7,
        worst_a <= 10 * delta
        and worst_c <= 10 * delta
        and a_err <= 1e-4
        and c_err <= 1e-4,
        f"metric vs tangent overlaps {worst_a:.2e}, doubled gradient vs slope "
        f"{worst_c:.2e} (budget {10 * delta:.0e}); analytic 1/4 and -sin/2 "
        f"within {max(a_err, c_err):.2e} (tolerance 1e-4)",
    )


def test_08_subspace_solver_matches_brute_force():
    rng = np.random.default_rng(801)
    worst = 0.0
    floor_ok = True
    for _ in range(100):
        size = int(rng.integers(2, 9))
        m = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        h_mat = 0.5 * (m + m.conj().T)
        b = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        s_mat = b @ b.conj().T + float(rng.uniform(0.3, 1.0)) * np.eye(size)
        evals, _ = solve_subspace(h_mat, s_mat)
        reference = scipy.linalg.eigh(h_mat, s_mat, eigvals_only=True)
        worst = max(worst, float(np.abs(evals - reference).max()))
        rayleigh = np.diag(h_mat).real / np.diag(s_mat).real
        floor_ok = floor_ok and evals[0] <= rayleigh.min() + 1e-12
    report(
        8,
        worst <= 1e-10 and floor_ok,
        f"100 generalized eigenproblems: max spectrum deviation {worst:.2e} "
        "(tolerance 1e-10); minimum never above any diagonal quotient",
    )


def test_09_evaluation_count_linear_in_branches():
    counts = []
    for k in range(2, 7):
        rng = np.random.default_rng(19)
        tree = random_qq_tree(rng, k, 2, depth_u=1, depth_v=1)
        h, _ = build_1d_cluster(2, k, lam=1.0, seed=3)
        counters = EvalCounters()
        tree_energy(tree, h, counters=counters)
        counts.append(counters.quantum_evals)
    diffs = sorted({b - a for a, b in zip(counts, counts[1:])})
    report(
        9,
        counts == [23, 35, 47, 59, 71] and diffs == [12],
        f"energy-call evaluations for k=2..6: {counts}, first differences {diffs} "
        "(exactly linear)",
    )


def test_10_experiments_are_byte_deterministic(tmp_path):
    config = {
        "versions": {"config": 1},
        "model": "1d_cluster",
        "n": 2,
        "k": 2,
        "lambda": 1.0,
        "d_U": 2,
        "d_V": 2,
        "seed": 7,
        "ite": {"reg": 1e-2},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main(["run", "--config", str(config_path), "--out", str(out_a)])
    code_b = main(["run", "--config", str(config_path), "--out", str(out_b)])
    same = {
        name: (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("result.json", "trajectory.csv")
    }
    report(
        10,
        code_a == 0 and code_b == 0 and all(same.values()),
        "repeated run with identical config and seed: "
        + ", ".join(f"{name} identical={flag}" for name, flag in same.items()),
    )
