"""Imaginary-time flow: difference stencils, step control, and subspace mixing."""

import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from hybridtn import ite
from hybridtn.ite import (
    IteConfig,
    IteState,
    TreeProblem,
    _perturbed_stack,
    expand_in_subspace,
    flow_direction,
    gradient_c,
    initial_parameters,
    ite_step,
    metric_a,
    run_ite,
    run_ite_tree,
    solve_subspace,
    subspace_matrices,
)
from hybridtn.oracles import dense_tree_state, exact_ground_energy, hamiltonian_matrix
from hybridtn.pauli import (
    Hamiltonian,
    PauliTerm,
    SubsystemLayout,
    build_1d_cluster,
    build_2d_web,
)
from hybridtn.statevector import (
    GATE_KINDS,
    Circuit,
    DiagonalRun,
    GateOp,
    LocalLayer,
    apply_circuit_array,
    apply_pauli_array,
    build_hardware_efficient_ansatz,
)
from hybridtn.tensors import QuantumTensor
from hybridtn.tree import (
    ChildLink,
    HybridTree,
    TreeNode,
    _preorder,
    _compile_words,
    _obs_blocks,
    build_two_layer_cq,
    build_two_layer_qc,
    build_two_layer_qq,
    tree_energy,
    tree_overlap,
    tree_transition_energy,
)
from hybridtn.verify import one_node_tree, random_circuit, random_qq_tree

from _support import (
    PointwiseStencil,
    circuit_from_json,
    circuit_state,
    flat_params,
    random_mps,
)
from test_statevector import dense_circuit


def trivial_hamiltonian(n: int) -> Hamiltonian:
    return Hamiltonian(n, (PauliTerm(1.0, ((0, "Z"),)),))


def rich_hamiltonian() -> Hamiltonian:
    return Hamiltonian(
        2,
        (
            PauliTerm(1.0, ((0, "Z"), (1, "Z"))),
            PauliTerm(0.7, ((0, "X"),)),
            PauliTerm(0.4, ((1, "Y"),)),
            PauliTerm(0.3, ((0, "Z"),)),
        ),
    )


def crossing_hamiltonian() -> Hamiltonian:
    """Four-qubit sum with single-site, intra-pair, and pair-crossing terms."""
    terms = [PauliTerm(0.5, ((q, "X"),)) for q in range(4)]
    terms += [
        PauliTerm(1.0, ((0, "Z"), (1, "Z"))),
        PauliTerm(1.0, ((2, "Z"), (3, "Z"))),
        PauliTerm(0.8, ((1, "Z"), (2, "Z"))),
        PauliTerm(0.3, ((0, "Y"), (2, "Z"))),
    ]
    return Hamiltonian(4, tuple(terms))


def tangent_gram(circuit, params, step=1e-6) -> np.ndarray:
    """Re <d_i psi|d_j psi> from centered differences of the full state."""
    rows = []
    for i in range(circuit.num_params):
        up = params.copy()
        up[i] += step
        down = params.copy()
        down[i] -= step
        diff = circuit_state(circuit, up) - circuit_state(circuit, down)
        rows.append(diff / (2 * step))
    tangents = np.array(rows)
    return (tangents.conj() @ tangents.T).real


def centered_half_gradient(problem, params, step=1e-6) -> np.ndarray:
    out = np.empty(problem.num_params)
    for i in range(problem.num_params):
        up = params.copy()
        up[i] += step
        down = params.copy()
        down[i] -= step
        out[i] = 0.5 * (problem.energy(up) - problem.energy(down)) / (2 * step)
    return out


def expected_metric_diagonal(circuit: Circuit, delta: float) -> np.ndarray:
    """Closed-form diagonal of the difference Gram.

    Shifting one slot by delta multiplies the state by a rotation whose
    squared generator is the identity, so every diagonal entry is
    2 (1 - cos(angle)) / delta^2 with angle = delta/2 for single-qubit
    rotations and delta for the two-qubit coupler.
    """
    diag = np.empty(circuit.num_params)
    for op in circuit.ops:
        if op.param is None:
            continue
        angle = delta if op.kind == "RZZ" else 0.5 * delta
        diag[op.param] = 2.0 * (1.0 - np.cos(angle)) / delta**2
    return diag


# ---------------------------------------------------------------------------
# finite-difference metric and gradient

def test_metric_matches_tangent_overlaps():
    for seed, n in ((14, 2), (15, 2), (16, 3)):
        rng = np.random.default_rng(seed)
        circuit, params = random_circuit(rng, n, 2)
        problem = TreeProblem(one_node_tree(circuit), trivial_hamiltonian(n))
        a = metric_a(problem, params, 1e-3)
        assert np.allclose(a, tangent_gram(circuit, params), atol=1e-5)
        assert np.allclose(a, a.T)


def test_metric_diagonal_closed_form():
    rng = np.random.default_rng(14)
    circuit, params = random_circuit(rng, 2, 2)
    problem = TreeProblem(one_node_tree(circuit), trivial_hamiltonian(2))
    for delta in (0.05, 1e-3):
        a = metric_a(problem, params, delta)
        assert np.allclose(
            np.diag(a), expected_metric_diagonal(circuit, delta), atol=1e-8
        )


def test_metric_error_quarters_when_delta_halves():
    rng = np.random.default_rng(14)
    circuit, params = random_circuit(rng, 2, 2)
    problem = TreeProblem(one_node_tree(circuit), trivial_hamiltonian(2))
    reference = tangent_gram(circuit, params)
    err_coarse = np.linalg.norm(metric_a(problem, params, 1e-3) - reference)
    err_fine = np.linalg.norm(metric_a(problem, params, 5e-4) - reference)
    assert err_coarse > 1e-8  # the stencil bias must be resolvable at all
    assert 3.5 <= err_coarse / err_fine <= 4.5


@given(st.integers(0, 10_000))
def test_metric_positive_semidefinite(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    circuit, params = random_circuit(rng, n, int(rng.integers(1, 3)))
    if circuit.num_params == 0:
        return
    problem = TreeProblem(one_node_tree(circuit), trivial_hamiltonian(n))
    a = metric_a(problem, params, 1e-3)
    assert np.linalg.eigvalsh(a).min() >= -1e-8


def test_gradient_matches_energy_derivative():
    for seed in (14, 15, 16):
        rng = np.random.default_rng(seed)
        circuit, params = random_circuit(rng, 2, 2)
        problem = TreeProblem(one_node_tree(circuit), rich_hamiltonian())
        got = gradient_c(problem, params, 1e-5)
        assert np.allclose(got, centered_half_gradient(problem, params), atol=1e-4)


def test_gradient_error_halves_when_delta_halves():
    rng = np.random.default_rng(14)
    circuit, params = random_circuit(rng, 2, 2)
    problem = TreeProblem(one_node_tree(circuit), rich_hamiltonian())
    reference = centered_half_gradient(problem, params)
    err_coarse = np.abs(gradient_c(problem, params, 1e-3) - reference).max()
    err_fine = np.abs(gradient_c(problem, params, 5e-4) - reference).max()
    assert err_coarse > 1e-6
    assert 1.8 <= err_coarse / err_fine <= 2.2


def test_single_rotation_analytics():
    # RX(theta)|0> under H = Z: energy cos(theta), metric 1/4, half-gradient
    # -sin(theta)/2, so the flow direction at theta = pi/2 is exactly 2.
    circuit = Circuit(1, (GateOp("RX", (0,), param=0),), 1)
    problem = TreeProblem(one_node_tree(circuit), trivial_hamiltonian(1))
    theta = np.array([0.3])
    assert problem.energy(theta) == pytest.approx(np.cos(0.3), abs=1e-12)
    assert metric_a(problem, theta, 1e-3)[0, 0] == pytest.approx(0.25, abs=1e-6)

    at_slope = np.array([np.pi / 2])
    c = gradient_c(problem, at_slope, 1e-3)
    assert c[0] == pytest.approx(-0.5, abs=1e-6)
    a = metric_a(problem, at_slope, 1e-3)
    assert flow_direction(a, c, 0.0)[0] == pytest.approx(2.0, abs=1e-5)

    config = IteConfig(dtau0=0.1, reg=0.0)
    state = IteState(
        params=at_slope, tau=0.0, energy=problem.energy(at_slope), dtau=0.1
    )
    stepped = ite_step(problem, state, config)
    assert stepped.accepted
    assert stepped.params[0] == pytest.approx(np.pi / 2 + 0.2, abs=1e-5)
    assert stepped.energy == pytest.approx(np.cos(np.pi / 2 + 0.2), abs=1e-5)
    assert stepped.tau == pytest.approx(0.1)
    assert stepped.last_dtau == pytest.approx(0.1)
    assert stepped.dtau == pytest.approx(0.12)


def test_gradient_vanishes_at_energy_minimum():
    circuit = Circuit(1, (GateOp("RX", (0,), param=0),), 1)
    problem = TreeProblem(one_node_tree(circuit), trivial_hamiltonian(1))
    c = gradient_c(problem, np.array([np.pi]), 1e-3)
    assert abs(c[0]) <= 1e-3


def test_disjoint_rotations_give_diagonal_metric():
    # Independent RX rotations on separate qubits keep <X> = 0, which kills
    # every cross entry of the plain difference Gram.
    circuit = Circuit(
        2, (GateOp("RX", (0,), param=0), GateOp("RX", (1,), param=1)), 2
    )
    problem = TreeProblem(one_node_tree(circuit), trivial_hamiltonian(2))
    a = metric_a(problem, np.array([0.7, -1.1]), 1e-4)
    assert a[0, 0] == pytest.approx(0.25, abs=1e-6)
    assert a[1, 1] == pytest.approx(0.25, abs=1e-6)
    assert abs(a[0, 1]) <= 1e-6
    assert abs(a[1, 0]) <= 1e-6


# ---------------------------------------------------------------------------
# step control and the flow driver

class _KinkProblem(PointwiseStencil):
    """One parameter, energy |theta|: no downhill move exists from zero."""

    num_params = 1

    def energy(self, params):
        return float(abs(params[0]))

    def overlap(self, pa, pb):
        return complex(np.cos(pa[0] - pb[0]))


def test_step_rejects_when_no_move_lowers_energy():
    problem = _KinkProblem()
    config = IteConfig()
    state = IteState(params=np.array([0.0]), tau=0.0, energy=0.0, dtau=0.05)
    stepped = ite_step(problem, state, config)
    assert not stepped.accepted
    assert stepped.params[0] == 0.0
    assert stepped.energy == 0.0
    assert stepped.tau == 0.0
    # every retry halves the step: MAX_RETRIES + 1 attempts leave 0.05 / 2**9
    assert stepped.dtau == pytest.approx(0.05 * 0.5**9, rel=1e-12)
    assert stepped.c_vector[0] == pytest.approx(0.5, abs=1e-12)
    assert metric_a(problem, state.params, ite.DELTA)[0, 0] == pytest.approx(1.0, abs=1e-6)


def test_run_stays_pinned_at_kink():
    # acceptance tolerates sub-slack sideways moves, so the driver settles
    # onto the plateau and declares the flat window converged instead of
    # looping; the energy can never climb more than slack per iteration
    result = run_ite(_KinkProblem(), IteConfig(), init_params=[0.0])
    assert result.converged
    assert result.iterations <= 50
    assert 0.0 <= result.energy <= result.iterations * 1e-9
    assert abs(result.params[0]) <= 1e-7
    accepted = [r.energy for r in result.trajectory if r.accepted]
    assert all(b <= a + 1e-9 for a, b in zip(accepted, accepted[1:]))


class _NanOverlapProblem(PointwiseStencil):
    """Finite energies, but every overlap is NaN: the metric turns NaN."""

    num_params = 2

    def energy(self, params):
        return float(np.sum(np.square(params)))

    def overlap(self, pa, pb):
        return complex(np.nan)


class _NanCandidateProblem(PointwiseStencil):
    """A unit metric and a finite stencil, but NaN at every candidate step."""

    num_params = 2

    def __init__(self):
        self.energy_calls = 0

    def energy(self, params):
        self.energy_calls += 1
        return 1.0 if self.energy_calls == 1 else float("nan")

    def overlap(self, pa, pb):
        return complex(1.0 + np.dot(pa, pb))

    def _energies_fd(self, params, delta):
        return 1.0, np.full(self.num_params, 1.0 + delta)


@pytest.mark.parametrize(
    "problem, reason",
    [
        (_NanOverlapProblem(), "non-finite metric or gradient"),
        (_NanCandidateProblem(), "non-finite energy at a candidate step"),
    ],
)
def test_run_stops_on_non_finite_flow(problem, reason):
    start = np.array([0.1, -0.2])
    result = run_ite(problem, IteConfig(max_iters=50), init_params=start)
    assert result.stop_reason == reason
    assert not result.converged
    assert result.iterations == 0 and len(result.trajectory) == 1
    assert np.array_equal(result.params, start)
    assert np.isfinite(result.energy)


class _SpikeProblem(_KinkProblem):
    """One parameter, energy 0 at theta = 0 and 1 elsewhere: every move
    off zero raises the energy by far more than the slack."""

    def energy(self, params):
        return 0.0 if params[0] == 0.0 else 1.0


def test_run_reports_why_it_stopped():
    assert run_ite(_KinkProblem(), IteConfig(), init_params=[0.0]).stop_reason == "converged"
    capped = run_ite(_KinkProblem(), IteConfig(max_iters=2), init_params=[0.5])
    assert capped.stop_reason == "max_iters" and capped.iterations == 2
    # each rejected step shrinks dtau by 0.5**9 from 0.05, which falls
    # below DTAU_MIN = 1e-12 on the fourth step
    stalled = run_ite(_SpikeProblem(), IteConfig(), init_params=[0.0])
    assert stalled.stop_reason == "stalled" and stalled.iterations == 4
    assert not any(r.accepted for r in stalled.trajectory[1:])
    assert stalled.params[0] == 0.0 and stalled.energy == 0.0
    assert stalled.trajectory[-1].dtau < ite.DTAU_MIN <= stalled.trajectory[-2].dtau


def test_run_reaches_known_two_qubit_ground_energy():
    h = Hamiltonian(
        2,
        (
            PauliTerm(1.0, ((0, "Z"), (1, "Z"))),
            PauliTerm(0.5, ((0, "X"),)),
            PauliTerm(0.5, ((1, "X"),)),
        ),
    )
    problem = TreeProblem(one_node_tree(build_hardware_efficient_ansatz(2, 2)), h)
    result = run_ite(problem, IteConfig(reg=1e-2, seed=3, max_iters=500))
    assert result.converged
    assert result.energy == pytest.approx(-np.sqrt(2.0), abs=1e-5)


def test_tree_flow_reaches_product_ground_state():
    rng = np.random.default_rng(60)
    tree = random_qq_tree(rng, 2, 2)
    h = Hamiltonian(4, tuple(PauliTerm(1.0, ((q, "Z"),)) for q in range(4)))
    result, tuned = run_ite_tree(tree, h, IteConfig(reg=1e-2, seed=0, max_iters=400))
    assert result.converged
    assert result.energy == pytest.approx(-4.0, abs=1e-4)
    assert np.array_equal(flat_params(tuned), result.params)

    psi = dense_tree_state(tuned)
    dense_energy = np.real(psi.conj() @ hamiltonian_matrix(h) @ psi)
    assert result.energy == pytest.approx(float(dense_energy), abs=1e-9)

    records = result.trajectory
    assert records[0].iteration == 0 and records[0].tau == 0.0
    assert result.iterations == len(records) - 1
    accepted_energies = [r.energy for r in records if r.accepted]
    assert all(b <= a + 1e-9 for a, b in zip(accepted_energies, accepted_energies[1:]))
    taus = [r.tau for r in records if r.accepted]
    assert all(b >= a for a, b in zip(taus, taus[1:]))


def test_run_is_deterministic_for_equal_inputs():
    rng = np.random.default_rng(61)
    tree = random_qq_tree(rng, 2, 2, 1, 1)
    h = crossing_hamiltonian()
    config = IteConfig(reg=1e-2, seed=4, max_iters=12)
    first = run_ite(TreeProblem(tree, h), config)
    second = run_ite(TreeProblem(tree, h), config)
    assert np.array_equal(first.params, second.params)
    assert first.trajectory == second.trajectory
    assert first.energy == second.energy


def test_run_rejects_wrong_initial_vector_length():
    problem = TreeProblem(
        one_node_tree(build_hardware_efficient_ansatz(2, 1)), trivial_hamiltonian(2)
    )
    with pytest.raises(ValueError, match="length mismatch"):
        run_ite(problem, IteConfig(max_iters=1), init_params=np.zeros(3))


def test_run_rejects_non_finite_initial_parameters():
    problem = TreeProblem(
        one_node_tree(build_hardware_efficient_ansatz(2, 1)), trivial_hamiltonian(2)
    )
    start = np.full(problem.num_params, 0.1)
    start[1] = np.inf
    with pytest.raises(ValueError, match="non-finite initial parameters"):
        run_ite(problem, IteConfig(max_iters=1), init_params=start)


def test_overflowing_gradient_norm_finishes_the_step_without_a_warning():
    # every gradient entry is finite, but its squared norm overflows
    circuit = Circuit(1, (GateOp("RX", (0,), param=0), GateOp("RY", (0,), param=1)), 2)
    h = Hamiltonian(1, (PauliTerm(1e307, ((0, "Z"),)),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_ite(TreeProblem(one_node_tree(circuit), h), IteConfig(max_iters=1))
    assert result.iterations == 1 and result.stop_reason == "max_iters"
    assert result.trajectory[1].grad_norm == np.inf


def test_tree_problem_rejects_register_mismatch():
    tree = one_node_tree(build_hardware_efficient_ansatz(2, 1))
    with pytest.raises(ValueError, match="does not match"):
        TreeProblem(tree, trivial_hamiltonian(3))


def test_config_rejects_bad_values_and_keeps_defaults():
    nan = float("nan")
    for bad in (
        dict(dtau0=-0.1),
        dict(dtau0=0.0),
        dict(dtau0=nan),
        dict(reg=-1e-9),
        dict(reg=nan),
        dict(conv_tol=0.0),
    ):
        with pytest.raises(ValueError):
            IteConfig(**bad)
    config = IteConfig()
    assert config.dtau0 == 0.05
    assert config.reg == 1e-6
    assert config.conv_tol == 1e-8
    assert config.max_iters == 2000
    assert config.seed == 0
    assert not hasattr(config, "shots")
    assert (ite.DELTA, ite.DTAU_MIN, ite.DTAU_SHRINK) == (1e-3, 1e-12, 0.5)
    assert (ite.DTAU_GROW, ite.DTAU_CAP, ite.MAX_RETRIES) == (1.2, 0.5, 8)
    assert (ite.CONV_WINDOW, ite.INIT_SCALE) == (10, 0.1)
    # the bounds the step controls need: the metric divides by DELTA**2, a
    # zero cap or a shrinking growth would flatten the energy into false
    # convergence, and the initial interval is finite
    assert 0.0 < ite.DELTA * ite.DELTA < np.inf
    assert ite.DTAU_CAP > 0 and ite.DTAU_GROW >= 1
    assert np.isfinite(2.0 * ite.INIT_SCALE)


def test_flow_direction_solves_the_regularized_system():
    rng = np.random.default_rng(30)
    for _ in range(10):
        m = rng.normal(size=(6, 6))
        a = m @ m.T + 0.1 * np.eye(6)
        c = rng.normal(size=6)
        x = flow_direction(a, c, 1e-3)
        assert np.linalg.norm((a + 1e-3 * np.eye(6)) @ x + c) <= 1e-8
    # singular matrix without regularization: minimum-norm least squares
    a = np.diag([1.0, 0.0])
    x = flow_direction(a, np.array([1.0, 2.0]), 0.0)
    assert np.allclose(x, [-1.0, 0.0], atol=1e-10)


def _count_calls(monkeypatch, name: str) -> list:
    """Record every call of numpy.linalg.<name> while the test runs."""
    calls, original = [], getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("reg", [1e-2, 1e-6])
def test_flow_direction_cholesky_matches_least_squares(monkeypatch, reg):
    rng = np.random.default_rng(31)
    lstsq_calls = _count_calls(monkeypatch, "lstsq")
    for p in (6, 17, 64, 65, 150, 300):
        # Gram matrices of p x 2p Gaussian rows: SPD with condition ~ 34
        m = rng.normal(size=(p, 2 * p))
        a, c = m @ m.T / p, rng.normal(size=p)
        want, *_ = np.linalg.lstsq(a + reg * np.eye(p), -c, rcond=None)
        got = flow_direction(a, c, reg)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    assert len(lstsq_calls) == 6  # the references only: no fallback


def test_flow_direction_falls_back_to_least_squares_when_not_definite(monkeypatch):
    lstsq_calls = _count_calls(monkeypatch, "lstsq")
    x = flow_direction(np.diag([1.0, 0.0]), np.array([1.0, 2.0]), 0.0)
    assert np.allclose(x, [-1.0, 0.0], atol=1e-10)
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    y = flow_direction(indefinite, np.array([1.0, -1.0]), 1e-6)
    assert np.allclose((indefinite + 1e-6 * np.eye(2)) @ y, [-1.0, 1.0], atol=1e-8)
    assert len(lstsq_calls) == 2


@pytest.mark.parametrize("bad", ["a", "c"])
def test_flow_direction_refuses_non_finite_inputs(monkeypatch, bad):
    factored = _count_calls(monkeypatch, "cholesky")
    a, c = np.eye(3), np.ones(3)
    if bad == "a":
        a[1, 2] = np.nan
    else:
        c[0] = np.inf
    with pytest.raises(FloatingPointError, match="non-finite"):
        flow_direction(a, c, 1e-6)
    assert not factored


def test_initial_parameters_are_seeded_and_bounded():
    first = initial_parameters(50, seed=5)
    assert np.array_equal(first, initial_parameters(50, seed=5))
    assert not np.array_equal(first, initial_parameters(50, seed=6))
    # the draws lie within INIT_SCALE and reach past a third of it
    assert np.abs(first).max() <= ite.INIT_SCALE
    assert np.abs(first).max() > ite.INIT_SCALE / 3


# ---------------------------------------------------------------------------
# batched stencil vs. pointwise evaluation

TREE_KINDS = ("qq", "qc", "cq")


def _stencil_tree(kind: str = "qq"):
    rng = np.random.default_rng(70)
    if kind == "qq":
        return random_qq_tree(rng, 2, 2, 1, 1)
    branches = [build_hardware_efficient_ansatz(2, 1) for _ in range(2)]
    if kind == "qc":
        params = rng.uniform(-np.pi, np.pi, sum(b.num_params for b in branches))
        return build_two_layer_qc(random_mps(2, chi=2, seed=71), branches, params)
    root = build_hardware_efficient_ansatz(2, 1)
    mps = [random_mps(3, chi=2, seed=72 + s) for s in range(2)]
    return build_two_layer_cq(root, mps, rng.uniform(-np.pi, np.pi, root.num_params))


def _with_distinct_branch(tree, circuits, params):
    """The tree with branch 0 replaced by a distinct-unitaries payload."""
    link = tree.root.children[0]
    branch = TreeNode(QuantumTensor.distinct(circuits, params))
    children = (ChildLink(link.attach, branch),) + tree.root.children[1:]
    return replace(tree, root=TreeNode(tree.root.payload, children))


class _PointwiseTreeProblem(PointwiseStencil, TreeProblem):
    """A tree problem whose stencil takes one tree contraction per point."""

    def overlap(self, pa, pb) -> complex:
        return tree_overlap(
            self.tree.with_params(pa), self.tree.with_params(pb)
        )


def _assert_routes_agree(tree, h):
    fast = TreeProblem(tree, h)
    generic = _PointwiseTreeProblem(tree, h)
    params = flat_params(tree)
    assert np.allclose(
        metric_a(fast, params, 1e-3), metric_a(generic, params, 1e-3), atol=1e-7
    )
    assert np.allclose(
        gradient_c(fast, params, 1e-3), gradient_c(generic, params, 1e-3), atol=1e-9
    )


def test_fast_stencil_overlaps_match_pointwise_tree_overlaps():
    for kind in TREE_KINDS:
        tree = _stencil_tree(kind)
        problem = TreeProblem(tree, crossing_hamiltonian())
        params = flat_params(tree)
        delta = 1e-3
        run = problem._fd_pass(params, delta)

        base = tree.with_params(params)
        shifted = []
        for i in range(tree.num_params):
            bumped = params.copy()
            bumped[i] += delta
            shifted.append(tree.with_params(bumped))
        # every entry of every root block, row and column 0 the base state:
        # the double differences alone would miss an error common to a block
        for u, su in problem._open:
            rows_u = [base] + shifted[su]
            for v, sv in problem._open:
                blk = run.block(0, u, v)[:, :, 0, 0]
                rows_v = [base] + shifted[sv]
                assert blk.shape == (len(rows_u), len(rows_v))
                for a, tree_a in enumerate(rows_u):
                    for b, tree_b in enumerate(rows_v):
                        assert blk[a, b] == pytest.approx(
                            tree_overlap(tree_a, tree_b), abs=1e-11
                        )
        d = problem._overlap_fd_matrix(params, delta)
        reference = _PointwiseTreeProblem(tree, crossing_hamiltonian())
        assert d.dtype == np.float64 and d.shape == (tree.num_params,) * 2
        assert np.allclose(d, reference._overlap_fd_matrix(params, delta), rtol=0, atol=1e-13)


def test_fast_stencil_energies_match_pointwise_tree_energies():
    cases = [(_stencil_tree(kind), crossing_hamiltonian()) for kind in TREE_KINDS]
    # a one-qubit root (k = 1): its effective operator has an empty low half
    one = random_qq_tree(np.random.default_rng(77), 1, 2, 1, 1)
    cases.append((one, build_1d_cluster(2, 1, lam=0.8, seed=16)[0]))
    # an MPS node below the root, whose quantum leaf's environment is the
    # MPS node's hole
    cases.append(_mps_middle_tree(np.random.default_rng(78)))
    # the MPS node's one physical site is a subsystem of its own
    assert cases[-1][0].layout == SubsystemLayout((1, 2, 2))
    for tree, h in cases:
        problem = TreeProblem(tree, h)
        params = flat_params(tree)
        delta = 1e-3
        e0, evec = problem._energies_fd(params, delta)
        assert e0 == pytest.approx(
            tree_energy(tree.with_params(params), h), abs=1e-10
        )
        for i in range(tree.num_params):
            bumped = params.copy()
            bumped[i] += delta
            assert evec[i] == pytest.approx(
                tree_energy(tree.with_params(bumped), h), abs=1e-10
            )


def _mps_middle_tree(rng, n: int = 2):
    """Quantum root over an MPS node and a quantum leaf, and a Hamiltonian.

    The MPS node has its upward leg at site 0, a quantum leaf at site 1 and
    one physical site, so the tree covers 1 + 2 n qubits.
    """

    def leaf():
        circuit = random_circuit(rng, n, 2)[0]
        params = rng.uniform(-np.pi, np.pi, circuit.num_params)
        return TreeNode(QuantumTensor.shared(circuit, ("0" * n, "1" * n), params))

    mid = TreeNode(random_mps(3, chi=2, seed=79), (ChildLink(1, leaf()),))
    root_circuit = random_circuit(rng, 2, 2)[0]
    params = rng.uniform(-np.pi, np.pi, root_circuit.num_params)
    root = TreeNode(
        QuantumTensor.shared(root_circuit, ("00",), params),
        (ChildLink(0, mid), ChildLink(1, leaf())),
    )
    tree = HybridTree(root)
    h, _ = build_1d_cluster(1 + 2 * n, 1, lam=0.8, seed=17)
    return tree, h


def _three_layer_tree(
    rng, n: int = 2, make_circuit=lambda width: build_hardware_efficient_ansatz(width, 1)
):
    """Quantum root over two-label quantum nodes with physical qubits and a leaf.

    Each of the four subsystems (two middle nodes, two leaves) has n qubits;
    ``make_circuit(width)`` builds each node's circuit (default: one
    hardware-efficient block).
    """

    def payload(width, bits):
        circuit = make_circuit(width)
        params = rng.uniform(-np.pi, np.pi, circuit.num_params)
        return QuantumTensor.shared(circuit, bits, params)

    links = []
    for s in range(2):
        leaf = TreeNode(payload(n, ("0" * n, "1" * n)))
        mid_bits = ("0" * (n + 1), "1" * (n + 1))
        mid = TreeNode(payload(n + 1, mid_bits), (ChildLink(0, leaf),))
        links.append(ChildLink(s, mid))
    root = TreeNode(payload(2, ("00",)), tuple(links))
    return HybridTree(root)


@pytest.mark.parametrize("kind", ["qq", "qc", "cq", "qq3", "distinct"])
def test_fast_stencil_energies_match_dense_oracle_states(kind):
    h = crossing_hamiltonian()
    if kind == "qq3":
        tree = _three_layer_tree(np.random.default_rng(76))
        h = build_1d_cluster(2, 4, lam=0.8, seed=15)[0]
    elif kind == "distinct":  # branch 0 is a distinct-unitaries payload
        rng = np.random.default_rng(77)
        (c1, p1), (c2, p2) = random_circuit(rng, 2, 2), random_circuit(rng, 2, 2)
        tree = _with_distinct_branch(_stencil_tree(), (c1, c2), (p1, p2))
    else:
        tree = _stencil_tree(kind)
    # an MPS root's sites all carry branches, a branch MPS's site 0 is its
    # upward leg, and a middle node's free qubits are a subsystem of their own
    assert tree.layout == SubsystemLayout((2,) * (4 if kind == "qq3" else 2))
    h_mat = hamiltonian_matrix(h)
    params, delta = flat_params(tree), 1e-3
    e0, evec = TreeProblem(tree, h)._energies_fd(params, delta)
    psi = dense_tree_state(tree)
    assert e0 == pytest.approx(np.vdot(psi, h_mat @ psi).real, abs=1e-10)
    for q in range(tree.num_params):
        bumped = params.copy()
        bumped[q] += delta
        psi = dense_tree_state(tree.with_params(bumped))
        assert evec[q] == pytest.approx(np.vdot(psi, h_mat @ psi).real, abs=1e-10), q


def test_fast_and_generic_routes_agree_on_metric_and_gradient():
    _assert_routes_agree(_stencil_tree(), crossing_hamiltonian())
    # seven branches: more than the root keeps its base reduction for
    wide = random_qq_tree(np.random.default_rng(74), 7, 1, 1, 1)
    _assert_routes_agree(wide, build_1d_cluster(1, 7, lam=0.8, seed=13)[0])
    # open rows below and inside two-label nodes that have physical qubits
    deep = _three_layer_tree(np.random.default_rng(75))
    _assert_routes_agree(deep, build_1d_cluster(2, 4, lam=0.8, seed=14)[0])


def test_metric_holds_at_most_three_real_p_by_p_arrays():
    # the 2d_web n=4 k=3 acceptance start (d_U 8, d_V 4, seed 7): p = 326
    root = build_hardware_efficient_ansatz(3, 4)
    branch = build_hardware_efficient_ansatz(4, 8)
    total = root.num_params + 3 * branch.num_params
    tree = build_two_layer_qq(root, [branch] * 3, np.zeros(total))
    problem = TreeProblem(tree, build_2d_web(4, 3, lam=1.0, seed=7)[0])
    params = initial_parameters(problem.num_params, 7)
    assert problem.num_params == 326
    metric_a(problem, params, 1e-3)  # caches the stencil pass
    tracemalloc.start()
    try:
        a = metric_a(problem, params, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * 326**2
    assert a.dtype == np.float64 and np.array_equal(a, a.T)


def test_fast_stencil_handles_distinct_unitaries_branches():
    # each circuit of a distinct-unitaries payload gets its own perturbed
    # rows, which perturb only its own label; one circuit may have no slots
    rng = np.random.default_rng(73)
    tree = random_qq_tree(rng, 2, 2, 1, 1)
    h = crossing_hamiltonian()
    (c1, p1), (c2, p2) = random_circuit(rng, 2, 2), random_circuit(rng, 2, 2)
    _assert_routes_agree(_with_distinct_branch(tree, (c1, c2), (p1, p2)), h)
    fixed = Circuit(2, (GateOp("H", (0,)), GateOp("CNOT", (0, 1))), 0)
    _assert_routes_agree(_with_distinct_branch(tree, (c1, fixed), (p1, ())), h)


def _two_layer_tree(rng, kind: str, k: int, n: int):
    """Random qq, qc or cq tree over k subsystems of n qubits."""
    seed = int(rng.integers(2**31))
    branches = [random_circuit(rng, n, 1)[0] for _ in range(k)]
    root = random_circuit(rng, k, 1)[0]
    if kind == "qq":
        num = root.num_params + sum(b.num_params for b in branches)
        return build_two_layer_qq(root, branches, rng.uniform(-np.pi, np.pi, num))
    if kind == "qc":
        num = sum(b.num_params for b in branches)
        mps = random_mps(k, chi=2, seed=seed)
        return build_two_layer_qc(mps, branches, rng.uniform(-np.pi, np.pi, num))
    mps = [random_mps(n + 1, chi=2, seed=seed + s) for s in range(k)]
    params = rng.uniform(-np.pi, np.pi, root.num_params)
    return build_two_layer_cq(root, mps, params)


@st.composite
def stencil_trees(draw):
    """Random tree and a Hamiltonian on it.

    Two-layer qq, qc or cq trees have k 2-3 subsystems of n 1-3 qubits; the
    three-layer qq tree has four subsystems of n 1-2 qubits, two of them
    below a middle node, so the stencil opens rows under a quantum parent.
    """
    kind = draw(st.sampled_from(TREE_KINDS + ("qq3",)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "qq3":
        # two random layers: one is too sparse to break the label symmetry
        # of the middle nodes' blocks
        k, n = 4, draw(st.integers(1, 2))
        tree = _three_layer_tree(rng, n, lambda w: random_circuit(rng, w, 2)[0])
    else:
        k, n = draw(st.integers(2, 3)), draw(st.integers(1, 3))
        tree = _two_layer_tree(rng, kind, k, n)
    terms = []
    for _ in range(4):
        qubits = rng.permutation(n * k)[: int(rng.integers(1, 4))]
        factors = tuple(sorted((int(q), str(rng.choice(list("XYZ")))) for q in qubits))
        terms.append(PauliTerm(float(rng.uniform(-1, 1)), factors))
    return tree, Hamiltonian(n * k, tuple(terms))


@given(stencil_trees())
def test_fast_stencil_matches_pointwise_route_on_random_trees(tree_and_h):
    _assert_routes_agree(*tree_and_h)


def _shuffled(node: TreeNode, data) -> TreeNode:
    """The node with every child list below it in a drawn order."""
    links = [ChildLink(link.attach, _shuffled(link.node, data)) for link in node.children]
    return TreeNode(node.payload, tuple(data.draw(st.permutations(links))))


@given(stencil_trees(), st.data())
def test_tree_evaluations_match_dense_states_with_children_in_any_order(tree_and_h, data):
    tree, h = tree_and_h
    a = HybridTree(_shuffled(tree.root, data))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    b = a.with_params(rng.uniform(-np.pi, np.pi, a.num_params))
    # a stencil tree's root has no free qubits and every other node has n
    count = len(list(_preorder(a.root))) - 1
    assert a.layout == SubsystemLayout((h.num_qubits // count,) * count)
    psi_a, psi_b, h_mat = dense_tree_state(a), dense_tree_state(b), hamiltonian_matrix(h)
    assert tree_energy(a, h) == pytest.approx(np.vdot(psi_a, h_mat @ psi_a).real, abs=1e-10)
    assert tree_overlap(a, b) == pytest.approx(np.vdot(psi_a, psi_b), abs=1e-10)
    assert tree_transition_energy(a, b, h) == pytest.approx(
        np.vdot(psi_a, h_mat @ psi_b), abs=1e-10
    )


# Slot 3 drives two gates, slots first appear in the order 3, 1, 0, 4, and
# slot 2 is never used; H, X, CNOT and fixed-angle gates sit in between.
LAZY_STACK_CIRCUIT = json.dumps(
    {
        "num_qubits": 3,
        "num_params": 5,
        "ops": [
            {"kind": "H", "targets": [0]},
            {"kind": "RY", "targets": [1], "param": 3},
            {"kind": "CNOT", "targets": [0, 2]},
            {"kind": "RX", "targets": [2], "param": 1},
            {"kind": "RZ", "targets": [0], "angle": 0.37},
            {"kind": "RZZ", "targets": [1, 2], "param": 3},
            {"kind": "X", "targets": [1]},
            {"kind": "RZ", "targets": [1], "param": 0},
            {"kind": "RY", "targets": [0], "angle": -0.8},
            {"kind": "RX", "targets": [0], "param": 4},
        ],
    }
)

# Diagonal runs broken by H, X and CNOT: slot 2 drives two gates of the
# first run and one of the third, slot 0 one gate of the first run and an
# RX later; fixed-angle RZ and RZZ sit inside runs, and slots first appear
# in the order 2, 0, 4, 1, 3.
DIAGONAL_RUN_CIRCUIT = json.dumps(
    {
        "num_qubits": 3,
        "num_params": 5,
        "ops": [
            {"kind": "H", "targets": [0]},
            {"kind": "H", "targets": [2]},
            {"kind": "RZ", "targets": [1], "param": 2},
            {"kind": "RZZ", "targets": [0, 1], "angle": 0.61},
            {"kind": "RZ", "targets": [0], "param": 0},
            {"kind": "RZZ", "targets": [2, 0], "param": 2},
            {"kind": "RZ", "targets": [2], "angle": -1.3},
            {"kind": "X", "targets": [1]},
            {"kind": "RZZ", "targets": [1, 2], "param": 4},
            {"kind": "CNOT", "targets": [1, 0]},
            {"kind": "RZ", "targets": [0], "param": 1},
            {"kind": "RZZ", "targets": [0, 2], "param": 2},
            {"kind": "RZ", "targets": [1], "angle": 0.25},
            {"kind": "H", "targets": [1]},
            {"kind": "RX", "targets": [0], "param": 0},
            {"kind": "RY", "targets": [2], "param": 3},
        ],
    }
)


def _assert_stack_matches_per_row_circuits(circuit, params, initial_bits, delta=1e-3):
    """Every row of every branch against its own circuit run: row 0 bit for
    bit against the payload's family, the perturbed rows to 1e-12; and
    every row to 1e-10 against the product of the gates' dense matrices,
    which shares no code with the compiled program."""
    init = QuantumTensor.shared(circuit, initial_bits, params[0]).initial_states()
    stack = _perturbed_stack(circuit, params, init, delta)
    assert stack.shape == (len(params), circuit.num_params + 1) + init.shape
    for branch, vec in zip(stack, params):
        family = QuantumTensor.shared(circuit, initial_bits, vec).family_states()
        assert np.array_equal(branch[0], family)
        assert np.abs(family - init @ dense_circuit(circuit, vec).T).max() <= 1e-10
        for q in range(circuit.num_params):
            bumped = vec.copy()
            bumped[q] += delta
            want = apply_circuit_array(init, circuit, bumped)
            assert np.abs(branch[1 + q] - want).max() <= 1e-12
            dense = init @ dense_circuit(circuit, bumped).T
            assert np.abs(want - dense).max() <= 1e-10
    return stack


@pytest.mark.parametrize("initial_bits", [("000",), ("000", "101")])
def test_perturbed_stack_matches_per_row_circuits(initial_bits):
    # one branch, and a group of three with their own parameters
    rng = np.random.default_rng(11)
    for text in (LAZY_STACK_CIRCUIT, DIAGONAL_RUN_CIRCUIT):
        circuit = circuit_from_json(text)
        for branches in (1, 3):
            params = rng.uniform(-np.pi, np.pi, (branches, circuit.num_params))
            stack = _assert_stack_matches_per_row_circuits(circuit, params, initial_bits)
            if text == LAZY_STACK_CIRCUIT:  # the unused slot keeps row 0
                assert np.array_equal(stack[:, 3], stack[:, 0])


def test_diagonal_runs_are_fused():
    steps = circuit_from_json(DIAGONAL_RUN_CIRCUIT).program
    kinds = [s.kind if isinstance(s, GateOp) else s.slots for s in steps]
    # runs of single-qubit gates are layers, shown as their slots
    assert kinds == [(), (2, 0), (), (4,), "CNOT", (1, 2), (0, 3)]
    layer, run = LocalLayer, DiagonalRun
    assert [type(s) for s in steps] == [layer, run, layer, run, GateOp, run, layer]
    # slot 2's two gates share one column; the fixed angles fold into one vector
    assert len(steps[1].cols) == 2
    assert [steps[i].fixed is None for i in (1, 3, 5)] == [False, True, False]


@st.composite
def stack_circuits(draw):
    """Random circuits over every gate kind: shared, unused and out-of-order
    slots, fixed angles, and a few branches with their own parameters."""
    n = draw(st.integers(1, 4))
    kinds = sorted(GATE_KINDS) if n > 1 else sorted(GATE_KINDS - {"RZZ", "CNOT"})
    m = draw(st.integers(0, 6))
    ops = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(kinds))
        width = 2 if kind in ("RZZ", "CNOT") else 1
        targets = tuple(draw(st.permutations(range(n)))[:width])
        if kind in ("RX", "RY", "RZ", "RZZ"):
            if m and draw(st.booleans()):
                ops.append(GateOp(kind, targets, param=draw(st.integers(0, m - 1))))
            else:
                angle = draw(st.floats(-np.pi, np.pi, allow_nan=False))
                ops.append(GateOp(kind, targets, angle=angle))
        else:
            ops.append(GateOp(kind, targets))
    circuit = Circuit(n, tuple(ops), m)
    branches = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))
    params = np.random.default_rng(seed).uniform(-np.pi, np.pi, (branches, m))
    bits = ["0" * n, "1" * n, "01" * n][: draw(st.integers(1, 3))]
    return circuit, params, tuple(dict.fromkeys(b[:n] for b in bits))


@given(stack_circuits())
def test_perturbed_stack_matches_per_row_circuits_on_random_circuits(case):
    _assert_stack_matches_per_row_circuits(*case)


def test_distinct_unitaries_payload_rows_match_per_row_families():
    rng = np.random.default_rng(12)
    (c0, p0), (c1, p1) = random_circuit(rng, 2, 2), random_circuit(rng, 2, 1)
    fixed = Circuit(2, (GateOp("H", (0,)), GateOp("CNOT", (0, 1))), 0)
    for circuits, vecs in (([c0, c1], [p0, p1]), ([c0, fixed], [p0, ()])):
        tree = _with_distinct_branch(_stencil_tree("qq"), circuits, vecs)
        problem = TreeProblem(tree, crossing_hamiltonian())
        params, delta = flat_params(tree), 1e-3
        stacks = problem._fd_pass(params, delta).ket_stacks
        nodes = list(_preorder(tree.root))
        for i, start, stop in tree.param_slices():
            payload = nodes[i].payload
            assert np.array_equal(stacks[i][0], payload.family_states())
            for q in range(stop - start):
                bumped = params[start:stop].copy()
                bumped[q] += delta
                want = payload.with_params(bumped).family_states()
                assert np.abs(stacks[i][1 + q] - want).max() <= 1e-12


def test_stencil_point_sweeps_each_circuit_group_once(monkeypatch):
    # 2d_web n=4 k=3: the root and the three equal branches, two sweeps at
    # a stencil point and two at a line-search energy
    root = build_hardware_efficient_ansatz(3, 2)
    branches = [build_hardware_efficient_ansatz(4, 2) for _ in range(3)]
    total = root.num_params + sum(b.num_params for b in branches)
    tree = build_two_layer_qq(root, branches, np.zeros(total))
    h, _ = build_2d_web(4, 3, lam=1.0, seed=7)
    problem = TreeProblem(tree, h)
    calls = []

    def counting(circuit, params, init, delta):
        calls.append((len(params), delta))
        return _perturbed_stack(circuit, params, init, delta)

    monkeypatch.setattr(ite, "_perturbed_stack", counting)
    params = initial_parameters(tree.num_params, 7)
    metric_a(problem, params, 1e-3)
    gradient_c(problem, params, 1e-3)
    assert sorted(calls) == [(1, 1e-3), (3, 1e-3)]
    # a line-search energy sweeps the same groups, families only
    calls.clear()
    problem.energy(params)
    assert sorted(calls) == [(1, None), (3, None)]


@st.composite
def branch_words(draw):
    """Distinct X/Y/Z words on 1-6 qubits, with mask-sharing partners and I."""
    n = draw(st.integers(1, 6))
    letters = draw(
        st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=8)
    )
    # X<->Y and I<->Z keep a word's flip mask, so partners share its group
    swap = str.maketrans("IXYZ", "ZYXI")
    letters += [w.translate(swap) for w in letters[: draw(st.integers(0, len(letters)))]]
    letters.append("I" * n)
    words = [tuple((q, c) for q, c in enumerate(w) if c != "I") for w in letters]
    return n, list(dict.fromkeys(words))


@given(branch_words(), st.integers(1, 4), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_grouped_obs_blocks_match_per_word_pauli_application(nw, rows, labels, seed):
    n, words = nw
    rng = np.random.default_rng(seed)
    shape = (rows, labels, 2**n)
    b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    blocks = _obs_blocks(b, _compile_words(words, n))
    assert blocks.shape == (len(words), rows, labels, labels)
    for w, word in enumerate(words):
        want = np.einsum("axd,ayd->axy", b.conj(), apply_pauli_array(b, word, n))
        assert np.abs(blocks[w] - want).max() <= 1e-12


# ---------------------------------------------------------------------------
# subspace mixing of tree states

def test_solve_subspace_matches_generalized_eigensolver():
    rng = np.random.default_rng(80)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h_mat = 0.5 * (m + m.conj().T)
    b = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    s_mat = b @ b.conj().T + 0.5 * np.eye(5)
    evals, vecs = solve_subspace(h_mat, s_mat)
    reference = scipy.linalg.eigh(h_mat, s_mat, eigvals_only=True)
    assert np.allclose(evals, reference, atol=1e-9)
    assert np.allclose(vecs.conj().T @ s_mat @ vecs, np.eye(5), atol=1e-9)
    assert np.allclose(h_mat @ vecs, s_mat @ vecs @ np.diag(evals), atol=1e-8)


def test_solve_subspace_drops_dependent_directions():
    rng = np.random.default_rng(81)
    b = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    s_mat = b @ b.conj().T
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h_mat = 0.5 * (m + m.conj().T)
    evals, vecs = solve_subspace(h_mat, s_mat)
    assert len(evals) == 3
    assert np.allclose(vecs.conj().T @ s_mat @ vecs, np.eye(3), atol=1e-9)
    q = scipy.linalg.orth(b)
    reference = scipy.linalg.eigh(
        q.conj().T @ h_mat @ q, q.conj().T @ s_mat @ q, eigvals_only=True
    )
    assert np.allclose(evals, reference, atol=1e-8)


def test_solve_subspace_one_dimensional():
    evals, vecs = solve_subspace(np.array([[-2.5]]), np.array([[0.5]]))
    assert evals[0] == pytest.approx(-5.0, abs=1e-12)
    assert abs(vecs[0, 0]) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_solve_subspace_rejects_bad_inputs():
    eye = np.eye(2)
    with pytest.raises(ValueError, match="H must be Hermitian"):
        solve_subspace(np.array([[0.0, 1.0], [0.0, 0.0]]), eye)
    with pytest.raises(ValueError, match="S must be Hermitian"):
        solve_subspace(eye, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="positive semidefinite"):
        solve_subspace(eye, np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="no usable directions"):
        solve_subspace(eye, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="equal size"):
        solve_subspace(eye, np.eye(3))


def _subspace_trees():
    rng = np.random.default_rng(82)
    return [random_qq_tree(rng, 2, 2, 1, 1) for _ in range(3)]


def test_subspace_matrices_match_dense_states():
    trees = _subspace_trees()
    h = crossing_hamiltonian()
    h_mat, s_mat = subspace_matrices(trees, h)
    states = [dense_tree_state(t) for t in trees]
    dense_h = hamiltonian_matrix(h)
    for i in range(3):
        for j in range(3):
            assert h_mat[i, j] == pytest.approx(
                states[i].conj() @ dense_h @ states[j], abs=1e-9
            )
            assert s_mat[i, j] == pytest.approx(
                np.vdot(states[i], states[j]), abs=1e-9
            )


def test_expansion_beats_every_member_and_respects_the_floor():
    trees = _subspace_trees()
    h = crossing_hamiltonian()
    energy, coeffs, (h_mat, s_mat) = expand_in_subspace(trees, h)
    member_energies = np.diag(h_mat).real / np.diag(s_mat).real
    assert energy <= member_energies.min() + 1e-9
    ground, _ = exact_ground_energy(h)
    assert energy >= ground - 1e-9
    assert coeffs.conj() @ s_mat @ coeffs == pytest.approx(1.0, abs=1e-9)

    states = [dense_tree_state(t) for t in trees]
    mixed = sum(c * psi for c, psi in zip(coeffs, states))
    rayleigh = np.real(
        mixed.conj() @ hamiltonian_matrix(h) @ mixed
    ) / np.real(np.vdot(mixed, mixed))
    assert energy == pytest.approx(float(rayleigh), abs=1e-8)
