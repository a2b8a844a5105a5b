"""Experiment driver: config validation, verbs, exit codes, determinism."""

import dataclasses
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from hybridtn.cli import (
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_ORACLE,
    RUN_BYTES_LIMIT,
    _TOP_KEYS,
    ConfigError,
    build_model,
    build_tree,
    config_from_dict,
    load_config,
    main,
    run_bytes_estimate,
    with_seed,
    write_trajectory,
)
from hybridtn import ite
from hybridtn.ite import IteRecord, TreeProblem, _perturbed_stack
from hybridtn.pauli import FieldValues, build_1d_cluster
from hybridtn.verify import check_descent

from _support import flat_params, hamiltonian_from_text

GOLDEN_2D_GROUND = -3.0959559301377086  # 2d_web n=2 k=2 lambda=1 seed=11


def minimal_config(**overrides) -> dict:
    data = {
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
    data.update(overrides)
    return data


def write_config(tmp_path: Path, data: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def read_result(out_dir: Path) -> dict:
    return json.loads((out_dir / "result.json").read_text())


# ---------------------------------------------------------------------------
# config parsing

def test_config_fills_documented_defaults():
    config = config_from_dict(
        {
            "versions": {"config": 1},
            "model": "1d_cluster",
            "n": 4,
            "k": 2,
            "lambda": 0.5,
        }
    )
    assert config.model == "1d_cluster"
    assert (config.n, config.k) == (4, 2)
    assert config.lam == 0.5
    assert config.fields == FieldValues(f=1.0, g=0.5, h=0.318)
    assert (config.d_u, config.d_v) == (8, 4)
    assert not hasattr(config, "shots")  # runs take no samples
    assert config.seed == 0
    assert config.out is None
    assert config.ite.reg == 1e-6
    assert config.ite.seed == 0
    assert not hasattr(config.ite, "shots")


def test_config_rejects_unknown_keys_at_every_level():
    with pytest.raises(ConfigError, match="lamda"):
        config_from_dict(minimal_config(lamda=1.0))
    with pytest.raises(ConfigError, match="regg"):
        config_from_dict(minimal_config(ite={"regg": 1e-2}))
    with pytest.raises(ConfigError, match="unknown fields key"):
        config_from_dict(minimal_config(fields={"j": 1.0}))
    with pytest.raises(ConfigError, match="unknown versions key"):
        config_from_dict(minimal_config(versions={"config": 1, "extra": 2}))
    # the ite stanza may not smuggle in seed (it lives at top level) or shots
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict(minimal_config(ite={"seed": 3}))
    with pytest.raises(ConfigError, match="shots"):
        config_from_dict(minimal_config(ite={"shots": 100}))


def test_config_requires_matching_version_stanza():
    data = minimal_config()
    del data["versions"]
    with pytest.raises(ConfigError, match="versions"):
        config_from_dict(data)
    with pytest.raises(ConfigError, match="versions.config must be 1"):
        config_from_dict(minimal_config(versions={"config": 2}))
    with pytest.raises(ConfigError, match="must be an object"):
        config_from_dict(minimal_config(versions=1))


def test_config_lambda_forms():
    assert config_from_dict(minimal_config(**{"lambda": 2})).lam == 2.0
    assert config_from_dict(minimal_config(**{"lambda": [0.0, 0.5]})).lam == [0.0, 0.5]
    data = minimal_config()
    del data["lambda"]
    with pytest.raises(ConfigError, match="lambda is required"):
        config_from_dict(data)
    with pytest.raises(ConfigError, match="must not be empty"):
        config_from_dict(minimal_config(**{"lambda": []}))
    with pytest.raises(ConfigError, match=r"lambda\[1\]"):
        config_from_dict(minimal_config(**{"lambda": [0.0, "x"]}))


def test_config_rejects_shots_under_direct_evaluation(tmp_path, capsys):
    # runs evaluate exactly and take no samples, so the schema has no shots
    # key: naming it, even as 0, is an unknown key
    for shots in (0, 1000):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_dict(minimal_config(shots=shots))
    config_path = write_config(tmp_path, minimal_config(shots=1000))
    code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    unknown, allowed = capsys.readouterr().err.split("allowed:")
    assert "shots" in unknown and "shots" not in allowed
    assert "d_U" in allowed and "seed" in allowed
    assert not (tmp_path / "o").exists()


def test_config_rejects_bad_field_values():
    cases = [
        dict(model="3d_cube"),
        dict(n=0),
        dict(n="2"),
        dict(n=True),
        dict(shots=-1),
        dict(seed=-1),
        dict(seed=2**64),
        dict(out=5),
        dict(ite={"max_iters": 0}),
        dict(ite={"dtau0": 0.0}),
        dict(ite={"reg": float("nan")}),
    ]
    for overrides in cases:
        with pytest.raises(ConfigError):
            config_from_dict(minimal_config(**overrides))


@pytest.mark.parametrize("delta", [1e155, 1e-200])
def test_config_rejects_delta_whose_square_leaves_the_floats(tmp_path, capsys, delta):
    # delta is the fixed constant ite.DELTA, so no config can set a step whose
    # square overflows or underflows; naming it at all is a config error
    config_path = write_config(tmp_path, minimal_config(ite={"delta": delta}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == EXIT_CONFIG
    assert "unknown ite key(s) delta;" in capsys.readouterr().err
    assert not (out / "result.json").exists()
    assert 0.0 < ite.DELTA**2 < float("inf")


# the step controls that are module constants of hybridtn.ite, at their values
REMOVED_ITE_KEYS = {
    "delta": 1e-3,
    "dtau_min": 1e-12,
    "dtau_shrink": 0.5,
    "dtau_grow": 1.2,
    "dtau_cap": 0.5,
    "max_retries": 8,
    "conv_window": 10,
    "init_scale": 0.1,
}


@pytest.mark.parametrize("key", sorted(REMOVED_ITE_KEYS))
def test_config_rejects_removed_ite_key(tmp_path, capsys, key):
    value = REMOVED_ITE_KEYS[key]
    config_path = write_config(tmp_path, minimal_config(ite={"reg": 1e-2, key: value}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"unknown ite key(s) {key};" in err
    assert "allowed: conv_tol, dtau0, max_iters, reg" in err
    assert not (out / "result.json").exists()
    with pytest.raises(TypeError):
        ite.IteConfig(**{key: value})


@pytest.mark.parametrize("conv_tol", [0.0, -1e-8])
def test_config_rejects_conv_tol_that_no_run_can_meet(tmp_path, capsys, conv_tol):
    # a flat-energy test against conv_tol <= 0 never passes, so the run
    # could only end at max_iters
    data = minimal_config(ite={"reg": 1e-2, "conv_tol": conv_tol})
    config_path = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"ite: conv_tol must be positive, got {conv_tol!r}" in err
    assert "rounds" not in err
    assert not (out / "result.json").exists()


def test_readme_config_table_lists_exactly_the_schema():
    # a key added to or removed from the schema fails here until the
    # README's config reference says so
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Config reference\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)
    nested = {
        "versions": ["config"],
        "fields": [f.name for f in dataclasses.fields(FieldValues)],
        "ite": [f.name for f in dataclasses.fields(ite.IteConfig) if f.name != "seed"],
    }
    expected = [
        f"{key}.{sub}" if key in nested else key
        for key in _TOP_KEYS
        for sub in nested.get(key, [None])
    ]
    assert sorted(listed) == sorted(expected)


def test_seed_override_reaches_both_config_levels():
    config = config_from_dict(minimal_config())
    bumped = with_seed(config, 9)
    assert bumped.seed == 9
    assert bumped.ite.seed == 9
    assert config.seed == 7  # original untouched


# ---------------------------------------------------------------------------
# run verb

def test_run_writes_complete_outputs(tmp_path):
    config_path = write_config(tmp_path, minimal_config())
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == EXIT_OK

    payload = read_result(out)
    assert set(payload) == {
        "config",
        "converged",
        "energy",
        "iterations",
        "oracle",
        "params",
    }
    assert payload["converged"] is True
    assert payload["oracle"]["status"] == "ok"
    assert payload["oracle"]["rel_error"] <= 1e-3
    assert payload["oracle"]["abs_error"] == pytest.approx(
        abs(payload["energy"] - payload["oracle"]["ground_energy"]), abs=1e-15
    )
    echo = payload["config"]
    assert echo["model"] == "1d_cluster"
    assert echo["lambda"] == 1.0
    assert echo["seed"] == 7
    assert echo["versions"]["config"] == 1
    assert "package" in echo["versions"]
    assert set(echo["ite"]) == {"dtau0", "reg", "conv_tol", "max_iters"}
    assert echo["ite"]["reg"] == 1e-2

    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "iteration,tau,dtau,energy,accepted"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(len(rows)))
    assert all(r[4] in {"0", "1"} for r in rows)
    accepted = [(float(r[1]), float(r[3])) for r in rows if r[4] == "1"]
    assert all(b[0] >= a[0] for a, b in zip(accepted, accepted[1:]))
    assert all(b[1] <= a[1] + 1e-9 for a, b in zip(accepted, accepted[1:]))
    assert float(rows[-1][3]) == pytest.approx(payload["energy"], abs=1e-15)

    # the Hamiltonian file round-trips to exactly the model that was solved
    h, _ = (
        build_1d_cluster(2, 2, lam=1.0, seed=7, fields=FieldValues(1.0, 0.5, 0.318)),
    )[0]
    text = (out / "hamiltonian.txt").read_text()
    assert hamiltonian_from_text(text) == h


def test_run_reports_absolute_error_for_zero_ground_energy(tmp_path, capsys):
    data = minimal_config(**{"lambda": 0.0, "fields": {"f": 0.0, "g": 0.0, "h": 0.0}})
    config_path = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    oracle = read_result(out)["oracle"]
    assert oracle["status"] == "ok"
    assert oracle["ground_energy"] == 0.0
    assert oracle["rel_error"] is None
    assert oracle["abs_error"] == 0.0
    assert "abs_error 0.000e+00" in capsys.readouterr().out

    sweep_path = write_config(tmp_path, dict(data, **{"lambda": [0.0]}), "sweep.json")
    sweep_out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(sweep_path), "--out", str(sweep_out)])
    assert code == EXIT_OK
    (point,) = json.loads((sweep_out / "sweep.json").read_text())["points"]
    assert point["rel_error"] is None
    assert point["abs_error"] == 0.0
    assert "abs_error 0.000e+00" in capsys.readouterr().out


def test_run_reports_nonconvergence_but_still_writes(tmp_path, capsys):
    data = minimal_config(ite={"reg": 1e-2, "max_iters": 3})
    config_path = write_config(tmp_path, data)
    out = tmp_path / "out"
    code = main(["run", "--config", str(config_path), "--out", str(out)])
    assert code == EXIT_NO_CONVERGENCE
    assert "did not converge" in capsys.readouterr().err
    payload = read_result(out)
    assert payload["converged"] is False
    assert payload["iterations"] == 3


def test_run_exits_4_with_the_reason_when_the_gradient_turns_nan(
    tmp_path, capsys, monkeypatch
):
    def nan_energies(self, params, delta):
        return 0.0, np.full(self.num_params, np.nan)

    monkeypatch.setattr(TreeProblem, "_energies_fd", nan_energies)
    config_path = write_config(tmp_path, minimal_config())
    out = tmp_path / "out"
    code = main(["run", "--config", str(config_path), "--out", str(out)])
    assert code == EXIT_NO_CONVERGENCE
    assert "non-finite metric or gradient" in capsys.readouterr().err
    payload = read_result(out)
    assert payload["converged"] is False
    assert payload["iterations"] == 0
    assert "stop_reason" not in payload


@pytest.mark.parametrize(
    "overrides, code, message",
    [
        # conv_tol above the model's rounding, eps * sum |c_t|, lets the run start
        (
            {"lambda": 1e308, "ite": {"conv_tol": 1e300}},
            EXIT_NO_CONVERGENCE,
            "non-finite parameters",
        ),
        ({"ite": {"dtau0": 1e308}}, EXIT_NO_CONVERGENCE, "non-finite parameters"),
    ],
)
def test_run_ends_non_finite_parameters_with_a_documented_code(
    tmp_path, capsys, overrides, code, message
):
    # each makes a candidate step overflow
    data = minimal_config(d_U=1, d_V=1, **overrides)
    config_path = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    if code == EXIT_NO_CONVERGENCE:  # the last accepted point is written
        text = (out / "result.json").read_text()
        assert "NaN" not in text and "Infinity" not in text


def test_overflowing_candidate_step_stops_without_a_warning(tmp_path, capsys):
    # dtau0 * theta_dot overflows; the stop reason is the only report
    data = minimal_config(d_U=1, d_V=1, ite={"dtau0": 1e308})
    config_path = write_config(tmp_path, data)
    argv = ["run", "--config", str(config_path), "--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_NO_CONVERGENCE
    assert "non-finite parameters" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["run", "sweep", "exact"])
def test_models_past_the_floats_are_config_errors(tmp_path, capsys, verb):
    # sum |c_t| overflows: the energy would be inf and the oracle's NaN
    data = minimal_config(fields={"f": 1e308, "g": 1e308})
    config_path = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main([verb, "--config", str(config_path), "--out", str(out)]) == EXIT_CONFIG
    assert "coefficients sum to inf" in capsys.readouterr().err
    assert not out.exists()
    for path in tmp_path.rglob("*"):
        if path.is_file():
            text = path.read_text()
            assert "NaN" not in text and "Infinity" not in text, path


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_models_that_round_past_conv_tol_are_config_errors(tmp_path, capsys, verb):
    # at lambda 1e307 every energy rounds by eps * sum |c_t| ~ 9e290, so ten
    # flat energies would read as convergence far from the ground state
    data = minimal_config(d_U=1, d_V=1, **{"lambda": 1e307})
    config_path = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main([verb, "--config", str(config_path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "8.66e+290" in err and "ite.conv_tol 1e-08" in err
    assert "raise ite.conv_tol or lower lambda" in err
    assert not out.exists()
    # exact has no flow to fool
    assert main(["exact", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    # a large but resolvable model still runs
    data["lambda"] = 1e3
    config_path = write_config(tmp_path, data)
    assert main([verb, "--config", str(config_path), "--out", str(tmp_path / "ok")]) == EXIT_OK


def test_sweep_names_each_point_that_did_not_converge(tmp_path, capsys):
    data = minimal_config(**{"lambda": [0.5, 1.0], "ite": {"reg": 1e-2, "max_iters": 1}})
    config_path = write_config(tmp_path, data)
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(config_path), "--out", str(out)])
    assert code == EXIT_NO_CONVERGENCE
    points = json.loads((out / "sweep.json").read_text())["points"]
    assert [p["converged"] for p in points] == [False, False]
    err = capsys.readouterr().err
    assert "one or more sweep points did not converge" in err
    assert "  point 0: max_iters" in err and "  point 1: max_iters" in err


def test_run_skips_oracle_beyond_its_limit(tmp_path):
    data = minimal_config(n=8, k=3, ite={"reg": 1e-2, "max_iters": 2})
    config_path = write_config(tmp_path, data)
    out = tmp_path / "out"
    code = main(["run", "--config", str(config_path), "--out", str(out)])
    assert code == EXIT_NO_CONVERGENCE  # 2 iterations cannot satisfy the window
    oracle = read_result(out)["oracle"]
    assert oracle["status"] == "skipped"
    assert "24 qubits" in oracle["reason"]


def test_run_bytes_estimate_counts_the_stacks_and_the_overlap_matrix(monkeypatch):
    # the stacks a stencil point keeps, the second buffer of its largest
    # sweep, and the real p x p metric with its Cholesky factor; in the
    # second config the root's sweep is the larger one
    swept = []

    def recording(circuit, params, init, delta):
        out = _perturbed_stack(circuit, params, init, delta)
        swept.append(out.nbytes)
        return out

    monkeypatch.setattr(ite, "_perturbed_stack", recording)
    for sizes in ({"n": 3, "k": 2, "d_V": 3}, {"n": 1, "k": 4, "d_V": 2}):
        config = config_from_dict(minimal_config(d_U=2, **sizes))
        tree = build_tree(config)
        problem = TreeProblem(tree, build_model(config, 1.0)[0])
        swept.clear()
        stacks = problem._fd_pass(flat_params(tree), 1e-3).ket_stacks
        kept = sum(stacks[i].nbytes for i, start, stop in tree.param_slices() if stop > start)
        assert kept == sum(swept)  # every stack is a view of its sweep's buffer
        assert run_bytes_estimate(config) == kept + max(swept) + 16 * tree.num_params**2


def test_run_bytes_estimate_admits_the_papers_scale():
    paper = config_from_dict(minimal_config(n=8, k=8, d_U=8, d_V=4))
    assert run_bytes_estimate(paper) < RUN_BYTES_LIMIT


@pytest.mark.parametrize(
    "sizes",
    [
        {"n": 20, "k": 1, "d_U": 8},  # one branch stack alone is about 16 GiB
        {"n": 1, "k": 30},  # the root's stack
        {"n": 2, "d_U": 10**5},  # the metric
        {"n": 10**30, "k": 10**30, "d_U": 10**400},
    ],
)
@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_run_refuses_configs_too_big_to_hold(tmp_path, capsys, sizes, verb):
    config_path = write_config(tmp_path, minimal_config(**sizes))
    assert run_bytes_estimate(load_config(config_path)) > RUN_BYTES_LIMIT
    out = tmp_path / "out"
    assert main([verb, "--config", str(config_path), "--out", str(out)]) == EXIT_CONFIG
    assert "GiB limit" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_lambda_lists(tmp_path):
    config_path = write_config(tmp_path, minimal_config(**{"lambda": [0.0, 1.0]}))
    assert (
        main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")])
        == EXIT_CONFIG
    )


def test_results_are_byte_identical_across_out_dirs(tmp_path):
    config_path = write_config(tmp_path, minimal_config())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config_path), "--out", str(out_a)]) == EXIT_OK
    assert main(["run", "--config", str(config_path), "--out", str(out_b)]) == EXIT_OK
    for name in ("result.json", "trajectory.csv", "hamiltonian.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_flag_overrides_config_seed(tmp_path):
    config_path = write_config(tmp_path, minimal_config())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert (
        main(["run", "--config", str(config_path), "--out", str(out_a), "--seed", "9"])
        == EXIT_OK
    )
    assert main(["run", "--config", str(config_path), "--out", str(out_b)]) == EXIT_OK
    payload = read_result(out_a)
    assert payload["config"]["seed"] == 9
    assert payload["params"] != read_result(out_b)["params"]


def test_seeds_past_64_bits_exit_2_from_the_config_and_the_flag(tmp_path, capsys):
    # the generator keeps 64 bits, so 2**64 + 5 would silently run as seed 5
    big = 2**64 + 5
    runs = [
        (write_config(tmp_path, minimal_config(seed=big), "big.json"), []),
        (write_config(tmp_path, minimal_config()), ["--seed", str(big)]),
    ]
    for config_path, flag in runs:
        out = tmp_path / "out"
        argv = ["run", "--config", str(config_path), "--out", str(out)] + flag
        assert main(argv) == EXIT_CONFIG
        assert f"<= 2**64 - 1 = {2**64 - 1}, got {big}" in capsys.readouterr().err
        assert not (out / "result.json").exists()
    top = tmp_path / "top"
    argv = ["run", "--config", str(runs[1][0]), "--out", str(top), "--seed", str(2**64 - 1)]
    assert main(argv) == EXIT_OK
    assert read_result(top)["config"]["seed"] == 2**64 - 1


# ---------------------------------------------------------------------------
# exact verb

def test_exact_matches_golden_ground_energy(tmp_path):
    data = minimal_config(model="2d_web", seed=11)
    config_path = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["exact", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    payload = read_result(out)
    assert payload["ground_energy"] == pytest.approx(GOLDEN_2D_GROUND, abs=1e-9)
    # per-term expectations weighted by coefficients resum to the energy
    total = sum(
        entry["coefficient"] * entry["expectation"]
        for entry in payload["pauli_expectations"]
    )
    assert total == pytest.approx(payload["ground_energy"], abs=1e-8)
    assert all(
        abs(entry["expectation"]) <= 1.0 + 1e-9
        for entry in payload["pauli_expectations"]
    )


def test_exact_refuses_oversized_registers(tmp_path, capsys):
    config_path = write_config(tmp_path, minimal_config(n=8, k=3))
    out = tmp_path / "out"
    code = main(["exact", "--config", str(config_path), "--out", str(out)])
    assert code == EXIT_ORACLE
    assert "oracle limit" in capsys.readouterr().err
    assert not (out / "result.json").exists()


# ---------------------------------------------------------------------------
# sweep verb

def test_sweep_layout_and_cross_verb_determinism(tmp_path):
    sweep_cfg = write_config(
        tmp_path, minimal_config(**{"lambda": [0.0, 1.0]}), "sweep.json.in"
    )
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(sweep_cfg), "--out", str(out)])
    assert code == EXIT_OK

    summary = json.loads((out / "sweep.json").read_text())
    assert [p["point"] for p in summary["points"]] == [0, 1]
    assert [p["lambda"] for p in summary["points"]] == [0.0, 1.0]
    assert [p["directory"] for p in summary["points"]] == ["point_00", "point_01"]
    for point in summary["points"]:
        assert point["converged"] is True
        assert point["rel_error"] <= 1e-2
        sub = out / point["directory"]
        payload = read_result(sub)
        assert payload["config"]["lambda"] == point["lambda"]
        assert payload["energy"] == point["energy"]
        assert (sub / "trajectory.csv").exists()
        assert (sub / "hamiltonian.txt").exists()

    # a solo run at lambda = 1.0 reproduces point_01 byte for byte
    solo_cfg = write_config(tmp_path, minimal_config(**{"lambda": 1.0}), "solo.json")
    solo_out = tmp_path / "solo"
    assert main(["run", "--config", str(solo_cfg), "--out", str(solo_out)]) == EXIT_OK
    assert (solo_out / "result.json").read_bytes() == (
        out / "point_01" / "result.json"
    ).read_bytes()


# ---------------------------------------------------------------------------
# entry-point plumbing

def test_config_errors_exit_2(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing)]) == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG


def test_argparse_surface():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    with pytest.raises(SystemExit):
        main(["run"])  # --config is required
    for verb in ("run", "exact", "sweep"):
        with pytest.raises(SystemExit):  # sweep points run in order; no pool
            main([verb, "--config", "config.json", "--threads", "2"])


def test_verify_verb_reports_all_checks_passing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["verify"]) == EXIT_OK
    report = capsys.readouterr().out
    lines = [line for line in report.splitlines() if line.strip()]
    assert len(lines) >= 11
    assert all("PASS" in line for line in lines[:-1])
    assert lines[-1] == "10/10 checks passed"


def test_descent_check_figure_is_stable_under_a_tiny_start_shift(monkeypatch):
    before = check_descent().detail
    draw = ite.initial_parameters
    monkeypatch.setattr(ite, "initial_parameters", lambda *a, **kw: draw(*a, **kw) + 1e-12)
    assert check_descent().detail == before


def test_descent_check_runs_the_instance_its_seed_draws():
    # the seed picks the tree and its starting point, so the figure moves
    assert check_descent(seed=21).detail != check_descent(seed=22).detail


def test_verify_verb_rejects_negative_shots(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--shots", "-5"])
    assert exc.value.code == 2
    assert "--shots" in capsys.readouterr().err


def test_verify_verb_rejects_negative_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--seed", "-20"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_trajectory_floats_round_trip_via_repr(tmp_path):
    records = [
        IteRecord(0, 0.0, 0.05, 0.1 + 0.2, True, 0.0),
        IteRecord(1, 1.0 / 3.0, 0.05 * 1.2, -np.pi, False, 1e-300),
    ]
    path = tmp_path / "trajectory.csv"
    write_trajectory(path, records)
    lines = path.read_text().splitlines()
    for record, line in zip(records, lines[1:]):
        cells = line.split(",")
        assert float(cells[1]) == record.tau
        assert float(cells[2]) == record.dtau
        assert float(cells[3]) == record.energy
        assert cells[4] == str(int(record.accepted))
