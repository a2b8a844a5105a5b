"""One benchmark process: set up, solve and diagonalize as ``hybridtn run`` does.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and the BLAS thread count fixed in the environment.  It reads a
job as JSON from argv[1] and prints one JSON line of results.  Only the
standard library is imported before the package, so the set-up time
includes the package import a user pays on every ``hybridtn run``.

Modes:
  setup  import and set up the first instance only
  round  set up, solve every instance in turn and call the oracle (half
         the calls before the solves, half after)
  trace  solve the first instance untraced, then set up, solve and call
         the oracle once more under the tracer
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time


def build(inst: dict):
    """Config parse, model, tree and TreeProblem: the set-up of one run."""
    import numpy as np

    from hybridtn import cli, ite, statevector, tensors, tree

    config = cli.config_from_dict(json.loads(inst["config"]))
    h, _layout = cli.build_model(config, float(config.lam))
    if "mps_cores" in inst:
        cores = [np.array(c["re"]) + 1j * np.array(c["im"]) for c in inst["mps_cores"]]
        branches = [
            statevector.build_hardware_efficient_ansatz(config.n, config.d_u)
            for _ in range(config.k)
        ]
        total = sum(b.num_params for b in branches)
        t = tree.build_two_layer_qc(tensors.MpsTensor(tuple(cores)), branches, np.zeros(total))
    else:
        t = cli.build_tree(config)
    problem = ite.TreeProblem(t, h)
    return config, h, t, problem


def describe_tree(t) -> dict:
    """Plain-data description of a two-layer tree for the reference rebuild."""
    from hybridtn import statevector, tensors

    def quantum(payload) -> dict:
        return {
            "circuit": json.loads(statevector.circuit_to_json(payload.circuits[0])),
            "params": [float(p) for p in payload.params[0]],
            "initial": [int(bits, 2) for bits in payload.initial_bits],
        }

    root = t.root.payload
    if isinstance(root, tensors.MpsTensor):
        root_desc = {
            "mps_cores": [{"re": c.real.tolist(), "im": c.imag.tolist()} for c in root.cores]
        }
    else:
        root_desc = quantum(root)
    links = sorted(t.root.children, key=lambda link: link.attach)
    return {"root": root_desc, "branches": [quantum(link.node.payload) for link in links]}


def solve(config, h, t) -> dict:
    from hybridtn import ite

    start = time.perf_counter()
    result, final = ite.run_ite_tree(t, h, config.ite)
    took = time.perf_counter() - start
    return {
        "solve_s": took,
        "energy": float(result.energy),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "trajectory": [[float(r.energy), bool(r.accepted)] for r in result.trajectory],
        "tree": describe_tree(final),
    }


def oracle(h, calls: int) -> dict:
    from hybridtn import oracles

    times, energies = [], []
    for _ in range(calls):
        start = time.perf_counter()
        e0, _state = oracles.exact_ground_energy(h)
        times.append(time.perf_counter() - start)
        energies.append(float(e0))
    return {"oracle_s": times, "energies": energies}


def setup_sample(inst: dict):
    """Import the package and set up one instance, timed together."""
    start = time.perf_counter()
    import hybridtn.cli  # noqa: F401  (the import is part of the set-up)

    built = build(inst)
    return built, time.perf_counter() - start


def layer_metrics(tr, solved: dict, untraced_s: float, h) -> dict:
    """Per-layer metrics of one traced solve and oracle call."""
    steps = tr.spans_named("ite.step")
    by_id = {span[0]: span for span in tr.spans}
    energy_spans = tr.spans_named("ite.energy")
    tree_energy_parents = {span[1] for span in tr.spans_named("tree.energy")}
    line_search = [
        s for s in energy_spans if s[1] in by_id and by_id[s[1]][2] == "ite.step"
    ]
    hits = sum(1 for s in energy_spans if s[0] not in tree_energy_parents)
    accepted = sum(1 for _energy, ok in solved["trajectory"][1:] if ok)
    dense = tr.calls("oracles.assemble") > 0
    return {
        "statevector.kernel_calls": (tr.top_kernel_calls, "count"),
        "statevector.kernel_s": (tr.self_s("statevector.kernel"), "s"),
        "ite.stack_s": (tr.self_s("ite.stack"), "s"),
        "ite.gram_s": (tr.self_s("ite.gram"), "s"),
        "ite.energies_fd_s": (tr.self_s("ite.energies_fd"), "s"),
        "ite.overlap_fd_s": (tr.self_s("ite.overlap_fd"), "s"),
        "ite.flow_solve_s": (tr.self_s("ite.flow_solve"), "s"),
        "ite.metric_s": (tr.self_s("ite.metric"), "s"),
        "ite.gradient_s": (tr.self_s("ite.gradient"), "s"),
        "ite.iterations": (len(steps), "count"),
        "ite.iter_s": (
            statistics.median((s[4] - s[3]) * 1e-9 for s in steps) if steps else 0.0,
            "s",
        ),
        "ite.rejected_steps": (len(steps) - accepted, "count"),
        "ite.accept_ratio": (accepted / len(steps) if steps else 0.0, "ratio"),
        "ite.line_search_evals": (len(line_search), "count"),
        "ite.line_search_s": (sum((s[4] - s[3]) * 1e-9 for s in line_search), "s"),
        "ite.energy_cache_hit_ratio": (
            hits / len(energy_spans) if energy_spans else 0.0,
            "ratio",
        ),
        "tree.energy_calls": (tr.calls("tree.energy"), "count"),
        "tree.energy_s": (tr.self_s("tree.energy"), "s"),
        "tree.overlap_calls": (tr.calls("tree.overlap"), "count"),
        "tree.overlap_s": (tr.self_s("tree.overlap"), "s"),
        "tensors.family_states_calls": (tr.calls("tensors.family_states"), "count"),
        "tensors.family_states_s": (tr.self_s("tensors.family_states"), "s"),
        "tensors.mps_calls": (tr.calls("tensors.mps"), "count"),
        "tensors.mps_s": (tr.self_s("tensors.mps"), "s"),
        "pauli.decompose_calls": (tr.calls("pauli.decompose"), "count"),
        "pauli.decompose_s": (tr.self_s("pauli.decompose"), "s"),
        "oracles.assemble_s": (tr.self_s("oracles.assemble"), "s"),
        "oracles.eigh_s": (tr.self_s("oracles.eigh"), "s"),
        "oracles.dense_matrix_mb": (
            (4**h.num_qubits) * 16 / 2**20 if dense else 0.0,
            "MB",
        ),
        "oracles.lanczos_s": (tr.self_s("oracles.lanczos"), "s"),
        "oracles.matvecs": (tr.calls("oracles.matvec"), "count"),
        "oracles.matvec_s": (tr.self_s("oracles.matvec"), "s"),
        "trace.overhead_s": (solved["solve_s"] - untraced_s, "s"),
    }


def main() -> None:
    job = json.loads(sys.argv[1])
    first = job["instances"][0]
    (config, h, t, problem), setup_s = setup_sample(first)
    out = {"setup_s": setup_s, "num_params": problem.num_params}

    import hybridtn
    from hybridtn import pauli

    out["package_file"] = os.path.abspath(hybridtn.__file__)
    out["hamiltonians"] = [pauli.hamiltonian_to_text(h)]

    if job["mode"] == "round":
        # half the oracle calls before the solves and half after, so that a
        # millisecond oracle is sampled at two moments seconds apart
        before = oracle(h, job["oracle_calls"] // 2)
        out["solves"] = [solve(config, h, t)]
        for inst in job["instances"][1:]:
            config_i, h_i, t_i, _problem = build(inst)
            out["hamiltonians"].append(pauli.hamiltonian_to_text(h_i))
            out["solves"].append(solve(config_i, h_i, t_i))
        after = oracle(h, job["oracle_calls"] - job["oracle_calls"] // 2)
        out["oracle"] = {key: before[key] + after[key] for key in after}
    elif job["mode"] == "trace":
        from tracer import Tracer

        untraced = solve(config, h, t)
        with Tracer() as tr:
            config, h, t, _problem = build(first)
            traced = solve(config, h, t)
            out["oracle"] = oracle(h, 1)
        out["solves"] = [untraced, traced]
        out["layers"] = layer_metrics(tr, traced, untraced["solve_s"], h)
        out["trace_skipped"] = tr.skipped
        tr.write(job["trace_path"])

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
