"""Command-line experiment driver.

Verbs:
  run     optimize one model instance, write result.json / trajectory.csv /
          hamiltonian.txt into the output directory
  exact   diagonalize the model and write the ground energy plus per-term
          Pauli expectations
  verify  execute the built-in property-check suite and print a report
  sweep   run one job per coupling value, in order, one subdirectory each

Configs are JSON with an explicit ``versions`` stanza; unknown keys are
rejected so physics parameters cannot be silently misspelled.  Every
result echoes the complete effective configuration.  Runs are
byte-deterministic for a fixed config and seed on one numpy/BLAS build
at one BLAS thread count (the flow solve's Cholesky factor depends on it).

Exit codes: 0 success, 2 config error, 3 oracle limit, 4 optimizer did
not converge (results are still written; stderr says why it stopped:
"max_iters", "stalled", or a metric, gradient, candidate step or energy
that turned non-finite).  A model whose coefficients' absolute sum, the
bound on its norm, is not finite is a config error, and so, for ``run``
and ``sweep``, is one whose energies round by ``ite.conv_tol`` or more.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .ite import IteConfig, run_ite_tree
from .oracles import OracleLimitError, exact_ground_energy
from .pauli import (
    FieldValues,
    Hamiltonian,
    PauliTerm,
    build_1d_cluster,
    build_2d_web,
    hamiltonian_to_text,
)
from .statevector import (
    ansatz_param_count,
    build_hardware_efficient_ansatz,
    pauli_expectation,
)
from .tree import build_two_layer_qq
from .verify import format_report, run_checks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ORACLE = 3
EXIT_NO_CONVERGENCE = 4

CONFIG_VERSION = 1

MODELS = ("1d_cluster", "2d_web")

# run and sweep refuse a config whose run_bytes_estimate exceeds this, which
# keeps a run within an ordinary machine's memory, where a larger one would
# end in a MemoryError or an OOM kill.  A layer of single-qubit gates writes
# its GEMMs into the sweep's two buffers, which the estimate counts, and
# builds its Kronecker factors on top: one per variant (the base and one per
# slot of the layer's slot range, at most 2q + 1 on q qubits for the
# ansatz), never one per row, under 3 * 4**min(q, 4) + 64 q complex numbers
# per variant and branch.
# That is at most 14 MiB for any config within the limit.
RUN_BYTES_LIMIT = 2**31


class ConfigError(Exception):
    """Configuration problem with a field-level message."""


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    n: int
    k: int
    lam: object  # float, or list of floats for sweeps
    fields: FieldValues
    d_u: int
    d_v: int
    ite: IteConfig
    out: str | None

    @property
    def seed(self) -> int:
        """The one seed: couplings and the flow's initial point both use it."""
        return self.ite.seed


# ---------------------------------------------------------------------------
# config parsing

def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {type(value).__name__}")
    return value


def _reject_unknown(data: dict, allowed, where: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown {where} key(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _as_int(value, field: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{field} must be >= {minimum}, got {value}")
    return value


def _as_seed(value, field: str) -> int:
    seed = _as_int(value, field)
    if seed > 2**64 - 1:  # SplitMix64 keeps 64 bits: a larger seed aliases a smaller one
        raise ConfigError(f"{field} must be <= 2**64 - 1 = {2**64 - 1}, got {seed}")
    return seed


def _as_float(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field} must be a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{field} must be finite, got {value!r}")
    return out


# every IteConfig field but the seed, which lives at the top level
_ITE_FIELDS = tuple(f for f in dataclasses.fields(IteConfig) if f.name != "seed")
_ITE_FLOAT_KEYS = tuple(f.name for f in _ITE_FIELDS if type(f.default) is float)
_ITE_INT_KEYS = tuple(f.name for f in _ITE_FIELDS if type(f.default) is int)


def _parse_ite(data: dict) -> dict:
    _reject_unknown(data, _ITE_FLOAT_KEYS + _ITE_INT_KEYS, "ite")
    overrides = {}
    for key in _ITE_FLOAT_KEYS:
        if key in data:
            overrides[key] = _as_float(data[key], f"ite.{key}")
    for key in _ITE_INT_KEYS:
        if key in data:
            overrides[key] = _as_int(data[key], f"ite.{key}", minimum=1)
    return overrides


_FIELD_KEYS = tuple(f.name for f in dataclasses.fields(FieldValues))


def _parse_fields(data: dict) -> FieldValues:
    _reject_unknown(data, _FIELD_KEYS, "fields")
    values = {key: _as_float(data[key], f"fields.{key}") for key in data}
    return FieldValues(**values)


_TOP_KEYS = (
    "versions",
    "model",
    "n",
    "k",
    "lambda",
    "fields",
    "d_U",
    "d_V",
    "ite",
    "seed",
    "out",
)


def config_from_dict(data: dict) -> ExperimentConfig:
    data = _require_mapping(data, "config")
    _reject_unknown(data, _TOP_KEYS, "config")

    versions = _require_mapping(data.get("versions"), "versions")
    _reject_unknown(versions, ("config",), "versions")
    if versions.get("config") != CONFIG_VERSION:
        raise ConfigError(
            f"versions.config must be {CONFIG_VERSION}, got {versions.get('config')!r}"
        )

    model = data.get("model")
    if model not in MODELS:
        raise ConfigError(f"model must be one of {MODELS}, got {model!r}")
    n = _as_int(data.get("n"), "n", minimum=1)
    k = _as_int(data.get("k"), "k", minimum=1)

    if "lambda" not in data:
        raise ConfigError("lambda is required (number or list of numbers)")
    raw_lam = data["lambda"]
    if isinstance(raw_lam, list):
        if not raw_lam:
            raise ConfigError("lambda list must not be empty")
        lam = [_as_float(v, f"lambda[{i}]") for i, v in enumerate(raw_lam)]
    else:
        lam = _as_float(raw_lam, "lambda")

    fields = _parse_fields(_require_mapping(data.get("fields", {}), "fields"))
    d_u = _as_int(data.get("d_U", 8), "d_U", minimum=1)
    d_v = _as_int(data.get("d_V", 4), "d_V", minimum=1)
    seed = _as_seed(data.get("seed", 0), "seed")

    ite_overrides = _parse_ite(_require_mapping(data.get("ite", {}), "ite"))
    try:
        ite = IteConfig(seed=seed, **ite_overrides)
    except ValueError as exc:
        raise ConfigError(f"ite: {exc}") from exc

    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a string path, got {out!r}")

    return ExperimentConfig(
        model=str(model),
        n=n,
        k=k,
        lam=lam,
        fields=fields,
        d_u=d_u,
        d_v=d_v,
        ite=ite,
        out=out,
    )


def run_bytes_estimate(config: ExperimentConfig) -> int:
    """Bytes the flow holds at once, without allocating any of it, apart
    from a layer's passing Kronecker factors, which stay under 14 MiB
    within the limit (see RUN_BYTES_LIMIT).

    Every open node keeps its perturbed stack of (params + 1) * labels *
    2**qubits complex amplitudes: k branches of n qubits with 2 labels,
    swept together in one buffer, and the k-qubit root with 1.  The sweep
    of the larger of the two writes its GEMMs and CNOTs into a second
    buffer of its size, and the flow's real p x p metric and its Cholesky
    factor come on top.  Caps far past the limit keep the arithmetic small.
    """
    n, k = min(config.n, 64), min(config.k, 64)
    p_u = ansatz_param_count(n, min(config.d_u, 2**20))
    p_v = ansatz_param_count(k, min(config.d_v, 2**20))
    branches, root = k * (p_u + 1) * 2 * 2**n, (p_v + 1) * 2**k
    p = k * p_u + p_v
    return 16 * (branches + root + max(branches, root) + p * p)


def load_config(path: str) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def with_seed(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    return dataclasses.replace(config, ite=dataclasses.replace(config.ite, seed=seed))


def effective_config_dict(config: ExperimentConfig, lam) -> dict:
    """Complete configuration echo, defaults filled in."""
    return {
        "versions": {"config": CONFIG_VERSION, "package": __version__},
        "model": config.model,
        "n": config.n,
        "k": config.k,
        "lambda": lam,
        "fields": dataclasses.asdict(config.fields),
        "d_U": config.d_u,
        "d_V": config.d_v,
        "ite": {f.name: getattr(config.ite, f.name) for f in _ITE_FIELDS},
        "seed": config.seed,
        "out": config.out,
    }


# ---------------------------------------------------------------------------
# model assembly and file writers

def build_model(config: ExperimentConfig, lam: float):
    builder = build_1d_cluster if config.model == "1d_cluster" else build_2d_web
    h, layout = builder(config.n, config.k, lam=lam, seed=config.seed, fields=config.fields)
    # sum |c_t| bounds ||H||; past the floats, energies and oracle turn inf or NaN
    bound = sum(abs(t.coefficient) for t in h.terms)
    if not math.isfinite(bound):
        raise ConfigError(
            f"the model's coefficients sum to {bound} in absolute value at "
            f"lambda {lam!r}; lower lambda or the fields"
        )
    return h, layout


def _require_flow_resolves(config: ExperimentConfig, h: Hamiltonian, lam) -> None:
    """Refuse a model whose energies round by ite.conv_tol or more: there
    the flow's flat-energy test cannot tell convergence from rounding."""
    rounding = np.finfo(float).eps * sum(abs(t.coefficient) for t in h.terms)
    if rounding >= config.ite.conv_tol:
        raise ConfigError(
            f"at lambda {lam!r} the energy rounds by eps * sum |c_t| = "
            f"{rounding:.3g}, not below ite.conv_tol {config.ite.conv_tol!r}, so "
            "convergence cannot be told from rounding; raise ite.conv_tol or "
            "lower lambda"
        )


def build_tree(config: ExperimentConfig):
    root = build_hardware_efficient_ansatz(config.k, config.d_v)
    branches = [
        build_hardware_efficient_ansatz(config.n, config.d_u)
        for _ in range(config.k)
    ]
    total = root.num_params + sum(b.num_params for b in branches)
    return build_two_layer_qq(root, branches, np.zeros(total))


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_trajectory(path: Path, trajectory) -> None:
    lines = ["iteration,tau,dtau,energy,accepted"]
    for rec in trajectory:
        lines.append(
            f"{rec.iteration},{rec.tau!r},{rec.dtau!r},"
            f"{rec.energy!r},{int(rec.accepted)}"
        )
    path.write_text("\n".join(lines) + "\n")


def _oracle_report(h: Hamiltonian, energy: float) -> dict:
    try:
        e0, _ = exact_ground_energy(h)
    except OracleLimitError as exc:
        return {"status": "skipped", "reason": str(exc)}
    return {
        "status": "ok",
        "ground_energy": float(e0),
        "abs_error": abs(energy - e0),
        # a relative error means nothing against a vanishing ground energy
        "rel_error": abs(1.0 - energy / e0) if abs(e0) >= 1e-12 else None,
    }


def _error_text(report: dict) -> str:
    """Relative error of an ok oracle report, or the absolute one without it."""
    if report["rel_error"] is None:
        return f"  abs_error {report['abs_error']:.3e}"
    return f"  rel_error {report['rel_error']:.3e}"


def _require_run_fits(config: ExperimentConfig) -> None:
    needed = run_bytes_estimate(config)
    if needed > RUN_BYTES_LIMIT:
        raise ConfigError(
            f"a run needs at least {needed / 2**30:.3g} GiB for its perturbed "
            f"state stacks and metric, over the {RUN_BYTES_LIMIT / 2**30:g} "
            "GiB limit; lower n, k, d_U or d_V"
        )


def run_point(config: ExperimentConfig, lam: float, out_dir: Path) -> tuple[dict, str]:
    """One optimization job; returns the result payload it wrote and why
    the optimizer stopped."""
    _require_run_fits(config)
    h, _layout = build_model(config, lam)
    _require_flow_resolves(config, h, lam)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "hamiltonian.txt").write_text(hamiltonian_to_text(h))

    tree = build_tree(config)
    result, _opt = run_ite_tree(tree, h, config.ite)
    write_trajectory(out_dir / "trajectory.csv", result.trajectory)

    payload = {
        "config": effective_config_dict(config, lam),
        "energy": float(result.energy),
        "params": [float(p) for p in result.params],
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "oracle": _oracle_report(h, float(result.energy)),
    }
    write_json(out_dir / "result.json", payload)
    return payload, result.stop_reason


def _require_scalar_lambda(config: ExperimentConfig) -> float:
    if isinstance(config.lam, list):
        raise ConfigError(
            "lambda must be a single number for this verb; use sweep for lists"
        )
    return float(config.lam)


# ---------------------------------------------------------------------------
# verbs

def cmd_run(config: ExperimentConfig, out_dir: Path) -> int:
    lam = _require_scalar_lambda(config)
    payload, stop_reason = run_point(config, lam, out_dir)
    oracle = payload["oracle"]
    line = f"energy {payload['energy']!r}"
    if oracle["status"] == "ok":
        line += _error_text(oracle)
    print(line)
    if not payload["converged"]:
        print(f"optimizer did not converge: {stop_reason}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_exact(config: ExperimentConfig, out_dir: Path) -> int:
    lam = _require_scalar_lambda(config)
    h, _layout = build_model(config, lam)
    e0, state = exact_ground_energy(h)
    expectations = []
    for term in h.terms:
        label = " ".join(f"{letter}{qubit}" for qubit, letter in term.factors)
        value = pauli_expectation(state, PauliTerm(1.0, term.factors))
        expectations.append(
            {
                "term": label or "I",
                "coefficient": term.coefficient,
                "expectation": float(value),
            }
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "hamiltonian.txt").write_text(hamiltonian_to_text(h))
    payload = {
        "config": effective_config_dict(config, lam),
        "ground_energy": float(e0),
        "pauli_expectations": expectations,
    }
    write_json(out_dir / "result.json", payload)
    print(f"ground energy {float(e0)!r}")
    return EXIT_OK


def cmd_verify(shots: int, seed: int) -> int:
    results = run_checks(shots=shots, seed=seed)
    print(format_report(results))
    return EXIT_OK if all(r.passed for r in results) else 1


def cmd_sweep(config: ExperimentConfig, out_dir: Path) -> int:
    lams = config.lam if isinstance(config.lam, list) else [float(config.lam)]
    _require_run_fits(config)
    for lam in lams:  # a bad model ends the sweep before any point runs
        _require_flow_resolves(config, build_model(config, lam)[0], lam)
    jobs = [
        (index, lam, out_dir / f"point_{index:02d}") for index, lam in enumerate(lams)
    ]
    points = [run_point(config, lam, job_dir) for _, lam, job_dir in jobs]
    payloads = [payload for payload, _ in points]

    summary = []
    for (index, lam, job_dir), payload in zip(jobs, payloads):
        entry = {
            "point": index,
            "lambda": lam,
            "directory": job_dir.name,
            "energy": payload["energy"],
            "converged": payload["converged"],
        }
        oracle = payload["oracle"]
        if oracle["status"] == "ok":
            for key in ("ground_energy", "abs_error", "rel_error"):
                entry[key] = oracle[key]
        summary.append(entry)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "sweep.json", {"points": summary})
    for entry in summary:
        line = f"lambda {entry['lambda']!r}: energy {entry['energy']!r}"
        if "ground_energy" in entry:
            line += _error_text(entry)
        print(line)
    if not all(p["converged"] for p in payloads):
        print("one or more sweep points did not converge", file=sys.stderr)
        for (index, _, _), (payload, stop_reason) in zip(jobs, points):
            if not payload["converged"]:
                print(f"  point {index}: {stop_reason}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridtn",
        description="Hybrid tensor-network ground-state experiments",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, needs_config: bool):
        if needs_config:
            p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument(
            "--seed", type=int, default=None, help="override the config seed"
        )

    add_common(sub.add_parser("run", help="optimize one instance"), True)
    add_common(sub.add_parser("exact", help="diagonalize one instance"), True)
    add_common(sub.add_parser("sweep", help="one job per lambda value"), True)

    p_verify = sub.add_parser("verify", help="run the property-check suite")
    p_verify.add_argument("--shots", type=int, default=0, help="sampling smoke mode")
    p_verify.add_argument("--seed", type=int, default=0, help="check seed offset")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.verb == "verify":
        if args.shots < 0:
            parser.error(f"--shots must be >= 0, got {args.shots}")
        if args.seed < 0:
            parser.error(f"--seed must be >= 0, got {args.seed}")
        return cmd_verify(args.shots, args.seed)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = with_seed(config, _as_seed(args.seed, "--seed"))
        out_dir = Path(args.out if args.out is not None else (config.out or "results"))
        if args.verb == "run":
            return cmd_run(config, out_dir)
        if args.verb == "exact":
            return cmd_exact(config, out_dir)
        return cmd_sweep(config, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleLimitError as exc:
        print(f"oracle limit: {exc}", file=sys.stderr)
        return EXIT_ORACLE


if __name__ == "__main__":
    sys.exit(main())
