"""Ground-state search benchmark for hybridtn.

    python3 perfbench/run.py --workload chain-n8k2 --seed 1 --seconds 5 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
One job at a time runs in a fresh worker process (``worker.py``), so the
loop is closed with a single client.  A run repeats whole rounds until
``--seconds`` have passed (at least one round).  A round is the work of
``hybridtn run``: set up, solve to convergence with ``run_ite_tree``, and
diagonalize with ``exact_ground_energy``; two more processes only set up,
so that ``setup_s`` is a median of three.

Every output is checked against ``reference.py``, which does not import
the package.  A failed check counts its operation as failed.  With
``--trace 0`` the last line of output holds the end-to-end metrics; with
``--trace 1`` one round runs under the tracer and the last line holds the
per-layer metrics.  ``--workload all`` runs the three workloads in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from workloads import WORKLOADS, Workload, round_instances

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXTRA_SETUPS = 2
RUN_LIMIT_S = 170.0
ACCEPT_SLACK = 1e-9  # the flow accepts a step whose energy rises by at most this
# Two BLAS threads halve the dense web oracle (30 s against 41 s), which
# keeps a full measurement within its time budget.  OpenBLAS keeps the
# second thread spinning, so nothing else should run beside the benchmark:
# runs beside another two-thread run took up to 3x longer.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))


class WorkerFailed(Exception):
    pass


def run_worker(job: dict, deadline: float) -> dict:
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("no time left for the worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise WorkerFailed(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# checks against the reference

class Checker:
    """Reference results per Hamiltonian and the repeat records."""

    def __init__(self, w: Workload, seed: int):
        self.w = w
        self.seed = seed
        self.failures: list[str] = []
        self._refs: dict[str, tuple] = {}
        self._seen: dict[str, tuple] = {}
        self.records_path = OUT / "repeats.json"
        self.records = self._load_records()
        self.digest = source_digest()

    def _load_records(self) -> dict:
        try:
            return json.loads(self.records_path.read_text())
        except (OSError, ValueError):
            return {}

    def save_records(self) -> None:
        OUT.mkdir(exist_ok=True)
        tmp = self.records_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.records, sort_keys=True, indent=1))
        tmp.replace(self.records_path)

    def ground(self, text: str):
        """Sparse matrix and reference ground energy of a Hamiltonian text."""
        if text not in self._refs:
            num_qubits, terms = reference.parse_hamiltonian(text)
            matrix = reference.pauli_sparse(num_qubits, terms)
            self._refs[text] = (matrix, reference.ground_energy(matrix, self.seed))
        return self._refs[text]

    def fail(self, what: str) -> bool:
        self.failures.append(what)
        return False

    def setup(self, out: dict) -> bool:
        package = Path(out["package_file"])
        if ROOT / "src" not in package.parents:
            return self.fail(f"package imported from {package}, not the checkout")
        if out["num_params"] != self.w.num_params:
            return self.fail(f"{out['num_params']} parameters, want {self.w.num_params}")
        return True

    def oracle(self, energy: float, text: str) -> bool:
        _matrix, e_ref = self.ground(text)
        if abs(energy - e_ref) > 1e-8 * abs(e_ref):
            return self.fail(f"oracle {energy!r} vs reference {e_ref!r}")
        return True

    def solve(self, s: dict, text: str, inst: dict) -> bool:
        """Checks of one solve; the accuracy tolerance, established for the
        pinned acceptance instance only, is not applied to seeded ones."""
        matrix, e_ref = self.ground(text)
        energy = s["energy"]
        ok = True
        psi = reference.rebuild_tree_state(s["tree"])
        norm, rebuilt = reference.state_energy(psi, matrix)
        if abs(norm - 1.0) > 1e-10:
            ok = self.fail(f"rebuilt state norm {norm!r}")
        if abs(rebuilt - energy) > 1e-9 * abs(energy):
            ok = self.fail(f"energy {energy!r} but <psi|H|psi> = {rebuilt!r}")
        if energy < e_ref - 1e-9 * abs(e_ref):
            ok = self.fail(f"energy {energy!r} below ground energy {e_ref!r}")
        best = s["trajectory"][0][0]
        for step, (e, accepted) in enumerate(s["trajectory"][1:], start=1):
            if accepted:
                if e > best + ACCEPT_SLACK:
                    ok = self.fail(f"accepted energy rose at step {step}")
                best = e
        if not s["converged"]:
            ok = self.fail("did not converge")
        if self.w.rel_tol is not None and inst["pinned"]:
            rel = abs(1.0 - energy / e_ref)
            if rel > self.w.rel_tol:
                ok = self.fail(f"relative error {rel:.3e} > {self.w.rel_tol:g}")
        elif self.w.rel_tol is None and not energy < s["trajectory"][0][0]:
            ok = self.fail("final energy not below the initial energy")
        key = f"seed{inst['config_seed']}"
        outcome = (float(energy).hex(), s["iterations"])
        record_key = f"{self.w.name}|{key}|blas{BLAS_THREADS}|{self.digest}"
        for earlier in (self._seen.get(key), self.records.get(record_key)):
            if earlier is not None and tuple(earlier) != outcome:
                ok = self.fail(f"repeat of {key} gave {outcome}, earlier {tuple(earlier)}")
        self._seen.setdefault(key, outcome)
        self.records.setdefault(record_key, list(outcome))
        return ok


def source_digest() -> str:
    """Hash of the package and benchmark sources, to key repeat records."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# rounds

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def add_failed(self, count: int) -> None:
        self.attempted += count
        self.failed += count


def check_round(out: dict, instances: list[dict], check: Checker, tally: Tally) -> None:
    tally.add(check.setup(out))
    for inst, s, text in zip(instances, out["solves"], out["hamiltonians"]):
        tally.add(check.solve(s, text, inst))
    for energy in out["oracle"]["energies"]:
        tally.add(check.oracle(energy, out["hamiltonians"][0]))


def untraced(w: Workload, seed: int, seconds: int, deadline: float):
    check = Checker(w, seed)
    tally = Tally()
    samples = {"setup_s": [], "solve_s": [], "oracle_s": [], "peak_rss_mb": []}
    start = time.monotonic()
    round_index = 0
    last_round = 0.0
    while round_index == 0 or (
        time.monotonic() - start < seconds
        and time.monotonic() + last_round < deadline
    ):
        round_start = time.monotonic()
        instances = round_instances(w, seed, round_index)
        job = {"mode": "round", "instances": instances, "oracle_calls": w.oracle_calls}
        try:
            out = run_worker(job, deadline)
        except WorkerFailed as exc:
            check.failures.append(str(exc))
            tally.add_failed(1 + len(instances) + w.oracle_calls)
        else:
            check_round(out, instances, check, tally)
            samples["setup_s"].append(out["setup_s"])
            samples["solve_s"].extend(
                s["solve_s"] for inst, s in zip(instances, out["solves"]) if inst["pinned"]
            )
            samples["oracle_s"].extend(out["oracle"]["oracle_s"])
            samples["peak_rss_mb"].append(out["peak_rss_mb"])
        for _ in range(EXTRA_SETUPS):
            try:
                out = run_worker({"mode": "setup", "instances": instances[:1]}, deadline)
            except WorkerFailed as exc:
                check.failures.append(str(exc))
                tally.add_failed(1)
            else:
                tally.add(check.setup(out))
                samples["setup_s"].append(out["setup_s"])
        round_index += 1
        last_round = time.monotonic() - round_start
    if not all(samples.values()):
        raise WorkerFailed("no operation completed: " + "; ".join(check.failures))
    metrics = {
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "solve_s": (statistics.median(samples["solve_s"]), "s"),
        "oracle_s": (statistics.fmean(samples["oracle_s"]), "s"),
        "peak_rss_mb": (max(samples["peak_rss_mb"]), "MB"),
    }
    return check, tally, metrics


def traced(w: Workload, seed: int, deadline: float):
    check = Checker(w, seed)
    tally = Tally()
    instances = round_instances(w, seed, 0)[:1]
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{w.name}-seed{seed}.json"
    job = {"mode": "trace", "instances": instances, "trace_path": str(trace_path)}
    out = run_worker(job, deadline)
    out["hamiltonians"] = out["hamiltonians"] * 2
    check_round(out, instances * 2, check, tally)
    if out["trace_skipped"]:
        print("not traced (missing): " + ", ".join(out["trace_skipped"]))
    print(f"spans written to {trace_path.relative_to(ROOT)}")
    return check, tally, {k: tuple(v) for k, v in out["layers"].items()}


def run_workload(w: Workload, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        check, tally, metrics = traced(w, seed, deadline)
    else:
        check, tally, metrics = untraced(w, seed, seconds, deadline)
    check.save_records()
    print(f"workload {w.name} seed {seed}: attempted {tally.attempted}, failed {tally.failed}")
    print(f"  BLAS threads {BLAS_THREADS}")
    for failure in check.failures:
        print(f"  FAILED CHECK: {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    return {
        "correct": True,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "hybridtn" / "__init__.py").is_file():
        print(f"no hybridtn package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        except WorkerFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
