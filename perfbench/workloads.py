"""The three ground-state workloads and the inputs they give the program.

Every workload is one ``hybridtn run`` configuration (``versions``,
``model``, ``n``, ``k``, ``lambda``, ``d_U``, ``d_V``, ``seed``,
``ite.reg``); ``qc-n2k2`` adds a normalized MPS root, generated here.

The time to convergence depends on the instance far more than on the
code: over config seeds (which set the couplings and the flow's initial
point) web-n4k3 takes 28 to 49 iterations, the 16-qubit chain 46 to 104
and a qc tree 101 to 279.  So the timed solves use the pinned instance
(config seed 7, the acceptance configs' seed).  web-n4k3, whose solves are
cheap, also solves one instance per round with a config seed drawn from
``--seed``.  That solve is not timed, and it is checked for everything but
the 5e-3 accuracy, which the acceptance tests establish for seed 7 only:
over 40 seeds the relative error reached 3.0e-3.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

PINNED_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    n: int
    k: int
    d_u: int
    d_v: int
    mps_chi: int  # 0: quantum root circuit of depth d_V; else MPS root
    num_params: int
    rel_tol: float | None  # relative-error tolerance; None: descent check
    timed_solves: int  # solves of the pinned instance per round
    seeded_solves: int  # checked, untimed solves of instances drawn from --seed
    oracle_calls: int  # oracle calls per round, to time a fast oracle steadily


WORKLOADS = {
    w.name: w
    for w in (
        Workload("chain-n8k2", "1d_cluster", 8, 2, 4, 4, 0, 240, 5e-3, 1, 0, 1),
        Workload("web-n4k3", "2d_web", 4, 3, 8, 4, 0, 326, 5e-3, 2, 1, 1),
        Workload("qc-n2k2", "1d_cluster", 2, 2, 1, 4, 2, 14, None, 1, 0, 1000),
    )
}


def config_text(w: Workload, seed: int) -> str:
    """The JSON config a user would pass to ``hybridtn run``."""
    return json.dumps(
        {
            "versions": {"config": 1},
            "model": w.model,
            "n": w.n,
            "k": w.k,
            "lambda": 1.0,
            "d_U": w.d_u,
            "d_V": w.d_v,
            "seed": seed,
            "ite": {"reg": 1e-2},
        },
        sort_keys=True,
    )


def mps_root_cores(w: Workload, seed: int) -> list[np.ndarray]:
    """Seeded Gaussian MPS over k binary sites, scaled to unit norm."""
    rng = np.random.default_rng(seed)
    cores = []
    for site in range(w.k):
        left = 1 if site == 0 else w.mps_chi
        right = 1 if site == w.k - 1 else w.mps_chi
        shape = (left, 2, right)
        cores.append(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    norm_sq = 0.0
    for labels in np.ndindex(*(2,) * w.k):
        acc = np.eye(1, dtype=complex)
        for core, label in zip(cores, labels):
            acc = acc @ core[:, label, :]
        norm_sq += abs(acc[0, 0]) ** 2
    cores[0] = cores[0] / np.sqrt(norm_sq)
    return cores


def instance(w: Workload, config_seed: int, pinned: bool) -> dict:
    """One problem instance as plain data for the worker process."""
    out = {"config": config_text(w, config_seed), "config_seed": config_seed, "pinned": pinned}
    if w.mps_chi:
        out["mps_cores"] = [
            {"re": c.real.tolist(), "im": c.imag.tolist()}
            for c in mps_root_cores(w, config_seed)
        ]
    return out


def round_instances(w: Workload, seed: int, round_index: int) -> list[dict]:
    """The instances one round solves, in order; the oracle uses the first."""
    state = np.random.SeedSequence([seed, round_index]).generate_state(
        w.seeded_solves
    )
    return [instance(w, PINNED_SEED, True)] * w.timed_solves + [
        instance(w, int(s) >> 1, False) for s in state
    ]
