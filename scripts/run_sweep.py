#!/usr/bin/env python3
"""Sweep the coupling strength for one model and tabulate the results.

Builds an experiment configuration from command-line arguments, hands it
to the packaged experiment driver (one optimization job per coupling
value), then reads the sweep summary back and prints an aligned table of
energies, convergence flags, and — whenever the register is small enough
to diagonalize — relative errors against the dense/iterative oracle.

Example:

    python3 scripts/run_sweep.py --model 1d_cluster --n 2 --k 2 \
        --lambdas 0,0.25,0.5,0.75,1.0 --out /tmp/sweep_demo
"""

import argparse
import json
import sys
from pathlib import Path

from hybridtn.cli import main as cli_main


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", choices=("1d_cluster", "2d_web"),
                        default="1d_cluster")
    parser.add_argument("--n", type=int, default=2,
                        help="qubits per block (default 2)")
    parser.add_argument("--k", type=int, default=2,
                        help="number of blocks (default 2)")
    parser.add_argument("--lambdas", default="0,0.25,0.5,0.75,1.0",
                        help="comma-separated coupling values")
    parser.add_argument("--d-U", type=int, default=4, dest="d_u",
                        help="branch circuit depth (default 4)")
    parser.add_argument("--d-V", type=int, default=2, dest="d_v",
                        help="root circuit depth (default 2)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--reg", type=float, default=1e-2,
                        help="flow regularization (default 1e-2)")
    parser.add_argument("--out", default="sweep_out",
                        help="output directory (default ./sweep_out)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    lambdas = [float(x) for x in args.lambdas.split(",") if x.strip()]
    config = {
        "versions": {"config": 1},
        "model": args.model,
        "n": args.n,
        "k": args.k,
        "lambda": lambdas,
        "d_U": args.d_u,
        "d_V": args.d_v,
        "seed": args.seed,
        "ite": {"reg": args.reg},
    }

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")

    code = cli_main(["sweep", "--config", str(config_path), "--out", str(out_dir)])
    summary_path = out_dir / "sweep.json"
    if not summary_path.exists():
        print(f"sweep failed before writing {summary_path}", file=sys.stderr)
        return code

    points = json.loads(summary_path.read_text())["points"]
    print()
    print(f"{args.model}  n={args.n}  k={args.k}  "
          f"({args.n * args.k} qubits, seed {args.seed})")
    header = f"{'lambda':>8}  {'energy':>16}  {'converged':>9}  {'rel error':>10}"
    print(header)
    print("-" * len(header))
    for point in points:
        if point.get("rel_error") is not None:
            rel_text = f"{point['rel_error']:.2e}"
        elif "abs_error" in point:  # ground energy 0: no relative error
            rel_text = f"abs {point['abs_error']:.2e}"
        else:
            rel_text = "(no oracle)"
        print(f"{point['lambda']:8.3f}  {point['energy']:16.9f}  "
              f"{str(point['converged']):>9}  {rel_text:>10}")
    print(f"\nper-point outputs under {out_dir}/point_*/")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
