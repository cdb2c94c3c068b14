#!/usr/bin/env python3
"""Regenerate the benchmark stream and both sensitivity sweeps from scratch.

Chains generate -> train -> sweep with the default seed and RESULTS.md's
grids (``evaluation.LR_GRID`` and ``K_GRID``), leaving every artifact
(stream, model, history, sweep reports, manifests) under results/.
Rerunning produces byte-identical primary outputs.

Usage: python scripts/reproduce_sweeps.py [--out-dir results] [--seed 7]
"""

import argparse
import subprocess
import sys
from pathlib import Path

from etlwatch.evaluation import K_GRID, LR_GRID


def _grid(values: tuple) -> str:
    return ",".join(map(str, values))


def run(*args: str) -> None:
    command = [sys.executable, "-m", "etlwatch", *args]
    print("+", " ".join(command))
    subprocess.run(command, check=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    stream = out / f"stream_{args.seed}.jsonl"
    model = out / f"model_{args.seed}.json"

    run("generate", "--n", "10000", "--anomaly-rate", "0.05",
        "--seed", str(args.seed), "--out", str(stream))
    run("train", str(stream), "--seed", str(args.seed), "--out", str(model))
    run("sweep", str(stream), "--knob", "lr", "--grid", _grid(LR_GRID),
        "--seed", str(args.seed), "--out-dir", str(out))
    run("sweep", str(stream), "--knob", "k", "--grid", _grid(K_GRID),
        "--seed", str(args.seed), "--out-dir", str(out))

    print(f"\nsweep reports and manifests are under {out}/")


if __name__ == "__main__":
    main()
