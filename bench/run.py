"""Benchmark for etlwatch: one workload per run, closed loop, one caller.

    python3 bench/run.py --workload standard --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout; etlwatch is imported from ``src/``.
The workload's inputs are built from ``--seed`` before timing starts. One
untimed warm-up unit follows; timed units then run back to back until the
next one would pass ``--seconds`` (at least two). Every unit's outputs are
checked after its timer stops, and compared byte for byte with the first's.
Times are reported at reference speed, which cancels most of the host's
speed changes (see ``speed.py``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` untraced and traced units alternate and it reports the
per-layer metrics and the tracing overhead. Earlier lines give the machine
and each metric in readable form.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5

# name -> unit of the metrics BENCHMARK.json declares as end_to_end
END_TO_END = {"setup_s": "s", "unit_s": "s", "events_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_from_checkout() -> None:
    """Import etlwatch from this checkout's ``src/``, never an installed copy."""
    if not (SRC / "etlwatch" / "__init__.py").is_file():
        raise SystemExit(f"no etlwatch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import etlwatch

    if Path(etlwatch.__file__).resolve().parent != SRC / "etlwatch":
        raise SystemExit(f"etlwatch was imported from {etlwatch.__file__}, not {SRC}")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "commit": git_commit(),
    }


# Run in a fresh interpreter: prints the time of ``import etlwatch.cli`` at reference speed.
SETUP_CHILD = f"""
import sys
sys.path.insert(0, {str(BENCH_DIR)!r})
import speed
with speed.Sampler() as sampler:
    import etlwatch.cli
print(sampler.seconds)
"""


def setup_seconds() -> list[float]:
    """Time of fresh interpreters importing ``etlwatch.cli``, at reference speed."""
    from workloads import child_env

    samples = []
    for _ in range(SETUP_SAMPLES):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, text=True, check=True, timeout=60,
        )
        samples.append(float(child.stdout))
    return samples


@dataclass
class Unit:
    wall: float  # less the time of the speed kernel inside it
    seconds: float  # at reference speed
    ok: bool
    timed: bool  # False for the warm-up unit
    layers: dict[str, float] | None  # per-layer values of a traced unit


def run_units(workload, seconds: float, trace: bool) -> list[Unit]:
    """One warm-up unit, then timed units until the next would pass ``seconds``.

    The warm-up unit is checked like the others but left out of every timing:
    the first pass through a workload touches fresh memory and fills caches.
    At least two units are timed, each under a speed sampler, whose kernel
    time is kept out of the unit's wall time and of its spans. With
    ``trace``, timed units alternate untraced and traced, starting untraced.
    """
    from layers import layer_metrics, traced
    from spans import Tracer

    units: list[Unit] = []
    first_primary = None
    while True:
        sampler = speed.Sampler()
        tracer = None
        if trace and len(units) >= 2 and len(units) % 2 == 0:
            tracer = Tracer(sampler.clock)
        try:
            with sampler, traced(tracer) if tracer else contextlib.nullcontext():
                state = workload.run(tracer)
            primary, problems = workload.check(state)
        except Exception:  # a failed unit or check is counted, and the run goes on
            primary, problems = None, [traceback.format_exc()]
        if primary is not None:
            if first_primary is None:
                first_primary = primary
            elif primary != first_primary:
                changed = sorted(k for k in primary if primary[k] != first_primary.get(k))
                problems.append(f"outputs differ from the first unit: {changed}")
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        units.append(Unit(
            sampler.wall, sampler.seconds, not problems, timed=bool(units),
            layers=layer_metrics(tracer) if tracer else None,
        ))

        if len(units) == 1:
            started = time.perf_counter()
            continue
        elapsed = time.perf_counter() - started
        typical = statistics.median(u.wall for u in units if u.timed)
        if len(units) >= 3 and elapsed + typical > seconds:
            return units


def median_seconds(units: list[Unit]) -> float:
    """Median time at reference speed of the passing timed units, or of all
    timed units if none passed."""
    timed = [u for u in units if u.timed]
    good = [u.seconds for u in timed if u.ok] or [u.seconds for u in timed]
    return statistics.median(good)


def end_to_end(workload, units: list[Unit]) -> tuple[dict[str, float], list[str]]:
    unit_s = median_seconds(units)
    setup = setup_seconds()
    values = {
        "setup_s": statistics.median(setup),
        "unit_s": unit_s,
        "events_per_s": workload.input_events / unit_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"times are at reference speed: wall x {speed.REFERENCE_S} s / mean speed kernel wall",
        f"setup_s: median of {len(setup)} fresh imports of etlwatch.cli: "
        + " ".join(f"{x:.4f}" for x in setup),
        f"unit_s: median of {sum(u.ok for u in units if u.timed)} passing timed units "
        f"of {len(units) - 1}, after one warm-up unit",
        f"events_per_s: {workload.input_events} input events per timed unit",
        "no tail percentile: fewer than 100 samples per metric",
    ]
    return values, notes


def per_layer(units: list[Unit]) -> tuple[dict[str, float], list[str]]:
    from layers import METRICS

    traced_units = [u for u in units if u.layers is not None]
    values = {
        name: statistics.median(u.layers[name] for u in traced_units) for name in METRICS
    }
    plain = [u for u in units if u.timed and u.layers is None]
    values["trace.overhead_frac"] = (
        median_seconds(traced_units) / median_seconds(plain) - 1.0
    )
    notes = [
        f"per-layer values: median over {len(traced_units)} traced units",
        f"trace.overhead_frac: traced against {len(plain)} untraced units",
    ]
    return values, notes


def main(argv: list[str] | None = None, sizes=None) -> int:
    args = parse_args(argv)
    import_from_checkout()
    from layers import METRICS
    from workloads import FULL, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    print("machine:", json.dumps(machine()))

    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        workload = WORKLOADS[args.workload](args.seed, sizes or FULL, Path(workdir))
        units = run_units(workload, args.seconds, bool(args.trace))
        if args.trace:
            values, notes = per_layer(units)
            units_of = {**METRICS, "trace.overhead_frac": "frac"}
        else:
            values, notes = end_to_end(workload, units)
            units_of = END_TO_END
    with contextlib.suppress(OSError):  # left in place while another run uses it
        work_root.rmdir()

    failed = sum(not u.ok for u in units)
    notes.append("unit walls, the warm-up first (s): " + " ".join(f"{u.wall:.4f}" for u in units))
    notes.append("unit times at reference speed (s): "
                 + " ".join(f"{u.seconds:.4f}" for u in units))
    for note in notes:
        print(f"# {note}")
    print(f"{'failed_frac':34s} {failed / len(units):.6g} frac ({failed} of {len(units)})")
    for name, value in values.items():
        print(f"{name:34s} {value:.6g} {units_of[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units_of[name]} for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
