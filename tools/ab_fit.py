"""Time two source trees of the package against each other in one process.

Imports ``toeplitzlda`` from two ``src`` directories under the module names
``ab_parent`` and ``ab_change``, draws synthetic data shaped like a perfbench
workload, and times ``lda.fit`` plus ``lda.decision_values`` of the
``toeplitz`` estimator on each side in alternating rounds: each round times
one call per side, and the side that runs first alternates.  Times are CPU times
(``time.process_time``); run with ``OPENBLAS_NUM_THREADS=1``, as perfbench
does.  Prints each side's quartiles and the number of rounds each side won
(ties count for neither).  It is a report and gates nothing.

The data is a random walk (steps N(0, 0.3^2)) plus N(0, 1) white noise, with
every sixth epoch a target shifted by 0.5 over the third to the half of the
window: ``N_e`` training epochs and 384 scored epochs, as perfbench scores
its validation half, drawn from one fixed seed.

    OPENBLAS_NUM_THREADS=1 python tools/ab_fit.py PARENT_SRC CHANGE_SRC \\
        [--workload fit-paper] [--rounds 30]
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

#: (n_channels, n_times, N_e) of the perfbench workloads (perfbench/worker.py).
WORKLOADS = {"fit-paper": (31, 100, 192), "fit-long": (8, 512, 96), "sweep-cli": (8, 20, 96)}
SIDES = ("parent", "change")
N_SCORED = 384
SEED = 1


def load(src: Path, name: str):
    """The package under ``src`` imported as ``name``; returns its ``lda`` and
    ``blockmat`` modules."""
    init = src / "toeplitzlda" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.lda"), importlib.import_module(f"{name}.blockmat")


def epochs(nc: int, nt: int, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """``D x n`` channel-prime features and their labels."""
    walk = np.cumsum(rng.normal(0.0, 0.3, (n, nt, nc)), axis=1) + rng.standard_normal((n, nt, nc))
    labels = (np.arange(n) % 6 == 0).astype(np.int64)
    walk[labels == 1, nt // 3 : nt // 2] += 0.5
    return walk.reshape(n, nt * nc).T.copy(), labels


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="src directory of the parent tree")
    parser.add_argument("change", type=Path, help="src directory of the changed tree")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="fit-paper")
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)
    nc, nt, n = WORKLOADS[args.workload]
    rng = np.random.default_rng(SEED)
    x, labels = epochs(nc, nt, n, rng)
    scored = epochs(nc, nt, N_SCORED, rng)[0]
    modules = {side: load(src.resolve(), f"ab_{side}")
               for side, src in zip(SIDES, (args.parent, args.change))}

    def fit_score(side: str) -> float:
        lda, blockmat = modules[side]
        start = time.process_time()
        model = lda.fit(x, labels, dims=blockmat.BlockDims(nc, nt), estimator="toeplitz")
        lda.decision_values(model, scored)
        return time.process_time() - start

    for side in SIDES:  # warm-up: imports, FFT plans and caches
        fit_score(side)
    times = {side: [] for side in SIDES}
    wins = dict.fromkeys(SIDES, 0)
    for k in range(args.rounds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {side: fit_score(side) for side in order}
        for side in SIDES:
            times[side].append(pair[side])
        if pair["parent"] != pair["change"]:
            wins[min(pair, key=pair.get)] += 1
    print(f"{args.workload} ({nc} x {nt}, N_e = {n}) toeplitz, "
          f"{args.rounds} alternating rounds, CPU ms (q1 / median / q3):")
    for side in SIDES:
        q1, median, q3 = (1e3 * t for t in quartiles(times[side]))
        print(f"  {side:6} {q1:9.3f} {median:9.3f} {q3:9.3f}  won {wins[side]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
