"""Record one point of the benchmark trajectory.

Runs ``run.py`` on every workload once per seed of each ``--seeds`` set
(``--trace 0``), plus one traced run per workload on the first seed, and
writes per metric the median, the quartiles and their spread (Q3 - Q1 as a
share of the median) of each set.  With two sets it also writes how far the
second set's medians moved from the first's, in the metric's worse
direction, as a share of the first.

    python3 perfbench/trajectory.py --label seed --seeds 1-10 --seeds 11-20 \\
        --out perfbench/trajectory/BENCH_seed.json

Runs one at a time, from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2])["info"]
    return result, time.monotonic() - start


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", type=seed_range, action="append", required=True)
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    point = {"label": args.label, "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in workloads:
        entry = {"sets": []}
        for seeds in args.seeds:
            values: dict[str, list[float]] = {}
            walls, all_correct, failed = [], True, 0
            for seed in seeds:
                result, wall = run(name, seed, spec["run_seconds"], 0)
                walls.append(wall)
                all_correct &= result["correct"]
                failed += result["failed"]
                for metric, v in result["metrics"].items():
                    values.setdefault(metric, []).append(v["value"])
                print(f"{name} seed {seed}: {wall:.1f} s", file=sys.stderr, flush=True)
            entry["sets"].append({
                "seeds": seeds, "correct": all_correct, "failed": failed, "run_wall_s": walls,
                "end_to_end": {m: summarize(v) for m, v in sorted(values.items())},
            })
        if len(entry["sets"]) > 1:
            first, second = (s["end_to_end"] for s in entry["sets"][:2])
            entry["second_set_worse_by"] = {
                m: (second[m]["median"] - first[m]["median"]) / first[m]["median"]
                * (1 if better[m] == "lower" else -1)
                for m in first
            }
        traced, wall = run(name, args.seeds[0][0], spec["run_seconds"], 1)
        entry["env"] = traced["info"]["env"]
        entry["traced"] = {"seed": args.seeds[0][0], "correct": traced["correct"], "wall_s": wall,
                           "per_layer": {m: v["value"] for m, v in traced["metrics"].items()}}
        point["workloads"][name] = entry
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
