"""Run-to-run spread of the end-to-end metrics.

    python3 rsmi_bench/steadiness.py --seeds 1-10 --out rsmi_bench/steadiness/set1.json
    python3 rsmi_bench/steadiness.py --compare rsmi_bench/steadiness/set1.json rsmi_bench/steadiness/set2.json

Runs each workload once per seed, one run at a time, with BENCHMARK.json's
``run_seconds``, and reports for every metric the distance between the
first and third quartile of its values (``statistics.quantiles(n=4)``) as a
share of their median, beside the metric's bound. ``--compare`` tabulates
two recorded sets and how far the second set's medians moved from the
first set's, in the worse direction.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "rsmi_bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    *_, detail, result = map(json.loads, proc.stdout.strip().splitlines())
    detail = detail["detail"]
    return {"seed": seed, "wall_s": wall, "correct": result["correct"],
            "failed": result["failed"], "attempted": result["attempted"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "passes": detail["passes"], "pace_us": detail["pace_us"],
            "setup_builds_s": detail["setup_builds_s"]}


def summarize(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name, bound in bounds.items():
        vals = [r["metrics"][name] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        out[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / statistics.median(vals), "bound": bound}
    return out


def compare(a: dict, b: dict, sp: dict) -> list[str]:
    """A markdown table of both sets' medians and spreads per workload and
    metric, and how much worse set 2's median is than set 1's."""
    rows = ["| workload | metric | bound | median 1 | spread 1 | median 2 | spread 2 | 2 worse by |",
            "|---|---|---|---|---|---|---|---|"]
    for wl, sa in a["summary"].items():
        for m in sp["end_to_end"]:
            x, y = sa[m["name"]], b["summary"][wl][m["name"]]
            move = (y["median"] - x["median"]) / x["median"]
            move = move if m["better"] == "lower" else -move
            rows.append(f"| {wl} | {m['name']} | {m['bound']} | {x['median']:.4g} | {x['spread']:.3f}"
                        f" | {y['median']:.4g} | {y['spread']:.3f} | {move:+.3f} |")
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    sp = spec()
    bounds = {m["name"]: m["bound"] for m in sp["end_to_end"]}
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        print("\n".join(compare(a, b, sp)))
        return 0
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in sp["workloads"]]
    record = {"run_seconds": sp["run_seconds"], "seeds": seeds_of(args.seeds), "runs": {}, "summary": {}}
    for wl in names:
        runs = []
        for seed in record["seeds"]:
            runs.append(run_one(wl, seed, sp["run_seconds"]))
            print(f"{wl} seed {seed}: {runs[-1]['wall_s']:.1f} s wall, "
                  f"correct={runs[-1]['correct']}", file=sys.stderr)
        record["runs"][wl] = runs
        record["summary"][wl] = summarize(runs, bounds)
        for name, s in record["summary"][wl].items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- above bound/3"
            print(f"  {wl:13s} {name:16s} median {s['median']:12.4f} spread {s['spread']:.4f}"
                  f" bound {s['bound']}{flag}", file=sys.stderr)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
