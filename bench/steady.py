"""Steadiness check: run workloads in two alternating sets of runs.

    python3 bench/steady.py --runs 10 --seconds 30
    python3 bench/steady.py --workloads screen --runs 5

Each run gets its own seed.  Runs alternate between set A and set B
(A B, B A, A B, ...), so that host drift falls on both sets alike.  For
every end-to-end metric the command prints each set's median and
quartiles, the spread (interquartile range over the median) and the
change of set B's median against set A's in the metric's worse
direction, and whether both stay within the metric's bound in
BENCHMARK.json.  It also prints each run's wall time and reference-loop
time, which tracks host speed.  The summary goes to
``bench/out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["host"] = json.loads(lines[-2].removeprefix("host: "))
    result["seed"] = seed
    result["wall_s"] = time.perf_counter() - start
    return result


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description="two alternating sets of benchmark runs")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--runs", type=int, default=10, help="runs per set")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--first-seed", type=int, default=1000)
    args = p.parse_args(argv)

    all_ok = True
    for workload in args.workloads.split(","):
        sets: list[list[dict]] = [[], []]
        seed = args.first_seed
        for i in range(args.runs):
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                result = run_once(workload, seed, args.seconds)
                seed += 1
                sets[s].append(result)
                print(
                    f"{workload} set {'AB'[s]} seed {result['seed']}: correct={result['correct']} "
                    f"failed={result['failed']}/{result['attempted']} wall_s={result['wall_s']:.1f} "
                    f"reference_pass_ms={result['host']['reference_pass_ms']['median']:.2f} "
                    + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                    flush=True,
                )
        report = {"workload": workload, "runs_per_set": args.runs, "seconds": args.seconds, "metrics": {}}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            change = stats[1]["median"] / stats[0]["median"] - 1
            worse = change if metric["better"] == "lower" else -change
            ok = all(s["spread"] <= bound for s in stats) and worse <= bound
            all_ok &= ok
            report["metrics"][name] = {"bound": bound, "sets": stats, "worse": worse, "ok": ok}
            cells = "  ".join(
                f"{'AB'[k]}: median {s['median']:.4g} q1 {s['q1']:.4g} q3 {s['q3']:.4g} spread {s['spread']:.3f}"
                for k, s in enumerate(stats)
            )
            print(f"{workload} {name} (bound {bound}): {cells}  B worse by {worse:+.3f}  {'ok' if ok else 'NOT OK'}")
            raw = [summarize([r["host"]["uncorrected"][name] for r in runs]) for runs in sets]
            report["metrics"][name]["uncorrected_sets"] = raw
            print(f"{workload} {name} uncorrected: " + "  ".join(
                f"{'AB'[k]}: median {s['median']:.4g} spread {s['spread']:.3f}" for k, s in enumerate(raw)
            ))
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        report["failed_shares"] = sorted(shares)
        report["all_correct"] = all(r["correct"] for runs in sets for r in runs)
        all_ok &= len(shares) == 1 and report["all_correct"]
        print(f"{workload} failed shares {sorted(shares)}  all correct {report['all_correct']}")
        report["runs"] = [[r for r in runs] for runs in sets]
        out = BENCH / "out" / f"steady-{workload}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
