"""Run the benchmark once per seed and workload, and report each metric's
run-to-run spread.

    python3 perfbench/spread.py --seconds S --seeds 14 2718 \
        --workload paper rewrite-scale oracle-identities rule-soundness

Prints, per run, every metric of the last JSON line of `run.py` and the
figures it prints but keeps out of that line (`fail_ratio` with its
counts, `trials_per_s` where the workload has one, and the unscaled
`raw.*` times).  Then, per
workload and metric: the median of the runs, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread,
(Q3 - Q1) / median.  Exits 1 if any run is not correct.  The results of
every run are written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import checkout


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(checkout.ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", str(trace)],
        cwd=checkout.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(checkout.OUT / f"result-{workload}-seed{seed}-trace{trace}.json",
              encoding="utf-8") as fh:
        extras = json.load(fh)["extras"]
    return {"seed": seed, **result, "extras": extras}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    ok = True
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            run = run_once(workload, seed, args.seconds, args.trace)
            runs.append(run)
            ok = ok and run["correct"]
            extras = " ".join(f"{k}={v['value']:.6g} {v['unit']} ({v['note']})"
                              for k, v in run["extras"].items())
            print(f"{workload} seed {seed}: correct={run['correct']} "
                  + " ".join(f"{k}={v['value']:.6g} {v['unit']}"
                             for k, v in run["metrics"].items())
                  + f" {extras}", flush=True)
        print(f"{workload}: {'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            print(f"{workload}: {name:<34} {median:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f}")
        seeds = "-".join(str(s) for s in args.seeds)
        with open(checkout.OUT / f"spread-{workload}-trace{args.trace}-seeds{seeds}.json",
                  "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=2)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
