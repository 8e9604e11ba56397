"""symcomp benchmark: one closed-loop client calling the engine in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: paper, rewrite-scale, oracle-identities, rule-soundness (see
workloads.py).  One client thread sends the next op only after the previous
verdict is back, as a user at the CLI or in a notebook does.  Every op's
output is checked against its known answer outside the timed interval; a
failed check counts into `failed` and never stops the run.

--trace 0 runs whole cycles of the workload's inputs for S seconds of wall
time, with fresh-process set-up and CLI runs spread over them, and reports
the end-to-end metrics.  Every time is scaled to one machine speed by the
gauge of gauge.py, sampled between ops; the raw figures are printed too.
--trace 1 first runs the workload untraced for S/2 seconds, then with
spans around each module's entry points for S/2 seconds, then the
rewrite-scale family k = 2..10, and reports the per-layer metrics per
cycle (one pass over the workload's inputs).  It checks that both halves
give the same verdicts and output digests and that every traced cycle
repeats the same counts.

The lines before the last are for people (environment stamp, every metric
with its unit and notes).  The last line is one JSON object with the keys
correct, attempted, failed and metrics.  Details, and with --trace 1 the
spans, are written under perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import checkout
from gauge import Gauge

SETUP_PROBES = 5   # --trace 1: for the set-up figures of the per-layer report
PROBE_PAIRS = 11   # --trace 0: set-up and CLI runs, alternating over the timed phase
PROBE_GAUGE_SAMPLES = 3   # gauge samples just before, and again just after, each probe
WARMUP_S = 0.3
CLI_MAIN = "import sys; from symcomp.cli import main; sys.exit(main())"
PROBE_TIMEOUT_S = 120
TRACEBACKS = 3     # failures whose traceback is printed

E2E_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s",
             "peak_rss_mb": "MB", "cli_paper_s": "s"}


@dataclass
class Verdicts:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, ok: bool, what: str, error: BaseException | None = None) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)
        if error is not None and self.failed <= TRACEBACKS:
            traceback.print_exception(error, file=sys.stderr)


@dataclass
class Phase:
    times: list      # seconds per op, scaled to the gauge's reference speed
    raw: list        # seconds per op as measured
    digests: dict    # input index -> output digest
    cycles: int      # whole cycles run


def checked(workload, item, run_op):
    """Run one op (timed) and its verdict (untimed).  Returns the op time,
    the verdict, the output digest and the exception that failed it."""
    t0 = time.perf_counter()
    try:
        out = run_op(item)
    except Exception as exc:  # a failed op is a verdict, not the end of the run
        return time.perf_counter() - t0, False, f"error:{type(exc).__name__}", exc
    elapsed = time.perf_counter() - t0
    try:
        ok, digest = workload.verify(item, out)
    except Exception as exc:
        return elapsed, False, f"error:{type(exc).__name__}", exc
    return elapsed, ok, digest, None


def warm_up(workload, verdicts: Verdicts) -> None:
    """Run ops in input order for WARMUP_S seconds (at least one op)."""
    start = time.perf_counter()
    for idx, item in enumerate(workload.inputs):
        _, ok, _, error = checked(workload, item, workload.op)
        verdicts.record(ok, f"warm-up op {idx}", error)
        if time.perf_counter() - start >= WARMUP_S:
            return


def run_phase(workload, seconds: float, verdicts: Verdicts, gauge: Gauge, recorder=None,
              probes=None) -> Phase:
    """Closed loop over whole cycles of the inputs for `seconds` of wall
    time, probes included: the cycle during which time runs out is the
    last.  `probes` runs the fresh-process probes that fall due as the
    phase goes on.  The gauge is sampled between ops, and each op time is
    scaled by the samples taken before and after it."""
    raw: list[float] = []
    before: list[int] = []
    digests: dict[int, str] = {}
    n = len(workload.inputs)
    cycles = 0
    op = workload.op
    if recorder is not None:
        def op(item, _op=workload.op):
            recorder.active = True
            try:
                return _op(item)
            finally:
                recorder.active = False
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for idx, item in enumerate(workload.inputs):
            if recorder is not None:
                recorder.op = cycles * n + idx
            before.append(gauge.tick())
            elapsed, ok, digest, error = checked(workload, item, op)
            raw.append(elapsed)
            if digests.setdefault(idx, digest) != digest:
                ok = False
            verdicts.record(ok, f"op {idx} of cycle {cycles}", error)
            if probes is not None:
                probes.run_due((time.perf_counter() - start) / seconds)
        cycles += 1
    gauge.sample()
    times = [t * gauge.scale(j, j + 1) for t, j in zip(raw, before)]
    return Phase(times, raw, digests, cycles)


def percentile(times: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile of the samples and how many samples lie beyond it."""
    ordered = sorted(times)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Probes:
    """Fresh-process measurements: set-up of the workload, and `symcomp paper
    --all` checked against its reference stdout.  `run_due` spreads them over
    the timed phase, so that they sample the machine over the same stretch
    of time as the ops do; each is scaled by the median of the gauge samples
    taken just before and just after it."""

    def __init__(self, workload: str, seed: int, reference: bytes, verdicts: Verdicts,
                 gauge: Gauge, plan: list[str]):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.verdicts = verdicts
        self.gauge = gauge
        self.plan = plan          # "setup" and "cli", in the order to run them
        self.setup: list[dict] = []
        self.cli: list[float] = []       # scaled seconds
        self.cli_raw: list[float] = []

    def run_due(self, share: float) -> None:
        """Run the probes of the plan that fall within `share` of it."""
        due = min(len(self.plan), math.floor(share * len(self.plan)))
        while len(self.setup) + len(self.cli) < due:
            kind = self.plan[len(self.setup) + len(self.cli)]
            first = self.gauge.sample(PROBE_GAUGE_SAMPLES) - PROBE_GAUGE_SAMPLES + 1
            raw = self._setup() if kind == "setup" else self._cli()
            last = self.gauge.sample(PROBE_GAUGE_SAMPLES)
            scaled = raw * self.gauge.scale(first, last)
            if kind == "setup":
                self.setup[-1]["setup_s"] = scaled
            else:
                self.cli.append(scaled)

    def _setup(self) -> float:
        spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(checkout.ROOT / "perfbench" / "setup_probe.py"),
             "--workload", self.workload, "--seed", str(self.seed)],
            cwd=checkout.ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: set-up of {self.workload} failed")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        probe["setup_raw_s"] = (probe["ready_ns"] - spawn_ns) / 1e9
        self.setup.append(probe)
        return probe["setup_raw_s"]

    def _cli(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", CLI_MAIN, "paper", "--all",
                               "--seed", str(self.seed)],
                              cwd=checkout.ROOT, env=checkout.child_env(),
                              capture_output=True, timeout=PROBE_TIMEOUT_S)
        self.cli_raw.append(time.perf_counter() - t0)
        ok = proc.returncode == 0 and proc.stdout == self.reference
        if not ok:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        self.verdicts.record(ok, f"cli paper --all run {len(self.cli_raw)}")
        return self.cli_raw[-1]

    def median(self, key: str) -> float:
        return statistics.median(p[key] for p in self.setup)


def end_to_end(args, workload, probes: Probes, verdicts: Verdicts, gauge: Gauge):
    phase = run_phase(workload, args.seconds, verdicts, gauge, probes=probes)
    probes.run_due(1.0)
    times = phase.times
    tail, beyond = percentile(times, workload.tail_pct)
    busy = sum(times)
    metrics = {
        "setup_s": probes.median("setup_s"),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": tail * 1e3,
        "ops_per_s": len(times) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cli_paper_s": statistics.median(probes.cli),
    }
    notes = {
        "setup_s": f"median of {len(probes.setup)} fresh processes",
        "op_p50_ms": f"{len(times)} ops in {phase.cycles} cycles of {len(workload.inputs)}",
        "op_tail_ms": f"p{workload.tail_pct:g} of {len(times)} ops, {beyond} beyond it",
        "cli_paper_s": f"median of {len(probes.cli)} runs of `symcomp paper --all`",
    }
    extras = {"fail_ratio": (verdicts.failed / verdicts.attempted, "ratio",
                             f"{verdicts.failed} failed of {verdicts.attempted} attempted")}
    if workload.trials_per_op:
        extras["trials_per_s"] = (workload.trials_per_op * len(times) / busy, "1/s",
                                  f"{workload.trials_per_op} exact evaluations per op")
    raw = "as measured, not scaled"
    extras.update({
        "raw.setup_s": (probes.median("setup_raw_s"), "s", raw),
        "raw.op_p50_ms": (statistics.median(phase.raw) * 1e3, "ms", raw),
        "raw.op_tail_ms": (percentile(phase.raw, workload.tail_pct)[0] * 1e3, "ms", raw),
        "raw.ops_per_s": (len(phase.raw) / sum(phase.raw), "1/s", raw),
        "raw.cli_paper_s": (statistics.median(probes.cli_raw), "s", raw),
    })
    return metrics, notes, extras


def per_layer(args, workload, probes: Probes, verdicts: Verdicts, gauge: Gauge,
              recorder):
    import tracing
    import workloads

    probes.run_due(1.0)
    untraced = run_phase(workload, args.seconds / 2, verdicts, gauge)
    recorder.install()
    traced = run_phase(workload, args.seconds / 2, verdicts, gauge, recorder)
    for idx in sorted(untraced.digests.keys() & traced.digests.keys()):
        verdicts.record(untraced.digests[idx] == traced.digests[idx],
                        f"traced and untraced digests of input {idx}")

    # The rewrite-scale family: one traced fixpoint per k, checked in the model.
    words = workloads.scale_words(args.seed)
    rewrite = workloads.rewrite_scale_op(workloads.scale_symbols(),
                                         workloads.rules.builtin_ruleset("rules2"))
    scale_terms = {}
    for k in workloads.SCALE_FAMILY:
        recorder.op = f"scale.k{k}"
        recorder.active = True
        value, result, _ = rewrite(workloads.scale_source(words[:k]))
        recorder.active = False
        scale_terms[k] = (tracing.terms(value), tracing.terms(result))
        report = workloads.oracle.check_identity(result - value, 1, args.seed)
        verdicts.record(report.passed, f"scale k={k} normal form equals its input in the model")

    n = len(workload.inputs)
    groups = tracing.tally_spans(recorder.spans,
                                 lambda op: op // n if isinstance(op, int) else op)
    cycles = [groups.get(c, tracing.Tally()) for c in range(traced.cycles)]
    counts, times, repeat = tracing.summarize(cycles)
    verdicts.record(repeat, "per-layer counts repeat in every traced cycle")

    metrics = {**counts, **times,
               "cli.import_s": probes.median("import_s"),
               "rules.builtin_ruleset.s": probes.median("rulesets_s"),
               "parser.parse_script.s": probes.median("parse_script_s")}
    for k in workloads.SCALE_FAMILY:
        g = groups[f"scale.k{k}"]
        metrics[f"scale.k{k}.terms_in"], metrics[f"scale.k{k}.terms_out"] = scale_terms[k]
        metrics[f"scale.k{k}.passes"] = g.calls.get("rules.apply_once", 0)
        metrics[f"scale.k{k}.fixpoint_s"] = g.incl.get("rules.apply_fixpoint", 0.0)
    metrics["trace.overhead_ms"] = (statistics.median(traced.times)
                                    - statistics.median(untraced.times)) * 1e3
    notes = {
        "trace.overhead_ms": f"traced minus untraced op_p50_ms, scaled "
                             f"({len(traced.times)} and {len(untraced.times)} ops)",
        "cli.import_s": f"medians of {len(probes.setup)} fresh processes",
    }
    extras = {"per_cycle": (n, "ops", f"per-layer figures are per cycle; times are "
                                      f"medians of {traced.cycles} traced cycles")}
    return metrics, notes, extras


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    checkout.require_sources()
    import workloads

    if args.workload not in workloads.NAMES:
        ap.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    stamp = checkout.env_stamp()
    checkout.pin_to_current_cpu()
    workload = workloads.build(args.workload, args.seed)
    verdicts = Verdicts()
    gauge = Gauge()
    plan = ["setup"] * SETUP_PROBES if args.trace else ["setup", "cli"] * PROBE_PAIRS
    probes = Probes(args.workload, args.seed,
                    (workloads.REFERENCE / "paper_all.txt").read_bytes(), verdicts, gauge, plan)
    warm_up(workload, verdicts)

    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        metrics, notes, extras = per_layer(args, workload, probes, verdicts, gauge,
                                           recorder)
    else:
        metrics, notes, extras = end_to_end(args, workload, probes, verdicts, gauge)
    stamp["loadavg_end"] = checkout.loadavg()
    stamp["gauge_ms"] = gauge.median()
    stamp["gauge_samples"] = len(gauge.samples)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench {tag} seconds={args.seconds:g}")
    print("env " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    rows = [(k, v, unit_of(k), notes.get(k)) for k, v in metrics.items()]
    rows += [(k, v, unit, note) for k, (v, unit, note) in extras.items()]
    for name, value, unit, note in rows:
        print(f"  {name:<34} {value:>16.6f} {unit:<6}" + (f" ({note})" if note else ""))
    print(f"  verdicts: {verdicts.failed} failed of {verdicts.attempted} attempted"
          + "".join(f"\n    failed: {f}" for f in verdicts.failures))

    result = {"correct": verdicts.failed == 0, "attempted": verdicts.attempted,
              "failed": verdicts.failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    checkout.OUT.mkdir(parents=True, exist_ok=True)
    with open(checkout.OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "env": stamp, "notes": notes,
                   "extras": {k: {"value": v, "unit": u, "note": n}
                              for k, (v, u, n) in extras.items()},
                   "argv": sys.argv[1:]}, fh, indent=2)
    if recorder is not None:
        recorder.dump(checkout.OUT / f"spans-{tag}.jsonl.gz",
                      {"workload": args.workload, "seed": args.seed, "env": stamp})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
