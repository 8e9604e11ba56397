"""Set up one workload in a fresh interpreter and report when it is ready.

    python3 perfbench/setup_probe.py --workload NAME --seed N

Prints one JSON line: the system-wide monotonic clock (ns) at the moment
the first op could start, and the seconds spent importing `symcomp.cli`,
compiling the rule catalog, parsing the built-in session scripts and
making the inputs.  `run.py` starts this several times, scales each
ready time minus spawn time with the gauge (see gauge.py) and takes the
median as `setup_s`.
"""
import argparse
import json
import time

import checkout


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    checkout.require_sources()
    t0 = time.perf_counter()
    import symcomp.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    import workloads

    workload = workloads.build(args.workload, args.seed)
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    print(json.dumps({"ready_ns": ready_ns, "import_s": import_s,
                      "parse_script_s": workload.setup.get("parse_script_s", 0.0),
                      "rulesets_s": workload.setup["rulesets_s"],
                      "inputs_s": workload.setup["inputs_s"]}))


if __name__ == "__main__":
    main()
