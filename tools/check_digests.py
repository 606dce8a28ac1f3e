"""Check every recorded benchmark run against its output digest.

    python3 tools/check_digests.py [--workload NAME]... [--strategy NAME]...

Runs every (workload, simulation seed, strategy) recorded in
``perfbench/reference.json`` to its recorded horizon, with the benchmark's
own scenario set-up, rendering, digest and path check (imported from
``perfbench/run.py``, which this script does not change). Prints one line per
mismatch or path problem, a closing count, and then the process CPU seconds
each (workload, strategy) took over its runs, set-up, run, rendering and
checks included. ``--workload`` and ``--strategy``, each repeatable,
restrict the check to the recorded runs of those workloads and strategies;
the counts then cover only those runs. Exit status: 0 when every run checked
matches and its paths are sound; 1 otherwise, and when no run was checked;
2 for an unknown option value.
Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Check recorded benchmark "
                                     "runs against their output digests.")
    parser.add_argument("--workload", action="append", default=[],
                        help="check only this workload (repeatable)")
    parser.add_argument("--strategy", action="append", default=[],
                        help="check only this strategy (repeatable)")
    args = parser.parse_args(argv)
    os.chdir(REPO)        # run.py reads scenario files relative to the working directory
    sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]
    import fwdsim
    from run import WORKLOADS, base_config, digest, path_problems, render

    reference = json.loads((REPO / "perfbench" / "reference.json").read_text())
    for option, given, known in (("--workload", args.workload, reference["workloads"]),
                                 ("--strategy", args.strategy, fwdsim.STRATEGIES)):
        unknown = sorted(set(given) - set(known))
        if unknown:
            parser.error(f"{option}: unknown {', '.join(unknown)}; "
                         f"choose from {', '.join(sorted(known))}")
    started = time.monotonic()
    checked = bad = 0
    cpu = {}   # (workload, strategy) -> [CPU seconds, runs]
    for name, ref in sorted(reference["workloads"].items()):
        if args.workload and name not in args.workload:
            continue
        cfg = base_config(fwdsim, WORKLOADS[name])
        for seed, runs in sorted(ref["runs"].items(), key=lambda kv: int(kv[0])):
            for strategy, recorded in sorted(runs.items()):
                if args.strategy and strategy not in args.strategy:
                    continue
                cpu_started = time.process_time()
                sim = fwdsim.Simulation(replace(cfg, strategy=strategy, seed=int(seed),
                                                horizon=ref["horizons"][strategy]))
                got = digest(*render(sim.run()))
                problems = path_problems(fwdsim, sim)
                spent = cpu.setdefault((name, strategy), [0.0, 0])
                spent[0] += time.process_time() - cpu_started
                spent[1] += 1
                if got != recorded["digest"]:
                    problems.append(f"digest {got[:16]} != recorded "
                                    f"{recorded['digest'][:16]}")
                checked += 1
                if problems:
                    bad += 1
                    print(f"FAIL {name} seed {seed} {strategy}: " + "; ".join(problems))
    print(f"{checked - bad}/{checked} runs match their recorded digests "
          f"({time.monotonic() - started:.1f} s)")
    for (name, strategy), (seconds, runs) in sorted(cpu.items()):
        print(f"cpu {name} {strategy}: {seconds:.2f} s over {runs} runs")
    return 1 if bad or not checked else 0


if __name__ == "__main__":
    sys.exit(main())
