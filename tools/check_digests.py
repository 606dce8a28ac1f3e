"""Check every recorded benchmark run against its output digest.

    python3 tools/check_digests.py

Runs every (workload, simulation seed, strategy) recorded in
``perfbench/reference.json`` to its recorded horizon, with the benchmark's
own scenario set-up, rendering, digest and path check (imported from
``perfbench/run.py``, which this script does not change). Prints one line per
mismatch or path problem, a closing count, and then the process CPU seconds
each (workload, strategy) took over its runs, set-up, run, rendering and
checks included. Exit status: 0 when every run matches and its paths are
sound, 1 otherwise. Stdlib only.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def main() -> int:
    os.chdir(REPO)        # run.py reads scenario files relative to the working directory
    sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]
    import fwdsim
    from run import WORKLOADS, base_config, digest, path_problems, render

    reference = json.loads((REPO / "perfbench" / "reference.json").read_text())
    started = time.monotonic()
    checked = bad = 0
    cpu = {}   # (workload, strategy) -> [CPU seconds, runs]
    for name, ref in sorted(reference["workloads"].items()):
        cfg = base_config(fwdsim, WORKLOADS[name])
        for seed, runs in sorted(ref["runs"].items(), key=lambda kv: int(kv[0])):
            for strategy, recorded in sorted(runs.items()):
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
