"""Operator command line.

One scenario file drives a grid of (strategy, seed) runs; each run writes a
per-cycle CSV and a summary document, and the whole grid is condensed into a
cross-strategy comparison table of means over seeds. Everything the CLI does
is reachable through the library (`run_simulation` and friends); the CLI is
a thin shell over it.

Exit codes: 0 ok, 1 validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import replace
from pathlib import Path

from .engine import Metrics
from .scenario import (STRATEGIES, ScenarioConfig, ScenarioParseError,
                       is_valid, parse_scenario, validate_config)

COMPARISON_HEADER = ("strategy,seeds,mean_energy_total_J,mean_energy_data_J,"
                     "mean_energy_cfg_J,mean_generated,mean_delivered,"
                     "mean_lost,mean_latency_violations,mean_reconfigs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwdsim",
        description="Cycle-driven forwarding simulator: static, centrally "
                    "recomputed and locally repaired strategies over one "
                    "scenario file.")
    parser.add_argument("scenario", help="scenario file path")
    parser.add_argument("--strategy", nargs="+", choices=STRATEGIES,
                        help="strategies to run (default: the scenario's)")
    parser.add_argument("--seeds", nargs="+", type=int,
                        help="seeds to run (default: the scenario's)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--trace", action="store_true",
                        help="write a per-run message trace log")
    parser.add_argument("--full-horizon", action="store_true",
                        help="run the full-length horizon with unscaled energies")
    parser.add_argument("--validate-only", action="store_true",
                        help="report the constraint check and exit")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel workers for the run grid")
    return parser


def _run_one(cfg: ScenarioConfig) -> tuple[Metrics, list[str] | None]:
    from .engine import Simulation

    sim = Simulation(cfg)
    sim.run()
    return sim.metrics, (sim.trace_lines if cfg.trace else None)


def iter_grid(base: ScenarioConfig, strategies: list[str], seeds: list[int],
              workers: int = 1,
              ) -> Iterator[tuple[tuple[str, int], Metrics, list[str] | None]]:
    """Run every (strategy, seed) combination and yield each run's key,
    metrics and trace as the run finishes: in key order with one worker, in
    order of completion with more. Each run is deterministic regardless of
    scheduling. The generator keeps no reference to a run it has yielded,
    so a caller that drops each run before asking for the next holds one
    run's series at a time."""
    configs = {(s, seed): replace(base, strategy=s, seed=seed)
               for s in strategies for seed in seeds}
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending = {pool.submit(_run_one, configs[key]): key
                       for key in sorted(configs)}
            for future in as_completed(pending):
                yield (pending.pop(future), *future.result())
                del future   # and its result, before the next run is awaited
    else:
        for key in sorted(configs):
            yield (key, *_run_one(configs[key]))


def run_grid(base: ScenarioConfig, strategies: list[str], seeds: list[int],
             workers: int = 1) -> dict[tuple[str, int], tuple[Metrics, list[str] | None]]:
    """Every run of ``iter_grid``, by (strategy, seed)."""
    return {key: (metrics, trace)
            for key, metrics, trace in iter_grid(base, strategies, seeds, workers)}


def comparison_table(totals: dict[tuple[str, int], dict[str, float]]) -> str:
    """Means over seeds per strategy, from each run's ``Metrics.totals()``
    with its ``latency_violations`` added."""
    strategies = sorted({s for s, _ in totals})
    lines = [COMPARISON_HEADER]
    for strat in strategies:
        tot = [t for (s, _), t in sorted(totals.items()) if s == strat]
        n = len(tot)
        mean = lambda key: sum(t[key] for t in tot) / n
        lines.append(
            f"{strat},{n},"
            f"{mean('energy_data_j') + mean('energy_cfg_j'):.10g},"
            f"{mean('energy_data_j'):.10g},{mean('energy_cfg_j'):.10g},"
            f"{mean('generated'):.10g},{mean('delivered'):.10g},"
            f"{mean('lost'):.10g},{mean('latency_violations'):.10g},"
            f"{mean('reconfigurations'):.10g}"
        )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    path = Path(args.scenario)
    try:
        text = path.read_text()
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_scenario(text, origin=str(path))
    except ScenarioParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    findings = validate_config(cfg)
    for finding in findings:
        print(str(finding), file=sys.stderr)
    if not is_valid(findings):
        return 1
    if args.validate_only:
        print("scenario valid")
        return 0

    if args.full_horizon:
        cfg = cfg.full_horizon()
    if args.trace:
        cfg = replace(cfg, trace=True)
    strategies = args.strategy or [cfg.strategy]
    seeds = args.seeds or [cfg.seed]

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        # Each run's files are written as it arrives, and only its totals
        # kept, so memory holds one run's series, not the grid's.
        totals: dict[tuple[str, int], dict[str, float]] = {}
        for (strat, seed), metrics, trace in iter_grid(cfg, strategies, seeds,
                                                       workers=args.workers):
            totals[(strat, seed)] = {**metrics.totals(),
                                     "latency_violations": metrics.latency_violations}
            stem = f"{strat}_seed{seed}"
            (out_dir / f"{stem}.csv").write_text(metrics.csv_text())
            (out_dir / f"{stem}_summary.txt").write_text(metrics.summary_text())
            if trace is not None:
                (out_dir / f"{stem}_trace.log").write_text("\n".join(trace) + "\n")
            del metrics, trace   # before the next run is awaited
        (out_dir / "comparison.csv").write_text(comparison_table(totals))
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # runtime failure inside a run
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(totals)} runs to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
