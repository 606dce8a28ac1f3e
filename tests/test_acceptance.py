"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS line (failures
surface as ordinary assertion errors). The simulation criteria share a fixed
desk-scale setup: the default 18-node grid scenario, 20,000 cycles, seeds
1..10.
"""

import math
import random
import time
from dataclasses import replace

import pytest

from fwdsim import (DataPiece, InterferenceConfig, PlannerView, ScenarioConfig,
                    Simulation, bottleneck_path,
                    lifetime_from_spend, max_epoch_duration, path_bottleneck,
                    run_simulation, walk_chain)
from fwdsim.cli import run_grid

from conftest import surviving_violations
from oracles import (brute_force_epoch_bound, enumerate_best_bottleneck,
                     random_epoch_instance, random_planner_graph)
from test_protocol import run_random_sequence

SEEDS = list(range(1, 11))
STRATS = ("PDD", "PDD-CR", "DistrDataFwd")
WORKERS = 2

_collected_metrics = []


@pytest.fixture
def report(capfd):
    """One visible pass/fail line per criterion, bypassing output capture."""

    def _report(line: str) -> None:
        with capfd.disabled():
            print(line, flush=True)

    return _report


def total_energy(metrics) -> float:
    t = metrics.totals()
    return t["energy_data_j"] + t["energy_cfg_j"]


@pytest.fixture(scope="module")
def default_grid():
    """3 strategies x 10 seeds on the default scenario (criteria 6 and 9)."""
    results = run_grid(ScenarioConfig(), list(STRATS), SEEDS, workers=WORKERS)
    metrics = {k: v[0] for k, v in results.items()}
    _collected_metrics.extend(metrics.values())
    return metrics


def forced_death_config(seed: int, cycle: int = 3000) -> ScenarioConfig:
    """Default scenario plus forced deaths: one on-path relay (when the plan
    has one) and one consumer, mid-run."""
    probe = Simulation(ScenarioConfig(seed=seed, horizon=1))
    relay = None
    for piece in sorted(probe.pieces, key=lambda p: -p.rate):
        chain = walk_chain(probe.table, piece.id, piece.source)
        interior = [n for n in chain[1:-1]
                    if n != piece.proxy and n not in probe.net.proxies]
        if interior:
            relay = interior[0]
            break
    consumer = next(p.consumer for p in sorted(probe.pieces, key=lambda p: p.id)
                    if p.consumer != relay)
    deaths = tuple((cycle, n) for n in (relay, consumer) if n is not None)
    return replace(ScenarioConfig(seed=seed), forced_deaths=deaths)


@pytest.fixture(scope="module")
def forced_death_grid():
    """3 strategies x 10 seeds with forced deaths (criterion 8)."""
    out = {}
    for seed in SEEDS:
        cfg = forced_death_config(seed)
        results = run_grid(cfg, list(STRATS), [seed], workers=WORKERS)
        for key, (metrics, _) in results.items():
            out[key] = metrics
    _collected_metrics.extend(out.values())
    return out


@pytest.fixture(scope="module")
def rate_sweep():
    """PDD-CR vs DistrDataFwd across event rates (criterion 7)."""
    rates = (0.001, 0.01, 0.05, 0.10)
    out = {}
    for rate in rates:
        cfg = ScenarioConfig(interference=InterferenceConfig(prob_per_cycle=rate))
        results = run_grid(cfg, ["PDD-CR", "DistrDataFwd"], SEEDS,
                           workers=WORKERS)
        for (strat, seed), (metrics, _) in results.items():
            out[(rate, strat, seed)] = metrics
    _collected_metrics.extend(out.values())
    return rates, out


def test_criterion_01_lifetime_cases_and_monotonicity(report):
    started = time.monotonic()
    phase_j = 5e-3   # config_phase_energy_j
    # One active link: the node's spend is eps * rate.
    assert lifetime_from_spend(0.0, 0.1 * 2.0, phase_j) == 0.0
    assert lifetime_from_spend(phase_j / 2, 0.1 * 2.0, phase_j) == 1.0
    assert lifetime_from_spend(10.0, 0.1 * 2.0, phase_j) == 50.0
    rng = random.Random(101)
    for _ in range(2000):
        energy = rng.uniform(0.01, 50.0)
        rate = rng.uniform(0.0, 8.0)
        eps = rng.uniform(1e-6, 1e-3)
        more_energy = lifetime_from_spend(energy + rng.uniform(0, 10),
                                          eps * rate, phase_j)
        base = lifetime_from_spend(energy, eps * rate, phase_j)
        assert more_energy >= base
        if energy > phase_j:
            loaded = lifetime_from_spend(energy,
                                         eps * (rate + rng.uniform(0, 4)), phase_j)
            assert loaded <= base
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(f"ACCEPTANCE 1 PASS lifetime three cases exact, monotone "
           f"({elapsed:.2f}s)")


def test_criterion_02_epoch_bound_matches_enumeration(report):
    started = time.monotonic()
    phase_j = 5e-3   # config_phase_energy_j
    rng = random.Random(202)
    for _ in range(200):
        net, table, pieces = random_epoch_instance(rng)
        got = max_epoch_duration(net, pieces, phase_j)
        want = brute_force_epoch_bound(net, table, pieces, phase_j)
        assert got == want or (math.isinf(got) and math.isinf(want))
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report(f"ACCEPTANCE 2 PASS epoch bound equals brute force on 200 "
           f"instances ({elapsed:.2f}s)")


def test_criterion_03_bottleneck_path_matches_enumeration(report):
    started = time.monotonic()
    rng = random.Random(303)
    compared = 0
    for k in range(500):
        view, nodes = random_planner_graph(rng, max_nodes=8)
        src, dst = rng.sample(nodes, 2)
        budget = rng.choice([None, 15.0, 40.0, 120.0])
        rate = rng.randint(1, 8)
        round_trip = k % 2 == 0
        got = bottleneck_path(view, src, dst, budget, rate,
                              round_trip=round_trip)
        want = enumerate_best_bottleneck(view, src, dst, budget, rate,
                                         round_trip=round_trip)
        if want is None:
            assert got is None
            continue
        assert got is not None
        assert path_bottleneck(view, got, rate) == want[0]
        if budget is not None:
            latency = sum(view.edges[(u, v)][1]
                          + (view.edges[(v, u)][1] if round_trip else 0.0)
                          for u, v in zip(got, got[1:]))
            assert latency <= budget
        compared += 1
    assert compared >= 200
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(f"ACCEPTANCE 3 PASS bottleneck path equals enumeration on 500 "
           f"graphs, {compared} feasible, budget always respected "
           f"({elapsed:.2f}s)")


def test_criterion_04_loop_freedom_over_random_sequences(report):
    started = time.monotonic()
    deaths_seen = 0
    for seq in range(1000):
        sim = run_random_sequence(seq)
        bad = surviving_violations(sim)
        assert not bad, f"sequence {seq}: {bad}"
        assert sim.pending_message_count() == 0
        deaths_seen += len(sim.metrics.death_times)
    elapsed = time.monotonic() - started
    assert deaths_seen > 500
    assert elapsed < 120.0
    report(f"ACCEPTANCE 4 PASS zero loop or symmetry violations across 1000 "
           f"failure/repair sequences, {deaths_seen} deaths exercised "
           f"({elapsed:.1f}s)")


def test_criterion_05_piece_conservation(report, default_grid,
                                         forced_death_grid, rate_sweep):
    checked = 0
    for metrics in _collected_metrics:
        prev = (0, 0, 0)
        s = metrics.series()
        for k in range(len(s["cycles"])):
            g, d, l = s["generated"][k], s["delivered"][k], s["lost"][k]
            dg, dd, dl = g - prev[0], d - prev[1], l - prev[2]
            assert dg == dd + dl, "per-cycle conservation"
            prev = (g, d, l)
            checked += 1
        assert metrics.in_transit == 0
    report(f"ACCEPTANCE 5 PASS generated = delivered + lost + in-transit at "
           f"every cycle ({checked} cycle checks across "
           f"{len(_collected_metrics)} runs)")


def test_criterion_06_energy_ordering(report, default_grid):
    means = {}
    for strat in STRATS:
        runs = [default_grid[(strat, s)] for s in SEEDS]
        means[strat] = sum(total_energy(m) for m in runs) / len(runs)
    assert means["PDD"] <= means["DistrDataFwd"], means
    assert means["DistrDataFwd"] < means["PDD-CR"], means
    ratio = means["DistrDataFwd"] / means["PDD"]
    assert ratio <= 1.15, f"local repair exceeds 15% of the static plan: {ratio}"
    report(f"ACCEPTANCE 6 PASS mean energy PDD={means['PDD']:.2f} <= "
           f"DistrDataFwd={means['DistrDataFwd']:.2f} < "
           f"PDD-CR={means['PDD-CR']:.2f} J; ratio to PDD {ratio:.3f} <= 1.15")


def test_criterion_07_reconfiguration_gap_growth(report, rate_sweep):
    rates, grid = rate_sweep
    for seed in SEEDS:
        gaps = []
        for rate in rates:
            cr = grid[(rate, "PDD-CR", seed)].totals()["energy_cfg_j"]
            distr = grid[(rate, "DistrDataFwd", seed)].totals()["energy_cfg_j"]
            gaps.append(cr - distr)
        assert all(a < b for a, b in zip(gaps, gaps[1:])), (seed, gaps)
    report(f"ACCEPTANCE 7 PASS configuration-energy gap strictly increasing "
           f"across event rates {list(rates)} for every seed")


def test_criterion_08_loss_ordering_with_forced_deaths(report, forced_death_grid):
    def mean_lost(strat):
        return sum(forced_death_grid[(strat, s)].totals()["lost"]
                   for s in SEEDS) / len(SEEDS)

    pdd, cr, distr = mean_lost("PDD"), mean_lost("PDD-CR"), mean_lost("DistrDataFwd")
    assert pdd > cr, (pdd, cr)
    rel = abs(distr - cr) / cr
    assert rel <= 0.10, f"local repair strays {rel:.3f} from central recompute"
    report(f"ACCEPTANCE 8 PASS mean losses PDD={pdd:.0f} > PDD-CR={cr:.0f}, "
           f"DistrDataFwd={distr:.0f} within {rel * 100:.1f}% of PDD-CR")


def test_criterion_09_latency_guarantee(report, default_grid):
    cr_violations = [default_grid[("PDD-CR", s)].latency_violations
                     for s in SEEDS]
    assert all(v == 0 for v in cr_violations), cr_violations
    distr_violations = [default_grid[("DistrDataFwd", s)].latency_violations
                        for s in SEEDS]
    sampled = sum(default_grid[("PDD-CR", s)].requests_total for s in SEEDS)
    assert sampled > 0
    report(f"ACCEPTANCE 9 PASS PDD-CR recorded zero budget violations over "
           f"{sampled} sampled requests; DistrDataFwd violation counts "
           f"per seed: {distr_violations}")


def test_criterion_10_repeatability(report, default_grid, tmp_path):
    cfg = replace(ScenarioConfig(), strategy="DistrDataFwd", seed=4)
    again = run_simulation(cfg)
    assert again.csv_text() == default_grid[("DistrDataFwd", 4)].csv_text()
    assert again.summary_text() == default_grid[("DistrDataFwd", 4)].summary_text()

    from fwdsim import render_scenario
    from fwdsim.cli import main as cli_main
    scenario = tmp_path / "repeat.scenario"
    scenario.write_text(render_scenario(replace(ScenarioConfig(), horizon=500)))
    for out in ("a", "b"):
        assert cli_main([str(scenario), "--strategy", "DistrDataFwd",
                         "--seeds", "2", "--out", str(tmp_path / out)]) == 0
    a = (tmp_path / "a" / "DistrDataFwd_seed2.csv").read_bytes()
    b = (tmp_path / "b" / "DistrDataFwd_seed2.csv").read_bytes()
    assert a == b
    report("ACCEPTANCE 10 PASS repeated runs produce byte-identical CSVs")
