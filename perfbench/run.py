"""fwdsim benchmark: host time per simulated cycle for PDD, PDD-CR and
DistrDataFwd, on the desk, churn and replan workloads.

Run from the root of a checkout (it imports fwdsim from ``src/`` there):

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

One client drives the simulator in a closed loop, in this one process: each
(strategy, simulation seed) run goes to completion before the next starts. A
pass does what the command line does for the workload: parse the scenario,
``validate_config`` once, then set up, run and render every run. Passes
repeat while another one fits in ``--seconds``. Every run's CSV and summary
are hashed and compared with the digests recorded in ``reference.json``, and
its unbroken pieces must be free of loops and pointer asymmetry.

``--trace 1`` runs one untraced pass, one pass with spans at the layer
boundaries and one count-only pass over the first half of the same seeds,
and prints the per-layer metrics instead.
``--repeat N`` runs the workload N times in fresh processes and prints each
end-to-end metric's median, quartiles and spread against its bound.
``--record`` rebuilds the reference pool. See README.md beside this file.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Exit status: 0 ok, 1 a run failed its check,
2 the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from tracer import CallCounter, SpanRecorder, percentile, tail_quantile

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
REFERENCE = HERE / "reference.json"
OUT_DIR = HERE / "out"

# The command line's grid order: sorted strategy names.
STRATEGIES = ("DistrDataFwd", "PDD", "PDD-CR")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2027      # no tuning used it; later claims must hold on it too
DRAW_TRIES = 20000
BALANCE_TOL = 0.03
RECORD_PASSES = 3
CAL_REF_S = 0.0024       # calibrate() on the reference 2-core VM at its usual speed
CAL_EXPONENT = 0.7
CHUNK_S = 0.1            # target CPU seconds between calibrations inside a run
MESSAGE_TYPES = ("Alert", "Join", "ModifyPath", "RouteRequest", "RouteReply")


class BenchError(RuntimeError):
    pass


@dataclass(frozen=True)
class Workload:
    scenario: str                       # shipped scenario file, read as is
    changes: dict                       # ScenarioConfig fields replaced after parsing
    interference: tuple | None          # (prob, multiplier, links, duration) or None
    horizons: dict                      # strategy -> simulated cycles per run
    sims: int                           # simulation seeds per pass
    pool: int                           # recorded simulation seeds the draw picks from


WORKLOADS = {
    # The shipped desk scenario, unchanged: quiet cycles, engine loop and
    # DistrDataFwd's idle protocol polling.
    "desk": Workload("scenarios/default.scenario", {}, None,
                     {s: 20_000 for s in STRATEGIES}, sims=3, pool=30),
    # Forced deaths at cycle 3000 under the rate sweep's top interference:
    # many small central replans and many local repair messages.
    "churn": Workload("scenarios/forced_death.scenario", {}, (0.1, 3.0, 2, 1),
                      {s: 3_500 for s in STRATEGIES}, sims=4, pool=30),
    # An 8x8 grid: a few large plans dominate PDD-CR and every set-up; PDD and
    # DistrDataFwd run longer to exercise the engine on 64 nodes.
    "replan": Workload("scenarios/default.scenario",
                       {"rows": 8, "cols": 8, "proxies": (18, 21, 42, 45)},
                       (0.05, 3.0, 2, 1),
                       {"DistrDataFwd": 2_000, "PDD": 2_000, "PDD-CR": 200},
                       sims=4, pool=30),
}

# End-to-end metrics: (name, unit, clock).
E2E = [(f"us_per_cycle.{s}", "us/cycle", "process CPU, calibrated")
       for s in STRATEGIES] + [
    ("setup_s", "s", "process CPU, calibrated"),
    ("wall_s", "s", "wall clock, calibrated"),
    ("peak_rss_mb", "MB", "resident memory"),
]


# --------------------------------------------------------------------- loading

def load_fwdsim():
    """Import fwdsim from the checkout's ``src/`` and nowhere else."""
    pkg = ROOT / "src" / "fwdsim"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no fwdsim sources at {pkg}; run from a checkout's root")
    sys.path.insert(0, str(ROOT / "src"))
    import fwdsim
    if Path(fwdsim.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"imported fwdsim from {fwdsim.__file__}, not {pkg}")
    return fwdsim


def base_config(fw, wl: Workload):
    path = ROOT / wl.scenario
    try:
        text = path.read_text()
    except OSError as exc:
        raise BenchError(f"cannot read scenario: {exc}") from exc
    cfg = fw.parse_scenario(text, origin=wl.scenario)
    if wl.interference is not None:
        cfg = replace(cfg, interference=fw.InterferenceConfig(*wl.interference))
    return replace(cfg, **wl.changes)


def load_reference(path: Path, name: str) -> dict:
    try:
        data = json.loads(path.read_text())
        return data["workloads"][name]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no reference for workload {name} in {path}: {exc}") from exc


def draw_seeds(name: str, ref: dict, seed: int, k: int) -> list[int]:
    """Pick k simulation seeds from the recorded pool, deterministically in
    ``seed``. The first draw whose recorded work matches k times the pool mean
    within BALANCE_TOL, for every strategy's run time and for the total, is
    taken (balanced sampling), so runs with different seeds carry comparable
    work; failing that, the closest of DRAW_TRIES draws."""
    runs = ref["runs"]
    pool = sorted(int(s) for s in runs)
    if k >= len(pool):
        return pool

    def costs(s: int) -> list[float]:
        per = runs[str(s)]
        return [per[st]["run_cpu_s"] for st in STRATEGIES] + [
            sum(per[st]["run_cpu_s"] + per[st]["setup_cpu_s"] for st in STRATEGIES)]

    table = {s: costs(s) for s in pool}
    target = [k * statistics.fmean(c[j] for c in table.values())
              for j in range(len(STRATEGIES) + 1)]
    rng = random.Random(f"{name}:{seed}")
    best = None
    for _ in range(DRAW_TRIES):
        pick = sorted(rng.sample(pool, k))
        dev = max(abs(sum(table[s][j] for s in pick) / target[j] - 1.0)
                  for j in range(len(target)) if target[j] > 0)
        if dev <= BALANCE_TOL:
            return pick
        if best is None or dev < best[0]:
            best = (dev, pick)
    return best[1]


# ----------------------------------------------------------------------- passes

def digest(csv_text: str, summary_text: str) -> str:
    return hashlib.sha256((csv_text + "\0" + summary_text).encode()).hexdigest()


def render(metrics) -> tuple[str, str]:
    return metrics.csv_text(), metrics.summary_text()


def path_problems(fw, sim) -> list[str]:
    """Loops on any piece that is not marked broken, and pointer asymmetry
    too once no protocol message is in flight. A repair that is still
    travelling leaves one side of a pointer pair rewritten and the other
    not yet, so asymmetry is legal mid-repair; the test suite checks it
    after a quiet tail for the same reason."""
    intact = [p for p in sim.pieces if not sim.piece_status[p.id].broken]
    report = fw.validate_paths(sim.net, sim.table, intact)
    kinds = ("loop",) if sim.pending_message_count() else ("loop", "pointer-asymmetry")
    return [f"{v.kind} on piece {v.piece_id}: {v.detail}" for v in report.of_kind(*kinds)]


class Hooks:
    """What a pass lets the tracing modes see; the timed mode uses these
    no-op defaults."""

    def wrap(self, name: str, fn):
        return fn

    def begin(self, strategy: str, seed: int) -> None:
        pass

    def end(self, sim) -> None:
        pass


@dataclass
class PassResult:
    """Timings of one pass, each already scaled to reference speed."""
    wall_s: float = 0.0
    setup_cpu_s: list = field(default_factory=list)
    run_cpu_s: dict = field(default_factory=lambda: dict.fromkeys(STRATEGIES, 0.0))
    cycles: dict = field(default_factory=lambda: dict.fromkeys(STRATEGIES, 0))
    speeds: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def calibrate() -> float:
    """Process CPU seconds of a fixed pure-Python kernel (dict, arithmetic,
    string and sort work), best of three."""
    best = float("inf")
    for _ in range(3):
        c0 = time.process_time()
        table: dict[int, int] = {}
        acc = 0
        for i in range(6000):
            k = (i * 7919) % 1009
            table[k] = table.get(k, 0) + i
            acc += len(str(i))
        acc += sorted(table.items())[0][1]
        best = min(best, time.process_time() - c0)
    return best


class SpeedClock:
    """Times a call in process CPU and wall time, both scaled to reference
    speed. A shared 2-core VM's speed swings by up to 1.7x from one second to
    the next, CPU time included, so each timed call is bracketed by
    calibrations and scaled by CAL_REF_S over their mean, to the power
    CAL_EXPONENT: simulation time moves with kernel time to a power of
    0.57-0.78 on such a VM. Calibration runs between timed calls, untimed."""

    def __init__(self, res: PassResult):
        self.res = res
        self.last = calibrate()

    def time(self, fn):
        """(fn's result, scaled CPU seconds, raw CPU seconds)."""
        w0 = time.perf_counter()
        c0 = time.process_time()
        out = fn()
        cpu = time.process_time() - c0
        wall = time.perf_counter() - w0
        now = calibrate()
        speed = (2 * CAL_REF_S / (self.last + now)) ** CAL_EXPONENT
        self.last = now
        self.res.speeds.append(speed)
        self.res.wall_s += wall * speed
        return out, cpu * speed, cpu


def run_pass(fw, name: str, wl: Workload, ref: dict, seeds: list[int],
             hooks: Hooks = Hooks(), recorded: dict | None = None) -> PassResult:
    """The workload as the command line runs it, for the given seeds.

    A run advances in chunks of about CHUNK_S through ``Simulation.run(n)``
    so that calibrations are spread over it; the outputs are those of one
    ``run()``. Garbage is collected between runs, untimed. With
    ``recorded``, each run's digest and costs are stored there instead of
    being compared with the reference."""
    res = PassResult()
    gc.collect()
    clock = SpeedClock(res)
    cfg, _, _ = clock.time(lambda: base_config(fw, wl))
    res.attempted += 1
    validate = hooks.wrap("scenario.validate_config", fw.validate_config)
    findings, _, _ = clock.time(lambda: validate(
        replace(cfg, seed=seeds[0], horizon=max(ref["horizons"].values()))))
    if not fw.is_valid(findings):
        res.failed += 1
        print(f"FAIL {name}: validate_config: {'; '.join(map(str, findings))}",
              file=sys.stderr)
    do_render = hooks.wrap("render", render)
    for strategy in STRATEGIES:
        horizon = ref["horizons"][strategy]
        for seed in seeds:
            run_cfg = replace(cfg, strategy=strategy, seed=seed, horizon=horizon)
            expected = ref["runs"].get(str(seed), {}).get(strategy, {}).get("digest")
            res.attempted += 1
            hooks.begin(strategy, seed)
            setup_s = run_s = 0.0
            try:
                sim, setup_s, _ = clock.time(lambda: fw.Simulation(run_cfg))
                chunk = 16
                while sim.cycle < horizon:
                    n = min(chunk, horizon - sim.cycle)
                    _, scaled, raw = clock.time(lambda: sim.run(n))
                    run_s += scaled
                    if raw < CHUNK_S / 2:
                        chunk *= 2
                    elif raw > 2 * CHUNK_S and chunk > 1:
                        chunk //= 2
                texts, _, _ = clock.time(lambda: do_render(sim.metrics))
                got = digest(*texts)
                problems = path_problems(fw, sim)
                reconfigurations = sim.metrics.totals()["reconfigurations"]
                hooks.end(sim)
            except Exception:   # any failure inside a run counts against it
                problems = ["raised\n" + traceback.format_exc()]
                got = expected
            sim = None
            gc.collect()
            if recorded is not None and not problems:
                recorded.setdefault(str(seed), {})[strategy] = {
                    "digest": got, "setup_cpu_s": round(setup_s, 4),
                    "run_cpu_s": round(run_s, 4),
                    "reconfigurations": reconfigurations}
            elif got != expected:
                problems.append(f"output digest {got[:16]} != reference "
                                f"{(expected or 'missing')[:16]}")
            if problems:
                res.failed += 1
                print(f"FAIL {name} {strategy} seed {seed}: "
                      + "; ".join(problems), file=sys.stderr)
                continue
            res.setup_cpu_s.append(setup_s)
            res.run_cpu_s[strategy] += run_s
            res.cycles[strategy] += horizon
    return res


def warm_up(fw) -> None:
    """Short untimed runs of every strategy on the library's default
    scenario, so first-call costs land outside the timed passes."""
    for strategy in STRATEGIES:
        fw.Simulation(fw.ScenarioConfig(strategy=strategy, horizon=300)).run()


# --------------------------------------------------------------------- results

def emit(lines: list[str], correct: bool, attempted: int, failed: int,
         metrics: dict) -> None:
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def failure_line(attempted: int, failed: int) -> str:
    return (f"runs_failed_frac = {failed / attempted} ratio "
            f"({failed} failed of {attempted} attempted)")


def timed_run(fw, name: str, args) -> int:
    wl = WORKLOADS[name]
    ref = load_reference(args.reference, name)
    seeds = draw_seeds(name, ref, args.seed, wl.sims)
    warm_up(fw)
    deadline = time.perf_counter() + args.seconds
    passes: list[PassResult] = []
    while True:
        started = time.perf_counter()
        passes.append(run_pass(fw, name, wl, ref, seeds))
        if 2 * time.perf_counter() - started > deadline:   # another pass would overrun
            break
    values = {}
    for s in STRATEGIES:
        values[f"us_per_cycle.{s}"] = statistics.median(
            p.run_cpu_s[s] / p.cycles[s] * 1e6 if p.cycles[s] else 0.0 for p in passes)
    setups = [x for p in passes for x in p.setup_cpu_s]
    values["setup_s"] = statistics.median(setups) if setups else 0.0
    values["wall_s"] = statistics.median(p.wall_s for p in passes)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    lines = [f"workload {name}: seed {args.seed}, simulation seeds "
             f"{','.join(map(str, seeds))}, horizons "
             + ",".join(f"{s}={ref['horizons'][s]}" for s in STRATEGIES)
             + f", {len(passes)} passes (medians over passes); speed factors "
             + ", ".join(f"{statistics.median(p.speeds):.3f}" for p in passes)
             + " (reference calibration / measured; raw time = value / factor)"]
    lines += [f"{m} = {values[m]} {unit} ({clock})" for m, unit, clock in E2E]
    lines.append(failure_line(attempted, failed))
    emit(lines, failed == 0, attempted, failed,
         {m: {"value": values[m], "unit": unit} for m, unit, _ in E2E})
    return 1 if failed else 0


# ----------------------------------------------------------------- traced mode

class TraceHooks(Hooks):
    def __init__(self, recorder: SpanRecorder | None = None):
        self.recorder = recorder
        self.labels: list[str] = []
        self.strategy_of_run: list[str] = []
        self.diagnostics = 0

    def wrap(self, name, fn):
        return self.recorder.wrap(name, fn) if self.recorder is not None else fn

    def begin(self, strategy, seed):
        self.labels.append(f"{strategy}/seed{seed}")
        self.strategy_of_run.append(strategy)
        if self.recorder is not None:
            self.recorder.run_id = len(self.labels) - 1

    def end(self, sim):
        self.diagnostics += len(sim.diagnostics)
        if self.recorder is not None:
            self.recorder.run_id = -1


def layer_metrics(rec: SpanRecorder, hooks: TraceHooks, traced: PassResult,
                  plain: PassResult, counter: CallCounter,
                  diagnostics: int) -> tuple[dict, list[str]]:
    """Per-layer metrics (name -> (value, unit)) and notes on sample counts."""
    dur, self_time = rec.durations()
    spans: dict[str, list[int]] = {n: [] for n in rec.names}
    for i, nid in enumerate(rec.name):
        spans[rec.names[nid]].append(i)
    run_name = rec.names.index("Simulation.run") if "Simulation.run" in rec.names else -1

    def run_strategy(i: int) -> str | None:
        """Strategy of the nearest enclosing Simulation.run span, if any."""
        p = rec.parent[i]
        while p >= 0 and rec.name[p] != run_name:
            p = rec.parent[p]
        return hooks.strategy_of_run[rec.run[p]] if p >= 0 else None

    def times(name: str, scale: float) -> list[float]:
        return [dur[i] * scale for i in spans.get(name, [])]

    def mean(name: str, scale: float) -> float:
        xs = times(name, scale)
        return sum(xs) / len(xs) if xs else 0.0

    run_total = dict.fromkeys(STRATEGIES, 0.0)
    run_self = dict.fromkeys(STRATEGIES, 0.0)
    for i in spans.get("Simulation.run", []):
        s = hooks.strategy_of_run[rec.run[i]]
        run_total[s] += dur[i]
        run_self[s] += self_time[i]
    plans = spans.get("planner.compute_plan", [])
    cr_plan = sum(dur[i] for i in plans if run_strategy(i) == "PDD-CR")
    c = counter.counts
    nplans = c["planner.compute_plan"]
    nc_calls = c["protocol.node_cycle"]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def pct(name: str, scale: float, q: float) -> float:
        return percentile(times(name, scale), q)

    def count(name: str) -> int:
        return len(spans.get(name, []))

    m: dict[str, tuple[float, str]] = {
        "planner.compute_plan.calls": (len(plans), "count"),
        "planner.compute_plan.ms_p50": (pct("planner.compute_plan", 1e3, 0.5), "ms"),
        "planner.compute_plan.ms_p90": (pct("planner.compute_plan", 1e3, 0.9), "ms"),
        "planner.share.PDD-CR": (ratio(cr_plan, run_total["PDD-CR"]), "ratio"),
        "planner.bottleneck_path.calls_per_plan": (
            ratio(count("planner.bottleneck_path"), len(plans)), "count/plan"),
        "planner.bottleneck_path.us_p50": (pct("planner.bottleneck_path", 1e6, 0.5), "us"),
        "planner.bottleneck_path.us_p99": (pct("planner.bottleneck_path", 1e6, 0.99), "us"),
        "planner.out_neighbors.calls_per_plan": (
            ratio(c["planner.out_neighbors"], nplans), "count/plan"),
        "planner.labels_per_plan": (
            ratio(c["planner.lifetime_from_spend"], nplans), "count/plan"),
        "protocol.node_cycle.calls": (nc_calls, "count"),
        "protocol.node_cycle.share": (
            ratio(sum(times("protocol.node_cycle", 1.0)), run_total["DistrDataFwd"]), "ratio"),
        "protocol.node_cycle.useful_ratio": (
            ratio(c["protocol.node_cycle.useful"], nc_calls), "ratio"),
    }
    for kind in MESSAGE_TYPES:
        m[f"protocol.msgs.{kind}"] = (counter.messages.get(kind, 0), "count")
    m["protocol.diagnostics"] = (diagnostics, "count")
    for s in STRATEGIES:
        m[f"engine.self_us_per_cycle.{s}"] = (
            ratio(run_self[s], traced.cycles[s]) * 1e6, "us/cycle")
    m.update({
        "engine.inject_interference.us_per_call": (
            mean("engine.inject_interference", 1e6), "us"),
        "engine.sample_access_latency.calls": (count("engine.sample_access_latency"), "count"),
        "engine.sample_access_latency.us_p50": (
            pct("engine.sample_access_latency", 1e6, 0.5), "us"),
        "engine.render_ms": (mean("render", 1e3), "ms"),
        "netmodel.build_grid_topology.ms": (mean("netmodel.build_grid_topology", 1e3), "ms"),
        "lifetime.max_epoch_duration.ms": (mean("lifetime.max_epoch_duration", 1e3), "ms"),
        "scenario.sample_pieces.ms": (mean("scenario.sample_pieces", 1e3), "ms"),
        "netmodel.path_writes": (c["netmodel.path_writes"], "count"),
        "netmodel.install_path.calls": (c["netmodel.install_path"], "count"),
        "scenario.validate_config.s": (sum(times("scenario.validate_config", 1.0)), "s"),
        "trace.overhead_frac": (traced.wall_s / plain.wall_s - 1.0, "ratio"),
    })
    notes = [f"untraced pass {plain.wall_s:.3f} s wall, traced pass "
             f"{traced.wall_s:.3f} s wall, {len(rec)} spans; run time by strategy "
             + ", ".join(f"{s} {run_total[s]:.3f} s" for s in STRATEGIES)]
    for name, scale, unit in (("planner.compute_plan", 1e3, "ms"),
                              ("planner.bottleneck_path", 1e6, "us"),
                              ("engine.sample_access_latency", 1e6, "us"),
                              ("protocol.node_cycle", 1e6, "us")):
        xs = times(name, scale)
        q = tail_quantile(len(xs))
        notes.append(f"{name}: n={len(xs)} p50={percentile(xs, 0.5):.4g} {unit} "
                     f"p{q * 100:g}={percentile(xs, q):.4g} {unit} "
                     f"(highest percentile with >=10 samples beyond it)")
    notes.append(f"counted pass: {nplans} plans, {c['planner.out_neighbors']} "
                 f"out_neighbors calls, {c['planner.lifetime_from_spend']} labels, "
                 f"{c['protocol.node_cycle.useful']} of {nc_calls} node_cycle calls useful")
    return m, notes


def trace_run(fw, name: str, args) -> int:
    wl = WORKLOADS[name]
    ref = load_reference(args.reference, name)
    # Half the draw: three passes over it stay well inside the time limit.
    seeds = draw_seeds(name, ref, args.seed, wl.sims)[:(wl.sims + 1) // 2]
    warm_up(fw)
    plain = run_pass(fw, name, wl, ref, seeds)
    rec = SpanRecorder()
    span_hooks = TraceHooks(rec)
    with rec.install(fw):
        traced = run_pass(fw, name, wl, ref, seeds, span_hooks)
    counter = CallCounter()
    count_hooks = TraceHooks()
    with counter.install(fw):
        counted = run_pass(fw, name, wl, ref, seeds, count_hooks)
    metrics, notes = layer_metrics(rec, span_hooks, traced, plain, counter,
                                   count_hooks.diagnostics)
    out = args.out / f"spans_{name}_seed{args.seed}.csv.gz"
    rec.write(out, span_hooks.labels)
    attempted = plain.attempted + traced.attempted + counted.attempted
    failed = plain.failed + traced.failed + counted.failed
    lines = [f"workload {name}: seed {args.seed}, simulation seeds "
             f"{','.join(map(str, seeds))}; spans written to {out}"] + notes
    lines += [f"{k} = {v} {unit}" for k, (v, unit) in metrics.items()]
    lines.append(failure_line(attempted, failed))
    emit(lines, failed == 0, attempted, failed,
         {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()})
    return 1 if failed else 0


# ------------------------------------------------------------ steadiness mode

def steadiness(name: str, args) -> int:
    """Run the workload ``--repeat`` times in fresh processes, seeds
    ``--seed`` upwards, and report each end-to-end metric's spread: the
    distance between its quartiles as a share of its median."""
    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    values: dict[str, list[float]] = {}
    failed = 0
    for k in range(args.repeat):
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed + k), "--seconds", str(args.seconds),
               "--trace", "0", "--reference", str(args.reference)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            failed += 1
            print(f"seed {args.seed + k}: exit {proc.returncode}\n{proc.stderr}")
            continue
        result = json.loads(lines[-1])
        print(f"seed {args.seed + k}: " + ", ".join(
            f"{m}={v['value']:.6g}" for m, v in result["metrics"].items()), flush=True)
        for m, v in result["metrics"].items():
            values.setdefault(m, []).append(v["value"])
    flagged = 0
    for m, xs in values.items():
        if len(xs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(m)
        over = bound is not None and m != "setup_s" and spread > bound
        flagged += over
        print(f"{m}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} "
              f"bound {bound}{'  OVER BOUND' if over else ''}")
    return 1 if failed or flagged else 0


# ---------------------------------------------------------------- record mode

def record(fw, name: str, args) -> int:
    """Run every pool seed RECORD_PASSES times and store each run's output
    digest, which must repeat exactly, and its median calibrated costs; the
    costs drive the balanced draw."""
    wl = WORKLOADS[name]
    ref = {"horizons": {s: args.horizon or wl.horizons[s] for s in STRATEGIES},
           "runs": {}}
    warm_up(fw)
    for seed in range(1, (args.pool_size or wl.pool) + 1):
        samples = []
        for _ in range(RECORD_PASSES):
            got: dict = {}
            if run_pass(fw, name, wl, ref, [seed], recorded=got).failed:
                raise BenchError(f"{name} seed {seed} failed its check; not recorded")
            samples.append(got[str(seed)])
        entry = {}
        for s in STRATEGIES:
            runs = [sample[s] for sample in samples]
            if len({r["digest"] for r in runs}) != 1:
                raise BenchError(f"{name} seed {seed} {s}: outputs differ between runs")
            entry[s] = dict(runs[0], **{
                key: statistics.median(r[key] for r in runs)
                for key in ("setup_cpu_s", "run_cpu_s")})
        ref["runs"][str(seed)] = entry
        print(f"{name} seed {seed}: " + ", ".join(
            f"{s} {entry[s]['run_cpu_s']} s" for s in STRATEGIES), flush=True)
    data = {"workloads": {}}
    if args.reference.exists():
        data = json.loads(args.reference.read_text())
    data["workloads"][name] = ref
    args.reference.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(ref['runs'])} seeds of {name} in {args.reference}")
    return 0


# ------------------------------------------------------------------------ main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}; "
                        f"held-out seed {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="time budget of the timed passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run")
    p.add_argument("--reference", type=Path, default=REFERENCE,
                   help="recorded pool with output digests")
    p.add_argument("--out", type=Path, default=OUT_DIR,
                   help="directory for span files")
    p.add_argument("--repeat", type=int, default=0,
                   help="steadiness mode: this many fresh runs")
    p.add_argument("--record", action="store_true",
                   help="rebuild the workload's pool in --reference")
    p.add_argument("--pool-size", type=int, default=0,
                   help="with --record: seeds 1..N (default: the workload's)")
    p.add_argument("--horizon", type=int, default=0,
                   help="with --record: one horizon for every strategy")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    args.reference = args.reference.resolve()
    try:
        fw = load_fwdsim()
        if args.repeat:
            return steadiness(args.workload, args)
        if args.record:
            return record(fw, args.workload, args)
        if args.trace:
            return trace_run(fw, args.workload, args)
        return timed_run(fw, args.workload, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
