"""Golden output digests.

Every strategy on the shipped ``default`` and ``forced_death`` scenarios at
seeds 1-3, full horizon: the SHA-256 of ``csv_text() + summary_text()`` must
match the value recorded here, and so must the local-repair message trace of
both scenarios at seed 1. The central planner's ``Plan.to_text()`` is pinned
the same way on grids from 3x6 to 14x14, both for the initial network and
for a perturbed, replan-like copy of it, and so is every plan of a
PDD-CR run's chain of controller rounds. A change that moves a digest on
purpose updates it here and says why in CHANGES.md.
"""

import copy
import hashlib
import random
from dataclasses import replace
from pathlib import Path

from fwdsim import (InterferenceConfig, NetworkState, Simulation, compute_plan,
                    parse_scenario, planner, sample_pieces)

from conftest import churn_config

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    ("default", "PDD", 1):
        "4879872761c779781784a42c7c0937fae39c9a4ee745cbde1aae3f465567881d",
    ("default", "PDD", 2):
        "664d103b56316fc6c5465d8f72508e510e68ec8792ca7f886df9525deb6d91d3",
    ("default", "PDD", 3):
        "396ad9c8e0c7b5cae2ac9c19a5eed7db948305589222093b8feada28809ac7b8",
    ("default", "PDD-CR", 1):
        "90b63a81816b8401081e86cefcfba7bf0f15986b88511d12204d035a3a2ae9f1",
    ("default", "PDD-CR", 2):
        "d8fd81f63e4ce9b028c9d1583f2c7bfa961039f65a5c6e9794758368900e3fcd",
    ("default", "PDD-CR", 3):
        "077b8d1f5f9f5e35801699053d5cbcf1502b46e81a06578329e0646fa8a4c96a",
    ("default", "DistrDataFwd", 1):
        "cc22b139a6d011e8b6176e6cd673cf0a89665edb265772bf1c7c31b087f809d5",
    ("default", "DistrDataFwd", 2):
        "8737e64947c00801dea55365f63d6fbca68a95b75e6379cc01bae91b9b28ea72",
    ("default", "DistrDataFwd", 3):
        "f670b4258d8197de1a55122c9a223c075da3bdcb2a415f902802e18c2d4316e0",
    ("forced_death", "PDD", 1):
        "c6ba829769d3f1a19b0e072e49affb54dff370a056c3cd51a7500f33a9091ec2",
    ("forced_death", "PDD", 2):
        "6f1366d91744fc2b43e98ecdd1ce3397e935872e7d822fb2ef4664f228da33bc",
    ("forced_death", "PDD", 3):
        "25e22af15dd6c045f4f8e0a4d53f872657801735b3d02a712de681708fe8ce5d",
    ("forced_death", "PDD-CR", 1):
        "fae283b5ab83254cda4adb2997dd2efa0c8108798fffd2a6fb5b34b65f4293a6",
    ("forced_death", "PDD-CR", 2):
        "15c8399bf0fd6af8dd3a3da6d87e762a631dc1941ae3de903c0157d931cae1f3",
    ("forced_death", "PDD-CR", 3):
        "50bb04c5a5aaa5e5f94d1b71abdffd5e6c3af6a7829f80235a968da024fe6aa4",
    ("forced_death", "DistrDataFwd", 1):
        "def28f8ea0456ab5ade983fff4fb295b769840fd8ef1d291b5b3c09bac8d8ac8",
    ("forced_death", "DistrDataFwd", 2):
        "ceb4dbcdfb2033055fa3ddb7e7c53b6b5c92d2bfaec1af66952404465de6cf20",
    ("forced_death", "DistrDataFwd", 3):
        "25752dd9db663593df269f69284e94419a3d72427419dfb302b1284f65e3523c",
}

# DistrDataFwd at seed 1; these runs also supply that seed's output digest
# above, since tracing adds no output.
GOLDEN_TRACE = {
    "default":
        "4008e243d0b17ebe0fc253ff2d799417e4e4f45bf77fa28ca03a814cc79304e1",
    "forced_death":
        "23e0e9e38465652d6fa3e8eede39220f1765c81b1bd6997b1fb0d60531109037",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_outputs_match_golden_digests():
    got, got_trace = {}, {}
    for scenario, strategy, seed in GOLDEN:
        text = (SCENARIOS / f"{scenario}.scenario").read_text()
        traced = strategy == "DistrDataFwd" and seed == 1
        cfg = replace(parse_scenario(text), strategy=strategy, seed=seed,
                      trace=traced)
        sim = Simulation(cfg)
        metrics = sim.run()
        got[(scenario, strategy, seed)] = sha256(metrics.csv_text()
                                                 + metrics.summary_text())
        if traced:
            got_trace[scenario] = sha256("\n".join(sim.trace_lines))
    moved = {k: v for k, v in got.items() if GOLDEN[k] != v}
    moved_trace = {k: v for k, v in got_trace.items() if GOLDEN_TRACE[k] != v}
    assert not moved and not moved_trace, (moved, moved_trace)


# (rows, cols, seed, view) -> SHA-256 of Plan.to_text().
GOLDEN_PLANS = {
    (3, 6, 1, "initial"):
        "c9a2473dce76712b42ebea48804bb297e07878c7852656826c701235d1ba2870",
    (3, 6, 1, "perturbed"):
        "c9a2473dce76712b42ebea48804bb297e07878c7852656826c701235d1ba2870",
    (3, 6, 2, "initial"):
        "22e1cad702daf47b10e36b82bf8888868a5a668b2cd3fc6b36b906110fcd8e54",
    (3, 6, 2, "perturbed"):
        "d874958a2ccf4ae3edccbe502002e884bf97bf9ab91d8678da31d5ed163c84e4",
    (3, 6, 3, "initial"):
        "ecb64b385d2227a97e21e0de75357fa37ec6b0e54ddb5dff29431359e9316e9f",
    (3, 6, 3, "perturbed"):
        "4059486a68e3114bb806cec1534584a1f4261650cbb695a0458498597045c2ae",
    (6, 6, 1, "initial"):
        "4364f2412ce80042d882fbeddb045de9c86b428e14232fec6f025265d20b0e1b",
    (6, 6, 1, "perturbed"):
        "46b1600e3d394c2b7563c0e9a5711b0dd91335f4e5eff2d09e5fe8c375b506fa",
    (6, 6, 2, "initial"):
        "c7d3bea4ca15db24a5f393f627c402bd96a6fa0490e3f8939bc020ea89285414",
    (6, 6, 2, "perturbed"):
        "a0d9754fa61a235727f442ff5e51e3cf92cd2c329c2b1d49866ab1803352c267",
    (6, 6, 3, "initial"):
        "e746cad9dc94eb7f546401abd6f955989775759808aa03a029b37fd623829387",
    (6, 6, 3, "perturbed"):
        "84b6f8a5e86074263a4120cebc221a90f40e6d3a666926b9fa07030d8761b19c",
    (10, 10, 1, "initial"):
        "3f22ec90053d713a9f6c3f43e1e0ccdb1042388adfbf754d7ec88306e21cc4a1",
    (10, 10, 1, "perturbed"):
        "9dc3218960f740324984b230cd53a4897fc9f3c1aede5e5d77222d2cf1ca6a0f",
    (10, 10, 2, "initial"):
        "44f247a48e72c2420d18b7678f314f08f788d37a963d87578b6b4b7cb7f86b2e",
    (10, 10, 2, "perturbed"):
        "cd2943cc6ae15f2ceaac1181f85ae566bad3d18d53eab89196dc87e087ede657",
    (10, 10, 3, "initial"):
        "262ade83e45f0f718def267a0dfd945172f5a424b0859f4b287a5e7b75cba22a",
    (10, 10, 3, "perturbed"):
        "46d371060b5fe69ebd02b99c37c90b35d3cc8bef9381eab2e40eb73ec0d8591a",
    (14, 14, 1, "initial"):
        "9435305edf60666c6db79c1e8df1fa889902a8eadd4cf7c99c8042a1a81d3ef3",
    (14, 14, 1, "perturbed"):
        "f0f631622029b3b91af96f2345de795522efd731c1e2f2fc17847b204fc77b78",
    (14, 14, 2, "initial"):
        "0ee709d63f86a95c836518e83ea48dac8717f6b1cfd07b6bda91b088004ed34c",
    (14, 14, 2, "perturbed"):
        "f680f6c18c507fb5d9da3ab6a3cb8a772c4b10471d5bf6ba6c9e7fe111435059",
    (14, 14, 3, "initial"):
        "05596dc9fee0024040a1abee65b597341154dbc113b7ffb5ecc9360bc69dd244",
    (14, 14, 3, "perturbed"):
        "c5daccbe085848259f7795d98b465626f857749f9c991a6e081eb627568683d7",
}


def plan_instance(rows: int, cols: int, seed: int):
    """The default scenario on a rows x cols grid, proxies at the thirds of
    both axes (the ``replan`` benchmark layout on 8x8)."""
    text = (SCENARIOS / "default.scenario").read_text()
    proxies = tuple(r * cols + c for r in (rows // 3, 2 * rows // 3)
                    for c in (cols // 3, 2 * cols // 3))
    cfg = replace(parse_scenario(text), rows=rows, cols=cols, proxies=proxies,
                  seed=seed)
    net = cfg.network()
    return cfg, net, sample_pieces(cfg, net)


def perturbed(net: NetworkState, seed: int) -> NetworkState:
    """A replan-like copy of the network: about 8% of its alive nodes with
    energy left dead, about 10% of their link costs tripled, and every
    energy of the others scaled by a factor in [0.5, 1.0]."""
    rng = random.Random(f"{seed}:perturb")
    out = copy.deepcopy(net)
    for u in sorted(out.nodes):
        node = out.nodes[u]
        if not node.alive or node.energy_j <= 0.0:
            continue
        if rng.random() < 0.08:
            node.alive = False
            continue
        for v in out.neighbors[u]:
            if rng.random() < 0.1:
                out.links[(u, v)].eps_j *= 3.0
        node.initial_energy_j = node.energy_j * rng.uniform(0.5, 1.0)
        node.spent_j = 0.0
    return out


def test_plan_texts_match_golden_digests():
    got = {}
    for rows, cols, seed in sorted({k[:3] for k in GOLDEN_PLANS}):
        cfg, net, pieces = plan_instance(rows, cols, seed)
        for view, state in (("initial", net), ("perturbed", perturbed(net, seed))):
            plan = compute_plan(state, pieces, net.proxies,
                                cfg.latency_budget_ms, cfg.config_phase_energy_j)
            got[(rows, cols, seed, view)] = sha256(plan.to_text())
    moved = {k: v for k, v in got.items() if GOLDEN_PLANS[k] != v}
    assert not moved, moved


# (scenario, seed) -> SHA-256 of the concatenated Plan.to_text() of every plan
# a PDD-CR run makes, start-up included: the ``replan`` benchmark layout (8x8,
# 5% interference, 200 cycles) and the churn set-up (``churn_config``) at
# ``forced_death``'s own horizon.
GOLDEN_REPLANS = {
    ("replan", 1):
        "f512e4d981dff2baf0100da080674bb8592c32d48d563c2346861ccfc794e760",
    ("replan", 2):
        "989116c9307000537f28c2a949bfad2d6e4d6a961492e2d00ea24f7f6af23dbb",
    ("replan", 3):
        "86a18babb74033ea1e7fe78fc73701d925ab940adb90e96c7a39b5ca6d0af3ce",
    ("forced_death", 1):
        "9658dff96a40cb7e93bbecf9403db865ca9539ae6a81f9d03f12813999b5b7cf",
}


def replan_config(scenario: str, seed: int):
    if scenario == "replan":
        cfg = parse_scenario((SCENARIOS / "default.scenario").read_text())
        cfg = replace(cfg, rows=8, cols=8, proxies=(18, 21, 42, 45),
                      interference=InterferenceConfig(0.05, 3.0, 2, 1),
                      horizon=200)
    else:
        cfg = churn_config(seed)
    return replace(cfg, strategy="PDD-CR", seed=seed)


def test_replan_chains_match_golden_digests(monkeypatch):
    plan_texts = []
    plan = planner.compute_plan

    def recording(*args, **kwargs):
        result = plan(*args, **kwargs)
        plan_texts.append(result.to_text())
        return result

    monkeypatch.setattr(planner, "compute_plan", recording)
    got = {}
    for scenario, seed in GOLDEN_REPLANS:
        plan_texts.clear()
        Simulation(replan_config(scenario, seed)).run()
        assert len(plan_texts) >= 3
        got[(scenario, seed)] = sha256("".join(plan_texts))
    moved = {k: v for k, v in got.items() if GOLDEN_REPLANS[k] != v}
    assert not moved, moved
