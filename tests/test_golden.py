"""Golden output digests.

Every strategy on the shipped ``default`` and ``forced_death`` scenarios at
seeds 1-3, full horizon: the SHA-256 of ``csv_text() + summary_text()`` must
match the value recorded here, and so must the local-repair message trace of
both scenarios at seed 1. A change that moves a digest on purpose updates it
here and says why in CHANGES.md.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

from fwdsim import Simulation, parse_scenario

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
