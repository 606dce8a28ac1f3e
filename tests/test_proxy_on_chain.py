"""Local repair keeps every unbroken piece's proxy on its chain.

The proxy is the cache that consumers fetch from, and the protocol's rule is
that a repair does not route around it (``protocol.handle_alert``). Each
case runs the shipped forced-death scenario under DistrDataFwd in steps of
100 cycles and checks, after every step, that no piece not marked broken
has a chain that leaves out its proxy (``validate_paths``'s ``endpoint``
violation "proxy ... not on chain"). Seed 1 keeps its proxies throughout.
Seeds 4 and 7 lose one in 170 of the 200 samples, from cycle 3,100 on
(piece 2, proxy 10): a known defect, pinned here until it is fixed.
"""

from dataclasses import replace

import pytest

from fwdsim import Simulation, parse_scenario

from conftest import SCENARIOS, surviving_violations

STEP = 100

BYPASS = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: a DistrDataFwd repair cuts the proxy out of an "
    "unbroken piece's chain. The fix moves DistrDataFwd outputs that "
    "perfbench/reference.json pins, so it cannot land without a re-record "
    "of the benchmark's reference digests."))


def first_bypass(seed):
    """The first sample, as (cycle, piece, detail), at which an unbroken
    piece's chain leaves out its proxy; None when no sample does."""
    cfg = parse_scenario((SCENARIOS / "forced_death.scenario").read_text())
    cfg = replace(cfg, seed=seed, strategy="DistrDataFwd")
    sim = Simulation(cfg)
    while sim.cycle < cfg.horizon:
        sim.run(STEP)
        for v in surviving_violations(sim, kinds=("endpoint",)):
            if v.detail.endswith("not on chain"):
                return sim.cycle, v.piece_id, v.detail
    return None


@pytest.mark.parametrize("seed", [1, pytest.param(4, marks=BYPASS),
                                  pytest.param(7, marks=BYPASS)])
def test_repairs_keep_the_proxy_on_every_unbroken_chain(seed):
    assert first_bypass(seed) is None
