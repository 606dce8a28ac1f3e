import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fwdsim import (INFINITE_LIFETIME, LinkState, lifetime_from_spend,
                    max_epoch_duration, trigger_check)
from fwdsim.lifetime import link_fires

from oracles import brute_force_epoch_bound, random_epoch_instance

PARAMS = 5e-3   # config_phase_energy_j


class TestNodeLifetime:
    """One node with one active link: its spend is eps * rate."""

    def test_empty_node_has_no_lifetime(self):
        assert lifetime_from_spend(0.0, 0.1 * 2.0, PARAMS) == 0.0

    def test_configuration_phase_only_survives_one_cycle(self):
        energy = PARAMS / 2
        assert lifetime_from_spend(energy, 0.1 * 2.0, PARAMS) == 1.0

    def test_energy_over_spend(self):
        # 10 J, one link at 0.1 J/piece carrying 2 pieces/cycle -> 50 cycles
        assert lifetime_from_spend(10.0, 0.1 * 2.0, PARAMS) == 50.0

    def test_boundary_exactly_at_config_energy_is_one_cycle(self):
        energy = PARAMS
        assert lifetime_from_spend(energy, 0.1 * 2.0, PARAMS) == 1.0

    def test_idle_node_gets_infinite_sentinel(self):
        assert lifetime_from_spend(10.0, 0.1 * 0.0, PARAMS) == INFINITE_LIFETIME

    @settings(max_examples=200, deadline=None)
    @given(energy=st.floats(0.01, 100.0),
           bump=st.floats(0.0, 50.0),
           rate=st.floats(0.0, 8.0),
           eps=st.floats(1e-6, 1e-3))
    def test_monotone_in_energy(self, energy, bump, rate, eps):
        low = lifetime_from_spend(energy, eps * rate, PARAMS)
        high = lifetime_from_spend(energy + bump, eps * rate, PARAMS)
        assert high >= low

    @settings(max_examples=200, deadline=None)
    @given(energy=st.floats(0.01, 100.0),
           rate=st.floats(0.0, 8.0),
           bump=st.floats(0.0, 8.0),
           eps=st.floats(1e-6, 1e-3))
    def test_rates_never_extend_lifetime(self, energy, rate, bump, eps):
        assume(energy > PARAMS)
        base = lifetime_from_spend(energy, eps * rate, PARAMS)
        loaded = lifetime_from_spend(energy, eps * (rate + bump), PARAMS)
        assert loaded <= base


class TestTriggerCheck:
    def test_jump_above_threshold_fires(self):
        # (2.5 - 1.0) / 2.5 = 0.6 > 0.5
        assert trigger_check(2.5, 1.0, 0.5) is True

    def test_flat_cost_never_fires(self):
        assert trigger_check(1.0, 1.0, 0.5) is False

    def test_boundary_is_strict(self):
        # (2.0 - 1.0) / 2.0 is exactly the threshold
        assert trigger_check(2.0, 1.0, 0.5) is False

    def test_decrease_never_fires(self):
        assert trigger_check(1.0, 2.5, 0.5) is False

    def test_nonpositive_current_cost_rejected(self):
        with pytest.raises(ValueError):
            trigger_check(0.0, 1.0, 0.5)

    @settings(max_examples=200, deadline=None)
    @given(prev=st.floats(1e-6, 1e3), now=st.floats(1e-6, 1e3),
           scale=st.floats(1e-3, 1e3), threshold=st.floats(0.05, 0.95))
    def test_scale_invariant(self, prev, now, scale, threshold):
        assume(abs((now - prev) / now - threshold) > 1e-6)
        assert (trigger_check(now, prev, threshold)
                == trigger_check(now * scale, prev * scale, threshold))


class TestLinkFires:
    @pytest.mark.parametrize("carries, prev, now, fires", [
        ({0}, 1.0, 2.5, True),      # an in-use link jumps past the threshold
        (set(), 1.0, 2.5, False),   # the same jump on an idle link
        ({0}, 2.5, 2.5, False),     # a spiked link hit again: no change
        ({0}, 2.5, 1.0, False),     # a revert
        ({0}, 1.0, 0.0, False),     # no cost to compare against
    ])
    def test_only_an_in_use_link_that_jumped_fires(self, carries, prev, now,
                                                   fires):
        link = LinkState(eps_j=now, eps_prev_j=prev, latency_ms=10.0,
                         active_pieces=set(carries))
        assert link_fires(link, 0.5) is fires


class TestEpochBound:
    def two_node_fixture(self, energies):
        from fwdsim import DataPiece, PathTable, install_path
        from conftest import make_net

        net = make_net([(0, 1), (1, 2), (2, 3)],
                       {0: energies[0], 1: energies[1], 2: 100.0, 3: 100.0},
                       eps=0.1)
        table = PathTable()
        piece = DataPiece(id=0, source=0, consumer=3, rate=2, proxy=2)
        install_path(net, table, piece, [0, 1, 2, 3])
        return net, table, [piece]

    def test_minimum_of_active_lifetimes(self):
        # lifetimes 50 and 30 cycles -> 30
        net, table, pieces = self.two_node_fixture({0: 10.0, 1: 6.0})
        assert max_epoch_duration(net, pieces, PARAMS) == 30.0

    def test_single_active_node_is_its_own_bound(self):
        from fwdsim import DataPiece, PathTable, install_path
        from conftest import make_net

        net = make_net([(0, 1)], {0: 10.0, 1: 50.0}, eps=0.1)
        table = PathTable()
        piece = DataPiece(id=0, source=0, consumer=1, rate=2, proxy=1)
        install_path(net, table, piece, [0, 1])
        assert max_epoch_duration(net, [piece], PARAMS) == 50.0

    def test_idle_rich_node_excluded_from_minimum(self):
        net, table, pieces = self.two_node_fixture({0: 10.0, 1: 6.0})
        net.nodes[3].initial_energy_j = 1e9      # consumer transmits nothing
        assert max_epoch_duration(net, pieces, PARAMS) == 30.0

    def test_nothing_active_gives_infinite_bound(self):
        from conftest import make_net

        net = make_net([(0, 1)], {0: 5.0, 1: 5.0})
        assert max_epoch_duration(net, [], PARAMS) == INFINITE_LIFETIME

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(1234)
        for _ in range(60):
            net, table, pieces = random_epoch_instance(rng)
            got = max_epoch_duration(net, pieces, PARAMS)
            want = brute_force_epoch_bound(net, table, pieces, PARAMS)
            assert got == want or (math.isinf(got) and math.isinf(want))
