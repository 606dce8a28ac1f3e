"""Consumer requests drawn in bulk from the generator's words, against the
plain loop.

``Simulation._sample_requests`` tests each request draw ``random() < p`` on
the two 32-bit Mersenne Twister words that ``random()`` would have turned
into that draw, many draws per ``getrandbits`` block. It must give the same
tallies, miss causes, worst access latency and per-row worst latencies as
``reference_sample_requests`` (``oracles.py``), which calls ``random()``
once per piece per cycle, and leave the generator in the same state. The
thresholds cover no draw passing, all passing, one so small that only the
straddling top byte's draws can pass, a threshold inside a top byte and one
on a byte boundary; the ranges cover zero and one cycle and a block's length
either side. Access latencies come from a stand-in for
``engine.sample_access_latency``, patched at the module global that both
samplers call, so that pieces tie, miss and exceed the latency budget at
will, and a range can hold more distinct latencies than one byte can rank.
"""

import math
import random
from fractions import Fraction
from itertools import chain
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fwdsim import DataPiece, PathTable, Simulation, engine
from fwdsim.engine import REQUEST_CHUNK, request_classes

from conftest import make_net, quiet_config
from oracles import reference_sample_requests

# No draw passes; only v == 0 passes, whose top byte straddles the
# threshold; a threshold inside top byte 12; one exactly on top byte 13's
# lower edge; the shipped rate; every draw passes.
PROBS = (0.0, 2.0 ** -60, 12.5 / 256, 13 / 256, 0.05, 1.0)
OUTCOMES = ((5.0, None), (5.0, None), (20.0, None), (40.0, None),
            (None, "proxy-dead"), (None, "consumer-segment-broken"))
BUDGET_MS = 30.0
TALLIES = ("requests_total", "requests_ok", "latency_violations",
           "request_misses", "miss_causes", "max_access_latency_ms")


def span(pieces: int, chunk: int = REQUEST_CHUNK) -> int:
    """Cycles per generator block."""
    return max(1, chunk // max(1, pieces))


def build(pieces: int, p: float, stride: int, horizon: int) -> Simulation:
    net = make_net([(0, 1)], {0: 1.0, 1: 1.0}, proxies={1})
    cfg = quiet_config(request_prob=p, metrics_stride=stride, horizon=horizon,
                       latency_budget_ms=BUDGET_MS)
    return Simulation(cfg, net=net, table=PathTable(), pieces=[
        DataPiece(id=i, source=0, consumer=1, rate=1, proxy=1)
        for i in range(pieces)])


def check(pieces, p, stride, start, n, horizon, state, outcomes,
          chunk=REQUEST_CHUNK):
    """Run both samplers over [start, start + n) from generator state
    ``state``, the bulk one with blocks of at most ``chunk`` draws, and
    require identical results."""
    with mock.patch.object(engine, "REQUEST_CHUNK", chunk):
        sims = [build(pieces, p, stride, horizon) for _ in range(2)]
    calls = ([], [])
    results = []
    for sim, called, sample in zip(sims, calls, (
            lambda sim: sim._sample_requests(start, start + n),
            lambda sim: reference_sample_requests(sim, start, start + n))):
        sim._rng_requests.setstate(state)

        def latency(piece, table, net, called=called):
            called.append(piece.id)
            return outcomes[piece.id]

        with mock.patch.object(engine, "sample_access_latency", latency):
            results.append(sample(sim))
    fast, slow = sims
    served, by_cycle = results
    rows = list(chain.from_iterable(fast._row_ranges(start, start + n)))
    assert len(served) <= len(rows)
    assert served + [0.0] * (len(rows) - len(served)) == [
        by_cycle.get(cyc, 0.0) for cyc in rows]
    for name in TALLIES:
        assert getattr(fast.metrics, name) == getattr(slow.metrics, name), name
    assert sorted(calls[0]) == sorted(calls[1])
    assert len(set(calls[0])) == len(calls[0])   # once per piece and range
    assert fast._rng_requests.getstate() == slow._rng_requests.getstate()
    assert fast._rng_requests.random() == slow._rng_requests.random()
    return served


def seeded(seed: int, skip: int = 0):
    """A generator state: ``seed``'s, then ``skip`` draws on, anywhere in
    the generator's buffer of 624 words."""
    rng = random.Random(seed)
    for _ in range(skip):
        rng.random()
    return rng.getstate()


def untemper(y: int) -> int:
    """The Mersenne Twister state word that the generator outputs as y."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(4):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x & 0xFFFFFFFF
    return y ^ (y >> 11) ^ (y >> 22)


def crafted(values):
    """A generator state whose next ``random()`` calls take, in turn, the
    53-bit values ``values`` (at most 312 of them), varying the low bits
    that ``random()`` drops."""
    words = []
    for k, v in enumerate(values):
        words += [(v >> 26) << 5 | k % 32, (v & (2 ** 26 - 1)) << 6 | k % 64]
    mt = [untemper(w) for w in words] + [0] * (624 - len(words))
    return 3, (*mt, 0), None


def test_random_is_built_from_two_generator_words():
    # random() takes two 32-bit outputs a and b, in order, and returns
    # ((a >> 5) * 2**26 + (b >> 6)) * 2**-53; getrandbits(64 * n) returns
    # the same 2n outputs, the first in the least significant bits. The
    # bulk sampler rests on both.
    plain, bulk = random.Random(2027), random.Random(2027)
    n = 2000
    words = bulk.getrandbits(64 * n).to_bytes(8 * n, "little")
    for k in range(0, 8 * n, 8):
        a = int.from_bytes(words[k:k + 4], "little")
        b = int.from_bytes(words[k + 4:k + 8], "little")
        assert plain.random() == ((a >> 5) * 2 ** 26 + (b >> 6)) * 2.0 ** -53
    assert plain.random() == bulk.random()


def test_request_classes_mark_only_the_straddling_byte():
    for p in PROBS:
        bound, classes = request_classes(p)
        assert bound == math.ceil(Fraction(p) * 2 ** 53)
        for t, cls in enumerate(classes):
            lowest, highest = t << 45, ((t + 1) << 45) - 1
            assert cls == (1 if highest < bound else 0 if lowest >= bound else 2)
    assert request_classes(12.5 / 256)[1].count(2) == 1
    assert request_classes(13 / 256)[1].count(2) == 0
    assert request_classes(2.0 ** -60)[1][:1] == b"\x02"


def test_crafted_words_are_what_random_draws():
    values = [0, 1, 2 ** 53 - 1, 12 << 45, (13 << 45) - 1, 123456789]
    rng = random.Random()
    rng.setstate(crafted(values))
    assert [rng.random() for _ in values] == [v * 2.0 ** -53 for v in values]


@pytest.mark.parametrize("p", PROBS[1:-1])
def test_draws_at_the_threshold_are_settled_exactly(p):
    # Two pieces, blocks of one cycle: draws just below, on and just above
    # the threshold, at the edges of the straddling top byte, and far off.
    bound = request_classes(p)[0]
    t = bound >> 45
    near = [bound - 1, bound, bound + 1, t << 45, ((t + 1) << 45) - 1,
            0, 2 ** 53 - 1]
    values = [v for v in near if 0 <= v < 2 ** 53]
    values += [2 ** 53 - 1] * (len(values) % 2)
    served = check(2, p, 1, 0, len(values) // 2, 1000, crafted(values),
                   [(5.0, None), (20.0, None)], chunk=2)
    assert served   # some draw below the threshold was served


def test_rows_after_blocks_that_served_none_stay_aligned():
    # Blocks of two cycles over one piece: no request until the 7th cycle,
    # then one in a row at stride 3 (cycle 9), none, then one off the grid.
    p = 0.5
    values = [2 ** 53 - 1] * 12
    values[9] = values[11] = 0
    served = check(1, p, 3, 0, 12, 100, crafted(values), [(7.0, None)],
                   chunk=2)
    assert served == [0.0, 0.0, 0.0, 7.0]


@pytest.mark.parametrize("pieces", [0, 1, 4, 16])
@pytest.mark.parametrize("p", PROBS)
def test_a_range_past_one_block_matches_the_plain_loop(pieces, p):
    # One block and a cycle, at a stride whose grid misses the horizon's
    # last cycle, which falls in the first block.
    n = span(pieces) + 1
    check(pieces, p, 7, 3, n, 3 + n // 2, seeded(pieces, 5),
          [OUTCOMES[i % len(OUTCOMES)] for i in range(pieces)])


@pytest.mark.parametrize("stride", [1, 7])
def test_more_latencies_than_one_rank_byte_stays_exact(stride):
    # 300 pieces of 300 distinct latencies, most of them served in every
    # row: the per-row ranks need two bytes. Three blocks per range.
    pieces = 300
    latencies = random.Random(3).sample(range(1, 10_000), pieces)
    outcomes = [(lat / 8, None) for lat in latencies]
    check(pieces, 0.5, stride, 10, 3 * span(pieces) - 2, 10_000, seeded(4),
          outcomes)


@given(data=st.data())
def test_bulk_requests_match_the_plain_loop(data):
    pieces = data.draw(st.sampled_from([0, 1, 4, 16]), label="pieces")
    p = data.draw(st.sampled_from(PROBS), label="p")
    # Small blocks make ranges of many blocks, most of them serving none.
    chunk = data.draw(st.sampled_from([REQUEST_CHUNK, 1, 5, 64]), label="chunk")
    m = span(pieces, chunk)
    n = data.draw(st.sampled_from([0, 1, m - 1, m, m + 1, 7 * m + 3]),
                  label="cycles")
    stride = data.draw(st.sampled_from([1, 7, 72]), label="stride")
    start = data.draw(st.integers(0, 200), label="start")
    if n and data.draw(st.booleans(), label="last cycle inside"):
        horizon = start + data.draw(st.integers(1, n), label="to last")
    else:
        horizon = start + n + data.draw(st.integers(1, 100), label="past")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    skip = data.draw(st.integers(0, 700), label="skip")
    outcomes = data.draw(st.lists(st.sampled_from(OUTCOMES), min_size=pieces,
                                  max_size=pieces), label="outcomes")
    check(pieces, p, stride, start, n, horizon, seeded(seed, skip), outcomes,
          chunk)
