"""The block renderer against the per-row f-string renderer.

``Metrics`` keeps its rows as blocks, one progression of row cycles each
(``Metrics.add_rows``). ``Metrics.csv_text`` renders a block with one
printf-style row format into which the block's constant columns are already
formatted; ``reference_csv_text`` (``oracles.py``) indexes the nine series
that ``Metrics.series()`` expands, one f-string per row. Both must write the
same bytes for any rows: one-row blocks of any values, including the float
edge cases (signed zeros, infinities, nan, subnormals, the largest finite
values), 90,000 random float bit patterns and integers beyond the exactly
representable floats; and multi-row blocks whose counters step by 0, by
negative amounts and by more than 2**53, whose constant columns are edge
floats, and whose served latencies cover none, some or all of the rows,
every such combination among them. Each test checks the row count first,
so a renderer that drops rows cannot pass on the header alone.
"""

import random
import struct
from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fwdsim import Metrics

from oracles import reference_csv_text

FLOAT_EDGES = [0.0, -0.0, float("inf"), float("-inf"), float("nan"),
               5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
               1.7976931348623157e308, -1.7976931348623157e308,
               0.1, 1e-10, 12345678901.5, 9999999999.5]
INT_EDGES = [0, -1, 2 ** 53, 2 ** 53 + 1, -(2 ** 53 + 1), 2 ** 64, -(2 ** 70)]
COUNTER_STEPS = [0, -1, -7, 2 ** 53 + 1, 2 ** 64]


def float_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


any_float = st.one_of(
    st.floats(),
    st.sampled_from(FLOAT_EDGES),
    # every bit pattern, nan payloads included
    st.integers(0, 2 ** 64 - 1).map(float_from_bits),
)
any_int = st.one_of(st.integers(), st.sampled_from(INT_EDGES))
ROW = st.tuples(any_int, any_float, any_float, any_int, any_int, any_int,
                any_float, any_int, any_int)


def add_row(m, cycle, data, cfg_j, gen, dlv, lost, latency, reconfigs, alive):
    m.add_rows(range(cycle, cycle + 1), [data], cfg_j, (gen, 0), (dlv, 0),
               (lost, 0), [latency], reconfigs, alive)


def check(m, rows):
    """``m`` renders ``rows`` rows, the same bytes as the reference."""
    text = m.csv_text()
    assert text.count("\n") == 1 + rows
    assert len(m.series()["cycles"]) == rows
    assert text == reference_csv_text(m)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(ROW, max_size=10))
def test_csv_text_matches_the_f_string_renderer(rows):
    m = Metrics(strategy="PDD", seed=1)
    for row in rows:
        add_row(m, *row)
    check(m, len(rows))


def test_csv_text_matches_on_random_float_bit_patterns():
    rng = random.Random(2027)

    def value(column):
        if column in (1, 2, 6):
            return float_from_bits(rng.getrandbits(64))
        return rng.choice(INT_EDGES) + rng.randrange(-1000, 1000)

    m = Metrics()
    for _ in range(30_000):
        add_row(m, *map(value, range(9)))
    check(m, 30_000)


@st.composite
def blocks(draw):
    """The arguments of one multi-row ``add_rows`` call."""
    n = draw(st.integers(2, 12), label="rows")
    start = draw(st.integers(0, 2 ** 40))
    stride = draw(st.sampled_from([1, 7, 1000]))
    counter = st.tuples(any_int, st.one_of(
        st.sampled_from(COUNTER_STEPS), st.integers(-(2 ** 60), -1),
        st.integers(2 ** 53 + 1, 2 ** 70)))
    constant = st.one_of(st.sampled_from(FLOAT_EDGES), any_float)
    served = draw(st.sampled_from(["none", "some", "all"]), label="served")
    k = (draw(st.integers(1, n - 1)) if served == "some"
         else n * (served == "all"))
    return (range(start, start + stride * n, stride),
            draw(st.lists(any_float, min_size=n, max_size=n)),
            draw(constant), draw(counter), draw(counter), draw(counter),
            draw(st.lists(constant, min_size=k, max_size=k)),
            draw(any_int), draw(any_int))


# Each edge float as the constant columns, with every counter step and a
# served prefix that is empty, shorter than the block, and full.
EDGE_BLOCKS = [(range(5 * i, 5 * i + 5), FLOAT_EDGES[:5], cfg_j,
                (2 ** 53, step), (-3, -step), (0, step), [cfg_j] * k, 2 ** 64, -1)
               for i, (cfg_j, step, k) in enumerate(
                   product(FLOAT_EDGES, COUNTER_STEPS, (0, 2, 5)))]


@settings(max_examples=200, deadline=None)
@given(st.lists(blocks(), min_size=1, max_size=4))
@example(EDGE_BLOCKS)
def test_multi_row_blocks_match_the_f_string_renderer(args):
    m = Metrics()
    for block in args:
        m.add_rows(*block)
    check(m, sum(len(block[0]) for block in args))


def test_totals_read_the_last_block():
    m = Metrics()
    m.add_rows(range(0, 10, 5), [1.0, 2.0], 0.5, (3, 3), (2, 2), (1, 1),
               [], 0, 18)
    m.add_rows(range(10, 13), [3.0, 4.0, 5.0], 0.75, (9, 2), (6, 1), (3, 1),
               [4.5], 2, 17)
    s = m.series()
    assert m.totals() == {
        "energy_data_j": 5.0, "energy_cfg_j": 0.75, "generated": 13,
        "delivered": 8, "lost": 5, "reconfigurations": 2}
    assert {name: s[name][-1] for name in m.totals()} == m.totals()
    assert s["max_latency_ms"] == [0.0, 0.0, 4.5, 0.0, 0.0]
    assert "cycles: 5\n" in m.summary_text()
    assert m.summary_text().endswith("alive_at_end: 17\n")
    empty = Metrics()
    assert set(empty.totals().values()) == {0}
    assert empty.summary_text().endswith("alive_at_end: 0\n")


def test_empty_metrics_render_the_header_only():
    m = Metrics()
    assert m.csv_text() == Metrics.CSV_HEADER + "\n"
    assert m.csv_text() == reference_csv_text(m)
