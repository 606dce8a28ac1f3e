"""The one-format CSV renderer against the per-row f-string renderer.

``Metrics.csv_text`` maps one printf-style row format over the nine series;
``reference_csv_text`` (``oracles.py``) is the f-string renderer it replaced.
Both must write the same bytes for any series, including the float edge
cases (signed zeros, infinities, nan, subnormals, the largest finite values),
90,000 random float bit patterns, and integers beyond the exactly
representable floats.
"""

import random
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from fwdsim import Metrics

from oracles import reference_csv_text

FLOAT_EDGES = [0.0, -0.0, float("inf"), float("-inf"), float("nan"),
               5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
               1.7976931348623157e308, -1.7976931348623157e308,
               0.1, 1e-10, 12345678901.5, 9999999999.5]
INT_EDGES = [0, -1, 2 ** 53, 2 ** 53 + 1, -(2 ** 53 + 1), 2 ** 64, -(2 ** 70)]


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


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(ROW, max_size=10))
def test_csv_text_matches_the_f_string_renderer(rows):
    m = Metrics(strategy="PDD", seed=1)
    for row in rows:
        for series, value in zip(m.series(), row):
            series.append(value)
    assert m.csv_text() == reference_csv_text(m)


def test_csv_text_matches_on_random_float_bit_patterns():
    rng = random.Random(2027)

    def value(column):
        if column in (1, 2, 6):
            return float_from_bits(rng.getrandbits(64))
        return rng.choice(INT_EDGES) + rng.randrange(-1000, 1000)

    m = Metrics()
    for _ in range(30_000):
        for column, series in enumerate(m.series()):
            series.append(value(column))
    assert m.csv_text() == reference_csv_text(m)


def test_empty_metrics_render_the_header_only():
    m = Metrics()
    assert m.csv_text() == Metrics.CSV_HEADER + "\n"
    assert m.csv_text() == reference_csv_text(m)
