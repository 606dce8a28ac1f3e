"""Closed-form charging: ``charging.binade`` and ``charging.advance``
against adding the amounts one by one.

A quiet stretch moves every energy account by whole binades: within one,
round-to-nearest-even addition of an amount to a multiple of the ulp adds
that amount rounded to the ulp, unless the amount is an exact tie. The
drawn accounts are zero, subnormal or normal; the drawn amounts are zero,
below half an ulp, exact half-ulp ties, many ulps, a share of the account
and larger than the account itself, so runs of cycles cross several
binades. ``advance`` also reports the sum after each metrics-row cycle: on
a stride grid of 1, 7 or 72 cycles, plus one row off the grid or on a
crossing cycle. Results are compared by ``float.hex()``, bit for bit.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fwdsim.charging import advance, binade

ZERO, SUBNORMAL = st.just(0.0), st.integers(1, 2**52 - 1).map(
    lambda m: math.ldexp(m, -1074))
NORMAL = st.builds(math.ldexp, st.integers(2**52, 2**53 - 1),
                   st.integers(-1074, 40))
ACCOUNTS = st.sampled_from([NORMAL, NORMAL, NORMAL, SUBNORMAL, ZERO]).flatmap(
    lambda kind: kind)
# Drawn with these weights, so that many lists hold no tie and jump.
KINDS = ["share", "ulps", "below-half", "share", "ulps", "share", "zero",
         "share", "ulps", "below-half", "tie", "large"]


@st.composite
def amount_for(draw, s):
    """One amount, sized against ``s`` and its ulp."""
    exp = math.frexp(math.ulp(s))[1] - 1   # ulp(s) == 2**exp
    kind = draw(st.sampled_from(KINDS))
    if kind == "zero":
        return 0.0
    if kind == "below-half":
        return math.ldexp(draw(st.integers(1, 2**52 - 1)), exp - 53)
    if kind == "tie":   # an odd multiple of half an ulp
        return math.ldexp(2 * draw(st.integers(0, 2**20)) + 1, exp - 1)
    if kind == "ulps":
        return math.ldexp(draw(st.integers(1, 2**40)), exp - 20)
    if kind == "share":   # crosses the binade within hundreds of cycles
        return s * draw(st.floats(1e-3, 0.4))
    return s * draw(st.floats(1.0, 3.0)) + math.ulp(s)


@st.composite
def charging(draw):
    s = draw(ACCOUNTS)
    amounts = draw(st.lists(amount_for(s), min_size=1, max_size=5))
    return s, amounts


def naive(s, amounts, n):
    for _ in range(n):
        for a in amounts:
            s += a
    return s


def progressions(start, stop, stride, extra):
    """The row cycles of [start, stop): the stride grid, and ``extra``
    (None, or any cycle) on its own, as ascending progressions, in the form
    the engine gives its metrics rows in."""
    first = -(-start // stride) * stride
    if extra is None or not start <= extra < stop or extra % stride == 0:
        return [range(first, stop, stride)]
    return [range(first, extra, stride), range(extra, extra + 1),
            range(extra - extra % stride + stride, stop, stride)]


def check_rows(s, amounts, start, n, stride, extra):
    """``advance`` over n cycles from ``start`` against the plain loop,
    which records the sum after each row cycle as it passes."""
    want, want_rows = s, []
    for c in range(start, start + n):
        for a in amounts:
            want += a
        if c % stride == 0 or c == extra:
            want_rows.append(want)
    got_rows = []
    got = advance(s, amounts, start, start + n,
                  progressions(start, start + n, stride, extra), got_rows)
    assert got.hex() == want.hex()
    assert [x.hex() for x in got_rows] == [x.hex() for x in want_rows]


@settings(deadline=None)
@given(case=charging(), n=st.integers(0, 400), start=st.integers(0, 100),
       stride=st.sampled_from([1, 7, 72]), extra=st.none() | st.integers(0, 500))
@example(case=(1.0, [0.3]), n=400, start=0, stride=1, extra=None)
@example(case=(1.0, [0.1, 2.0 ** -53]), n=300, start=5, stride=7, extra=299)
@example(case=(2.0 ** -1022, [2.0 ** -1075, 3e-308]), n=50, start=0, stride=72,
         extra=None)
@example(case=(1.5, [0.25]), n=1, start=0, stride=1, extra=None)   # the jump ends exactly at n
@example(case=(0.0, [3e-5, 1e-5]), n=200, start=3, stride=7, extra=100)
@example(case=(2.0 ** -1060, [1e-310]), n=80, start=1, stride=72, extra=40)
def test_advance_matches_adding_one_by_one(case, n, start, stride, extra):
    s, amounts = case
    assert advance(s, amounts, start, start + n).hex() == naive(s, amounts, n).hex()
    check_rows(s, amounts, start, n, stride, extra)
    # Around the end of the first jump, where the crossing cycle comes, and
    # with a row of its own on the crossing cycle.
    k = binade(s, amounts)[1]
    if 0 < k <= 2000:
        for m in (k, k + 1, k + 2):
            assert advance(s, amounts, start, start + m).hex() == naive(s, amounts, m).hex()
            check_rows(s, amounts, start, m, stride, extra)
            check_rows(s, amounts, start, m, stride, start + k)


@settings(deadline=None)
@given(case=charging())
@example(case=(1.0, [0.3]))
@example(case=(1.0, [2.0 ** -53]))   # a tie
@example(case=(1.0, [2.0 ** -54]))   # below half an ulp: D is zero
@example(case=(1.5, [0.25]))   # two cycles would reach 2.0 exactly
def test_binade_jump_is_exact_and_stays_in_the_binade(case):
    s, amounts = case
    step, k = binade(s, amounts)
    if k == 0:
        assert step == 0.0
        return
    assert s >= 2.0 ** -1022
    top = math.ldexp(1.0, math.frexp(s)[1])
    if step == 0.0:
        assert k == math.inf
        assert naive(s, amounts, 3).hex() == s.hex()
        return
    # Every one of the first cycles, and the last cycle of the jump.
    for j in range(min(k, 40) + 1):
        assert naive(s, amounts, j).hex() == (s + step * j).hex()
    before_last = s + step * (k - 1)
    assert naive(before_last, amounts, 1).hex() == (s + step * k).hex()
    # Still inside the binade after k cycles, and not after k + 1.
    assert Fraction(s) + k * Fraction(step) < top
    assert Fraction(s) + (k + 1) * Fraction(step) >= top
