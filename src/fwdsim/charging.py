"""Closed-form charging: many cycles of the same float additions in one
step, bit for bit.

A quiet stretch (``engine.Simulation._run_quiet``) adds the same amounts to
the same energy accounts every cycle. ``binade`` finds what one cycle of
them adds to an account, and for how many cycles that holds; ``advance``
applies a range of cycles; ``Account`` keeps one node's account, brought up
to date only when asked. The premise is IEEE-754 binary64 addition rounding
to nearest, ties to even, which is what Python floats do.

``advance`` also reports the sum after chosen cycles, the metrics rows of
the stretch's data total. They are given as ascending progressions of
cycles. Along a jump the sum after each cycle is exact, its value before
the jump plus a whole number of steps, so the sums of a progression's cycles
in the jump form an exact progression too and are built in bulk; a crossing
cycle's sum is read off its plain additions.
"""

from __future__ import annotations

import math
from itertools import accumulate, repeat

from .netmodel import NodeState

_MIN_NORMAL = 2.0 ** -1022   # the smallest normal float
DATA = "data"   # the energy audit's kind of a data charge


class Account:
    """One node's data spend inside a quiet stretch: the amounts it pays
    each cycle, in charge order, the cycle its ``spent_j`` is up to date at,
    the cycle its clamp guard ends the stretch at, and the energy audit's
    log (``Simulation.energy_log``), or None when the audit is off."""

    __slots__ = ("node", "amounts", "synced", "stop", "log")

    def __init__(self, node: NodeState, cyc: int, log: dict | None):
        self.node = node
        self.amounts: list[float] = []
        self.synced = cyc
        self.stop = cyc
        self.log = log

    def sync(self, cyc: int) -> None:
        """Charge the cycles from ``synced`` up to ``cyc``. The audit logs
        each of their charges above zero, cycle by cycle in charge order,
        as stepping them would."""
        if cyc > self.synced:
            if self.log is not None:
                entries = [(c, DATA, a) for c in range(self.synced, cyc)
                           for a in self.amounts if a > 0.0]
                if entries:
                    self.log.setdefault(self.node.node, []).extend(entries)
            self.node.spent_j = advance(self.node.spent_j, self.amounts,
                                        self.synced, cyc)
            self.synced = cyc

    def guard(self, cyc: int, stop: int) -> None:
        """Set ``self.stop`` to the first cycle from ``cyc`` on, and before
        ``stop``, that the stretch must leave to ``_step()``: one cycle of
        spend short of the node's clamp, allowing for the rounding of every
        addition to ``spent_j`` on the way. The account must be synced to
        ``cyc``."""
        node = self.node
        per_cycle = 0.0
        for amount in self.amounts:
            per_cycle += amount
        room = node.initial_energy_j - node.spent_j - per_cycle
        slack = len(self.amounts) * node.initial_energy_j * 2.0 ** -50
        cycles = room / (per_cycle + slack)
        self.stop = cyc + max(0, int(cycles)) if cycles < stop - cyc else stop


def binade(s: float, amounts) -> tuple[float, float]:
    """(D, k): adding ``amounts`` to ``s`` in order, k times over, gives
    exactly ``s + j * D`` after j of those cycles, for every j up to k, and
    every sum on the way stays in ``s``'s binade [2**e, 2**(e+1)).

    Inside the binade every float is a multiple of its ulp u, so a
    round-to-nearest-even addition of a >= 0 to a multiple of u gives that
    multiple plus R(a), a rounded to the nearest multiple of u, unless a is
    an exact tie (an odd multiple of u/2, rounded by the parity of the sum)
    or the sum leaves the binade. R(a) is read off one addition to ``s``
    itself, and a - R(a) is exact, which shows a tie. D is the sum of the
    R(a) and k the number of whole cycles that stay below 2**(e+1), counted
    in integer ulps; k is infinite when D is zero. k is 0, and D is 0.0,
    when the rule does not apply: ``s`` is zero or subnormal, an amount is a
    tie, or the first cycle already leaves the binade."""
    if s < _MIN_NORMAL:
        return 0.0, 0
    ulp = math.ulp(s)
    half = 0.5 * ulp
    step = 0.0
    for a in amounts:
        r = (s + a) - s   # R(a), while s + a stays in the binade
        if a - r == half or r - a == half:
            return 0.0, 0
        step += r
    if step == 0.0:
        return 0.0, math.inf
    k = ((1 << 53) - 1 - int(s / ulp)) // int(step / ulp)
    return (step, k) if k else (0.0, 0)


def advance(s: float, amounts, start: int, stop: int, rows=(),
            out: list | None = None) -> float:
    """``s`` after the cycles [start, stop) of adding ``amounts`` in order,
    bit for bit as the plain loop gives it: each binade is crossed in one
    jump (``binade``), the cycle that leaves it with plain additions, and so
    is every cycle where the jump does not apply (a tie, a zero or subnormal
    ``s``). ``rows`` holds ascending progressions (``range``) of cycles in
    [start, stop); ``out`` gets the sum after each of their cycles, in
    order. After cycle r of a jump from cycle c the sum is exactly
    ``s + (r - c + 1) * D``, and so it is, at zero steps, after the crossing
    cycle c - 1 before the jump."""
    rows = list(filter(None, reversed(rows)))   # non-empty, the next one last
    cyc = start
    while True:   # once more after a crossing on the last cycle, for its row
        step, k = binade(s, amounts) if cyc < stop else (0.0, 0)
        end = stop if k >= stop - cyc else cyc + k   # the jump is [cyc, end)
        while rows and rows[-1].start < end:
            r = rows.pop()
            n = len(range(r.start, end, r.step))   # its cycles before `end`
            out.extend(accumulate(repeat(step * r.step, min(n, len(r)) - 1),
                                  initial=s + (r.start - cyc + 1) * step))
            if n < len(r):
                rows.append(r[n:])
        if end == stop:
            return s + step * (stop - cyc)   # exact: still inside the binade
        s += step * k
        for a in amounts:   # the cycle that leaves the binade
            s += a
        cyc = end + 1
