"""Riesz decomposition properties on finite PEAs, decided by exhaustive search.

(RDP)_0 is searched directly.  (RDP) and (RDP)_1 share one scan over the
equal sums a1+a2 = b1+b2 and their 2x2 refinements, run once per table on
the order bitmasks.  A quadruple and its transpose b1+b2 = a1+a2 always
get the same verdict, so only the pairs (b1, b2) after (a1, a2) are
scanned, and only those with b1 incomparable to a1, since comparable ones
are always refined.  The (RDP)_1 side condition on (c12, c21) is one mask
test against the elements that commute with everything below c12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .core import (
    InconsistencyError,
    PartialAdditionTable,
    _bits,
    _differences,
    _require_pea,
    derived,
    induced_order,
)


@dataclass(frozen=True)
class RdpReport:
    rdp0: bool
    rdp0_witness: Optional[Tuple[str, ...]]
    rdp: bool
    rdp_witness: Optional[Tuple[str, ...]]
    rdp1: bool
    rdp1_witness: Optional[Tuple[str, ...]]

    def __post_init__(self):
        if (self.rdp1 and not self.rdp) or (self.rdp and not self.rdp0):
            raise InconsistencyError("RDP implication chain rdp1 => rdp => rdp0 violated")


def check_rdp0(table: PartialAdditionTable) -> Tuple[bool, Optional[Tuple[str, ...]]]:
    """(RDP)_0: every a <= b1 + b2 splits as a = d1 + d2 with d1 <= b1, d2 <= b2.

    For a fixed d1 the sums d1 + d2 with d2 <= b2 are exactly the interval
    [d1, d1 + b2] (cancellation), so each defined sum b1 + b2 clears those
    intervals from its down-set; an element left over fails."""
    _require_pea(table)
    order = induced_order(table)
    t = table._sums
    els = table.elements
    for b1, b2, s in table.defined_sums():
        lost = order.down[s]
        for d1 in _bits(order.down[b1]):
            lost &= ~(order.up[d1] & order.down[t[d1][b2]])
            if not lost:
                break
        if lost:
            return False, (els[next(_bits(lost))], els[b1], els[b2])
    return True, None


@derived
def _commuting_below(table: PartialAdditionTable) -> Tuple[int, ...]:
    """``below[c]``: the mask of the y such that x+y and y+x are defined and
    equal for every x <= c (the meet of ``comm[x]`` over the down-set of c,
    where ``comm[x]`` is the mask of the y that x commutes with)."""
    t = table._sums
    k = table.size
    comm = [0] * k
    for x, y, s in table.defined_sums():
        if t[y][x] == s:
            comm[x] |= 1 << y
    below = []
    for down_c in induced_order(table).down:
        meet = -1
        for x in _bits(down_c):
            meet &= comm[x]
        below.append(meet)
    return tuple(below)


@derived
def _refinement_scan(table: PartialAdditionTable):
    """The first quadruple (a1, a2, b1, b2) failing (RDP) and the first
    failing (RDP)_1, each None when the property holds.

    The quadruples are the equal sums a1+a2 = b1+b2, in the order of
    ``defined_sums()`` for (a1, a2) and then for (b1, b2).  A quadruple with
    no refinement fails both properties; one whose refinements all miss the
    (RDP)_1 side condition fails (RDP)_1 only.  Three facts cut the scan
    down without moving either witness:

    * Transposition.  (c11, c12, c21, c22) refines a1+a2 = b1+b2 iff
      (c11, c21, c12, c22) refines b1+b2 = a1+a2, and the side condition is
      symmetric in (c12, c21), so a quadruple and its transpose always get
      the same verdict.  The first failure in scan order therefore has
      (b1, b2) after (a1, a2), and never equal to it: (a1, 0, 0, a2)
      refines the diagonal.  By cancellation b1 fixes b2, so the pairs
      after (a1, a2) are the b1 > a1 of the down-set of the sum.
    * Comparability.  If a1 + c = b1, then (a1, 0, c, b2) refines the
      quadruple; if b1 + c = a1, then (b1, c, 0, a2) does.  Both meet the
      side condition, since one of c12, c21 is 0.  So only the b1
      incomparable to a1 are searched; on a chain none is.
    * The rest is a walk over c11 in the common lower bounds of a1 and b1,
      lowest first: cancellation pins c12 and c21, and c22 must solve both
      remaining equations.  The side condition (x+y and y+x defined and
      equal for all x <= c12 and y <= c21) is one mask test: the down-set
      of c21 lies inside the commuting mask below c12.  It is tried only
      until an (RDP)_1 witness is known.
    """
    _require_pea(table)
    t = table._sums
    order = induced_order(table)
    down, up = order.down, order.up
    rdiff = _differences(table)[1]
    below = _commuting_below(table)
    els = table.elements
    rdp1_witness = None
    for a1, a2, s in table.defined_sums():
        rest = down[s] & ~((2 << a1) - 1 | up[a1] | down[a1])
        while rest:
            low = rest & -rest
            rest ^= low
            b1 = low.bit_length() - 1
            b2 = rdiff[b1][s]
            common = down[a1] & down[b1]
            refined = False
            while common:
                low = common & -common
                common ^= low
                c11 = low.bit_length() - 1
                c21 = rdiff[c11][b1]
                c22 = rdiff[c21][a2]
                if c22 is not None:
                    c12 = rdiff[c11][a1]
                    if t[c12][c22] == b2:
                        refined = True
                        if rdp1_witness is not None or not down[c21] & ~below[c12]:
                            break
            else:
                witness = (els[a1], els[a2], els[b1], els[b2])
                if not refined:
                    return witness, rdp1_witness or witness
                rdp1_witness = witness
    return None, rdp1_witness


def check_rdp(table: PartialAdditionTable) -> Tuple[bool, Optional[Tuple[str, ...]]]:
    """(RDP): every pair of equal sums a1+a2 = b1+b2 has a 2x2 refinement
    c11+c12 = a1, c21+c22 = a2, c11+c21 = b1, c12+c22 = b2."""
    witness = _refinement_scan(table)[0]
    return witness is None, witness


def check_rdp1(table: PartialAdditionTable) -> Tuple[bool, Optional[Tuple[str, ...]]]:
    """(RDP)_1: as (RDP), but a refinement only counts when all x <= c12 and
    y <= c21 have x+y and y+x defined and equal.  All matrices are tried
    before a failure is declared."""
    witness = _refinement_scan(table)[1]
    return witness is None, witness


def rdp_report(table: PartialAdditionTable) -> RdpReport:
    r0, w0 = check_rdp0(table)
    r, w = check_rdp(table)
    r1, w1 = check_rdp1(table)
    return RdpReport(r0, w0, r, w, r1, w1)
