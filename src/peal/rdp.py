"""Riesz decomposition properties on finite PEAs, decided by exhaustive search.

(RDP)_0 is searched directly.  (RDP) and (RDP)_1 share one scan over the
equal sums a1+a2 = b1+b2 and their 2x2 refinements, run once per table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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


def _refinement_matrices(t, rdiff, down, a1, a2, b1, b2):
    """All 2x2 refinements of a1+a2 = b1+b2, as their (c12, c21).

    Only c11 is searched, over the common lower bounds of a1 and b1: the
    sum equations pin c12, c21 by cancellation and c22 must solve both
    remaining equations.
    """
    for c11 in _bits(down[a1] & down[b1]):
        c12 = rdiff[c11][a1]
        c21 = rdiff[c11][b1]
        c22 = rdiff[c21][a2]
        if c22 is not None and t[c12][c22] == b2:
            yield c12, c21


@derived
def _refinement_scan(table: PartialAdditionTable):
    """The first quadruple (a1, a2, b1, b2) failing (RDP) and the first
    failing (RDP)_1, each None when the property holds.

    One pass over the equal sums a1+a2 = b1+b2 in element order; a
    quadruple with no refinement fails both properties.  Refinements are
    tried until one meets the (RDP)_1 side condition, or until the first
    one once an (RDP)_1 witness is known; the side condition is decided
    once per pair (c12, c21).
    """
    _require_pea(table)
    t = table._sums
    down = induced_order(table).down
    rdiff = _differences(table)[1]
    els = table.elements

    @functools.cache
    def side_condition(c12, c21):
        # every x <= c12 and y <= c21 have x+y and y+x defined and equal
        return all(
            t[x][y] is not None and t[x][y] == t[y][x]
            for x in _bits(down[c12])
            for y in _bits(down[c21])
        )

    pairs_by_sum: Dict[int, List[Tuple[int, int]]] = {}
    for b1, b2, s in table.defined_sums():
        pairs_by_sum.setdefault(s, []).append((b1, b2))
    rdp1_witness = None
    for a1, a2, s in table.defined_sums():
        for b1, b2 in pairs_by_sum[s]:
            refined = False
            for c12, c21 in _refinement_matrices(t, rdiff, down, a1, a2, b1, b2):
                refined = True
                if rdp1_witness is not None or side_condition(c12, c21):
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
