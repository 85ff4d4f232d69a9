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

    Only d1 is searched: d2 is forced to be the difference d1/a."""
    _require_pea(table)
    t = table._sums
    k = table.size
    leq = induced_order(table)._leq
    rdiff = _differences(table)[1]
    els = table.elements
    for b1 in range(k):
        for b2 in range(k):
            s = t[b1][b2]
            if s is None:
                continue
            for a in range(k):
                if not leq[a][s]:
                    continue
                ok = any(
                    leq[d1][b1] and rdiff[d1][a] is not None and leq[rdiff[d1][a]][b2]
                    for d1 in range(k)
                )
                if not ok:
                    return False, (els[a], els[b1], els[b2])
    return True, None


def _refinement_matrices(table, a1, a2, b1, b2):
    """All 2x2 refinements of a1+a2 = b1+b2.

    Only c11 is searched: the sum equations pin c12, c21 by cancellation and
    c22 must solve both remaining equations.
    """
    t = table._sums
    rdiff = _differences(table)[1]
    for c11 in range(table.size):
        c12 = rdiff[c11][a1]
        c21 = rdiff[c11][b1]
        if c12 is None or c21 is None:
            continue
        c22 = rdiff[c21][a2]
        if c22 is None or t[c12][c22] != b2:
            continue
        yield c11, c12, c21, c22


@derived
def _refinement_scan(table: PartialAdditionTable):
    """The first quadruple (a1, a2, b1, b2) failing (RDP) and the first
    failing (RDP)_1, each None when the property holds.

    One pass over the equal sums a1+a2 = b1+b2 in element order; a
    quadruple with no refinement fails both properties.  The (RDP)_1 side
    condition is decided once per pair (c12, c21).
    """
    _require_pea(table)
    t = table._sums
    k = table.size
    leq = induced_order(table)._leq
    els = table.elements
    below = [[x for x in range(k) if leq[x][c]] for c in range(k)]

    @functools.cache
    def side_condition(c12, c21):
        # every x <= c12 and y <= c21 have x+y and y+x defined and equal
        return all(
            t[x][y] is not None and t[x][y] == t[y][x]
            for x in below[c12]
            for y in below[c21]
        )

    pairs_by_sum: Dict[int, List[Tuple[int, int]]] = {}
    for b1, b2, s in table.defined_sums():
        pairs_by_sum.setdefault(s, []).append((b1, b2))
    rdp1_witness = None
    for a1, a2, s in table.defined_sums():
        for b1, b2 in pairs_by_sum[s]:
            refinements = [
                (c12, c21) for _, c12, c21, _ in _refinement_matrices(table, a1, a2, b1, b2)
            ]
            witness = (els[a1], els[a2], els[b1], els[b2])
            if not refinements:
                return witness, rdp1_witness or witness
            if rdp1_witness is None and not any(
                side_condition(c12, c21) for c12, c21 in refinements
            ):
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
