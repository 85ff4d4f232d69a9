"""Riesz decomposition properties on finite PEAs, decided by exhaustive search."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .core import (
    InconsistencyError,
    PartialAdditionTable,
    _differences,
    _require_pea,
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


def check_rdp(table: PartialAdditionTable) -> Tuple[bool, Optional[Tuple[str, ...]]]:
    """(RDP): every pair of equal sums a1+a2 = b1+b2 has a 2x2 refinement
    c11+c12 = a1, c21+c22 = a2, c11+c21 = b1, c12+c22 = b2."""
    _require_pea(table)
    t = table._sums
    k = table.size
    els = table.elements
    for a1 in range(k):
        for a2 in range(k):
            s = t[a1][a2]
            if s is None:
                continue
            for b1 in range(k):
                for b2 in range(k):
                    if t[b1][b2] != s:
                        continue
                    if next(_refinement_matrices(table, a1, a2, b1, b2), None) is None:
                        return False, (els[a1], els[a2], els[b1], els[b2])
    return True, None


def check_rdp1(table: PartialAdditionTable) -> Tuple[bool, Optional[Tuple[str, ...]]]:
    """(RDP)_1: as (RDP), but a refinement only counts when all x <= c12 and
    y <= c21 have x+y and y+x defined and equal.  All matrices are tried
    before a failure is declared."""
    _require_pea(table)
    t = table._sums
    k = table.size
    leq = induced_order(table)._leq
    els = table.elements

    def side_condition(c12, c21):
        for x in range(k):
            if not leq[x][c12]:
                continue
            for y in range(k):
                if not leq[y][c21]:
                    continue
                if t[x][y] is None or t[y][x] is None or t[x][y] != t[y][x]:
                    return False
        return True

    for a1 in range(k):
        for a2 in range(k):
            s = t[a1][a2]
            if s is None:
                continue
            for b1 in range(k):
                for b2 in range(k):
                    if t[b1][b2] != s:
                        continue
                    ok = any(
                        side_condition(c12, c21)
                        for _, c12, c21, _ in _refinement_matrices(table, a1, a2, b1, b2)
                    )
                    if not ok:
                        return False, (els[a1], els[a2], els[b1], els[b2])
    return True, None


def rdp_report(table: PartialAdditionTable) -> RdpReport:
    r0, w0 = check_rdp0(table)
    r, w = check_rdp(table)
    r1, w1 = check_rdp1(table)
    return RdpReport(r0, w0, r, w, r1, w1)
