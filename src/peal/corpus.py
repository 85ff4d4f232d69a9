"""Exhaustive small-model corpus: generation of all PEAs/GPEAs up to a size
cap, canonical labeling, and isomorphism testing.

Isomorphisms fix zero (and the unit); dedup works by lexicographic
minimization of the (order relation, addition table) encoding over admissible
relabelings.

The search fixes the complement map before anything else.  By PE2 the unit
cells a + a~ = 1 of the middle rows form a permutation of the middle
elements, and relabeling by pi (fixing 0 and 1) conjugates it, so it only
matters up to cycle type: the search pre-places one representative per
partition of k-2 and backtracks over the remaining cells (the symmetry-breaking
idea of McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998,
applied to the unit cells only).  A class can still appear several times, so
every leaf is certified by `check_axioms` and deduplicated by canonical key.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .core import InputError, PartialAdditionTable, check_axioms, derived, induced_order

UNDEC = -2
UNDEF = -1

_NAMES = "abcdefghijklmnop"


def _middle_names(count: int) -> List[str]:
    return [_NAMES[i] for i in range(count)]


def _encode(table: PartialAdditionTable, perm: Sequence[int], positions: Sequence[int]):
    """Key of the table relabeled so that old index positions[i] becomes i."""
    new_of_old = [0] * table.size
    for new, old in enumerate(positions):
        new_of_old[old] = new
    up = induced_order(table).up
    t = table._sums
    order_part = tuple(up[a] >> b & 1 == 1 for a in positions for b in positions)
    add_part = tuple(
        -1 if t[a][b] is None else new_of_old[t[a][b]]
        for a in positions
        for b in positions
    )
    return order_part + add_part


def _element_profile(table: PartialAdditionTable, i: int):
    """Isomorphism-invariant fingerprint of one element; used to cut the
    permutation search without changing the induced equivalence."""
    order = induced_order(table)
    t = table._sums
    return (
        order.down[i].bit_count(),
        order.up[i].bit_count(),
        sum(1 for s in t[i] if s is not None),
        sum(1 for row in t if row[i] is not None),
        t[i][i] is not None,
    )


def _candidate_perms(middles: List[int], profiles: Dict[int, tuple]):
    """Permutations of the middle elements compatible with sorting by the
    invariant profile.  The profile tuple leads the canonical key, so the
    lexicographic minimum is attained inside this family."""
    blocks: List[List[int]] = []
    for i in sorted(middles, key=lambda i: profiles[i]):
        if blocks and profiles[blocks[-1][0]] == profiles[i]:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    def rec(idx: int, acc: List[int]):
        if idx == len(blocks):
            yield list(acc)
            return
        for perm in permutations(blocks[idx]):
            yield from rec(idx + 1, acc + list(perm))
    yield from rec(0, [])


@derived
def _min_encoding(table: PartialAdditionTable):
    fixed = [table.zero_i]
    if table.one_i is not None and table.one_i != table.zero_i:
        fixed.append(table.one_i)
    middles = [i for i in range(table.size) if i not in fixed]
    profiles = {i: _element_profile(table, i) for i in middles}
    best = None
    best_perm: Optional[List[int]] = None
    for perm in _candidate_perms(middles, profiles):
        key = tuple(profiles[i] for i in perm) + _encode(table, perm, fixed + perm)
        if best is None or key < best:
            best, best_perm = key, perm
    if best_perm is None:
        best = _encode(table, (), fixed)
        best_perm = []
    return fixed, middles, best, best_perm


@derived
def canonical_key(table: PartialAdditionTable):
    """Lexicographically minimal (element profiles, order, addition) encoding
    over relabelings that fix zero and, when present, the unit."""
    _, _, best, _ = _min_encoding(table)
    return table.size, table.one is not None, best


def canonical_table(table: PartialAdditionTable) -> PartialAdditionTable:
    """A canonically labeled representative of the isomorphism class, with
    elements renamed 0, 1, a, b, ..."""
    fixed, middles, _, best_perm = _min_encoding(table)
    positions = fixed + best_perm
    names = ["0"]
    if len(fixed) == 2:
        names.append("1")
    names.extend(_middle_names(len(middles)))
    old_to_name = {old: names[new] for new, old in enumerate(positions)}
    sums = {}
    t = table._sums
    for i in range(table.size):
        for j in range(table.size):
            s = t[i][j]
            if s is not None:
                sums[(old_to_name[i], old_to_name[j])] = old_to_name[s]
    ordered = [old_to_name[old] for old in positions]
    one_name = "1" if len(fixed) == 2 else None
    return PartialAdditionTable(ordered, "0", one_name, sums)


def are_isomorphic(t1: PartialAdditionTable, t2: PartialAdditionTable) -> bool:
    return canonical_key(t1) == canonical_key(t2)


def _unit_maps(m: int) -> Iterator[List[Tuple[int, int]]]:
    """The unit cells (a, a~) of one complement map per cycle type on the m
    middle elements 2..m+1: for each partition of m, largest part first, its
    cycles are laid on consecutive indices."""
    def partitions(rest: int, largest: int) -> Iterator[Tuple[int, ...]]:
        if rest == 0:
            yield ()
        for part in range(min(rest, largest), 0, -1):
            for tail in partitions(rest - part, part):
                yield (part,) + tail

    for parts in partitions(m, m):
        units: List[Tuple[int, int]] = []
        start = 2
        for part in parts:
            units.extend((start + i, start + (i + 1) % part) for i in range(part))
            start += part
        yield units


def _search(k: int, unital: bool) -> Iterator[List[List[int]]]:
    """Backtracking enumeration of valid k-element tables (labeled), at least
    one per isomorphism class.

    For a PEA, PE2 gives each element a exactly one a~ with a + a~ = 1, so the
    unit cells of the middle rows form a permutation sigma of the middle
    elements 2..k-1, and a relabeling fixing 0 and 1 conjugates sigma.  Every
    class therefore has a member whose sigma is the consecutive-cycle
    representative of its cycle type: the search pre-places those unit cells,
    one partition of k-2 at a time, and cancellation keeps 1 out of every
    other cell.  A GPEA search runs once with no unit cells.

    Sound pruning only (cancellation, partial associativity); completeness of
    each leaf is certified afterwards by the real axiom checker.
    """
    for units in _unit_maps(k - 2) if unital else [[]]:
        yield from _complete(k, unital, units)


def _complete(k: int, unital: bool, units: List[Tuple[int, int]]) -> Iterator[List[List[int]]]:
    """Every table extending the fixed rows and columns of 0 (and of 1 when
    unital) and the given unit cells that passes the search's pruning."""
    lo = 2 if unital else 1
    t = [[UNDEC] * k for _ in range(k)]
    for a in range(k):
        t[0][a] = a
        t[a][0] = a
    if unital:
        for a in range(1, k):
            t[1][a] = UNDEF
            t[a][1] = UNDEF
    pairs_by_value: List[List[Tuple[int, int]]] = [[] for _ in range(k)]
    for a in range(k):
        pairs_by_value[a].append((0, a))
        if a != 0:
            pairs_by_value[a].append((a, 0))
    for a, b in units:
        t[a][b] = 1
        pairs_by_value[1].append((a, b))
    cells = [(a, b) for a in range(lo, k) for b in range(lo, k) if t[a][b] == UNDEC]

    def triple_ok(x: int, y: int, z: int) -> bool:
        xy = t[x][y]
        if xy == UNDEC:
            return True
        yz = t[y][z]
        if yz == UNDEC:
            return True
        if xy == UNDEF:
            lhs, lval = False, -1
        else:
            w = t[xy][z]
            if w == UNDEC:
                return True
            lhs, lval = w != UNDEF, w
        if yz == UNDEF:
            rhs, rval = False, -1
        else:
            w = t[x][yz]
            if w == UNDEC:
                return True
            rhs, rval = w != UNDEF, w
        if lhs != rhs:
            return False
        return not lhs or lval == rval

    def incident_ok(a: int, b: int) -> bool:
        for z in range(k):
            if not triple_ok(a, b, z):
                return False
        for x in range(k):
            if not triple_ok(x, a, b):
                return False
        for (x, y) in pairs_by_value[a]:
            if not triple_ok(x, y, b):
                return False
        for (y, z) in pairs_by_value[b]:
            if not triple_ok(a, y, z):
                return False
        return True

    def rec(pos: int) -> Iterator[List[List[int]]]:
        if pos == len(cells):
            yield [row[:] for row in t]
            return
        a, b = cells[pos]
        row = t[a]
        col = [t[r][b] for r in range(k)]
        candidates = [UNDEF]
        for v in range(1, k):
            if v == a or v == b:
                continue
            if v in row or v in col:
                continue  # cancellation
            candidates.append(v)
        for v in candidates:
            t[a][b] = v
            if v >= 0:
                pairs_by_value[v].append((a, b))
            if incident_ok(a, b):
                yield from rec(pos + 1)
            if v >= 0:
                pairs_by_value[v].pop()
            t[a][b] = UNDEC

    if all(incident_ok(a, b) for a, b in units):
        yield from rec(0)


def _table_from_matrix(matrix: List[List[int]], unital: bool) -> PartialAdditionTable:
    k = len(matrix)
    names = ["0"]
    if unital:
        names.append("1")
    names.extend(_middle_names(k - len(names)))
    sums = {}
    for i in range(k):
        for j in range(k):
            v = matrix[i][j]
            if v >= 0:
                sums[(names[i], names[j])] = names[v]
    return PartialAdditionTable(names, "0", "1" if unital else None, sums)


def _classes(min_size: int, max_size: int, unital: bool) -> Tuple[PartialAdditionTable, ...]:
    """One canonical table per isomorphism class found by the search, per
    size in min_size..max_size, each size sorted by canonical key."""
    kind = "pea" if unital else "gpea"
    out: List[PartialAdditionTable] = []
    for k in range(min_size, max_size + 1):
        seen = set()
        sized: List[Tuple[object, PartialAdditionTable]] = []
        for matrix in _search(k, unital=unital):
            table = _table_from_matrix(matrix, unital=unital)
            if not check_axioms(table, kind).passed:
                continue
            key = canonical_key(table)
            if key in seen:
                continue
            seen.add(key)
            sized.append((key, canonical_table(table)))
        sized.sort(key=lambda kv: kv[0])
        out.extend(tb for _, tb in sized)
    return tuple(out)


@lru_cache(maxsize=None)
def generate_peas(max_size: int, min_size: int = 2) -> Tuple[PartialAdditionTable, ...]:
    """All PEAs with min_size..max_size elements, one canonical table per
    isomorphism class, deterministically ordered.

    Tables are immutable, so the result is memoised process-wide.
    """
    if max_size < 2:
        raise InputError("a PEA needs at least the two elements 0 and 1")
    return _classes(max(2, min_size), max_size, unital=True)


@lru_cache(maxsize=None)
def generate_gpeas(max_size: int, min_size: int = 1) -> Tuple[PartialAdditionTable, ...]:
    """All GPEAs with min_size..max_size elements up to isomorphism."""
    if max_size < 1:
        raise InputError("a GPEA needs at least the element 0")
    return _classes(max(1, min_size), max_size, unital=False)
