"""Exhaustive small-model corpus: generation of all PEAs/GPEAs up to a size
cap, canonical labeling, and isomorphism testing.

Isomorphisms fix zero (and the unit); dedup works by lexicographic
minimization of the (order relation, addition table) encoding over admissible
relabelings.

The search fixes the complement map sigma(a) = a~ before anything else.  By
PE2 the unit cells a + a~ = 1 of the middle rows form a permutation of the
middle elements, and relabeling by pi (fixing 0 and 1) conjugates it, so it
only matters up to cycle type: the search pre-places one representative per
partition of k-2 and backtracks over the remaining cells (the
symmetry-breaking idea of McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998, applied to the unit cells only).  With sigma fixed,
every PEA obeys a + b = c => b + sigma(c) = sigma(a): cancel a from
a + (b + sigma(c)) = (a + b) + sigma(c) = 1 = a + sigma(a).  So choosing one
cell of a PEA decides its whole orbit under (a, b, c) -> (b, sigma(c),
sigma(a)), and the search sets the orbit at once (see :func:`_search`).
GPEAs have no unit, hence no such rule, and their search forces nothing.

A class can still appear several times.  Each leaf stays an int matrix: the
axioms are decided on its rows by the first-violation test
``core._axioms_hold`` (the witness helpers of ``check_axioms``), its key is
the row-level :func:`_min_encoding`, and a table is built once per class.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .core import InputError, PartialAdditionTable, _axioms_hold, _require_gpea, derived
from .core import check_axioms  # noqa: F401  re-exported; perfbench traces it under this name

UNDEC = -2
UNDEF = -1

_NAMES = "abcdefghijklmnop"


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


def _min_encoding(t, z: int, u: Optional[int]) -> Tuple[tuple, List[int]]:
    """The canonical encoding of the table with rows ``t`` (``t[a][b]`` the
    index of a + b, or None), zero ``z`` and unit ``u`` (or None), and the
    old indices in canonical order (zero, then the unit, then the middles).

    The encoding is the least, over relabelings fixing zero and the unit,
    of (element profiles, order relation, addition table).  A profile is an
    isomorphism-invariant fingerprint of an element (the sizes of its
    down-set and up-set, of its row and column, and whether a + a is
    defined); only relabelings that sort the middles by profile are tried,
    and the profile part is the same for all of them.  The order is read
    off the rows: a <= b iff a + c = b for some c.
    """
    k = len(t)
    up = [0] * k
    down = [0] * k
    for a, row in enumerate(t):
        for s in row:
            if s is not None:
                up[a] |= 1 << s
                down[s] |= 1 << a
    fixed = [z] if u is None or u == z else [z, u]
    middles = [i for i in range(k) if i not in fixed]
    profiles = {
        i: (down[i].bit_count(), up[i].bit_count(), k - t[i].count(None),
            sum(1 for row in t if row[i] is not None), t[i][i] is not None)
        for i in middles
    }
    best = None
    best_positions: List[int] = fixed
    new_of_old = [0] * k
    for perm in _candidate_perms(middles, profiles):
        positions = fixed + perm
        for new, old in enumerate(positions):
            new_of_old[old] = new
        rows = [t[a] for a in positions]
        code = tuple(
            [up[a] >> b & 1 == 1 for a in positions for b in positions]
            + [-1 if row[b] is None else new_of_old[row[b]] for row in rows for b in positions]
        )
        if best is None or code < best:
            best, best_positions = code, positions
    return tuple(profiles[i] for i in best_positions[len(fixed):]) + best, best_positions


def _relabeled(t, positions: Sequence[int], unital: bool) -> PartialAdditionTable:
    """The table with rows ``t`` relabeled so that old index positions[i]
    becomes i, its elements named 0, 1 (when unital), a, b, ..."""
    names = ["0", "1"] if unital else ["0"]
    names.extend(_NAMES[:len(positions) - len(names)])
    old_to_name = {old: names[new] for new, old in enumerate(positions)}
    sums = {
        (old_to_name[i], old_to_name[j]): old_to_name[s]
        for i, row in enumerate(t)
        for j, s in enumerate(row)
        if s is not None
    }
    return PartialAdditionTable(names, "0", "1" if unital else None, sums)


@derived
def _table_encoding(table: PartialAdditionTable) -> Tuple[tuple, List[int]]:
    _require_gpea(table)
    return _min_encoding(table._sums, table.zero_i, table.one_i)


@derived
def canonical_key(table: PartialAdditionTable):
    """Lexicographically minimal (element profiles, order, addition) encoding
    over relabelings that fix zero and, when present, the unit."""
    return table.size, table.one is not None, _table_encoding(table)[0]


def canonical_table(table: PartialAdditionTable) -> PartialAdditionTable:
    """A canonically labeled representative of the isomorphism class, with
    elements renamed 0, 1, a, b, ..."""
    return _relabeled(table._sums, _table_encoding(table)[1], table.one is not None)


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
    one per isomorphism class; ``t[a][b]`` is the index of a + b, UNDEF (-1)
    when it is undefined.

    For a PEA, PE2 gives each element a exactly one a~ with a + a~ = 1, so the
    unit cells of the middle rows form a permutation sigma of the middle
    elements 2..k-1, and a relabeling fixing 0 and 1 conjugates sigma.  Every
    class therefore has a member whose sigma is the consecutive-cycle
    representative of its cycle type: the search pre-places those unit cells,
    one partition of k-2 at a time, and cancellation keeps 1 out of every
    other cell.  A GPEA search runs once with no unit cells.

    Each decided cell a + b must pass cancellation (its value is nowhere
    else in its row or column) and every associativity triple it completes:
    (a + b) + z, (x + a) + b, x + (y + b) for x + y = a, and (a + y) + z
    for y + z = b, each tested against the other bracketing as soon as all
    its cells are decided.  Those triples are tested inline, cell by cell.

    A PEA search also forces the complement orbit of each defined cell.
    With sigma(0) = 1 and sigma(1) = 0, every PEA satisfies

        a + b = c  =>  b + sigma(c) = sigma(a):

    from c + sigma(c) = 1, (a + b) + sigma(c) = 1, so by associativity
    a + (b + sigma(c)) = 1 = a + sigma(a), and cancelling a leaves
    b + sigma(c) = sigma(a).  So setting a + b = c sets every cell of the
    orbit of (a, b, c) under T(a, b, c) = (b, sigma(c), sigma(a)), on a
    trail that backtracking undoes.  T^3 applies sigma^2 to all three
    entries, so T has finite order and the orbit closes after at most
    3 * ord(sigma^2) cells; as T permutes triples, the rule holds both ways.
    A forced cell that is already decided must agree, and a new one gets
    the same cancellation and associativity tests as a chosen one.  An
    orbit that starts at a middle cell stays on middle cells with middle
    values other than their operands, so it never meets the fixed rows and
    columns of 0 and 1 or a unit cell.  Setting a + b undefined forces
    nothing and needs no test of its own: a + b is undefined exactly when
    sigma(a) is not in row b, and were b + x = sigma(a) decided, its orbit,
    which holds T^-1(b, x, sigma(a)) = (a, b, sigma^-1(x)), would already
    have decided a + b.  A GPEA has no sigma and no such rule, as the
    derivation needs the unit: its search forces nothing.

    Only sound pruning happens here; a leaf is certified by the axioms
    afterwards (:func:`_classes`).
    """
    lo = 2 if unital else 1
    for units in _unit_maps(k - 2) if unital else [[]]:
        t = [[UNDEC] * k for _ in range(k)]
        for a in range(k):
            t[0][a] = a
            t[a][0] = a
        if unital:
            for a in range(1, k):
                t[1][a] = UNDEF
                t[a][1] = UNDEF
        sigma = [1, 0] + [0] * (k - 2) if unital else None
        for a, b in units:
            t[a][b] = 1
            sigma[a] = b
        tt = [list(col) for col in zip(*t)]  # tt[b][a] is t[a][b]
        pairs_by_value: List[List[Tuple[int, int]]] = [[] for _ in range(k)]
        for a in range(k):
            pairs_by_value[a].append((0, a))
            if a != 0:
                pairs_by_value[a].append((a, 0))
        for a, b in units:
            pairs_by_value[1].append((a, b))
        cells = [(a, b) for a in range(lo, k) for b in range(lo, k) if t[a][b] == UNDEC]

        def incident_ok(a: int, b: int) -> bool:
            v = t[a][b]
            ta, tb = t[a], t[b]
            tv = t[v] if v >= 0 else None
            # (a + b) + z against a + (b + z)
            for z, bz in enumerate(tb):
                if bz == UNDEC:
                    continue
                if tv is None:
                    lhs = UNDEF
                else:
                    lhs = tv[z]
                    if lhs == UNDEC:
                        continue
                if bz == UNDEF:
                    rhs = UNDEF
                else:
                    rhs = ta[bz]
                    if rhs == UNDEC:
                        continue
                if lhs != rhs:
                    return False
            # (x + a) + b against x + (a + b)
            for x, xa in enumerate(tt[a]):
                if xa == UNDEC:
                    continue
                if xa == UNDEF:
                    lhs = UNDEF
                else:
                    lhs = t[xa][b]
                    if lhs == UNDEC:
                        continue
                if v == UNDEF:
                    rhs = UNDEF
                else:
                    rhs = t[x][v]
                    if rhs == UNDEC:
                        continue
                if lhs != rhs:
                    return False
            # (x + y) + b = a + b against x + (y + b), for x + y = a
            for x, y in pairs_by_value[a]:
                yb = t[y][b]
                if yb == UNDEC:
                    continue
                if yb == UNDEF:
                    rhs = UNDEF
                else:
                    rhs = t[x][yb]
                    if rhs == UNDEC:
                        continue
                if v != rhs:
                    return False
            # (a + y) + z against a + (y + z) = a + b, for y + z = b
            for y, z in pairs_by_value[b]:
                ay = ta[y]
                if ay == UNDEC:
                    continue
                if ay == UNDEF:
                    lhs = UNDEF
                else:
                    lhs = t[ay][z]
                    if lhs == UNDEC:
                        continue
                if lhs != v:
                    return False
            return True

        def place(a: int, b: int, v: int) -> List[Tuple[int, int]]:
            """Set a + b = v and, in a PEA, the rest of its orbit; the cells
            set, or None (with nothing set) when a forced cell conflicts."""
            t[a][b] = tt[b][a] = v
            trail = [(a, b)]
            if v >= 0:
                pairs_by_value[v].append((a, b))
                if sigma is not None:
                    x, y, w = b, sigma[v], sigma[a]
                    while x != a or y != b or w != v:
                        cur = t[x][y]
                        if cur != UNDEC:
                            if cur != w:
                                break
                        elif w in t[x] or w in tt[y]:
                            break  # cancellation
                        else:
                            t[x][y] = tt[y][x] = w
                            pairs_by_value[w].append((x, y))
                            trail.append((x, y))
                        x, y, w = y, sigma[w], sigma[x]
                    else:
                        return trail
                    unplace(trail)
                    return None
            return trail

        def unplace(trail: List[Tuple[int, int]]) -> None:
            for x, y in reversed(trail):
                w = t[x][y]
                if w >= 0:
                    pairs_by_value[w].pop()
                t[x][y] = tt[y][x] = UNDEC

        def rec(pos: int) -> Iterator[List[List[int]]]:
            while pos < len(cells) and t[cells[pos][0]][cells[pos][1]] != UNDEC:
                pos += 1  # forced by an earlier orbit
            if pos == len(cells):
                yield [row[:] for row in t]
                return
            a, b = cells[pos]
            row, col = t[a], tt[b]
            candidates = [UNDEF]
            for v in range(1, k):
                if v == a or v == b:
                    continue
                if v in row or v in col:
                    continue  # cancellation
                candidates.append(v)
            for v in candidates:
                trail = place(a, b, v)
                if trail is None:
                    continue
                if all(incident_ok(x, y) for x, y in trail):
                    yield from rec(pos + 1)
                unplace(trail)

        if all(incident_ok(a, b) for a, b in units):
            yield from rec(0)


def _classes(min_size: int, max_size: int, unital: bool) -> Tuple[PartialAdditionTable, ...]:
    """One canonical table per isomorphism class found by the search, per
    size in min_size..max_size, each size sorted by canonical key.

    A leaf stays a matrix: the axioms are decided on its rows by
    :func:`_axioms_hold`, its key comes from :func:`_min_encoding` on the
    same rows, and a table is built only for the first leaf of each class.
    """
    one = 1 if unital else None
    out: List[PartialAdditionTable] = []
    for k in range(min_size, max_size + 1):
        found: Dict[tuple, tuple] = {}
        for matrix in _search(k, unital=unital):
            t = [[v if v >= 0 else None for v in row] for row in matrix]
            if not _axioms_hold(t, 0, one):
                continue
            best, positions = _min_encoding(t, 0, one)
            if best not in found:
                found[best] = (t, positions)
        out.extend(_relabeled(*found[best], unital) for best in sorted(found))
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
