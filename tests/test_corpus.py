import hashlib
import signal
from itertools import product
from typing import Iterator, List, Tuple

import pytest

from peal.constructions import boolean4_table, builtin_pea, chain_table, diamond_table
from peal.core import PartialAdditionTable, _axioms_hold, check_axioms
from peal.corpus import (
    _search,
    are_isomorphic,
    canonical_key,
    canonical_table,
    generate_gpeas,
    generate_peas,
)

UNDEC = -2
UNDEF = -1


def labeled_search(k: int, unital: bool) -> Iterator[List[List[int]]]:
    """The corpus search before it fixed the complement map up to cycle type,
    frozen as an oracle: it backtracks over every middle cell and emits each
    class up to (k-2)! times.  Backtracking enumeration of all valid
    k-element tables (labeled).

    Sound pruning only (cancellation, partial associativity, complement
    feasibility); completeness of each leaf is certified afterwards by the
    real axiom checker.
    """
    lo = 2 if unital else 1
    t = [[UNDEC] * k for _ in range(k)]
    for a in range(k):
        t[0][a] = a
        t[a][0] = a
    if unital:
        for a in range(1, k):
            t[1][a] = UNDEF
            t[a][1] = UNDEF
    cells = [(a, b) for a in range(lo, k) for b in range(lo, k)]
    pairs_by_value: List[List[Tuple[int, int]]] = [[] for _ in range(k)]
    for a in range(k):
        pairs_by_value[a].append((0, a))
        if a != 0:
            pairs_by_value[a].append((a, 0))
    undec_row = [sum(1 for x in row if x == UNDEC) for row in t]
    undec_col = [sum(1 for r in range(k) if t[r][c] == UNDEC) for c in range(k)]

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
            undec_row[a] -= 1
            undec_col[b] -= 1
            ok = True
            if v >= 0:
                pairs_by_value[v].append((a, b))
            if unital:
                # every non-unit row and column must eventually hit the unit
                if undec_row[a] == 0 and 1 not in t[a]:
                    ok = False
                if ok and undec_col[b] == 0 and not any(t[r][b] == 1 for r in range(k)):
                    ok = False
            if ok:
                ok = incident_ok(a, b)
            if ok:
                yield from rec(pos + 1)
            if v >= 0:
                pairs_by_value[v].pop()
            undec_row[a] += 1
            undec_col[b] += 1
            t[a][b] = UNDEC
    yield from rec(0)


def labeled_table(matrix: List[List[int]], unital: bool) -> PartialAdditionTable:
    k = len(matrix)
    names = ["0"]
    if unital:
        names.append("1")
    names.extend("abcdefghijklmnop"[: k - len(names)])
    sums = {}
    for i in range(k):
        for j in range(k):
            v = matrix[i][j]
            if v >= 0:
                sums[(names[i], names[j])] = names[v]
    return PartialAdditionTable(names, "0", "1" if unital else None, sums)


def brute_generate(k, unital):
    """Independent oracle: filter every possible table assignment.

    A candidate is a choice of every middle row, so the candidates are the
    product of the choices per row.  Each is decided on its rows by
    ``_axioms_hold``, which equals ``check_axioms(table, kind).passed`` (see
    ``test_axioms_hold_matches_check_axioms_on_labeled_leaves`` here and
    ``assert_reports_match_frozen`` in test_core.py).  The public constructor
    accepts every candidate, as the unit laws are filled in and every entry
    is an element, so only the valid ones are built, to be keyed.
    """
    names = ["0"] + (["1"] if unital else []) + list("abcdefg")[: k - (2 if unital else 1)]
    lo = 2 if unital else 1
    one = 1 if unital else None
    fixed_rows = [[tuple(range(k))]] + ([[(1,) + (None,) * (k - 1)]] if unital else [])
    middle_rows = [
        [(a,) + (None,) * (lo - 1) + tail for tail in product([None] + list(range(k)), repeat=k - lo)]
        for a in range(lo, k)
    ]
    keys = set()
    for rows in product(*fixed_rows, *middle_rows):
        if not _axioms_hold(rows, 0, one):
            continue
        sums = {
            (names[a], names[b]): names[s]
            for a, row in enumerate(rows) for b, s in enumerate(row) if s is not None
        }
        t = PartialAdditionTable(names, "0", "1" if unital else None, sums)
        assert check_axioms(t, "pea" if unital else "gpea").passed
        keys.add(canonical_key(t))
    return keys


def test_search_keeps_the_classes_of_the_labeled_search():
    """Fixing the complement map up to cycle type loses no class."""
    for k in range(2, 8):
        frozen = set()
        for matrix in labeled_search(k, unital=True):
            table = labeled_table(matrix, unital=True)
            if check_axioms(table, "pea").passed:
                frozen.add(canonical_key(table))
        assert {canonical_key(t) for t in generate_peas(k, min_size=k)} == frozen


@pytest.mark.parametrize("unital", [True, False])
def test_search_leaves_are_labeled_search_leaves(unital):
    for k in range(2 if unital else 1, 7 if unital else 6):
        frozen = {tuple(map(tuple, m)) for m in labeled_search(k, unital)}
        mine = [tuple(map(tuple, m)) for m in _search(k, unital)]
        assert len(mine) == len(set(mine))
        assert set(mine) <= frozen
        if not unital:
            assert set(mine) == frozen


def test_size_eight_classes():
    """The size-8 corpus has 52 classes and must come within 30 s.  The
    labeled search takes about 6 minutes on a 2-core host, hence the guard."""
    def too_slow(signum, frame):
        raise TimeoutError("generate_peas(8, min_size=8) took more than 30 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(30)
    try:
        eight = generate_peas(8, min_size=8)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(eight) == 52
    assert all(check_axioms(t, "pea").passed for t in eight)


def pinned_digest(tables):
    return hashlib.sha256("\n".join(repr(canonical_key(t)) for t in tables).encode()).hexdigest()


# (classes, sha256 of their canonical keys in corpus order), measured on the
# search before it forced complement orbits
PINNED_CLASSES = {
    8: (52, "8bd03ea3aa324d07c5cce198dcfd8f2961f124aa8c44e891071b2a647bfded69"),
    9: (84, "f1c9bd7fdfefb27ff011c0e006651f0cee27e614349f845ca6fcf0ee46250b7b"),
}


@pytest.mark.parametrize("k", sorted(PINNED_CLASSES))
def test_pinned_class_sets(k):
    """The size-8 and size-9 class sets, keys and order are pinned; size 9
    took about 24 s before orbit forcing and must now come within 20 s."""
    def too_slow(signum, frame):
        raise TimeoutError("generate_peas(%d, min_size=%d) took more than 20 s" % (k, k))

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(20)
    try:
        tables = generate_peas(k, min_size=k)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (len(tables), pinned_digest(tables)) == PINNED_CLASSES[k]


def orbit_lemma_failure(table):
    """The first cell breaking a + b = c => b + c~ = a~, or a + b undefined
    <=> a~ not in row b, in a valid PEA; None when both hold everywhere."""
    t = table._sums
    u = table.one_i
    tilde = [row.index(u) for row in t]
    for a in range(table.size):
        for b in range(table.size):
            c = t[a][b]
            if c is not None and t[b][tilde[c]] != tilde[a]:
                return a, b
            if (c is None) != (tilde[a] not in t[b]):
                return a, b
    return None


def test_complement_orbit_lemma():
    """The rule the search forces, checked on finished tables, apart from
    the search: the size-8 corpus and the finite builtins."""
    names = ["diamond", "boolean4"] + ["chain:%d" % n for n in range(1, 12)]
    for table in list(generate_peas(8)) + [builtin_pea(name) for name in names]:
        assert orbit_lemma_failure(table) is None


def test_orbit_lemma_check_sees_a_broken_table():
    # a + b = b breaks the rule: b + b~ = b + b = 1, not a~ = a
    broken = PartialAdditionTable.build(
        ["0", "a", "b", "1"], "0", "1", {("a", "a"): "1", ("b", "b"): "1", ("a", "b"): "b"})
    assert orbit_lemma_failure(broken) == (1, 2)


@pytest.mark.parametrize("unital", [True, False])
def test_axioms_hold_matches_check_axioms_on_labeled_leaves(unital):
    kind, one = ("pea", 1) if unital else ("gpea", None)
    for k in range(2 if unital else 1, 7):
        for matrix in labeled_search(k, unital):
            rows = [[v if v >= 0 else None for v in row] for row in matrix]
            table = labeled_table(matrix, unital)
            assert _axioms_hold(rows, 0, one) == check_axioms(table, kind).passed


def test_small_counts():
    assert len(generate_peas(2)) == 1
    assert len(generate_peas(3, min_size=3)) == 1
    assert len(generate_peas(4, min_size=4)) == 3  # chain, diamond, boolean


def test_four_element_classes():
    four = generate_peas(4, min_size=4)
    keys = {canonical_key(t) for t in four}
    assert keys == {
        canonical_key(chain_table(3)),
        canonical_key(diamond_table()),
        canonical_key(boolean4_table()),
    }


@pytest.mark.parametrize("k,unital", [(3, False), (4, False), (4, True)])
def test_search_matches_brute_force(k, unital):
    gen = generate_gpeas(k, min_size=k) if not unital else generate_peas(k, min_size=k)
    assert {canonical_key(t) for t in gen} == brute_generate(k, unital)


def test_chains_present_up_to_seven(pea_corpus_full):
    keys = {canonical_key(t) for t in pea_corpus_full}
    for n in range(1, 7):
        assert canonical_key(chain_table(n)) in keys


def test_all_generated_tables_valid(pea_corpus_full, gpea_corpus):
    for t in pea_corpus_full:
        assert check_axioms(t, "pea").passed
    for t in gpea_corpus:
        assert check_axioms(t, "gpea").passed


def test_no_duplicates(pea_corpus_full):
    keys = [canonical_key(t) for t in pea_corpus_full]
    assert len(keys) == len(set(keys))


def test_isomorphism_invariance():
    # relabeling the middle elements must not change the class
    d1 = diamond_table()
    d2 = PartialAdditionTable.build(
        ["0", "x", "y", "1"], "0", "1", {("x", "x"): "1", ("y", "y"): "1"}
    )
    assert are_isomorphic(d1, d2)
    assert not are_isomorphic(d1, boolean4_table())
    assert canonical_table(d2) == canonical_table(d1)


def test_cyclic_nonsymmetric_gpea_found(gpea_corpus):
    cyc = PartialAdditionTable.build(
        ["0", "a", "b", "c", "d"],
        "0",
        None,
        {("a", "b"): "c", ("b", "d"): "c", ("d", "a"): "c"},
    )
    assert check_axioms(cyc, "gpea").passed
    assert any(are_isomorphic(cyc, g) for g in gpea_corpus)


def test_known_six_element_algebras_present(pea_corpus_full):
    from peal.constructions import gamma_interval_finite
    from peal.groups import IntVectorGroup, UnitalPoGroup

    keys = {canonical_key(t) for t in pea_corpus_full}
    box = gamma_interval_finite(UnitalPoGroup(IntVectorGroup(2), (1, 2)))
    assert canonical_key(box) in keys
    # horizontal glue of two self-complementary atoms with a two-step chain
    mixed = PartialAdditionTable.build(
        ["0", "h", "k", "m", "1"], "0", "1",
        {("h", "h"): "1", ("k", "k"): "m", ("k", "m"): "1", ("m", "k"): "1"},
    )
    assert check_axioms(mixed, "pea").passed
    assert canonical_key(mixed) in keys
