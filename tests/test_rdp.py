import functools
import random
import time
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as hyp

from peal.constructions import chain_table, gamma_interval_finite, unitize
from peal.core import (
    PartialAdditionTable,
    PealError,
    _bits,
    _differences,
    _require_pea,
    check_axioms,
    induced_order,
)
from peal.corpus import generate_peas
from peal.groups import IntVectorGroup, UnitalPoGroup
from peal.rdp import (
    _commuting_below,
    _refinement_scan,
    check_rdp,
    check_rdp0,
    check_rdp1,
    rdp_report,
)
from test_core import matrix_table


def brute_rdp0(table):
    """Independent oracle: exhaustive search over all (d1, d2) splits."""
    order = induced_order(table)
    for b1 in table.elements:
        for b2 in table.elements:
            s = table.add(b1, b2)
            if s is None:
                continue
            for a in table.elements:
                if not order.le(a, s):
                    continue
                if not any(
                    order.le(d1, b1) and order.le(d2, b2) and table.add(d1, d2) == a
                    for d1 in table.elements
                    for d2 in table.elements
                ):
                    return False, (a, b1, b2)
    return True, None


def commute_below(table, c12, c21):
    """Independent oracle for the (RDP)_1 side condition: x + y and y + x
    are defined and equal for all x <= c12, y <= c21."""
    order = induced_order(table)
    els = table.elements
    return all(
        table.add(x, y) is not None and table.add(x, y) == table.add(y, x)
        for x in els
        if order.le(x, c12)
        for y in els
        if order.le(y, c21)
    )


def brute_rdp(table, rdp1=False):
    """Independent oracle: full quadruple search for the refinement matrix;
    the first failing (a1, a2, b1, b2) is the witness.  With ``rdp1`` the
    matrix must also pass :func:`commute_below`, as (RDP)_1 requires."""
    els = table.elements

    for a1 in els:
        for a2 in els:
            s = table.add(a1, a2)
            if s is None:
                continue
            for b1 in els:
                for b2 in els:
                    if table.add(b1, b2) != s:
                        continue
                    found = any(
                        table.add(c11, c12) == a1
                        and table.add(c21, c22) == a2
                        and table.add(c11, c21) == b1
                        and table.add(c12, c22) == b2
                        and (not rdp1 or commute_below(table, c12, c21))
                        for c11 in els
                        for c12 in els
                        for c21 in els
                        for c22 in els
                    )
                    if not found:
                        return False, (a1, a2, b1, b2)
    return True, None


def test_diamond_fails_rdp0(diamond):
    ok, witness = check_rdp0(diamond)
    assert not ok
    assert brute_rdp0(diamond)[0] is False
    # the reported witness really has no split
    a, b1, b2 = witness
    order = induced_order(diamond)
    assert order.le(a, diamond.add(b1, b2))
    assert not any(
        order.le(d1, b1) and order.le(d2, b2) and diamond.add(d1, d2) == a
        for d1 in diamond.elements
        for d2 in diamond.elements
    )


def test_boolean4_satisfies_all(boolean4):
    rep = rdp_report(boolean4)
    assert rep.rdp0 and rep.rdp and rep.rdp1


def test_chains_satisfy_all():
    for n in range(1, 7):
        rep = rdp_report(chain_table(n))
        assert rep.rdp0 and rep.rdp and rep.rdp1


def test_diamond_fails_rdp_and_rdp1(diamond):
    assert not check_rdp(diamond)[0]
    assert not check_rdp1(diamond)[0]
    assert brute_rdp(diamond)[0] is False


def test_rdp_matches_brute_oracle(pea_corpus_small, diamond):
    for table in list(pea_corpus_small) + [diamond]:
        if table.size > 5:
            continue  # the quadruple-of-quadruples oracle is O(k^8)
        assert check_rdp(table) == brute_rdp(table)
        assert check_rdp1(table) == brute_rdp(table, rdp1=True)
        assert check_rdp0(table)[0] == brute_rdp0(table)[0]


def test_implication_chain_on_corpus(pea_corpus_small):
    for table in pea_corpus_small:
        rep = rdp_report(table)  # constructor enforces rdp1 => rdp => rdp0
        if all(table.add(a, b) == table.add(b, a) for a in table.elements for b in table.elements):
            assert rep.rdp == rep.rdp1


def test_rdp0_matches_brute_oracle_with_witness(pea_corpus_small):
    for table in pea_corpus_small:
        assert check_rdp0(table) == brute_rdp0(table)


def test_rdp0_on_chain80_is_fast():
    start = time.perf_counter()
    assert check_rdp0(chain_table(80)) == (True, None)
    assert time.perf_counter() - start < 5.0


# -- the refinement scan against a frozen copy of the quadruple-by-quadruple scan


def frozen_refinement_scan(table):
    """The (RDP)/(RDP)_1 scan as it was before the mask kernel: every
    quadruple a1+a2 = b1+b2 in ``defined_sums()`` order, every refinement
    by c11, and the side condition as a double loop over down-sets."""
    _require_pea(table)
    t = table._sums
    down = induced_order(table).down
    rdiff = _differences(table)[1]
    els = table.elements

    def refinement_matrices(a1, a2, b1, b2):
        for c11 in _bits(down[a1] & down[b1]):
            c12 = rdiff[c11][a1]
            c21 = rdiff[c11][b1]
            c22 = rdiff[c21][a2]
            if c22 is not None and t[c12][c22] == b2:
                yield c12, c21

    @functools.cache
    def side_condition(c12, c21):
        return all(
            t[x][y] is not None and t[x][y] == t[y][x]
            for x in _bits(down[c12])
            for y in _bits(down[c21])
        )

    pairs_by_sum = {}
    for b1, b2, s in table.defined_sums():
        pairs_by_sum.setdefault(s, []).append((b1, b2))
    rdp1_witness = None
    for a1, a2, s in table.defined_sums():
        for b1, b2 in pairs_by_sum[s]:
            refined = False
            for c12, c21 in refinement_matrices(a1, a2, b1, b2):
                refined = True
                if rdp1_witness is not None or side_condition(c12, c21):
                    break
            else:
                witness = (els[a1], els[a2], els[b1], els[b2])
                if not refined:
                    return witness, rdp1_witness or witness
                rdp1_witness = witness
    return None, rdp1_witness


def relabeled(table, rng):
    """An isomorphic copy with shuffled element order and fresh names."""
    order = list(table.elements)
    rng.shuffle(order)
    name = {e: "e%d" % i for i, e in enumerate(rng.sample(order, len(order)))}
    els = table.elements
    sums = {(name[els[i]], name[els[j]]): name[els[s]] for i, j, s in table.defined_sums()}
    one = None if table.one is None else name[table.one]
    return PartialAdditionTable([name[e] for e in order], name[table.zero], one, sums)


def scan_outcome(scan, table):
    try:
        return scan(table)
    except PealError as exc:
        return type(exc), str(exc)


def assert_scan_matches_frozen(table):
    assert scan_outcome(_refinement_scan, table) == scan_outcome(frozen_refinement_scan, table)


def test_refinement_scan_matches_frozen_on_size_8_corpus_and_relabelings():
    for index, table in enumerate(generate_peas(8)):
        assert_scan_matches_frozen(table)
        for variant in range(3):
            assert_scan_matches_frozen(relabeled(table, random.Random("%d/%d" % (index, variant))))


def test_refinement_scan_matches_frozen_on_large_tables(diamond):
    intervals = [
        gamma_interval_finite(UnitalPoGroup(IntVectorGroup(k), u))
        for k, u in ((2, (5, 5)), (4, (1,) * 4), (5, (1,) * 5))
    ]
    others = [diamond, noncommutative_unitization()]
    for table in [chain_table(n) for n in range(1, 41)] + intervals + others:
        assert_scan_matches_frozen(table)


def test_refinement_scan_matches_frozen_on_valid_single_cell_mutations(pea_corpus_full):
    """Every table one cell away from a corpus table (the zero row and
    column kept) that still passes the PEA axioms."""
    for table in pea_corpus_full:
        k = table.size
        for i, j in product(range(1, k), repeat=2):
            for value in [None] + list(range(k)):
                if table._sums[i][j] == value:
                    continue
                matrix = [list(row) for row in table._sums]
                matrix[i][j] = value
                try:
                    mutant = matrix_table(table.elements, table.zero, table.one, matrix)
                except PealError:
                    continue
                if check_axioms(mutant, "pea").passed:
                    assert_scan_matches_frozen(mutant)


@settings(max_examples=300, deadline=None)
@given(data=hyp.data())
def test_refinement_scan_matches_frozen_on_mutated_corpus_tables(pea_corpus_full, data):
    """The mutations of ``test_core``; the many that fail the PEA axioms
    must raise the same error from both scans."""
    tables = [t for t in pea_corpus_full if t.size > 1]
    table = data.draw(hyp.sampled_from(tables))
    k = table.size
    matrix = [list(row) for row in table._sums]
    for _ in range(data.draw(hyp.integers(min_value=1, max_value=2))):
        i = data.draw(hyp.integers(min_value=1, max_value=k - 1))
        j = data.draw(hyp.integers(min_value=1, max_value=k - 1))
        matrix[i][j] = data.draw(hyp.sampled_from([None] + list(range(k))))
    try:
        mutant = matrix_table(table.elements, table.zero, table.one, matrix)
    except PealError:
        return
    assert_scan_matches_frozen(mutant)


# -- the (RDP)_1 side condition


def noncommutative(table):
    t = table._sums
    return any(t[a][b] != t[b][a] for a in range(table.size) for b in range(a))


def noncommutative_unitization():
    """The unitization of the one weakly commutative GPEA of at most 6
    elements whose sums do not commute: 12 elements."""
    return unitize(PartialAdditionTable.build(
        ["0", "a", "b", "c", "d", "e"],
        "0",
        None,
        {("a", "b"): "d", ("a", "c"): "e", ("b", "a"): "e",
         ("b", "c"): "d", ("c", "a"): "d", ("c", "b"): "e"},
    ))


def _side_condition(table: PartialAdditionTable, c12: int, c21: int) -> bool:
    """The (RDP)_1 side condition on the element indices (c12, c21): x+y and
    y+x are defined and equal for all x <= c12 and y <= c21.  One mask test:
    the down-set of c21 lies inside the commuting mask below c12."""
    return not induced_order(table).down[c21] & ~_commuting_below(table)[c12]


def test_side_condition_matches_brute(pea_corpus_full):
    """Every pair (c12, c21) of each corpus table of at most 7 elements and
    of the non-commutative tables built below."""
    tables = list(pea_corpus_full) + [noncommutative_unitization(), separating_table()]
    assert sum(noncommutative(t) for t in tables) == 10
    for table in tables:
        els = table.elements
        for c12, c21 in product(range(table.size), repeat=2):
            assert _side_condition(table, c12, c21) == commute_below(table, els[c12], els[c21])


def separating_table():
    """A size-8 corpus table, in an element order under which the first
    quadruple failing (RDP)_1 is refined, but only by refinements that miss
    the side condition: a + d = d + a = 1 is refined by (0, a, d, 0) alone,
    and b <= d with a + b = e != f = b + a.  No table of at most 9 elements
    separates (RDP) from (RDP)_1 as verdicts, so this witness is the one
    place where a scan that skips the side condition shows."""
    return PartialAdditionTable.build(
        ["0", "1", "a", "d", "b", "c", "e", "f"],
        "0",
        "1",
        {("a", "b"): "e", ("a", "c"): "f", ("a", "d"): "1", ("b", "a"): "f",
         ("b", "b"): "d", ("b", "c"): "e", ("b", "f"): "1", ("c", "a"): "e",
         ("c", "b"): "f", ("c", "c"): "d", ("c", "e"): "1", ("d", "a"): "1",
         ("e", "b"): "1", ("f", "c"): "1"},
    )


def test_rdp1_witness_differs_where_only_the_side_condition_fails():
    table = separating_table()
    assert check_axioms(table, "pea").passed
    assert check_rdp1(table) == (False, ("a", "d", "d", "a"))
    assert check_rdp(table) == (False, ("a", "d", "b", "f"))
    assert _refinement_scan(table) == frozen_refinement_scan(table)
    assert not _side_condition(table, table.index("a"), table.index("d"))


def test_no_corpus_table_separates_rdp_from_rdp1():
    for table in generate_peas(8):
        rep = rdp_report(table)
        assert rep.rdp == rep.rdp1


def test_rdp_report_on_chain80_is_fast():
    """The mask kernel searches no quadruple of a chain, where any two
    elements are comparable; the scan it replaced took over a second."""
    start = time.perf_counter()
    rep = rdp_report(chain_table(80))
    assert rep.rdp0 and rep.rdp and rep.rdp1
    assert time.perf_counter() - start < 1.0
