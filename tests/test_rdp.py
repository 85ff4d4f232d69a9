import time

from peal.constructions import chain_table
from peal.core import induced_order
from peal.rdp import check_rdp, check_rdp0, check_rdp1, rdp_report


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


def brute_rdp(table, rdp1=False):
    """Independent oracle: full quadruple search for the refinement matrix;
    the first failing (a1, a2, b1, b2) is the witness.  With ``rdp1`` the
    matrix must also have x + y and y + x defined and equal for all
    x <= c12, y <= c21, as (RDP)_1 requires."""
    order = induced_order(table)
    els = table.elements

    def commute_below(c12, c21):
        return all(
            table.add(x, y) is not None and table.add(x, y) == table.add(y, x)
            for x in els
            if order.le(x, c12)
            for y in els
            if order.le(y, c21)
        )

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
                        and (not rdp1 or commute_below(c12, c21))
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
