import json

import pytest

from peal.core import (
    DifferenceUndefinedError,
    InputError,
    PartialAdditionTable,
    _differences,
    _noncommuting_pair,
    check_axioms,
    complements,
    difference,
    dumps_document,
    induced_order,
    is_symmetric,
    isotropic_data,
    table_from_document,
    table_to_document,
)


def test_construction_rejects_missing_unit_laws():
    with pytest.raises(InputError):
        PartialAdditionTable(["0", "a"], "0", None, {("0", "0"): "0"})


def test_construction_rejects_unknown_references():
    with pytest.raises(InputError):
        PartialAdditionTable.build(["0", "a"], "0", None, {("a", "x"): "a"})


def test_diamond_passes_pea_axioms(diamond):
    report = check_axioms(diamond, "pea")
    assert report.passed and report.violations == ()


def test_pe4_violation_witnessed():
    table = PartialAdditionTable.build(
        ["0", "a", "1"], "0", "1", {("a", "a"): "1", ("1", "a"): "a"}
    )
    report = check_axioms(table, "pea")
    assert not report.passed
    tags = {tag for tag, _ in report.violations}
    assert "PE4" in tags
    witness = dict(report.violations)["PE4"]
    assert witness == ("a",)


def test_pe1_violation_witnessed():
    # a+b defined, (a+b)+c defined, b+c undefined
    table = PartialAdditionTable.build(
        ["0", "a", "b", "c", "d", "1"],
        "0",
        "1",
        {
            ("a", "b"): "c",
            ("c", "c"): "1",
            ("a", "d"): "1",
            ("d", "a"): "1",
            ("b", "d"): "1", ("d", "b"): "1",
        },
    )
    report = check_axioms(table, "pea")
    assert not report.passed
    tags = {tag for tag, _ in report.violations}
    assert "PE1" in tags


def test_induced_order_diamond(diamond):
    # oracle: exhaustive witness search over the table
    expected = set()
    for a in diamond.elements:
        for b in diamond.elements:
            if any(diamond.add(a, c) == b for c in diamond.elements):
                expected.add((a, b))
    order = induced_order(diamond)
    assert order.pairs == frozenset(expected)
    assert order.le("a", "1") and order.le("0", "b")
    assert not order.le("a", "b") and not order.le("b", "a")


def brute_order(table):
    """Independent oracle: a <= b iff a + c = b for some c, by exhaustive
    witness search on ``table.add``."""
    els = table.elements
    return {(a, b) for a in els for b in els if any(table.add(a, c) == b for c in els)}


def test_order_views_match_witness_search(pea_corpus_small, gpea_corpus):
    from peal.constructions import chain_table, gamma_interval_finite
    from peal.groups import IntVectorGroup, UnitalPoGroup

    boolean5 = gamma_interval_finite(UnitalPoGroup(IntVectorGroup(5), (1,) * 5))
    for table in list(pea_corpus_small) + list(gpea_corpus) + [chain_table(40), boolean5]:
        els = table.elements
        expected = brute_order(table)
        covers = {
            (a, b) for a, b in expected
            if a != b and not any(
                m not in (a, b) and (a, m) in expected and (m, b) in expected for m in els
            )
        }
        order = induced_order(table)
        assert order.pairs == expected
        assert order.covering_pairs == covers
        assert order.is_total() == all(
            (a, b) in expected or (b, a) in expected for a in els for b in els
        )
        assert all(order.le(a, b) == ((a, b) in expected) for a in els for b in els)


def test_order_reflexive_on_corpus(pea_corpus_small):
    for table in pea_corpus_small:
        order = induced_order(table)
        assert all(order.le(a, a) for a in table.elements)


def test_chain_total_order(chain3):
    assert induced_order(chain3).is_total()


def test_complements(diamond, boolean4):
    assert complements(diamond, "a") == ("a", "a")
    assert complements(diamond, "0") == ("1", "1")
    assert complements(boolean4, "a") == ("a'", "a'")


def test_double_complement_on_corpus(pea_corpus_small):
    for table in pea_corpus_small:
        for a in table.elements:
            minus, tilde = complements(table, a)
            assert complements(table, minus)[1] == a
            assert complements(table, tilde)[0] == a


def test_symmetry(diamond, boolean4):
    assert is_symmetric(diamond).symmetric
    assert is_symmetric(boolean4).symmetric


def test_symmetry_matches_weak_commutativity(pea_corpus_small):
    for table in pea_corpus_small:
        report = is_symmetric(table)  # raises if the two criteria disagree
        commutable = all(
            table.defined(a, b) == table.defined(b, a)
            for a in table.elements
            for b in table.elements
        )
        assert report.symmetric == commutable


def test_isotropic_data(diamond, boolean4):
    info, infinit = isotropic_data(diamond)
    assert infinit == frozenset({"0"})
    assert info["0"].iota is None
    assert info["a"].iota == 2  # a+a=1, 1+a undefined
    info, _ = isotropic_data(boolean4)
    assert info["a"].iota == 1  # a+a undefined


def test_difference(diamond, boolean4):
    assert difference(boolean4, "a", "1", "left") == "a'"
    assert difference(diamond, "a", "1", "right") == "a"
    for table in (diamond, boolean4):
        for b in table.elements:
            assert difference(table, "0", b, "left") == b
            assert difference(table, "0", b, "right") == b
    with pytest.raises(DifferenceUndefinedError):
        difference(diamond, "a", "b", "left")


def test_difference_identities_on_corpus(pea_corpus_small):
    for table in pea_corpus_small:
        order = induced_order(table)
        for a in table.elements:
            for b in table.elements:
                if not order.le(a, b):
                    continue
                left = difference(table, a, b, "left")
                right = difference(table, a, b, "right")
                assert table.add(left, a) == b
                assert table.add(a, right) == b


def test_document_roundtrip(diamond):
    doc = table_to_document(diamond)
    text = dumps_document(doc)
    again = table_from_document(json.loads(text))
    assert again == diamond
    assert dumps_document(table_to_document(again)) == text


def test_document_rejects_conflicts():
    doc = {
        "elements": ["0", "1"],
        "zero": "0",
        "one": "1",
        "add": [["0", "0", "0"], ["0", "1", "1"], ["1", "0", "1"], ["1", "0", "0"]],
    }
    with pytest.raises(InputError):
        table_from_document(doc)


def test_gpea_kind_checks():
    gpea = PartialAdditionTable.build(["0", "a", "b"], "0", None, {("a", "a"): "b"})
    assert check_axioms(gpea, "gpea").passed
    with pytest.raises(InputError):
        check_axioms(gpea, "pea")


def test_derived_memo_keeps_no_failure_and_returns_the_stored_value():
    gpea = PartialAdditionTable.build(["0", "a", "b"], "0", None, {("a", "a"): "b"})
    report = check_axioms(gpea, "gpea")
    before = dict(gpea._cache)
    for _ in range(2):
        with pytest.raises(InputError):
            check_axioms(gpea, "pea")
        assert gpea._cache == before
    assert check_axioms(gpea, "gpea") is report
    assert induced_order(gpea) is induced_order(gpea)
    assert isotropic_data(gpea) is isotropic_data(gpea)


def test_document_roundtrip_over_corpus(pea_corpus_small):
    for table in pea_corpus_small:
        text = dumps_document(table_to_document(table))
        again = table_from_document(json.loads(text))
        assert again == table
        assert dumps_document(table_to_document(again)) == text


def test_restrict_takes_a_one_shot_iterable():
    from peal.constructions import chain_table

    table = chain_table(3)
    sub = table.restrict(e for e in ["0", "1/3"])
    assert sub.elements == ("0", "1/3")
    assert sub == table.restrict(["0", "1/3"])


def test_rejects_degenerate_unit():
    with pytest.raises(InputError):
        PartialAdditionTable(["0"], "0", "0", {("0", "0"): "0"})


def test_difference_kernel_matches_brute_scan(pea_corpus_small, gpea_corpus):
    for table in list(pea_corpus_small) + list(gpea_corpus):
        ldiff, rdiff = _differences(table)
        k = table.size
        for a in range(k):
            for b in range(k):
                left = [x for x in range(k) if table.add_i(x, a) == b]
                right = [x for x in range(k) if table.add_i(a, x) == b]
                assert left == ([] if ldiff[b][a] is None else [ldiff[b][a]])
                assert right == ([] if rdiff[a][b] is None else [rdiff[a][b]])


def test_noncommuting_pair_matches_brute_scan(pea_corpus_small, gpea_corpus):
    for table in list(pea_corpus_small) + list(gpea_corpus):
        expected = next(
            (
                (a, b)
                for a in table.elements
                for b in table.elements
                if table.defined(a, b) != table.defined(b, a)
            ),
            None,
        )
        assert _noncommuting_pair(table) == expected
