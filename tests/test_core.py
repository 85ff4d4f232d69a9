import copy
import importlib
import inspect
import json
import pickle
import pkgutil
import signal
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from peal.core import (
    AxiomReport,
    DifferenceUndefinedError,
    InputError,
    PartialAdditionTable,
    PealError,
    _axioms_hold,
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


def test_symmetry_refuses_a_symbolic_algebra():
    from peal.constructions import builtin_pea

    with pytest.raises(InputError, match="SymbolicPea.is_symmetric_sampled"):
        is_symmetric(builtin_pea("example46"))


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


def test_index_rows_reject_degenerate_unit():
    # the index-row core refuses it as the constructor does
    with pytest.raises(InputError, match="distinct zero and one"):
        PartialAdditionTable._from_rows(["0"], 0, 0, [[0]])


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


def frozen_check_axioms(table, kind="pea"):
    """Reference copy of the k^3 scan that ``check_axioms`` replaced, kept
    verbatim apart from the memo decorator."""
    kind = kind.lower()
    if kind not in ("pea", "gpea"):
        raise InputError("kind must be 'pea' or 'gpea', got %r" % (kind,))
    if kind == "pea" and table.one is None:
        raise InputError("PEA axiom check requires a table with a unit")

    t = table._sums
    k = table.size
    els = table.elements
    z = table.zero_i
    violations = []

    def witness(tag, idxs):
        violations.append((tag, tuple(els[i] for i in idxs)))

    assoc_tag = "PE1" if kind == "pea" else "GP1"
    shift_tag = "PE3" if kind == "pea" else "GP2"

    # associativity biconditional
    found = None
    for a in range(k):
        for b in range(k):
            ab = t[a][b]
            for c in range(k):
                lhs = ab is not None and t[ab][c] is not None
                bc = t[b][c]
                rhs = bc is not None and t[a][bc] is not None
                if lhs != rhs or (lhs and t[ab][c] != t[a][bc]):
                    found = (a, b, c)
                    break
            if found:
                break
        if found:
            break
    if found:
        witness(assoc_tag, found)

    # shift representation: a+b = d+a = b+e for some d, e
    found = None
    for a in range(k):
        for b in range(k):
            s = t[a][b]
            if s is None:
                continue
            if not any(t[d][a] == s for d in range(k)):
                found = (a, b)
                break
            if not any(t[b][e] == s for e in range(k)):
                found = (a, b)
                break
        if found:
            break
    if found:
        witness(shift_tag, found)

    # cancellation
    found = None
    for a in range(k):
        seen = {}
        for b in range(k):
            s = t[a][b]
            if s is None:
                continue
            if s in seen:
                found = (a, seen[s], b)
                break
            seen[s] = b
        if found:
            break
    if not found:
        for a in range(k):
            seen = {}
            for b in range(k):
                s = t[b][a]
                if s is None:
                    continue
                if s in seen:
                    found = (a, seen[s], b)
                    break
                seen[s] = b
            if found:
                break
    if found:
        witness("GP3", found)

    # positivity: a + b = 0 only for a = b = 0
    found = None
    for a in range(k):
        for b in range(k):
            if t[a][b] == z and (a != z or b != z):
                found = (a, b)
                break
        if found:
            break
    if found:
        witness("GP4", found)

    # unit laws (held by construction; re-checked for completeness)
    for a in range(k):
        if t[a][z] != a or t[z][a] != a:
            witness("GP5", (a,))
            break

    if kind == "pea":
        u = table.one_i
        found = None
        for a in range(k):
            ds = [d for d in range(k) if t[a][d] == u]
            es = [e for e in range(k) if t[e][a] == u]
            if len(ds) != 1 or len(es) != 1:
                found = (a,)
                break
        if found:
            witness("PE2", found)
        found = None
        for a in range(k):
            if a != z and (t[u][a] is not None or t[a][u] is not None):
                found = (a,)
                break
        if found:
            witness("PE4", found)

    return AxiomReport(kind=kind, passed=not violations, violations=tuple(violations))


def matrix_table(elements, zero, one, matrix):
    """The table whose sum i + j is ``matrix[i][j]`` (an index, or None)."""
    sums = {
        (elements[i], elements[j]): elements[s]
        for i, row in enumerate(matrix)
        for j, s in enumerate(row)
        if s is not None
    }
    return PartialAdditionTable(elements, zero, one, sums)


def assert_reports_match_frozen(table):
    """Both axiom reports equal the frozen scan's, and the row-level
    first-violation test ``_axioms_hold`` agrees with each one's verdict."""
    kinds = ("gpea", "pea") if table.one is not None else ("gpea",)
    for kind in kinds:
        report = check_axioms(table, kind)
        assert report == frozen_check_axioms(table, kind)
        one = table.one_i if kind == "pea" else None
        assert _axioms_hold(table._sums, table.zero_i, one) == report.passed


def boolean_table(n):
    """Boolean 2^n as subsets (bitmasks) with disjoint union, built directly."""
    els = [str(m) for m in range(1 << n)]
    sums = {(els[a], els[b]): els[a | b] for a in range(1 << n) for b in range(1 << n) if not a & b}
    return PartialAdditionTable(els, els[0], els[-1], sums)


def test_axiom_reports_match_frozen_on_every_table_up_to_three_elements():
    """Every sum table on at most 3 elements, with every choice of unit.
    Among them is the table that separates the two walks: on 0, a, b with
    a+a = b and nothing else, (a, b, a) fails only on the a+(b+c) side,
    since a+a = b but b+a is undefined."""
    names = ("0", "a", "b")
    for k in (1, 2, 3):
        free = [(i, j) for i in range(1, k) for j in range(1, k)]
        for values in product([None] + list(range(k)), repeat=len(free)):
            matrix = [[j if i == 0 else (i if j == 0 else None) for j in range(k)] for i in range(k)]
            for (i, j), v in zip(free, values):
                matrix[i][j] = v
            for one in (None,) + names[1:k]:
                assert_reports_match_frozen(matrix_table(names[:k], "0", one, matrix))


def test_axiom_reports_match_frozen_on_corpus_and_large_tables(pea_corpus_full, gpea_corpus):
    from peal.constructions import chain_table

    for table in list(pea_corpus_full) + list(gpea_corpus) + [chain_table(40), boolean_table(5)]:
        assert_reports_match_frozen(table)


@settings(max_examples=300, deadline=None)
@given(data=hyp.data())
def test_axiom_reports_match_frozen_on_mutated_corpus_tables(pea_corpus_full, gpea_corpus, data):
    tables = [t for t in list(pea_corpus_full) + list(gpea_corpus) if t.size > 1]
    table = data.draw(hyp.sampled_from(tables))
    k = table.size
    matrix = [list(row) for row in table._sums]
    for _ in range(data.draw(hyp.integers(min_value=1, max_value=2))):
        # the zero row and column are kept: the constructor rejects broken unit laws
        i = data.draw(hyp.integers(min_value=1, max_value=k - 1))
        j = data.draw(hyp.integers(min_value=1, max_value=k - 1))
        matrix[i][j] = data.draw(hyp.sampled_from([None] + list(range(k))))
    assert_reports_match_frozen(matrix_table(table.elements, table.zero, table.one, matrix))


def test_check_axioms_on_boolean_2_8():
    """Boolean 2^8 has 4^8 defined triples among 2^24; the k^3 scan took
    several seconds on it, hence the guard."""

    def too_slow(signum, frame):
        raise TimeoutError("check_axioms on 2^8 took more than 1 s")

    table = boolean_table(8)
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(1)
    try:
        reports = [check_axioms(table, kind) for kind in ("pea", "gpea")]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert all(report.passed for report in reports)


def _peal_errors():
    import peal

    found = {PealError}
    for info in pkgutil.iter_modules(peal.__path__):
        module = importlib.import_module("peal." + info.name)
        found.update(obj for obj in vars(module).values()
                     if isinstance(obj, type) and issubclass(obj, PealError))
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


def test_every_error_pickles_and_copies():
    """A suite's battery error crosses a process boundary by pickle, so
    every library error keeps its type, message and attributes through
    pickle (each protocol) and ``copy.copy``."""
    errors = _peal_errors()
    assert {"WellDefinednessError", "InfiniteIntervalError", "NotStrongError"} <= \
        {cls.__name__ for cls in errors}
    for cls in errors:
        # the message, then a tuple for each further argument __init__ names
        named = 1
        if cls.__init__ is not Exception.__init__:
            named = sum(p.kind is p.POSITIONAL_OR_KEYWORD
                        for p in inspect.signature(cls).parameters.values())
        args = ["a message"] + [("witness %d" % i,) for i in range(1, named)]
        exc = cls(*args)
        exc.note = "set after construction"
        copies = [pickle.loads(pickle.dumps(exc, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies + [copy.copy(exc)]:
            assert type(other) is cls
            assert str(other) == str(exc) == "a message"
            assert other.args == exc.args
            assert vars(other) == vars(exc)
