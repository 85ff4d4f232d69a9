import math
from fractions import Fraction

import pytest

from peal.constructions import boolean4_table, builtin_pea, chain_table, diamond_table
from peal import ideals as ideals_mod
from peal.core import (
    InconsistencyError,
    InputError,
    PealError,
    _bits,
    _mask,
    complements,
    induced_order,
    isotropic_data,
)
from peal.corpus import are_isomorphic, generate_peas
from peal.decompositions import (
    ComparabilityReport,
    Decomposition,
    _check_labels,
    _part_masks,
    canonical_chain_report,
    check_comparability,
    check_condition_e,
    decomposition_state_bijection,
    find_decompositions,
    is_n_perfect,
    labelled_decompositions,
    validate_decomposition,
)
from peal.states import StateVector, discrete_labelings, enumerate_discrete_states
from peal import states as states_mod
from test_states import horizontal_sum, hsum_tables, mixed_sums


def test_diamond_two_decomposition(diamond):
    found = find_decompositions(diamond, 2)
    assert len(found) == 1
    assert found[0].parts == (
        frozenset({"0"}),
        frozenset({"a", "b"}),
        frozenset({"1"}),
    )
    assert find_decompositions(diamond, 1) == []


def test_boolean4_decompositions(boolean4):
    assert len(find_decompositions(boolean4, 1)) == 2
    assert len(find_decompositions(boolean4, 2)) == 1
    # each complement pair can take labels (1,2) or (2,1)
    assert len(find_decompositions(boolean4, 3)) == 2


def test_rejects_n_zero(boolean4):
    with pytest.raises(InputError):
        find_decompositions(boolean4, 0)


def test_validate_rejects_bad_partition(boolean4):
    with pytest.raises(InputError):
        validate_decomposition(
            boolean4,
            Decomposition((frozenset({"0", "a"}), frozenset({"0", "a'", "1"}))),
        )


def frozen_validate_decomposition(table, D):
    """Reference copy of ``validate_decomposition`` as it stood with one
    ``complements`` call per element."""
    n = D.n
    if n < 1:
        raise InputError("decomposition needs at least two parts")
    seen = {}
    for i, part in enumerate(D.parts):
        if not part:
            raise InputError("part E_%d is empty" % (i,))
        for a in [e for e in table.elements if e in part]:
            if a in seen:
                raise InputError("element %r in both E_%d and E_%d" % (a, seen[a], i))
            seen[a] = i
    if set().union(*D.parts) != set(table.elements):
        raise InputError("parts do not cover the carrier")
    for a in table.elements:
        i = seen[a]
        minus, tilde = complements(table, a)
        if seen[minus] != n - i or seen[tilde] != n - i:
            raise InputError("complements of %r land outside E_%d" % (a, n - i))
    for ai, bj, s in table.defined_sums():
        a, b, c = table.elements[ai], table.elements[bj], table.elements[s]
        if seen[a] + seen[b] > n or seen[c] != seen[a] + seen[b]:
            raise InputError("sum %r + %r = %r violates additivity of parts" % (a, b, c))


def validation_outcome(check, table, D):
    try:
        check(table, D)
    except PealError as exc:
        return type(exc).__name__, str(exc)
    return None


def test_validation_matches_frozen_checks(pea_corpus_small, gpea_corpus):
    """Every decomposition with one element moved to another part, alone or
    with its complements moved to the mirrored part, and two partitions of
    each GPEA, get the same error as before."""
    cases = []
    for table in pea_corpus_small:
        for n in (1, 2, 3):
            for D in find_decompositions(table, n):
                for a in table.elements:
                    minus, tilde = complements(table, a)
                    for p in range(n + 1):
                        for moved in ({a: p}, {a: p, minus: n - p, tilde: n - p}):
                            parts = [part - set(moved) for part in D.parts]
                            for e, q in moved.items():
                                parts[q] |= {e}
                            cases.append((table, Decomposition(tuple(parts))))
    for table in gpea_corpus:
        cases.append((table, Decomposition((frozenset(table.elements), frozenset()))))
        cases.append((table, Decomposition(
            (frozenset([table.zero]), frozenset(table.elements) - {table.zero}))))
    for table, D in cases:
        assert validation_outcome(validate_decomposition, table, D) == \
            validation_outcome(frozen_validate_decomposition, table, D)


def test_bijection_counts(pea_corpus_small):
    for table in pea_corpus_small:
        for n in range(1, min(6, table.size) + 1):
            pairs = decomposition_state_bijection(table, n)
            assert len(pairs) == len(enumerate_discrete_states(table, n))


def test_comparability_diamond(diamond):
    D = find_decompositions(diamond, 2)[0]
    report = check_comparability(diamond, D)
    assert report.comparable and report.e0_is_infinit and report.e0_normal


def test_comparability_boolean4(boolean4):
    D = next(
        d for d in find_decompositions(boolean4, 1) if "a" in d.parts[0]
    )
    report = check_comparability(boolean4, D)
    assert not report.comparable
    assert report.witness == ("a", "a'")


def test_comparability_refuses_a_symbolic_algebra(diamond):
    D = find_decompositions(diamond, 2)[0]
    with pytest.raises(InputError, match="check_comparability_sampled"):
        check_comparability(builtin_pea("example46"), D)


def test_condition_e(diamond, boolean4):
    D = find_decompositions(diamond, 2)[0]
    assert not check_condition_e(diamond, D)  # {a, b} has no common bound inside
    D1 = find_decompositions(boolean4, 1)[0]
    assert check_condition_e(boolean4, D1)
    Dc = find_decompositions(chain_table(3), 3)[0]
    assert check_condition_e(chain_table(3), Dc)


def test_n_perfect():
    for n in range(1, 6):
        ok, cert = is_n_perfect(chain_table(n), n)
        assert ok and cert.decomposition is not None
    assert not is_n_perfect(boolean4_table(), 2)[0]
    assert not is_n_perfect(boolean4_table(), 1)[0]
    # the diamond satisfies the letter of the definition at n = 2: the only
    # proper ideal is {0} and no sums below level 2 are required
    ok, cert = is_n_perfect(diamond_table(), 2)
    assert ok
    assert cert.maximal_ideals == (("0",),)


def test_canonical_chain_report():
    rep = canonical_chain_report(chain_table(3), 3)
    assert rep.ok and rep.c == "1/3"
    assert rep.chain == ("0", "1/3", "2/3", "1")
    assert rep.quotient_is_chain
    rep2 = canonical_chain_report(chain_table(2), 2)
    assert rep2.ok and rep2.c == "1/2"


def test_chain_report_refusals(diamond, boolean4):
    rep = canonical_chain_report(diamond, 2)
    assert not rep.ok and "condition (e)" in rep.refusal
    rep = canonical_chain_report(boolean4, 2)
    assert not rep.ok and "not 2-perfect" in rep.refusal


def test_perfect_with_e_collapses_to_chain(pea_corpus_small):
    for table in pea_corpus_small:
        for n in range(1, table.size):
            ok, cert = is_n_perfect(table, n)
            if not ok:
                continue
            if check_condition_e(table, cert.decomposition):
                assert canonical_chain_report(table, n).ok
                assert are_isomorphic(table, chain_table(n))


# -- frozen frozenset path ---------------------------------------------------
#
# ``find_decompositions`` and ``decomposition_state_bijection`` as they stood
# when each labeling was turned into frozensets of names and re-validated by
# name with ``frozen_validate_decomposition``.


def frozen_parts(table, labels, n):
    return Decomposition(tuple(
        frozenset(e for e, l in zip(table.elements, labels) if l == i)
        for i in range(n + 1)
    ))


def frozen_find_decompositions(table, n):
    result = []
    for labels in discrete_labelings(table, n):
        D = frozen_parts(table, labels, n)
        frozen_validate_decomposition(table, D)
        result.append(D)
    return result


def frozen_bijection(table, n):
    decomps = frozen_find_decompositions(table, n)
    states = enumerate_discrete_states(table, n)
    if len(decomps) != len(states):
        raise InconsistencyError("|D_n| = %d but |S_n| = %d" % (len(decomps), len(states)))
    index = table._index
    pairs = []
    for D, s in zip(decomps, states):
        labels = [0] * table.size
        for i, part in enumerate(D.parts):
            for a in part:
                labels[index[a]] = i
        g = math.gcd(n, *labels)
        if s._den != n // g or s._num != tuple(l // g for l in labels):
            raise InconsistencyError("decomposition-induced state not enumerated")
        if n % s._den or frozen_parts(table, [x * (n // s._den) for x in s._num], n) != D:
            raise InconsistencyError("state preimages do not recover the decomposition")
        pairs.append((D, s))
    return pairs


def oracle_tables(pea_corpus_full):
    return (list(pea_corpus_full) + [chain_table(k) for k in range(1, 13)]
            + [horizontal_sum(3, 2), horizontal_sum(2, 3)])


def test_decompositions_match_frozen_path(pea_corpus_full):
    """Equal lists in the same order, for every n below the size."""
    checked = 0
    for table in oracle_tables(pea_corpus_full):
        for n in range(1, table.size):
            found = find_decompositions(table, n)
            assert found == frozen_find_decompositions(table, n)
            assert decomposition_state_bijection(table, n) == frozen_bijection(table, n)
            checked += len(found)
    assert checked > 1000


def labeling_outcome(table, labels, n):
    """The error ``find_decompositions`` raises on ``labels``, or None."""
    try:
        _check_labels(table, tuple(labels), n)
    except PealError as exc:
        return type(exc).__name__, str(exc)
    return None


def test_mutated_labelings_raise_the_frozen_messages(pea_corpus_full):
    """A label set to another value (a broken complement, or a part left
    empty or a label outside 0..n), and an element moved together with its
    complements to the mirrored label (complements match, a sum breaks), are
    refused with the frozen validator's message."""
    messages = set()
    for table in oracle_tables(pea_corpus_full)[::3]:
        for n in range(1, min(table.size, 4)):
            for labels in discrete_labelings(table, n)[:6]:
                for a in table.elements:
                    minus, tilde = complements(table, a)
                    for p in range(-1, n + 2):
                        for moved in ({a: p}, {a: p, minus: n - p, tilde: n - p}):
                            mutated = list(labels)
                            for e, q in moved.items():
                                mutated[table.index(e)] = q
                            outcome = labeling_outcome(table, mutated, n)
                            assert outcome == validation_outcome(
                                frozen_validate_decomposition, table, frozen_parts(table, mutated, n))
                            if outcome:
                                messages.add(outcome[1].split(" ")[-1])
    assert messages >= {"carrier", "parts", "empty"}
    assert any(m.startswith("E_") for m in messages)  # complements of x land outside E_i


def only_additivity_fails(table, labels, n):
    """Whether ``labels`` use every label of 0..n, send zero to 0, one to n
    and the complements of an element labelled i to n - i, yet break a
    defined sum."""
    label = dict(zip(table.elements, labels))
    return (labels[table.zero_i] == 0 and labels[table.one_i] == n
            and set(labels) == set(range(n + 1))
            and all(label[c] == n - label[x] for x in table.elements
                    for c in complements(table, x))
            and any(labels[i] + labels[j] != labels[k] for i, j, k in table.defined_sums()))


def test_a_nonadditive_labeling_is_refused_by_both_constructions(pea_corpus_small):
    """The bijection finds its labelings additive once, by the certificates
    of their block factors; on their own, ``_check_labels`` (which words a
    refused certificate) and ``StateVector._from_ints`` each still refuse a
    labeling that breaks a sum.  The labelings here move an element
    and its complements to mirrored labels."""
    refused = 0
    for table in list(pea_corpus_small) + [horizontal_sum(3, 2), horizontal_sum(2, 3)]:
        for n in range(1, min(table.size, 4)):
            for labels in discrete_labelings(table, n)[:4]:
                for a in table.elements[1:]:
                    minus, tilde = complements(table, a)
                    for p in range(n + 1):
                        mutated = list(labels)
                        for e, q in ((a, p), (minus, n - p), (tilde, n - p)):
                            mutated[table.index(e)] = q
                        if not only_additivity_fails(table, mutated, n):
                            continue
                        with pytest.raises(InputError, match="violates additivity"):
                            _check_labels(table, tuple(mutated), n)
                        with pytest.raises(InputError, match="not additive"):
                            StateVector._from_ints(table, mutated, n)
                        refused += 1
    assert refused > 10


@pytest.mark.parametrize("entry", [
    discrete_labelings, enumerate_discrete_states, find_decompositions,
    decomposition_state_bijection, is_n_perfect, canonical_chain_report,
], ids=lambda fn: fn.__name__)
def test_non_integer_n_is_an_input_error(entry):
    with pytest.raises(InputError, match=r"^n must be a positive integer, got 1\.5$"):
        entry(boolean4_table(), 1.5)


# -- frozen comparability -----------------------------------------------------
#
# ``check_comparability`` and ``_sums_exist`` as they stood when the chain was
# scanned element by element in the order of its witness and every sum of a
# lower pair of parts was looked up in the table.


def frozen_sums_exist(table, parts):
    n = len(parts) - 1
    t = table._sums
    return all(
        t[a][b] is not None
        for i in range(n)
        for j in range(n - i)
        for a in _bits(parts[i])
        for b in _bits(parts[j])
    )


def frozen_check_comparability(table, D):
    validate_decomposition(table, D)
    parts = [_mask(table, part) for part in D.parts]
    up = induced_order(table).up
    els = table.elements
    n = D.n
    gaps = ((a, parts[j] & ~up[a]) for i in range(n + 1) for j in range(i + 1, n + 1)
            for a in _bits(parts[i]))
    witness = next(((els[a], els[next(_bits(gap))]) for a, gap in gaps if gap), None)
    comparable = witness is None
    sums_exist = frozen_sums_exist(table, parts)
    if comparable != sums_exist:
        raise InconsistencyError(
            "comparability biconditional failed: chain %s, sums %s"
            % (comparable, sums_exist)
        )
    if not comparable:
        return ComparabilityReport(False, sums_exist, witness)
    _, infinit = isotropic_data(table)
    e0_is_infinit = D.parts[0] == infinit
    e0_normal = (
        ideals_mod.is_ideal(table, D.parts[0])[0]
        and ideals_mod.is_normal(table, D.parts[0])[0]
    )
    sums_onto = all(
        {table.add(a, b) for a in D.parts[i] for b in D.parts[j]} == set(D.parts[i + j])
        for i in range(n + 1) for j in range(n + 1) if i + j < n)
    if not (e0_is_infinit and e0_normal and sums_onto):
        raise InconsistencyError(
            "comparability consequences failed: infinit=%s normal=%s onto=%s"
            % (e0_is_infinit, e0_normal, sums_onto)
        )
    return ComparabilityReport(
        True, True, None, e0_is_infinit, e0_normal, sums_onto, True
    )


def comparability_outcome(check, table, D):
    try:
        return check(table, D)
    except PealError as exc:
        return type(exc).__name__, str(exc)


def test_comparability_matches_frozen_scan():
    """Every n-decomposition (n <= 4) of the corpus of at most 8 elements
    and of the horizontal sums gets the frozen report, witness included,
    and its masks are its parts."""
    seen = {True: 0, False: 0}
    for table in list(generate_peas(8)) + hsum_tables():
        for n in range(1, min(4, table.size - 1) + 1):
            for D in find_decompositions(table, n):
                report = comparability_outcome(check_comparability, table, D)
                assert report == comparability_outcome(frozen_check_comparability, table, D)
                seen[report.comparable] += 1
                assert list(_part_masks(table, D)) == [_mask(table, p) for p in D.parts]
    assert seen[True] > 30 and seen[False] > 1000, seen


def test_comparability_of_built_decompositions_matches_frozen_scan(pea_corpus_small):
    """A decomposition built by name, not found by the search, is validated
    by ``check_comparability`` as before: the same report, or the same
    error for a partition that is not a decomposition."""
    for table in pea_corpus_small:
        for n in (1, 2):
            for labels in discrete_labelings(table, n):
                D = Decomposition(tuple(
                    frozenset(e for e, l in zip(table.elements, labels) if l == i)
                    for i in range(n + 1)))
                assert comparability_outcome(check_comparability, table, D) == \
                    comparability_outcome(frozen_check_comparability, table, D)
        broken = Decomposition((frozenset([table.zero]), frozenset(table.elements) - {table.zero},
                                frozenset()))
        assert comparability_outcome(check_comparability, table, broken) == \
            comparability_outcome(frozen_check_comparability, table, broken)


# -- the label-vector kernel against the frozen decomposition path -------------


def frozen_decomposition_rows(table, n):
    """Each decomposition of the frozen frozenset path, with its state and
    its frozen comparability report: validated by name, paired with the
    enumerated states and compared by name, as the library did before its
    rows were read off ``labelled_decompositions``."""
    return [(D, s, frozen_check_comparability(table, D)) for D, s in frozen_bijection(table, n)]


def test_kernel_rows_match_frozen_decomposition_path():
    """On every table of the corpus of at most 9 elements and on the mixed
    horizontal sums, for every n below its size, and on horizontal_sum(4, 3)
    with n = 2, each kernel row has the parts, state, comparability and
    witness of the frozen path."""
    cases = [(t, n) for t in generate_peas(8) + generate_peas(9, min_size=9) + tuple(mixed_sums())
             for n in range(1, t.size)] + [(horizontal_sum(4, 3), 2)]
    seen = {True: 0, False: 0}
    for table, n in cases:
        els = table.elements
        rows = labelled_decompositions(table, n)
        frozen = frozen_decomposition_rows(table, n)
        assert len(rows) == len(frozen)
        for (labels, parts, witness), (D, s, report) in zip(rows, frozen):
            assert tuple(frozenset(els[x] for x in _bits(p)) for p in parts) == D.parts
            assert all(s(e) == Fraction(label, n) for e, label in zip(els, labels))
            assert report.comparable == (witness is None)
            assert report.witness == (None if witness is None else (els[witness[0]], els[witness[1]]))
            seen[report.comparable] += 1
    assert seen[True] > 50 and seen[False] > 2000, seen


@pytest.mark.parametrize("b, k", [(0, 0), (1, -1)])
def test_a_corrupted_block_factor_is_refused_with_the_frozen_message(monkeypatch, b, k):
    """A block labeling moved with its complements to mirrored labels keeps
    its complements but breaks a sum of its block.  Put in the place of
    the first labeling of the first block, or of the last of the second
    (a labeling no product around the first row holds but one), its
    certificate refuses it, and the kernel raises the message that the
    frozen validator gives on the first decomposition, in labeling order,
    that holds it."""
    n = 2
    table = horizontal_sum(2, 3)
    blocks = states_mod._label_blocks(table)[0]
    found = [list(labelings) for labelings in states_mod._block_labelings(table, n)]
    els = table.elements
    labels = list(discrete_labelings(table, n)[0])
    block = blocks[b]
    a = els[block[0]]
    for e, q in ((a, 1),) + tuple((c, n - 1) for c in complements(table, a)):
        labels[table.index(e)] = q
    bad = tuple(labels[x] for x in block)
    assert bad not in found[b] and only_additivity_fails(table, labels, n)
    found[b][k] = bad
    monkeypatch.setattr(states_mod, "_block_labelings", lambda t, k: tuple(found))
    fresh = horizontal_sum(2, 3)
    rows, _, sound = states_mod._labelings(fresh, n)
    assert not sound and any(tuple(r[x] for x in block) == bad for r in rows)
    expected = next(outcome for outcome in (
        validation_outcome(frozen_validate_decomposition, fresh, frozen_parts(fresh, r, n))
        for r in rows) if outcome)
    assert expected[1].endswith("violates additivity of parts")
    with pytest.raises(InputError) as refused:
        labelled_decompositions(fresh, n)
    assert (type(refused.value).__name__, str(refused.value)) == expected
