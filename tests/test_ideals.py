import signal
from itertools import combinations

import pytest

from peal.constructions import chain_table
from peal.core import PreconditionError, _bits, induced_order
from peal.corpus import are_isomorphic, generate_peas
from peal.ideals import (
    IdealSet,
    _r1,
    check_r1,
    check_r2,
    congruence_classes,
    enumerate_ideals,
    ideal_generated,
    is_ideal,
    is_maximal,
    is_normal,
    is_riesz_ideal,
    quotient,
    radicals,
    two_valued_partition,
)
from test_states import horizontal_sum, hsum_tables


def brute_ideals(table):
    """Independent oracle: test every subset for the ideal conditions."""
    order = induced_order(table)
    out = []
    elements = list(table.elements)
    for r in range(len(elements) + 1):
        for combo in combinations(elements, r):
            s = frozenset(combo)
            if not s:
                continue
            down = all(b in s for a in s for b in elements if order.le(b, a))
            closed = all(
                table.add(a, b) in s
                for a in s
                for b in s
                if table.add(a, b) is not None
            )
            if down and closed:
                out.append(s)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def leq_matrix(table):
    order = induced_order(table)
    return [[order.le(a, b) for b in table.elements] for a in table.elements]


def frozen_is_ideal(table, S):
    """Reference copy of ``is_ideal`` as it stood on an order matrix.  It
    walked a set of indices; on tables of at most 8 elements such a set
    iterates in ascending order, which ``sorted`` fixes here."""
    idx = sorted({table.index(a) for a in S})
    els = table.elements
    if not idx:
        return False, ("empty",)
    leq = leq_matrix(table)
    for i in idx:
        for a in range(table.size):
            if leq[a][i] and a not in idx:
                return False, ("downward", els[a], els[i])
    t = table._sums
    for i in idx:
        for j in idx:
            s = t[i][j]
            if s is not None and s not in idx:
                return False, ("sum", els[i], els[j])
    return True, None


def frozen_check_r1(table, S):
    """Reference copy of ``check_r1`` as it stood on an order matrix (each
    ideal element against each sum, then a search over pairs of ideal
    elements), index set in ascending order as in ``frozen_is_ideal``."""
    idx = sorted({table.index(a) for a in S})
    t = table._sums
    k = table.size
    leq = leq_matrix(table)
    els = table.elements
    for i in idx:
        for a in range(k):
            for b in range(k):
                s = t[a][b]
                if s is None or not leq[i][s]:
                    continue
                ok = False
                for j in idx:
                    if not leq[j][a]:
                        continue
                    for kk in idx:
                        if not leq[kk][b]:
                            continue
                        jk = t[j][kk]
                        if jk is not None and leq[i][jk]:
                            ok = True
                            break
                    if ok:
                        break
                if not ok:
                    return False, ("R1", els[i], els[a], els[b])
    return True, None


def literal_r1(table, S):
    """(R1) read off its definition: for i in I and a, b with i <= a + b
    there are j, k in I with j <= a, k <= b and i <= j + k.  The order comes
    from a witness search on ``table.add``."""
    els = table.elements
    le = {(x, y) for x in els for y in els if any(table.add(x, c) == y for c in els)}
    sums = [(a, b, table.add(a, b)) for a in els for b in els if table.add(a, b) is not None]
    return all(
        any(
            (j, a) in le and (k, b) in le and (i, table.add(j, k)) in le
            for j in S
            for k in S
        )
        for i in S
        for a, b, s in sums
        if (i, s) in le
    )


def test_ideal_predicates(boolean4, diamond):
    assert is_ideal(boolean4, {"0", "a"})[0]
    assert is_normal(boolean4, {"0", "a"})[0]
    assert is_maximal(boolean4, {"0", "a"})[0]
    assert is_ideal(diamond, {"0"})[0]
    ok, witness = is_ideal(diamond, {"0", "a"})
    assert not ok and witness[0] == "sum"


def test_enumeration_matches_brute(pea_corpus_small, gpea_corpus):
    for table in list(pea_corpus_small) + list(gpea_corpus):
        mine = [i.members for i in enumerate_ideals(table)]
        assert mine == brute_ideals(table)


def test_enumeration_on_boolean_2_6():
    """Down-closed and closed under disjoint sums means closed under joins,
    so the ideals of 2^6 are its 64 principal down-sets. The antichain walk
    this search replaced took more than 9 minutes on this algebra, hence
    the guard."""
    from peal.constructions import gamma_interval_finite
    from peal.groups import IntVectorGroup, UnitalPoGroup

    def too_slow(signum, frame):
        raise TimeoutError("enumerate_ideals on 2^6 took more than 10 s")

    table = gamma_interval_finite(UnitalPoGroup(IntVectorGroup(6), (1,) * 6))
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        mine = [i.members for i in enumerate_ideals(table)]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    order = induced_order(table)
    principal = {frozenset(b for b in table.elements if order.le(b, a)) for a in table.elements}
    assert len(mine) == 64 and set(mine) == principal


def test_ideal_equality_ignores_computed_flags(boolean4):
    ide = enumerate_ideals(boolean4)[1]
    assert (ide.normal, ide.maximal, ide.riesz) == (True, True, True)
    assert ide == IdealSet(boolean4, ide.members)


def test_enumeration_examples(boolean4, diamond, chain3):
    assert [i.sorted_ids() for i in enumerate_ideals(boolean4)] == [
        ["0"], ["0", "a"], ["0", "a'"], ["0", "1", "a", "a'"],
    ]
    assert [i.sorted_ids() for i in enumerate_ideals(diamond)] == [
        ["0"], ["0", "1", "a", "b"],
    ]
    assert len(enumerate_ideals(chain_table(1))) == 2


def test_riesz(boolean4, pea_corpus_small):
    assert is_riesz_ideal(boolean4, {"0", "a"})[0]
    for table in pea_corpus_small:
        assert is_riesz_ideal(table, {table.zero})[0]
        # PEAs are upwards directed, so (R1) must already give (R2)
        for ide in enumerate_ideals(table):
            if check_r1(table, ide.members)[0]:
                assert check_r2(table, ide.members)[0]


def test_check_r1_matches_frozen_and_literal(pea_corpus_full, gpea_corpus):
    failures = []
    for corpus in (pea_corpus_full, gpea_corpus):
        failed = 0
        for table in corpus:
            for ide in enumerate_ideals(table):
                got = check_r1(table, ide.members)
                assert got == frozen_check_r1(table, ide.members)
                assert got[0] == literal_r1(table, ide.members)
                failed += not got[0]
        failures.append(failed)
    assert failures == [75, 5]
    # the whole carrier of chain:40 is where the reach masks save most
    for table in [chain_table(40)] + hsum_tables():
        for ide in enumerate_ideals(table):
            got = check_r1(table, ide.members)
            assert got == frozen_check_r1(table, ide.members)
            assert got[0] == literal_r1(table, ide.members)


def frozen_r1(table, I):
    """Reference copy of ``ideals._r1`` as it stood before it skipped the
    sums of two ideal elements: every defined sum is walked."""
    t = table._sums
    down = induced_order(table).down
    els = table.elements
    k = table.size
    below = [None] * k
    reach = [None] * (k * k)
    witness = None
    for a, b, s in table.defined_sums():
        lost = down[s] & I & ~(down[a] | down[b])
        if not lost:
            continue
        below_a, below_b = below[a], below[b]
        if below_a is None:
            below_a = below[a] = list(_bits(down[a] & I))
        if below_b is None:
            below_b = below[b] = list(_bits(down[b] & I))
        for j in below_a:
            r = reach[j * k + b]
            if r is None:
                r = 0
                row = t[j]
                for kk in below_b:
                    jk = row[kk]
                    if jk is not None:
                        r |= down[jk]
                reach[j * k + b] = r
            lost &= ~r
            if not lost:
                break
        if lost:
            i = (lost & -lost).bit_length() - 1
            if witness is None or i < witness[0]:
                witness = (i, a, b)
    if witness is None:
        return True, None
    i, a, b = witness
    return False, ("R1", els[i], els[a], els[b])


def test_r1_skipping_sums_inside_the_ideal_matches_frozen(gpea_corpus):
    """The same verdict and witness as the walk over every defined sum, on
    every ideal of the PEAs of at most 8 elements, of the GPEAs of at most
    5, and of four copies of 2^3 glued at 0 and 1."""
    checked = failed = skipped = 0
    for table in list(generate_peas(8)) + list(gpea_corpus) + [horizontal_sum(4, 3)]:
        down = induced_order(table).down
        for ide in enumerate_ideals(table):
            I = ide._bitmask
            got = _r1(table, I)
            assert got == frozen_r1(table, I)
            checked += 1
            failed += not got[0]
            # the sums the walk now skips that it used to search
            skipped += sum(1 for a, b, s in table.defined_sums()
                           if I >> a & 1 and I >> b & 1 and down[s] & I & ~(down[a] | down[b]))
    assert (checked, failed) == (2937, 2646) and skipped > 0


def frozen_is_maximal(table, S):
    """Reference copy of ``is_maximal`` as it stood before maximality was
    read off the lattice: a scan of the whole lattice for a proper ideal
    above ``S``."""
    members = frozenset(S)
    ok, witness = is_ideal(table, members)
    if not ok:
        return False, ("not-ideal",) + witness
    if not IdealSet(table, members).proper:
        return False, ("not-proper",)
    for other in enumerate_ideals(table):
        if other.proper and members < other.members:
            return False, ("contained-in",) + tuple(other.sorted_ids())
    return True, None


def brute_down_set_ideals(table):
    """Independent oracle: every nonempty down-set that ``is_ideal`` accepts,
    in the order of ``enumerate_ideals``.  Elements are decided in order of
    their down-set sizes, a linear extension of the order, and one joins
    a down-set only when everything strictly below it is in."""
    order = induced_order(table)
    els = table.elements
    below = {e: {x for x in els if x != e and order.le(x, e)} for e in els}
    ranked = sorted(els, key=lambda e: len(below[e]))
    out = []

    def rec(pos, chosen):
        if pos == len(ranked):
            if chosen and is_ideal(table, chosen)[0]:
                out.append(chosen)
            return
        e = ranked[pos]
        rec(pos + 1, chosen)
        if below[e] <= chosen:
            rec(pos + 1, chosen | {e})

    rec(0, frozenset())
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def upwards_directed(table):
    order = induced_order(table)
    els = table.elements
    return all(any(order.le(a, c) and order.le(b, c) for c in els) for a in els for b in els)


def test_ideal_lattice_matches_frozen_and_brute(pea_corpus_full, gpea_corpus):
    """The lattice, every flag, and the ``is_maximal`` witness of every
    ideal, against the whole-lattice scan and the frozen checks."""
    maximal = non_maximal = 0
    hsums = hsum_tables() + [horizontal_sum(3, 3)]
    for table in list(pea_corpus_full) + list(gpea_corpus) + hsums:
        ideals = enumerate_ideals(table)
        assert [i.members for i in ideals] == brute_down_set_ideals(table)
        directed = upwards_directed(table)
        for ide in ideals:
            frozen = frozen_is_maximal(table, ide.members)
            assert is_maximal(table, ide.members) == frozen
            assert ide.maximal == frozen[0]
            assert ide.normal == frozen_is_normal(table, ide.members)[0]
            riesz = frozen_check_r1(table, ide.members)[0] and (
                directed or check_r2(table, ide.members)[0])
            assert ide.riesz == riesz
            maximal += frozen[0]
            non_maximal += frozen[1] is not None and frozen[1][0] == "contained-in"
    assert maximal > 0 and non_maximal > 0


def test_checks_still_refuse_non_ideals(pea_corpus_small, gpea_corpus):
    """A set that is not an ideal is validated as before: the (R1) and (R2)
    tests refuse it, and ``is_maximal`` names the failed ideal condition."""
    refused = 0
    for table in list(pea_corpus_small) + list(gpea_corpus):
        for ide in enumerate_ideals(table):
            for a in sorted(ide.members):
                S = ide.members - {a}
                ok, witness = is_ideal(table, S)
                if ok:
                    continue
                for check in (check_r1, check_r2, is_riesz_ideal):
                    with pytest.raises(PreconditionError, match="requires an ideal"):
                        check(table, S)
                with pytest.raises(PreconditionError, match="requires an ideal"):
                    IdealSet(table, S).riesz
                assert is_maximal(table, S) == (False, ("not-ideal",) + witness)
                assert not IdealSet(table, S).maximal
                refused += 1
    assert refused > 0


def frozen_is_normal(table, S):
    """Reference copy of ``is_normal`` as it stood: every pair (a, i) in
    index order, with the j of j + a = a + i found by search."""
    I = {table.index(x) for x in S}
    els = table.elements
    k = table.size
    for a in range(k):
        for i in range(k):
            s = table.add_i(a, i)
            if s is None:
                continue
            js = [j for j in range(k) if table.add_i(j, a) == s]
            if js and (i in I) != (js[0] in I):
                return False, (els[a], els[i], els[js[0]])
    return True, None


def test_is_normal_witness_matches_frozen(pea_corpus_full, gpea_corpus):
    """Every ideal, every ideal minus one member, and every subset of the
    tables of at most 5 elements, gets the witness of the frozen copy."""
    abnormal = 0
    for table in list(pea_corpus_full) + list(gpea_corpus):
        ideals = [ide.members for ide in enumerate_ideals(table)]
        cases = ideals + [S - {a} for S in ideals for a in S]
        if table.size <= 5:
            cases += [frozenset(c) for r in range(table.size + 1)
                      for c in combinations(table.elements, r)]
        for S in cases:
            got = is_normal(table, S)
            assert got == frozen_is_normal(table, S)
            abnormal += not got[0]
    assert abnormal > 0


def test_is_ideal_witness_matches_frozen(pea_corpus_full, gpea_corpus):
    """Every ideal minus one member, and every subset of the tables of at
    most 6 elements, gets the witness of the frozen copy."""
    for table in list(pea_corpus_full) + list(gpea_corpus):
        cases = [ide.members - {a} for ide in enumerate_ideals(table) for a in ide.members]
        if table.size <= 6:
            cases += [frozenset(c) for r in range(table.size + 1)
                      for c in combinations(table.elements, r)]
        for S in cases:
            assert is_ideal(table, S) == frozen_is_ideal(table, S)


def test_congruence_classes(boolean4, chain3):
    assert congruence_classes(boolean4, {"0", "a"}) == [("0", "a"), ("1", "a'")]
    singletons = congruence_classes(chain3, {"0"})
    assert len(singletons) == 4 and all(len(c) == 1 for c in singletons)


def test_congruence_requires_normal_riesz(diamond):
    with pytest.raises(PreconditionError):
        congruence_classes(diamond, {"0", "a"})


@pytest.mark.parametrize("members, witness", [
    ({"a"}, ("downward", "0", "a")),
    (set(), ("empty",)),
    ({"0", "a", "a'"}, ("sum", "a", "a'")),
], ids=["downward", "empty", "sum"])
def test_congruence_names_the_missing_ideal(boolean4, members, witness):
    for fn in (congruence_classes, quotient):
        with pytest.raises(PreconditionError) as info:
            fn(boolean4, members)
        assert str(info.value) == "congruence requires an ideal: %r" % (witness,)


def test_quotient(boolean4, chain3):
    q, linear, mapping = quotient(boolean4, {"0", "a"})
    assert linear and are_isomorphic(q, chain_table(1))
    assert mapping["a'"] == mapping["1"]
    q2, _, _ = quotient(chain3, {"0"})
    assert are_isomorphic(q2, chain3)


def test_quotient_by_everything_collapses(boolean4):
    q, linear, _ = quotient(boolean4, set(boolean4.elements))
    assert q.size == 1 and q.one is None and linear


def test_generated_ideal(boolean4, chain3):
    assert ideal_generated(boolean4, {"0"}, "a").members == frozenset({"0", "a"})
    assert ideal_generated(boolean4, {"0", "a"}, "0").members == frozenset({"0", "a"})
    assert ideal_generated(chain3, {"0"}, "1/3").members == frozenset(chain3.elements)


def test_generated_ideal_refuses_without_rdp0(diamond):
    with pytest.raises(PreconditionError):
        ideal_generated(diamond, {"0"}, "a")


def test_generated_matches_minimal(pea_corpus_small):
    from peal.rdp import check_rdp0

    for table in pea_corpus_small:
        if not check_rdp0(table)[0]:
            continue
        lattice = [i.members for i in enumerate_ideals(table)]
        for base in lattice:
            for a in table.elements:
                minimal = frozenset(table.elements)
                for other in lattice:
                    if base <= other and a in other:
                        minimal &= other
                assert ideal_generated(table, base, a).members == minimal


def test_radicals(boolean4, diamond):
    assert radicals(boolean4) == (frozenset({"0"}), frozenset({"0"}))
    assert radicals(diamond) == (frozenset({"0"}), frozenset({"0"}))


def test_two_valued_partition(boolean4, diamond, chain3):
    pairs = two_valued_partition(boolean4)
    assert {i.members for i, _ in pairs} == {
        frozenset({"0", "a"}),
        frozenset({"0", "a'"}),
    }
    for ide, s in pairs:
        assert all(s(x) == 0 for x in ide.members)
    assert two_valued_partition(diamond) == []
    two_chain = chain_table(1)
    pairs = two_valued_partition(two_chain)
    assert len(pairs) == 1 and pairs[0][0].members == frozenset({"0"})


def test_partition_matches_direct_check(pea_corpus_small):
    """Both theorem directions, checked independently of the library's own
    internal assertion."""
    from peal.core import complements
    from peal.states import enumerate_discrete_states, kernel

    for table in pea_corpus_small:
        pairs = two_valued_partition(table)
        states = enumerate_discrete_states(table, 1)
        assert len(pairs) == len(states)
        for s in states:
            ker = kernel(table, s)
            assert is_maximal(table, ker)[0] and is_normal(table, ker)[0]
            minus = {complements(table, x)[0] for x in ker}
            tilde = {complements(table, x)[1] for x in ker}
            universe = set(table.elements)
            assert ker | minus == universe and not ker & minus
            assert ker | tilde == universe and not ker & tilde


def test_two_valued_partition_on_boolean_2_4():
    from peal.constructions import gamma_interval_finite
    from peal.groups import IntVectorGroup, UnitalPoGroup

    table = gamma_interval_finite(UnitalPoGroup(IntVectorGroup(4), (1, 1, 1, 1)))
    pairs = two_valued_partition(table)
    assert len(pairs) == 4
    for ide, s in pairs:
        assert all(s(e) == (0 if e in ide.members else 1) for e in table.elements)
