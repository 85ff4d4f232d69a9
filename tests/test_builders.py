"""Every table peal builds internally comes from index rows
(``PartialAdditionTable._from_rows``).  The frozen builders below are the
name-dict versions they replaced, kept verbatim but for their names (and
``restrict`` as a function) as the oracle: both must give the same
elements, zero, one and rows, or raise the same error."""

from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple

import pytest

from peal.constructions import (
    NonSymmetricError,
    chain_table,
    gamma_interval_finite,
    unitize,
)
from peal.core import (
    InconsistencyError,
    InputError,
    PartialAdditionTable,
    PreconditionError,
    _differences,
    _noncommuting_pair,
    check_axioms,
    induced_order,
    is_symmetric,
)
from peal.corpus import _NAMES, _relabeled, _table_encoding, canonical_table, generate_gpeas, generate_peas
from peal.groups import (
    BoundExceededError,
    InfiniteIntervalError,
    IntVectorGroup,
    TwistedZ3Group,
    UnitalPoGroup,
)
from peal.ideals import _classes, congruence_relation, enumerate_ideals, quotient


def frozen_chain_table(n: int) -> PartialAdditionTable:
    """The (n+1)-element chain {0, 1/n, ..., 1} with truncated addition."""
    if n < 1:
        raise InputError("chain parameter must be >= 1")
    names = [str(Fraction(i, n)) for i in range(n + 1)]
    sums = {}
    for i in range(n + 1):
        for j in range(n + 1):
            if i + j <= n:
                sums[(names[i], names[j])] = names[i + j]
    return PartialAdditionTable(names, names[0], names[n], sums)


def frozen_unitize(table: PartialAdditionTable) -> PartialAdditionTable:
    """Double a symmetric GPEA with sharp copies into a symmetric PEA.

    The three sum rules are applied verbatim: sums inside E are kept,
    a + b# = (b\\a)# and b# + a = (a/b)# whenever the differences exist, and
    sharp elements never add to each other.  The sharp copy of x is named x
    followed by the shortest run of '#' that names no element of E.
    Non-symmetric input is rejected; the output is certified to pass the PEA
    axioms with E sitting inside as an order ideal.
    """
    rep = check_axioms(table, "gpea")
    if not rep.passed:
        raise PreconditionError("unitization requires a GPEA: %r" % (rep.violations[:1],))
    pair = _noncommuting_pair(table)
    if pair is not None:
        raise NonSymmetricError("GPEA is not weakly commutative at (%r, %r)" % pair)
    els = table.elements
    names = set(els)
    suffix = "#"
    while any(e + suffix in names for e in els):
        suffix += "#"
    sharp = [e + suffix for e in els]
    ldiff, rdiff = _differences(table)
    sums: Dict[Tuple[str, str], str] = {}
    for a in range(table.size):
        for b in range(table.size):
            c = table.add_i(a, b)
            if c is not None:
                sums[(els[a], els[b])] = els[c]
            if ldiff[b][a] is not None:  # a <= b
                sums[(els[a], sharp[b])] = sharp[ldiff[b][a]]
                sums[(sharp[b], els[a])] = sharp[rdiff[a][b]]
    lifted = PartialAdditionTable(list(els) + sharp, table.zero, sharp[table.zero_i], sums)
    rep = check_axioms(lifted, "pea")
    if not rep.passed:
        raise InconsistencyError(
            "unitization of a symmetric GPEA failed PEA axioms: %r" % (rep.violations,)
        )
    if not is_symmetric(lifted).symmetric:
        raise InconsistencyError("unitization is not symmetric")
    # E must embed as an order ideal with the same induced order; E keeps
    # the indices 0..k-1 in the lift, so both tests are mask tests
    order = induced_order(table)
    big_order = induced_order(lifted)
    k = table.size
    if any(big_order.down[j] >> k for j in range(k)):
        raise InconsistencyError("E is not downward closed in its unitization")
    low = (1 << k) - 1
    if any(big_order.up[a] & low != order.up[a] for a in range(k)):
        raise InconsistencyError("order of E changed inside the unitization")
    return lifted


def frozen_gamma_interval_finite(
    unital: UnitalPoGroup, bound: int = 4096
) -> PartialAdditionTable:
    """The interval PEA [0, u] of a unital po-group, materialized as a table.

    Addition is defined exactly when the group sum stays below u.  Refuses
    provably infinite intervals and intervals above the enumeration bound;
    those belong to the symbolic route.
    """
    group, u = unital.group, unital.u
    try:
        members = group.interval_elements(u, bound)
    except (InfiniteIntervalError, BoundExceededError) as exc:
        raise PreconditionError(
            "%s; construct it symbolically instead" % (exc,)
        ) from exc
    if not members:
        raise InputError("interval [0, u] is empty; u must be positive")
    members = sorted(members)
    names = {m: group.format(m) for m in members}
    member_set = set(members)
    sums = {}
    for a in members:
        for b in members:
            s = group.add(a, b)
            if s in member_set and group.le(s, u):
                sums[(names[a], names[b])] = names[s]
    table = PartialAdditionTable(
        [names[m] for m in members], names[group.zero()], names[u], sums
    )
    rep = check_axioms(table, "pea")
    if not rep.passed:
        raise InconsistencyError("interval table failed PEA axioms: %r" % (rep.violations,))
    return table


def frozen_quotient(table: PartialAdditionTable, I: Iterable[str]):
    """Quotient table E/~_I plus the linearity flag of condition (L).

    Class sums [a]+[b] = [a+b] are verified well-defined over all
    representatives.  Condition (L) is checked exhaustively and asserted
    equivalent to the quotient order being total.
    """
    rel = congruence_relation(table, I)
    classes = _classes(table, rel)
    k = table.size
    els = table.elements
    t = table._sums
    class_of: Dict[int, int] = {}
    for ci, cls in enumerate(classes):
        for e in cls:
            class_of[table.index(e)] = ci

    def class_name(cls: Tuple[str, ...]) -> str:
        return "{%s}" % ",".join(cls)

    names = [class_name(c) for c in classes]
    sums: Dict[Tuple[str, str], str] = {}
    for ci, ca in enumerate(classes):
        for cj, cb in enumerate(classes):
            results = set()
            for a in ca:
                for b in cb:
                    s = t[table.index(a)][table.index(b)]
                    if s is not None:
                        results.add(class_of[s])
            if len(results) > 1:
                raise InconsistencyError(
                    "quotient sum ill-defined on %s + %s" % (names[ci], names[cj])
                )
            if results:
                sums[(names[ci], names[cj])] = names[results.pop()]
    zero_name = names[class_of[table.zero_i]]
    one_name = None
    if table.one is not None:
        cand = names[class_of[table.one_i]]
        if cand != zero_name:
            one_name = cand
    q = PartialAdditionTable(names, zero_name, one_name, sums)
    rep = check_axioms(q, "gpea")
    if not rep.passed:
        raise InconsistencyError("quotient fails GPEA axioms: %r" % (rep.violations,))

    # condition (L): for all a, b there is c with a+c ~ b or b+c ~ a
    linear = True
    for a in range(k):
        for b in range(k):
            found = False
            for c in range(k):
                ac = t[a][c]
                bc = t[b][c]
                if (ac is not None and rel[ac][b]) or (bc is not None and rel[bc][a]):
                    found = True
                    break
            if not found:
                linear = False
                break
        if not linear:
            break
    if linear != induced_order(q).is_total():
        raise InconsistencyError("condition (L) disagrees with quotient order totality")
    mapping = {els[i]: names[class_of[i]] for i in range(k)}
    return q, linear, mapping


def frozen_relabeled(t, positions: Sequence[int], unital: bool) -> PartialAdditionTable:
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



def frozen_restrict(self: PartialAdditionTable, members: Iterable[str], one: Optional[str] = None) -> "PartialAdditionTable":
    """Sub-table on a subset of elements (sums kept when both operands and
    the result lie in the subset)."""
    members = set(members)
    keep = [e for e in self.elements if e in members]
    sums = {}
    for a in keep:
        for b in keep:
            c = self.add(a, b)
            if c is not None and c in members:
                sums[(a, b)] = c
    return PartialAdditionTable(keep, self.zero, one, sums)


def assert_same_table(new, old):
    assert (new.elements, new.zero, new.one, new.zero_i, new.one_i, new._sums, new._index) == (
        old.elements, old.zero, old.one, old.zero_i, old.one_i, old._sums, old._index)


def outcome(build):
    """The value of ``build()``, or the type and message of what it raises."""
    try:
        return build()
    except Exception as exc:  # noqa: BLE001  the oracle compares errors too
        return type(exc), str(exc)


def assert_same_outcome(new, old):
    got, want = outcome(new), outcome(old)
    if isinstance(want, PartialAdditionTable):
        assert_same_table(got, want)
    else:
        assert got == want


def test_chain_tables_match_frozen():
    for n in range(0, 41):
        assert_same_outcome(lambda: chain_table(n), lambda: frozen_chain_table(n))


def test_unitizations_match_frozen():
    gpeas = generate_gpeas(6)
    lifted = 0
    for table in gpeas:
        assert_same_outcome(lambda: unitize(table), lambda: frozen_unitize(table))
        lifted += _noncommuting_pair(table) is None
    assert 0 < lifted < len(gpeas)


def test_interval_tables_match_frozen():
    for group, u in ((IntVectorGroup(1), (4,)), (IntVectorGroup(2), (1, 2)),
                     (TwistedZ3Group(), (0, 1, 2)), (IntVectorGroup(2, "lex"), (1, 0))):
        unital = UnitalPoGroup(group, u)
        assert_same_outcome(lambda: gamma_interval_finite(unital),
                            lambda: frozen_gamma_interval_finite(unital))


def test_canonical_tables_match_frozen():
    for table in generate_peas(8) + generate_gpeas(6):
        positions = _table_encoding(table)[1]
        unital = table.one is not None
        assert_same_table(canonical_table(table), frozen_relabeled(table._sums, positions, unital))
        # and from a relabeling that is not the identity
        reverse = positions[:1] + positions[:0:-1]
        assert_same_table(_relabeled(table._sums, reverse, False),
                          frozen_relabeled(table._sums, reverse, False))


def test_restrictions_and_quotients_match_frozen():
    peas = generate_peas(8)
    quotients = 0
    for table in peas:
        for ide in enumerate_ideals(table):
            assert_same_table(table.restrict(ide.members), frozen_restrict(table, ide.members))
            if ide.normal and ide.riesz:
                quotients += 1
                q, linear, mapping = quotient(table, ide.members)
                q_old, linear_old, mapping_old = frozen_quotient(table, ide.members)
                assert_same_table(q, q_old)
                assert (linear, mapping) == (linear_old, mapping_old)
        assert_same_table(table.restrict(table.elements, table.one),
                          frozen_restrict(table, table.elements, table.one))
    assert quotients > len(peas)


def test_restrict_keeps_its_input_errors(chain3):
    cases = [
        ([], None),                        # nothing kept: the element list is empty
        (["1/3", "1"], None),              # zero dropped
        (["0", "1/3", "xyz"], "xyz"),      # one not an element
        (["0", "1/3"], "1"),               # one not kept
        (["0", "1/3"], "0"),               # one is zero
    ]
    for members, one in cases:
        got = outcome(lambda: chain3.restrict(members, one))
        assert got[0] is InputError
        assert got == outcome(lambda: frozen_restrict(chain3, members, one))


def test_rows_are_checked_as_the_constructor_checks_names():
    with pytest.raises(InputError) as named:
        PartialAdditionTable(["0", "a"], "0", None, {("0", "0"): "0"})
    with pytest.raises(InputError) as rows:
        PartialAdditionTable._from_rows(["0", "a"], 0, None, [[0, None], [None, None]])
    assert str(rows.value) == str(named.value)
    assert "unit law violated" in str(rows.value)
    # the class names of a quotient can clash: {p,q} + {r} and {p} + {q,r}
    clash = PartialAdditionTable.build(["p,q", "r", "p", "q,r"], "p,q", "q,r",
                                       {("r", "p"): "q,r", ("p", "r"): "q,r"})
    assert outcome(lambda: quotient(clash, ["p,q", "r"])) == outcome(
        lambda: frozen_quotient(clash, ["p,q", "r"])) == (InputError, "duplicate element identifiers")
