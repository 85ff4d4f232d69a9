"""Ideal theory on finite PEAs/GPEAs: predicates, enumeration, Riesz
conditions, congruences, quotients, generated ideals, radicals, and the
two-valued-state partition theorems."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Tuple

from .core import (
    InconsistencyError,
    PartialAdditionTable,
    PreconditionError,
    _bits,
    _differences,
    _mask,
    _require_gpea,
    _require_pea,
    check_axioms,
    complements,
    derived,
    induced_order,
)


@dataclass
class IdealSet:
    """An ideal; its structural flags are computed on first use and take no
    part in equality."""

    table: PartialAdditionTable
    members: FrozenSet[str]

    @property
    def proper(self) -> bool:
        if self.table.one is not None:
            return self.table.one not in self.members
        return self.members != frozenset(self.table.elements)

    @cached_property
    def normal(self) -> bool:
        return is_normal(self.table, self.members)[0]

    @cached_property
    def maximal(self) -> bool:
        return is_maximal(self.table, self.members)[0]

    @cached_property
    def riesz(self) -> bool:
        return is_riesz_ideal(self.table, self.members)[0]

    def sorted_ids(self) -> List[str]:
        return sorted(self.members)

    def __repr__(self):
        return "IdealSet({%s})" % ",".join(self.sorted_ids())


def _members(table: PartialAdditionTable, mask: int) -> FrozenSet[str]:
    return frozenset(table.elements[i] for i in _bits(mask))


def is_ideal(table: PartialAdditionTable, S: Iterable[str]):
    """Nonempty, downward closed, closed under defined sums.  The witness
    is the first failure in table element order."""
    _require_gpea(table)
    I = _mask(table, S)
    els = table.elements
    if not I:
        return False, ("empty",)
    down = induced_order(table).down
    for i in _bits(I):
        outside = down[i] & ~I
        if outside:
            return False, ("downward", els[next(_bits(outside))], els[i])
    t = table._sums
    for i in _bits(I):
        for j in _bits(I):
            s = t[i][j]
            if s is not None and not I >> s & 1:
                return False, ("sum", els[i], els[j])
    return True, None


def is_normal(table: PartialAdditionTable, S: Iterable[str]):
    """Normality: whenever a+i = j+a, membership of i and j agree."""
    _require_gpea(table)
    I = _mask(table, S)
    els = table.elements
    ldiff = _differences(table)[0]
    for a, i, s in table.defined_sums():
        j = ldiff[s][a]
        if j is not None and I >> i & 1 != I >> j & 1:
            return False, (els[a], els[i], els[j])
    return True, None


def is_maximal(table: PartialAdditionTable, S: Iterable[str]):
    """Maximal proper ideal, decided against the enumerated ideal lattice."""
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


def _sum_close(table: PartialAdditionTable, I: int) -> int:
    """The mask ``I`` with every defined sum of its members added, until
    none is missing."""
    t = table._sums
    while True:
        members = list(_bits(I))
        closed = I
        for i in members:
            row = t[i]
            for j in members:
                s = row[j]
                if s is not None:
                    closed |= 1 << s
        if closed == I:
            return I
        I = closed


def _ideal_closure(table: PartialAdditionTable, I: int) -> int:
    """The least ideal containing the nonempty mask ``I``: down-close, then
    sum-close, until nothing changes."""
    down = induced_order(table).down
    while True:
        closed = 0
        for a in _bits(I):
            closed |= down[a]
        I = _sum_close(table, closed)
        if I == closed:
            return I


@derived
def enumerate_ideals(table: PartialAdditionTable) -> List[IdealSet]:
    """All ideals, by a search over the ideal closure: starting from the
    closure of {0}, each ideal J found is extended by each minimal element
    outside J and closed again.  Every ideal K above J contains such an
    element (a minimal one of K minus J), so every ideal is reached."""
    _require_gpea(table)
    down = induced_order(table).down
    seen = {_ideal_closure(table, 1 << table.zero_i)}
    todo = list(seen)
    while todo:
        J = todo.pop()
        for a, below in enumerate(down):
            # a lies outside J and everything strictly below a inside it
            if below & ~J == 1 << a:
                bigger = _ideal_closure(table, J | 1 << a)
                if bigger not in seen:
                    seen.add(bigger)
                    todo.append(bigger)
    result = [IdealSet(table, _members(table, J)) for J in seen]
    result.sort(key=lambda ide: (len(ide.members), ide.sorted_ids()))
    return result


@derived
def _is_upwards_directed(table: PartialAdditionTable) -> bool:
    up = induced_order(table).up
    return all(a & b for a in up for b in up)


def check_r1(table: PartialAdditionTable, S: Iterable[str]):
    """(R1): every ideal element below a sum a+b is below some sum j+k of
    ideal elements j <= a, k <= b.

    Each defined sum a+b = s starts with the ideal elements below s as lost
    and clears the down-set of every j+k; the witness is the failure with
    the lowest ideal element, then the first sum in element order."""
    members = frozenset(S)
    ok, witness = is_ideal(table, members)
    if not ok:
        raise PreconditionError("(R1) test requires an ideal: %r" % (witness,))
    I = _mask(table, members)
    t = table._sums
    down = induced_order(table).down
    els = table.elements
    below = [list(_bits(d & I)) for d in down]
    witness = None
    for a, b, s in table.defined_sums():
        lost = down[s] & I
        if not lost:
            continue
        below_b = below[b]
        for j in below[a]:
            row = t[j]
            for k in below_b:
                jk = row[k]
                if jk is not None:
                    lost &= ~down[jk]
            if not lost:
                break
        if lost:
            i = next(_bits(lost))
            if witness is None or i < witness[0]:
                witness = (i, a, b)
    if witness is None:
        return True, None
    i, a, b = witness
    return False, ("R1", els[i], els[a], els[b])


def check_r2(table: PartialAdditionTable, S: Iterable[str]):
    """(R2), taken literally from its definition, both clauses."""
    members = frozenset(S)
    ok, witness = is_ideal(table, members)
    if not ok:
        raise PreconditionError("(R2) test requires an ideal: %r" % (witness,))
    I = _mask(table, members)
    t = table._sums
    order = induced_order(table)
    ldiff, rdiff = _differences(table)
    els = table.elements
    for i in _bits(I):
        for a in _bits(order.up[i]):
            ai = ldiff[a][i]
            ia = rdiff[i][a]
            for b, below in enumerate(order.down):
                if t[ai][b] is not None:
                    ok = any(t[a][rdiff[j][b]] is not None for j in _bits(below & I))
                    if not ok:
                        return False, ("R2a", els[i], els[a], els[b])
                if t[b][ia] is not None:
                    ok = any(t[ldiff[b][j]][a] is not None for j in _bits(below & I))
                    if not ok:
                        return False, ("R2b", els[i], els[a], els[b])
    return True, None


def is_riesz_ideal(table: PartialAdditionTable, S: Iterable[str]):
    """Riesz ideal test.

    (R1) is always checked; for upwards directed algebras (every PEA is) it
    already decides the matter, and (R2) is checked in addition only when
    directedness fails to hold.
    """
    r1, witness = check_r1(table, S)
    if not r1:
        return False, witness
    if _is_upwards_directed(table):
        return True, None
    return check_r2(table, S)


def congruence_relation(table: PartialAdditionTable, I: Iterable[str]) -> List[List[bool]]:
    """Matrix of a ~_I b: some i, j in I with i <= a, j <= b, a\\i = b\\j."""
    members = frozenset(I)
    norm, w = is_normal(table, members)
    if not norm:
        raise PreconditionError("congruence requires a normal ideal: %r" % (w,))
    riesz, w = is_riesz_ideal(table, members)
    if not riesz:
        raise PreconditionError("congruence requires a Riesz ideal: %r" % (w,))
    I = _mask(table, members)
    k = table.size
    ldiff = _differences(table)[0]
    # diffs[a] = {a \ i : i in I, i <= a}
    diffs = [{ldiff[a][i] for i in _bits(I)} - {None} for a in range(k)]
    rel = [[bool(diffs[a] & diffs[b]) for b in range(k)] for a in range(k)]
    for a in range(k):
        if not rel[a][a]:
            raise InconsistencyError("~_I not reflexive")
        for b in range(k):
            if rel[a][b] != rel[b][a]:
                raise InconsistencyError("~_I not symmetric")
            if rel[a][b]:
                for c in range(k):
                    if rel[b][c] and not rel[a][c]:
                        raise InconsistencyError("~_I not transitive")
    return rel


def congruence_classes(table: PartialAdditionTable, I: Iterable[str]) -> List[Tuple[str, ...]]:
    """Classes of ~_I, each sorted, ordered by smallest member index."""
    return _classes(table, congruence_relation(table, I))


def _classes(table: PartialAdditionTable, rel: List[List[bool]]) -> List[Tuple[str, ...]]:
    """Classes of an equivalence relation matrix, as in congruence_classes."""
    k = table.size
    els = table.elements
    seen = [False] * k
    classes = []
    for a in range(k):
        if seen[a]:
            continue
        cls = [b for b in range(k) if rel[a][b]]
        for b in cls:
            seen[b] = True
        classes.append(tuple(sorted(els[b] for b in cls)))
    return classes


def quotient(table: PartialAdditionTable, I: Iterable[str]):
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
    rows = [[None] * len(classes) for _ in classes]
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
                rows[ci][cj] = results.pop()
    zero_i = class_of[table.zero_i]
    one_i = None if table.one is None else class_of[table.one_i]
    q = PartialAdditionTable._from_rows(names, zero_i, None if one_i == zero_i else one_i, rows)
    rep = check_axioms(q, "gpea")
    if not rep.passed:
        raise InconsistencyError("quotient fails GPEA axioms: %r" % (rep.violations,))

    # condition (L): for all a, b there is c with a+c ~ b or b+c ~ a, that is,
    # the sums of row a meet the class of b or those of row b meet that of a
    sums = [sum(1 << s for s in row if s is not None) for row in t]
    same = [sum(1 << x for x, related in enumerate(row) if related) for row in rel]
    linear = all(sums[a] & same[b] or sums[b] & same[a] for a in range(k) for b in range(k))
    if linear != induced_order(q).is_total():
        raise InconsistencyError("condition (L) disagrees with quotient order totality")
    mapping = {els[i]: names[class_of[i]] for i in range(k)}
    return q, linear, mapping


def ideal_generated(table: PartialAdditionTable, I: Iterable[str], a: str) -> IdealSet:
    """Smallest ideal containing I and a, computed by the alternating-sum
    closure formula (valid under (RDP)_0, which is checked)."""
    from .rdp import check_rdp0

    members = frozenset(I)
    ok, witness = is_ideal(table, members)
    if not ok:
        raise PreconditionError("ideal_generated requires an ideal: %r" % (witness,))
    r0, w0 = check_rdp0(table)
    if not r0:
        raise PreconditionError(
            "ideal_generated requires (RDP)_0; it fails with witness %r" % (w0,)
        )
    down = induced_order(table).down
    result = _members(table, _sum_close(table, _mask(table, members) | down[table.index(a)]))
    ok, witness = is_ideal(table, result)
    if not ok:
        raise InconsistencyError("generated-set formula did not yield an ideal: %r" % (witness,))
    return IdealSet(table, result)


def radicals(table: PartialAdditionTable) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """(Rad, Rad_n): intersections of all maximal (resp. maximal normal) ideals."""
    _require_pea(table)
    all_ideals = enumerate_ideals(table)
    maximal = [i for i in all_ideals if i.maximal]
    universe = frozenset(table.elements)
    rad = universe
    for i in maximal:
        rad &= i.members
    rad_n = universe
    for i in maximal:
        if i.normal:
            rad_n &= i.members
    if not rad <= rad_n:
        raise InconsistencyError("Rad(E) not contained in Rad_n(E)")
    return rad, rad_n


def two_valued_partition(table: PartialAdditionTable):
    """All pairs (maximal normal ideal I, two-valued state) with
    E = I u I- = I u I~ disjointly; certified bijective with the 2-valued
    discrete states, and for symmetric tables checked against unitization."""
    from . import states as states_mod
    from .core import is_symmetric

    _require_pea(table)
    universe = frozenset(table.elements)
    pairs = []
    for ide in enumerate_ideals(table):
        if not (ide.maximal and ide.normal):
            continue
        i_minus = frozenset(complements(table, x)[0] for x in ide.members)
        i_tilde = frozenset(complements(table, x)[1] for x in ide.members)
        if ide.members | i_minus != universe or ide.members & i_minus:
            continue
        if ide.members | i_tilde != universe or ide.members & i_tilde:
            continue
        vals = [0 if e in ide.members else 1 for e in table.elements]
        pairs.append((ide, states_mod.StateVector._from_ints(table, vals, 1)))

    expected = states_mod.enumerate_discrete_states(table, 1)
    if {s for _, s in pairs} != set(expected):
        raise InconsistencyError(
            "two-valued partition does not match the 2-valued discrete states"
        )

    if pairs and is_symmetric(table).symmetric:
        from .constructions import unitize

        for ide, _ in pairs:
            # the theorem's isomorphism: x -> x on I and x# -> x~, where
            # unitize lists the sharp copies after I in the same order
            sub = table.restrict(ide.members)
            lifted = unitize(sub)
            image = list(sub.elements) + [complements(table, x)[1] for x in sub.elements]
            f = [table.index(x) for x in image]
            if sorted(f) != list(range(table.size)) or any(
                table._sums[f[p]][f[q]] != (None if r is None else f[r])
                for p, row in enumerate(lifted._sums)
                for q, r in enumerate(row)
            ):
                raise InconsistencyError(
                    "unitization of %r is not isomorphic to the algebra" % (ide,)
                )
    return pairs
