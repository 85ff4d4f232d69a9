"""Ideal theory on finite PEAs/GPEAs: predicates, enumeration, Riesz
conditions, congruences, quotients, generated ideals, radicals, and the
two-valued-state partition theorems."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .core import (
    InconsistencyError,
    PartialAdditionTable,
    PreconditionError,
    _bits,
    _differences,
    _equations,
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
    part in equality.  An ideal that ``enumerate_ideals`` found carries its
    index mask and its maximality, so no flag of it validates it again."""

    table: PartialAdditionTable
    members: FrozenSet[str]
    _bitmask: Optional[int] = field(default=None, compare=False)
    _maximal: Optional[bool] = field(default=None, compare=False)

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
        if self._maximal is not None:
            return self._maximal
        return is_maximal(self.table, self.members)[0]

    @cached_property
    def riesz(self) -> bool:
        if self._bitmask is not None:
            return _riesz(self.table, self._bitmask)[0]
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
    return _ideal(table, _mask(table, S))


def _ideal(table: PartialAdditionTable, I: int):
    """``is_ideal`` on the index mask ``I``."""
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
    return _normal(table, _mask(table, S))


def _normal(table: PartialAdditionTable, I: int):
    """``is_normal`` on the index mask ``I``."""
    els = table.elements
    ldiff = _differences(table)[0]
    for a, i, s in table.defined_sums():
        j = ldiff[s][a]
        if j is not None and I >> i & 1 != I >> j & 1:
            return False, (els[a], els[i], els[j])
    return True, None


@derived
def _normal_ideal(table: PartialAdditionTable, I: int) -> bool:
    """Whether the index mask ``I`` is a normal ideal, decided once per
    table and mask."""
    return _ideal(table, I)[0] and _normal(table, I)[0]


def _require_ideal(table: PartialAdditionTable, S: FrozenSet[str], what: str) -> int:
    """The index mask of ``S``, refused unless ``S`` is an ideal."""
    ok, witness = is_ideal(table, S)
    if not ok:
        raise PreconditionError("%s requires an ideal: %r" % (what, witness))
    return _mask(table, S)


def is_maximal(table: PartialAdditionTable, S: Iterable[str]):
    """Maximal proper ideal, read off the flags of the ideal lattice.  The
    witness of a proper ideal that is not maximal is the first proper ideal
    above it in lattice order, searched for only then."""
    members = frozenset(S)
    ok, witness = is_ideal(table, members)
    if not ok:
        return False, ("not-ideal",) + witness
    if not IdealSet(table, members).proper:
        return False, ("not-proper",)
    if _lattice(table)[_mask(table, members)]:
        return True, None
    for other in enumerate_ideals(table):
        if other.proper and members < other.members:
            return False, ("contained-in",) + tuple(other.sorted_ids())
    raise InconsistencyError("no proper ideal above the non-maximal %r" % (sorted(members),))


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


@derived
def _lattice(table: PartialAdditionTable) -> Dict[int, bool]:
    """Every ideal as an index mask, mapped to whether it is maximal: the
    search of ``enumerate_ideals``."""
    _require_gpea(table)
    down = induced_order(table).down
    zero = table.zero_i
    # adjacent[x]: (s, the y with x + y = s or y + x = s), for y other than 0
    adjacent: List[Dict[int, int]] = [{} for _ in range(table.size)]
    for i, j, s in _equations(table):
        adjacent[i][s] = adjacent[i].get(s, 0) | 1 << j
        adjacent[j][s] = adjacent[j].get(s, 0) | 1 << i
    adjacent_items = [tuple(row.items()) for row in adjacent]
    top = (1 << table.size) - 1 if table.one is None else 1 << table.one_i

    def grow(J: int, a: int) -> int:
        I = J | 1 << a
        new = [a]
        for x in new:
            for s, ys in adjacent_items[x]:
                if ys & I and not I >> s & 1:
                    added = down[s] & ~I
                    I |= added
                    new.extend(_bits(added))
        return I

    lattice = {1 << zero: False}
    todo = [1 << zero]
    while todo:
        J = todo.pop()
        maximal = J & top != top
        for a, below in enumerate(down):
            if below & ~J == 1 << a:
                K = grow(J, a)
                if K & top != top:
                    maximal = False
                if K not in lattice:
                    lattice[K] = False
                    todo.append(K)
        lattice[J] = maximal
    return lattice


@derived
def enumerate_ideals(table: PartialAdditionTable) -> List[IdealSet]:
    """All ideals, by size and then by their sorted members.

    The search starts at {0}.  Each ideal J found is grown by each element
    a minimal outside J, that is, with everything strictly below a in J,
    to the least ideal over J and a.  Every ideal K above J contains such
    an element (a minimal one of K minus J), and the least ideal over J and
    that element lies inside K.  So every ideal is reached, and a proper J
    is maximal exactly when none of the ideals it grows to is proper: a
    proper K above J would contain one of them.  For a GPEA without unit,
    proper means not every element.

    J and a together are already down-closed, and every sum of two members
    of J lies in J.  So growing J by a only looks at the sums that have a
    new element as an operand: each new element x adds, once, every
    defined x + y and y + x with y already in, together with its down-set,
    and what that adds is new in turn.  Of any two members, the one added
    later sees the other, so the set is closed when nothing new appears.
    """
    result = [IdealSet(table, _members(table, J), J, maximal)
              for J, maximal in _lattice(table).items()]
    result.sort(key=lambda ide: (len(ide.members), ide.sorted_ids()))
    return result


@derived
def _is_upwards_directed(table: PartialAdditionTable) -> bool:
    up = induced_order(table).up
    return all(a & b for a in up for b in up)


def check_r1(table: PartialAdditionTable, S: Iterable[str]):
    """(R1): every ideal element below a sum a+b is below some sum j+k of
    ideal elements j <= a, k <= b.  The witness is the failure with the
    lowest ideal element, then the first sum in ``defined_sums()`` order.

    Each defined sum a+b = s starts with the ideal elements below s as lost
    and clears reach(j, b) for each ideal element j <= a, where reach(j, b)
    is the union of the down-sets of the defined sums j+k over the ideal
    elements k <= b.  The union over j of reach(j, b) is the union of the
    down-sets of every j+k that (R1) allows, so what stays lost is the set
    of ideal elements below a+b that no such sum covers.  The sums j+0 and
    0+k alone cover the ideal elements below a or below b, so those are
    never lost.  A reach mask depends on j and b only, so it is built once
    per call.

    A sum a+b = s with a and b both in the ideal is skipped: j = a and
    k = b are allowed, and every ideal element below s is below j+k = s,
    so nothing stays lost there and (R1) cannot fail at that sum."""
    return _r1(table, _require_ideal(table, frozenset(S), "(R1) test"))


def _r1(table: PartialAdditionTable, I: int):
    """``check_r1`` on the ideal with index mask ``I``, not validated again."""
    t = table._sums
    down = induced_order(table).down
    els = table.elements
    k = table.size
    below: List[Optional[List[int]]] = [None] * k
    reach: List[Optional[int]] = [None] * (k * k)
    witness = None
    for a, b, s in table.defined_sums():
        lost = down[s] & I & ~(down[a] | down[b])
        if not lost or I >> a & 1 and I >> b & 1:
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


def check_r2(table: PartialAdditionTable, S: Iterable[str]):
    """(R2), taken literally from its definition, both clauses."""
    return _r2(table, _require_ideal(table, frozenset(S), "(R2) test"))


def _r2(table: PartialAdditionTable, I: int):
    """``check_r2`` on the ideal with index mask ``I``, not validated again."""
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
    return _riesz(table, _require_ideal(table, frozenset(S), "(R1) test"))


def _riesz(table: PartialAdditionTable, I: int):
    """``is_riesz_ideal`` on the ideal with index mask ``I``, not validated
    again."""
    r1, witness = _r1(table, I)
    if not r1 or _is_upwards_directed(table):
        return r1, witness
    return _r2(table, I)


def congruence_relation(table: PartialAdditionTable, I: Iterable[str]) -> List[List[bool]]:
    """Matrix of a ~_I b: some i, j in I with i <= a, j <= b, a\\i = b\\j."""
    members = frozenset(I)
    I = _require_ideal(table, members, "congruence")
    norm, w = is_normal(table, members)
    if not norm:
        raise PreconditionError("congruence requires a normal ideal: %r" % (w,))
    riesz, w = _riesz(table, I)
    if not riesz:
        raise PreconditionError("congruence requires a Riesz ideal: %r" % (w,))
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
    base = _require_ideal(table, members, "ideal_generated")
    r0, w0 = check_rdp0(table)
    if not r0:
        raise PreconditionError(
            "ideal_generated requires (RDP)_0; it fails with witness %r" % (w0,)
        )
    down = induced_order(table).down
    result = _members(table, _sum_close(table, base | down[table.index(a)]))
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
