"""Finite partial algebras as explicit addition tables.

The central object is :class:`PartialAdditionTable`: a finite list of named
elements together with a partial binary addition, a zero, and (for
pseudo-effect algebras) a unit.  Elements are referenced by stable string
identifiers and internally by dense indices; all algorithms work on indices
and all arithmetic is exact.

Tables are immutable after construction.  Derived structure (axiom reports,
the induced order, complements, isotropic data) is memoised on the table by
:func:`derived`, so repeated queries over the same table are cheap.

The induced order is stored once, as bitmasks over element indices
(:class:`OrderRelation` ``up`` and ``down``).  Every other module reads
those masks: down-sets, up-sets and common bounds are mask operations, and
an index set such as an ideal is a mask too.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from operator import add, eq, itemgetter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple


class PealError(Exception):
    """Base class for all library errors."""


class InputError(PealError):
    """Malformed document, table, or argument (distinct from axiom failure)."""


class PreconditionError(PealError):
    """Operation invoked on a structure that fails its stated preconditions."""


class InconsistencyError(PealError):
    """An internal cross-check failed; indicates a bug or corrupted input."""


class DifferenceUndefinedError(PealError):
    """Requested difference b-a for elements with a not below b."""


GPEA_AXIOMS = ("GP1", "GP2", "GP3", "GP4", "GP5")
PEA_AXIOMS = ("PE1", "PE2", "PE3", "PE4", "GP3", "GP4", "GP5")


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of an exhaustive axiom scan.

    ``violations`` holds one minimal witness per violated axiom, as pairs
    ``(axiom tag, tuple of element ids)``.
    """

    kind: str
    passed: bool
    violations: Tuple[Tuple[str, Tuple[str, ...]], ...]

    def __post_init__(self):
        if self.passed != (len(self.violations) == 0):
            raise InconsistencyError("AxiomReport passed flag contradicts violations")


@dataclass(frozen=True)
class SymmetryReport:
    symmetric: bool
    witness: Optional[Tuple[str, ...]]
    sampled: bool = False
    samples: int = 0
    seed: Optional[int] = None


@dataclass(frozen=True)
class ElementInfo:
    element: str
    minus: Optional[str]  # left complement, PEA only
    tilde: Optional[str]  # right complement, PEA only
    iota: Optional[int]   # isotropic index; None means infinite


class OrderRelation:
    """The order induced by the partial addition: a <= b iff a + c = b for some c.

    Stored once as bitmasks over element indices: bit j of ``up[i]`` is set
    iff i <= j, and bit j of ``down[i]`` iff j <= i.  The methods below are
    the name-level views of the same masks.
    """

    def __init__(self, table: "PartialAdditionTable", up: Tuple[int, ...], down: Tuple[int, ...]):
        self.table = table
        self.up = up
        self.down = down

    def le(self, a: str, b: str) -> bool:
        return self.up[self.table.index(a)] >> self.table.index(b) & 1 == 1

    @property
    def pairs(self) -> FrozenSet[Tuple[str, str]]:
        els = self.table.elements
        return frozenset((els[i], els[j]) for i, row in enumerate(self.up) for j in _bits(row))

    @property
    def covering_pairs(self) -> FrozenSet[Tuple[str, str]]:
        """Pairs a < b with no element strictly between."""
        els = self.table.elements
        return frozenset(
            (els[i], els[j])
            for i, row in enumerate(self.up)
            for j in _bits(row & ~(1 << i))
            if row & self.down[j] == (1 << i) | (1 << j)
        )

    def is_total(self) -> bool:
        full = (1 << len(self.up)) - 1
        return all(u | d == full for u, d in zip(self.up, self.down))


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(table: "PartialAdditionTable", names: Iterable[str]) -> int:
    """The elements ``names`` of ``table`` as a bitmask over their indices."""
    mask = 0
    for a in names:
        mask |= 1 << table.index(a)
    return mask


class PartialAdditionTable:
    """A finite GPEA/PEA given by its partial Cayley table.

    The unit laws a+0 = 0+a = a are enforced at construction, so downstream
    code may rely on them.  Everything else is the business of
    :func:`check_axioms`.
    """

    __slots__ = ("elements", "zero", "one", "_sums", "_index", "_cache")

    def __init__(
        self,
        elements: Sequence[str],
        zero: str,
        one: Optional[str],
        sums: Mapping[Tuple[str, str], str],
    ):
        elements = tuple(str(e) for e in elements)
        if not elements:
            raise InputError("element list is empty")
        if len(set(elements)) != len(elements):
            raise InputError("duplicate element identifiers")
        index = {e: i for i, e in enumerate(elements)}
        if zero not in index:
            raise InputError("zero %r is not an element" % (zero,))
        if one is not None and one not in index:
            raise InputError("one %r is not an element" % (one,))
        if one is not None and one == zero:
            raise InputError("a unital table needs distinct zero and one")
        k = len(elements)
        table: List[List[Optional[int]]] = [[None] * k for _ in range(k)]
        for (a, b), c in sums.items():
            if a not in index or b not in index or c not in index:
                raise InputError("sum entry (%r, %r) -> %r references unknown element" % (a, b, c))
            i, j = index[a], index[b]
            if table[i][j] is not None and table[i][j] != index[c]:
                raise InputError("conflicting entries for %r + %r" % (a, b))
            table[i][j] = index[c]
        z = index[zero]
        for i in range(k):
            if table[i][z] != i or table[z][i] != i:
                raise InputError(
                    "unit law violated at construction: %r + 0 and 0 + %r must equal %r"
                    % (elements[i], elements[i], elements[i])
                )
        self.elements = elements
        self.zero = zero
        self.one = one
        self._sums = tuple(tuple(row) for row in table)
        self._index = index
        self._cache: Dict[tuple, object] = {}

    # -- basic access -------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def zero_i(self) -> int:
        return self._index[self.zero]

    @property
    def one_i(self) -> Optional[int]:
        return None if self.one is None else self._index[self.one]

    @property
    def is_unital(self) -> bool:
        return self.one is not None

    def index(self, a: str) -> int:
        try:
            return self._index[a]
        except KeyError:
            raise InputError("unknown element %r" % (a,)) from None

    def add(self, a: str, b: str) -> Optional[str]:
        c = self._sums[self.index(a)][self.index(b)]
        return None if c is None else self.elements[c]

    def add_i(self, i: int, j: int) -> Optional[int]:
        return self._sums[i][j]

    def defined(self, a: str, b: str) -> bool:
        return self._sums[self.index(a)][self.index(b)] is not None

    def defined_sums(self) -> Tuple[Tuple[int, int, int], ...]:
        """Every defined sum as an index triple (i, j, i + j), row by row."""
        return _defined_sums(self)

    def __eq__(self, other):
        return (
            isinstance(other, PartialAdditionTable)
            and self.elements == other.elements
            and self.zero == other.zero
            and self.one == other.one
            and self._sums == other._sums
        )

    def __hash__(self):
        return hash((self.elements, self.zero, self.one, self._sums))

    def __repr__(self):
        kind = "PEA" if self.is_unital else "GPEA"
        return "<%s table on %d elements>" % (kind, self.size)

    # -- construction helpers ------------------------------------------

    @classmethod
    def build(
        cls,
        elements: Sequence[str],
        zero: str,
        one: Optional[str],
        sums: Mapping[Tuple[str, str], str],
    ) -> "PartialAdditionTable":
        """Like the constructor but fills in the unit-law entries itself."""
        full = dict(sums)
        for e in elements:
            full[(e, zero)] = e
            full[(zero, e)] = e
        return cls(elements, zero, one, full)

    def restrict(self, members: Iterable[str], one: Optional[str] = None) -> "PartialAdditionTable":
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


def derived(fn):
    """Memoise ``fn(table, *args)`` on the table, keyed by ``fn`` and the
    positional ``args`` as passed.

    Tables are immutable, so a derived value never goes stale.  A call that
    raises stores nothing and raises again when repeated.
    """

    @functools.wraps(fn)
    def memo(table: PartialAdditionTable, *args):
        key = (fn, args)
        try:
            return table._cache[key]
        except KeyError:
            pass
        value = table._cache[key] = fn(table, *args)
        return value

    return memo


@derived
def _defined_sums(table: PartialAdditionTable) -> Tuple[Tuple[int, int, int], ...]:
    return tuple(
        (i, j, c)
        for i, row in enumerate(table._sums)
        for j, c in enumerate(row)
        if c is not None
    )


def _picker(indices: Sequence[int]):
    """``seq -> tuple(seq[i] for i in indices)``, in C for any length."""
    if len(indices) == 1:
        return lambda seq, i=indices[0]: (seq[i],)
    return itemgetter(*indices) if indices else (lambda seq: ())


@derived
def _sum_columns(table: PartialAdditionTable):
    """Pickers of the left operands, right operands and results of the
    distinct equations v(i) + v(j) = v(i + j) of the defined sums of
    nonzero elements: i + j and j + i give one equation when they agree,
    and every sum with 0 holds exactly when v(0) = 0."""
    z = table.zero_i
    equations = sorted({(min(i, j), max(i, j), s) for i, j, s in table.defined_sums()
                        if z != i and z != j})
    return tuple(_picker([e[c] for e in equations]) for c in range(3))


def _nonadditive(table: PartialAdditionTable, values: Sequence[int]) -> Optional[Tuple[int, int, int]]:
    """The first defined sum i + j = s with values[i] + values[j] !=
    values[s], or None when ``values`` is additive on every defined sum."""
    left, right, result = _sum_columns(table)
    if values[table.zero_i] == 0 and all(
            map(eq, map(add, left(values), right(values)), result(values))):
        return None
    return next((i, j, s) for i, j, s in table.defined_sums()
                if values[i] + values[j] != values[s])


# -- axiom checking -----------------------------------------------------


@derived
def check_axioms(table: PartialAdditionTable, kind: str = "pea") -> AxiomReport:
    """Exhaustively verify the GPEA axioms (GP1-GP5) or PEA axioms (PE1-PE4).

    One minimal witness is reported per violated axiom: the first in element
    order, as a scan of every pair (for associativity, every triple) would
    find it.  Malformed input (asking for PEA checks on a table with no
    unit) raises :class:`InputError` instead of producing a report.

    The scan walks only the defined sums.  A triple (a, b, c) breaks the
    associativity biconditional only when one side is defined, so for each
    a, in element order, two walks cover every candidate: one tests each
    defined (a+b)+c against a+(b+c), the other each defined a+(b+c)
    against (a+b)+c.  When the first walk finds no violation, every triple
    it saw has a+(b+c) defined and equal, so the second walk can find one
    only if it has more triples to see, which a count of the sums b+c
    decides; it runs only then, or once the first walk has a witness, and
    so at most once.  Both walks go through (b, c) in row order and stop at
    their first violation, and the lesser of the two is kept, so the report
    holds the least violating a with its least (b, c): the triple a scan of
    all k^3 triples reports first.  The shift axiom tests each defined sum
    against per-row and per-column value sets; cancellation and GP4 scan a
    line only when its value set shows a violation is there.
    """
    kind = kind.lower()
    if kind not in ("pea", "gpea"):
        raise InputError("kind must be 'pea' or 'gpea', got %r" % (kind,))
    if kind == "pea" and table.one is None:
        raise InputError("PEA axiom check requires a table with a unit")

    els = table.elements
    if kind == "pea":
        tags = ("PE1", "PE3", "GP3", "GP4", "GP5")
    else:
        tags = ("GP1", "GP2", "GP3", "GP4", "GP5")
    found = list(zip(tags, _axiom_witnesses(table)))

    if kind == "pea":
        t = table._sums
        found.append(("PE2", _complement_witness(t, table.one_i)))
        found.append(("PE4", _unit_sum_witness(t, table.zero_i, table.one_i)))

    violations = tuple((tag, tuple(map(els.__getitem__, w))) for tag, w in found if w is not None)
    return AxiomReport(kind=kind, passed=not violations, violations=violations)


@derived
def _axiom_witnesses(table: PartialAdditionTable):
    """Index witnesses (None where the axiom holds) of associativity, the
    shift axiom, cancellation, GP4 and GP5: the checks both kinds share."""
    return tuple(_witnesses(table._sums, table.zero_i))


def _witnesses(t, z: int, u: Optional[int] = None) -> Iterator[Optional[tuple]]:
    """The index witnesses of the table whose rows are ``t`` (``t[a][b]``
    the index of a + b, or None) and zero ``z``, one axiom at a time:
    associativity, the shift axiom, cancellation, GP4, GP5 and, given a
    unit ``u``, PE2 and PE4."""
    rows = _defined_rows(t)
    yield _associativity_witness(t, rows, z)
    cols = list(zip(*t))
    row_values = [set(row) for row in t]
    col_values = [set(col) for col in cols]
    yield _shift_witness(rows, row_values, col_values)
    yield _duplicate_witness(t, row_values) or _duplicate_witness(cols, col_values)
    yield _positivity_witness(t, z, row_values)
    yield _unit_law_witness(t, z)
    if u is not None:
        yield _complement_witness(t, u)
        yield _unit_sum_witness(t, z, u)


def _axioms_hold(t, z: int, u: Optional[int] = None) -> bool:
    """``check_axioms(table, kind).passed`` for the table with rows ``t``,
    zero ``z`` and, for kind "pea", unit ``u`` (None for kind "gpea").

    It runs the witness helpers of ``check_axioms`` and stops at the first
    violated axiom, building no table.  Associativity goes first, as the
    axiom an arbitrary table breaks most often.  Its scan assumes the unit
    law on row 0, which a table whose zero row breaks fails anyway, at GP5.
    """
    return all(w is None for w in _witnesses(t, z, u))


def _defined_rows(t) -> List[List[Tuple[int, int]]]:
    """Per row a, the defined sums as (b, a + b), in column order."""
    return [[(j, s) for j, s in enumerate(row) if s is not None] for row in t]


def _associativity_witness(t, rows, z) -> Optional[Tuple[int, int, int]]:
    """The least (a, b, c) where exactly one of (a+b)+c and a+(b+c) is
    defined, or both are and differ; see :func:`check_axioms`.  Row ``z``
    is taken to be the unit law's, 0 + x = x, so no triple with a = 0 can
    fail and that row is skipped."""
    sum_counts = [0] * len(t)
    for row in rows:
        for _, s in row:
            sum_counts[s] += 1
    for a, row_a in enumerate(rows):
        if a == z:
            continue
        ta = t[a]
        best = None
        seen = 0
        for b, ab in row_a:
            tb = t[b]
            row_ab = rows[ab]
            seen += len(row_ab)
            for c, abc in row_ab:
                bc = tb[c]
                if bc is None or ta[bc] != abc:
                    best = (b, c)
                    break
            if best is not None:
                break
        if best is None and sum(sum_counts[s] for s, _ in row_a) == seen:
            continue
        # the least (b, c) with a+(b+c) defined and (a+b)+c undefined or different
        for b, row_b in enumerate(rows):
            if best is not None and b > best[0]:
                break
            ab = ta[b]
            for c, bc in row_b:
                abc = ta[bc]
                if abc is not None and (ab is None or t[ab][c] != abc):
                    best = min(best or (b, c), (b, c))
                    break
            else:
                continue
            break
        return (a,) + best
    return None


def _shift_witness(rows, row_values, col_values) -> Optional[Tuple[int, int]]:
    """The first defined a+b with no d+a or no b+e equal to it."""
    for a, row in enumerate(rows):
        left = col_values[a]
        for b, s in row:
            if s not in left or s not in row_values[b]:
                return a, b
    return None


def _duplicate_witness(lines, values) -> Optional[Tuple[int, int, int]]:
    """Cancellation along rows or columns: the first line a holding one
    value twice, as (a, first position, second position)."""
    for a, line in enumerate(lines):
        if len(line) - line.count(None) == len(values[a]) - (None in values[a]):
            continue
        seen: Dict[int, int] = {}
        for b, s in enumerate(line):
            if s is None:
                continue
            if s in seen:
                return a, seen[s], b
            seen[s] = b
    return None


def _positivity_witness(t, z, row_values) -> Optional[Tuple[int, int]]:
    """The first a + b = 0 other than 0 + 0."""
    for a, row in enumerate(t):
        if z in row_values[a]:
            for b, s in enumerate(row):
                if s == z and (a != z or b != z):
                    return a, b
    return None


def _unit_law_witness(t, z) -> Optional[Tuple[int]]:
    """The first a with a + 0 or 0 + a other than a (GP5)."""
    return next(((a,) for a in range(len(t)) if t[a][z] != a or t[z][a] != a), None)


def _complement_witness(t, u) -> Optional[Tuple[int]]:
    """The first a without exactly one d with a + d = 1 and exactly one e
    with e + a = 1 (PE2)."""
    column_units = [col.count(u) for col in zip(*t)]
    return next(((a,) for a in range(len(t)) if t[a].count(u) != 1 or column_units[a] != 1),
                None)


def _unit_sum_witness(t, z, u) -> Optional[Tuple[int]]:
    """The first a other than 0 with 1 + a or a + 1 defined (PE4)."""
    return next(
        ((a,) for a in range(len(t)) if a != z and (t[u][a] is not None or t[a][u] is not None)),
        None)


def _require_gpea(table: PartialAdditionTable) -> None:
    report = check_axioms(table, "gpea")
    if not report.passed:
        raise PreconditionError("table fails GPEA axioms: %r" % (report.violations[:1],))


def _require_pea(table: PartialAdditionTable) -> None:
    if table.one is None:
        raise PreconditionError("operation requires a PEA (table has no unit)")
    report = check_axioms(table, "pea")
    if not report.passed:
        raise PreconditionError("table fails PEA axioms: %r" % (report.violations[:1],))


# -- induced order ------------------------------------------------------


@derived
def induced_order(table: PartialAdditionTable) -> OrderRelation:
    """Order with a <= b iff a + c = b for some c.

    The equivalent left-witness form (d + a = b for some d) is computed as
    well; a mismatch between the two is reported as an inconsistency.
    """
    _require_gpea(table)
    k = table.size
    els = table.elements
    right = [0] * k
    left = [0] * k
    down = [0] * k
    for a, c, s in table.defined_sums():
        right[a] |= 1 << s
        left[c] |= 1 << s
        down[s] |= 1 << a
    for a in range(k):
        mismatch = right[a] ^ left[a]
        if mismatch:
            b = next(_bits(mismatch))
            raise InconsistencyError(
                "order witness mismatch at (%s, %s): right %s, left %s"
                % (els[a], els[b], right[a] >> b & 1 == 1, left[a] >> b & 1 == 1)
            )
    # sanity: partial-order laws, guaranteed by the GPEA axioms
    for a in range(k):
        if not right[a] >> a & 1:
            raise InconsistencyError("induced order not reflexive")
        for b in _bits(right[a]):
            if a != b and right[b] >> a & 1:
                raise InconsistencyError("induced order not antisymmetric")
            if right[b] & ~right[a]:
                raise InconsistencyError("induced order not transitive")
    full = (1 << k) - 1
    if right[table.zero_i] != full:
        raise InconsistencyError("zero is not the least element")
    if table.one is not None and check_axioms(table, "pea").passed:
        if down[table.one_i] != full:
            raise InconsistencyError("unit is not the greatest element")
    return OrderRelation(table, tuple(right), tuple(down))


# -- complements, isotropic data, differences ---------------------------


@derived
def _differences(table: PartialAdditionTable):
    """Both difference tables of a GPEA, built once per table.

    ``ldiff[b][a]`` is the x with x+a = b and ``rdiff[a][b]`` the x with
    a+x = b; both are None unless a <= b.  Cancellation makes each entry
    unique, so a second solution is reported as an inconsistency.
    """
    _require_gpea(table)
    k = table.size
    ldiff: List[List[Optional[int]]] = [[None] * k for _ in range(k)]
    rdiff: List[List[Optional[int]]] = [[None] * k for _ in range(k)]
    for x, a, b in table.defined_sums():
        if ldiff[b][a] is not None or rdiff[x][b] is not None:
            raise InconsistencyError(
                "difference of %r by %r is not unique" % (table.elements[b], table.elements[a])
            )
        ldiff[b][a] = x
        rdiff[x][b] = a
    return tuple(map(tuple, ldiff)), tuple(map(tuple, rdiff))


def _noncommuting_pair(table: PartialAdditionTable) -> Optional[Tuple[str, str]]:
    """The first (a, b) in element order where exactly one of a+b, b+a is
    defined; None when condition (C), weak commutativity, holds."""
    t = table._sums
    k = table.size
    for a in range(k):
        for b in range(k):
            if (t[a][b] is None) != (t[b][a] is None):
                return table.elements[a], table.elements[b]
    return None


def complements(table: PartialAdditionTable, a: str) -> Tuple[str, str]:
    """Left and right complement (a-, a~) with a- + a = 1 and a + a~ = 1."""
    _require_pea(table)
    ldiff, rdiff = _differences(table)
    u = table.one_i
    i = table.index(a)
    return table.elements[ldiff[u][i]], table.elements[rdiff[i][u]]


def is_symmetric(table_or_symbolic, seed: int = 0, samples: int = 2000) -> SymmetryReport:
    """Decide a- = a~ for all a; cross-checked against weak commutativity.

    Finite tables are scanned exhaustively; symbolic algebras are sampled
    (the report says so).  The two criteria must agree on every instance.
    """
    if hasattr(table_or_symbolic, "sample_member"):
        return table_or_symbolic.is_symmetric_sampled(seed=seed, samples=samples)
    table: PartialAdditionTable = table_or_symbolic
    _require_pea(table)
    comp_witness = None
    for a in table.elements:
        minus, tilde = complements(table, a)
        if minus != tilde:
            comp_witness = (a, minus, tilde)
            break
    cond_c_witness = _noncommuting_pair(table)
    if (comp_witness is None) != (cond_c_witness is None):
        raise InconsistencyError(
            "symmetry criteria disagree: complements %r vs condition (C) %r"
            % (comp_witness, cond_c_witness)
        )
    if comp_witness is None:
        return SymmetryReport(symmetric=True, witness=None)
    return SymmetryReport(symmetric=False, witness=comp_witness)


@derived
def isotropic_data(
    table: PartialAdditionTable,
) -> Tuple[Dict[str, ElementInfo], FrozenSet[str]]:
    """Isotropic index of every element plus Infinit(E) = those of infinite index.

    The iteration is capped at |E|+1; reaching the cap in a finite table
    would contradict strict growth of multiples and raises an inconsistency.
    """
    _require_gpea(table)
    t = table._sums
    z = table.zero_i
    unital = table.one is not None and check_axioms(table, "pea").passed
    info: Dict[str, ElementInfo] = {}
    infinite = []
    for i, a in enumerate(table.elements):
        if unital:
            minus, tilde = complements(table, a)
        else:
            minus = tilde = None
        if i == z:
            info[a] = ElementInfo(a, minus, tilde, None)
            infinite.append(a)
            continue
        m, count = i, 1
        while t[m][i] is not None:
            m = t[m][i]
            count += 1
            if count > table.size + 1:
                raise InconsistencyError("isotropic index iteration exceeded cap at %r" % (a,))
        info[a] = ElementInfo(a, minus, tilde, count)
    return info, frozenset(infinite)


def difference(table: PartialAdditionTable, a: str, b: str, side: str = "left") -> str:
    """The difference of b by a: left gives b\\a (with (b\\a)+a = b), right
    gives a/b (with a+(a/b) = b).  Undefined unless a <= b."""
    _require_gpea(table)
    order = induced_order(table)
    if not order.le(a, b):
        raise DifferenceUndefinedError("difference requires %r <= %r" % (a, b))
    ldiff, rdiff = _differences(table)
    i, j = table.index(a), table.index(b)
    if side == "left":
        return table.elements[ldiff[j][i]]
    if side == "right":
        return table.elements[rdiff[i][j]]
    raise InputError("side must be 'left' or 'right', got %r" % (side,))


# -- document serialization ---------------------------------------------


def table_to_document(table: PartialAdditionTable) -> dict:
    doc = {
        "elements": list(table.elements),
        "zero": table.zero,
        "add": sorted([a, b, c] for a, b, c in (
            (table.elements[i], table.elements[j], table.elements[s])
            for i, j, s in table.defined_sums()
        )),
    }
    if table.one is not None:
        doc["one"] = table.one
    return doc


def table_from_document(doc: dict) -> PartialAdditionTable:
    if not isinstance(doc, dict):
        raise InputError("algebra document must be a JSON object")
    for key in ("elements", "zero", "add"):
        if key not in doc:
            raise InputError("algebra document missing %r" % (key,))
    elements, zero, one, add = doc["elements"], doc["zero"], doc.get("one"), doc["add"]
    if not (isinstance(elements, (list, tuple)) and all(isinstance(e, str) for e in elements)):
        raise InputError("elements must be a list of strings, got %r" % (elements,))
    if not (isinstance(zero, str) and (one is None or isinstance(one, str))):
        raise InputError("zero and one must be strings, got %r and %r" % (zero, one))
    if not isinstance(add, (list, tuple)):
        raise InputError("add must be a list of [a, b, c] triples, got %r" % (add,))
    sums = {}
    for entry in add:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3
                and all(isinstance(x, str) for x in entry)):
            raise InputError("add entries must be [a, b, c] string triples, got %r" % (entry,))
        a, b, c = entry
        if (a, b) in sums and sums[(a, b)] != c:
            raise InputError("conflicting add entries for (%r, %r)" % (a, b))
        sums[(a, b)] = c
    return PartialAdditionTable(elements, zero, one, sums)


def dumps_document(doc: dict) -> str:
    """Canonical byte-stable rendering (sorted keys, sorted triples)."""
    doc = dict(doc)
    if "add" in doc:
        doc["add"] = sorted(list(t) for t in doc["add"])
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def read_table(path: str) -> Tuple[PartialAdditionTable, bytes]:
    """The table in the UTF-8 JSON document at ``path``, read once, and the
    bytes it was parsed from."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError("cannot read %r: %s" % (path, exc)) from None
    try:
        table = table_from_document(json.loads(raw.decode("utf-8")))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError("cannot parse %r: %s" % (path, exc)) from None
    except RecursionError:
        raise InputError("cannot parse %r: nested too deeply" % (path,)) from None
    return table, raw


def load_table(path: str) -> PartialAdditionTable:
    """The table in the UTF-8 JSON document at ``path``."""
    return read_table(path)[0]
