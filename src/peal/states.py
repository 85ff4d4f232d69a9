"""Exact state-space computation on finite PEAs.

States are rational-valued additive morphisms into [0,1].  A state, and
every point of the state polytope, is held as a tuple of ``int`` numerators
over one positive common denominator, reduced by their gcd; only the public
API (``StateVector.values``, ``__call__``, ``StateSpace``, the witness of a
non-extremal state) speaks ``fractions.Fraction``.  Integers are only ever
multiplied, added and compared, never divided with ``/``, so no float is
ever formed.  The additivity equations are solved by fraction-free
Gauss-Jordan elimination on sparse ``int`` rows ``{column: nonzero int}``
(each equation has at most three nonzeros, and equal equations are kept
once); Fractions are formed only for the public ``particular`` and
``basis``, by dividing each reduced row by its pivot entry.

The state polytope is separable.  Two free coordinates are linked when one
box constraint 0 <= s(e) <= 1 involves both, and the polytope is the product
of the polytopes of the linked blocks (Ziegler, *Lectures on Polytopes*,
1995).  Each block's vertices are enumerated by an incremental double
description sweep on integer-scaled constraint rows in which every vertex
carries its tight constraints as an ``int`` bitmask (Fukuda & Prodon,
"Double description method revisited", 1996); the extremal states are the
tuples of block vertices, built straight from integer numerators.
``MAX_FREE_PARAMETERS`` bounds the total number of free coordinates, not
each block's, since a product of d segments already has 2^d vertices.

A state is extremal exactly when the box rows it makes tight (an element
valued 0 or 1 makes its row tight) have full rank.  ``is_extremal`` decides
that on integers, apart from the sweep: unit rows of free coordinates settle
most coordinates at once and the same fraction-free elimination the rest.
Only a state below full rank goes on to Fractions, to build its witness
from an integer null-space direction of its tight rows.

Discrete states are found by the integer-labeling search suggested by the
decomposition characterization, never by rounding: the middle elements
split into the blocks that defined sums link, each block is searched on its
own, and the block labelings are combined under global surjectivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from .core import (
    InconsistencyError,
    InputError,
    PartialAdditionTable,
    PreconditionError,
    _bits,
    _nonadditive,
    _require_pea,
    derived,
)

MAX_FREE_PARAMETERS = 12

ZERO = Fraction(0)
ONE = Fraction(1)


def _range_check(e: str, num: int, den: int) -> None:
    if num < 0 or num > den:
        raise InputError(
            "state value %s for %r outside [0,1]" % (Fraction(num, den), e)
        )


def _fraction_string(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` without building the Fraction."""
    g = math.gcd(num, den)
    return str(num // g) if den == g else "%d/%d" % (num // g, den // g)


class StateVector:
    """An exact state: element -> rational in [0,1], additive on defined sums.

    The values are held as integer numerators (in table element order) over
    one common denominator, reduced so that the pair is unique to the state.
    The invariants are re-checked at construction, so every StateVector in
    circulation is a genuine state of its table.
    """

    __slots__ = ("table", "_num", "_den", "_values")

    def __init__(self, table: PartialAdditionTable, values: Dict[str, Fraction]):
        nums, dens = [], []
        for e in table.elements:
            if e not in values:
                raise InputError("state is missing a value for %r" % (e,))
            v = Fraction(values[e])
            _range_check(e, v.numerator, v.denominator)
            nums.append(v.numerator)
            dens.append(v.denominator)
        den = math.lcm(*dens)
        self._adopt(table, [x * (den // d) for x, d in zip(nums, dens)], den)

    @classmethod
    def _from_ints(cls, table: PartialAdditionTable, num: Sequence[int], den: int) -> "StateVector":
        """The state with value ``num[i] / den`` at element i (``den`` > 0),
        checked exactly as the constructor checks a mapping."""
        if min(num) < 0 or max(num) > den:
            for e, x in zip(table.elements, num):
                _range_check(e, x, den)
        self = cls.__new__(cls)
        self._adopt(table, num, den)
        return self

    def _adopt(self, table: PartialAdditionTable, num: Sequence[int], den: int) -> None:
        """Check zero, one and additivity on in-range numerators, then store
        them reduced by their gcd with ``den``."""
        if num[table.zero_i] != 0:
            raise InputError("state must send zero to 0")
        if table.one is not None and num[table.one_i] != den:
            raise InputError("state must send one to 1")
        bad = _nonadditive(table, num)
        if bad is not None:
            raise InputError(
                "state not additive at %r + %r = %r" % tuple(table.elements[x] for x in bad)
            )
        g = math.gcd(den, *num)
        self.table = table
        self._num = tuple(x // g for x in num) if g > 1 else tuple(num)
        self._den = den // g
        self._values = None

    @property
    def values(self) -> Dict[str, Fraction]:
        if self._values is None:
            self._values = {
                e: Fraction(x, self._den) for e, x in zip(self.table.elements, self._num)
            }
        return self._values

    def __call__(self, a: str) -> Fraction:
        return self.values[a]

    def __eq__(self, other):
        return (
            isinstance(other, StateVector)
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        return hash((self._den, self._num))

    def __repr__(self):
        return "StateVector({%s})" % ", ".join(
            "%s: %s" % (e, v) for e, v in self.values.items()
        )

    def image(self) -> List[Fraction]:
        return [Fraction(x, self._den) for x in sorted(set(self._num))]

    def as_strings(self) -> Dict[str, str]:
        text = {x: _fraction_string(x, self._den) for x in set(self._num)}
        return dict(zip(self.table.elements, map(text.__getitem__, self._num)))


@dataclass(frozen=True)
class StateSpace:
    """Affine parametrization of the additivity system plus the polytope's vertices.

    ``particular`` and ``basis`` describe all solutions of the linear system
    (ignoring the [0,1] box), solved as one system; ``extremal_states`` are
    the vertices of the polytope cut out by the box, in increasing order of
    their value tuples.  The vertices are found block by block: the polytope
    is the product of the polytopes of the linked blocks of free
    coordinates, and each vertex is a tuple of block vertices.
    ``consistent`` is False when the equations alone are already unsolvable.
    """

    table: PartialAdditionTable
    consistent: bool
    particular: Optional[Dict[str, Fraction]]
    basis: Tuple[Dict[str, Fraction], ...]
    free_elements: Tuple[str, ...]
    extremal_states: Tuple[StateVector, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


# -- exact sparse linear algebra -------------------------------------------
#
# A row is a dict {column: nonzero int}; a system over ncols unknowns keeps
# its right-hand side at column ncols.  Elimination is fraction-free, so the
# rows stay integers; the public ``particular`` and ``basis`` divide by the
# pivot entries at the very end.

Row = Dict[int, int]


def _dot(row: Row, point: Sequence[Union[int, Fraction]]) -> Union[int, Fraction]:
    return sum(v * point[c] for c, v in row.items())


def _eliminate(rows: Iterable[Row], ncols: int) -> Tuple[List[Row], List[int], bool]:
    """Fraction-free Gauss-Jordan elimination, column by column, on sparse
    integer rows (Bareiss, "Sylvester's identity and multistep
    integer-preserving Gaussian elimination", 1968).

    A pivot, the shortest row holding its column, clears that column from
    every other row by cross-multiplication, and each row is divided by the
    gcd of its entries.  Returns the nonzero rows in pivot order, each the
    primitive positive multiple of its row of the reduced row echelon form,
    their pivot columns, and whether the system is consistent (no row
    reduces to 0 = nonzero).  The reduced form is unique, so the result of a
    consistent system does not depend on the order of ``rows``, which are
    not modified; no pivot is taken on the right-hand side, so that of an
    inconsistent one may.
    """
    # a pending row holds no column left of the current one, so it waits
    # under its first column; rows with only a right-hand side wait at ncols
    pending: List[List[Row]] = [[] for _ in range(ncols + 1)]
    for r in map(dict, rows):
        if r:
            pending[min(r)].append(r)
    done: List[Row] = []
    pivots: List[int] = []
    for col in range(ncols):
        hit = pending[col]
        if not hit:
            continue
        at = min(range(len(hit)), key=lambda i: len(hit[i]))
        g = math.gcd(*hit[at].values()) * (1 if hit[at][col] > 0 else -1)
        pivot = {c: v // g for c, v in hit.pop(at).items()}
        a = pivot[col]
        for row in [row for row in done if col in row] + hit:
            # row := a * row - f * pivot, which clears col; zeros leave the row
            f = row.pop(col)
            if a != 1:
                for c in row:
                    row[c] *= a
            for c, v in pivot.items():
                if c != col:
                    x = row.get(c, 0) - f * v
                    if x:
                        row[c] = x
                    else:
                        del row[c]
            g = math.gcd(*row.values())
            if g > 1:
                for c in row:
                    row[c] //= g
        for row in hit:
            if row:
                pending[min(row)].append(row)
        done.append(pivot)
        pivots.append(col)
    return done, pivots, not pending[ncols]


def _nullspace_vector(rows: List[Row], dim: int) -> Optional[Tuple[int, ...]]:
    """Some nonzero integer vector orthogonal to all rows, or None if rank
    is full: the first free column's null-space basis vector of the reduced
    form, scaled by a positive integer to clear its denominators."""
    red, pivots, _ = _eliminate(rows, dim)
    free = [c for c in range(dim) if c not in pivots]
    if not free:
        return None
    j = free[0]
    scale = math.lcm(*(row[col] for row, col in zip(red, pivots) if j in row))
    vec = {j: scale}
    for row, col in zip(red, pivots):
        vec[col] = -row.get(j, 0) * (scale // row[col])
    return tuple(vec.get(c, 0) for c in range(dim))


# -- double description vertex sweep --------------------------------------


def _dd_points(
    rows: List[Tuple[Row, int]], dim: int
) -> List[Tuple[Tuple[int, ...], int]]:
    """Vertices of {t : a.t <= b for all integer rows (a, b)} as points
    (numerators, denominator) reduced by their gcd, so equal points are equal
    tuples; the first 2*dim rows must be the unit box 0 <= t_i <= 1 (so the
    region is bounded).  The points come in no particular order."""
    # (point, its tight set among the rows swept so far as a bitmask)
    verts: List[Tuple[Tuple[Tuple[int, ...], int], int]] = [
        ((tuple(mask >> i & 1 for i in range(dim)), 1),
         sum(1 << (2 * i + (mask >> i & 1)) for i in range(dim)))
        for mask in range(1 << dim)
    ]
    for ci in range(2 * dim, len(rows)):
        a, b = rows[ci]
        bit = 1 << ci
        # slack b - a.v, times the point's denominator
        slacks = [b * den - _dot(a, num) for (num, den), _ in verts]
        keep = [
            (v, tight | bit if slack == 0 else tight)
            for (v, tight), slack in zip(verts, slacks)
            if slack >= 0
        ]
        outside = [j for j, slack in enumerate(slacks) if slack < 0]
        tights = [tight for _, tight in verts]
        new_pts = set()
        for i, (((un, ud), tu), su) in enumerate(zip(verts, slacks)):
            if su <= 0:
                continue
            for j in outside:
                common = tu & tights[j]
                if common.bit_count() < dim - 1:
                    continue
                # combinatorial adjacency: no third vertex is tight on
                # everything u and w share
                if any(
                    not common & ~tight and m != i and m != j
                    for m, tight in enumerate(tights)
                ):
                    continue
                # the point of segment uw on a.t = b
                (wn, wd), _ = verts[j]
                wx = -slacks[j]
                num = [wx * x + su * y for x, y in zip(un, wn)]
                den = wx * ud + su * wd
                g = math.gcd(den, *num)
                new_pts.add((tuple(x // g for x in num), den // g))
        if new_pts:
            new_pts -= {v for v, _ in keep}
        # a degenerate point may be tight on more than its parents share
        keep.extend(
            (p, sum(
                1 << cj for cj in range(ci + 1)
                if _dot(rows[cj][0], p[0]) == rows[cj][1] * p[1]
            ))
            for p in new_pts
        )
        verts = keep
        if not verts:
            return []
    return [v for v, _ in verts]


def _split(links: Iterable[int]) -> List[int]:
    """The connected components of a family of index sets (bitmasks): two
    indices share a component when a chain of overlapping sets joins them.
    Components come back ordered by their lowest index."""
    blocks: List[int] = []
    for mask in links:
        if not mask:
            continue
        for block in [b for b in blocks if b & mask]:
            blocks.remove(block)
            mask |= block
        blocks.append(mask)
    return sorted(blocks, key=lambda b: b & -b)


@derived
def _state_system(table: PartialAdditionTable):
    """RREF data for the additivity equations: returns (particular, basis,
    free elements, consistent) with values per element."""
    k = table.size
    els = table.elements
    rows = {((table.zero_i, 1),): None, ((table.one_i, 1), (k, 1)): None}
    for i, j, s in table.defined_sums():
        # s(a) + s(b) - s(a + b) = 0, kept once for a + b and b + a and for
        # every 0 + a; single entries cancel (0 + a = a), never a whole row
        row = {c: (c == i) + (c == j) - (c == s) for c in sorted({i, j, s})}
        rows[tuple((c, v) for c, v in row.items() if v)] = None
    red, pivots, consistent = _eliminate(map(dict, rows), k)
    if not consistent:
        return None, (), (), False
    pivot_set = set(pivots)
    free_cols = [c for c in range(k) if c not in pivot_set]
    particular = {els[c]: ZERO for c in free_cols}
    for row, col in zip(red, pivots):
        particular[els[col]] = Fraction(row.get(k, 0), row[col])
    basis = []
    for f in free_cols:
        vec = {els[c]: ZERO for c in range(k)}
        vec[els[f]] = ONE
        for row, col in zip(red, pivots):
            vec[els[col]] = Fraction(-row.get(f, 0), row[col])
        basis.append(vec)
    return particular, tuple(basis), tuple(els[f] for f in free_cols), True


@derived
def _affine_map(table: PartialAdditionTable):
    """The parametrization of a consistent additivity system on integers:
    ``(p, cols, m)`` with s(e_i) = (p[i] + sum of c * t_j over (i, c) in
    cols[j]) / m at free coordinates t; ``cols[j]`` lists the nonzero
    coefficients of coordinate j in element order."""
    particular, basis, _, _ = _state_system(table)
    m = math.lcm(
        *(v.denominator for v in particular.values()),
        *(v.denominator for vec in basis for v in vec.values()),
    )
    p = tuple(particular[e].numerator * (m // particular[e].denominator)
              for e in table.elements)
    cols = tuple(
        tuple((i, vec[e].numerator * (m // vec[e].denominator))
              for i, e in enumerate(table.elements) if vec[e])
        for vec in basis
    )
    return p, cols, m


@derived
def _coefficient_rows(table: PartialAdditionTable) -> Tuple[Tuple[int, int, Dict[int, int]], ...]:
    """The elements whose value moves with the free coordinates, in element
    order: (element index, its free coordinate or -1, its row {coordinate:
    coefficient}) with s(e_i) = (p[i] + row . t) / m in ``_affine_map``."""
    _, cols, _ = _affine_map(table)
    coordinate = {table.index(e): j for j, e in enumerate(_state_system(table)[2])}
    rows: Dict[int, Dict[int, int]] = {}
    for j, col in enumerate(cols):
        for i, c in col:
            rows.setdefault(i, {})[j] = c
    return tuple((i, coordinate.get(i, -1), rows[i]) for i in sorted(rows))


@derived
def _box_constraints(table: PartialAdditionTable) -> List[Tuple[Row, int]]:
    """Inequalities 0 <= s(e) <= 1 in the free coordinates of a consistent
    additivity system, unit box first, as integer rows."""
    p, cols, m = _affine_map(table)
    rows = {i: (j, row) for i, j, row in _coefficient_rows(table)}
    constraints: List[Tuple[Row, int]] = []
    for j in range(len(cols)):
        constraints.append(({j: -1}, 0))
        constraints.append(({j: 1}, 1))
    for i, pe in enumerate(p):
        coordinate, coeffs = rows.get(i, (-1, None))
        if coordinate >= 0:
            # a free element's box is the unit box above
            continue
        if not coeffs:
            if pe < 0 or pe > m:
                # forced value outside the box: encode as infeasible
                constraints.append(({}, -1))
            continue
        constraints.append(({j: -c for j, c in coeffs.items()}, pe))
        constraints.append((coeffs, m - pe))
    return constraints


@derived
def _polytope_blocks(table: PartialAdditionTable):
    """The box constraints split into blocks of linked free coordinates, or
    None when a forced value lies outside [0,1].

    A block is (dimension, rows, elements): its rows in local coordinates
    (numbered in increasing global order), unit box first, and per element
    whose value depends on the block, (element index, ((local coordinate,
    coefficient), ...))."""
    constraints = _box_constraints(table)
    if any(not a for a, _ in constraints):
        return None
    blocks = []
    for block in _split(sum(1 << j for j in a) for a, _ in constraints):
        local = {j: x for x, j in enumerate(_bits(block))}
        rows = [({local[j]: c for j, c in a.items()}, b)
                for a, b in constraints if block >> next(iter(a)) & 1]
        elements = tuple((i, tuple((local[j], c) for j, c in row.items()))
                         for i, _, row in _coefficient_rows(table)
                         if block >> next(iter(row)) & 1)
        blocks.append((len(local), rows, elements))
    return blocks


def _block_values(p: Sequence[int], block) -> List[Tuple[int, Tuple[Tuple[int, int], ...]]]:
    """Per vertex of one block: (its denominator den, ((i, numerator), ...))
    with s(e_i) = numerator / (m * den) on the block's elements."""
    dim, rows, elements = block
    return [
        (den, tuple((i, p[i] * den + sum(c * num[x] for x, c in terms))
                    for i, terms in elements))
        for num, den in _dd_points(rows, dim)
    ]


def _state_at(table: PartialAdditionTable, t: Sequence[Fraction]) -> StateVector:
    """The state at free coordinates ``t`` of the affine parametrization;
    zero coordinates are skipped, as the map is sparse."""
    p, cols, m = _affine_map(table)
    den = math.lcm(*(x.denominator for x in t))
    num = [pe * den for pe in p]
    for col, x in zip(cols, t):
        if x:
            step = x.numerator * (den // x.denominator)
            for i, c in col:
                num[i] += c * step
    return StateVector._from_ints(table, num, m * den)


@derived
def solve_state_space(table: PartialAdditionTable) -> StateSpace:
    """Solve the additivity system exactly and enumerate the extremal states.

    The vertices are the products of the vertices of the blocks of linked
    free coordinates, each block swept on its own.  Refuses tables whose
    solution space has more than MAX_FREE_PARAMETERS free parameters in
    total (exactness over scalability).  An empty polytope is a legitimate
    outcome: stateless PEAs exist.
    """
    _require_pea(table)
    particular, basis, free_els, consistent = _state_system(table)
    if not consistent:
        return StateSpace(table, False, None, (), (), ())
    d = len(free_els)
    if d > MAX_FREE_PARAMETERS:
        raise PreconditionError(
            "state space has %d free parameters; refusing beyond %d"
            % (d, MAX_FREE_PARAMETERS)
        )
    p, _, m = _affine_map(table)
    blocks = _polytope_blocks(table)
    extremals = []
    if blocks is not None:
        factors = [_block_values(p, block) for block in blocks]
        # one vertex per tuple of block vertices, over their common denominator
        for combo in product(*factors):
            den = math.lcm(*(bd for bd, _ in combo))
            num = [x * den for x in p]
            for bd, values in combo:
                scale = den // bd
                for i, x in values:
                    num[i] = x * scale
            extremals.append(StateVector._from_ints(table, num, m * den))
    # order by value tuple: numerators over one denominator common to all
    den = math.lcm(*(s._den for s in extremals))
    extremals.sort(key=lambda s: tuple(x * (den // s._den) for x in s._num))
    return StateSpace(
        table,
        True,
        dict(particular),
        tuple(dict(b) for b in basis),
        free_els,
        tuple(extremals),
    )


# -- discrete states ------------------------------------------------------


def discrete_labelings(table: PartialAdditionTable, n: int) -> List[Tuple[int, ...]]:
    """All surjective labelings l : E -> {0..n} with l(0)=0, l(1)=n and
    l(a)+l(b) = l(a+b) on defined sums, in lexicographic order.

    This is the shared search engine behind discrete states and
    n-decompositions.  The search runs once per table and n; each call
    returns a fresh list.  With more labels than elements (n + 1 > |E|)
    none is surjective, and the answer is empty at once.
    """
    if n < 1:
        raise InputError("n must be a positive integer, got %r" % (n,))
    _require_pea(table)
    if n + 1 > table.size:
        return []
    return list(_labelings(table, n))


@derived
def _labelings(table: PartialAdditionTable, n: int) -> Tuple[Tuple[int, ...], ...]:
    """The labelings of ``discrete_labelings``, found block by block.

    Defined sums link the middle elements (all but 0 and 1) into blocks
    that share no equation.  Each block's additive labelings into {0..n},
    not necessarily onto, are grouped by the set of labels they use (a
    bitmask); a labeling of E is one labeling per block, and it is
    surjective when those sets and {0, n} cover {0..n}."""
    k = table.size
    labels = [-1] * k
    labels[table.zero_i] = 0
    labels[table.one_i] = n
    middle = (1 << k) - 1 & ~(1 << table.zero_i | 1 << table.one_i)
    links = [1 << e for e in _bits(middle)]
    incident: List[List[Tuple[int, int, int]]] = [[] for _ in range(k)]
    for i, j, s in table.defined_sums():
        for e in {i, j, s}:
            incident[e].append((i, j, s))
        links.append((1 << i | 1 << j | 1 << s) & middle)
    blocks = [tuple(_bits(b)) for b in _split(links)]

    def local_ok(e: int) -> bool:
        for i, j, s in incident[e]:
            li, lj, ls = labels[i], labels[j], labels[s]
            if li >= 0 and lj >= 0:
                if li + lj > n:
                    return False
                if ls >= 0 and li + lj != ls:
                    return False
            elif ls >= 0:
                if li >= 0 and ls < li:
                    return False
                if lj >= 0 and ls < lj:
                    return False
        return True

    # how many placed elements carry each label (0 and 1 are placed)
    count = [0] * (n + 1)
    count[0] += 1
    count[n] += 1

    def search(block: Tuple[int, ...], spare: int) -> Dict[int, List[Tuple[int, ...]]]:
        """The labelings of ``block`` by label set.  A branch is cut when
        more labels are missing than elements are left to place, here and
        in the ``spare`` elements of the other blocks."""
        found: Dict[int, List[Tuple[int, ...]]] = {}
        missing = count.count(0)

        def rec(pos: int) -> None:
            nonlocal missing
            if pos == len(block):
                vals = tuple(labels[e] for e in block)
                used = 0
                for v in vals:
                    used |= 1 << v
                found.setdefault(used, []).append(vals)
                return
            if missing > len(block) - pos + spare:
                return
            e = block[pos]
            for v in range(n + 1):
                labels[e] = v
                if local_ok(e):
                    count[v] += 1
                    missing -= count[v] == 1
                    rec(pos + 1)
                    count[v] -= 1
                    missing += count[v] == 0
            labels[e] = -1

        rec(0)
        return found

    groups = []
    for block in blocks:
        found = search(block, middle.bit_count() - len(block))
        if not found:
            return ()
        groups.append(found)
    # reach[b], room[b]: the labels blocks b.. can use, and at most how many
    full = (1 << n + 1) - 1
    reach = [0] * (len(groups) + 1)
    room = [0] * (len(groups) + 1)
    for b in reversed(range(len(groups))):
        reach[b] = reach[b + 1]
        for used in groups[b]:
            reach[b] |= used
        room[b] = room[b + 1] + max(used.bit_count() for used in groups[b])
    out: List[Tuple[int, ...]] = []
    picked: List[int] = []

    def combine(b: int, have: int) -> None:
        missing = full & ~have
        if missing & ~reach[b] or missing.bit_count() > room[b]:
            return
        if b == len(groups):
            for parts in product(*(g[used] for g, used in zip(groups, picked))):
                for block, vals in zip(blocks, parts):
                    for e, v in zip(block, vals):
                        labels[e] = v
                out.append(tuple(labels))
            return
        for used in groups[b]:
            picked.append(used)
            combine(b + 1, have | used)
            picked.pop()

    combine(0, 1 | 1 << n)
    return tuple(sorted(out))


def enumerate_discrete_states(table: PartialAdditionTable, n: int) -> List[StateVector]:
    """All (n+1)-valued discrete states, via the integer-labeling search."""
    return [StateVector._from_ints(table, labels, n) for labels in discrete_labelings(table, n)]


# -- classification and extremality ---------------------------------------


@dataclass(frozen=True)
class StateClassification:
    discrete: bool
    n: Optional[int]
    image: Tuple[Fraction, ...]
    condition_ii: bool
    condition_iii: bool
    gap_witness: Optional[Tuple[Fraction, Fraction, Fraction]]


def _as_state(table: PartialAdditionTable, s) -> StateVector:
    """``s`` as a StateVector of ``table``, rebuilt (and so checked) when it
    is a mapping or a state of another table."""
    if isinstance(s, StateVector) and s.table is table:
        return s
    return StateVector(table, s.values if isinstance(s, StateVector) else s)


def classify_state(table: PartialAdditionTable, s: StateVector) -> StateClassification:
    """Decide discreteness of a state by its image, checking that the three
    equivalent criteria (uniform image, sub-effect-algebra image, difference
    closure) agree on this instance.

    The criteria are decided on the image's integer numerators over the
    state's one denominator; Fractions are formed only for the result."""
    s = _as_state(table, s)
    den = s._den
    img = sorted(set(s._num))
    n = len(img) - 1
    if n < 1:
        raise InputError("state image must contain 0 and 1")
    img_set = set(img)
    # (iii): differences of comparable image values stay in the image
    gap = next(((t, u, u - t) for t in img for u in img
                if t <= u and u - t not in img_set), None)
    cond_iii = gap is None
    # (ii): the image is a sub-effect algebra of [0,1]
    cond_ii = all(den - v in img_set for v in img) and all(
        u + v in img_set for u in img for v in img if u + v <= den
    )
    uniform = all(x * n == i * den for i, x in enumerate(img))
    image = tuple(Fraction(x, den) for x in img)
    if not (cond_ii == cond_iii == uniform):
        raise InconsistencyError(
            "discreteness criteria disagree on image %r" % (list(image),)
        )
    return StateClassification(
        discrete=uniform,
        n=n if uniform else None,
        image=image,
        condition_ii=cond_ii,
        condition_iii=cond_iii,
        gap_witness=None if gap is None else tuple(Fraction(x, den) for x in gap),
    )


@dataclass(frozen=True)
class ExtremalityReport:
    extremal: bool
    witness: Optional[Tuple[StateVector, StateVector]]


def _tight_rank_full(table: PartialAdditionTable, s: StateVector) -> bool:
    """Whether the box rows tight at ``s`` have rank d, read from the
    state's values alone: an element valued 0 or 1 makes its row tight.
    A tight free element is a unit row and settles its coordinate; the
    tight rows of the other elements, on the unsettled coordinates, go
    through the fraction-free elimination."""
    num, den = s._num, s._den
    settled = 0
    rest = []
    for i, coordinate, row in _coefficient_rows(table):
        if num[i] == 0 or num[i] == den:
            if coordinate >= 0:
                settled |= 1 << coordinate
            else:
                rest.append(row)
    d = len(_affine_map(table)[1])
    unsettled = (1 << d) - 1 & ~settled
    if not unsettled:
        return True
    rest = [{j: c for j, c in row.items() if unsettled >> j & 1} for row in rest]
    return len(_eliminate(rest, d)[1]) == unsettled.bit_count()


def is_extremal(table: PartialAdditionTable, s: StateVector) -> ExtremalityReport:
    """Vertex test on the state polytope; a non-extremal state comes back
    with states s1 != s2 such that s = (s1 + s2) / 2.

    The verdict is an integer certificate independent of the vertex sweep:
    ``s`` is a vertex exactly when the box rows it makes tight have full
    rank.  Below full rank a Fraction null-space direction of those rows,
    cut at the nearest box face, builds the witness."""
    s = _as_state(table, s)
    space = solve_state_space(table)
    if not space.consistent:
        raise InconsistencyError("valid state supplied for an inconsistent system")
    d = space.dimension
    if d == 0 or _tight_rank_full(table, s):
        return ExtremalityReport(True, None)
    # the state's free coordinates are its numerators there, over s._den
    t0 = [s._num[table.index(e)] for e in space.free_elements]
    constraints = _box_constraints(table)
    tight = [a for a, b in constraints if _dot(a, t0) == b * s._den]
    direction = _nullspace_vector(tight, d)
    if direction is None or not any(direction) or any(_dot(a, direction) for a in tight):
        raise InconsistencyError("witness direction is not a nonzero null vector of the tight rows")
    t0 = [Fraction(x, s._den) for x in t0]
    lam_pos = lam_neg = None
    for a, b in constraints:
        av = _dot(a, direction)
        slack = b - _dot(a, t0)
        if av > 0:
            bound = slack / av
            lam_pos = bound if lam_pos is None else min(lam_pos, bound)
        elif av < 0:
            bound = slack / -av
            lam_neg = bound if lam_neg is None else min(lam_neg, bound)
    if lam_pos is None or lam_neg is None or lam_pos == 0 or lam_neg == 0:
        raise InconsistencyError("interior direction with no room to move")
    eps = min(lam_pos, lam_neg)
    s1 = _state_at(table, [x + eps * w for x, w in zip(t0, direction)])
    s2 = _state_at(table, [x - eps * w for x, w in zip(t0, direction)])
    if s1 == s2:
        raise InconsistencyError("witness states collapsed")
    return ExtremalityReport(False, (s1, s2))


def kernel(table: PartialAdditionTable, s: StateVector) -> FrozenSet[str]:
    """Ker(s) = {x : s(x) = 0}; certified to be a normal ideal."""
    s = _as_state(table, s)
    ker = frozenset(e for e, x in zip(table.elements, s._num) if x == 0)
    from . import ideals

    ok, witness = ideals.is_ideal(table, ker)
    if not ok:
        raise InconsistencyError("kernel is not an ideal: %r" % (witness,))
    ok, witness = ideals.is_normal(table, ker)
    if not ok:
        raise InconsistencyError("kernel is not normal: %r" % (witness,))
    return ker
