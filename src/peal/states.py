"""Exact state-space computation on finite PEAs.

States are rational-valued additive morphisms into [0,1].  A state, and
every point of the state polytope, is held as a tuple of ``int`` numerators
over one positive common denominator, reduced by their gcd; only the public
API (``StateVector.values``, ``__call__``, ``StateSpace``, the witness of a
non-extremal state) speaks ``fractions.Fraction``.  Integers are only ever
multiplied, added and compared, never divided with ``/``, so no float is
ever formed.  The additivity equations (``core._equations``, the one list
that the labeling search and the ideal lattice read too) are solved by
fraction-free Gauss-Jordan elimination on sparse ``int`` rows ``{column:
nonzero int}`` of at most three nonzeros, and the affine map from free
coordinates to states is read off the reduced rows as ``int`` numerators
over one common denominator, one coefficient row per element.  Fractions
appear only in the public ``particular`` and ``basis``, in ``StateVector``
views and in the witness of a non-extremal state.

The state polytope is separable.  Two free coordinates are linked when one
box constraint 0 <= s(e) <= 1 involves both, and the polytope is the product
of the polytopes of the linked blocks (Ziegler, *Lectures on Polytopes*,
1995); ``_split`` finds them as it finds the label blocks of the discrete
states below, and each lies inside one label block, since elements of
different label blocks share no equation.  Each block's vertices are
enumerated by an incremental double description sweep on integer-scaled
constraint rows in which every vertex carries its tight constraints as an
``int`` bitmask (Fukuda & Prodon, "Double description method revisited",
1996); the extremal states are the tuples of block vertices, built straight
from integer numerators.  Each block vertex is certified once: additive in
one product (the products are additive exactly when the star of products
around the first one is, since additivity is linear), and of full tight rank
within its block, so no product is checked again.  ``MAX_VERTICES`` meters
the 2^d corners a block's sweep starts from, its vertices after each row,
and the product of the block vertex counts before any product is built.

A state is extremal exactly when the box rows it makes tight (an element
valued 0 or 1 makes its row tight) have full rank.  ``is_extremal`` decides
that on integers, apart from the sweep: unit rows of free coordinates settle
most coordinates at once and the same fraction-free elimination the rest.
Only a state below full rank goes on to Fractions, to build its witness
from an integer null-space direction of its tight rows.

Discrete states are found by the integer-labeling search suggested by the
decomposition characterization, never by rounding: the middle elements
split into the blocks that defined sums link, each block is searched on its
own, and the block labelings are certified once each and combined under
global surjectivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, product, starmap
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from .core import (
    InconsistencyError,
    InputError,
    PartialAdditionTable,
    PreconditionError,
    _bits,
    _equations,
    _nonadditive,
    _picker,
    _require_pea,
    derived,
)

MAX_VERTICES = 1 << 16

ZERO = Fraction(0)


def _range_check(e: str, num: int, den: int) -> None:
    if num < 0 or num > den:
        raise InputError(
            "state value %s for %r outside [0,1]" % (Fraction(num, den), e)
        )


def _require_additive(table: PartialAdditionTable, num: Sequence[int]) -> None:
    bad = _nonadditive(table, num)
    if bad is not None:
        raise InputError(
            "state not additive at %r + %r = %r" % tuple(table.elements[x] for x in bad)
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
        num = [x * (den // d) for x, d in zip(nums, dens)]
        self._adopt(table, num, den)
        _require_additive(table, num)

    @classmethod
    def _from_ints(cls, table: PartialAdditionTable, num: Sequence[int], den: int) -> "StateVector":
        """The state with value ``num[i] / den`` at element i (``den`` > 0),
        checked exactly as the constructor checks a mapping."""
        self = cls._from_additive(table, num, den)
        _require_additive(table, num)
        return self

    @classmethod
    def _from_additive(cls, table: PartialAdditionTable, num: Sequence[int],
                       den: int) -> "StateVector":
        """The state of ``_from_ints`` for numerators that the caller has
        already found additive on every defined sum: the range, zero and one
        checks only."""
        if min(num) < 0 or max(num) > den:
            for e, x in zip(table.elements, num):
                _range_check(e, x, den)
        self = cls.__new__(cls)
        self._adopt(table, num, den)
        return self

    def _adopt(self, table: PartialAdditionTable, num: Sequence[int], den: int) -> None:
        """Check zero and one on in-range numerators, then store them reduced
        by their gcd with ``den``."""
        if num[table.zero_i] != 0:
            raise InputError("state must send zero to 0")
        if table.one is not None and num[table.one_i] != den:
            raise InputError("state must send one to 1")
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

    def as_ints(self) -> Tuple[Tuple[int, ...], int]:
        """(numerators in table element order, denominator), reduced."""
        return self._num, self._den


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
# rows stay integers, and so does the affine map read off them.

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


def _meter(count: int, what: str) -> None:
    """Refuse ``count`` vertices past ``MAX_VERTICES``."""
    if count > MAX_VERTICES:
        raise PreconditionError("%s %d vertices; refusing beyond %d" % (what, count, MAX_VERTICES))


def _dd_points(
    rows: List[Tuple[Row, int]], dim: int
) -> List[Tuple[Tuple[int, ...], int]]:
    """Vertices of {t : a.t <= b for all integer rows (a, b)} as points
    (numerators, denominator) reduced by their gcd, so equal points are equal
    tuples; the first 2*dim rows must be the unit box 0 <= t_i <= 1 (so the
    region is bounded).  The points come in no particular order.  The 2^dim
    corners it starts from and its vertices after each row are metered."""
    _meter(1 << dim, "vertex sweep starts at")
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
        _meter(len(verts), "vertex sweep holds")
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
def _affine_map(table: PartialAdditionTable):
    """The parametrization of the additivity system on integers, read off
    the reduced rows: ``(p, rows, m, free)``, or None when the system is
    inconsistent.  Coordinate j of t is free[j], an element whose column
    has no pivot.  ``rows`` pairs each element whose value moves with t, in
    element order, with its nonzero coefficients {coordinate: coefficient}
    in increasing coordinate order, so s(e_i) = (p[i] + row . t) / m, and
    s(e_i) = p[i] / m for an element not in ``rows``.  A free element's row
    is {its coordinate: m}.

    The system is s(0) = 0, s(1) = 1 and ``_equations``: a sum with a 0
    operand only repeats s(0) = 0, no sum of a PEA is its own operand, and
    the reduced form of a consistent system does not depend on the order
    of its rows.  The pivot row r of column c says r[c] s(e_c) + sum of
    r[f] t_f = r[k], so p[c] = r[k] (m / r[c]) and t_f moves e_c by -r[f]
    (m / r[c]).  Each row is primitive, so m, the lcm of the pivot entries,
    is the least common denominator of the values and coefficients."""
    k = table.size
    rows = [{table.zero_i: 1}, {table.one_i: 1, k: 1}]
    rows += ({i: 1, j: 1, s: -1} if i != j else {i: 2, s: -1}
             for i, j, s in _equations(table))
    red, pivots, consistent = _eliminate(rows, k)
    if not consistent:
        return None
    m = math.lcm(*(row[c] for row, c in zip(red, pivots)))
    p = [0] * k
    pivot_set = set(pivots)
    free = tuple(c for c in range(k) if c not in pivot_set)
    coordinate = {f: j for j, f in enumerate(free)}
    moving = {f: {j: m} for f, j in coordinate.items()}
    for row, c in zip(red, pivots):
        scale = m // row[c]
        p[c] = row.get(k, 0) * scale
        coeffs = {coordinate[f]: -v * scale for f, v in sorted(row.items()) if f in coordinate}
        if coeffs:
            moving[c] = coeffs
    return tuple(p), tuple(sorted(moving.items())), m, free


@derived
def _box_constraints(table: PartialAdditionTable) -> List[Tuple[Row, int]]:
    """Inequalities 0 <= s(e) <= 1 in the free coordinates of a consistent
    additivity system, unit box first, as integer rows."""
    p, rows, m, free = _affine_map(table)
    constraints: List[Tuple[Row, int]] = []
    for j in range(len(free)):
        constraints.append(({j: -1}, 0))
        constraints.append(({j: 1}, 1))
    coeffs_of = dict(rows)
    free_set = set(free)
    for i, pe in enumerate(p):
        if i in free_set:
            # a free element's box is the unit box above
            continue
        coeffs = coeffs_of.get(i)
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
                         for i, row in _affine_map(table)[1]
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
    """The state at free coordinates ``t`` of the affine parametrization."""
    p, rows, m, _ = _affine_map(table)
    den = math.lcm(*(x.denominator for x in t))
    step = [x.numerator * (den // x.denominator) for x in t]
    num = [pe * den for pe in p]
    for i, row in rows:
        num[i] += sum(c * step[j] for j, c in row.items())
    return StateVector._from_ints(table, num, m * den)


def _star_additive(table: PartialAdditionTable, getter, head: Tuple[int, ...],
                   factors: Sequence[Sequence[Tuple[int, ...]]]) -> bool:
    """Whether every product of the factors is additive on every defined
    sum, decided on the star of products around the first one.  A product
    takes one value tuple from each block's nonempty list in ``factors``,
    and its values in element order are ``getter(head + its tuples)``.

    The blocks hold disjoint sets of elements, and ``head`` the values of
    the elements outside every block.  Write A(x) for the defects
    x_i + x_j - x_s of the defined sums i + j = s; A is linear.  Let r be
    the product of every block's first tuple, and s_b[v] the product that
    differs from r only in block b, where it takes v.  A product x with
    tuples v_1, ..., v_k agrees with s_b[v_b] on block b and with r
    elsewhere, so x = r + sum_b (s_b[v_b] - r) and A(x) = A(r) +
    sum_b (A(s_b[v_b]) - A(r)).  When r and every s_b[v] are additive (A
    = 0) so is every product, and they are products themselves: the answer
    takes 1 + sum_b (|factors[b]| - 1) ``core._nonadditive`` passes in C,
    not one per product."""
    star = [f[0] for f in factors]
    if _nonadditive(table, getter(tuple(chain(head, *star)))) is not None:
        return False
    for b, values in enumerate(factors):
        first = star[b]
        for v in values[1:]:
            star[b] = v
            if _nonadditive(table, getter(tuple(chain(head, *star)))) is not None:
                return False
        star[b] = first
    return True


def _rank_full(d: int, tight: Iterable[Row], settled: int) -> bool:
    """Whether the rows ``tight`` over d coordinates, with the unit rows of
    the coordinates in the bitmask ``settled`` beside them, have rank d: a
    unit row settles its coordinate, and the other rows, on the unsettled
    coordinates, go through the fraction-free elimination."""
    unsettled = (1 << d) - 1 & ~settled
    if not unsettled:
        return True
    rest = [{j: c for j, c in row.items() if unsettled >> j & 1} for row in tight]
    return len(_eliminate(rest, d)[1]) == unsettled.bit_count()


@derived
def _vertices(table: PartialAdditionTable):
    """The extremal states of ``solve_state_space``, in increasing order of
    their value tuples, built from certified block vertices: ``(states,
    order, factors)``, where ``factors`` holds each block's vertices as
    ``_block_values`` gives them, and the state i is the product of the
    factors at ``order[i]`` in ``itertools.product`` order.

    The vertices are the products of the vertices of the blocks of linked
    free coordinates, each block swept on its own.  The blocks move
    disjoint sets of elements, and every other element keeps its pinned
    value, so the products are additive exactly when the star of products
    around the first one is (``_star_additive``): each block vertex is
    checked once, in one product.  Then every product is built by
    ``StateVector._from_additive``; otherwise every product is left to the
    full check of ``_from_ints``, which words the refusal on the first.
    Each product's values are picked in C by one ``itemgetter`` from the
    pinned values followed by the factors' values, all over the
    denominator common to every block vertex."""
    affine = _affine_map(table)
    blocks = None if affine is None else _polytope_blocks(table)
    if blocks is None:
        return (), (), ()
    p, _, m, _ = affine
    found = [_block_values(p, block) for block in blocks]
    _meter(math.prod(map(len, found)), "state polytope has")
    # one vertex per tuple of block vertices, all over the denominator
    # common to every block vertex, so each is rescaled once
    den = math.lcm(*(bd for vertices in found for bd, _ in vertices))
    factors = [[tuple(x * (den // bd) for _, x in values) for bd, values in vertices]
               for vertices in found]
    # a product's values: the pinned ones, then each block's in block order
    position = list(range(table.size))
    for at, (i, _) in enumerate((e for _, _, elements in blocks for e in elements), table.size):
        position[i] = at
    getter = _picker(position)
    head = tuple(x * den for x in p)
    sound = all(factors) and _star_additive(table, getter, head, factors)
    make = StateVector._from_additive if sound else StateVector._from_ints
    extremals = [make(table, num, m * den) for num in map(
        getter, map(tuple, map(chain.from_iterable, map((head,).__add__, product(*factors)))))]
    # order by value tuple: numerators over one denominator common to all
    dens = {s._den for s in extremals}
    if len(dens) == 1:
        key = [s._num for s in extremals]
    else:
        den = math.lcm(*dens)
        key = [tuple(x * (den // s._den) for x in s._num) for s in extremals]
    order = sorted(range(len(extremals)), key=key.__getitem__)
    return tuple(map(extremals.__getitem__, order)), tuple(order), found


@derived
def _extremal_flags(table: PartialAdditionTable) -> Tuple[bool, ...]:
    """``is_extremal``'s verdict on each extremal state of
    ``solve_state_space``, in its order, read from one tight-rank
    certificate per block vertex.

    The tight row of an element that moves with a block holds only that
    block's coordinates, and a pinned element's row is 0, so the rows that
    a product of block vertices makes tight are block-diagonal: their rank
    is the sum of the ranks of each factor's tight rows within its block.
    A product therefore has full rank exactly when every factor has its
    block's full rank, and ``is_extremal`` decides a state by that rank."""
    _, order, found = _vertices(table)
    if not order:
        return ()
    _, _, m, free = _affine_map(table)
    free = set(free)
    flags = []
    for (dim, _, elements), vertices in zip(_polytope_blocks(table), found):
        # a free element's terms are ((its coordinate, m),)
        units = [(t, 1 << terms[0][0]) for t, (i, terms) in enumerate(elements) if i in free]
        flag = []
        for bd, values in vertices:
            top = m * bd
            settled = sum(unit for t, unit in units if values[t][1] in (0, top))
            tight = (dict(terms) for (_, terms), (_, x) in zip(elements, values) if x in (0, top))
            flag.append(_rank_full(dim, tight, settled))
        flags.append(flag)
    verdicts = list(map(all, product(*flags)))
    return tuple(map(verdicts.__getitem__, order))


@derived
def solve_state_space(table: PartialAdditionTable) -> StateSpace:
    """Solve the additivity system exactly and enumerate the extremal states
    (``_vertices``: block by block, certified per block vertex).  Refuses
    with ``PreconditionError`` a polytope whose vertices, or the vertices
    of some block's sweep, number more than ``MAX_VERTICES`` (exactness over
    scalability).  An empty polytope is a legitimate outcome: stateless
    PEAs exist.
    """
    _require_pea(table)
    affine = _affine_map(table)
    if affine is None:
        return StateSpace(table, False, None, (), (), ())
    p, rows, m, free = affine
    els = table.elements
    # the free elements first, then the pivot elements in column order
    particular = dict.fromkeys([els[f] for f in free])
    particular.update((e, Fraction(x, m)) for e, x in zip(els, p))
    basis = [dict.fromkeys(els, ZERO) for _ in free]
    for i, row in rows:
        for j, c in row.items():
            basis[j][els[i]] = Fraction(c, m)
    return StateSpace(
        table,
        True,
        particular,
        tuple(basis),
        tuple(els[f] for f in free),
        _vertices(table)[0],
    )


# -- discrete states ------------------------------------------------------


def _checked_labelings(table: PartialAdditionTable, n: int):
    """``_labelings(table, n)`` after the input checks of
    ``discrete_labelings``; no labeling is onto when n + 1 > |E|."""
    if not isinstance(n, int) or n < 1:
        raise InputError("n must be a positive integer, got %r" % (n,))
    _require_pea(table)
    if n + 1 > table.size:
        return (), (), True
    return _labelings(table, n)


def discrete_labelings(table: PartialAdditionTable, n: int) -> List[Tuple[int, ...]]:
    """All surjective labelings l : E -> {0..n} with l(0)=0, l(1)=n and
    l(a)+l(b) = l(a+b) on defined sums, in lexicographic order.

    This is the shared search engine behind discrete states and
    n-decompositions.  The search runs once per table and n; each call
    returns a fresh list.  With more labels than elements (n + 1 > |E|)
    none is surjective, and the answer is empty at once.
    """
    return list(_checked_labelings(table, n)[0])


@derived
def _label_blocks(table: PartialAdditionTable):
    """The middle elements (all but 0 and 1) split into blocks that share no
    equation: ``(blocks, getter)``, the blocks as sorted index tuples, and
    ``getter`` picking the labels of a labeling of E, in element order, from
    (0, n) followed by every block's labels in block order.

    The blocks are the components (``_split``) of ``_equations`` with 0 and
    1 left out (a sum with a 0 operand holds for every labeling with
    l(0) = 0); every middle element a lies in one, as a + a~ = 1."""
    ends = 1 << table.zero_i | 1 << table.one_i
    blocks = [tuple(_bits(block)) for block in _split(
        (1 << i | 1 << j | 1 << s) & ~ends for i, j, s in _equations(table))]
    position = [0] * table.size
    position[table.one_i] = 1
    for at, e in enumerate((e for block in blocks for e in block), 2):
        position[e] = at
    return blocks, _picker(position)


def _block_used(n: int, vals: Tuple[int, ...]) -> int:
    """The bitmask of the labels 0..n that the block labeling ``vals``
    uses, with bit n + 1 for any label outside 0..n."""
    used = 0
    for v in set(vals):
        used |= 1 << v if 0 <= v <= n else 1 << n + 1
    return used


def _block_parts(n: int, bits: Tuple[int, ...], vals: Tuple[int, ...]) -> Tuple[int, ...]:
    """Per label i of 0..n, the bitmask of the elements of a block that the
    block labeling ``vals`` labels i; ``bits`` holds 1 << e for each
    element e of the block, in block order."""
    parts = [0] * (n + 1)
    for bit, v in zip(bits, vals):
        if 0 <= v <= n:
            parts[v] |= bit
    return tuple(parts)


def _block_labelings(table: PartialAdditionTable, n: int) -> Optional[Tuple[List[Tuple[int, ...]], ...]]:
    """Per block of ``_label_blocks``, its additive labelings into {0..n},
    not necessarily onto, each as the labels of the block's elements in
    block order; None when some block has none.

    Placing a label propagates it.  Once two labels of an equation
    i + j = s are known the third is forced: l(s) = l(i) + l(j),
    l(j) = l(s) - l(i) or l(i) = l(s) - l(j).  A labeling through the
    current branch must carry the forced label, so a forced label outside
    0..n, or one that clashes with a label already placed, refutes the
    branch; propagation cuts no other branch.  Every equation is checked
    when the last of its labels is placed, chosen or forced, so each
    complete labeling satisfies all of them: the search finds exactly the
    additive labelings of the search without propagation.  A branch is also
    cut when more labels are missing than elements are left to place, in
    this block and in the others, since then no labeling through it is
    part of a surjective one."""
    blocks, _ = _label_blocks(table)
    incident: List[List[Tuple[int, int, int]]] = [[] for _ in range(table.size)]
    for eq in _equations(table):
        i, j, s = eq
        incident[i].append(eq)
        if j != i:
            incident[j].append(eq)
        incident[s].append(eq)
    labels = [-1] * table.size
    labels[table.zero_i] = 0
    labels[table.one_i] = n
    middle = table.size - 2
    # how many placed elements carry each label (0 and 1 are placed), and
    # the elements placed in the current block, in placing order
    count = [0] * (n + 1)
    count[0] += 1
    count[n] += 1
    trail: List[int] = []

    def place(e: int, v: int) -> bool:
        """Label ``e`` with ``v``, and every element with the label that
        forces; False when a forced label refutes the branch.  Each label
        set, also on the way to a refutation, is on the trail."""
        labels[e] = v
        count[v] += 1
        at = len(trail)
        trail.append(e)
        while at < len(trail):
            for i, j, s in incident[trail[at]]:
                li, lj, ls = labels[i], labels[j], labels[s]
                if li >= 0 and lj >= 0:
                    forced, w = s, li + lj
                    if w > n or ls >= 0 and ls != w:
                        return False
                    if ls >= 0:
                        continue
                elif ls >= 0 and li >= 0:
                    forced, w = j, ls - li
                elif ls >= 0 and lj >= 0:
                    forced, w = i, ls - lj
                else:
                    continue
                if w < 0:
                    return False
                labels[forced] = w
                count[w] += 1
                trail.append(forced)
            at += 1
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            e = trail.pop()
            count[labels[e]] -= 1
            labels[e] = -1

    def search(block: Tuple[int, ...], spare: int) -> List[Tuple[int, ...]]:
        found: List[Tuple[int, ...]] = []

        def rec(pos: int) -> None:
            while pos < len(block) and labels[block[pos]] >= 0:
                pos += 1
            if pos == len(block):
                found.append(tuple(map(labels.__getitem__, block)))
                return
            if count.count(0) > len(block) - len(trail) + spare:
                return
            e = block[pos]
            mark = len(trail)
            for v in range(n + 1):
                if place(e, v):
                    rec(pos + 1)
                undo(mark)

        rec(0)
        return found

    out = []
    for block in blocks:
        found = search(block, middle - len(block))
        if not found:
            return None
        out.append(found)
    return tuple(out)


@derived
def _labelings(table: PartialAdditionTable, n: int):
    """The labelings of ``discrete_labelings`` with their decompositions,
    built from certified block factors: ``(labels, parts, sound)``, two
    tuples with one row each per labeling, in lexicographic order of the
    labels: the labels in table element order, and the parts, ``parts[i]``
    the bitmask of the elements labelled i.

    A labeling of E is one labeling per block of ``_label_blocks``
    (``_block_labelings``), with 0 and 1 labelled 0 and n.  The block
    labelings are grouped by the labels they use (``_block_used``), and a
    tuple of groups gives rows exactly when the OR of their label sets is
    {0..n}: the row is onto.  Each block labeling that some row takes is
    certified once: its label range, its part masks (``_block_parts``),
    and its additivity in one labeling of E (``_star_additive``: the
    blocks label disjoint sets of elements).  ``sound`` says that every
    label of a row lies in 0..n and that every tuple of those block
    labelings, so every row, is additive on every defined sum; with
    l(1) = n the complements of an element labelled i are then labelled
    n - i, since a- + a = a + a~ = 1 are defined sums.  Each row is made in
    C from its factors: its labels by one ``itemgetter`` over (0, n)
    followed by the factors' labels, and its parts as the sums of the
    factors' part masks, which are disjoint.  A row is the labeling it
    would be if its labels were written element by element, so the rows
    are those of a search over E, and sorting them on their labels gives
    the labeling order."""
    blocks, getter = _label_blocks(table)
    found = _block_labelings(table, n)
    if found is None:
        return (), (), True
    # per block: label set -> the labelings that use it
    groups: List[Dict[int, List[Tuple[int, ...]]]] = []
    for labelings in found:
        group: Dict[int, List[Tuple[int, ...]]] = {}
        for vals in labelings:
            group.setdefault(_block_used(n, vals), []).append(vals)
        groups.append(group)
    # reach[b], room[b]: the labels blocks b.. can use, and at most how many
    full = (1 << n + 1) - 1
    reach = [0] * (len(groups) + 1)
    room = [0] * (len(groups) + 1)
    for b in reversed(range(len(groups))):
        reach[b] = reach[b + 1]
        for used in groups[b]:
            reach[b] |= used
        room[b] = room[b + 1] + max(used.bit_count() for used in groups[b])
    combos: List[Tuple[int, ...]] = []
    picked: List[int] = []

    def combine(b: int, have: int) -> None:
        missing = full & ~have
        if missing & ~reach[b] or missing.bit_count() > room[b]:
            return
        if b == len(groups):
            combos.append(tuple(picked))  # missing == 0: the sets cover {0..n}
            return
        for used in groups[b]:
            picked.append(used)
            combine(b + 1, have | used)
            picked.pop()

    combine(0, 1 | 1 << n)
    if not combos:
        return (), (), True
    # the groups that some row takes its block labeling from, each
    # labeling with its part masks
    kept: List[Dict[int, Tuple[list, list]]] = [{} for _ in groups]
    bits = [tuple(1 << e for e in block) for block in blocks]
    for combo in combos:
        for taken, group, ones, used in zip(kept, groups, bits, combo):
            if used not in taken:
                taken[used] = (group[used], [_block_parts(n, ones, vals) for vals in group[used]])
    sound = max(map(max, kept), default=0) >> n + 1 == 0 and _star_additive(
        table, getter, (0, n), [[vals for labelings, _ in taken.values() for vals in labelings]
                                for taken in kept])
    head = ((0, n),)
    base = [0] * (n + 1)
    base[0], base[n] = 1 << table.zero_i, 1 << table.one_i
    base = (tuple(base),)
    out: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
    for combo in combos:
        entries = [taken[used] for taken, used in zip(kept, combo)]
        vals = product(*(labelings for labelings, _ in entries))
        parts = product(*(masks for _, masks in entries))
        out.extend(zip(map(getter, map(tuple, map(chain.from_iterable, map(head.__add__, vals)))),
                       map(tuple, map(partial(map, sum), starmap(zip, map(base.__add__, parts))))))
    out.sort()
    labels, parts = zip(*out)
    return labels, parts, sound


def enumerate_discrete_states(table: PartialAdditionTable, n: int) -> List[StateVector]:
    """All (n+1)-valued discrete states, via the integer-labeling search.
    Certified labelings are additive, so only the range, zero and one of
    each state are checked; a refused certificate leaves every state to the
    full check of ``_from_ints``, which words the refusal."""
    labels, _, sound = _checked_labelings(table, n)
    make = StateVector._from_additive if sound else StateVector._from_ints
    return [make(table, row, n) for row in labels]


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
    state's values alone: an element valued 0 or 1 makes its row tight,
    and a tight free element's row is the unit row of its coordinate."""
    num, den = s._num, s._den
    _, rows, _, free = _affine_map(table)
    settled = sum(1 << j for j, f in enumerate(free) if num[f] == 0 or num[f] == den)
    return _rank_full(len(free), [row for i, row in rows if num[i] == 0 or num[i] == den],
                      settled)


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
    t0 = [s._num[f] for f in _affine_map(table)[3]]
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
