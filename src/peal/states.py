"""Exact state-space computation on finite PEAs.

States are rational-valued additive morphisms into [0,1].  The additivity
equations are solved by exact Gauss-Jordan elimination on sparse rows
``{column: nonzero Fraction}`` (each equation has at most three nonzeros);
the resulting polytope's vertices (the extremal states) are enumerated with
an incremental double description sweep in which every vertex carries its
set of tight constraints.  Discrete states are found by the integer-labeling
search suggested by the decomposition characterization, never by rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .core import (
    InconsistencyError,
    InputError,
    PartialAdditionTable,
    PreconditionError,
    _require_pea,
    derived,
)

MAX_FREE_PARAMETERS = 12

ZERO = Fraction(0)
ONE = Fraction(1)


class StateVector:
    """An exact state: element -> rational in [0,1], additive on defined sums.

    The invariants are re-checked at construction, so every StateVector in
    circulation is a genuine state of its table.
    """

    __slots__ = ("table", "values", "_key")

    def __init__(self, table: PartialAdditionTable, values: Dict[str, Fraction]):
        vals = {}
        for e in table.elements:
            if e not in values:
                raise InputError("state is missing a value for %r" % (e,))
            v = Fraction(values[e])
            if v < 0 or v > 1:
                raise InputError("state value %s for %r outside [0,1]" % (v, e))
            vals[e] = v
        if vals[table.zero] != 0:
            raise InputError("state must send zero to 0")
        if table.one is not None and vals[table.one] != 1:
            raise InputError("state must send one to 1")
        for i, j, s in table.defined_sums():
            a, b, c = table.elements[i], table.elements[j], table.elements[s]
            if vals[a] + vals[b] != vals[c]:
                raise InputError(
                    "state not additive at %r + %r = %r" % (a, b, c)
                )
        self.table = table
        self.values = vals
        self._key = tuple(vals[e] for e in table.elements)

    def __call__(self, a: str) -> Fraction:
        return self.values[a]

    def __eq__(self, other):
        return isinstance(other, StateVector) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "StateVector({%s})" % ", ".join(
            "%s: %s" % (e, v) for e, v in self.values.items()
        )

    def image(self) -> List[Fraction]:
        return sorted(set(self.values.values()))

    def as_strings(self) -> Dict[str, str]:
        return {e: str(v) for e, v in self.values.items()}


@dataclass(frozen=True)
class StateSpace:
    """Affine parametrization of the additivity system plus the polytope's vertices.

    ``particular`` and ``basis`` describe all solutions of the linear system
    (ignoring the [0,1] box); ``extremal_states`` are the vertices of the
    polytope cut out by the box.  ``consistent`` is False when the equations
    alone are already unsolvable.
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
# A row is a dict {column: nonzero Fraction}; a system over ncols unknowns
# keeps its right-hand side at column ncols.

Row = Dict[int, Fraction]


def _dot(row: Row, point: Sequence[Fraction]) -> Fraction:
    return sum(v * point[c] for c, v in row.items())


def _rref(rows: List[Row], ncols: int) -> Tuple[List[Row], List[int], bool]:
    """Gauss-Jordan elimination, column by column, on sparse rows.

    Returns the nonzero rows of the reduced row echelon form in pivot order,
    their pivot columns, and whether the system is consistent (no row
    reduces to 0 = nonzero).  The reduced form is unique, so the result does
    not depend on the order of ``rows``.
    """
    rest = [dict(r) for r in rows]
    done: List[Row] = []
    pivots: List[int] = []
    for col in range(ncols):
        at = next((i for i, r in enumerate(rest) if col in r), None)
        if at is None:
            continue
        inv = rest[at][col]
        pivot = {c: v / inv for c, v in rest.pop(at).items()}
        for row in done + rest:
            # row -= f * pivot (pivot[col] is 1); zero entries leave the row
            f = row.pop(col, None)
            if f is not None:
                for c, v in pivot.items():
                    if c != col:
                        x = row.get(c, ZERO) - f * v
                        if x:
                            row[c] = x
                        else:
                            del row[c]
        rest = [row for row in rest if row]
        done.append(pivot)
        pivots.append(col)
    # every surviving non-pivot row has only its right-hand side left
    return done, pivots, not rest


def _nullspace_vector(rows: List[Row], dim: int) -> Optional[Tuple[Fraction, ...]]:
    """Some nonzero vector orthogonal to all rows, or None if rank is full."""
    red, pivots, _ = _rref(rows, dim)
    free = [c for c in range(dim) if c not in pivots]
    if not free:
        return None
    j = free[0]
    vec = {j: ONE}
    for row, col in zip(red, pivots):
        vec[col] = -row.get(j, ZERO)
    return tuple(vec.get(c, ZERO) for c in range(dim))


# -- double description vertex sweep --------------------------------------


def _dd_vertices(
    constraints: List[Tuple[Row, Fraction]], dim: int
) -> List[Tuple[Fraction, ...]]:
    """Vertices of {t : a.t <= b for all (a, b)} assuming the first 2*dim
    constraints are the unit box 0 <= t_i <= 1 (so the region is bounded)."""
    # (vertex, its tight set among the constraints swept so far)
    verts: List[Tuple[Tuple[Fraction, ...], FrozenSet[int]]] = [
        (tuple(ONE if mask >> i & 1 else ZERO for i in range(dim)),
         frozenset(2 * i + (mask >> i & 1) for i in range(dim)))
        for mask in range(1 << dim)
    ]
    for ci in range(2 * dim, len(constraints)):
        a, b = constraints[ci]
        vals = [_dot(a, v) for v, _ in verts]
        keep = [
            (v, tight | {ci} if val == b else tight)
            for (v, tight), val in zip(verts, vals)
            if val <= b
        ]
        outside = [j for j, val in enumerate(vals) if val > b]
        new_pts = set()
        for i, ((u, tu), uval) in enumerate(zip(verts, vals)):
            if uval >= b:
                continue
            for j in outside:
                (w, tw), wval = verts[j], vals[j]
                common = tu & tw
                if len(common) < dim - 1:
                    continue
                # combinatorial adjacency: no third vertex is tight on
                # everything u and w share
                if any(
                    common <= tight and m != i and m != j
                    for m, (_, tight) in enumerate(verts)
                ):
                    continue
                lam = (b - uval) / (wval - uval)
                new_pts.add(tuple(x + lam * (y - x) for x, y in zip(u, w)))
        if new_pts:
            new_pts -= {v for v, _ in keep}
        # a degenerate point may be tight on more than its parents share
        keep.extend(
            (p, frozenset(
                cj for cj in range(ci + 1)
                if _dot(constraints[cj][0], p) == constraints[cj][1]
            ))
            for p in new_pts
        )
        verts = keep
        if not verts:
            return []
    return sorted(v for v, _ in verts)


@derived
def _state_system(table: PartialAdditionTable):
    """RREF data for the additivity equations: returns (particular, basis,
    free elements, consistent) with values per element."""
    k = table.size
    els = table.elements
    rows: List[Row] = [{table.zero_i: ONE}]
    if table.one_i is not None:
        rows.append({table.one_i: ONE, k: ONE})
    for i, j, s in table.defined_sums():
        # s(a) + s(b) - s(a + b) = 0; the coefficients sum to 1, so a row
        # never cancels entirely, but single entries do (0 + a = a)
        row = {c: Fraction((c == i) + (c == j) - (c == s)) for c in (i, j, s)}
        rows.append({c: v for c, v in row.items() if v})
    red, pivots, consistent = _rref(rows, k)
    if not consistent:
        return None, (), (), False
    pivot_set = set(pivots)
    free_cols = [c for c in range(k) if c not in pivot_set]
    particular = {els[c]: ZERO for c in free_cols}
    for row, col in zip(red, pivots):
        particular[els[col]] = row.get(k, ZERO)
    basis = []
    for f in free_cols:
        vec = {els[c]: ZERO for c in range(k)}
        vec[els[f]] = ONE
        for row, col in zip(red, pivots):
            vec[els[col]] = -row.get(f, ZERO)
        basis.append(vec)
    return particular, tuple(basis), tuple(els[f] for f in free_cols), True


@derived
def _box_constraints(table: PartialAdditionTable) -> List[Tuple[Row, Fraction]]:
    """Inequalities 0 <= s(e) <= 1 in the free coordinates of a consistent
    additivity system, unit box first."""
    particular, basis, free_els, _ = _state_system(table)
    d = len(free_els)
    constraints: List[Tuple[Row, Fraction]] = []
    for j in range(d):
        constraints.append(({j: -ONE}, ZERO))
        constraints.append(({j: ONE}, ONE))
    free = set(free_els)
    for e in table.elements:
        if e in free:
            continue
        coeffs = {j: basis[j][e] for j in range(d) if basis[j][e]}
        p = particular[e]
        if not coeffs:
            if p < 0 or p > 1:
                # forced value outside the box: encode as infeasible
                constraints.append(({}, Fraction(-1)))
            continue
        constraints.append(({j: -c for j, c in coeffs.items()}, p))
        constraints.append((coeffs, ONE - p))
    return constraints


def _state_at(table: PartialAdditionTable, particular, basis, t) -> StateVector:
    """The state at free coordinates ``t`` of the affine parametrization;
    zero terms are skipped, as vertices are mostly 0/1 and bases sparse."""
    moves = [(vec, x) for vec, x in zip(basis, t) if x]
    return StateVector(table, {
        e: particular[e] + sum(vec[e] * x for vec, x in moves if vec[e])
        for e in table.elements
    })


@derived
def solve_state_space(table: PartialAdditionTable) -> StateSpace:
    """Solve the additivity system exactly and enumerate the extremal states.

    Refuses tables whose solution space has more than MAX_FREE_PARAMETERS
    free parameters (exactness over scalability).  An empty polytope is a
    legitimate outcome: stateless PEAs exist.
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
    if d == 0:
        ok = all(0 <= particular[e] <= 1 for e in table.elements)
        extremals = (StateVector(table, particular),) if ok else ()
        return StateSpace(table, True, dict(particular), (), (), extremals)
    extremals = [
        _state_at(table, particular, basis, v)
        for v in _dd_vertices(_box_constraints(table), d)
    ]
    return StateSpace(
        table,
        True,
        dict(particular),
        tuple(dict(b) for b in basis),
        free_els,
        tuple(sorted(set(extremals), key=lambda s: s._key)),
    )


# -- discrete states ------------------------------------------------------


def discrete_labelings(table: PartialAdditionTable, n: int) -> List[Tuple[int, ...]]:
    """All surjective labelings l : E -> {0..n} with l(0)=0, l(1)=n and
    l(a)+l(b) = l(a+b) on defined sums, in lexicographic order.

    This is the shared search engine behind discrete states and
    n-decompositions.  The search runs once per table and n; each call
    returns a fresh list.
    """
    if n < 1:
        raise InputError("n must be a positive integer, got %r" % (n,))
    _require_pea(table)
    return list(_labelings(table, n))


@derived
def _labelings(table: PartialAdditionTable, n: int) -> Tuple[Tuple[int, ...], ...]:
    k = table.size
    labels = [-1] * k
    labels[table.zero_i] = 0
    labels[table.one_i] = n
    order = [i for i in range(k) if labels[i] == -1]
    incident: List[List[Tuple[int, int, int]]] = [[] for _ in range(k)]
    for i, j, s in table.defined_sums():
        for e in {i, j, s}:
            incident[e].append((i, j, s))
    out: List[Tuple[int, ...]] = []

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

    def rec(pos: int) -> None:
        if pos == len(order):
            if set(labels) == set(range(n + 1)):
                out.append(tuple(labels))
            return
        # surjectivity cannot be rescued with fewer slots than missing labels
        missing = len(set(range(n + 1)) - set(labels[i] for i in range(k) if labels[i] >= 0))
        if missing > len(order) - pos:
            return
        e = order[pos]
        for v in range(n + 1):
            labels[e] = v
            if local_ok(e):
                rec(pos + 1)
        labels[e] = -1

    rec(0)
    return tuple(sorted(out))


def enumerate_discrete_states(table: PartialAdditionTable, n: int) -> List[StateVector]:
    """All (n+1)-valued discrete states, via the integer-labeling search."""
    return [
        StateVector(table, {e: Fraction(l, n) for e, l in zip(table.elements, labels)})
        for labels in discrete_labelings(table, n)
    ]


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
    closure) agree on this instance."""
    s = _as_state(table, s)
    img = s.image()
    n = len(img) - 1
    if n < 1:
        raise InputError("state image must contain 0 and 1")
    img_set = set(img)
    # (iii): differences of comparable image values stay in the image
    cond_iii = True
    gap = None
    for ti in img:
        for u in img:
            if ti <= u and u - ti not in img_set:
                cond_iii = False
                if gap is None:
                    gap = (ti, u, u - ti)
    # (ii): the image is a sub-effect algebra of [0,1]
    cond_ii = all(1 - v in img_set for v in img) and all(
        u + v in img_set for u in img for v in img if u + v <= 1
    )
    uniform = img == [Fraction(i, n) for i in range(n + 1)]
    if not (cond_ii == cond_iii == uniform):
        raise InconsistencyError(
            "discreteness criteria disagree on image %r" % (img,)
        )
    return StateClassification(
        discrete=uniform,
        n=n if uniform else None,
        image=tuple(img),
        condition_ii=cond_ii,
        condition_iii=cond_iii,
        gap_witness=gap,
    )


@dataclass(frozen=True)
class ExtremalityReport:
    extremal: bool
    witness: Optional[Tuple[StateVector, StateVector]]


def is_extremal(table: PartialAdditionTable, s: StateVector) -> ExtremalityReport:
    """Vertex test on the state polytope; a non-extremal state comes back
    with states s1 != s2 such that s = (s1 + s2) / 2."""
    s = _as_state(table, s)
    space = solve_state_space(table)
    if not space.consistent:
        raise InconsistencyError("valid state supplied for an inconsistent system")
    d = space.dimension
    if d == 0:
        return ExtremalityReport(True, None)
    t0 = [s(e) for e in space.free_elements]
    constraints = _box_constraints(table)
    tight = [a for a, b in constraints if _dot(a, t0) == b]
    direction = _nullspace_vector(tight, d)
    if direction is None:
        return ExtremalityReport(True, None)
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
    s1 = _state_at(table, space.particular, space.basis,
                   [x + eps * w for x, w in zip(t0, direction)])
    s2 = _state_at(table, space.particular, space.basis,
                   [x - eps * w for x, w in zip(t0, direction)])
    if s1 == s2:
        raise InconsistencyError("witness states collapsed")
    return ExtremalityReport(False, (s1, s2))


def kernel(table: PartialAdditionTable, s: StateVector) -> FrozenSet[str]:
    """Ker(s) = {x : s(x) = 0}; certified to be a normal ideal."""
    s = _as_state(table, s)
    ker = frozenset(e for e in table.elements if s(e) == 0)
    from . import ideals

    ok, witness = ideals.is_ideal(table, ker)
    if not ok:
        raise InconsistencyError("kernel is not an ideal: %r" % (witness,))
    ok, witness = ideals.is_normal(table, ker)
    if not ok:
        raise InconsistencyError("kernel is not normal: %r" % (witness,))
    return ker
