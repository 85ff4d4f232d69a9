"""Exact state-space computation on finite PEAs.

States are rational-valued additive morphisms into [0,1].  The additivity
equations are solved by exact Gaussian elimination; the resulting polytope's
vertices (the extremal states) are enumerated with an incremental double
description sweep.  Discrete states are found by the integer-labeling search
suggested by the decomposition characterization, never by rounding.
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

    @property
    def has_state(self) -> bool:
        return len(self.extremal_states) > 0


# -- exact linear algebra -------------------------------------------------


def _rref(rows: List[List[Fraction]]) -> Tuple[List[List[Fraction]], List[int], bool]:
    """Reduced row echelon form; returns (rows, pivot column list, consistent).

    The last column is the right-hand side; consistency means no row reduces
    to 0 = nonzero.
    """
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for col in range(ncols - 1):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][col]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    consistent = all(
        any(x != 0 for x in row[:-1]) or row[-1] == 0 for row in rows
    )
    return rows, pivots, consistent


def _nullspace_vector(rows: List[Sequence[Fraction]], dim: int) -> Optional[List[Fraction]]:
    """Some nonzero vector orthogonal to all rows, or None if rank is full."""
    work = [list(r) + [ZERO] for r in rows] or [[ZERO] * (dim + 1)]
    red, pivots, _ = _rref(work)
    free = [c for c in range(dim) if c not in pivots]
    if not free:
        return None
    j = free[0]
    vec = [ZERO] * dim
    vec[j] = ONE
    for rowi, col in enumerate(pivots):
        vec[col] = -red[rowi][j]
    return vec


# -- double description vertex sweep --------------------------------------


def _dd_vertices(
    constraints: List[Tuple[List[Fraction], Fraction]], dim: int
) -> List[Tuple[Fraction, ...]]:
    """Vertices of {t : a.t <= b for all (a, b)} assuming the first 2*dim
    constraints are the unit box 0 <= t_i <= 1 (so the region is bounded)."""

    def dot(a, t):
        return sum(x * y for x, y in zip(a, t))

    verts: List[Tuple[Fraction, ...]] = []
    for mask in range(1 << dim):
        verts.append(tuple(ONE if mask >> i & 1 else ZERO for i in range(dim)))
    active = list(range(2 * dim))

    def tight_set(v):
        return frozenset(
            ci for ci in active if dot(constraints[ci][0], v) == constraints[ci][1]
        )

    for ci in range(2 * dim, len(constraints)):
        a, b = constraints[ci]
        vals = [dot(a, v) for v in verts]
        keep = [v for v, val in zip(verts, vals) if val <= b]
        inside = [(v, val) for v, val in zip(verts, vals) if val < b]
        outside = [(v, val) for v, val in zip(verts, vals) if val > b]
        if outside:
            tights = {v: tight_set(v) for v in verts}
            new_pts = set()
            for u, uval in inside:
                for w, wval in outside:
                    common = tights[u] & tights[w]
                    # combinatorial adjacency: no third vertex is tight on
                    # everything u and w share
                    adjacent = not any(
                        v is not u and v is not w and common <= tights[v] for v in verts
                    )
                    if len(common) < dim - 1 or not adjacent:
                        continue
                    lam = (b - uval) / (wval - uval)
                    new_pts.add(
                        tuple(x + lam * (y - x) for x, y in zip(u, w))
                    )
            keep.extend(p for p in new_pts if p not in keep)
        verts = keep
        active.append(ci)
        if not verts:
            return []
    return sorted(set(verts))


def _state_system(table: PartialAdditionTable):
    """RREF data for the additivity equations: returns (particular, basis,
    free element list, consistent) with values per element."""
    k = table.size
    els = table.elements
    rows: List[List[Fraction]] = []
    row = [ZERO] * (k + 1)
    row[table.zero_i] = ONE
    rows.append(row)
    if table.one_i is not None:
        row = [ZERO] * (k + 1)
        row[table.one_i] = ONE
        row[k] = ONE
        rows.append(row)
    for i, j, s in table.defined_sums():
        row = [ZERO] * (k + 1)
        row[i] += ONE
        row[j] += ONE
        row[s] -= ONE
        if any(x != 0 for x in row[:k]):
            rows.append(row)
    red, pivots, consistent = _rref(rows)
    if not consistent:
        return None, [], [], False
    free_cols = [c for c in range(k) if c not in pivots]
    particular = {els[c]: ZERO for c in free_cols}
    for rowi, col in enumerate(pivots):
        particular[els[col]] = red[rowi][k]
    basis = []
    for f in free_cols:
        vec = {els[c]: ZERO for c in range(k)}
        vec[els[f]] = ONE
        for rowi, col in enumerate(pivots):
            vec[els[col]] = -red[rowi][f]
        basis.append(vec)
    return particular, basis, [els[f] for f in free_cols], True


def _box_constraints(table, particular, basis, free_els):
    """Inequalities 0 <= s(e) <= 1 in the free coordinates, unit box first."""
    d = len(free_els)
    constraints: List[Tuple[List[Fraction], Fraction]] = []
    for j in range(d):
        row = [ZERO] * d
        row[j] = -ONE
        constraints.append((row, ZERO))
        row = [ZERO] * d
        row[j] = ONE
        constraints.append((row, ONE))
    for e in table.elements:
        if e in free_els:
            continue
        coeffs = [basis[j][e] for j in range(d)]
        p = particular[e]
        if all(c == 0 for c in coeffs):
            if p < 0 or p > 1:
                # forced value outside the box: encode as infeasible
                constraints.append(([ZERO] * d, Fraction(-1)))
            continue
        constraints.append(([-c for c in coeffs], p))
        constraints.append((list(coeffs), ONE - p))
    return constraints


def solve_state_space(table: PartialAdditionTable) -> StateSpace:
    """Solve the additivity system exactly and enumerate the extremal states.

    Refuses tables whose solution space has more than MAX_FREE_PARAMETERS
    free parameters (exactness over scalability).  An empty polytope is a
    legitimate outcome: stateless PEAs exist.
    """
    if "state_space" in table._cache:
        return table._cache["state_space"]  # type: ignore[return-value]
    _require_pea(table)
    particular, basis, free_els, consistent = _state_system(table)
    if not consistent:
        space = StateSpace(table, False, None, (), (), ())
        table._cache["state_space"] = space
        return space
    d = len(free_els)
    if d > MAX_FREE_PARAMETERS:
        raise PreconditionError(
            "state space has %d free parameters; refusing beyond %d"
            % (d, MAX_FREE_PARAMETERS)
        )
    if d == 0:
        ok = all(0 <= particular[e] <= 1 for e in table.elements)
        extremals = (StateVector(table, particular),) if ok else ()
        space = StateSpace(table, True, dict(particular), (), (), extremals)
        table._cache["state_space"] = space
        return space
    constraints = _box_constraints(table, particular, basis, free_els)
    verts = _dd_vertices(constraints, d)
    extremals = []
    for v in verts:
        vals = {
            e: particular[e] + sum(basis[j][e] * v[j] for j in range(d))
            for e in table.elements
        }
        extremals.append(StateVector(table, vals))
    space = StateSpace(
        table,
        True,
        dict(particular),
        tuple(dict(b) for b in basis),
        tuple(free_els),
        tuple(sorted(set(extremals), key=lambda s: s._key)),
    )
    table._cache["state_space"] = space
    return space


# -- discrete states ------------------------------------------------------


def discrete_labelings(table: PartialAdditionTable, n: int) -> List[Tuple[int, ...]]:
    """All surjective labelings l : E -> {0..n} with l(0)=0, l(1)=n and
    l(a)+l(b) = l(a+b) on defined sums, in lexicographic order.

    This is the shared search engine behind discrete states and
    n-decompositions.
    """
    if n < 1:
        raise InputError("n must be a positive integer, got %r" % (n,))
    _require_pea(table)
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
    return sorted(out)


def enumerate_discrete_states(table: PartialAdditionTable, n: int) -> List[StateVector]:
    """All (n+1)-valued discrete states, via the integer-labeling search."""
    states = []
    for labels in discrete_labelings(table, n):
        vals = {e: Fraction(labels[i], n) for i, e in enumerate(table.elements)}
        states.append(StateVector(table, vals))
    return states


# -- classification and extremality ---------------------------------------


@dataclass(frozen=True)
class StateClassification:
    discrete: bool
    n: Optional[int]
    image: Tuple[Fraction, ...]
    condition_ii: bool
    condition_iii: bool
    gap_witness: Optional[Tuple[Fraction, Fraction, Fraction]]


def classify_state(table: PartialAdditionTable, s: StateVector) -> StateClassification:
    """Decide discreteness of a state by its image, checking that the three
    equivalent criteria (uniform image, sub-effect-algebra image, difference
    closure) agree on this instance."""
    if not isinstance(s, StateVector) or s.table is not table:
        s = StateVector(table, s.values if isinstance(s, StateVector) else s)
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
    if not isinstance(s, StateVector) or s.table is not table:
        s = StateVector(table, s.values if isinstance(s, StateVector) else s)
    space = solve_state_space(table)
    if not space.consistent:
        raise InconsistencyError("valid state supplied for an inconsistent system")
    d = space.dimension
    if d == 0:
        return ExtremalityReport(True, None)
    t0 = [s(e) for e in space.free_elements]
    constraints = _box_constraints(table, space.particular, list(space.basis), space.free_elements)

    def dot(a, t):
        return sum(x * y for x, y in zip(a, t))

    tight = [a for a, b in constraints if dot(a, t0) == b]
    direction = _nullspace_vector(tight, d)
    if direction is None:
        return ExtremalityReport(True, None)
    lam_pos = lam_neg = None
    for a, b in constraints:
        av = dot(a, direction)
        slack = b - dot(a, t0)
        if av > 0:
            bound = slack / av
            lam_pos = bound if lam_pos is None else min(lam_pos, bound)
        elif av < 0:
            bound = slack / -av
            lam_neg = bound if lam_neg is None else min(lam_neg, bound)
    if lam_pos is None or lam_neg is None or lam_pos == 0 or lam_neg == 0:
        raise InconsistencyError("interior direction with no room to move")
    eps = min(lam_pos, lam_neg)

    def state_at(t):
        vals = {
            e: space.particular[e]
            + sum(space.basis[j][e] * t[j] for j in range(d))
            for e in table.elements
        }
        return StateVector(table, vals)

    s1 = state_at([x + eps * w for x, w in zip(t0, direction)])
    s2 = state_at([x - eps * w for x, w in zip(t0, direction)])
    if s1 == s2:
        raise InconsistencyError("witness states collapsed")
    return ExtremalityReport(False, (s1, s2))


def kernel(table: PartialAdditionTable, s: StateVector) -> FrozenSet[str]:
    """Ker(s) = {x : s(x) = 0}; certified to be a normal ideal."""
    if not isinstance(s, StateVector) or s.table is not table:
        s = StateVector(table, s.values if isinstance(s, StateVector) else s)
    ker = frozenset(e for e in table.elements if s(e) == 0)
    from . import ideals

    ok, witness = ideals.is_ideal(table, ker)
    if not ok:
        raise InconsistencyError("kernel is not an ideal: %r" % (witness,))
    ok, witness = ideals.is_normal(table, ker)
    if not ok:
        raise InconsistencyError("kernel is not normal: %r" % (witness,))
    return ker
