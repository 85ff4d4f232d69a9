"""Constructions of PEAs: unitization, finite interval algebras, symbolic
lexicographic products, the builtin worked examples, the strong n-perfect
representation map, homomorphism lifting, and the universal-group extension.

Symbolic algebras have infinite carriers; every claim about them is verified
on seeded samples and reported as such, never upgraded to a universal
statement.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .core import (
    InconsistencyError,
    InputError,
    PartialAdditionTable,
    PealError,
    PreconditionError,
    SymmetryReport,
    _differences,
    _noncommuting_pair,
    check_axioms,
    induced_order,
    is_symmetric,
)
from .groups import (
    BoundExceededError,
    InfiniteIntervalError,
    IntVectorGroup,
    LexExtensionGroup,
    PoGroupHandle,
    SampleVerdict,
    TwistedZ3Group,
    UnitalPoGroup,
    _box_stream,
    _element_draw,
    _first_witness,
    _int_stream,
    _sampled,
    is_commutator,
    probe_pogroup,
    probe_torsion_free,
)


class NonSymmetricError(PreconditionError):
    """Unitization refused: the GPEA is not weakly commutative."""


class NotCyclicError(PreconditionError):
    """The candidate element does not satisfy nc = 1."""


class NotStrongError(PreconditionError):
    """The strong n-perfect hypotheses (centrality, torsion-freeness,
    chain-product presentation) fail."""


class WellDefinednessError(PealError):
    """Two presentations of the same element evaluated differently."""

    def __init__(self, message, first, second):
        super().__init__(message)
        self.first = first
        self.second = second

    def __reduce__(self):
        # the default rebuilds from ``args``, which holds the message only
        return type(self), (self.args[0], self.first, self.second), self.__dict__


# -- finite builtins ------------------------------------------------------


def chain_table(n: int) -> PartialAdditionTable:
    """The (n+1)-element chain {0, 1/n, ..., 1} with truncated addition."""
    if n < 1:
        raise InputError("chain parameter must be >= 1")
    names = [str(Fraction(i, n)) for i in range(n + 1)]
    rows = [[i + j if i + j <= n else None for j in range(n + 1)] for i in range(n + 1)]
    return PartialAdditionTable._from_rows(names, 0, n, rows)


def diamond_table() -> PartialAdditionTable:
    """Four elements 0, a, b, 1 with a+a = b+b = 1 and a+b undefined."""
    return PartialAdditionTable.build(
        ["0", "a", "b", "1"],
        "0",
        "1",
        {("a", "a"): "1", ("b", "b"): "1"},
    )


def boolean4_table() -> PartialAdditionTable:
    """The four-element Boolean algebra 0, a, a', 1 with a + a' = a' + a = 1."""
    return PartialAdditionTable.build(
        ["0", "a", "a'", "1"],
        "0",
        "1",
        {("a", "a'"): "1", ("a'", "a"): "1"},
    )


# -- unitization -----------------------------------------------------------


def unitize(table: PartialAdditionTable) -> PartialAdditionTable:
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
    sharp = tuple(e + suffix for e in els)
    ldiff, rdiff = _differences(table)
    k = table.size
    # the sharp copy of element b is element k + b of the lift
    rows = [list(row) + [None] * k for row in table._sums] + [[None] * (2 * k) for _ in els]
    for a in range(k):
        for b in range(k):
            if ldiff[b][a] is not None:  # a <= b
                rows[a][k + b] = k + ldiff[b][a]
                rows[k + b][a] = k + rdiff[a][b]
    lifted = PartialAdditionTable._from_rows(els + sharp, table.zero_i, k + table.zero_i, rows)
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
    if any(big_order.down[j] >> k for j in range(k)):
        raise InconsistencyError("E is not downward closed in its unitization")
    low = (1 << k) - 1
    if any(big_order.up[a] & low != order.up[a] for a in range(k)):
        raise InconsistencyError("order of E changed inside the unitization")
    return lifted


# -- finite interval algebras ----------------------------------------------


def gamma_interval_finite(
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
    position = {m: i for i, m in enumerate(members)}
    sums = [[group.add(a, b) for b in members] for a in members]
    rows = [[position[s] if s in position and group.le(s, u) else None for s in row] for row in sums]
    table = PartialAdditionTable._from_rows(
        [group.format(m) for m in members], position[group.zero()], position[u], rows
    )
    rep = check_axioms(table, "pea")
    if not rep.passed:
        raise InconsistencyError("interval table failed PEA axioms: %r" % (rep.violations,))
    return table


# -- symbolic lexicographic products ----------------------------------------


def _additivity_probe(E: "SymbolicPea", additive: Callable) -> Callable:
    """Probe of two members of E whose defined sum s breaks
    ``additive(x, y, s)``; arity 2."""

    def probe(x, y):
        s = E.add(x, y)
        if s is not None and not additive(x, y, s):
            return "(%s, %s)" % (E.format(x), E.format(y))

    return probe


class SymbolicPea:
    """Symbolic PEA: a finite base PEA lex-extended by a po-group.

    Members are pairs (base element, group part); the part is free at middle
    base elements, nonnegative over the base zero, and at most the offset h
    over the base unit.  Addition follows the base and the group
    componentwise (with an optional twist acting on the left part, keyed by
    the right operand) and is defined exactly when the result is a member.

    Covers the canonical products of chains with po-groups, the worked
    diamond/boolean examples over a group, and the twisted-group interval.

    The group arithmetic, the twists and the membership test of each slice
    are bound once, at construction, in tables indexed by base element, so
    the group, offset and twists of an algebra are fixed when it is built.
    """

    def __init__(
        self,
        base: PartialAdditionTable,
        group: PoGroupHandle,
        h=None,
        levels: Optional[Sequence[int]] = None,
        twist: Optional[Dict[int, Callable]] = None,
        twist_inv: Optional[Dict[int, Callable]] = None,
        name: str = "",
        ambient: Optional[PoGroupHandle] = None,
        to_ambient: Optional[Callable] = None,
    ):
        if not check_axioms(base, "pea").passed:
            raise PreconditionError("symbolic base must be a PEA")
        self.base = base
        # the base table is immutable: its shape is read once, here
        self._size = base.size
        self._zero_i = base.zero_i
        self._one_i = base.one_i
        self._sums = base._sums
        self._ldiff, self._rdiff = _differences(base)
        self.group = group
        self.h = group.zero() if h is None else h
        if levels is None:
            levels = tuple(range(base.size))
        self.levels = tuple(levels)
        if len(self.levels) != base.size:
            raise InputError("levels must give one level per base element: got %d for %d"
                             % (len(self.levels), base.size))
        self.n = self.levels[base.one_i]
        if self.n < 1:
            raise InputError("the base unit must sit at a level >= 1, got %r" % (self.n,))
        self.twist = twist or {}
        self.twist_inv = twist_inv or {}
        self.name = name or "Gamma(base=%s, %s, h=%s)" % (
            base.elements, group.name, group.format(self.h),
        )
        self.ambient = ambient
        self.to_ambient = to_ambient
        self.ideal_predicates = {}
        self.zero_el = (base.zero_i, group.zero())
        self.one_el = (base.one_i, self.h)
        # adding a member of the bottom slice moves no part
        if base.zero_i in self.twist or base.zero_i in self.twist_inv:
            raise InputError("no twist may act at the base zero, index %d" % (base.zero_i,))
        # per base index: the twist and its inverse (None for the identity)
        # and the membership test of the group part (None where every part
        # is a member); the unit's test is set first, so the zero's wins
        # where the two coincide, as in sample_member
        self._gadd, self._gneg = group.add, group.neg
        self._twists = [self.twist.get(b) for b in range(base.size)]
        self._twists_inv = [self.twist_inv.get(b) for b in range(base.size)]
        le, top = group.le, self.h
        tests = [None] * base.size
        tests[base.one_i] = lambda g: le(g, top)
        tests[base.zero_i] = group.is_positive
        self._tests = tests

    def describe(self) -> Dict[str, str]:
        return {
            "name": self.name,
            "levels": str(self.n),
            "group": self.group.name,
            "offset": self.group.format(self.h),
        }

    def _outside(self, *pairs) -> InputError:
        """The error for the first of ``pairs`` whose base index lies outside
        range(size); the base tables are indexed only after this check."""
        b = next(x[0] for x in pairs if not 0 <= x[0] < self._size)
        return InputError("base index %r is outside range(%d)" % (b, self._size))

    def format(self, x) -> str:
        if not 0 <= x[0] < self._size:
            raise self._outside(x)
        return "(%s,%s)" % (self.base.elements[x[0]], self.group.format(x[1]))

    def is_member(self, x) -> bool:
        b, g = x
        if not 0 <= b < self._size:
            return False
        test = self._tests[b]
        return test is None or test(g)

    def level(self, x) -> int:
        return self.levels[x[0]]

    def add(self, x, y):
        bx, gx = x
        by, gy = y
        if not (0 <= bx < self._size and 0 <= by < self._size):
            raise self._outside(x, y)
        bs = self._sums[bx][by]
        if bs is None:
            return None
        tw = self._twists[by]
        g = self._gadd(gx if tw is None else tw(gx), gy)
        test = self._tests[bs]
        return (bs, g) if test is None or test(g) else None

    def left_difference(self, x, a):
        """z with z + a = x, or None."""
        ab, ag = a
        if not (0 <= x[0] < self._size and 0 <= ab < self._size):
            raise self._outside(x, a)
        zb = self._ldiff[x[0]][ab]
        if zb is None:
            return None
        zg = self._gadd(x[1], self._gneg(ag))
        inv = self._twists_inv[ab]
        if inv is not None:
            zg = inv(zg)
        test = self._tests[zb]
        if (test is not None and not test(zg)) or self.add((zb, zg), a) != x:
            return None
        return (zb, zg)

    def right_difference(self, a, x):
        """v with a + v = x, or None."""
        if not (0 <= a[0] < self._size and 0 <= x[0] < self._size):
            raise self._outside(a, x)
        vb = self._rdiff[a[0]][x[0]]
        if vb is None:
            return None
        tw = self._twists[vb]
        vg = self._gadd(self._gneg(a[1] if tw is None else tw(a[1])), x[1])
        test = self._tests[vb]
        if (test is not None and not test(vg)) or self.add(a, (vb, vg)) != x:
            return None
        return (vb, vg)

    def le(self, x, y) -> bool:
        return self.right_difference(x, y) is not None

    def minus(self, x):
        """Left complement: minus(x) + x = one."""
        z = self.left_difference(self.one_el, x)
        if z is None:
            raise InconsistencyError("member %s has no left complement" % self.format(x))
        return z

    def tilde(self, x):
        z = self.right_difference(x, self.one_el)
        if z is None:
            raise InconsistencyError("member %s has no right complement" % self.format(x))
        return z

    def scale(self, m: int, x):
        """m-fold sum of x within the algebra, or None when it leaves it."""
        acc = self.zero_el
        for _ in range(m):
            acc = self.add(acc, x)
            if acc is None:
                return None
        return acc

    def canonical_state(self, x) -> Fraction:
        return Fraction(self.level(x), self.n)

    # -- samplers ----------------------------------------------------------

    def _part_stream(self, rng: random.Random, b: int, bound: int) -> Iterator:
        """The endless stream of group parts at base index ``b``, drawn from
        ``rng`` at ``bound``: positive elements over the base zero, h minus
        a positive element over the base unit and any element elsewhere."""
        G = self.group
        if b == self._zero_i:
            return G.stream(rng, bound, nonneg=True)
        if b == self._one_i:
            return map(self._gadd, itertools.repeat(self.h),
                       map(self._gneg, G.stream(rng, bound, nonneg=True)))
        return G.stream(rng, bound)

    def member_stream(self, rng: random.Random, bound: int = 10,
                      base_index: Optional[int] = None) -> Iterator[Tuple]:
        """The endless stream of members drawn from ``rng`` at ``bound``,
        each drawn only when it is taken, as ``sample_member`` draws it.

        The base index is a uniform draw from range(size), or ``base_index``,
        which is checked once, at the first draw: outside range(size) it is
        an input error.  The group part is the next of ``_part_stream`` at
        that index; the base indices come from ``_box_stream`` and the parts
        from the group's ``stream``, all drawing lazily from the one ``rng``.
        """
        size = self._size
        if base_index is None:
            bases = _box_stream(rng, 0, size - 1, 1)
            parts = [self._part_stream(rng, b, bound) for b in range(size)]
        elif not 0 <= base_index < size:
            raise self._outside((base_index,))
        else:
            bases = itertools.repeat((base_index,))
            parts = {base_index: self._part_stream(rng, base_index, bound)}
        for (b,) in bases:
            yield (b, next(parts[b]))

    def sample_member(self, rng: random.Random, bound: int = 10, base_index: Optional[int] = None):
        return next(self.member_stream(rng, bound, base_index))

    def _member_draw(self, bound: int, base_index: Optional[int] = None) -> Callable:
        """``draw(rng)`` for ``_first_witness``: the stream of members of
        this algebra at ``bound``."""
        return functools.partial(self.member_stream, bound=bound, base_index=base_index)

    # -- sampled verification ------------------------------------------------
    #
    # Each probe takes the members of one sample, drawn ahead of it (see
    # _first_witness).  The probes of is_symmetric_sampled and
    # sampled_ideal_predicate use their last members only when a first test
    # passes, yet draw them always; that leaves the witness unchanged only
    # because those verdicts own their generator.

    def sampled_axiom_report(self, seed: int = 0, samples: int = 400, bound: int = 8) -> List[SampleVerdict]:
        def pe1(x, y, z):
            # (x + y) + z and x + (y + z): both undefined, or both equal
            xy = self.add(x, y)
            yz = self.add(y, z)
            if (None if xy is None else self.add(xy, z)) != (
                None if yz is None else self.add(x, yz)
            ):
                return "(%s, %s, %s)" % (self.format(x), self.format(y), self.format(z))

        def pe2(x):
            # x has a left and a right complement; each difference checks its sum
            one = self.one_el
            if self.left_difference(one, x) is None or self.right_difference(x, one) is None:
                return self.format(x)

        def pe3(x, y):
            s = self.add(x, y)
            if s is not None and (
                self.left_difference(s, x) is None or self.right_difference(y, s) is None
            ):
                return "(%s, %s)" % (self.format(x), self.format(y))

        def pe4(x):
            if x != self.zero_el and (
                self.add(x, self.one_el) is not None or self.add(self.one_el, x) is not None
            ):
                return self.format(x)

        # the four verdicts share one stream
        rng = random.Random(seed)
        draw = self._member_draw(bound)
        return [
            _sampled(name, seed, samples, probe, draw, arity, rng)
            for name, probe, arity in (("PE1", pe1, 3), ("PE2", pe2, 1),
                                       ("PE3", pe3, 2), ("PE4", pe4, 1))
        ]

    def is_symmetric_sampled(self, seed: int = 0, samples: int = 2000, bound: int = 10):
        def probe(x, y):
            if self.minus(x) != self.tilde(x):
                return (
                    self.format(x),
                    self.format(self.minus(x)),
                    self.format(self.tilde(x)),
                )
            if (self.add(x, y) is None) != (self.add(y, x) is None):
                return (self.format(x), self.format(y))

        witness = _first_witness(random.Random(seed), samples, probe,
                                 self._member_draw(bound), 2)
        return SymmetryReport(
            symmetric=witness is None,
            witness=witness,
            sampled=True,
            samples=samples,
            seed=seed,
        )

    def check_comparability_sampled(self, seed: int = 0, samples: int = 2000, bound: int = 10):
        """Sampled version of the slice-chain property E_0 <= ... <= E_n."""
        from .decompositions import ComparabilityReport

        lv = self.levels

        def probe(x, y):
            if lv[x[0]] < lv[y[0]] and not self.le(x, y):
                return (self.format(x), self.format(y))

        witness = _first_witness(random.Random(seed), samples, probe,
                                 self._member_draw(bound), 2)
        return ComparabilityReport(
            comparable=witness is None,
            sums_exist=witness is None,
            witness=witness,
            sampled=True,
            samples=samples,
        )

    def sampled_state_additivity(self, seed: int = 0, samples: int = 2000, bound: int = 10) -> SampleVerdict:
        """The canonical state x -> level(x)/n is additive on sampled sums.

        Compared on integer levels: level(x)/n + level(y)/n = level(s)/n
        iff level(x) + level(y) = level(s), as n >= 1."""
        lv = self.levels
        probe = _additivity_probe(self, lambda x, y, s: lv[x[0]] + lv[y[0]] == lv[s[0]])
        return _sampled("canonical-state-additivity", seed, samples, probe,
                        self._member_draw(bound), 2)

    def sampled_infinit_is_level0(self, seed: int = 0, samples: int = 500, bound: int = 8) -> SampleVerdict:
        """(n+1)-fold multiples exist exactly on the bottom slice."""
        lv = self.levels

        def probe(x):
            if x != self.zero_el and (self.scale(self.n + 1, x) is not None) != (lv[x[0]] == 0):
                return self.format(x)

        return _sampled("infinit-equals-level0", seed, samples, probe, self._member_draw(bound))

    def sampled_ideal_predicate(self, pred: Callable, seed: int = 0, samples: int = 500, bound: int = 8) -> SampleVerdict:
        """Downward closure and sum closure of a membership predicate, on
        sampled witnesses."""

        def probe(y, d, i, j):
            upper = self.add(y, d)
            if upper is not None and pred(upper) and not pred(y):
                return "not downward closed at %s <= %s" % (
                    self.format(y), self.format(upper))
            s = self.add(i, j)
            if s is not None and pred(i) and pred(j) and not pred(s):
                return "not sum closed at %s + %s" % (self.format(i), self.format(j))

        return _sampled("ideal-predicate", seed, samples, probe, self._member_draw(bound), 4)

    def sampled_normal_predicate(self, pred: Callable, seed: int = 0, samples: int = 500, bound: int = 8) -> SampleVerdict:
        """Whenever x+i and j+x exist and agree, membership of i and j must
        agree; witnesses are constructed by solving for j exactly."""

        def probe(x, i):
            s = self.add(x, i)
            j = None if s is None else self.left_difference(s, x)
            if j is not None and pred(i) != pred(j):
                return "%s vs %s around %s" % (
                    self.format(i), self.format(j), self.format(x))

        return _sampled("normal-predicate", seed, samples, probe, self._member_draw(bound), 2)

    def sampled_cyclic_uniqueness(self, c, seed: int = 0, samples: int = 500, bound: int = 8) -> SampleVerdict:
        """No sampled level-1 member other than c multiplies up to the unit."""
        if not self.is_member(c):
            return SampleVerdict("cyclic-uniqueness", False, samples, seed,
                                 "candidate %r is not a member" % (c,))
        if self.level(c) != 1 or self.scale(self.n, c) != self.one_el:
            return SampleVerdict("cyclic-uniqueness", False, samples, seed,
                                 "candidate %s is not cyclic" % (self.format(c),))
        level1 = self.levels.index(1)

        def probe(d):
            if self.scale(self.n, d) == self.one_el and d != c:
                return self.format(d)

        return _sampled("cyclic-uniqueness", seed, samples, probe, self._member_draw(bound, level1))

    def sampled_difference_consistency(self, seed: int = 0, samples: int = 300, bound: int = 6) -> SampleVerdict:
        """Group differences solved from two presentations of the same
        algebra differences must agree, in both difference directions.

        Which draws a sample takes depends on the values drawn, so this
        runs its own loop: w is taken from a member stream, a, b from a
        bottom-slice stream and the s of the second presentation from the
        group's cone stream, all lazy on the one generator.  Passing needs at
        least ``max(1, samples // 4)`` usable samples."""
        if samples < 1:
            raise InputError("samples must be at least 1, got %d" % (samples,))
        G = self.group
        rng = random.Random(seed)
        lv, zero_i, inverse = self.levels, self._zero_i, self._twists_inv
        members = self.member_stream(rng, bound)
        bottom = self.member_stream(rng, bound, zero_i)
        cone = G.stream(rng, bound, nonneg=True)
        checked = 0
        bad = None
        attempts = 0
        while checked < samples and attempts < samples * 20:
            attempts += 1
            w = next(members)
            if lv[w[0]] == 0:
                continue
            a, b = next(bottom), next(bottom)
            x = self.add(w, a)
            y = self.add(w, b)
            if x is None or y is None:
                continue
            # second presentation: c = s + a with s >= 0, then d solves w2 + d = y
            s = next(cone)
            c = (zero_i, G.add(s, a[1]))
            w2 = self.left_difference(x, c)
            if w2 is None:
                continue
            d = self.right_difference(w2, y)
            if d is None or lv[d[0]] != 0:
                continue
            # premises: x\a = y\b = w and x\c = w2 = y\d; conclusions in G
            if self.left_difference(y, d) != w2 or self.left_difference(x, a) != w:
                bad = "premise construction failed at %s" % self.format(x)
                break
            lhs1 = G.add(G.neg(b[1]), a[1])
            rhs1 = G.add(G.neg(d[1]), c[1])
            lhs2 = G.add(G.neg(a[1]), b[1])
            rhs2 = G.add(G.neg(c[1]), d[1])
            if lhs1 != rhs1 or lhs2 != rhs2:
                bad = "(%s, %s, %s, %s)" % tuple(
                    G.format(t) for t in (a[1], b[1], c[1], d[1])
                )
                break
            # dual half: e/x = f/y premises via shared right factor
            e = a
            f = b
            x2 = self.add(e, w)
            y2 = self.add(f, w)
            if x2 is not None and y2 is not None:
                g2 = (zero_i, G.add(s, e[1]))
                v2 = self.right_difference(g2, x2)
                if v2 is not None:
                    h2g = G.add(y2[1], G.neg(v2[1]))
                    if inverse[v2[0]] is not None:
                        h2g = inverse[v2[0]](h2g)
                    h2 = (zero_i, h2g)
                    if self.is_member(h2) and self.right_difference(h2, y2) == v2 and (
                            G.add(e[1], G.neg(f[1])) != G.add(g2[1], G.neg(h2[1]))
                            or G.add(f[1], G.neg(e[1])) != G.add(h2[1], G.neg(g2[1]))):
                        bad = "dual half at %s" % self.format(x2)
                        break
            checked += 1
        if checked < max(1, samples // 4) and bad is None:
            bad = "insufficient usable samples (%d)" % checked
        return SampleVerdict("difference-consistency", bad is None, checked, seed, bad)


# -- symbolic constructors ---------------------------------------------------


def _chain_product(n: int, group: PoGroupHandle, h=None) -> SymbolicPea:
    """Gamma(Z x_lex G, (n, h)): the level pairs over a chain of height n,
    with parts in the group, bounded above by h (default zero) at level n."""
    h = group.zero() if h is None else h
    return SymbolicPea(
        chain_table(n),
        group,
        h=h,
        levels=tuple(range(n + 1)),
        name="Gamma(Z-lex-%s, (%d,%s))" % (group.name, n, group.format(h)),
        ambient=LexExtensionGroup(group),
        to_ambient=lambda x: (x[0], x[1]),
    )


def lex_product_pea(
    n: int,
    group: PoGroupHandle,
    h=None,
    seed: int = 0,
    check_samples: int = 300,
) -> SymbolicPea:
    """The symbolic PEA of level pairs over a chain of height n: parts range
    over the group, bounded below at level 0 and above by h at level n.

    The group is probed first; a nonzero offset h is checked for centrality
    before the algebra may claim symmetry.  A sampled axiom suite runs at
    construction.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    probe = probe_pogroup(group, samples=max(200, check_samples), seed=seed)
    if not probe.passed:
        raise PreconditionError("group probe failed: %r" % (probe.failures,))
    symmetric_claim = True
    if h is not None and h != group.zero():
        central, _ = is_commutator(group, h, samples=500, seed=seed)
        symmetric_claim = central
    sym = _chain_product(n, group, h)
    sym.symmetric_claim = symmetric_claim
    for verdict in sym.sampled_axiom_report(seed=seed, samples=check_samples):
        if not verdict.passed:
            raise InconsistencyError(
                "sampled axiom %s failed at %s" % (verdict.name, verdict.witness)
            )
    return sym


def twisted_gamma() -> SymbolicPea:
    """The interval below (1,0,0) in the parity-twisted Z^3, presented as a
    two-level symbolic algebra with the swap twist on the top level."""
    base = chain_table(1)
    inner = IntVectorGroup(2, "pointwise")
    swap = lambda g: (g[1], g[0])
    ambient = TwistedZ3Group()
    sym = SymbolicPea(
        base,
        inner,
        h=(0, 0),
        levels=(0, 1),
        twist={base.one_i: swap},
        twist_inv={base.one_i: swap},
        name="Gamma(twisted-Z3, (1,0,0))",
        ambient=ambient,
        to_ambient=lambda x: (x[0], x[1][0], x[1][1]),
    )
    sym.ideal_predicates = {"kernel": lambda x: sym.level(x) == 0}
    return sym


def builtin_pea(name: str, group: Optional[PoGroupHandle] = None):
    """Builtin algebras: finite tables (diamond, boolean4, chain:n) and the
    symbolic worked examples (example46, example47, twisted_gamma).  Only
    example47 takes a group (Z by default)."""
    name = name.lower()
    if group is not None and name != "example47":
        raise InputError("only the builtin example47 takes a group, not %r" % (name,))
    if name == "diamond":
        return diamond_table()
    if name == "boolean4":
        return boolean4_table()
    if name.startswith("chain:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise InputError("bad chain spec %r" % (name,)) from None
        return chain_table(n)
    if name == "example46":
        return SymbolicPea(
            diamond_table(),
            IntVectorGroup(1, "pointwise"),
            levels=(0, 1, 1, 2),
            name="example46: diamond lex Z",
        )
    if name == "example47":
        g = group or IntVectorGroup(1, "pointwise")
        sym = SymbolicPea(
            boolean4_table(),
            g,
            levels=(0, 1, 1, 2),
            name="example47: boolean4 lex %s" % (g.name,),
        )
        a_i = sym.base.index("a")
        b_i = sym.base.index("a'")
        sym.ideal_predicates = {
            "I_a": lambda x: sym.level(x) == 0 or x[0] == a_i,
            "I_b": lambda x: sym.level(x) == 0 or x[0] == b_i,
            "E_0": lambda x: sym.level(x) == 0,
        }
        return sym
    if name == "twisted_gamma":
        return twisted_gamma()
    raise InputError("unknown builtin %r" % (name,))


# -- measures and the representation machinery -------------------------------


@dataclass
class Measure:
    """A group-valued measure on a symbolic algebra: additive wherever sums
    exist, which is checked on samples."""

    domain: SymbolicPea
    codomain: PoGroupHandle
    fn: Callable
    name: str = "measure"

    def __post_init__(self):
        if not isinstance(self.domain, SymbolicPea):
            raise InputError(
                "a Measure is sampled on a SymbolicPea, not a %s; the states of a finite "
                "table are solved exactly by states.solve_state_space"
                % (type(self.domain).__name__,))

    def __call__(self, x):
        return self.fn(x)

    def verify_additivity(self, seed: int = 0, samples: int = 500, bound: int = 8) -> SampleVerdict:
        fn, K = self.fn, self.codomain
        probe = _additivity_probe(self.domain, lambda x, y, s: K.add(fn(x), fn(y)) == fn(s))
        return _sampled("measure-additivity", seed, samples, probe,
                        self.domain._member_draw(bound), 2)


def _require_chain_presentation(E: SymbolicPea) -> None:
    if E.twist:
        raise NotStrongError("presentation carries a twist; not a chain lex product")
    if sorted(E.levels) != list(range(E.n + 1)):
        raise NotStrongError("base is not a chain: levels %r" % (E.levels,))


@dataclass
class RepresentationReport:
    phi: Callable
    target: SymbolicPea
    cyclic_element: Tuple
    verdicts: Tuple[SampleVerdict, ...]
    # sampled probes cannot decide every interval hypothesis; anything taken
    # on trust from the presentation is listed here rather than claimed
    assumptions: Tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def strong_perfect_representation(
    E: SymbolicPea,
    c,
    samples: int = 1000,
    seed: int = 0,
    bound: int = 10,
) -> RepresentationReport:
    """The canonical isomorphism onto the zero-offset chain product.

    A member x at level i maps to (i, (ic)/x) where the division is the group
    difference against the i-fold multiple of the strong cyclic element c.
    Exact preconditions: nc equals the unit.  Probed preconditions:
    centrality of c and torsion-freeness of the presentation group.
    Additivity, order reflection, injectivity, and constructive surjectivity
    are verified on samples.
    """
    _require_chain_presentation(E)
    G = E.group
    n = E.n
    if not E.is_member(c) or E.level(c) != 1:
        raise NotCyclicError("cyclic candidate must be a level-1 member")
    nc = E.scale(n, c)
    if nc != E.one_el:
        raise NotCyclicError(
            "n*c = %s differs from the unit %s"
            % ("undefined" if nc is None else E.format(nc), E.format(E.one_el))
        )
    central, cw = is_commutator(G, c[1], samples=samples, seed=seed, bound=bound)
    if not central:
        raise NotStrongError("cyclic candidate is not central: witness %s" % (G.format(cw),))
    if E.ambient is not None and E.to_ambient is not None and not G.abelian:
        if not is_commutator(E.ambient, E.to_ambient(c), samples, seed, bound)[0]:
            raise NotStrongError("cyclic candidate not central in the ambient group")
    tf, tw = probe_torsion_free(G, samples=min(samples, 500), seed=seed, bound=bound)
    if not tf:
        raise NotStrongError("presentation group is not torsion-free: %r" % (tw,))

    target = _chain_product(n, G)

    def phi(x):
        i = E.level(x)
        part = G.add(G.neg(G.scale(i, c[1])), x[1])
        y = (i, part)
        if not target.is_member(y):
            raise InconsistencyError("phi left the target at %s" % (E.format(x),))
        return y

    def phi_additive(x, y, s):
        t = target.add(phi(x), phi(y))
        return t is not None and t == phi(s)

    def order_reflected(x, y):
        if E.le(x, y) != target.le(phi(x), phi(y)):
            return "(%s, %s)" % (E.format(x), E.format(y))

    def injective(x, y):
        if x != y and phi(x) == phi(y):
            return "(%s, %s)" % (E.format(x), E.format(y))

    def surjective(t):
        i = target.level(t)
        preimage = (E.levels.index(i), G.add(G.scale(i, c[1]), t[1]))
        if not E.is_member(preimage) or phi(preimage) != t:
            return target.format(t)

    rng = random.Random(seed)
    draw = E._member_draw(bound)
    verdicts = tuple(
        _sampled(name, seed, samples, probe, members, arity, rng)
        for name, probe, members, arity in (
            ("phi-additivity", _additivity_probe(E, phi_additive), draw, 2),
            ("phi-order-reflection", order_reflected, draw, 2),
            ("phi-injectivity", injective, draw, 2),
            ("phi-surjectivity", surjective, target._member_draw(bound), 1),
        )
    )
    report = RepresentationReport(
        phi, target, c, verdicts,
        assumptions=(
            "refinement property of the ambient group taken on trust from the presentation",
        ),
    )
    if not report.passed:
        raise InconsistencyError(
            "representation verification failed: %r"
            % ([v for v in verdicts if not v.passed],)
        )
    return report


@dataclass
class LiftedMorphism:
    fn: Callable
    domain: SymbolicPea
    codomain: SymbolicPea
    verdicts: Tuple[SampleVerdict, ...]

    def __call__(self, x):
        return self.fn(x)


def lift_group_hom(
    h: Callable,
    n: int,
    domain_group: PoGroupHandle,
    codomain_group: PoGroupHandle,
    samples: int = 500,
    seed: int = 0,
    bound: int = 10,
) -> LiftedMorphism:
    """Lift a group homomorphism to the chain products: (i, g) -> (i, h(g)).

    The callable is first probed for additivity; the lift is then checked to
    preserve levels/membership and to be additive on sampled sums."""

    def nonadditive(a, b):
        if codomain_group.add(h(a), h(b)) != h(domain_group.add(a, b)):
            return "(%s, %s)" % (domain_group.format(a), domain_group.format(b))

    rng = random.Random(seed)
    bad = _first_witness(rng, samples, nonadditive, _element_draw(domain_group, bound), 2)
    if bad is not None:
        raise InputError("callable is not additive at %s" % (bad,))
    E = _chain_product(n, domain_group)
    F = _chain_product(n, codomain_group)

    def f(x):
        return (x[0], h(x[1]))

    def level_preserved(x):
        y = f(x)
        if not F.is_member(y) or F.level(y) != E.level(x):
            return E.format(x)

    def f_additive(x, y, s):
        t = F.add(f(x), f(y))
        return t is not None and t == f(s)

    draw = E._member_draw(bound)
    levels = _sampled("level-preservation", seed, samples, level_preserved, draw, rng=rng)
    if not levels.passed:
        raise InputError("lift does not preserve levels/membership at %s" % (levels.witness,))
    additivity = _sampled("lift-additivity", seed, samples, _additivity_probe(E, f_additive),
                          draw, 2, rng)
    if not additivity.passed:
        raise InputError("lift is not additive at %s" % (additivity.witness,))
    return LiftedMorphism(f, E, F, (levels, additivity))


@dataclass
class ExtensionReport:
    phi_star: Callable
    verdicts: Tuple[SampleVerdict, ...]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def universal_group_extension(
    phi: Measure,
    samples: int = 300,
    presentation_pairs: int = 150,
    seed: int = 0,
    bound: int = 8,
) -> ExtensionReport:
    """Extend a measure on the chain product to its whole ambient group.

    The extension evaluates (m, w) as m*phi(1,0) + phi(0,g1) - phi(0,g2) over
    a positive presentation w = g1 - g2; well-definedness is verified across
    independently sampled right- and left-hand presentations, and the
    homomorphism property plus the factorization through the embedding are
    verified on samples."""
    E = phi.domain
    _require_chain_presentation(E)
    if E.h != E.group.zero():
        raise PreconditionError("universal extension needs the zero-offset product")
    G = E.group
    K = phi.codomain
    add_check = phi.verify_additivity(seed=seed, samples=samples, bound=bound)
    if not add_check.passed:
        raise PreconditionError("measure is not additive: %s" % (add_check.witness,))
    one_level = (E.levels.index(1), G.zero())
    phi10 = phi(one_level)

    def eval_right(m, g1, g2):
        acc = K.scale(m, phi10)
        acc = K.add(acc, phi((E.base.zero_i, g1)))
        return K.add(acc, K.neg(phi((E.base.zero_i, g2))))

    def eval_left(m, k1, k2):
        acc = K.scale(m, phi10)
        acc = K.add(acc, K.neg(phi((E.base.zero_i, k1))))
        return K.add(acc, phi((E.base.zero_i, k2)))

    canonical = {}

    def phi_star(x):
        # any presentation works (that is what well-definedness certifies),
        # so a fixed-seed pick keeps the callable deterministic; the pick
        # depends on the part w only, and seeding costs more than the draw
        m, w = x
        if w not in canonical:
            canonical[w] = G.nonneg_presentations(random.Random(7), bound, w, 1)[0]
        g1, g2 = canonical[w]
        return eval_right(m, g1, g2)

    def presentations(rng):
        # per sample: a level m, a part w, two right-hand presentations of w
        # and the k1 of a left-hand one, w = -k1 + k2 with k2 = k1 + w
        for m, w in zip(_int_stream(rng, -2 * E.n, 2 * E.n), G.stream(rng, bound)):
            yield (m, w, G.nonneg_presentations(rng, bound, w, 2),
                   G.sample_dominating(rng, bound, w))

    def well_defined(sample):
        m, w, ((g1, g2), (g3, g4)), k1 = sample
        first = eval_right(m, g1, g2)
        if first != eval_right(m, g3, g4):
            raise WellDefinednessError(
                "presentations disagree at level %d" % (m,),
                (G.format(g1), G.format(g2)),
                (G.format(g3), G.format(g4)),
            )
        k2 = G.add(k1, w)
        if G.is_positive(k2) and first != eval_left(m, k1, k2):
            raise WellDefinednessError(
                "left and right presentations disagree at level %d" % (m,),
                (G.format(g1), G.format(g2)),
                (G.format(k1), G.format(k2)),
            )
        if phi_star((m, w)) != first:
            raise WellDefinednessError(
                "canonical evaluation disagrees with sampled presentation",
                (G.format(g1), G.format(g2)),
                ("canonical",),
            )

    def homomorphic(x, y):
        total = (x[0] + y[0], G.add(x[1], y[1]))
        if phi_star(total) != K.add(phi_star(x), phi_star(y)):
            return "(%d,%s) + (%d,%s)" % (x[0], G.format(x[1]), y[0], G.format(y[1]))

    def factors(x):
        if phi_star((E.level(x), x[1])) != phi(x):
            return E.format(x)

    rng = random.Random(seed)
    verdicts = (
        _sampled("well-definedness", seed, presentation_pairs, well_defined, presentations,
                 rng=rng),
        _sampled("homomorphism", seed, samples, homomorphic,
                 lambda rng: zip(_int_stream(rng, -E.n, 2 * E.n), G.stream(rng, bound)),
                 2, rng),
        _sampled("factors-through-embedding", seed, samples, factors, E._member_draw(bound),
                 rng=rng),
    )
    report = ExtensionReport(phi_star, verdicts)
    if not report.passed:
        raise InconsistencyError(
            "universal extension verification failed: %r"
            % ([v for v in report.verdicts if not v.passed],)
        )
    return report
