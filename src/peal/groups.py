"""Pluggable partially ordered groups with exact integer-tuple elements.

Every handle offers exact arithmetic (add, neg, zero), the positivity
predicate deciding the order, one seeded sampler (``stream``, a lazy, endless
stream of elements or of positive elements), and a few constructive helpers
(upper bounds, positive presentations g = g1 - g2) that the constructions
module leans on.  Every draw of peal comes from one kernel, ``_box_stream``:
one generator per stream, whose frame runs the rejection loop of
``Random.randint`` on ``getrandbits`` and draws each point when it is taken.
Properties of infinite structures are only ever probed on samples; reports
carry the sample count and seed and never upgrade a sampled pass to a
universal claim.  Every sampled verdict of peal runs on one loop,
``_first_witness``, over a lazy, endless draw stream, but for one that draws
sequentially because what it draws depends on what it drew: difference
consistency of a symbolic algebra.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from .core import InputError, PealError


class InfiniteIntervalError(PealError):
    """The interval [0, u] is provably infinite; use the symbolic route."""


class BoundExceededError(PealError):
    """Enumeration exceeded the requested cap."""


def _box_stream(rng: random.Random, lo: int, hi: int, k: int) -> Iterator[Tuple[int, ...]]:
    """The endless stream of points of the box [lo, hi]^k, each drawn when it
    is taken: its k coordinates, in order, each a uniform integer in [lo, hi]
    drawn exactly as ``Random.randint`` draws it.

    The one draw kernel of peal, and the one function that names
    ``getrandbits``: it refuses an empty range at once, gives ``()`` for
    every point at k = 0, and otherwise hands the bound ``rng.getrandbits``
    to ``_box_points``, one generator whose frame holds the whole draw.  So
    the stream makes the same calls on the generator as ``Random.randint``
    and ``Random.randrange`` do on Python >= 3.10 and leaves it in the same
    state, and a sampled verdict depends only on its seed and sample count."""
    n = hi - lo + 1
    if n <= 0:
        raise ValueError("empty range [%d, %d]" % (lo, hi))
    if not k:
        return itertools.repeat(())
    return _box_points(rng.getrandbits, n.bit_length(), n, lo, k)


def _box_points(draw: Callable[[int], int], b: int, n: int, lo: int,
                k: int) -> Iterator[Tuple[int, ...]]:
    """The points of ``_box_stream`` for k >= 1, n the range width and b its
    bit length.  Each coordinate is the rejection loop of
    ``Random._randbelow_with_getrandbits``: ``draw(b)``, redrawn while it is
    at least n, then shifted by lo.  A generator draws nothing before its
    first ``next``, and each ``next`` draws one point, so nothing past the
    last point taken is drawn.  The points of one and two coordinates, which
    most draws are, are written out; longer ones take a loop."""
    if k == 1:
        while True:
            r = draw(b)
            while r >= n:
                r = draw(b)
            yield (lo + r,)
    if k == 2:
        while True:
            r = draw(b)
            while r >= n:
                r = draw(b)
            s = draw(b)
            while s >= n:
                s = draw(b)
            yield (lo + r, lo + s)
    coordinates = range(k)
    while True:
        point = []
        for _ in coordinates:
            r = draw(b)
            while r >= n:
                r = draw(b)
            point.append(lo + r)
        yield tuple(point)


def _int_stream(rng: random.Random, lo: int, hi: int) -> Iterator[int]:
    """The endless stream of uniform integers in [lo, hi], each drawn when it
    is taken, as ``Random.randint`` draws it."""
    return itertools.chain.from_iterable(_box_stream(rng, lo, hi, 1))


def _lead_stream(rng: random.Random, bound: int, g, rest: Iterator[tuple]) -> Iterator[tuple]:
    """The stream of (lead,) + r with lead = |g[0]| + 1 plus a draw from
    [0, bound] and r the next of ``rest``, drawn in that order."""
    offset = abs(g[0]) + 1
    return ((offset + lead,) + r for (lead,), r in zip(_box_stream(rng, 0, bound, 1), rest))


class PoGroupHandle:
    """Base interface; concrete groups override the arithmetic, the order
    and ``stream``, their one sampler, and may add ``dominating_stream``."""

    name = "group"
    abelian = False

    def zero(self):
        raise NotImplementedError

    def add(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def is_positive(self, x) -> bool:
        raise NotImplementedError

    def le(self, x, y) -> bool:
        return self.is_positive(self.add(y, self.neg(x)))

    def scale(self, m: int, x):
        acc = self.zero()
        step = x if m >= 0 else self.neg(x)
        for _ in range(abs(m)):
            acc = self.add(acc, step)
        return acc

    def format(self, x) -> str:
        return repr(x)

    def stream(self, rng: random.Random, bound: int, nonneg: bool = False) -> Iterator:
        """The endless stream of elements (positive elements with ``nonneg``)
        drawn from ``rng`` at ``bound``, each drawn only when it is taken.

        The one sampler of a handle: every probe, every member stream of a
        symbolic algebra and ``sample``/``sample_nonneg`` take their draws
        from it, so a subclass that overrides it changes them all.  Streams
        on one generator interleave: taking from one draws exactly what its
        element needs.  A negative bound raises ``ValueError``."""
        raise NotImplementedError

    def sample(self, rng: random.Random, bound: int):
        return next(self.stream(rng, bound))

    def sample_nonneg(self, rng: random.Random, bound: int):
        return next(self.stream(rng, bound, nonneg=True))

    def sample_dominating(self, rng: random.Random, bound: int, g):
        """Some d >= 0 with g + d >= 0 (used for positive presentations)."""
        return next(self.dominating_stream(rng, bound, g))

    def dominating_stream(self, rng: random.Random, bound: int, g) -> Iterator:
        """The endless stream of ``sample_dominating`` draws for ``g``, each
        drawn when it is taken, exactly as repeated calls draw them."""
        raise NotImplementedError

    def upper_bound(self, x, y):
        """A constructive witness c with x, y <= c."""
        raise NotImplementedError

    def interval_elements(self, u, cap: int) -> List:
        """All elements of [0, u], or raise when infinite / above cap."""
        raise InfiniteIntervalError(
            "%s does not support finite interval enumeration" % (self.name,)
        )

    def nonneg_presentations(self, rng: random.Random, bound: int, g, count: int):
        """Pairs (g1, g2), both >= 0, with g1 - g2 = g (i.e. g1 = g + g2),
        the g2 taken from one dominating stream."""
        out = []
        for g2 in itertools.islice(self.dominating_stream(rng, bound, g), count):
            g1 = self.add(g, g2)
            if not (self.is_positive(g1) and self.is_positive(g2)):
                raise InputError("dominating sample failed to produce a presentation")
            out.append((g1, g2))
        return out

    def __repr__(self):
        return "<po-group %s>" % (self.name,)


def _add1(x, y):
    return (x[0] + y[0],)


def _add2(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _add(x, y):
    return tuple(map(operator.add, x, y))


def _neg1(x):
    return (-x[0],)


def _neg2(x):
    return (-x[0], -x[1])


def _neg(x):
    return tuple(map(operator.neg, x))


def _nonneg(x):
    return min(x) >= 0


def _le2(x, y):
    return x[0] <= y[0] and x[1] <= y[1]


def _le(x, y):
    return all(map(operator.le, x, y))


class IntVectorGroup(PoGroupHandle):
    """Z^k with the pointwise or lexicographic order.

    An exact instance binds ``add``, ``neg``, ``is_positive`` and ``le`` for
    its dimension and order once, at construction: they are the hot path of
    every sampled verdict.  The lex order is the order of Python tuples.  A
    subclass keeps the generic methods, so its overrides, and a ``le`` read
    off its own cone, hold."""

    def __init__(self, k: int, order: str = "pointwise"):
        if k < 1:
            raise InputError("dimension must be >= 1")
        if order not in ("pointwise", "lex"):
            raise InputError("order must be 'pointwise' or 'lex'")
        self.k = k
        self.order = order
        self.name = "Z^%d(%s)" % (k, order)
        self.abelian = True
        if type(self) is IntVectorGroup:
            self.add = {1: _add1, 2: _add2}.get(k, _add)
            self.neg = {1: _neg1, 2: _neg2}.get(k, _neg)
            if order == "lex" or k == 1:
                # on Z the pointwise order is the lex order
                self.is_positive = functools.partial(operator.le, self.zero())
                self.le = operator.le
            else:
                self.is_positive = _nonneg
                self.le = _le2 if k == 2 else _le

    def zero(self):
        return (0,) * self.k

    def add(self, x, y):
        return _add(x, y)

    def neg(self, x):
        return _neg(x)

    def is_positive(self, x) -> bool:
        if self.order == "pointwise":
            return _nonneg(x)
        return x >= self.zero()

    def format(self, x) -> str:
        if self.k == 1:
            return str(x[0])
        return "(%s)" % ",".join(str(a) for a in x)

    def stream(self, rng, bound, nonneg=False):
        if not nonneg:
            return _box_stream(rng, -bound, bound, self.k)
        if self.order == "pointwise":
            return _box_stream(rng, 0, bound, self.k)
        return self._lex_cone(rng, bound)

    def _lex_cone(self, rng, bound):
        # zero leading coordinates, each drawn from [0, bound], up to the
        # first positive one; the coordinates after it are free
        k = self.k
        leads, free = _int_stream(rng, 0, bound), _int_stream(rng, -bound, bound)
        while True:
            for zeros, lead in zip(range(k), leads):
                if lead:
                    yield (0,) * zeros + (lead,) + tuple(itertools.islice(free, k - zeros - 1))
                    break
            else:
                yield (0,) * k

    def dominating_stream(self, rng, bound, g):
        if self.order == "pointwise":
            floor = tuple(max(-a, 0) for a in g)
            return map(functools.partial(_add, floor), _box_stream(rng, 0, bound, len(g)))
        return _lead_stream(rng, bound, g, _box_stream(rng, -bound, bound, self.k - 1))

    def upper_bound(self, x, y):
        if self.order == "pointwise":
            return tuple(max(a, b) for a, b in zip(x, y))
        return x if self.le(y, x) else y

    def interval_elements(self, u, cap):
        if not self.is_positive(u):
            return []
        if self.order == "pointwise":
            total = 1
            for a in u:
                total *= a + 1
            if total > cap:
                raise BoundExceededError(
                    "interval has %d elements, cap is %d" % (total, cap)
                )
            def rec(prefix, rest):
                if not rest:
                    yield prefix
                    return
                for v in range(rest[0] + 1):
                    yield from rec(prefix + (v,), rest[1:])
            return list(rec((), u))
        # lex order: finite only when all leading coordinates vanish
        if any(a != 0 for a in u[:-1]):
            raise InfiniteIntervalError(
                "lex interval [0, %s] is infinite" % (self.format(u),)
            )
        if u[-1] + 1 > cap:
            raise BoundExceededError("interval exceeds cap %d" % (cap,))
        return [(0,) * (self.k - 1) + (v,) for v in range(u[-1] + 1)]


class TwistedZ3Group(PoGroupHandle):
    """Z^3 with parity-twisted addition and the level-then-pointwise order.

    Adding (x, y, z) on the right swaps the first operand's last two
    coordinates when x is odd; a lattice-ordered group with strong unit
    (1, 0, 0).
    """

    name = "twisted-Z3"
    abelian = False
    k = 3

    def zero(self):
        return (0, 0, 0)

    def add(self, x, y):
        a, b, c = x
        p, q, r = y
        if p % 2 == 0:
            return (a + p, b + q, c + r)
        return (a + p, c + q, b + r)

    def neg(self, x):
        a, b, c = x
        if a % 2 == 0:
            return (-a, -b, -c)
        return (-a, -c, -b)

    def is_positive(self, x) -> bool:
        a, b, c = x
        return a > 0 or (a == 0 and b >= 0 and c >= 0)

    def le(self, x, y) -> bool:
        # y - x = y + neg(x) has level p - a and, whatever the parity of a,
        # the parts q - b and r - c (in some order)
        a, b, c = x
        p, q, r = y
        return p > a or (p == a and b <= q and c <= r)

    def format(self, x) -> str:
        return "(%s)" % ",".join(str(a) for a in x)

    def stream(self, rng, bound, nonneg=False):
        if not nonneg:
            return _box_stream(rng, -bound, bound, 3)
        # level 0 needs both parts positive; above it they are free
        cone, free = _box_stream(rng, 0, bound, 2), _box_stream(rng, -bound, bound, 2)
        return ((lead,) + next(free if lead else cone) for lead in _int_stream(rng, 0, bound))

    def dominating_stream(self, rng, bound, g):
        return _lead_stream(rng, bound, g, _box_stream(rng, -bound, bound, 2))

    def upper_bound(self, x, y):
        return (max(x[0], y[0]) + 1, 0, 0)

    def interval_elements(self, u, cap):
        if not self.is_positive(u):
            return []
        if u[0] >= 1:
            raise InfiniteIntervalError(
                "interval [0, %s] in the twisted group is infinite" % (self.format(u),)
            )
        total = (u[1] + 1) * (u[2] + 1)
        if total > cap:
            raise BoundExceededError("interval has %d elements, cap is %d" % (total, cap))
        return [(0, b, c) for b in range(u[1] + 1) for c in range(u[2] + 1)]


class LexExtensionGroup(PoGroupHandle):
    """Z lex-extended by another group: pairs (m, g) ordered lexicographically;
    the group law is componentwise."""

    def __init__(self, inner: PoGroupHandle):
        self.inner = inner
        self.name = "Z-lex-(%s)" % (inner.name,)
        self.abelian = inner.abelian

    def zero(self):
        return (0, self.inner.zero())

    def add(self, x, y):
        return (x[0] + y[0], self.inner.add(x[1], y[1]))

    def neg(self, x):
        return (-x[0], self.inner.neg(x[1]))

    def is_positive(self, x) -> bool:
        if x[0] != 0:
            return x[0] > 0
        return self.inner.is_positive(x[1])

    def format(self, x) -> str:
        return "(%d,%s)" % (x[0], self.inner.format(x[1]))

    def stream(self, rng, bound, nonneg=False):
        if not nonneg:
            return zip(_int_stream(rng, -bound, bound), self.inner.stream(rng, bound))
        cone, free = self.inner.stream(rng, bound, nonneg=True), self.inner.stream(rng, bound)
        return ((lead, next(free if lead else cone)) for lead in _int_stream(rng, 0, bound))

    def dominating_stream(self, rng, bound, g):
        return _lead_stream(rng, bound, g, zip(self.inner.stream(rng, bound)))

    def upper_bound(self, x, y):
        return (max(x[0], y[0]) + 1, self.inner.zero())

    def interval_elements(self, u, cap):
        if not self.is_positive(u):
            return []
        if u[0] >= 1:
            raise InfiniteIntervalError(
                "interval [0, %s] in a lex extension is infinite" % (self.format(u),)
            )
        return [(0, g) for g in self.inner.interval_elements(u[1], cap)]


class DerivedConeGroup(PoGroupHandle):
    """Same group law as the base handle, with a replaced positive cone.

    Used for automorphism-obfuscated presentations and for the group carved
    out of a symbolic algebra's bottom slice.
    """

    def __init__(self, base: PoGroupHandle, positive: Callable, name: str,
                 sample_nonneg: Optional[Callable] = None,
                 sample_dominating: Optional[Callable] = None):
        self.base = base
        self._positive = positive
        self.name = name
        self.abelian = base.abelian
        self._sample_nonneg = sample_nonneg
        self._sample_dominating = sample_dominating

    def zero(self):
        return self.base.zero()

    def add(self, x, y):
        return self.base.add(x, y)

    def neg(self, x):
        return self.base.neg(x)

    def is_positive(self, x):
        return self._positive(x)

    def format(self, x):
        return self.base.format(x)

    def stream(self, rng, bound, nonneg=False):
        if not nonneg:
            return self.base.stream(rng, bound)
        if self._sample_nonneg is not None:
            return map(self._sample_nonneg, itertools.repeat(rng), itertools.repeat(bound))
        return self._rejection_cone(rng, bound)

    def _rejection_cone(self, rng, bound):
        # per point, the first positive of at most 200 base points
        points = self.base.stream(rng, bound)
        while True:
            for g in filter(self.is_positive, itertools.islice(points, 200)):
                yield g
                break
            else:
                raise InputError("rejection sampling of the cone failed for %s" % (self.name,))

    def dominating_stream(self, rng, bound, g):
        if self._sample_dominating is not None:
            return map(self._sample_dominating, itertools.repeat(rng), itertools.repeat(bound),
                       itertools.repeat(g))
        return self._rejection_dominating(rng, bound, g)

    def _rejection_dominating(self, rng, bound, g):
        # per element, the first of at most 200 points of the cone that
        # dominates g
        cone = self.stream(rng, bound, nonneg=True)
        while True:
            for d in itertools.islice(cone, 200):
                if self.is_positive(self.add(g, d)):
                    yield d
                    break
            else:
                raise InputError("no dominating element found for %s" % (self.name,))

    def upper_bound(self, x, y):
        return self.base.upper_bound(x, y)


@dataclass(frozen=True)
class UnitalPoGroup:
    group: PoGroupHandle
    u: object

    def __post_init__(self):
        if not self.group.is_positive(self.u):
            raise InputError("strong unit candidate must be positive")


def builtin_group(spec: str, order: str = "pointwise") -> PoGroupHandle:
    """Builtin group from a CLI-style spec: 'z:K' (with order), 'twisted-z3',
    or 'lex:z:K' for the lex extension of Z^K."""
    spec = spec.lower()
    if spec == "twisted-z3":
        return TwistedZ3Group()
    if spec.startswith("z:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError:
            raise InputError("bad group spec %r" % (spec,)) from None
        return IntVectorGroup(k, order)
    if spec.startswith("lex:z:"):
        try:
            k = int(spec.rsplit(":", 1)[1])
        except ValueError:
            raise InputError("bad group spec %r" % (spec,)) from None
        return LexExtensionGroup(IntVectorGroup(k, order))
    raise InputError("unknown group spec %r" % (spec,))


def parse_element(group: PoGroupHandle, text: str):
    """The element of a builtin group written as comma-separated integers:
    K of them for Z^K, 3 for the twisted Z^3, and m, g1..gK for the element
    (m, (g1..gK)) of the lex extension of Z^K."""
    try:
        ints = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError("expected comma-separated integers, got %r" % (text,)) from None
    lex = isinstance(group, LexExtensionGroup) and isinstance(group.inner, IntVectorGroup)
    if lex:
        width = 1 + group.inner.k
    elif isinstance(group, (IntVectorGroup, TwistedZ3Group)):
        width = group.k
    else:
        raise InputError("no element syntax for %s" % (group.name,))
    if len(ints) != width:
        raise InputError(
            "%s needs %d comma-separated integers, got %r" % (group.name, width, text)
        )
    return (ints[0], ints[1:]) if lex else ints


# -- the sampled verdict loop ---------------------------------------------


@dataclass(frozen=True)
class SampleVerdict:
    name: str
    passed: bool
    samples: int
    seed: int
    witness: Optional[str] = None


def _first_witness(rng: random.Random, samples: int, probe: Callable, draw: Callable,
                   arity: int = 1):
    """The first non-None result of ``probe`` over ``samples`` samples, or None.

    The one loop of every sampled verdict.  ``draw(rng)`` is an endless,
    lazy stream of values; each sample takes the next ``arity`` of them
    ahead of ``probe(*values)``: a probe draws all its values before it
    tests them.  Nothing past the last tested sample is drawn, so a verdict
    that shares the generator with later ones leaves it where sample by
    sample drawing would, and a draw that raises surfaces only when a
    sample reaches it.  Difference consistency does not run here: what it
    draws depends on what it drew.
    """
    if samples < 1:
        raise InputError("samples must be at least 1, got %d" % (samples,))
    tuples = zip(*[draw(rng)] * arity)
    for _ in range(samples):
        witness = probe(*next(tuples))
        if witness is not None:
            return witness
    return None


def _sampled(name: str, seed: int, samples: int, probe: Callable, draw: Callable,
             arity: int = 1, rng=None) -> SampleVerdict:
    """Verdict of ``probe`` (as ``_first_witness`` runs it) on ``samples``
    samples from a generator seeded with ``seed``, or from ``rng`` when
    several verdicts share one stream."""
    rng = random.Random(seed) if rng is None else rng
    bad = _first_witness(rng, samples, probe, draw, arity)
    return SampleVerdict(name, bad is None, samples, seed, bad)


# -- probes ---------------------------------------------------------------
# Each owns its generator, so it may draw values it never tests.


@dataclass(frozen=True)
class ProbeReport:
    name: str
    passed: bool
    status: str
    samples: int
    seed: int
    failures: Tuple[Tuple[str, str], ...] = ()
    witnesses: Tuple[str, ...] = ()


def _report(kind: str, handle: PoGroupHandle, samples: int, seed: int, failure,
            witnesses=(), status: str = "fail") -> ProbeReport:
    """The report of a probe that found ``failure`` (None: it passed)."""
    passed = failure is None
    return ProbeReport("%s:%s" % (kind, handle.name), passed, "pass" if passed else status,
                       samples, seed, () if passed else (failure,), tuple(witnesses))


def _element_draw(handle: PoGroupHandle, bound: int) -> Callable:
    """``draw(rng)``: the stream of elements of ``handle`` at ``bound``."""
    return functools.partial(handle.stream, bound=bound)


def probe_pogroup(handle: PoGroupHandle, samples: int = 1000, seed: int = 0, bound: int = 10) -> ProbeReport:
    """Sampled po-group laws: associativity, identity, inverses, cone closure,
    antisymmetry, and translation invariance of the order."""
    add, neg, le, positive = handle.add, handle.neg, handle.le, handle.is_positive
    zero = handle.zero()

    def fail(check, *els):
        return check, ", ".join(handle.format(e) for e in els)

    def probe(a, b, c, p, q, lower):
        if add(add(a, b), c) != add(a, add(b, c)):
            return fail("associativity", a, b, c)
        if add(a, zero) != a or add(zero, a) != a:
            return fail("identity", a)
        minus_a = neg(a)
        if add(a, minus_a) != zero or add(minus_a, a) != zero:
            return fail("inverse", a)
        if not positive(add(p, q)):
            return fail("cone-closure", p, q)
        if positive(a) and positive(minus_a) and a != zero:
            return fail("antisymmetry", a)
        upper = add(lower, p)
        if not le(lower, upper):
            return fail("order-vs-cone", lower, upper)
        if not le(add(add(c, lower), b), add(add(c, upper), b)):
            return fail("translation-invariance", lower, upper, c, b)
        # lower <= upper holds here
        if not positive(add(neg(lower), upper)):
            return fail("left-right-difference", lower, upper)

    def draw(rng):
        # a, b, c from the elements, p, q from the cone, then lower
        elements = handle.stream(rng, bound)
        cone = handle.stream(rng, bound, nonneg=True)
        return map(next, itertools.cycle((elements, elements, elements, cone, cone, elements)))

    failure = _first_witness(random.Random(seed), samples, probe, draw, 6)
    return _report("pogroup", handle, samples, seed, failure)


def is_commutator(handle: PoGroupHandle, c, samples: int = 1000, seed: int = 0, bound: int = 10):
    """Sampled centrality of c; exact (no sampling) for declared-abelian groups."""
    if handle.abelian:
        return True, None

    def probe(x):
        if handle.add(x, c) != handle.add(c, x):
            return x

    x = _first_witness(random.Random(seed), samples, probe, _element_draw(handle, bound))
    return x is None, x


def probe_torsion_free(handle: PoGroupHandle, samples: int = 500, cap: int = 12, seed: int = 0, bound: int = 10):
    zero = handle.zero()

    def probe(g):
        if g == zero:
            return None
        acc = zero
        for m in range(1, cap + 1):
            acc = handle.add(acc, g)
            if acc == zero:
                return g, m

    witness = _first_witness(random.Random(seed), samples, probe, _element_draw(handle, bound))
    return witness is None, witness


def probe_strong_unit(unital: UnitalPoGroup, samples: int = 500, cap: int = 64, seed: int = 0, bound: int = 10) -> ProbeReport:
    """Per-sample witnesses n with g <= n*u; a sample with no witness within
    the cap makes the probe inconclusive, never false."""
    handle, u = unital.group, unital.u
    witnesses = []

    def probe(g):
        acc = handle.zero()
        for m in range(1, cap + 1):
            acc = handle.add(acc, u)
            if handle.le(g, acc):
                if len(witnesses) < 3:
                    witnesses.append("%s <= %d*u" % (handle.format(g), m))
                return None
        return "no-witness-within-cap", handle.format(g)

    unresolved = _first_witness(random.Random(seed), samples, probe, _element_draw(handle, bound))
    return _report("strong-unit", handle, samples, seed, unresolved, witnesses, "inconclusive")


def probe_directed(handle: PoGroupHandle, samples: int = 500, seed: int = 0, bound: int = 10) -> ProbeReport:
    witnesses = []

    def probe(a, b):
        c = handle.upper_bound(a, b)
        if not (handle.le(a, c) and handle.le(b, c)):
            return "upper-bound", "%s, %s" % (handle.format(a), handle.format(b))
        if len(witnesses) < 3:
            witnesses.append(handle.format(c))

    failure = _first_witness(random.Random(seed), samples, probe, _element_draw(handle, bound), 2)
    return _report("directed", handle, samples, seed, failure, witnesses)
