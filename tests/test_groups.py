import ast
import functools
import itertools
import os
import random
import re
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from peal.constructions import SymbolicPea, chain_table
from peal.core import InputError
from peal.groups import (
    BoundExceededError,
    DerivedConeGroup,
    InfiniteIntervalError,
    IntVectorGroup,
    LexExtensionGroup,
    PoGroupHandle,
    ProbeReport,
    TwistedZ3Group,
    UnitalPoGroup,
    _box_stream,
    _first_witness,
    _int_stream,
    builtin_group,
    is_commutator,
    probe_directed,
    probe_pogroup,
    probe_strong_unit,
    probe_torsion_free,
)

triples = hyp.tuples(
    hyp.integers(-50, 50), hyp.integers(-50, 50), hyp.integers(-50, 50)
)


def test_twisted_addition_values():
    tw = TwistedZ3Group()
    # second operand's first coordinate odd: the first operand's last two
    # coordinates swap before adding
    assert tw.add((1, 2, 3), (1, 0, 0)) == (2, 3, 2)
    assert tw.add((1, 2, 3), (2, 0, 0)) == (3, 2, 3)
    assert tw.add((0, 1, 2), (1, 10, 20)) == (1, 12, 21)


@settings(max_examples=200, deadline=None)
@given(x=triples, y=triples, z=triples)
def test_twisted_group_laws(x, y, z):
    tw = TwistedZ3Group()
    assert tw.add(tw.add(x, y), z) == tw.add(x, tw.add(y, z))
    assert tw.add(x, tw.neg(x)) == (0, 0, 0)
    assert tw.add(tw.neg(x), x) == (0, 0, 0)


@settings(max_examples=200, deadline=None)
@given(x=triples, y=triples, c=triples, d=triples)
def test_twisted_translation_invariance(x, y, c, d):
    tw = TwistedZ3Group()
    if tw.le(x, y):
        lhs = tw.add(tw.add(c, x), d)
        rhs = tw.add(tw.add(c, y), d)
        assert tw.le(lhs, rhs)


small = hyp.integers(-4, 4)


@settings(max_examples=300, deadline=None)
@given(k=hyp.integers(1, 4), order=hyp.sampled_from(("pointwise", "lex")), data=hyp.data())
def test_bound_vector_arithmetic_matches_componentwise_formulas(k, order, data):
    """The arithmetic an exact Z^k binds at construction, and the generic
    methods its subclasses keep, against the componentwise formulas."""
    g = IntVectorGroup(k, order)
    x, y = (data.draw(hyp.tuples(*[small] * k)) for _ in range(2))

    def positive(v):
        if order == "lex":
            return next((a for a in v if a != 0), 0) >= 0
        return all(a >= 0 for a in v)

    for add, neg, is_positive, le in (
            (g.add, g.neg, g.is_positive, g.le),
            (functools.partial(IntVectorGroup.add, g), functools.partial(IntVectorGroup.neg, g),
             functools.partial(IntVectorGroup.is_positive, g),
             functools.partial(PoGroupHandle.le, g))):
        assert add(x, y) == tuple(a + b for a, b in zip(x, y))
        assert neg(x) == tuple(-a for a in x)
        assert is_positive(x) == positive(x)
        assert le(x, y) == positive(tuple(b - a for a, b in zip(x, y)))
    assert g.le(x, y) == g.is_positive(g.add(y, g.neg(x)))


@settings(max_examples=300, deadline=None)
@given(x=triples, y=triples)
def test_twisted_le_is_the_generic_le(x, y):
    tw = TwistedZ3Group()
    assert tw.le(x, y) == PoGroupHandle.le(tw, x, y)
    near = (x[0], y[1], y[2])  # same level: the parts decide
    assert tw.le(x, near) == PoGroupHandle.le(tw, x, near)


@settings(max_examples=100, deadline=None)
@given(k=hyp.integers(1, 4), data=hyp.data())
def test_subclass_le_follows_its_own_neg(k, data):
    """A subclass that overrides ``neg`` alone binds nothing: its ``le`` is
    read off its own ``neg``, not the exact group's."""
    g = _SelfNegating(k)
    assert not {"add", "neg", "is_positive", "le"} & set(vars(g))
    x, y = (data.draw(hyp.tuples(*[small] * k)) for _ in range(2))
    assert g.le(x, y) == g.is_positive(g.add(y, x))
    assert _SelfNegating(1).le((2,), (-1,)) and not IntVectorGroup(1).le((2,), (-1,))


def test_pointwise_vectors():
    g = IntVectorGroup(2, "pointwise")
    assert g.add((1, 0), (0, 1)) == (1, 1)
    assert not g.le((1, 0), (0, 1)) and not g.le((0, 1), (1, 0))


def test_lex_positivity():
    g = LexExtensionGroup(IntVectorGroup(1))
    assert g.is_positive((0, (5,)))
    assert not g.is_positive((-1, (100,)))
    assert g.is_positive((3, (-100,)))


def test_builtin_group_specs():
    assert isinstance(builtin_group("twisted-z3"), TwistedZ3Group)
    assert builtin_group("z:3").k == 3
    assert builtin_group("z:2", order="lex").order == "lex"
    assert isinstance(builtin_group("lex:z:1"), LexExtensionGroup)
    with pytest.raises(InputError):
        builtin_group("so3")


def test_probes_pass_on_builtins():
    for handle in (
        IntVectorGroup(1),
        IntVectorGroup(3, "lex"),
        TwistedZ3Group(),
        LexExtensionGroup(TwistedZ3Group()),
    ):
        assert probe_pogroup(handle, samples=800, seed=2).passed
        assert probe_torsion_free(handle, samples=200, seed=2)[0]
        assert probe_directed(handle, samples=200, seed=2).passed


def test_probe_catches_broken_order():
    # deliberately broken: a "cone" that is not closed under conjugation
    base = TwistedZ3Group()
    broken = DerivedConeGroup(
        base,
        lambda g: g[0] > 0 or (g[0] == 0 and g[1] >= 0 and g[2] >= g[1]),
        "broken-cone",
    )
    report = probe_pogroup(broken, samples=3000, seed=5)
    assert not report.passed


class _Subtracting(IntVectorGroup):
    """Z under x - y, which is not associative."""

    def add(self, x, y):
        return (x[0] - y[0],)


class _Shifted(IntVectorGroup):
    """Z under x + y + 1: associative, but 0 is no identity."""

    def add(self, x, y):
        return (x[0] + y[0] + 1,)


class _SelfNegating(IntVectorGroup):
    """Z whose neg is the identity map, so only 0 has its inverse."""

    def neg(self, x):
        return x


class _ConeWithoutOne(IntVectorGroup):
    """Z whose cone leaves out 1 while ``le`` keeps the order of Z."""

    def is_positive(self, x):
        return x[0] >= 0 and x[0] != 1

    def le(self, x, y):
        return x[0] <= y[0]


@pytest.mark.parametrize("handle, failure", [
    (_Subtracting(1), ("associativity", "2, 3, -9")),
    (_Shifted(1), ("identity", "2")),
    (_SelfNegating(1), ("inverse", "2")),
    (DerivedConeGroup(IntVectorGroup(1), lambda g: 0 <= g[0] <= 3, "bounded-cone"),
     ("cone-closure", "2, 3")),
    (_ConeWithoutOne(1), ("left-right-difference", "2, 3")),
], ids=lambda v: v[0] if isinstance(v, tuple) else type(v).__name__)
def test_probe_names_the_first_broken_law(handle, failure):
    """One handle per law that breaks that law and none checked before it."""
    report = probe_pogroup(handle, samples=100, seed=0)
    assert not report.passed and report.status == "fail"
    assert report.failures == (failure,)


def test_commutators():
    tw = TwistedZ3Group()
    assert is_commutator(tw, (0, 1, 1), samples=1500, seed=0) == (True, None)
    ok, witness = is_commutator(tw, (0, 1, 0), samples=1500, seed=0)
    assert not ok and witness[0] % 2 == 1
    assert is_commutator(IntVectorGroup(4), (1, 2, 3, 4), samples=1, seed=0)[0]


def test_torsion_witness_on_mock():
    class Z2(PoGroupHandle):
        name = "Z/2"
        abelian = True

        def zero(self):
            return (0,)

        def add(self, x, y):
            return ((x[0] + y[0]) % 2,)

        def neg(self, x):
            return ((-x[0]) % 2,)

        def is_positive(self, x):
            return True

        def stream(self, rng, bound, nonneg=False):
            while True:
                yield (rng.randint(0, 1),)

    ok, witness = probe_torsion_free(Z2(), samples=50, seed=1)
    assert not ok and witness[1] == 2


def test_strong_unit_probes():
    assert probe_strong_unit(
        UnitalPoGroup(TwistedZ3Group(), (1, 0, 0)), samples=300, seed=3
    ).passed
    assert probe_strong_unit(
        UnitalPoGroup(IntVectorGroup(1), (1,)), samples=300, seed=3
    ).passed
    report = probe_strong_unit(
        UnitalPoGroup(IntVectorGroup(2), (1, 0)), samples=300, seed=3
    )
    assert not report.passed and report.status == "inconclusive"


def test_interval_enumeration():
    g = IntVectorGroup(2)
    box = g.interval_elements((1, 1), 100)
    assert sorted(box) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(InfiniteIntervalError):
        IntVectorGroup(2, "lex").interval_elements((1, 0), 100)
    with pytest.raises(BoundExceededError):
        g.interval_elements((100, 100), 100)
    with pytest.raises(InfiniteIntervalError):
        TwistedZ3Group().interval_elements((1, 0, 0), 100)


def test_positive_presentations():
    import random

    rng = random.Random(0)
    for handle in (IntVectorGroup(2), IntVectorGroup(2, "lex"), TwistedZ3Group()):
        for _ in range(50):
            g = handle.sample(rng, 10)
            for g1, g2 in handle.nonneg_presentations(rng, 10, g, 3):
                assert handle.is_positive(g1) and handle.is_positive(g2)
                assert handle.add(g1, handle.neg(g2)) == g


# -- the one draw -----------------------------------------------------------

# widths 1, 2, 2^j and 2^j +- 1, each at a few offsets; width 1 at offset 0
# is the range [0, 0] that a bound of 0 draws from
WIDTHS = sorted({1, 2} | {w for j in range(2, 9) for w in (2 ** j - 1, 2 ** j, 2 ** j + 1)})
RANGES = [(lo, lo + w - 1) for w in WIDTHS for lo in (0, -(w // 2), -w, 7)]


def _randint(rng, lo, hi):
    """One draw of the kernel from [lo, hi]."""
    return next(_int_stream(rng, lo, hi))


def test_randint_takes_the_stream_of_random_randint():
    for seed in range(50):
        ours, theirs = random.Random(seed), random.Random(seed)
        for lo, hi in RANGES:
            assert _randint(ours, lo, hi) == theirs.randint(lo, hi)
            assert ours.getstate() == theirs.getstate()
            assert _randint(ours, 0, hi - lo) == theirs.randrange(hi - lo + 1)
            assert ours.getstate() == theirs.getstate()


# widths whose draws take more than one 32-bit word of the generator
WIDE_RANGES = [(lo, lo + w - 1) for w in (2 ** 32 - 1, 2 ** 32 + 1, 2 ** 40)
               for lo in (0, -(w // 2))]


def test_box_stream_takes_the_stream_of_randints():
    """Each point is k draws of ``Random.randint(lo, hi)``, and nothing past
    the last point taken is drawn; at k = 0 every point is ``()``.  k = 1 and
    k = 2 are written out in the kernel, and k >= 3 takes its loop."""
    for seed in range(20):
        for lo, hi in RANGES[::3] + WIDE_RANGES:
            for k in (0, 1, 2, 3, 4, 5):
                ours, theirs = random.Random(seed), random.Random(seed)
                points = _box_stream(ours, lo, hi, k)
                for _ in range(4):
                    assert next(points) == tuple(theirs.randint(lo, hi) for _ in range(k))
                    assert ours.getstate() == theirs.getstate()


def test_box_streams_of_different_widths_interleave_on_one_generator():
    """Taking from two box streams in turn draws what the matching
    ``Random.randint`` calls draw, in the order the points are taken."""
    for seed in range(20):
        ours, theirs = random.Random(seed), random.Random(seed)
        narrow, wide = _box_stream(ours, -3, 3, 2), _box_stream(ours, 0, 2 ** 33, 1)
        for turn in (0, 1, 1, 0, 0, 0, 1, 0, 1, 1):
            if turn:
                assert next(wide) == (theirs.randint(0, 2 ** 33),)
            else:
                assert next(narrow) == (theirs.randint(-3, 3), theirs.randint(-3, 3))
            assert ours.getstate() == theirs.getstate()


def test_randint_rejects_an_empty_range():
    rng = random.Random(0)
    state = rng.getstate()
    for lo, hi in ((1, 0), (1, -1), (5, 3)):
        with pytest.raises(ValueError):
            _randint(rng, lo, hi)
        with pytest.raises(ValueError):
            _box_stream(rng, lo, hi, 2)
    # refused before any draw
    assert rng.getstate() == state
    # a negative bound is an empty range, for elements and for the cone
    for handle in (IntVectorGroup(2), IntVectorGroup(3, "lex"), TwistedZ3Group(),
                   LexExtensionGroup(TwistedZ3Group()), LexExtensionGroup(IntVectorGroup(2, "lex"))):
        for sample in (handle.sample, handle.sample_nonneg):
            with pytest.raises(ValueError):
                sample(rng, -1)


def test_randint_interleaves_with_user_samplers():
    # a user cone sampler still calls Random.randint on the shared stream
    reversed_z = DerivedConeGroup(
        IntVectorGroup(1),
        lambda g: g[0] <= 0,
        "Z-reversed",
        sample_nonneg=lambda rng, bound: (-rng.randint(0, bound),),
    )
    lex = LexExtensionGroup(reversed_z)
    for seed in range(50):
        ours, theirs = random.Random(seed), random.Random(seed)
        for bound in (0, 1, 3, 10):
            assert _randint(ours, -bound, bound) == theirs.randint(-bound, bound)
            assert reversed_z.sample_nonneg(ours, bound) == reversed_z.sample_nonneg(theirs, bound)
            lead = theirs.randint(0, bound)
            expected = (0, reversed_z.sample_nonneg(theirs, bound)) if lead == 0 else (
                lead, (theirs.randint(-bound, bound),))
            assert lex.sample_nonneg(ours, bound) == expected
            assert ours.getstate() == theirs.getstate()


# the one function that calls Random.getrandbits, by the rejection loop of
# Random._randbelow_with_getrandbits: so every draw takes the stream that
# Random.randint would take
DRAW_KERNELS = {("groups.py", "_box_stream")}


def _scan(source, hit):
    """Qualified names of the functions in ``source`` around each node for
    which ``hit(node)`` holds, one entry per such node."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + [child.name])
            else:
                if hit(child):
                    found.append(".".join(scope) or "<module>")
                walk(child, scope)

    walk(ast.parse(source), [])
    return found


def _names_getrandbits(node):
    names = {getattr(node, "attr", None), getattr(node, "id", None),
             getattr(node, "value", None)}
    names |= {alias.name for alias in getattr(node, "names", ())
              if isinstance(alias, ast.alias)}
    return "getrandbits" in names


def _getrandbits_users(source):
    """Qualified names of the functions in ``source`` that name getrandbits."""
    return _scan(source, _names_getrandbits)


SAMPLE_COUNTS = ("samples", "presentation_pairs")


def _loops_over_samples(node):
    """Whether ``node`` is a loop over a sample count: a ``while`` whose
    test names ``samples`` or ``presentation_pairs``, or a ``for``
    (statement or comprehension) over a ``range`` whose arguments name
    one of them."""
    if isinstance(node, ast.While):
        header = node.test
    elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)) and \
            isinstance(node.iter, ast.Call) and getattr(node.iter.func, "id", None) == "range":
        header = node.iter
    else:
        return False
    return any(getattr(n, "id", getattr(n, "attr", None)) in SAMPLE_COUNTS
               for n in ast.walk(header))


def _peal_sources():
    """(file name, source) of each module of peal."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "peal")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                yield name, fh.read()


def test_samplers_draw_only_through_randint():
    """Every draw in peal goes through the one kernel ``groups._box_stream``:
    no module may call the Random methods whose stream it reproduces, or any
    other drawing method of Random, nor rewind a generator by
    ``getstate``/``setstate``, and no other function may call
    ``getrandbits``, since the stream identity rests on that kernel."""
    calls = re.compile(r"\.(randint|randrange|getstate|setstate|choices?|shuffle|uniform"
                       r"|random|gauss)\(")
    offenders = []
    users = set()
    for name, source in _peal_sources():
        offenders += ["%s:%d" % (name, i) for i, line in enumerate(source.splitlines(), 1)
                      if calls.search(line)]
        users |= {(name, fn) for fn in _getrandbits_users(source)}
    assert offenders == []
    assert users == DRAW_KERNELS


def test_only_the_base_handle_defines_the_per_value_samplers():
    """``sample`` and ``sample_nonneg`` are the base class's ``next`` of the
    one sampler, ``stream``; a handle that defined either would draw past
    the stream that every probe takes."""
    found = []
    for name, source in _peal_sources():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and node.name != "PoGroupHandle":
                found += ["%s:%s.%s" % (name, node.name, item.name) for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and item.name in ("sample", "sample_nonneg")]
    assert found == []


def test_getrandbits_scan_sees_every_use():
    source = (
        "import random\n"
        "def f(rng):\n    return rng.getrandbits(3)\n"
        "class C:\n    def g(self, rng):\n        draw = rng.getrandbits\n"
        "        return [draw(2) for _ in range(3)]\n"
        "x = random.Random(0).getrandbits(1)\n"
        "from random import getrandbits\n"
        "def h(rng):\n    return getattr(rng, 'getrandbits')(1)\n"
    )
    assert _getrandbits_users(source) == ["f", "C.g", "<module>", "<module>", "h"]


def test_one_loop_runs_the_sampled_verdicts():
    """Every sampled verdict runs on ``groups._first_witness``; the only
    other loop over the sample count is the sequential one of difference
    consistency, whose draws depend on the values drawn."""
    loops = {(name, fn) for name, source in _peal_sources()
             for fn in _scan(source, _loops_over_samples)}
    assert loops == {("groups.py", "_first_witness"),
                     ("constructions.py", "SymbolicPea.sampled_difference_consistency")}


def test_sample_loop_scan_sees_every_loop():
    source = (
        "def f(samples):\n    for _ in range(samples):\n        pass\n"
        "class C:\n    def g(self, n):\n        while self.samples > n:\n            n += 1\n"
        "def h(samples):\n    return [x for x in range(min(samples, 9))]\n"
        "def k(samples, n):\n    for i in range(n):\n        samples += i\n    return samples\n"
        "def m(r):\n    for v in r.verdicts(samples=3):\n        pass\n"
        "for _ in range(args.samples):\n    pass\n"
        "def p(presentation_pairs):\n    for _ in range(presentation_pairs):\n        pass\n"
    )
    assert _scan(source, _loops_over_samples) == ["f", "C.g", "h", "<module>", "p"]


def test_every_private_helper_has_a_library_caller():
    """Every module-level private function or class of peal is named in
    peal somewhere besides its definition: a helper that only tests reach
    lives in the tests."""
    defined, named = [], set()
    for name, source in _peal_sources():
        tree = ast.parse(source)
        defined += [(name, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")]
        for node in ast.walk(tree):
            named |= {getattr(node, "id", None), getattr(node, "attr", None)}
            named |= {alias.name for alias in getattr(node, "names", ())
                      if isinstance(alias, ast.alias)}
    assert ["%s:%s" % d for d in defined if d[1] not in named] == []


# -- the group probes on the verdict loop ------------------------------------
#
# Verbatim copies of the probes as they were when each ran its own loop,
# drawing each value when the loop reached it: the oracles of the probes
# that run on groups._first_witness.


def frozen_probe_pogroup(handle: PoGroupHandle, samples: int = 1000, seed: int = 0, bound: int = 10) -> ProbeReport:
    """Sampled po-group laws: associativity, identity, inverses, cone closure,
    antisymmetry, and translation invariance of the order."""
    rng = random.Random(seed)
    failures: List[Tuple[str, str]] = []

    def fail(check, *els):
        failures.append((check, ", ".join(handle.format(e) for e in els)))

    zero = handle.zero()
    for _ in range(samples):
        a = handle.sample(rng, bound)
        b = handle.sample(rng, bound)
        c = handle.sample(rng, bound)
        if handle.add(handle.add(a, b), c) != handle.add(a, handle.add(b, c)):
            fail("associativity", a, b, c)
            break
        if handle.add(a, zero) != a or handle.add(zero, a) != a:
            fail("identity", a)
            break
        if handle.add(a, handle.neg(a)) != zero or handle.add(handle.neg(a), a) != zero:
            fail("inverse", a)
            break
        p = handle.sample_nonneg(rng, bound)
        q = handle.sample_nonneg(rng, bound)
        if not handle.is_positive(handle.add(p, q)):
            fail("cone-closure", p, q)
            break
        if handle.is_positive(a) and handle.is_positive(handle.neg(a)) and a != zero:
            fail("antisymmetry", a)
            break
        lower = handle.sample(rng, bound)
        upper = handle.add(lower, p)
        if not handle.le(lower, upper):
            fail("order-vs-cone", lower, upper)
            break
        translated_l = handle.add(handle.add(c, lower), b)
        translated_u = handle.add(handle.add(c, upper), b)
        if not handle.le(translated_l, translated_u):
            fail("translation-invariance", lower, upper, c, b)
            break
        if handle.le(lower, upper) != handle.is_positive(
            handle.add(handle.neg(lower), upper)
        ):
            fail("left-right-difference", lower, upper)
            break
    passed = not failures
    return ProbeReport(
        "pogroup:%s" % handle.name, passed, "pass" if passed else "fail",
        samples, seed, tuple(failures),
    )


def frozen_is_commutator(handle: PoGroupHandle, c, samples: int = 1000, seed: int = 0, bound: int = 10):
    """Sampled centrality of c; exact (no sampling) for declared-abelian groups."""
    if handle.abelian:
        return True, None
    rng = random.Random(seed)
    for _ in range(samples):
        x = handle.sample(rng, bound)
        if handle.add(x, c) != handle.add(c, x):
            return False, x
    return True, None


def frozen_probe_torsion_free(handle: PoGroupHandle, samples: int = 500, cap: int = 12, seed: int = 0, bound: int = 10):
    rng = random.Random(seed)
    zero = handle.zero()
    for _ in range(samples):
        g = handle.sample(rng, bound)
        if g == zero:
            continue
        acc = zero
        for m in range(1, cap + 1):
            acc = handle.add(acc, g)
            if acc == zero:
                return False, (g, m)
    return True, None


def frozen_probe_strong_unit(unital: UnitalPoGroup, samples: int = 500, cap: int = 64, seed: int = 0, bound: int = 10) -> ProbeReport:
    """Per-sample witnesses n with g <= n*u; a sample with no witness within
    the cap makes the probe inconclusive, never false."""
    handle, u = unital.group, unital.u
    rng = random.Random(seed)
    witnesses = []
    unresolved = None
    for _ in range(samples):
        g = handle.sample(rng, bound)
        n = None
        acc = handle.zero()
        for m in range(1, cap + 1):
            acc = handle.add(acc, u)
            if handle.le(g, acc):
                n = m
                break
        if n is None:
            unresolved = g
            break
        witnesses.append("%s <= %d*u" % (handle.format(g), n))
    if unresolved is not None:
        return ProbeReport(
            "strong-unit:%s" % handle.name, False, "inconclusive", samples, seed,
            (("no-witness-within-cap", handle.format(unresolved)),),
            tuple(witnesses[:3]),
        )
    return ProbeReport(
        "strong-unit:%s" % handle.name, True, "pass", samples, seed, (),
        tuple(witnesses[:3]),
    )


def frozen_probe_directed(handle: PoGroupHandle, samples: int = 500, seed: int = 0, bound: int = 10) -> ProbeReport:
    rng = random.Random(seed)
    witnesses = []
    failures = []
    for _ in range(samples):
        a = handle.sample(rng, bound)
        b = handle.sample(rng, bound)
        c = handle.upper_bound(a, b)
        if not (handle.le(a, c) and handle.le(b, c)):
            failures.append(("upper-bound", "%s, %s" % (handle.format(a), handle.format(b))))
            break
        witnesses.append(handle.format(c))
    passed = not failures
    return ProbeReport(
        "directed:%s" % handle.name, passed, "pass" if passed else "fail",
        samples, seed, tuple(failures), tuple(witnesses[:3]),
    )


class ZMod2(PoGroupHandle):
    """Z/2 with the total cone: a group with torsion."""

    name = "Z/2"
    abelian = True

    def zero(self):
        return (0,)

    def add(self, x, y):
        return ((x[0] + y[0]) % 2,)

    def neg(self, x):
        return ((-x[0]) % 2,)

    def is_positive(self, x):
        return True

    def stream(self, rng, bound, nonneg=False):
        while True:
            yield (rng.randint(0, 1),)

    def upper_bound(self, x, y):
        return x


# (handle, unit, elements to test for centrality); the broken cone fails
# the po-group laws, the reversed Z (a user cone sampler) fails
# directedness, Z^2 pointwise has no strong unit (1, 0), Z/2 has torsion,
# and the twisted groups have non-central elements
PROBE_HANDLES = [
    (IntVectorGroup(1), (1,), ()),
    (IntVectorGroup(2), (1, 0), ()),
    (IntVectorGroup(3, "lex"), (1, 0, 0), ()),
    (TwistedZ3Group(), (1, 0, 0), ((0, 1, 0), (0, 1, 1))),
    (LexExtensionGroup(TwistedZ3Group()), (1, (0, 0, 0)), ((0, (0, 1, 0)), (0, (0, 1, 1)))),
    (LexExtensionGroup(IntVectorGroup(2, "lex")), (1, (0, 0)), ()),
    (DerivedConeGroup(TwistedZ3Group(),
                      lambda g: g[0] > 0 or (g[0] == 0 and g[1] >= 0 and g[2] >= g[1]),
                      "broken-cone"), (1, 0, 0), ((0, 1, 0), (0, 1, 1))),
    (DerivedConeGroup(IntVectorGroup(1), lambda g: g[0] <= 0, "Z-reversed",
                      sample_nonneg=lambda rng, bound: (-rng.randint(0, bound),)), (-1,), ()),
    (ZMod2(), (1,), ()),
]


GRID_COUNTS = (1, 7, 300, 2000)


def probe_grid(pogroup, commutator, torsion_free, strong_unit, directed, counts=GRID_COUNTS):
    """Every probe on every handle, at seeds 0, 1, 5, 100, the sample
    ``counts`` (by default 1, 7, 300, 2000) and bounds 1, 10."""
    out = []
    for handle, u, central in PROBE_HANDLES:
        for seed in (0, 1, 5, 100):
            for samples in counts:
                for bound in (1, 10):
                    out.append(pogroup(handle, samples, seed, bound))
                    out.append(torsion_free(handle, samples, 12, seed, bound))
                    out.append(strong_unit(UnitalPoGroup(handle, u), samples, 64, seed, bound))
                    out.append(directed(handle, samples, seed, bound))
                    for c in central or (u,):
                        out.append(commutator(handle, c, samples, seed, bound))
    return out


@functools.lru_cache(maxsize=None)
def frozen_probe_grid(counts=GRID_COUNTS):
    return probe_grid(frozen_probe_pogroup, frozen_is_commutator, frozen_probe_torsion_free,
                      frozen_probe_strong_unit, frozen_probe_directed, counts)


def test_probe_grid_matches_frozen():
    ours = probe_grid(probe_pogroup, is_commutator, probe_torsion_free,
                      probe_strong_unit, probe_directed)
    assert ours == frozen_probe_grid()
    assert sum(isinstance(r, ProbeReport) and not r.passed for r in ours) >= 100
    assert sum(isinstance(r, tuple) and not r[0] for r in ours) >= 50


@pytest.mark.parametrize("samples", [1, 2, 256])
def test_probes_match_frozen(samples):
    """The grid at a single sample count; some probe fails at each."""
    ours = probe_grid(probe_pogroup, is_commutator, probe_torsion_free,
                      probe_strong_unit, probe_directed, (samples,))
    assert ours == frozen_probe_grid((samples,))
    assert any(isinstance(r, ProbeReport) and not r.passed for r in ours)


def digit_draw(rng):
    """The endless stream of digits, each ``_randint(rng, 0, 9)``; a 9 raises."""
    while True:
        digit = _randint(rng, 0, 9)
        if digit == 9:
            raise InputError("drew a 9")
        yield digit


@pytest.mark.parametrize("samples", [1, 2, 256])
def test_a_failing_draw_surfaces_where_sample_by_sample_drawing_reaches_it(samples):
    """The draw of sample j raises; the samples before it are still tested,
    in order, so a witness among them is returned and leaves the generator
    where sample by sample drawing leaves it, and with no witness among
    them the error propagates.  Over ``samples`` samples, a draw or a
    witness past the last of them is never reached: the loop returns None
    with the generator ``samples`` draws on."""
    witnesses = 0
    for seed in range(30):
        rng = random.Random(seed)
        digits = [_randint(rng, 0, 9)]
        while digits[-1] != 9:
            digits.append(_randint(rng, 0, 9))
        tested = []
        with pytest.raises(InputError):
            _first_witness(random.Random(seed), 300, tested.append, digit_draw)
        assert tested == digits[:-1]
        tested = []
        rng = random.Random(seed)
        if len(digits) <= samples:
            with pytest.raises(InputError):
                _first_witness(rng, samples, tested.append, digit_draw)
            assert tested == digits[:-1]
        else:
            assert _first_witness(rng, samples, tested.append, digit_draw) is None
            assert tested == digits[:samples]
            reference = random.Random(seed)
            list(itertools.islice(digit_draw(reference), samples))
            assert rng.getstate() == reference.getstate()
        for j in range(len(digits) - 1):
            rng = random.Random(seed)
            seen = []

            def probe(digit):
                seen.append(digit)
                if len(seen) == j + 1:
                    return ("witness", j)

            assert _first_witness(rng, 300, probe, digit_draw) == ("witness", j)
            reference = random.Random(seed)
            list(itertools.islice(digit_draw(reference), j + 1))
            assert rng.getstate() == reference.getstate()
            witnesses += 1
            rng, seen = random.Random(seed), []
            reached = j < samples
            assert _first_witness(rng, samples, probe, digit_draw) == (("witness", j) if reached else None)
            reference = random.Random(seed)
            list(itertools.islice(digit_draw(reference), j + 1 if reached else samples))
            assert rng.getstate() == reference.getstate()
    assert witnesses >= 100


def test_a_failing_member_draw_keeps_an_earlier_witness():
    """A cone sampler that raises on drawing its bound, inside a symbolic
    algebra: the first member is a witness before any draw fails."""
    def sample_nonneg(rng, bound):
        part = rng.randint(0, bound)
        if part == bound:
            raise InputError("cone sampler failed")
        return (part,)

    G = DerivedConeGroup(IntVectorGroup(1), lambda g: g[0] >= 0, "Z-flaky",
                         sample_nonneg=sample_nonneg)
    E = SymbolicPea(chain_table(1), G)
    assert E.sample_member(random.Random(5), 6) == (1, (-5,))
    assert _first_witness(random.Random(5), 500, E.format, E._member_draw(6)) == "(1,-5)"
    with pytest.raises(InputError):
        _first_witness(random.Random(5), 500, lambda x: None, E._member_draw(6))


@pytest.mark.parametrize("samples", [0, -5])
def test_probes_refuse_no_samples(samples):
    """With no sample drawn a sampled verdict would pass unwitnessed."""
    tw = TwistedZ3Group()
    with pytest.raises(InputError):
        _first_witness(random.Random(0), samples, lambda x: x, digit_draw)
    with pytest.raises(InputError):
        probe_pogroup(tw, samples=samples)
    with pytest.raises(InputError):
        is_commutator(tw, (0, 1, 0), samples=samples)
    with pytest.raises(InputError):
        probe_torsion_free(tw, samples=samples)
    with pytest.raises(InputError):
        probe_strong_unit(UnitalPoGroup(tw, (1, 0, 0)), samples=samples)
    with pytest.raises(InputError):
        probe_directed(tw, samples=samples)
    # centrality in a declared-abelian group is exact and draws nothing
    assert is_commutator(IntVectorGroup(2), (1, 0), samples=samples) == (True, None)
