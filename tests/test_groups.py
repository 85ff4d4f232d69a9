import ast
import os
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from peal.core import InputError
from peal.groups import (
    BoundExceededError,
    DerivedConeGroup,
    InfiniteIntervalError,
    IntVectorGroup,
    LexExtensionGroup,
    PoGroupHandle,
    TwistedZ3Group,
    UnitalPoGroup,
    _randint,
    _randints,
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

        def sample(self, rng, bound):
            return (rng.randint(0, 1),)

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


def test_randint_takes_the_stream_of_random_randint():
    for seed in range(50):
        ours, theirs = random.Random(seed), random.Random(seed)
        for lo, hi in RANGES:
            assert _randint(ours, lo, hi) == theirs.randint(lo, hi)
            assert ours.getstate() == theirs.getstate()
            assert _randint(ours, 0, hi - lo) == theirs.randrange(hi - lo + 1)
            assert ours.getstate() == theirs.getstate()
            assert _randints(ours, lo, hi, 3) == tuple(theirs.randint(lo, hi) for _ in range(3))
            assert ours.getstate() == theirs.getstate()


def test_randint_rejects_an_empty_range():
    rng = random.Random(0)
    for lo, hi in ((1, 0), (1, -1), (5, 3)):
        with pytest.raises(ValueError):
            _randint(rng, lo, hi)
        with pytest.raises(ValueError):
            _randints(rng, lo, hi, 2)


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


# the functions that call Random.getrandbits, each by the rejection loop of
# Random._randbelow_with_getrandbits: so every draw takes the stream that
# Random.randint would take
DRAW_KERNELS = {
    ("groups.py", "_randint"),
    ("groups.py", "_randints"),
    ("constructions.py", "SymbolicPea.sample_members"),
}


def _getrandbits_users(source):
    """Qualified names of the functions in ``source`` that name getrandbits."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + [child.name])
            else:
                names = {getattr(child, "attr", None), getattr(child, "id", None),
                         getattr(child, "value", None)}
                names |= {alias.name for alias in getattr(child, "names", ())
                          if isinstance(alias, ast.alias)}
                if "getrandbits" in names:
                    found.append(".".join(scope) or "<module>")
                walk(child, scope)

    walk(ast.parse(source), [])
    return found


def test_samplers_draw_only_through_randint():
    """Every draw in peal goes through ``groups._randint``/``_randints`` or
    the member kernel ``SymbolicPea.sample_members``: no module may call the
    Random methods whose stream those reproduce, and no other function may
    call ``getrandbits``, since the stream identity rests on those three."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "peal")
    calls = re.compile(r"\.(randint|randrange)\(")
    offenders = []
    users = set()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                source = fh.read()
            offenders += ["%s:%d" % (name, i) for i, line in enumerate(source.splitlines(), 1)
                          if calls.search(line)]
            users |= {(name, fn) for fn in _getrandbits_users(source)}
    assert offenders == []
    assert users == DRAW_KERNELS


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
