import random
from fractions import Fraction
from typing import Callable, List

import pytest

from peal import constructions
from peal.constructions import (
    Measure,
    SampleVerdict,
    SymbolicPea,
    NonSymmetricError,
    NotCyclicError,
    NotStrongError,
    boolean4_table,
    builtin_pea,
    chain_table,
    diamond_table,
    gamma_interval_finite,
    lex_product_pea,
    lift_group_hom,
    strong_perfect_representation,
    twisted_gamma,
    unitize,
    universal_group_extension,
)
from peal.core import (
    InconsistencyError,
    InputError,
    PartialAdditionTable,
    PreconditionError,
    check_axioms,
    is_symmetric,
)
from peal.corpus import are_isomorphic
from peal.groups import (
    DerivedConeGroup,
    PoGroupHandle,
    IntVectorGroup,
    LexExtensionGroup,
    TwistedZ3Group,
    UnitalPoGroup,
)


# -- unitization ------------------------------------------------------------


def test_unitize_trivial():
    t = PartialAdditionTable.build(["0"], "0", None, {})
    assert are_isomorphic(unitize(t), chain_table(1))


def test_unitize_two_elements():
    t = PartialAdditionTable.build(["0", "a"], "0", None, {})
    lifted = unitize(t)
    assert are_isomorphic(lifted, boolean4_table())
    assert lifted.add("a", "a#") == lifted.one == "0#"


def test_unitize_rejects_nonsymmetric():
    cyc = PartialAdditionTable.build(
        ["0", "a", "b", "c", "d"],
        "0",
        None,
        {("a", "b"): "c", ("b", "d"): "c", ("d", "a"): "c"},
    )
    with pytest.raises(NonSymmetricError):
        unitize(cyc)


def test_unitize_corpus(gpea_corpus):
    for g in gpea_corpus:
        symmetric = all(
            g.defined(a, b) == g.defined(b, a)
            for a in g.elements
            for b in g.elements
        )
        if not symmetric:
            with pytest.raises(NonSymmetricError):
                unitize(g)
            continue
        lifted = unitize(g)  # internally certifies axioms + order-ideal embedding
        assert lifted.size == 2 * g.size
        assert check_axioms(lifted, "pea").passed
        assert is_symmetric(lifted).symmetric
        # restricting to the bottom copy recovers the original algebra
        assert lifted.restrict(g.elements) == g


# -- finite intervals --------------------------------------------------------


def test_interval_chain():
    table = gamma_interval_finite(UnitalPoGroup(IntVectorGroup(1), (4,)))
    assert are_isomorphic(table, chain_table(4))


def test_interval_boolean():
    table = gamma_interval_finite(UnitalPoGroup(IntVectorGroup(2), (1, 1)))
    assert are_isomorphic(table, boolean4_table())


def test_interval_refuses_lex():
    with pytest.raises(PreconditionError):
        gamma_interval_finite(UnitalPoGroup(IntVectorGroup(2, "lex"), (1, 0)))


def test_interval_is_n_perfect():
    from peal.decompositions import is_n_perfect

    for n in (1, 2, 3, 4):
        table = gamma_interval_finite(UnitalPoGroup(IntVectorGroup(1), (n,)))
        assert is_n_perfect(table, n)[0]


# -- symbolic products -------------------------------------------------------


def test_lex_product_basic():
    sym = lex_product_pea(2, IntVectorGroup(1))
    assert sym.is_member((0, (5,))) and not sym.is_member((0, (-1,)))
    assert sym.is_member((2, (-3,))) and not sym.is_member((2, (1,)))
    assert sym.add((1, (4,)), (1, (-4,))) == (2, (0,)) == sym.one_el
    assert sym.add((2, (0,)), (1, (0,))) is None
    assert sym.level((1, (9,))) == 1


def test_lex_product_rejects_bad_group():
    class Broken(IntVectorGroup):
        def is_positive(self, x):
            return x[0] >= -1  # not antisymmetric

    with pytest.raises(PreconditionError):
        lex_product_pea(2, Broken(1))


def test_two_valued_product_kernel():
    sym = lex_product_pea(1, IntVectorGroup(1))
    rng = random.Random(0)
    for _ in range(300):
        x = sym.sample_member(rng, 10)
        assert (sym.canonical_state(x) == 0) == (sym.level(x) == 0)
    assert sym.sampled_state_additivity(seed=1, samples=500).passed


def test_symmetric_claim_with_central_offset():
    sym = lex_product_pea(2, TwistedZ3Group(), h=(0, 1, 1), seed=1)
    assert sym.symmetric_claim
    assert sym.is_symmetric_sampled(seed=1, samples=800).symmetric
    sym2 = lex_product_pea(2, TwistedZ3Group(), h=(0, 1, 0), seed=1)
    assert not sym2.symmetric_claim


def test_twisted_gamma_matches_worked_example():
    tg = twisted_gamma()
    x = (0, (2, 5))
    assert tg.minus(x) == (1, (-2, -5))
    assert tg.tilde(x) == (1, (-5, -2))
    rep = tg.is_symmetric_sampled(seed=3, samples=1500)
    assert not rep.symmetric and rep.sampled
    assert tg.sampled_state_additivity(seed=3, samples=1500).passed
    assert tg.sampled_infinit_is_level0(seed=3, samples=400).passed
    for verdict in tg.sampled_axiom_report(seed=3, samples=400):
        assert verdict.passed, verdict


def test_example46():
    ex = builtin_pea("example46")
    assert ex.base.elements == ("0", "a", "b", "1")
    comp = ex.check_comparability_sampled(seed=4, samples=1500)
    assert comp.comparable and comp.sampled
    assert ex.sampled_state_additivity(seed=4, samples=1500).passed
    # no sums across the incomparable middle letters
    assert ex.add((ex.base.index("a"), (0,)), (ex.base.index("b"), (0,))) is None


def test_example46_slice_arithmetic():
    """The worked example's slice sums: the bottom slice absorbs itself and
    feeds the middle one, while high-slice pair sums never all exist."""
    ex = builtin_pea("example46")
    zero_b, a_b, one_b = ex.base.index("0"), ex.base.index("a"), ex.base.index("1")
    rng = random.Random(8)
    for _ in range(800):
        i, j = rng.randint(0, 8), rng.randint(0, 8)
        x, y = (zero_b, (i,)), (zero_b, (j,))
        assert ex.add(x, y) == (zero_b, (i + j,))          # E0 + E0 inside E0
        m = (a_b, (rng.randint(-8, 8),))
        s = ex.add(x, m)
        assert s is not None and ex.level(s) == 1          # E0 + E1 inside E1
        # constructive preimages: every slice member splits off a bottom part
        assert ex.left_difference((zero_b, (i + j,)), y) == x
    # witnesses that the high sums do not exist pairwise
    assert ex.add((zero_b, (5,)), (one_b, (-1,))) is None   # E0 + E2 fails
    assert ex.add((a_b, (1,)), (a_b, (1,))) is None         # E1 + E1 fails
    assert ex.add((a_b, (0,)), (one_b, (0,))) is None       # E1 + E2 fails


def test_example47():
    ex = builtin_pea("example47")
    rng = random.Random(5)
    for _ in range(800):
        x = ex.sample_member(rng, 10)
        both = ex.ideal_predicates["I_a"](x) and ex.ideal_predicates["I_b"](x)
        assert both == ex.ideal_predicates["E_0"](x)
    assert ex.sampled_infinit_is_level0(seed=5, samples=300).passed
    # the two distinguished sets are proper normal ideals
    for name in ("I_a", "I_b", "E_0"):
        pred = ex.ideal_predicates[name]
        assert not pred(ex.one_el)
        assert ex.sampled_ideal_predicate(pred, seed=5, samples=600).passed
        assert ex.sampled_normal_predicate(pred, seed=5, samples=600).passed


def test_kernel_predicates_are_normal_ideals():
    tg = twisted_gamma()
    pred = tg.ideal_predicates["kernel"]
    assert not pred(tg.one_el)
    assert tg.sampled_ideal_predicate(pred, seed=7, samples=800).passed
    assert tg.sampled_normal_predicate(pred, seed=7, samples=800).passed
    lp = lex_product_pea(1, IntVectorGroup(1))
    level0 = lambda x: lp.level(x) == 0
    assert lp.sampled_ideal_predicate(level0, seed=7, samples=800).passed
    assert lp.sampled_normal_predicate(level0, seed=7, samples=800).passed


def test_builtin_finite_names():
    assert builtin_pea("diamond") == diamond_table()
    assert builtin_pea("boolean4") == boolean4_table()
    assert builtin_pea("chain:3") == chain_table(3)
    with pytest.raises(InputError):
        builtin_pea("octahedron")


def test_symbolic_matches_ambient_interval():
    """The pair-based carrier and addition must agree with the ambient-group
    interval picture: members are exactly 0 <= x <= u, and x+y is defined
    exactly when the group sum stays below u."""
    fixtures = []
    tg = twisted_gamma()
    fixtures.append((tg, TwistedZ3Group(), lambda x: (x[0], x[1][0], x[1][1]),
                     lambda a: (a[0], (a[1], a[2]))))
    lp = lex_product_pea(3, IntVectorGroup(1))
    fixtures.append((lp, LexExtensionGroup(IntVectorGroup(1)),
                     lambda x: x, lambda a: a))
    rng = random.Random(17)
    for sym, ambient, emb, proj in fixtures:
        u = emb(sym.one_el)
        for _ in range(2000):
            g = ambient.sample(rng, 6)
            in_interval = ambient.is_positive(g) and ambient.le(g, u)
            x = proj(g)
            assert sym.is_member(x) == in_interval
        for _ in range(2000):
            x = sym.sample_member(rng, 6)
            y = sym.sample_member(rng, 6)
            gs = ambient.add(emb(x), emb(y))
            defined = ambient.le(gs, u)
            s = sym.add(x, y)
            assert (s is not None) == defined
            if s is not None:
                assert emb(s) == gs
            # the induced order agrees with the ambient order on members
            assert sym.le(x, y) == ambient.le(emb(x), emb(y))


def test_cyclic_uniqueness_sampled():
    for group, c in (
        (IntVectorGroup(1), (1, (0,))),
        (IntVectorGroup(2), (1, (0, 0))),
        (TwistedZ3Group(), (1, (0, 0, 0))),
    ):
        sym = lex_product_pea(2, group)
        assert sym.sampled_cyclic_uniqueness(c, seed=9, samples=400).passed


def test_cyclic_element_sums_commute_in_existence():
    # a cyclic element has equal one-sided complements, so x + c exists
    # exactly when c + x does
    for group, c in ((TwistedZ3Group(), (1, (0, 0, 0))), (IntVectorGroup(2), (1, (0, 0)))):
        sym = lex_product_pea(3, group)
        assert sym.scale(3, c) == sym.one_el
        rng = random.Random(21)
        for _ in range(800):
            x = sym.sample_member(rng, 8)
            assert (sym.add(x, c) is None) == (sym.add(c, x) is None)


def test_interval_of_twisted_box():
    # below (0, b, c) the twisted group restricts to a commutative box,
    # the same algebra as the pointwise-plane interval
    table = gamma_interval_finite(UnitalPoGroup(TwistedZ3Group(), (0, 1, 2)))
    assert table.size == 6
    assert check_axioms(table, "pea").passed
    assert is_symmetric(table).symmetric
    plane = gamma_interval_finite(UnitalPoGroup(IntVectorGroup(2), (1, 2)))
    assert are_isomorphic(table, plane)


def test_difference_consistency_fixtures():
    for fixture in (
        lex_product_pea(3, IntVectorGroup(2)),
        lex_product_pea(2, TwistedZ3Group()),
        builtin_pea("example46"),
        builtin_pea("twisted_gamma"),
    ):
        verdict = fixture.sampled_difference_consistency(seed=6, samples=150)
        assert verdict.passed, verdict


def test_difference_consistency_refuses_to_pass_unchecked():
    ex = builtin_pea("example46")
    for samples in (0, -3):
        with pytest.raises(InputError):
            ex.sampled_difference_consistency(samples=samples)
    # a pass needs max(1, samples // 4) usable samples, even at 1 to 3
    for fixture in (ex, twisted_gamma()):
        for samples in (1, 2, 3, 4, 8):
            for seed in range(8):
                v = fixture.sampled_difference_consistency(seed=seed, samples=samples)
                assert v.passed == (v.samples >= max(1, samples // 4)), v
    assert not twisted_gamma().sampled_difference_consistency(seed=7, samples=1).passed


# -- representation ----------------------------------------------------------


def test_representation_identity():
    E = lex_product_pea(2, IntVectorGroup(1))
    rep = strong_perfect_representation(E, (1, (0,)), samples=400, seed=0)
    assert rep.passed
    rng = random.Random(0)
    for _ in range(200):
        x = E.sample_member(rng, 8)
        assert rep.phi(x) == x


def test_representation_obfuscated_cone():
    reversed_z = DerivedConeGroup(
        IntVectorGroup(1),
        lambda g: g[0] <= 0,
        "Z-reversed",
        sample_nonneg=lambda rng, bound: (-rng.randint(0, bound),),
        sample_dominating=lambda rng, bound, g: (-(abs(g[0]) + 1 + rng.randint(0, bound)),),
    )
    E = lex_product_pea(2, reversed_z)
    rep = strong_perfect_representation(E, (1, (0,)), samples=400, seed=0)
    assert rep.passed


def test_representation_shifted_presentation():
    E = lex_product_pea(2, IntVectorGroup(1), h=(6,))
    rep = strong_perfect_representation(E, (1, (3,)), samples=400, seed=0)
    assert rep.passed
    assert rep.phi((1, (5,))) == (1, (2,))
    assert rep.phi(E.one_el) == rep.target.one_el


def test_representation_z2_fixed_points():
    E = lex_product_pea(3, IntVectorGroup(2))
    rep = strong_perfect_representation(E, (1, (0, 0)), samples=400, seed=0)
    assert rep.phi((2, (1, -4))) == (2, (1, -4))


def test_representation_errors():
    E = lex_product_pea(2, IntVectorGroup(1))
    with pytest.raises(NotCyclicError):
        strong_perfect_representation(E, (1, (1,)), samples=50, seed=0)
    tg = twisted_gamma()
    with pytest.raises((NotStrongError, NotCyclicError)):
        strong_perfect_representation(tg, tg.one_el, samples=50, seed=0)


# -- lifting and the universal extension -------------------------------------


def test_lift_identity_and_doubling():
    ident = lift_group_hom(lambda g: g, 2, IntVectorGroup(1), IntVectorGroup(1), samples=200)
    assert ident((1, (3,))) == (1, (3,))
    double = lift_group_hom(
        lambda g: (2 * g[0],), 2, IntVectorGroup(1), IntVectorGroup(1), samples=200
    )
    assert double((1, (3,))) == (1, (6,))
    zero = lift_group_hom(
        lambda g: (0,), 2, IntVectorGroup(1), IntVectorGroup(1), samples=200
    )
    assert zero((1, (7,))) == (1, (0,))


def test_lift_rejects_non_additive():
    with pytest.raises(InputError):
        lift_group_hom(
            lambda g: (g[0] * g[0],), 2, IntVectorGroup(1), IntVectorGroup(1), samples=200
        )


def test_universal_extension_examples():
    E = lex_product_pea(2, IntVectorGroup(1))
    gamma = Measure(E, LexExtensionGroup(IntVectorGroup(1)), lambda x: (x[0], x[1]))
    ext = universal_group_extension(gamma, samples=150, presentation_pairs=120, seed=0)
    assert ext.passed
    assert ext.phi_star((-3, (4,))) == (-3, (4,))

    level = Measure(E, IntVectorGroup(1), lambda x: (x[0],))
    ext2 = universal_group_extension(level, samples=150, presentation_pairs=120, seed=0)
    assert ext2.phi_star((5, (9,))) == (5,)

    pair = Measure(E, IntVectorGroup(2), lambda x: (x[0], x[1][0]))
    ext3 = universal_group_extension(pair, samples=150, presentation_pairs=120, seed=0)
    assert ext3.phi_star((-2, (7,))) == (-2, 7)


# -- the sampling stream: frozen samplers ----------------------------------
#
# The samplers, group arithmetic and SymbolicPea.add/is_member/sample_member
# as they were when every draw called Random.randint/randrange, and the
# sampled verdict loop, the probes, the differences and the sampled methods
# as they were when every member was drawn by its own sample_member call.
# The current code must take the same draws from the same generator, so
# every sampled verdict and witness stays the same.  The twin runs this
# code only: it copies data attributes, never a bound kernel, and inherits
# nothing from SymbolicPea.


class FrozenIntVectorGroup(IntVectorGroup):
    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def neg(self, x):
        return tuple(-a for a in x)

    def is_positive(self, x) -> bool:
        if self.order == "pointwise":
            return all(a >= 0 for a in x)
        for a in x:
            if a != 0:
                return a > 0
        return True

    def sample(self, rng, bound):
        return tuple(rng.randint(-bound, bound) for _ in range(self.k))

    def sample_nonneg(self, rng, bound):
        if self.order == "pointwise":
            return tuple(rng.randint(0, bound) for _ in range(self.k))
        lead = rng.randint(0, bound)
        if lead == 0:
            if self.k == 1:
                return (0,)
            return (0,) + FrozenIntVectorGroup(self.k - 1, "lex").sample_nonneg(rng, bound)
        return (lead,) + tuple(rng.randint(-bound, bound) for _ in range(self.k - 1))

    def sample_dominating(self, rng, bound, g):
        if self.order == "pointwise":
            return tuple(max(-a, 0) + rng.randint(0, bound) for a in g)
        lead = abs(g[0]) + 1 + rng.randint(0, bound)
        return (lead,) + tuple(rng.randint(-bound, bound) for _ in range(self.k - 1))


class FrozenTwistedZ3Group(TwistedZ3Group):
    def sample(self, rng, bound):
        return tuple(rng.randint(-bound, bound) for _ in range(3))

    def sample_nonneg(self, rng, bound):
        lead = rng.randint(0, bound)
        if lead == 0:
            return (0, rng.randint(0, bound), rng.randint(0, bound))
        return (lead, rng.randint(-bound, bound), rng.randint(-bound, bound))

    def sample_dominating(self, rng, bound, g):
        lead = abs(g[0]) + 1 + rng.randint(0, bound)
        return (lead, rng.randint(-bound, bound), rng.randint(-bound, bound))


class FrozenLexExtensionGroup(LexExtensionGroup):
    def sample(self, rng, bound):
        return (rng.randint(-bound, bound), self.inner.sample(rng, bound))

    def sample_nonneg(self, rng, bound):
        lead = rng.randint(0, bound)
        if lead == 0:
            return (0, self.inner.sample_nonneg(rng, bound))
        return (lead, self.inner.sample(rng, bound))

    def sample_dominating(self, rng, bound, g):
        lead = abs(g[0]) + 1 + rng.randint(0, bound)
        return (lead, self.inner.sample(rng, bound))


def frozen_first_witness(rng: random.Random, samples: int, probe: Callable):
    """The first non-None result of ``probe(rng)`` in ``samples`` draws, or None."""
    for _ in range(samples):
        witness = probe(rng)
        if witness is not None:
            return witness
    return None


def frozen_sampled(name: str, seed: int, samples: int, probe: Callable, rng=None) -> SampleVerdict:
    """Verdict of ``probe`` on ``samples`` draws from a generator seeded with
    ``seed``, or from ``rng`` when several verdicts share one stream."""
    bad = frozen_first_witness(random.Random(seed) if rng is None else rng, samples, probe)
    return SampleVerdict(name, bad is None, samples, seed, bad)


def frozen_additivity_probe(E, bound: int, additive: Callable) -> Callable:
    """Probe drawing two members of E whose defined sum s breaks
    ``additive(x, y, s)``."""

    def probe(rng):
        x = E.sample_member(rng, bound)
        y = E.sample_member(rng, bound)
        s = E.add(x, y)
        if s is not None and not additive(x, y, s):
            return "(%s, %s)" % (E.format(x), E.format(y))

    return probe


class FrozenSymbolicPea:
    def is_member(self, x) -> bool:
        b, g = x
        if not (0 <= b < self.base.size):
            return False
        if b == self.base.zero_i:
            return self.group.is_positive(g)
        if b == self.base.one_i:
            return self.group.is_positive(self.group.add(self.h, self.group.neg(g)))
        return True

    def add(self, x, y):
        bx, gx = x
        by, gy = y
        bs = self.base.add_i(bx, by)
        if bs is None:
            return None
        part = self.group.add(self._tw(by, gx), gy)
        cand = (bs, part)
        return cand if self.is_member(cand) else None

    def sample_member(self, rng, bound=10, base_index=None):
        b = rng.randrange(self.base.size) if base_index is None else base_index
        G = self.group
        if b == self.base.zero_i:
            return (b, G.sample_nonneg(rng, bound))
        if b == self.base.one_i:
            return (b, G.add(self.h, G.neg(G.sample_nonneg(rng, bound))))
        return (b, G.sample(rng, bound))

    def sampled_state_additivity(self, seed=0, samples=2000, bound=10):
        state = self.canonical_state
        probe = frozen_additivity_probe(self, bound, lambda x, y, s: state(x) + state(y) == state(s))
        return frozen_sampled("canonical-state-additivity", seed, samples, probe)

    # twist application helpers
    def _tw(self, key: int, g):
        fn = self.twist.get(key)
        return g if fn is None else fn(g)

    def _tw_inv(self, key: int, g):
        fn = self.twist_inv.get(key)
        return g if fn is None else fn(g)

    def format(self, x) -> str:
        return "(%s,%s)" % (self.base.elements[x[0]], self.group.format(x[1]))

    def level(self, x) -> int:
        return self.levels[x[0]]

    def left_difference(self, x, a):
        """z with z + a = x, or None."""
        G = self.group
        zb = self._ldiff[x[0]][a[0]]
        if zb is None:
            return None
        zg = self._tw_inv(a[0], G.add(x[1], G.neg(a[1])))
        z = (zb, zg)
        if not self.is_member(z) or self.add(z, a) != x:
            return None
        return z

    def right_difference(self, a, x):
        """v with a + v = x, or None."""
        G = self.group
        vb = self._rdiff[a[0]][x[0]]
        if vb is None:
            return None
        vg = G.add(G.neg(self._tw(vb, a[1])), x[1])
        v = (vb, vg)
        if not self.is_member(v) or self.add(a, v) != x:
            return None
        return v

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

    def sampled_axiom_report(self, seed: int = 0, samples: int = 400, bound: int = 8) -> List[SampleVerdict]:
        def pe1(rng):
            x = self.sample_member(rng, bound)
            y = self.sample_member(rng, bound)
            z = self.sample_member(rng, bound)
            xy = self.add(x, y)
            yz = self.add(y, z)
            lhs = xy is not None and self.add(xy, z) is not None
            rhs = yz is not None and self.add(x, yz) is not None
            if lhs != rhs or (lhs and self.add(xy, z) != self.add(x, yz)):
                return "(%s, %s, %s)" % (self.format(x), self.format(y), self.format(z))

        def pe2(rng):
            x = self.sample_member(rng, bound)
            m = self.minus(x)
            t = self.tilde(x)
            if self.add(m, x) != self.one_el or self.add(x, t) != self.one_el:
                return self.format(x)

        def pe3(rng):
            x = self.sample_member(rng, bound)
            y = self.sample_member(rng, bound)
            s = self.add(x, y)
            if s is not None and (
                self.left_difference(s, x) is None or self.right_difference(y, s) is None
            ):
                return "(%s, %s)" % (self.format(x), self.format(y))

        def pe4(rng):
            x = self.sample_member(rng, bound)
            if x != self.zero_el and (
                self.add(x, self.one_el) is not None or self.add(self.one_el, x) is not None
            ):
                return self.format(x)

        rng = random.Random(seed)
        return [
            frozen_sampled(name, seed, samples, probe, rng)
            for name, probe in (("PE1", pe1), ("PE2", pe2), ("PE3", pe3), ("PE4", pe4))
        ]

    def is_symmetric_sampled(self, seed: int = 0, samples: int = 2000, bound: int = 10):
        from peal.core import SymmetryReport

        def probe(rng):
            x = self.sample_member(rng, bound)
            if self.minus(x) != self.tilde(x):
                return (
                    self.format(x),
                    self.format(self.minus(x)),
                    self.format(self.tilde(x)),
                )
            y = self.sample_member(rng, bound)
            if (self.add(x, y) is None) != (self.add(y, x) is None):
                return (self.format(x), self.format(y))

        witness = frozen_first_witness(random.Random(seed), samples, probe)
        return SymmetryReport(
            symmetric=witness is None,
            witness=witness,
            sampled=True,
            samples=samples,
            seed=seed,
        )

    def check_comparability_sampled(self, seed: int = 0, samples: int = 2000, bound: int = 10):
        """Sampled version of the slice-chain property E_0 <= ... <= E_n."""
        from peal.decompositions import ComparabilityReport

        def probe(rng):
            x = self.sample_member(rng, bound)
            y = self.sample_member(rng, bound)
            if self.level(x) < self.level(y) and not self.le(x, y):
                return (self.format(x), self.format(y))

        witness = frozen_first_witness(random.Random(seed), samples, probe)
        return ComparabilityReport(
            comparable=witness is None,
            sums_exist=witness is None,
            witness=witness,
            sampled=True,
            samples=samples,
        )

    def sampled_infinit_is_level0(self, seed: int = 0, samples: int = 500, bound: int = 8) -> SampleVerdict:
        """(n+1)-fold multiples exist exactly on the bottom slice."""

        def probe(rng):
            x = self.sample_member(rng, bound)
            if x != self.zero_el and (self.scale(self.n + 1, x) is not None) != (self.level(x) == 0):
                return self.format(x)

        return frozen_sampled("infinit-equals-level0", seed, samples, probe)

    def sampled_ideal_predicate(self, pred: Callable, seed: int = 0, samples: int = 500, bound: int = 8) -> SampleVerdict:
        """Downward closure and sum closure of a membership predicate, on
        sampled witnesses."""

        def probe(rng):
            y = self.sample_member(rng, bound)
            d = self.sample_member(rng, bound)
            upper = self.add(y, d)
            if upper is not None and pred(upper) and not pred(y):
                return "not downward closed at %s <= %s" % (
                    self.format(y), self.format(upper))
            i = self.sample_member(rng, bound)
            j = self.sample_member(rng, bound)
            s = self.add(i, j)
            if s is not None and pred(i) and pred(j) and not pred(s):
                return "not sum closed at %s + %s" % (self.format(i), self.format(j))

        return frozen_sampled("ideal-predicate", seed, samples, probe)

    def sampled_normal_predicate(self, pred: Callable, seed: int = 0, samples: int = 500, bound: int = 8) -> SampleVerdict:
        """Whenever x+i and j+x exist and agree, membership of i and j must
        agree; witnesses are constructed by solving for j exactly."""

        def probe(rng):
            x = self.sample_member(rng, bound)
            i = self.sample_member(rng, bound)
            s = self.add(x, i)
            j = None if s is None else self.left_difference(s, x)
            if j is not None and pred(i) != pred(j):
                return "%s vs %s around %s" % (
                    self.format(i), self.format(j), self.format(x))

        return frozen_sampled("normal-predicate", seed, samples, probe)

    def sampled_cyclic_uniqueness(self, c, seed: int = 0, samples: int = 500, bound: int = 8) -> SampleVerdict:
        """No sampled level-1 member other than c multiplies up to the unit."""
        level1 = self.levels.index(1)
        if self.scale(self.n, c) != self.one_el:
            return SampleVerdict("cyclic-uniqueness", False, samples, seed,
                                 "candidate %s is not cyclic" % (self.format(c),))

        def probe(rng):
            d = self.sample_member(rng, bound, base_index=level1)
            if self.scale(self.n, d) == self.one_el and d != c:
                return self.format(d)

        return frozen_sampled("cyclic-uniqueness", seed, samples, probe)

    def sampled_difference_consistency(self, seed: int = 0, samples: int = 300, bound: int = 6) -> SampleVerdict:
        """Group differences solved from two presentations of the same
        algebra differences must agree, in both difference directions."""
        G = self.group
        rng = random.Random(seed)
        checked = 0
        bad = None
        attempts = 0
        while checked < samples and attempts < samples * 20:
            attempts += 1
            w = self.sample_member(rng, bound)
            if self.level(w) == 0:
                continue
            a = self.sample_member(rng, bound, base_index=self._zero_i)
            b = self.sample_member(rng, bound, base_index=self._zero_i)
            x = self.add(w, a)
            y = self.add(w, b)
            if x is None or y is None:
                continue
            # second presentation: c = s + a with s >= 0, then d solves w2 + d = y
            s = G.sample_nonneg(rng, bound)
            c = (self._zero_i, G.add(s, a[1]))
            w2 = self.left_difference(x, c)
            if w2 is None:
                continue
            d = self.right_difference(w2, y)
            if d is None or self.level(d) != 0:
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
                g2 = (self._zero_i, G.add(s, e[1]))
                v2 = self.right_difference(g2, x2)
                if v2 is not None:
                    h2g = self._tw_inv(v2[0], G.add(y2[1], G.neg(v2[1])))
                    h2 = (self._zero_i, h2g)
                    if self.is_member(h2) and self.right_difference(h2, y2) == v2:
                        if G.add(e[1], G.neg(f[1])) != G.add(g2[1], G.neg(h2[1])):
                            bad = "dual half at %s" % self.format(x2)
                            break
                        if G.add(f[1], G.neg(e[1])) != G.add(h2[1], G.neg(g2[1])):
                            bad = "dual half at %s" % self.format(x2)
                            break
            checked += 1
        if checked < samples // 4 and bad is None:
            bad = "insufficient usable samples (%d)" % checked
        return SampleVerdict("difference-consistency", bad is None, checked, seed, bad)


def frozen_group(group: PoGroupHandle) -> PoGroupHandle:
    if type(group) is IntVectorGroup:
        return FrozenIntVectorGroup(group.k, group.order)
    if type(group) is TwistedZ3Group:
        return FrozenTwistedZ3Group()
    if type(group) is LexExtensionGroup:
        return FrozenLexExtensionGroup(frozen_group(group.inner))
    if type(group) is DerivedConeGroup:
        return DerivedConeGroup(frozen_group(group.base), group._positive, group.name,
                                group._sample_nonneg, group._sample_dominating)
    raise AssertionError("no frozen twin for %r" % (group,))


# the attributes SymbolicPea.__init__ set when the frozen code was current,
# plus the symmetry claim lex_product_pea adds
FROZEN_FIELDS = (
    "base", "_size", "_zero_i", "_one_i", "_sums", "_ldiff", "_rdiff", "group", "h",
    "levels", "n", "twist", "twist_inv", "name", "ambient", "to_ambient",
    "ideal_predicates", "zero_el", "one_el", "symmetric_claim",
)


def frozen_pea(sym: SymbolicPea) -> FrozenSymbolicPea:
    """A twin of ``sym`` running the frozen code, with the same base, levels,
    twist, offset and predicates."""
    twin = object.__new__(FrozenSymbolicPea)
    twin.__dict__.update((k, v) for k, v in vars(sym).items() if k in FROZEN_FIELDS)
    twin.group = frozen_group(sym.group)
    return twin


def _kernel_callables(value):
    """Functions of ``peal.constructions`` reachable from an attribute value:
    bound methods of a symbolic algebra and closures built by its methods."""
    if isinstance(value, dict):
        return [f for v in value.values() for f in _kernel_callables(v)]
    if isinstance(value, (list, tuple)):
        return [f for v in value for f in _kernel_callables(v)]
    fn = getattr(value, "__func__", value)
    if callable(fn) and getattr(fn, "__module__", None) == "peal.constructions" \
            and getattr(fn, "__qualname__", "").startswith("SymbolicPea."):
        return [fn]
    return []


def test_frozen_twin_runs_only_frozen_code():
    for sym in stream_fixtures():
        twin = frozen_pea(sym)
        assert not isinstance(twin, SymbolicPea)
        for name in dir(twin):
            attr = getattr(twin, name)
            if callable(attr) and not name.startswith("__"):
                fn = getattr(attr, "__func__", attr)
                if name in vars(twin):
                    assert _kernel_callables(attr) == [], name
                else:
                    assert fn.__module__ == __name__, name
        for name, value in vars(twin).items():
            assert _kernel_callables(value) == [], name
        # the twin's group has frozen samplers and arithmetic over groups.py
        assert type(twin.group).__module__ == __name__


STREAM_GROUPS = [
    IntVectorGroup(1), IntVectorGroup(3), IntVectorGroup(1, "lex"), IntVectorGroup(3, "lex"),
    TwistedZ3Group(), LexExtensionGroup(IntVectorGroup(2)),
    LexExtensionGroup(IntVectorGroup(2, "lex")), LexExtensionGroup(TwistedZ3Group()),
]


# a cone whose sampler, a user callable, draws through Random.randint
REVERSED_Z = DerivedConeGroup(
    IntVectorGroup(1), lambda g: g[0] <= 0, "Z-reversed",
    sample_nonneg=lambda rng, bound: (-rng.randint(0, bound),),
)
DRAW_GROUPS = STREAM_GROUPS + [REVERSED_Z, LexExtensionGroup(REVERSED_Z)]


def stream_fixtures():
    return [
        builtin_pea("example46"),
        builtin_pea("example47"),
        twisted_gamma(),
        lex_product_pea(3, IntVectorGroup(2)),
        lex_product_pea(2, LexExtensionGroup(IntVectorGroup(2))),
        lex_product_pea(2, IntVectorGroup(2, "lex"), h=(0, 3)),
        # levels that break additivity, one with a sum above the level of
        # its terms and one below, so that failing verdicts are compared too
        SymbolicPea(diamond_table(), IntVectorGroup(1), levels=(0, 1, 2, 2), name="high"),
        SymbolicPea(diamond_table(), IntVectorGroup(1), levels=(0, 1, 1, 3), name="low"),
    ]


@pytest.mark.parametrize("group", STREAM_GROUPS, ids=lambda g: g.name)
def test_group_samplers_match_frozen_draw_for_draw(group):
    old = frozen_group(group)
    for seed in range(12):
        ours, theirs = random.Random(seed), random.Random(seed)
        for bound in (0, 1, 3, 10):
            for _ in range(20):
                x = group.sample(ours, bound)
                assert x == old.sample(theirs, bound)
                p = group.sample_nonneg(ours, bound)
                assert p == old.sample_nonneg(theirs, bound)
                assert group.sample_dominating(ours, bound, x) == old.sample_dominating(theirs, bound, x)
                assert ours.getstate() == theirs.getstate()
                assert group.add(x, p) == old.add(x, p) and group.neg(x) == old.neg(x)
                assert group.is_positive(x) == old.is_positive(x)
                assert group.is_positive(p) == old.is_positive(p)


def test_symbolic_operations_match_frozen_draw_for_draw():
    for sym in stream_fixtures():
        old = frozen_pea(sym)
        for seed in range(6):
            ours, theirs = random.Random(seed), random.Random(seed)
            for bound in (0, 2, 10):
                for _ in range(60):
                    x = sym.sample_member(ours, bound)
                    assert x == old.sample_member(theirs, bound)
                    y = sym.sample_member(ours, bound, base_index=sym.base.zero_i)
                    assert y == old.sample_member(theirs, bound, base_index=sym.base.zero_i)
                    assert ours.getstate() == theirs.getstate()
                    for a, b in ((x, y), (y, x), (x, x), (x, sym.one_el), (sym.zero_el, x)):
                        assert sym.add(a, b) == old.add(a, b)
                    # members and non-members: parts outside the cone, and
                    # base indices outside the base
                    for z in (x, y, (x[0], sym.group.neg(x[1])), (sym.base.size, x[1]), (-1, x[1])):
                        assert sym.is_member(z) == old.is_member(z)


@pytest.mark.parametrize("group", DRAW_GROUPS, ids=lambda g: g.name)
def test_sample_members_match_frozen_draw_for_draw(group):
    """``sample_members(rng, b, c)`` gives the members of ``c`` frozen
    ``sample_member`` calls and leaves the generator in their state, at the
    base zero, a middle element and the unit (with and without an offset)
    and with the base index free."""
    offset = group.sample_nonneg(random.Random(1), 4)
    for sym in (SymbolicPea(diamond_table(), group, h=offset),
                SymbolicPea(chain_table(1), group)):
        old = frozen_pea(sym)
        for seed in range(2):
            for bound in (0, 1, 3, 10):
                for base_index in (None, sym.base.zero_i, 1, sym.base.one_i):
                    ours, theirs = random.Random(seed), random.Random(seed)
                    for count in (0, 1, 7, 500):
                        got = sym.sample_members(ours, bound, count, base_index)
                        assert got == [old.sample_member(theirs, bound, base_index)
                                       for _ in range(count)]
                        assert ours.getstate() == theirs.getstate()
                    assert sym.sample_member(ours, bound, base_index) == \
                        old.sample_member(theirs, bound, base_index)
                    assert ours.getstate() == theirs.getstate()


def test_differences_match_frozen():
    for sym in stream_fixtures():
        old = frozen_pea(sym)
        rng = random.Random(4)
        for _ in range(300):
            x, y = sym.sample_members(rng, 6, 2)
            s = sym.add(x, y)
            for a, b in ((x, y), (y, x), (x, x), (s or x, x), (s or y, y), (sym.one_el, x)):
                assert sym.left_difference(a, b) == old.left_difference(a, b)
                assert sym.right_difference(b, a) == old.right_difference(b, a)
                assert sym.le(a, b) == old.le(a, b)
            for k in (0, 1, 3):
                assert sym.scale(k, x) == old.scale(k, x)


def swapping(*pairs):
    """The map of Z^1 exchanging each pair of values."""
    table = dict(pairs)
    table.update((b, a) for a, b in pairs)
    return lambda g: (table.get(g[0], g[0]),)


@pytest.mark.parametrize("block", [2, 3, 256])
def test_axiom_report_keeps_its_shared_stream_past_a_witness(block, monkeypatch):
    """PE1 to PE4 draw from one generator.  The twist below is not additive,
    so PE1 fails within its first 256 samples, and its inverse is wrong
    only beyond the bound of a member's part, so PE3 fails on some streams
    while every member keeps its complements.  PE2 to PE4 give the frozen
    verdicts only if PE1 leaves the generator where the frozen loop did,
    wherever in its block the witness falls."""
    monkeypatch.setattr(constructions, "_BLOCK", block)
    sym = SymbolicPea(chain_table(2), IntVectorGroup(1), name="swapped",
                      twist={1: swapping((5, 6))},
                      twist_inv={1: swapping((5, 6), (9, 10), (-9, -10))})
    old = frozen_pea(sym)
    pe3 = set()
    for seed in range(20):
        ours = sym.sampled_axiom_report(seed=seed, samples=400)
        assert ours == old.sampled_axiom_report(seed=seed, samples=400)
        assert not ours[0].passed
        pe3.add(ours[2].passed)
    assert pe3 == {True, False}


def test_axiom_report_fails_pe2_on_a_member_without_complement():
    """A twist that negates the part, given without its inverse: the left
    difference of 1 by (1/2, g) is found only for g = 0, so PE2 fails with
    a witness instead of ending the report, and the other three verdicts
    are still drawn."""
    sym = SymbolicPea(chain_table(2), IntVectorGroup(1), twist={1: lambda g: (-g[0],)})
    report = sym.sampled_axiom_report(seed=0, samples=50)
    assert [(v.name, v.passed, v.witness) for v in report] == [
        ("PE1", True, None),
        ("PE2", False, "(1/2,-4)"),
        ("PE3", False, "((0,2), (1/2,-8))"),
        ("PE4", True, None),
    ]
    assert all(v.samples == 50 and v.seed == 0 for v in report)
    assert sym.left_difference(sym.one_el, (1, (-4,))) is None


def sampled_reports(sym, seed):
    """Every sampled verdict of ``sym`` at ``seed``."""
    out = list(sym.sampled_axiom_report(seed=seed, samples=150))
    out.append(sym.is_symmetric_sampled(seed=seed, samples=300))
    out.append(sym.check_comparability_sampled(seed=seed, samples=300))
    out.append(sym.sampled_state_additivity(seed=seed, samples=300))
    out.append(sym.sampled_infinit_is_level0(seed=seed, samples=150))
    preds = dict(sym.ideal_predicates)
    preds["level0"] = lambda x: sym.level(x) == 0
    preds["level>=1"] = lambda x: sym.level(x) >= 1        # not downward closed
    preds["part-in-cone"] = lambda x: sym.group.is_positive(x[1])
    for _, pred in sorted(preds.items()):
        out.append(sym.sampled_ideal_predicate(pred, seed=seed, samples=150))
        out.append(sym.sampled_normal_predicate(pred, seed=seed, samples=150))
    if 1 in sym.levels:
        c = (sym.levels.index(1), sym.group.zero())
        out.append(sym.sampled_cyclic_uniqueness(c, seed=seed, samples=150))
    out.append(sym.sampled_difference_consistency(seed=seed, samples=60))
    return out


def test_sampled_verdicts_match_frozen():
    witnesses = 0
    for sym in stream_fixtures():
        old = frozen_pea(sym)
        for seed in (0, 7, 100):
            ours, theirs = sampled_reports(sym, seed), sampled_reports(old, seed)
            assert ours == theirs, sym.name
            witnesses += sum(getattr(v, "witness", None) is not None for v in ours)
    # the comparison covers failing verdicts and their witnesses as well
    assert witnesses >= 20


def test_state_additivity_needs_a_positive_unit_level():
    assert Fraction(1, 2) == builtin_pea("example46").canonical_state((1, (0,)))
    with pytest.raises(InputError):
        SymbolicPea(diamond_table(), IntVectorGroup(1), levels=(0, 1, 1, 0))
