import random
from fractions import Fraction

import pytest

from peal.constructions import (
    Measure,
    SymbolicPea,
    _additivity_probe,
    _sampled,
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
# and sampled_state_additivity as they were when every draw called
# Random.randint/randrange.  The current code must take the same draws from
# the same generator, so every sampled verdict and witness stays the same.


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


class FrozenSymbolicPea(SymbolicPea):
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
        probe = _additivity_probe(self, bound, lambda x, y, s: state(x) + state(y) == state(s))
        return _sampled("canonical-state-additivity", seed, samples, probe)


def frozen_group(group: PoGroupHandle) -> PoGroupHandle:
    if type(group) is IntVectorGroup:
        return FrozenIntVectorGroup(group.k, group.order)
    if type(group) is TwistedZ3Group:
        return FrozenTwistedZ3Group()
    if type(group) is LexExtensionGroup:
        return FrozenLexExtensionGroup(frozen_group(group.inner))
    raise AssertionError("no frozen twin for %r" % (group,))


def frozen_pea(sym: SymbolicPea) -> FrozenSymbolicPea:
    """A twin of ``sym`` running the frozen code, with the same base, levels,
    twist, offset and predicates."""
    twin = object.__new__(FrozenSymbolicPea)
    twin.__dict__.update(sym.__dict__)
    twin.group = frozen_group(sym.group)
    return twin


STREAM_GROUPS = [
    IntVectorGroup(1), IntVectorGroup(3), IntVectorGroup(1, "lex"), IntVectorGroup(3, "lex"),
    TwistedZ3Group(), LexExtensionGroup(IntVectorGroup(2)),
    LexExtensionGroup(IntVectorGroup(2, "lex")), LexExtensionGroup(TwistedZ3Group()),
]


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
