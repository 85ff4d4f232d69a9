import hashlib
import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from peal import states
from peal.cli import main
from peal.constructions import chain_table, gamma_interval_finite
from peal.corpus import generate_peas
from peal.core import (
    InconsistencyError,
    InputError,
    PartialAdditionTable,
    _equations,
    check_axioms,
    dumps_document,
    table_to_document,
)
from peal.groups import IntVectorGroup, UnitalPoGroup
from peal.ideals import enumerate_ideals, is_ideal, is_normal
from peal.states import (
    StateVector,
    _affine_map,
    _dd_points,
    _eliminate,
    _nullspace_vector,
    _tight_rank_full,
    classify_state,
    discrete_labelings,
    enumerate_discrete_states,
    is_extremal,
    kernel,
    solve_state_space,
)
from test_rdp import relabeled

ZERO = Fraction(0)
ONE = Fraction(1)


def brute_discrete_states(table, n):
    """Independent oracle: filter all (n+1)^k value assignments."""
    values = [Fraction(i, n) for i in range(n + 1)]
    found = []
    for combo in product(values, repeat=table.size):
        vals = dict(zip(table.elements, combo))
        if vals[table.zero] != 0 or vals[table.one] != 1:
            continue
        if set(vals.values()) != set(values):
            continue
        ok = all(
            vals[table.elements[i]] + vals[table.elements[j]] == vals[table.elements[s]]
            for i, j, s in table.defined_sums()
        )
        if ok:
            found.append(tuple(combo))
    return found


def dense_rref(rows):
    """Reference dense Gauss-Jordan elimination (the last column is the
    right-hand side): the reduced rows, the pivot columns, and whether no
    row reduces to 0 = nonzero."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
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
    consistent = all(any(x != 0 for x in row[:-1]) or row[-1] == 0 for row in rows)
    return rows, pivots, consistent


def dense_state_system(table):
    """Reference solution of the additivity equations over dense rows:
    (particular, basis, free elements, consistent)."""
    k = table.size
    els = table.elements
    rows = []
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
    red, pivots, consistent = dense_rref(rows)
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


def brute_vertices(constraints, dim):
    """Independent vertex oracle for {t : a.t <= b} with dense rows a: solve
    every dim-subset of the constraints as equations and keep the unique
    solutions that satisfy all constraints."""
    points = set()
    for subset in combinations(constraints, dim):
        red, pivots, consistent = dense_rref([list(a) + [b] for a, b in subset])
        if not consistent or pivots != list(range(dim)):
            continue
        t = tuple(row[dim] for row in red)
        if all(sum(x * y for x, y in zip(a, t)) <= b for a, b in constraints):
            points.add(t)
    return sorted(points)


def fraction_state_values(table, values):
    """Reference state validation on Fractions (the checks and messages of
    StateVector before it held integer numerators): the value dict, or
    InputError."""
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
            raise InputError("state not additive at %r + %r = %r" % (a, b, c))
    return vals


def fraction_dot(row, point):
    return sum(v * point[c] for c, v in row.items())


def dd_vertices(constraints, dim):
    """``_dd_points`` on rational rows: each row (a, b) is scaled by the least
    positive integer that clears its denominators, and the points come back
    as Fraction tuples in increasing order."""
    rows = []
    for a, b in constraints:
        b = Fraction(b)
        m = math.lcm(b.denominator, *(v.denominator for v in a.values()))
        rows.append(({c: v.numerator * (m // v.denominator) for c, v in a.items()},
                     b.numerator * (m // b.denominator)))
    return sorted(tuple(Fraction(x, den) for x in num) for num, den in _dd_points(rows, dim))


def fraction_dd_vertices(constraints, dim):
    """Reference double description sweep on Fraction points (the sweep
    before it ran on integer rows and points)."""
    verts = [
        (tuple(ONE if mask >> i & 1 else ZERO for i in range(dim)),
         frozenset(2 * i + (mask >> i & 1) for i in range(dim)))
        for mask in range(1 << dim)
    ]
    for ci in range(2 * dim, len(constraints)):
        a, b = constraints[ci]
        vals = [fraction_dot(a, v) for v, _ in verts]
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
                if any(
                    common <= tight and m != i and m != j
                    for m, (_, tight) in enumerate(verts)
                ):
                    continue
                lam = (b - uval) / (wval - uval)
                new_pts.add(tuple(x + lam * (y - x) for x, y in zip(u, w)))
        if new_pts:
            new_pts -= {v for v, _ in keep}
        keep.extend(
            (p, frozenset(
                cj for cj in range(ci + 1)
                if fraction_dot(constraints[cj][0], p) == constraints[cj][1]
            ))
            for p in new_pts
        )
        verts = keep
        if not verts:
            return []
    return sorted(v for v, _ in verts)


def fraction_extremal_keys(space):
    """Value tuples of the extremal states in StateSpace order, computed the
    way the Fraction state layer did: box constraints over Fractions, the
    Fraction sweep, the affine map over Fractions, the Fraction validation,
    sorted by value tuple."""
    table, d = space.table, space.dimension
    particular, basis, free = space.particular, space.basis, set(space.free_elements)
    if d == 0:
        if not all(0 <= particular[e] <= 1 for e in table.elements):
            return []
        return [tuple(fraction_state_values(table, particular).values())]
    constraints = []
    for j in range(d):
        constraints.append(({j: -ONE}, ZERO))
        constraints.append(({j: ONE}, ONE))
    for e in table.elements:
        if e in free:
            continue
        coeffs = {j: basis[j][e] for j in range(d) if basis[j][e]}
        p = particular[e]
        if not coeffs:
            if p < 0 or p > 1:
                constraints.append(({}, Fraction(-1)))
            continue
        constraints.append(({j: -c for j, c in coeffs.items()}, p))
        constraints.append((coeffs, ONE - p))
    keys = set()
    for t in fraction_dd_vertices(constraints, d):
        vals = {e: particular[e] + sum(basis[j][e] * t[j] for j in range(d))
                for e in table.elements}
        keys.add(tuple(fraction_state_values(table, vals).values()))
    return sorted(keys)


def brute_extremal_keys(space):
    """Value tuples of the vertices of the state polytope, rebuilt from the
    public affine parametrization alone."""
    table, d = space.table, space.dimension
    constraints = []
    for e in table.elements:
        a = [space.basis[j][e] for j in range(d)]
        constraints.append(([-x for x in a], space.particular[e]))
        constraints.append((a, ONE - space.particular[e]))
    return sorted(
        tuple(
            space.particular[e] + sum(space.basis[j][e] * t[j] for j in range(d))
            for e in table.elements
        )
        for t in brute_vertices(constraints, d)
    )


def boolean(atoms):
    """The Boolean algebra 2^atoms as the interval [0, (1, ..., 1)] of Z^atoms."""
    return gamma_interval_finite(UnitalPoGroup(IntVectorGroup(atoms), (1,) * atoms))


def horizontal_sum(blocks, atoms):
    """``blocks`` copies of the Boolean algebra 2^atoms glued at 0 and 1;
    each block adds atoms - 1 free state parameters."""
    top = (1 << atoms) - 1
    elements, sums = ["0", "1"], {}
    for b in range(blocks):
        names = {x: "b%d.%d" % (b, x) for x in range(1, top)}
        names[0], names[top] = "0", "1"
        elements.extend(names[x] for x in range(1, top))
        for x in range(1, top):
            for y in range(1, top):
                if x & y == 0:
                    sums[(names[x], names[y])] = names[x | y]
    return PartialAdditionTable.build(elements, "0", "1", sums)


def mixed_sum(*blocks):
    """The horizontal sum of the PEAs ``blocks``: their middle elements,
    renamed per block, glued at one 0 and one 1, with each block's sums of
    nonzero elements."""
    elements, sums = ["0", "1"], {}
    for b, table in enumerate(blocks):
        els = table.elements
        name = {e: "m%d.%s" % (b, e) for e in els}
        name[table.zero], name[table.one] = "0", "1"
        elements += [name[e] for e in els if e not in (table.zero, table.one)]
        sums.update(((name[els[i]], name[els[j]]), name[els[k]])
                    for i, j, k in table.defined_sums() if table.zero_i not in (i, j))
    return PartialAdditionTable.build(elements, "0", "1", sums)


def mixed_sums():
    """Horizontal sums of a 2^2 block, a 2^3 block, a chain block and
    blocks whose labels are all forced (the chain 0 < 1/2 < 1, and the
    diamond, whose a and b each add only to themselves), in mixed and in
    shuffled element order."""
    b2, b3 = horizontal_sum(1, 2), horizontal_sum(1, 3)
    diamond = PartialAdditionTable.build(["0", "a", "b", "1"], "0", "1",
                                         {("a", "a"): "1", ("b", "b"): "1"})
    tables = [mixed_sum(b2, b3, chain_table(3), diamond), mixed_sum(b3, chain_table(2), b2),
              mixed_sum(chain_table(3), b3)]
    return tables + [relabeled(tables[1], random.Random(5))]


def test_diamond_unique_state(diamond):
    space = solve_state_space(diamond)
    assert space.consistent and space.dimension == 0
    assert len(space.extremal_states) == 1
    s = space.extremal_states[0]
    assert s("a") == s("b") == Fraction(1, 2)
    cls = classify_state(diamond, s)
    assert cls.discrete and cls.n == 2


def test_boolean4_state_family(boolean4):
    space = solve_state_space(boolean4)
    assert space.dimension == 1
    # the single free parameter is one of the middle elements
    free = space.free_elements[0]
    assert free in ("a", "a'")
    vals = {s(free) for s in space.extremal_states}
    assert vals == {Fraction(0), Fraction(1)}
    # the family is s(a) = t, s(a') = 1 - t
    other = "a'" if free == "a" else "a"
    assert space.particular[other] + space.basis[0][other] * 0 == space.particular[other]
    assert space.basis[0][other] == -1


def test_two_chain_unique_state():
    space = solve_state_space(chain_table(1))
    assert space.dimension == 0 and len(space.extremal_states) == 1


def test_discrete_states_boolean4(boolean4):
    one = enumerate_discrete_states(boolean4, 1)
    assert len(one) == 1 + 1
    assert {s("a") for s in one} == {Fraction(0), Fraction(1)}
    two = enumerate_discrete_states(boolean4, 2)
    assert len(two) == 1 and two[0]("a") == Fraction(1, 2)
    assert len(brute_discrete_states(boolean4, 1)) == 2
    assert len(brute_discrete_states(boolean4, 2)) == 1


def test_discrete_states_diamond(diamond):
    assert enumerate_discrete_states(diamond, 1) == []
    assert len(enumerate_discrete_states(diamond, 2)) == 1
    assert len(brute_discrete_states(diamond, 2)) == 1


def test_discrete_states_match_brute(pea_corpus_small):
    for table in pea_corpus_small:
        if table.size > 5:
            continue
        for n in (1, 2, 3):
            assert len(enumerate_discrete_states(table, n)) == len(
                brute_discrete_states(table, n)
            )


def test_discrete_rejects_zero():
    with pytest.raises(InputError):
        enumerate_discrete_states(chain_table(2), 0)


def test_classification_non_discrete(boolean4):
    s = StateVector(
        boolean4,
        {"0": Fraction(0), "a": Fraction(2, 5), "a'": Fraction(3, 5), "1": Fraction(1)},
    )
    cls = classify_state(boolean4, s)
    assert not cls.discrete
    assert cls.gap_witness == (Fraction(2, 5), Fraction(3, 5), Fraction(1, 5))


def test_two_valued_always_discrete(boolean4):
    for s in enumerate_discrete_states(boolean4, 1):
        cls = classify_state(boolean4, s)
        assert cls.discrete and cls.n == 1


@settings(max_examples=60, deadline=None)
@given(num=hyp.integers(min_value=0, max_value=60), den=hyp.integers(min_value=1, max_value=60))
def test_classification_criteria_agree_on_random_states(num, den):
    # classify_state itself asserts the three-way agreement; feeding it the
    # whole rational family on boolean4 exercises that assertion
    from peal.constructions import boolean4_table

    t = Fraction(num, den)
    if t > 1:
        t = 1 / t
    table = boolean4_table()
    s = StateVector(table, {"0": Fraction(0), "a": t, "a'": 1 - t, "1": Fraction(1)})
    classify_state(table, s)


def frozen_classify_state(table, s):
    """``classify_state`` as it was when it decided the criteria on the
    Fraction image."""
    s = states._as_state(table, s)
    img = s.image()
    n = len(img) - 1
    if n < 1:
        raise InputError("state image must contain 0 and 1")
    img_set = set(img)
    cond_iii = True
    gap = None
    for ti in img:
        for u in img:
            if ti <= u and u - ti not in img_set:
                cond_iii = False
                if gap is None:
                    gap = (ti, u, u - ti)
    cond_ii = all(1 - v in img_set for v in img) and all(
        u + v in img_set for u in img for v in img if u + v <= 1
    )
    uniform = img == [Fraction(i, n) for i in range(n + 1)]
    if not (cond_ii == cond_iii == uniform):
        raise InconsistencyError(
            "discreteness criteria disagree on image %r" % (img,)
        )
    return states.StateClassification(
        discrete=uniform,
        n=n if uniform else None,
        image=tuple(img),
        condition_ii=cond_ii,
        condition_iii=cond_iii,
        gap_witness=gap,
    )


def test_classification_matches_frozen_fraction_criteria(pea_corpus_full, boolean4):
    checked = set()
    for table in pea_corpus_full:
        found = list(solve_state_space(table).extremal_states)
        for n in range(1, 7):
            found += enumerate_discrete_states(table, n)
        for s in found:
            ours = classify_state(table, s)
            assert ours == frozen_classify_state(table, s)
            assert str(ours) == str(frozen_classify_state(table, s))
            checked.add((ours.discrete, ours.gap_witness is None))
    # mapping states with non-uniform images, and a gap witness
    for a in (Fraction(1, 4), Fraction(1, 3), Fraction(2, 7), Fraction(1, 2), ONE, ZERO):
        values = {"0": ZERO, "a": a, "a'": 1 - a, "1": ONE}
        ours = classify_state(boolean4, values)
        assert ours == frozen_classify_state(boolean4, values)
        checked.add((ours.discrete, ours.gap_witness is None))
    assert checked == {(True, True), (False, False)}


def test_extremality(boolean4, diamond):
    s = StateVector(
        boolean4,
        {"0": Fraction(0), "a": Fraction(1, 2), "a'": Fraction(1, 2), "1": Fraction(1)},
    )
    rep = is_extremal(boolean4, s)
    assert not rep.extremal
    s1, s2 = rep.witness
    assert s1 != s2
    assert {s1("a"), s2("a")} == {Fraction(0), Fraction(1)}
    for e in boolean4.elements:
        assert s(e) * 2 == s1(e) + s2(e)
    for vertex in solve_state_space(boolean4).extremal_states:
        assert is_extremal(boolean4, vertex).extremal
    assert is_extremal(diamond, solve_state_space(diamond).extremal_states[0]).extremal


def test_kernel(boolean4, diamond):
    s0 = enumerate_discrete_states(boolean4, 1)[0]
    ker = kernel(boolean4, s0)
    assert ker == frozenset({"0", "a"})
    assert is_ideal(boolean4, ker)[0] and is_normal(boolean4, ker)[0]
    assert kernel(diamond, solve_state_space(diamond).extremal_states[0]) == frozenset({"0"})


def test_kernels_in_ideal_lattice(pea_corpus_small):
    for table in pea_corpus_small:
        lattice = {i.members for i in enumerate_ideals(table)}
        for s in solve_state_space(table).extremal_states:
            assert kernel(table, s) in lattice


def test_state_validation_rejects_non_additive(boolean4):
    with pytest.raises(InputError):
        StateVector(
            boolean4,
            {"0": Fraction(0), "a": Fraction(1, 2), "a'": Fraction(1, 4), "1": Fraction(1)},
        )


def pairs_table(pairs):
    """``pairs`` independent complement pairs glued at 0 and 1: one free
    parameter and two extremal states per pair."""
    names = ["0", "1"]
    sums = {}
    for i in range(pairs):
        x, y = "x%d" % i, "y%d" % i
        names += [x, y]
        sums[(x, y)] = "1"
        sums[(y, x)] = "1"
    return PartialAdditionTable.build(names, "0", "1", sums)


def test_refuses_oversized_parameter_space(monkeypatch):
    # 13 pairs (8,192 extremal states) are under the vertex meter; 17 pairs
    # -> 2^17 = 131,072 are past it, refused before any product is built
    from peal.core import PreconditionError

    assert len(solve_state_space(pairs_table(13)).extremal_states) == 8192

    def built(*args):
        raise AssertionError("a product was built")

    monkeypatch.setattr(StateVector, "_from_additive", built)
    monkeypatch.setattr(StateVector, "_from_ints", built)
    with pytest.raises(PreconditionError, match="^state polytope has 131072 vertices; "
                                                "refusing beyond 65536$"):
        solve_state_space(pairs_table(17))


def test_sparse_elimination_matches_dense_reference(pea_corpus_full):
    for table in list(pea_corpus_full) + [chain_table(k) for k in range(1, 13)]:
        space = solve_state_space(table)
        particular, basis, free, consistent = dense_state_system(table)
        assert space.consistent == consistent
        if not consistent:
            continue
        assert list(space.particular.items()) == list(particular.items())
        assert [list(b.items()) for b in space.basis] == [list(b.items()) for b in basis]
        assert list(space.free_elements) == free
        _, _, m, free_cols = _affine_map(table)
        # the integer map's denominator is the least common one
        assert m == math.lcm(*(v.denominator for v in particular.values()),
                             *(v.denominator for vec in basis for v in vec.values()))
        assert [table.elements[f] for f in free_cols] == free


# SHA-256 of json.dumps([results, verdicts], sort_keys=True) of JSON state
# reports, recorded before the affine map was read off the reduced rows;
# ``argv`` is left out because it holds the document's temporary path.
PINNED_STATE_REPORTS = [
    (lambda: chain_table(40), ("states", "--extremal", "--discrete", "2"),
     "7add755f48e090da7546bce329ec1e39043c4591936e1a3be5d7a0f628f0249a"),
    (lambda: gamma_interval_finite(UnitalPoGroup(IntVectorGroup(2), (5, 5))),
     ("states", "--extremal", "--discrete", "2"),
     "2c65927053e2243c266f4d563f9b31781c2af4fa76d1b25a71690be71cea4895"),
    (lambda: horizontal_sum(4, 3), ("states", "--extremal"),
     "be0d87f1c299237fb351ca833d63e5a2f7908a9783530468fa9b9d3485b18ba0"),
    (lambda: horizontal_sum(4, 3), ("decompose", "2"),
     "c6db585c61e68fc9a87233717d124c743bfdb418f300ab8b2dbb362729b785bd"),
    (lambda: horizontal_sum(10, 2), ("states", "--extremal"),
     "8433b68c120671413d3f8478b0327e6e024623b741b3a7bcd54d4840a02c2bfc"),
    # recorded before the ideal lattice was read off its covers and before
    # the labeling search propagated forced labels; ``decompose 2`` on
    # horizontal_sum(4, 3) is the pin above
    (lambda: boolean(6), ("ideals",),
     "65c1e822c00fec827280a152524dabf04a919a4f5358b4cb89beaa281043beae"),
    (lambda: boolean(6), ("states", "--discrete", "2"),
     "bb9726c8b8212cedb8eea39360a12e63d9e65f65f1b1c3408ae3ee6aacb1392e"),
    (lambda: boolean(6), ("decompose", "2"),
     "fc8038ef4978c77745cede0847ea6a1a8a381e819c0a5ab7f2c0c319e040e79a"),
    (lambda: chain_table(80), ("ideals",),
     "ffbf7f2e454a4ecd76bb9d7569ec9933c238bbb0e9d762330acd35f5e2ee6d28"),
    (lambda: chain_table(80), ("states", "--discrete", "2"),
     "fa97d5472102f29d2c0173da69a45f530aeadccd7e86700c469d44022b3fcdba"),
    (lambda: chain_table(80), ("decompose", "2"),
     "c63e97c009cce9fc14e5c0400dc2c769908055ca719a45c0d47cc2b2f9bf73e9"),
    (lambda: horizontal_sum(4, 3), ("ideals",),
     "03d1f763376dbc3e5b711aa89850165689ad0e48410370fbf47dafd06d305fe9"),
    (lambda: horizontal_sum(4, 3), ("states", "--discrete", "2"),
     "cb2ec6105047341248d2befcd074ac422da470cff3b3cab4f55b04b3e4ee82e0"),
]


@pytest.mark.parametrize("make, argv, digest", PINNED_STATE_REPORTS,
                         ids=["chain40", "z2-5x5", "hsum-4x3", "hsum-4x3-decompose", "hsum-10x2",
                              "bool6-ideals", "bool6-discrete", "bool6-decompose",
                              "chain80-ideals", "chain80-discrete", "chain80-decompose",
                              "hsum-4x3-ideals", "hsum-4x3-discrete"])
def test_state_reports_keep_their_pinned_results(make, argv, digest, tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(dumps_document(table_to_document(make())))
    assert main(["--format", "json", argv[0], str(path)] + list(argv[1:])) == 0
    report = json.loads(capsys.readouterr().out)
    text = json.dumps([report["results"], report["verdicts"]], sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def frozen_rref(rows, ncols):
    """Reference sparse Gauss-Jordan elimination on Fractions (the state
    layer's elimination before it became fraction-free): the rows of the
    reduced form in pivot order, their pivot columns, and whether no row
    reduces to 0 = nonzero."""
    rest = [{c: Fraction(v) for c, v in r.items()} for r in rows]
    done = []
    pivots = []
    for col in range(ncols):
        at = next((i for i, r in enumerate(rest) if col in r), None)
        if at is None:
            continue
        inv = rest[at][col]
        pivot = {c: v / inv for c, v in rest.pop(at).items()}
        for row in done + rest:
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
    return done, pivots, not rest


def additivity_rows(table):
    """The additivity equations of ``table`` as sparse integer rows, every
    defined sum in turn, repeats included."""
    k = table.size
    rows = [{table.zero_i: 1}, {table.one_i: 1, k: 1}]
    for i, j, s in table.defined_sums():
        row = {c: (c == i) + (c == j) - (c == s) for c in (i, j, s)}
        rows.append({c: v for c, v in row.items() if v})
    return rows, k


def assert_kernel_matches_frozen(rows, ncols):
    before = [dict(r) for r in rows]
    red, pivots, consistent = _eliminate(rows, ncols)
    assert rows == before
    for row, col in zip(red, pivots):
        assert all(type(v) is int for v in row.values())
        assert row[col] > 0 and math.gcd(*row.values()) == 1
    # an empty row says 0 = 0; the frozen elimination would keep it as a
    # leftover row and call the system inconsistent, so it does not see one
    frozen, frozen_pivots, frozen_consistent = frozen_rref([r for r in rows if r], ncols)
    assert (pivots, consistent) == (frozen_pivots, frozen_consistent)
    again, again_pivots, again_consistent = _eliminate(list(reversed(rows)) + rows[:3], ncols)
    assert (again_pivots, again_consistent) == (pivots, consistent)
    if consistent:
        # the primitive rows are unique, whatever the order and repeats of the input
        assert again == red
    # with 0 = 1 among the rows no pivot is taken on the right-hand side, so
    # the right-hand sides depend on the pivot order
    last = ncols + consistent
    scaled = [{c: Fraction(v, row[col]) for c, v in row.items() if c < last}
              for row, col in zip(red, pivots)]
    assert scaled == [{c: v for c, v in row.items() if c < last} for row in frozen]


def test_kernel_matches_frozen_fraction_rref(pea_corpus_full):
    tables = list(pea_corpus_full) + [chain_table(k) for k in range(1, 41)] + [
        gamma_interval_finite(UnitalPoGroup(IntVectorGroup(2), (5, 5))),
        gamma_interval_finite(UnitalPoGroup(IntVectorGroup(5), (1,) * 5)),
    ]
    for table in tables:
        assert_kernel_matches_frozen(*additivity_rows(table))


@settings(max_examples=300, deadline=None)
@given(data=hyp.data())
def test_hypothesis_kernel_matches_frozen_fraction_rref(data):
    ncols = data.draw(hyp.integers(1, 6))
    entry = hyp.one_of(hyp.integers(-3, 3), hyp.integers(-10 ** 20, 10 ** 20))
    row = hyp.dictionaries(hyp.integers(0, ncols), entry.filter(bool), max_size=ncols + 1)
    rows = data.draw(hyp.lists(row, max_size=8))
    # repeats, multiples and combinations of drawn rows: rank-deficient
    # systems, and inconsistent ones when a combination's right-hand side moves
    for _ in range(data.draw(hyp.integers(0, 4))):
        if not rows:
            break
        x, y = data.draw(hyp.sampled_from(rows)), data.draw(hyp.sampled_from(rows))
        fx, fy = data.draw(entry), data.draw(entry)
        combo = {c: fx * x.get(c, 0) + fy * y.get(c, 0) for c in x.keys() | y.keys()}
        combo = {c: v for c, v in combo.items() if v}
        shift = data.draw(hyp.integers(-2, 2))
        if shift:
            combo[ncols] = combo.get(ncols, 0) + shift
            combo = {c: v for c, v in combo.items() if v}
        rows.append(combo)
    assert_kernel_matches_frozen(rows, ncols)
    # the witness direction: an integer null vector exactly below full rank
    lhs = [{c: v for c, v in r.items() if c < ncols} for r in rows]
    direction = _nullspace_vector(lhs, ncols)
    if len(frozen_rref([r for r in lhs if r], ncols)[1]) == ncols:
        assert direction is None
    else:
        assert any(direction) and all(type(x) is int for x in direction)
        assert all(fraction_dot(r, direction) == 0 for r in lhs)


def test_extremal_states_match_brute_vertices(pea_corpus_full):
    tables = list(pea_corpus_full) + [
        horizontal_sum(blocks, atoms) for blocks, atoms in ((2, 2), (3, 2), (4, 2), (2, 3))
    ]
    for table in tables:
        space = solve_state_space(table)
        if not space.consistent:
            continue
        assert space.dimension <= 4
        found = sorted(tuple(s(e) for e in table.elements) for s in space.extremal_states)
        assert found == brute_extremal_keys(space)


@settings(max_examples=200, deadline=None)
@given(
    dim=hyp.integers(min_value=1, max_value=3),
    cuts=hyp.lists(
        hyp.tuples(
            hyp.lists(hyp.integers(min_value=-2, max_value=2), min_size=3, max_size=3),
            hyp.integers(min_value=-1, max_value=4),
        ),
        max_size=4,
    ),
)
def test_vertex_sweep_matches_brute_oracle(dim, cuts):
    # small integer cuts through the unit box, many of them degenerate
    constraints = []
    for j in range(dim):
        constraints.append(({j: -ONE}, ZERO))
        constraints.append(({j: ONE}, ONE))
    for coeffs, b in cuts:
        constraints.append(
            ({j: Fraction(c) for j, c in enumerate(coeffs[:dim]) if c}, Fraction(b, 2))
        )
    dense = [([a.get(j, ZERO) for j in range(dim)], b) for a, b in constraints]
    assert dd_vertices(constraints, dim) == brute_vertices(dense, dim)


def test_chain80_state_space_is_fast():
    start = time.perf_counter()
    space = solve_state_space(chain_table(80))
    assert time.perf_counter() - start < 10.0
    assert space.consistent and space.dimension == 0 and len(space.extremal_states) == 1


def hsum_tables():
    return [horizontal_sum(blocks, atoms) for blocks, atoms in ((2, 2), (3, 2), (4, 2), (2, 3))]


def test_extremal_states_match_frozen_fraction_layer(pea_corpus_full):
    for table in list(pea_corpus_full) + hsum_tables():
        space = solve_state_space(table)
        if not space.consistent:
            continue
        found = [tuple(s(e) for e in table.elements) for s in space.extremal_states]
        assert found == fraction_extremal_keys(space)


@settings(max_examples=200, deadline=None)
@given(
    dim=hyp.integers(min_value=1, max_value=3),
    cuts=hyp.lists(
        hyp.tuples(
            hyp.lists(
                hyp.tuples(hyp.integers(min_value=-3, max_value=3),
                           hyp.integers(min_value=1, max_value=6)),
                min_size=3, max_size=3,
            ),
            hyp.integers(min_value=-2, max_value=6),
            hyp.integers(min_value=1, max_value=6),
        ),
        max_size=4,
    ),
)
def test_vertex_sweep_matches_frozen_sweep_with_small_denominators(dim, cuts):
    # cut coefficients and right-hand sides with denominators 1 to 6
    constraints = []
    for j in range(dim):
        constraints.append(({j: -ONE}, ZERO))
        constraints.append(({j: ONE}, ONE))
    for coeffs, b, q in cuts:
        row = {j: Fraction(c, cq) for j, (c, cq) in enumerate(coeffs[:dim]) if c}
        constraints.append((row, Fraction(b, q)))
    dense = [([a.get(j, ZERO) for j in range(dim)], b) for a, b in constraints]
    found = dd_vertices(constraints, dim)
    assert found == fraction_dd_vertices(constraints, dim)
    assert found == brute_vertices(dense, dim)


def validation_outcome(fn):
    try:
        return "ok", tuple(fn().items())
    except InputError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None)
@given(data=hyp.data())
def test_state_validation_matches_frozen_fraction_checks(pea_corpus_full, data):
    table = data.draw(hyp.sampled_from(list(pea_corpus_full) + hsum_tables()[:2]))
    states = list(solve_state_space(table).extremal_states)
    for n in (1, 2, 3):
        states.extend(enumerate_discrete_states(table, n))
    if not states:
        return
    values = dict(data.draw(hyp.sampled_from(states)).values)
    for _ in range(data.draw(hyp.integers(min_value=1, max_value=2))):
        kind = data.draw(hyp.sampled_from(["remove", "outside", "value", "zero"]))
        e = data.draw(hyp.sampled_from(table.elements))
        if kind == "remove":
            values.pop(e, None)
        elif kind == "outside":
            off = data.draw(hyp.fractions(min_value=Fraction(1, 6), max_value=2,
                                          max_denominator=6))
            values[e] = -off if data.draw(hyp.booleans()) else 1 + off
        elif kind == "value":
            values[e] = data.draw(hyp.fractions(min_value=0, max_value=1, max_denominator=12))
        else:
            values[table.zero] = data.draw(
                hyp.fractions(min_value=0, max_value=1, max_denominator=12).filter(bool))
    expected = validation_outcome(lambda: fraction_state_values(table, values))
    assert validation_outcome(lambda: StateVector(table, values).values) == expected
    if len(values) == table.size:
        # the same checks on integer numerators over a common denominator
        den = math.lcm(*(Fraction(v).denominator for v in values.values()))
        num = [int(Fraction(values[e]) * den) for e in table.elements]
        assert validation_outcome(lambda: StateVector._from_ints(table, num, den).values) == expected


# -- the separable polytope against frozen copies of the single sweep -------


def frozen_dd_points(rows, dim):
    """Reference double description sweep over the whole polytope with
    frozenset tight sets (the sweep before the polytope was split into
    blocks): sorted points (numerators, denominator) of integer rows."""
    verts = [
        ((tuple(mask >> i & 1 for i in range(dim)), 1),
         frozenset(2 * i + (mask >> i & 1) for i in range(dim)))
        for mask in range(1 << dim)
    ]
    for ci in range(2 * dim, len(rows)):
        a, b = rows[ci]
        slacks = [b * den - fraction_dot(a, num) for (num, den), _ in verts]
        keep = [
            (v, tight | {ci} if slack == 0 else tight)
            for (v, tight), slack in zip(verts, slacks)
            if slack >= 0
        ]
        outside = [j for j, slack in enumerate(slacks) if slack < 0]
        new_pts = set()
        for i, (((un, ud), tu), su) in enumerate(zip(verts, slacks)):
            if su <= 0:
                continue
            for j in outside:
                ((wn, wd), tw), wx = verts[j], -slacks[j]
                common = tu & tw
                if len(common) < dim - 1:
                    continue
                if any(
                    common <= tight and m != i and m != j
                    for m, (_, tight) in enumerate(verts)
                ):
                    continue
                num = [wx * x + su * y for x, y in zip(un, wn)]
                den = wx * ud + su * wd
                g = math.gcd(den, *num)
                new_pts.add((tuple(x // g for x in num), den // g))
        if new_pts:
            new_pts -= {v for v, _ in keep}
        keep.extend(
            (p, frozenset(
                cj for cj in range(ci + 1)
                if fraction_dot(rows[cj][0], p[0]) == rows[cj][1] * p[1]
            ))
            for p in new_pts
        )
        verts = keep
        if not verts:
            return []
    common = math.lcm(*(den for (_, den), _ in verts))
    return sorted((v for v, _ in verts),
                  key=lambda v: tuple(x * (common // v[1]) for x in v[0]))


def frozen_box_constraints(table):
    """Reference integer box rows 0 <= s(e) <= 1 in the free coordinates,
    unit box first, built from the integer affine map."""
    p, affine_rows, m, free_cols = _affine_map(table)
    free = set(solve_state_space(table).free_elements)
    rows = [{} for _ in p]
    for i, row in affine_rows:
        rows[i].update(row)
    constraints = []
    for j in range(len(free_cols)):
        constraints.append(({j: -1}, 0))
        constraints.append(({j: 1}, 1))
    for e, pe, coeffs in zip(table.elements, p, rows):
        if e in free:
            continue
        if not coeffs:
            if pe < 0 or pe > m:
                constraints.append(({}, -1))
            continue
        constraints.append(({j: -c for j, c in coeffs.items()}, pe))
        constraints.append((coeffs, m - pe))
    return constraints


def frozen_extremal_keys(table):
    """Value tuples of the extremal states in StateSpace order, by one sweep
    over the whole d-dimensional polytope."""
    p, rows, m, free = _affine_map(table)
    if not free:
        return [tuple(Fraction(x, m) for x in p)] if all(0 <= x <= m for x in p) else []
    keys = set()
    for num, den in frozen_dd_points(frozen_box_constraints(table), len(free)):
        vals = [pe * den for pe in p]
        for i, row in rows:
            for j, c in row.items():
                vals[i] += c * num[j]
        keys.add(tuple(Fraction(v, m * den) for v in vals))
    return sorted(keys)


def frozen_labelings(table, n):
    """Reference labeling search over all middle elements at once (the
    search before it ran block by block)."""
    k = table.size
    labels = [-1] * k
    labels[table.zero_i] = 0
    labels[table.one_i] = n
    order = [i for i in range(k) if labels[i] == -1]
    incident = [[] for _ in range(k)]
    for i, j, s in table.defined_sums():
        for e in {i, j, s}:
            incident[e].append((i, j, s))
    out = []

    def local_ok(e):
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

    count = [0] * (n + 1)
    count[0] += 1
    count[n] += 1
    missing = count.count(0)

    def rec(pos):
        nonlocal missing
        if pos == len(order):
            if not missing:
                out.append(tuple(labels))
            return
        if missing > len(order) - pos:
            return
        e = order[pos]
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
    return sorted(out)


def fraction_rank_full(table, s):
    """Reference vertex test: the box rows tight at ``s`` have full rank,
    decided by the dense Fraction elimination ``dense_rref``."""
    space = solve_state_space(table)
    d = space.dimension
    t0 = [s._num[table.index(e)] for e in space.free_elements]
    tight = [a for a, b in frozen_box_constraints(table) if fraction_dot(a, t0) == b * s._den]
    _, pivots, _ = dense_rref([[Fraction(a.get(c, 0)) for c in range(d)] + [ZERO] for a in tight])
    return len(pivots) == d


def glue(tables):
    """Horizontal sum of PEAs: disjoint copies of their middle elements,
    with one shared 0 and 1; block b renames element x to "b.x"."""
    elements, sums = ["0", "1"], {}
    for b, table in enumerate(tables):
        name = {e: "%d.%s" % (b, e) for e in table.elements}
        name[table.zero], name[table.one] = "0", "1"
        elements.extend(name[e] for e in table.elements if e not in (table.zero, table.one))
        for i, j, s in table.defined_sums():
            x, y, z = (name[table.elements[c]] for c in (i, j, s))
            sums[(x, y)] = z
    glued = PartialAdditionTable.build(elements, "0", "1", sums)
    assert check_axioms(glued, "pea").passed
    return glued


def midpoint(table, s1, s2):
    return StateVector(table, {e: (s1(e) + s2(e)) / 2 for e in table.elements})


def extremal_values(space):
    return [tuple(s(e) for e in space.table.elements) for s in space.extremal_states]


def test_block_product_matches_frozen_single_sweep(pea_corpus_full):
    tables = list(pea_corpus_full) + hsum_tables() + [chain_table(k) for k in range(1, 13)]
    for table in tables:
        space = solve_state_space(table)
        if space.consistent:
            assert extremal_values(space) == frozen_extremal_keys(table)


def small_blocks(pea_corpus_small):
    """Corpus tables of at most 6 elements with at least one free parameter,
    and a table of 4 elements without one."""
    moving = [t for t in pea_corpus_small if solve_state_space(t).dimension >= 1]
    fixed = next(t for t in pea_corpus_small
                 if t.size == 4 and solve_state_space(t).dimension == 0)
    return moving, fixed


def test_glued_sums_match_brute_vertices(pea_corpus_small):
    moving, fixed = small_blocks(pea_corpus_small)
    sums = [glue(pair) for pair in combinations(moving + [fixed], 2)]
    sums += [glue((t, t)) for t in moving]
    sums += [glue((moving[0], fixed, moving[1])), glue((moving[0],) * 3)]
    for table in sums:
        space = solve_state_space(table)
        assert space.consistent and 1 <= space.dimension <= 4
        found = extremal_values(space)
        assert found == frozen_extremal_keys(table)
        assert sorted(found) == brute_extremal_keys(space)


@settings(max_examples=40, deadline=None)
@given(data=hyp.data())
def test_hypothesis_glued_sums_match_oracles(pea_corpus_small, data):
    parts = data.draw(hyp.lists(hyp.sampled_from(list(pea_corpus_small)), min_size=2, max_size=3))
    table = glue(parts)
    space = solve_state_space(table)
    assert space.dimension == sum(solve_state_space(t).dimension for t in parts)
    found = extremal_values(space)
    assert found == frozen_extremal_keys(table)
    # a vertex of the sum is one vertex of each part
    assert len(found) == math.prod(len(solve_state_space(t).extremal_states) for t in parts)
    if space.dimension <= 3:
        assert sorted(found) == brute_extremal_keys(space)
    for s in space.extremal_states:
        assert is_extremal(table, s).extremal and fraction_rank_full(table, s)


def test_integer_certificate_matches_fraction_rank(pea_corpus_full, pea_corpus_small):
    moving, fixed = small_blocks(pea_corpus_small)
    tables = list(pea_corpus_full) + hsum_tables() + [
        glue(pair) for pair in combinations(moving + [fixed], 2)]
    checked = 0
    for table in tables:
        space = solve_state_space(table)
        if not space.consistent or space.dimension == 0:
            continue
        states = list(space.extremal_states)
        states += [midpoint(table, states[0], s) for s in states[1:]]
        for s in states:
            assert _tight_rank_full(table, s) == fraction_rank_full(table, s)
            checked += 1
    assert checked > 100


def test_midpoint_of_two_vertices_gets_a_witness(pea_corpus_full):
    tested = 0
    for table in pea_corpus_full:
        space = solve_state_space(table)
        if not space.consistent or space.dimension == 0:
            continue
        first, last = space.extremal_states[0], space.extremal_states[-1]
        s = midpoint(table, first, last)
        rep = is_extremal(table, s)
        assert not rep.extremal
        s1, s2 = rep.witness
        assert s1 != s2
        for e in table.elements:
            assert 2 * s(e) == s1(e) + s2(e)
        tested += 1
    assert tested == 14


def test_labelings_match_frozen_search(pea_corpus_full):
    for table in list(pea_corpus_full) + hsum_tables():
        for n in (1, 2, 3):
            assert discrete_labelings(table, n) == frozen_labelings(table, n)


@pytest.mark.parametrize("make", [
    lambda: chain_table(40),
    lambda: gamma_interval_finite(UnitalPoGroup(IntVectorGroup(2), (5, 5))),
    lambda: boolean(5),
    lambda: horizontal_sum(4, 3),
], ids=["chain40", "z2-5x5", "bool5", "hsum-4x3"])
def test_propagated_labelings_match_frozen_search_under_relabelings(make):
    """Element order drives the search order, and so which labels are
    chosen and which are forced."""
    table = make()
    for copy in [table] + [relabeled(table, random.Random(seed)) for seed in (0, 1, 2)]:
        for n in (1, 2, 3):
            assert discrete_labelings(copy, n) == frozen_labelings(copy, n)


def test_labelings_with_more_labels_than_elements_are_empty(diamond):
    start = time.perf_counter()
    assert discrete_labelings(diamond, 10 ** 12) == []
    assert enumerate_discrete_states(diamond, diamond.size) == []
    assert time.perf_counter() - start < 1.0


def test_extremality_on_vertices_forms_no_fraction(monkeypatch):
    table = horizontal_sum(4, 3)
    vertices = solve_state_space(table).extremal_states
    assert len(vertices) == 81
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    verdicts = [is_extremal(table, s).extremal for s in vertices]
    monkeypatch.undo()
    assert all(verdicts)
    assert made == []


def test_factor_flags_match_the_extremality_oracle():
    """The extremality flags of ``pea states --extremal``, read from the
    tight-rank certificates of the block vertices, are ``is_extremal``'s
    verdict on every vertex of the corpus of at most 8 elements, of
    hsum-4x3, hsum-10x2 and of the mixed horizontal sums."""
    vertices = 0
    for table in list(generate_peas(8)) + [horizontal_sum(4, 3), horizontal_sum(10, 2)] \
            + mixed_sums():
        space = solve_state_space(table)
        found, flags = states._vertices(table)[0], states._extremal_flags(table)
        assert found == space.extremal_states and len(flags) == len(found)
        assert list(flags) == [is_extremal(table, s).extremal for s in found]
        vertices += len(found)
    assert vertices > 1250, vertices


def test_a_planted_non_vertex_gets_the_oracle_flag(monkeypatch):
    """A midpoint of two vertices of one block, planted among that block's
    vertices, is additive, so its products are built; each of them is
    flagged not extremal, as ``is_extremal`` finds it."""
    real = states._block_values

    def planted(p, block):
        found = real(p, block)
        (d1, v1), (d2, v2) = found[:2]
        d = math.lcm(d1, d2)
        middle = tuple((i, x * (d // d1) + y * (d // d2)) for (i, x), (_, y) in zip(v1, v2))
        return found + [(2 * d, middle)]

    monkeypatch.setattr(states, "_block_values", planted)
    table = horizontal_sum(2, 3)
    found, flags = states._vertices(table)[0], states._extremal_flags(table)
    assert len(found) == 16 and flags.count(False) == 7
    assert list(flags) == [is_extremal(table, s).extremal for s in found]


@pytest.mark.parametrize("k", [0, -1])
def test_a_corrupted_block_vertex_is_refused_as_not_additive(monkeypatch, k):
    """A block vertex that breaks one of its block's equations, the first
    vertex of the first block or the last of the last, fails its
    certificate, and the product states are then built with the full check,
    which refuses the first one with the usual message."""
    real = states._block_values
    table = horizontal_sum(2, 3)
    target = states._polytope_blocks(table)[k]

    def corrupted(p, block):
        found = real(p, block)
        if block is target:
            den, values = found[k]
            # swap the values of an atom and its complement, both in range
            found[k] = (den, ((values[0][0], values[-1][1]),) + values[1:-1]
                        + ((values[-1][0], values[0][1]),))
        return found

    monkeypatch.setattr(states, "_block_values", corrupted)
    with pytest.raises(InputError, match="^state not additive at "):
        solve_state_space(table)


@pytest.mark.parametrize("wrong", [None, "zero", "ones"])
def test_witness_direction_is_certified(monkeypatch, wrong):
    # block 0 at a vertex, block 1 at the midpoint of its two vertices: the
    # tight rows settle block 0's coordinate, so (1, 1) is not a null vector
    table = horizontal_sum(2, 2)
    v = solve_state_space(table).extremal_states
    s = midpoint(table, v[0], next(w for w in v if w("b0.1") == v[0]("b0.1") and w != v[0]))
    assert not is_extremal(table, s).extremal
    direction = {None: None, "zero": (0, 0), "ones": (1, 1)}[wrong]
    monkeypatch.setattr(states, "_nullspace_vector", lambda rows, dim: direction)
    with pytest.raises(InconsistencyError, match="not a nonzero null vector"):
        is_extremal(table, s)


@pytest.mark.parametrize("blocks, atoms, vertices", [(6, 3, 729), (4, 4, 256)])
def test_twelve_parameter_horizontal_sums_are_fast(blocks, atoms, vertices):
    table = horizontal_sum(blocks, atoms)
    start = time.perf_counter()
    space = solve_state_space(table)
    assert all(is_extremal(table, s).extremal for s in space.extremal_states)
    assert time.perf_counter() - start < 5.0
    assert space.dimension == 12 and len(space.extremal_states) == vertices


def test_fourteen_free_parameters_in_small_blocks_are_accepted():
    """hsum-7x3 has 14 free parameters in seven blocks of two: 3^7 = 2,187
    vertices, well under the vertex meter, each flagged as ``is_extremal``
    decides it."""
    table = horizontal_sum(7, 3)
    space = solve_state_space(table)
    assert space.dimension == 14 and len(space.extremal_states) == 2187
    flags = states._extremal_flags(table)
    assert list(flags) == [is_extremal(table, s).extremal for s in space.extremal_states]
    assert all(flags)


def test_the_meter_refuses_a_block_whose_sweep_starts_past_it(monkeypatch):
    # 2^4 is one block of 3 free parameters: its sweep starts at 2^3 corners
    from peal.core import PreconditionError

    monkeypatch.setattr(states, "MAX_VERTICES", 7)
    with pytest.raises(PreconditionError, match="^vertex sweep starts at 8 vertices; "
                                                "refusing beyond 7$"):
        solve_state_space(horizontal_sum(1, 4))
    monkeypatch.setattr(states, "MAX_VERTICES", 8)
    assert len(solve_state_space(horizontal_sum(1, 4)).extremal_states) == 4


def test_the_meter_refuses_a_block_whose_sweep_grows_past_it(monkeypatch):
    # the unit square cut by t0 + t1 <= 3/2 is a pentagon: the sweep starts
    # at 4 corners and holds 5 vertices after the cut
    from peal.core import PreconditionError

    square = [({0: -1}, 0), ({0: 1}, 1), ({1: -1}, 0), ({1: 1}, 1)]
    monkeypatch.setattr(states, "MAX_VERTICES", 4)
    with pytest.raises(PreconditionError, match="^vertex sweep holds 5 vertices; "
                                                "refusing beyond 4$"):
        _dd_points(square + [({0: 2, 1: 2}, 3)], 2)
    monkeypatch.setattr(states, "MAX_VERTICES", 5)
    assert sorted(_dd_points(square + [({0: 2, 1: 2}, 3)], 2)) == [
        ((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((1, 2), 2), ((2, 1), 2)]


def test_the_meter_refuses_a_product_past_it(monkeypatch):
    # four pairs: each block's sweep holds 2 vertices, and their product 16
    from peal.core import PreconditionError

    monkeypatch.setattr(states, "MAX_VERTICES", 15)
    with pytest.raises(PreconditionError, match="^state polytope has 16 vertices; "
                                                "refusing beyond 15$"):
        solve_state_space(pairs_table(4))
    monkeypatch.setattr(states, "MAX_VERTICES", 16)
    assert len(solve_state_space(pairs_table(4)).extremal_states) == 16


def frozen_label_blocks(table):
    """The label blocks and getter of ``_label_blocks`` as a walk over each
    element's equations found them, before the blocks were the components
    of ``_split``."""
    k = table.size
    incident = [[] for _ in range(k)]
    for eq in _equations(table):
        i, j, s = eq
        incident[i].append(eq)
        if j != i:
            incident[j].append(eq)
        incident[s].append(eq)
    placed = 1 << table.zero_i | 1 << table.one_i
    blocks = []
    for e in range(k):
        if placed >> e & 1:
            continue
        placed |= 1 << e
        block = [e]
        for x in block:
            for eq in incident[x]:
                for y in eq:
                    if not placed >> y & 1:
                        placed |= 1 << y
                        block.append(y)
        blocks.append(tuple(sorted(block)))
    position = [0] * k
    position[table.one_i] = 1
    for at, e in enumerate((e for block in blocks for e in block), 2):
        position[e] = at
    return blocks, position


def assert_blocks_match_frozen_walker(table):
    blocks, getter = states._label_blocks(table)
    frozen_blocks, position = frozen_label_blocks(table)
    assert blocks == frozen_blocks
    probe = tuple(range(table.size))
    assert getter(probe) == tuple(position)
    # each polytope block moves the elements of one label block only
    home = {e: b for b, block in enumerate(blocks) for e in block}
    if _affine_map(table) is not None and states._polytope_blocks(table):
        for _, _, elements in states._polytope_blocks(table):
            assert len({home[i] for i, _ in elements}) == 1


def split_tables():
    return list(generate_peas(8) + generate_peas(9, min_size=9)) + mixed_sums() + [
        horizontal_sum(4, 3), horizontal_sum(10, 2)]


def test_label_blocks_match_the_frozen_walker():
    for table in split_tables():
        assert_blocks_match_frozen_walker(table)


@settings(max_examples=40, deadline=None)
@given(data=hyp.data())
def test_label_blocks_match_the_frozen_walker_under_relabelings(data):
    table = data.draw(hyp.sampled_from(split_tables()))
    assert_blocks_match_frozen_walker(relabeled(table, random.Random(data.draw(hyp.integers(0, 99)))))
