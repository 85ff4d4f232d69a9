"""The theorem property-suite: every structural claim the library relies on,
run over the exhaustively generated small-model corpus plus the builtin
symbolic fixtures.

Each check appends a verdict; the suite report is deterministic given
(max_size, seed) and carries a ready-to-load witness document for the first
failing table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import decompositions as dec
from . import ideals as idl
from . import states as st
from .constructions import (
    _first_witness,
    builtin_pea,
    chain_table,
    lex_product_pea,
    unitize,
)
from .core import (
    InputError,
    PartialAdditionTable,
    _noncommuting_pair,
    check_axioms,
    complements,
    difference,
    dumps_document,
    induced_order,
    is_symmetric,
    isotropic_data,
    table_to_document,
)
from .corpus import are_isomorphic, generate_gpeas, generate_peas
from .groups import (
    IntVectorGroup,
    TwistedZ3Group,
    UnitalPoGroup,
    is_commutator,
    probe_directed,
    probe_pogroup,
    probe_strong_unit,
    probe_torsion_free,
)

MAX_SUITE_SIZE = 9


@dataclass
class SuiteReport:
    max_size: int
    seed: int
    verdicts: List[Tuple[str, bool, str]] = field(default_factory=list)
    witness_document: Optional[str] = None
    corpus_sizes: Dict[int, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.verdicts)

    def record(self, name: str, ok: bool, detail: str = "", table: Optional[PartialAdditionTable] = None):
        self.verdicts.append((name, ok, detail))
        if not ok and self.witness_document is None and table is not None:
            self.witness_document = dumps_document(table_to_document(table))


def _core_invariants(report: SuiteReport, table: PartialAdditionTable, tag: str) -> None:
    order = induced_order(table)
    ok = True
    detail = ""
    for a in table.elements:
        minus, tilde = complements(table, a)
        if complements(table, minus)[1] != a or complements(table, tilde)[0] != a:
            ok, detail = False, "double complement fails at %r" % (a,)
            break
    if ok:
        for a in table.elements:
            for b in table.elements:
                if not order.le(a, b):
                    continue
                am, at = complements(table, a)
                bm, bt = complements(table, b)
                if not (order.le(bm, am) and order.le(bt, at)):
                    ok, detail = False, "complement antitonicity fails at (%r, %r)" % (a, b)
                    break
                left = difference(table, a, b, "left")
                right = difference(table, a, b, "right")
                if table.add(left, a) != b or table.add(a, right) != b:
                    ok, detail = False, "difference identities fail at (%r, %r)" % (a, b)
                    break
            if not ok:
                break
    report.record("core-invariants[%s]" % tag, ok, detail, table)
    # symmetry criterion agreement is asserted inside is_symmetric
    is_symmetric(table)
    report.record("symmetry-criteria-agree[%s]" % tag, True, "")


def _rdp_checks(report: SuiteReport, table: PartialAdditionTable, tag: str) -> None:
    from .rdp import rdp_report

    rep = rdp_report(table)  # the implication chain is asserted inside
    commutative = all(
        table.add(a, b) == table.add(b, a)
        for a in table.elements
        for b in table.elements
    )
    ok = not commutative or rep.rdp == rep.rdp1
    report.record("rdp-battery[%s]" % tag, ok,
                  "" if ok else "rdp=%s rdp1=%s" % (rep.rdp, rep.rdp1), table)


def _state_checks(report: SuiteReport, table: PartialAdditionTable, tag: str) -> None:
    space = st.solve_state_space(table)
    ok = True
    detail = ""
    for s in space.extremal_states:
        st.classify_state(table, s)  # asserts the three-way equivalence
        if not st.is_extremal(table, s).extremal:
            ok, detail = False, "vertex state not extremal"
            break
        ker = st.kernel(table, s)  # asserts normal ideal
        if ker not in {i.members for i in idl.enumerate_ideals(table)}:
            ok, detail = False, "kernel missing from the ideal lattice"
            break
    report.record("state-machinery[%s]" % tag, ok, detail, table)


def _bijection_checks(report: SuiteReport, table: PartialAdditionTable, tag: str, max_n: int) -> None:
    ok = True
    detail = ""
    for n in range(1, max_n + 1):
        pairs = dec.decomposition_state_bijection(table, n)  # asserts mutual inverse
        for D, s in pairs:
            e0 = D.parts[0]
            if not (idl.is_ideal(table, e0)[0] and idl.is_normal(table, e0)[0]):
                ok, detail = False, "E_0 not a normal ideal at n=%d" % (n,)
                break
            dec.check_comparability(table, D)  # asserts biconditional + consequences
            st.classify_state(table, s)
        if not ok:
            break
    report.record("decomposition-state-bijection[%s]" % tag, ok, detail, table)


def _ideal_checks(report: SuiteReport, table: PartialAdditionTable, tag: str) -> None:
    ok = True
    detail = ""
    all_ideals = idl.enumerate_ideals(table)
    for ide in all_ideals:
        r1 = idl.check_r1(table, ide.members)[0]
        r2 = idl.check_r2(table, ide.members)[0]
        # PEAs are upwards directed, so (R1) must already imply (R2)
        if r1 and not r2:
            ok, detail = False, "(R1) held without (R2) on %r" % (sorted(ide.members),)
            break
        if ide.normal and r1:
            q, linear, _ = idl.quotient(table, ide.members)
            if linear != induced_order(q).is_total():
                ok, detail = False, "(L) mismatch on %r" % (sorted(ide.members),)
                break
    report.record("ideal-battery[%s]" % tag, ok, detail, table)
    idl.two_valued_partition(table)  # asserts the state/ideal bijection internally
    report.record("two-valued-partition[%s]" % tag, True, "")

    from .rdp import check_rdp0

    if check_rdp0(table)[0]:
        ok = True
        detail = ""
        lattices = [i.members for i in all_ideals]
        for ide in all_ideals:
            for a in table.elements:
                gen = idl.ideal_generated(table, ide.members, a).members
                # brute-force oracle: the intersection of every ideal above
                # I u {a} is the minimal one
                minimal = frozenset(table.elements)
                for other in lattices:
                    if ide.members <= other and a in other:
                        minimal &= other
                if gen != minimal:
                    ok, detail = False, "generated ideal mismatch at (%r, %r)" % (
                        sorted(ide.members), a)
                    break
            if not ok:
                break
        report.record("generated-ideal-lemma[%s]" % tag, ok, detail, table)


def _perfect_checks(report: SuiteReport, table: PartialAdditionTable, tag: str) -> None:
    from .rdp import check_rdp0

    ok = True
    detail = ""
    for n in range(1, table.size):
        perfect, cert = dec.is_n_perfect(table, n)
        if not perfect:
            continue
        D = cert.decomposition
        rad, rad_n = idl.radicals(table)
        _, infinit = isotropic_data(table)
        if not (set(D.parts[0]) == infinit == rad == rad_n):
            ok, detail = False, "radical collapse fails at n=%d" % (n,)
            break
        if not idl.is_riesz_ideal(table, D.parts[0])[0]:
            ok, detail = False, "E_0 not Riesz at n=%d" % (n,)
            break
        has_e = dec.check_condition_e(table, D)
        if check_rdp0(table)[0] and not has_e:
            ok, detail = False, "RDP_0 without condition (e) at n=%d" % (n,)
            break
        if has_e:
            chain_rep = dec.canonical_chain_report(table, n)
            if not chain_rep.ok or not are_isomorphic(table, chain_table(n)):
                ok, detail = False, "canonical chain collapse fails at n=%d" % (n,)
                break
    report.record("n-perfect-battery[%s]" % tag, ok, detail, table)


def _unitization_checks(report: SuiteReport, max_size: int) -> None:
    from .constructions import NonSymmetricError

    ok = True
    detail = ""
    symmetric_count = nonsymmetric_count = 0
    for g in generate_gpeas(min(max_size, 5)):
        if _noncommuting_pair(g) is None:
            symmetric_count += 1
            lifted = unitize(g)  # asserts PEA axioms, symmetry, order-ideal embedding
            if lifted.size != 2 * g.size:
                ok, detail = False, "unitization has wrong cardinality"
                break
        else:
            nonsymmetric_count += 1
            try:
                unitize(g)
                ok, detail = False, "non-symmetric GPEA accepted"
                break
            except NonSymmetricError:
                pass
    report.record(
        "unitization-corpus", ok,
        detail or "%d symmetric, %d non-symmetric" % (symmetric_count, nonsymmetric_count),
    )


def symbolic_battery(report: SuiteReport, seed: int, samples: int) -> None:
    """Sampled checks on the symbolic fixtures; no claim is universal."""
    tw = TwistedZ3Group()
    report.record("twisted-pogroup-probe",
                  probe_pogroup(tw, samples=samples, seed=seed).passed,
                  "%d samples" % samples)
    report.record("twisted-torsion-free",
                  probe_torsion_free(tw, samples=min(samples, 500), seed=seed)[0], "")
    report.record("twisted-strong-unit",
                  probe_strong_unit(UnitalPoGroup(tw, (1, 0, 0)),
                                    samples=min(samples, 500), seed=seed).passed, "")
    report.record("twisted-directed",
                  probe_directed(tw, samples=min(samples, 500), seed=seed).passed, "")
    central, _ = is_commutator(tw, (0, 1, 1), samples=samples, seed=seed)
    noncentral, witness = is_commutator(tw, (0, 1, 0), samples=samples, seed=seed)
    report.record("twisted-commutators", central and not noncentral,
                  "witness %r" % (witness,))

    tg = builtin_pea("twisted_gamma")
    for verdict in tg.sampled_axiom_report(seed=seed, samples=min(samples, 500)):
        report.record("twisted-gamma-%s" % verdict.name, verdict.passed, verdict.witness or "")
    report.record("twisted-gamma-state-additive",
                  tg.sampled_state_additivity(seed=seed, samples=samples).passed, "")
    report.record("twisted-gamma-kernel-is-level0",
                  tg.sampled_infinit_is_level0(seed=seed, samples=min(samples, 500)).passed, "")
    sym_rep = tg.is_symmetric_sampled(seed=seed, samples=samples)
    report.record("twisted-gamma-asymmetric", not sym_rep.symmetric,
                  "witness %r" % (sym_rep.witness,))
    x = (0, (2, 5))
    report.record("twisted-gamma-complement-formulas",
                  tg.minus(x) == (1, (-2, -5)) and tg.tilde(x) == (1, (-5, -2)), "")

    ex46 = builtin_pea("example46")
    comp = ex46.check_comparability_sampled(seed=seed, samples=samples)
    report.record("example46-slices-comparable", comp.comparable,
                  "witness %r" % (comp.witness,))
    report.record("example46-state-additive",
                  ex46.sampled_state_additivity(seed=seed, samples=samples).passed, "")
    report.record("example46-infinit-level0",
                  ex46.sampled_infinit_is_level0(seed=seed, samples=min(samples, 500)).passed, "")

    ex47 = builtin_pea("example47")
    preds = ex47.ideal_predicates

    def outside_intersection(rng):
        x = ex47.sample_member(rng, 10)
        if (preds["I_a"](x) and preds["I_b"](x)) != preds["E_0"](x):
            return x

    ok = _first_witness(random.Random(seed), samples, outside_intersection) is None
    report.record("example47-E0-is-Ia-cap-Ib", ok, "%d samples" % samples)
    report.record("example47-infinit-level0",
                  ex47.sampled_infinit_is_level0(seed=seed, samples=min(samples, 500)).passed, "")
    for pname in ("I_a", "I_b"):
        pred = ex47.ideal_predicates[pname]
        report.record(
            "example47-%s-normal-ideal" % pname,
            not pred(ex47.one_el)
            and ex47.sampled_ideal_predicate(pred, seed=seed, samples=min(samples, 500)).passed
            and ex47.sampled_normal_predicate(pred, seed=seed, samples=min(samples, 500)).passed,
            "")
    kernel_pred = tg.ideal_predicates["kernel"]
    report.record(
        "twisted-gamma-kernel-normal-ideal",
        tg.sampled_ideal_predicate(kernel_pred, seed=seed, samples=min(samples, 500)).passed
        and tg.sampled_normal_predicate(kernel_pred, seed=seed, samples=min(samples, 500)).passed,
        "")

    z2prod = lex_product_pea(3, IntVectorGroup(2), seed=seed)
    report.record("z2-product-state-additive",
                  z2prod.sampled_state_additivity(seed=seed, samples=samples).passed, "")
    report.record("z2-product-symmetric",
                  z2prod.is_symmetric_sampled(seed=seed, samples=samples).symmetric, "")
    report.record("z2-product-infinit-level0",
                  z2prod.sampled_infinit_is_level0(seed=seed, samples=min(samples, 500)).passed, "")
    report.record(
        "z2-product-cyclic-uniqueness",
        z2prod.sampled_cyclic_uniqueness((1, (0, 0)), seed=seed,
                                         samples=min(samples, 500)).passed, "")
    for fixture, fname in ((tg, "twisted-gamma"), (ex46, "example46"),
                           (ex47, "example47"), (z2prod, "z2-product")):
        verdict = fixture.sampled_difference_consistency(seed=seed, samples=min(samples // 4, 300))
        report.record("difference-consistency-%s" % fname, verdict.passed, verdict.witness or "")

    one_product = lex_product_pea(1, IntVectorGroup(1), seed=seed)
    report.record(
        "two-valued-product-kernel",
        one_product.sampled_infinit_is_level0(seed=seed, samples=min(samples, 500)).passed,
        "")


def run_suite(max_size: int = 5, seed: int = 0, samples: int = 2000) -> SuiteReport:
    """Generate the corpus up to max_size and run the full invariant battery."""
    if max_size > MAX_SUITE_SIZE:
        raise InputError(
            "generation cap exceeded: max size is %d" % (MAX_SUITE_SIZE,)
        )
    if samples < 1:
        raise InputError("samples must be at least 1, got %d" % (samples,))
    report = SuiteReport(max_size=max_size, seed=seed)
    corpus = generate_peas(max_size)
    for table in corpus:
        report.corpus_sizes[table.size] = report.corpus_sizes.get(table.size, 0) + 1
    for idx, table in enumerate(corpus):
        tag = "pea%d/%d" % (table.size, idx)
        if not check_axioms(table, "pea").passed:
            report.record("axioms[%s]" % tag, False, "generator produced invalid table", table)
            continue
        _core_invariants(report, table, tag)
        _rdp_checks(report, table, tag)
        _state_checks(report, table, tag)
        _bijection_checks(report, table, tag, max_n=min(6, table.size))
        _ideal_checks(report, table, tag)
        _perfect_checks(report, table, tag)
    _unitization_checks(report, max_size)
    symbolic_battery(report, seed, samples)
    return report
