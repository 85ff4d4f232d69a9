"""The theorem property-suite: every structural claim the library relies on,
run over the exhaustively generated small-model corpus plus the builtin
symbolic fixtures.

Each corpus family is a generator of failure details, and its verdict
records the first one it yields (a pass when it yields none), so nothing past
a family's first failure is checked.  The suite report is deterministic given
(max_size, seed) and carries a ready-to-load witness document for the first
failing table.
"""

from __future__ import annotations

import contextlib
import os
import random
import signal
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from . import decompositions as dec
from . import ideals as idl
from . import states as st
from .constructions import (
    NonSymmetricError,
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
    _first_witness,
    is_commutator,
    probe_directed,
    probe_pogroup,
    probe_strong_unit,
    probe_torsion_free,
)
from .rdp import check_rdp0, rdp_report

MAX_SUITE_SIZE = 10


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

    def record_first(self, name: str, failures: Iterator[str],
                     table: Optional[PartialAdditionTable] = None, passed: str = "") -> None:
        """Record ``name`` as failed with the first detail ``failures``
        yields, or as passed with detail ``passed`` when it yields none;
        nothing after the first failure is checked."""
        detail = next(failures, None)
        self.record(name, detail is None, passed if detail is None else detail, table)


def _core_invariants(table: PartialAdditionTable) -> Iterator[str]:
    order = induced_order(table)
    for a in table.elements:
        minus, tilde = complements(table, a)
        if complements(table, minus)[1] != a or complements(table, tilde)[0] != a:
            yield "double complement fails at %r" % (a,)
    for a in table.elements:
        for b in table.elements:
            if not order.le(a, b):
                continue
            am, at = complements(table, a)
            bm, bt = complements(table, b)
            if not (order.le(bm, am) and order.le(bt, at)):
                yield "complement antitonicity fails at (%r, %r)" % (a, b)
            left = difference(table, a, b, "left")
            right = difference(table, a, b, "right")
            if table.add(left, a) != b or table.add(a, right) != b:
                yield "difference identities fail at (%r, %r)" % (a, b)


def _rdp_checks(table: PartialAdditionTable) -> Iterator[str]:
    rep = rdp_report(table)  # the implication chain is asserted inside
    t = table._sums
    if t == tuple(zip(*t)) and rep.rdp != rep.rdp1:
        yield "rdp=%s rdp1=%s" % (rep.rdp, rep.rdp1)


def _state_checks(table: PartialAdditionTable) -> Iterator[str]:
    for s in st.solve_state_space(table).extremal_states:
        st.classify_state(table, s)  # asserts the three-way equivalence
        if not st.is_extremal(table, s).extremal:
            yield "vertex state not extremal"
        ker = st.kernel(table, s)  # asserts normal ideal
        if ker not in {i.members for i in idl.enumerate_ideals(table)}:
            yield "kernel missing from the ideal lattice"


def _bijection_checks(table: PartialAdditionTable, max_n: int) -> Iterator[str]:
    for n in range(1, max_n + 1):
        # per row: E_0 is a normal ideal and the state is classified here;
        # labelled_decompositions checked its comparability and consequences
        for labels, parts, _ in dec.labelled_decompositions(table, n):
            if not idl._normal_ideal(table, parts[0]):
                yield "E_0 not a normal ideal at n=%d" % (n,)
            st.classify_state(table, st.StateVector._from_additive(table, labels, n))


def _ideal_checks(table: PartialAdditionTable, all_ideals) -> Iterator[str]:
    for ide in all_ideals:
        r1 = idl._r1(table, ide._bitmask)[0]
        r2 = idl._r2(table, ide._bitmask)[0]
        # PEAs are upwards directed, so (R1) must already imply (R2)
        if r1 and not r2:
            yield "(R1) held without (R2) on %r" % (sorted(ide.members),)
        if ide.normal and r1:
            q, linear, _ = idl.quotient(table, ide.members)
            if linear != induced_order(q).is_total():
                yield "(L) mismatch on %r" % (sorted(ide.members),)


def _generated_ideal_checks(table: PartialAdditionTable, all_ideals) -> Iterator[str]:
    lattice = [i.members for i in all_ideals]
    for ide in all_ideals:
        for a in table.elements:
            gen = idl.ideal_generated(table, ide.members, a).members
            # brute-force oracle: the intersection of every ideal above
            # I u {a} is the minimal one
            minimal = frozenset(table.elements)
            for other in lattice:
                if ide.members <= other and a in other:
                    minimal &= other
            if gen != minimal:
                yield "generated ideal mismatch at (%r, %r)" % (sorted(ide.members), a)


def _perfect_checks(table: PartialAdditionTable) -> Iterator[str]:
    for n in range(1, table.size):
        perfect, cert = dec.is_n_perfect(table, n)
        if not perfect:
            continue
        D = cert.decomposition
        rad, rad_n = idl.radicals(table)
        _, infinit = isotropic_data(table)
        if not (set(D.parts[0]) == infinit == rad == rad_n):
            yield "radical collapse fails at n=%d" % (n,)
        if not idl.is_riesz_ideal(table, D.parts[0])[0]:
            yield "E_0 not Riesz at n=%d" % (n,)
        has_e = dec.check_condition_e(table, D)
        if check_rdp0(table)[0] and not has_e:
            yield "RDP_0 without condition (e) at n=%d" % (n,)
        if has_e:
            chain_rep = dec.canonical_chain_report(table, n)
            if not chain_rep.ok or not are_isomorphic(table, chain_table(n)):
                yield "canonical chain collapse fails at n=%d" % (n,)


def _unitization_checks(gpeas) -> Iterator[str]:
    for g, symmetric in gpeas:
        if symmetric:
            lifted = unitize(g)  # asserts PEA axioms, symmetry, order-ideal embedding
            if lifted.size != 2 * g.size:
                yield "unitization has wrong cardinality"
        else:
            try:
                unitize(g)
            except NonSymmetricError:
                continue
            yield "non-symmetric GPEA accepted"


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

    def outside_intersection(x):
        if (preds["I_a"](x) and preds["I_b"](x)) != preds["E_0"](x):
            return x

    ok = _first_witness(random.Random(seed), samples, outside_intersection,
                        ex47._member_draw(10)) is None
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
        verdict = fixture.sampled_difference_consistency(
            seed=seed, samples=max(1, min(samples // 4, 300)))
        report.record("difference-consistency-%s" % fname, verdict.passed, verdict.witness or "")

    one_product = lex_product_pea(1, IntVectorGroup(1), seed=seed)
    report.record(
        "two-valued-product-kernel",
        one_product.sampled_infinit_is_level0(seed=seed, samples=min(samples, 500)).passed,
        "")


@contextlib.contextmanager
def _battery_beside(report: SuiteReport, seed: int, samples: int) -> Iterator[None]:
    """Append the verdicts of ``symbolic_battery`` to ``report`` after the
    body, as if it ran there, while running it beside the body.

    The two share no state, so the battery runs in a forked child that sends
    its (verdicts, witness document) or the exception it raised back pickled,
    and always leaves by ``os._exit``, never returning into this stack or
    flushing the parent's stdio buffers.  An exception from the body wins:
    the child is killed and reaped before it propagates; the battery's own is
    raised once the body is done.  The battery runs inline after the body
    when ``os.fork`` is missing or fails, when another thread is alive
    (forking is unsafe then), when the process may use one CPU only (a child
    then costs more than it saves), or when the child died without a
    result."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    pid = -1
    if hasattr(os, "fork") and threading.active_count() == 1 and cpus > 1:
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare
            os.close(read_fd)
            os.close(write_fd)
    if pid < 0:
        yield
        symbolic_battery(report, seed, samples)
        return
    import pickle  # here: every other command would pay its peak RSS (0.4 MiB)

    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            battery = SuiteReport(max_size=report.max_size, seed=report.seed)
            try:
                symbolic_battery(battery, seed, samples)
                outcome = (battery.verdicts, battery.witness_document)
            except BaseException as exc:  # re-raised by the parent
                outcome = exc
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(outcome))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    data = None
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            yield
            data = pipe.read()
        finally:
            if data is None:
                os.kill(pid, signal.SIGKILL)
            _, status = os.waitpid(pid, 0)
    if status != 0:
        symbolic_battery(report, seed, samples)
        return
    outcome = pickle.loads(data)
    if isinstance(outcome, BaseException):
        raise outcome
    verdicts, witness_document = outcome
    report.verdicts.extend(verdicts)
    if report.witness_document is None:
        report.witness_document = witness_document


def run_suite(max_size: int = 5, seed: int = 0, samples: int = 2000) -> SuiteReport:
    """Generate the corpus up to max_size and run the full invariant battery."""
    if max_size > MAX_SUITE_SIZE:
        raise InputError(
            "generation cap exceeded: max size is %d" % (MAX_SUITE_SIZE,)
        )
    if samples < 1:
        raise InputError("samples must be at least 1, got %d" % (samples,))
    report = SuiteReport(max_size=max_size, seed=seed)
    with _battery_beside(report, seed, samples):
        corpus = generate_peas(max_size)
        for table in corpus:
            report.corpus_sizes[table.size] = report.corpus_sizes.get(table.size, 0) + 1
        for idx, table in enumerate(corpus):
            tag = "[pea%d/%d]" % (table.size, idx)
            if not check_axioms(table, "pea").passed:
                report.record("axioms" + tag, False, "generator produced invalid table", table)
                continue
            report.record_first("core-invariants" + tag, _core_invariants(table), table)
            is_symmetric(table)  # asserts that the symmetry criteria agree
            report.record("symmetry-criteria-agree" + tag, True)
            report.record_first("rdp-battery" + tag, _rdp_checks(table), table)
            report.record_first("state-machinery" + tag, _state_checks(table), table)
            report.record_first("decomposition-state-bijection" + tag,
                                _bijection_checks(table, min(6, table.size)), table)
            all_ideals = idl.enumerate_ideals(table)
            report.record_first("ideal-battery" + tag, _ideal_checks(table, all_ideals), table)
            idl.two_valued_partition(table)  # asserts the state/ideal bijection
            report.record("two-valued-partition" + tag, True)
            if check_rdp0(table)[0]:
                report.record_first("generated-ideal-lemma" + tag,
                                    _generated_ideal_checks(table, all_ideals), table)
            report.record_first("n-perfect-battery" + tag, _perfect_checks(table), table)
        gpeas = [(g, _noncommuting_pair(g) is None) for g in generate_gpeas(min(max_size, 5))]
        symmetric = sum(sym for _, sym in gpeas)
        report.record_first("unitization-corpus", _unitization_checks(gpeas), passed=(
            "%d symmetric, %d non-symmetric" % (symmetric, len(gpeas) - symmetric)))
    return report
