import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
from types import SimpleNamespace

import pytest

from peal import decompositions as dec
from peal import ideals as idl
from peal import states as st
from peal import suite
from peal.constructions import NonSymmetricError, WellDefinednessError, chain_table, unitize
from peal.core import (
    InconsistencyError,
    InputError,
    PartialAdditionTable,
    _noncommuting_pair,
    check_axioms,
    complements,
    difference,
    induced_order,
    is_symmetric,
    isotropic_data,
    table_from_document,
)
from peal.corpus import are_isomorphic, generate_gpeas, generate_peas
from peal.rdp import check_rdp0, rdp_report
from peal.suite import MAX_SUITE_SIZE, SuiteReport, run_suite, symbolic_battery


def test_full_battery_to_seven():
    """The entire theorem battery over the exhaustive corpus up to 7 elements."""
    report = run_suite(max_size=7, seed=0, samples=1000)
    failures = [(n, d) for n, ok, d in report.verdicts if not ok]
    assert report.passed, failures
    assert report.corpus_sizes[7] > 0
    assert report.witness_document is None


def test_suite_deterministic():
    a = run_suite(max_size=3, seed=5, samples=200)
    b = run_suite(max_size=3, seed=5, samples=200)
    assert a.verdicts == b.verdicts


def test_witness_document_loads_on_failure(monkeypatch):
    # force a fake failure to confirm the witness document round-trips
    report = run_suite(max_size=2, seed=0, samples=100)
    from peal.constructions import diamond_table

    report.record("forced", False, "synthetic", diamond_table())
    table = table_from_document(json.loads(report.witness_document))
    assert table.size == 4


# -- the corpus families as flag-and-break loops, frozen ---------------------
#
# A verbatim copy of the families and the driver loop from before each family
# became a generator of failure details.  Under every injected fault below,
# run_suite must give the verdicts and witness document this copy gives.


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
    rep = rdp_report(table)  # the implication chain is asserted inside
    t = table._sums
    ok = t != tuple(zip(*t)) or rep.rdp == rep.rdp1
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


def frozen_run_suite(max_size: int = 5, seed: int = 0, samples: int = 2000) -> SuiteReport:
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


# -- injected faults ----------------------------------------------------------


def _bad_bijection(orig):
    # the last pair of the 2-decompositions of the larger tables gets E_0 = {1}
    def bijection(table, n):
        pairs = orig(table, n)
        if n == 2 and table.size >= 4 and pairs:
            D, s = pairs[-1]
            pairs = pairs[:-1] + [(dec.Decomposition((frozenset({table.one}),) + D.parts[1:]), s)]
        return pairs
    return bijection


def _bad_rows(orig):
    # the same fault in the rows of the label-vector kernel, which the suite
    # reads: the last 2-decomposition of the larger tables gets E_0 = {1}
    def rows(table, n):
        found = orig(table, n)
        if n == 2 and table.size >= 4 and found:
            labels, parts, witness = found[-1]
            found = found[:-1] + ((labels, (1 << table.one_i,) + parts[1:], witness),)
        return found
    return rows


def _reversed_certificate(orig):
    def is_n_perfect(table, n):
        perfect, cert = orig(table, n)
        if perfect and table.size == 5:
            D = cert.decomposition
            cert = dataclasses.replace(cert, decomposition=dec.Decomposition(D.parts[::-1]))
        return perfect, cert
    return is_n_perfect


def _relaxed_rdp1(orig):
    def report(table):
        rep = orig(table)
        return dataclasses.replace(rep, rdp1=False) if table.size == 4 and rep.rdp else rep
    return report


def _flipped_linearity(orig):
    # condition (L) is misread on every normal Riesz ideal of the 5-element tables
    def quotient(table, I):
        q, linear, mapping = orig(table, I)
        return q, linear != (table.size == 5), mapping
    return quotient


def _no_radicals(orig):
    return lambda table: (frozenset(), frozenset()) if table.size >= 4 else orig(table)


def _not_riesz(orig):
    return lambda table, S: (False, None) if table.size == 5 else orig(table, S)


def _accepts_nonsymmetric(orig):
    return lambda g: g if _noncommuting_pair(g) is not None else orig(g)


# the family whose verdict must fail, and each name to replace with the fault
# made from the original; most faults strike more than once in a family, so a
# report that kept any failure but the first would differ
FAULTS = {
    "axioms": ("axioms", {"check_axioms": lambda orig: lambda table, kind: (
        SimpleNamespace(passed=False) if table.size == 4 else orig(table, kind))}),
    "double-complement": ("core-invariants", {"complements": lambda orig: lambda table, a: (
        (table.one, table.one) if table.size > 3 and a in table.elements[2:-1]
        else orig(table, a))}),
    "difference": ("core-invariants", {"difference": lambda orig: lambda table, a, b, side: (
        table.zero if side == "left" and b == table.one and a != table.zero
        else orig(table, a, b, side))}),
    "rdp-report": ("rdp-battery", {"rdp_report": _relaxed_rdp1}),
    "is_extremal": ("state-machinery", {"st.is_extremal": lambda orig: lambda table, s: (
        SimpleNamespace(extremal=False) if table.size == 5 else orig(table, s))}),
    "kernel": ("state-machinery", {"st.kernel": lambda orig: lambda table, s: (
        frozenset() if table.size == 4 else orig(table, s))}),
    "bijection-parts": ("decomposition-state-bijection", {
        "dec.decomposition_state_bijection": _bad_bijection,
        "dec.labelled_decompositions": _bad_rows}),
    "is_normal": ("decomposition-state-bijection", {
        "idl.is_normal": lambda orig: lambda table, S: (
            (False, None) if table.size == 5 else orig(table, S)),
        "idl._normal_ideal": lambda orig: lambda table, I: (
            False if table.size == 5 else orig(table, I))}),
    "check_r2": ("ideal-battery", {
        "idl.check_r2": lambda orig: lambda table, S: (
            (False, None) if len(S) == 2 else orig(table, S)),
        "idl._r2": lambda orig: lambda table, I: (
            (False, None) if I.bit_count() == 2 else orig(table, I))}),
    "quotient": ("ideal-battery", {"idl.quotient": _flipped_linearity}),
    "check_r2-and-quotient": ("ideal-battery", {
        "idl.check_r2": lambda orig: lambda table, S: (
            (False, None) if len(S) == 3 else orig(table, S)),
        "idl._r2": lambda orig: lambda table, I: (
            (False, None) if I.bit_count() == 3 else orig(table, I)),
        "idl.quotient": _flipped_linearity}),
    "ideal_generated": ("generated-ideal-lemma", {
        "idl.ideal_generated": lambda orig: lambda table, I, a: (
            SimpleNamespace(members=frozenset(I)) if a in table.elements[-3:-1]
            else orig(table, I, a))}),
    "is_n_perfect": ("n-perfect-battery", {"dec.is_n_perfect": _reversed_certificate}),
    "radicals": ("n-perfect-battery", {"idl.radicals": _no_radicals}),
    "is_riesz_ideal": ("n-perfect-battery", {"idl.is_riesz_ideal": _not_riesz}),
    "radicals-and-is_riesz_ideal": ("n-perfect-battery", {
        "idl.radicals": _no_radicals, "idl.is_riesz_ideal": _not_riesz}),
    "check_condition_e": ("n-perfect-battery", {
        "dec.check_condition_e": lambda orig: lambda table, D: (
            table.size < 5 and orig(table, D))}),
    "canonical_chain_report": ("n-perfect-battery", {
        "dec.canonical_chain_report": lambda orig: lambda table, n: (
            dec.ChainReport(False) if n == 3 else orig(table, n))}),
    "unitize-cardinality": ("unitization-corpus", {"unitize": lambda orig: lambda g: (
        chain_table(1) if g.size >= 3 and _noncommuting_pair(g) is None else orig(g))}),
    "unitize-nonsymmetric": ("unitization-corpus", {"unitize": _accepts_nonsymmetric}),
}


def _inject(monkeypatch, name, fault):
    """Replace ``name`` -- a name, or ``alias.attr`` for a module alias -- as
    peal.suite and the frozen families above both see it."""
    here = sys.modules[__name__]
    if "." in name:
        alias, attr = name.split(".")
        module = getattr(suite, alias)
        view = SimpleNamespace(**vars(module))
        setattr(view, attr, fault(getattr(module, attr)))
        monkeypatch.setattr(suite, alias, view)
        monkeypatch.setattr(here, alias, view)
    else:
        patched = fault(getattr(suite, name))
        monkeypatch.setattr(suite, name, patched)
        monkeypatch.setattr(here, name, patched)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_failing_families_match_frozen_loops(monkeypatch, fault):
    family, replacements = FAULTS[fault]
    for name, make in replacements.items():
        _inject(monkeypatch, name, make)
    report = run_suite(5, samples=50)
    frozen = frozen_run_suite(5, samples=50)
    assert report.verdicts == frozen.verdicts
    assert report.witness_document == frozen.witness_document
    failed = [n for n, ok, _ in report.verdicts if not ok]
    # the fault is seen by the family it targets
    assert any(n.startswith(family) for n in failed), failed
    assert report.witness_document is not None or family == "unitization-corpus"


# -- the symbolic battery beside the corpus families -------------------------


@pytest.fixture
def forks(monkeypatch):
    """The parent's ``os.fork`` calls, on a host where ``run_suite`` forks:
    two usable CPUs and no other thread.  No file descriptor may be left
    open after the test."""
    fds = len(os.listdir("/dev/fd"))
    calls = []
    real = os.fork

    def fork():
        calls.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert threading.active_count() == 1
    yield calls
    assert len(os.listdir("/dev/fd")) == fds


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _outcome(max_size=3, seed=0, samples=2000):
    report = run_suite(max_size=max_size, seed=seed, samples=samples)
    return report.verdicts, report.witness_document, report.corpus_sizes


@pytest.mark.parametrize("seed", range(4))
def test_forked_battery_matches_inline(forks, monkeypatch, seed):
    forked = _outcome(seed=seed)
    assert forks == [os.getpid()]
    _no_child_left()
    inline = SuiteReport(max_size=3, seed=seed)
    symbolic_battery(inline, seed, 2000)
    assert forked[0][-len(inline.verdicts):] == inline.verdicts
    assert forked[1] is None
    monkeypatch.delattr(os, "fork")
    assert _outcome(seed=seed) == forked
    assert forks == [os.getpid()]


def _raise(exc):
    def raising(*args, **kwargs):
        raise exc
    return raising


def test_battery_exception_crosses_from_the_child(forks, monkeypatch):
    # the battery's third fixture; the finite half still runs to its end
    monkeypatch.setattr(suite, "builtin_pea", _raise(
        WellDefinednessError("forced disagreement", ("4", "10"), ("canonical",))))
    gpeas = []
    monkeypatch.setattr(suite, "generate_gpeas", lambda n: gpeas.append(n) or generate_gpeas(n))
    with pytest.raises(WellDefinednessError, match="^forced disagreement$") as caught:
        run_suite(max_size=3, samples=30)
    assert (caught.value.first, caught.value.second) == (("4", "10"), ("canonical",))
    assert gpeas == [3] and len(forks) == 1
    _no_child_left()
    monkeypatch.setattr(suite, "TwistedZ3Group", _raise(ValueError("not a PealError")))
    with pytest.raises(ValueError, match="^not a PealError$"):
        run_suite(max_size=3, samples=30)
    assert len(forks) == 2
    _no_child_left()


def test_battery_exception_keeps_the_exit_code_and_stderr(forks, monkeypatch, capsys):
    from peal.cli import main

    monkeypatch.setattr(suite, "builtin_pea", _raise(
        WellDefinednessError("forced disagreement", ("4", "10"), ("canonical",))))
    outputs = []
    for fork in (True, False):
        if not fork:
            monkeypatch.delattr(os, "fork")
        code = main(["--format", "json", "suite", "--max-size", "3", "--samples", "30"])
        outputs.append((code, capsys.readouterr()))
    assert len(forks) == 1
    _no_child_left()
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 1
    assert outputs[0][1].out == ""
    assert outputs[0][1].err == "check failed: WellDefinednessError: forced disagreement\n"


@pytest.mark.parametrize("interrupt", [InconsistencyError("finite half"), KeyboardInterrupt()])
@pytest.mark.parametrize("where", ["generate_peas", "generate_gpeas"])
def test_finite_half_exception_wins_and_reaps_the_child(forks, monkeypatch, interrupt, where):
    # the battery fails at once, so a battery result is waiting in the pipe
    # when the finite half fails late (generate_gpeas), and the child is
    # still running when it fails at once (generate_peas)
    monkeypatch.setattr(suite, "TwistedZ3Group", _raise(ValueError("battery")))
    monkeypatch.setattr(suite, where, _raise(interrupt))
    with pytest.raises(type(interrupt)) as caught:
        run_suite(max_size=3, samples=2000)
    assert caught.value is interrupt
    assert len(forks) == 1
    _no_child_left()


def test_a_sigkilled_child_is_replaced_by_an_inline_run(forks, monkeypatch):
    # the child kills itself before sending anything; the parent then runs
    # the battery itself, so the verdicts are still those of the battery
    real = suite.symbolic_battery
    parent = os.getpid()

    def battery(report, seed, samples):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        real(report, seed, samples)

    expected = _outcome(samples=300)
    monkeypatch.setattr(suite, "symbolic_battery", battery)
    assert _outcome(samples=300) == expected
    assert len(forks) == 2
    _no_child_left()


@pytest.mark.parametrize("condition", ["no-fork", "fork-fails", "one-cpu", "thread"])
def test_inline_conditions_give_the_same_verdicts(forks, monkeypatch, condition):
    forked = _outcome(seed=1)
    assert len(forks) == 1
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(30,))
    if condition == "no-fork":
        monkeypatch.delattr(os, "fork")
    elif condition == "fork-fails":
        monkeypatch.setattr(os, "fork", _raise(BlockingIOError(11, "no process to spare")))
    elif condition == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:
        thread.start()
    try:
        assert _outcome(seed=1) == forked
    finally:
        stop.set()
        if thread.ident is not None:
            thread.join(30)
    assert not thread.is_alive()
    assert len(forks) == 1


def test_unflushed_stdout_is_written_once():
    # stdout is a buffered pipe, so "before" sits in the parent's buffer at
    # the fork
    script = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "real, forks = os.fork, []\n"
        "os.fork = lambda: forks.append(1) or real()\n"
        "from peal.suite import run_suite\n"
        "print('before')\n"
        "report = run_suite(max_size=3, samples=30)\n"
        "print('after', report.passed, len(forks))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(env, PYTHONPATH=path), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "before\nafter True 1\n", "")
