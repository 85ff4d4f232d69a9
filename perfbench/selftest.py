"""Self-tests of the benchmark harness (stdlib unittest, a few seconds).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import os
import shutil
import signal
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

inputs.import_peal()

from peal import core, corpus  # noqa: E402

SEED = 5
TINY = wl.Workload("tiny", (
    wl.Op("verify bool4", ("verify", "{doc}"), "bool4"),
    wl.Op("states bool4", ("states", "{doc}", "--extremal", "--discrete", "2"), "bool4"),
    wl.Op("decompose bool4", ("decompose", "{doc}", "2"), "bool4"),
    wl.Op("rdp bool4", doc="bool4", library="rdp_report"),
    wl.Op("unitize coatom-gpea", ("unitize", "{doc}"), "coatom-gpea"),
))


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(run.WORK, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
        cls.variants = inputs.write("docs", SEED, cls.tmp)
        cls.pins = run.load_pins()["docs"]

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def runner(self, workload=TINY, pins=None):
        return run.Runner(workload, SEED, self.variants, self.pins if pins is None else pins)

    def test_tracer_preserves_results_exceptions_and_caches(self):
        table = core.load_table(self.variants[0]["bool4"])
        plain = core.check_axioms(table, "pea")
        missing = os.path.join(self.tmp, "missing.json")
        corpus.generate_peas.cache_clear()
        with tracing.Tracer() as tracer:
            self.assertEqual(core.check_axioms(table, "pea"), plain)
            with self.assertRaises(core.InputError):
                core.load_table(missing)
            first = corpus.generate_peas(4)
            second = corpus.generate_peas(4)
            self.assertIs(first, second)
            info = corpus.generate_peas.cache_info()
            self.assertEqual((info.hits, info.misses), (1, 1))
            corpus.generate_peas.cache_clear()
            self.assertEqual(corpus.generate_peas.cache_info().currsize, 0)
        self.assertEqual(tracer.errors["core"], 1)
        self.assertEqual(tracer.calls["corpus.generate"], 2)
        self.assertEqual(tracer.counts["corpus.classes"], len(first))
        self.assertGreater(tracer.counts["corpus.leaves"], len(first))

    def test_wrappers_only_while_traced(self):
        self.assertEqual(tracing.traced_spans(), [])
        self.runner().run_pass()
        self.assertEqual(tracing.traced_spans(), [])
        with tracing.Tracer():
            bound = tracing.traced_spans()
            self.assertIn("peal.core.check_axioms", bound)
            self.assertIn("peal.corpus.check_axioms", bound)
            self.assertIn("peal.check_axioms", bound)
            self.assertIn("peal.core.PartialAdditionTable.__init__", bound)
        self.assertEqual(tracing.traced_spans(), [])

    def test_self_time_adds_up_to_the_traced_pass(self):
        # A small battery makes thousands of short calls, so the tracer costs
        # about a tenth of a pass; the median over five brackets keeps that
        # estimate clear of the host's noise.
        battery = wl.Workload("battery", (
            wl.Op("suite", ("suite", "--max-size", "6", "--samples", "20")),))
        runner = run.Runner(battery, SEED, self.variants, None)
        overheads, uncovered = [], []
        for _ in range(5):
            outcomes, traced, tracer, _, overhead = run.bracketed_trace(runner)
            self.assertEqual({o.status for o in outcomes}, {"ok"})
            traced_wall = sum(o.seconds for o in traced)
            self_sum = sum(tracer.self_s.values())
            self.assertLessEqual(self_sum, traced_wall)
            overheads.append(overhead)
            uncovered.append(traced_wall - self_sum)
        # time in no span is harness time inside the timed call
        self.assertLessEqual(max(uncovered), statistics.median(overheads))

    def test_falsified_summary_fails_the_operation(self):
        pins = copy.deepcopy(self.pins)
        pins["verify bool4"]["elements"] += 1
        outcomes = self.runner(pins=pins).run_pass()
        status = {o.op.id: o.status for o in outcomes}
        self.assertEqual(status.pop("verify bool4"), "failed")
        self.assertEqual(set(status.values()), {"ok"})

    def test_deadline_marks_known_and_unknown_failures(self):
        slow = ("ideals", "{doc}")
        workload = wl.Workload("slow", (
            wl.Op("ideals bool4", slow, "bool4", deadline_s=0.2, known_failure="hangs"),
            wl.Op("ideals bool4", slow, "bool4", deadline_s=0.2),
        ))
        runner = run.Runner(workload, SEED, self.variants, self.pins, run.HostSpeed())
        outcomes = runner.run_pass()
        self.assertEqual([o.status for o in outcomes], ["xfail", "failed"])
        self.assertEqual([o.seconds for o in outcomes], [0.2, 0.2])
        self.assertEqual([o.scaled for o in outcomes], [0.2, 0.2])

    def test_host_probes_scale_operations_and_stop_with_the_pass(self):
        host = run.HostSpeed()
        self.assertEqual(len(host.probes), run.PROBE_WINDOW)
        handler = signal.getsignal(signal.SIGVTALRM)
        outcomes = run.Runner(TINY, SEED, self.variants, self.pins, host).run_pass()
        self.assertEqual({o.status for o in outcomes}, {"ok"})
        self.assertGreater(len(host.probes), run.PROBE_WINDOW)
        self.assertEqual(signal.getitimer(signal.ITIMER_VIRTUAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGVTALRM), handler)
        # an operation is scaled by the probes taken during it, or by the
        # last PROBE_WINDOW probes when it took fewer
        nominal = run.PROBE_NOMINAL_S
        host.probes = [nominal] * run.PROBE_WINDOW + [2 * nominal] * run.PROBE_WINDOW
        self.assertAlmostEqual(host.scale(run.PROBE_WINDOW), 0.5)
        self.assertAlmostEqual(host.scale(len(host.probes)), 0.5)
        host.probes.append(nominal / 2)
        self.assertAlmostEqual(host.scale(len(host.probes) - 1), 
                               run.PROBE_WINDOW / (2 * (run.PROBE_WINDOW - 1) + 0.5))

    def test_documents_are_seeded_and_relabel_invariant(self):
        again = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
        other = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
        try:
            same = inputs.write("docs", SEED, again)
            diff = inputs.write("docs", SEED + 1, other)

            def read(variants):
                out = []
                for paths in variants:
                    for name in sorted(paths):
                        with open(paths[name], "rb") as fh:
                            out.append(fh.read())
                return out

            mine = read(self.variants)
            self.assertEqual(mine, read(same))
            self.assertFalse(set(mine) & set(read(diff)))
            self.assertFalse(set(read(self.variants[:1])) & set(read(self.variants[1:])))
            runner = run.Runner(TINY, SEED, self.variants + diff, self.pins)
            for variant in range(len(runner.variants)):
                self.assertEqual({o.status for o in runner.run_pass(variant)}, {"ok"})
        finally:
            shutil.rmtree(again, ignore_errors=True)
            shutil.rmtree(other, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
