"""peal benchmark: three workloads driven through peal's public API and the
``pea`` entry point ``peal.cli.main``, called in-process.

One client runs operations back to back in this process and thread (a
closed loop).  Every pass starts cold, as a fresh ``pea`` process would: the
corpus caches are cleared and every document is read again from file.
Interpreter start-up, ``import peal`` and building the seeded documents are
paid in set-up, which runs in child processes before and between the
passes; its median is reported as ``setup_s``.  Operation times are
reported scaled to a nominal host speed (see ``HostSpeed``), because a
shared host's own speed swings by half over tens of seconds.

    python3 perfbench/run.py --workload docs --seed 3 --seconds 20 --trace 0

prints readable lines, then one JSON line with ``correct``, ``attempted``,
``failed`` and the end-to-end metrics of BENCHMARK.json (``--trace 0``) or
its per-layer metrics from one traced pass between two untraced ones
(``--trace 1``).

    python3 perfbench/run.py --all --seed 3

runs every workload untraced and traced and prints all metrics, layer
shares and the checks that each workload exercises what it is meant to.

    python3 perfbench/run.py --pin

rewrites ``pinned.json``, the relabel-invariant summaries every operation is
checked against.  Only re-pin when outputs are meant to change.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import inputs
import workloads as wl
from inputs import ROOT

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED = os.path.join(HERE, "pinned.json")
WORK = os.path.join(ROOT, ".perfbench-work")
SETUPS_FIRST = 3
SETUPS_PER_PASS = 2

# On a shared host the same pass runs up to half again as long while
# neighbours load the machine, in phases of tens of seconds, and CPU time
# stretches with wall time.  So a probe, a fixed integer loop, is timed every
# PROBE_PERIOD_S of CPU time while operations run, and each operation's time
# is scaled by PROBE_NOMINAL_S over the mean probe taken during it (over the
# last PROBE_WINDOW probes if it took fewer); set-ups likewise, by probes
# taken just before and after them.  A scaled time is what the operation
# would take on a host where the probe takes PROBE_NOMINAL_S, as it does on
# an idle core of the 2-core x86-64 host the baseline was recorded on.
PROBE_PERIOD_S = 0.01
PROBE_LOOPS = 2000
PROBE_NOMINAL_S = 1.35e-4
PROBE_WINDOW = 20


class Deadline(BaseException):
    """Raised by SIGALRM inside an operation that overran its deadline.

    A BaseException, so that peal's own ``except Exception`` handlers cannot
    swallow it."""


def _on_alarm(signum, frame):
    raise Deadline()


class HostSpeed:
    """Probes of the host's speed, taken from a SIGVTALRM handler."""

    def __init__(self):
        self.probes = []
        self.spent = 0.0
        self.take()

    def take(self):
        """Take PROBE_WINDOW probes now."""
        for _ in range(PROBE_WINDOW):
            self._probe(None, None)

    def _probe(self, signum, frame):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        took = time.perf_counter() - start
        self.probes.append(took)
        self.spent += took

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGVTALRM, self._probe)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.signal(signal.SIGVTALRM, previous)

    def scale(self, first):
        """Factor for an operation during which ``probes[first:]`` were taken."""
        window = self.probes[max(0, min(first, len(self.probes) - PROBE_WINDOW)):]
        return PROBE_NOMINAL_S / statistics.fmean(window)


@dataclasses.dataclass
class Outcome:
    op: wl.Op
    status: str       # ok | xpass | xfail (known failure) | failed
    reason: str
    seconds: float    # charged at the deadline when it was missed
    scaled: float     # seconds at the nominal host speed (HostSpeed)


class Runner:
    """Runs passes of one workload's operations and judges every output."""

    def __init__(self, workload, seed, variants, pins, host=None):
        from peal import cli, core, corpus, rdp

        self.cli, self.core, self.corpus, self.rdp = cli, core, corpus, rdp
        self.workload = workload
        self.seed = seed
        self.variants = variants  # document name -> path, per relabeling
        self.pins = pins
        self.host = host  # a HostSpeed to scale operation times by, or None
        self.digests = {}
        self.summaries = {}

    def _call(self, op, paths):
        if op.library == "rdp_report":
            report = self.rdp.rdp_report(self.core.load_table(paths[op.doc]))
            return 0, json.dumps(dataclasses.asdict(report), sort_keys=True)
        path = paths.get(op.doc, "")
        argv = ["--format", "json", "--seed", str(self.seed)]
        argv += [a.replace("{doc}", path) for a in op.args]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue()

    def _timed(self, op, paths):
        """(exit code, output, seconds, missed deadline, escaped exception);
        the time of host probes is not counted in ``seconds``."""
        code, text, error, missed = None, "", None, False
        probed = self.host.spent if self.host else 0.0
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
            try:
                code, text = self._call(op, paths)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            missed = True
        except Exception as exc:  # a traceback from peal is a failed operation
            error = exc
        seconds = time.perf_counter() - start
        if seconds > op.deadline_s:
            missed = True
        if self.host:
            seconds -= self.host.spent - probed
        return code, text, seconds, missed, error

    def _judge(self, op, variant, code, text, missed, error):
        if error is not None:
            return "failed", "raised %s: %s" % (type(error).__name__, error)
        if missed:
            if op.known_failure:
                return "xfail", "missed the %g s deadline: %s" % (op.deadline_s, op.known_failure)
            return "failed", "missed the %g s deadline" % op.deadline_s
        if code != 0:
            return "failed", "exit code %r" % (code,)
        try:
            summary, failed_verdicts = wl.summarize(op, text)
        except (ValueError, KeyError, TypeError) as exc:
            return "failed", "unreadable report: %s" % exc
        if failed_verdicts:
            return "failed", "verdicts failed: %s" % ", ".join(failed_verdicts[:5])
        self.summaries[op.id] = summary
        if self.pins is not None and summary != self.pins.get(op.id):
            return "failed", "summary %s differs from pinned %s" % (
                json.dumps(summary, sort_keys=True),
                json.dumps(self.pins.get(op.id), sort_keys=True))
        first = self.digests.setdefault((op.id, variant), wl.digest(text))
        if first != wl.digest(text):
            return "failed", "output differs from an earlier pass on the same documents"
        return ("xpass" if op.known_failure else "ok"), ""

    def run_pass(self, variant=0, tracer=None, ok_self=None):
        """One cold pass over the documents of one relabeling; with a
        tracer, self time of the operations that ended ok is also added to
        ``ok_self``."""
        self.corpus.generate_peas.cache_clear()
        self.corpus.generate_gpeas.cache_clear()
        # and from a collected heap, as a fresh process does
        gc.collect()
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        sampling = self.host.sampling() if self.host else contextlib.nullcontext()
        try:
            with sampling:
                outcomes = self._ops(variant, tracer, ok_self)
        finally:
            signal.signal(signal.SIGALRM, previous)
        return outcomes

    def _ops(self, variant, tracer, ok_self):
        outcomes = []
        for op in self.workload.ops:
            before = tracer.snapshot() if tracer else None
            first = len(self.host.probes) if self.host else 0
            code, text, seconds, missed, error = self._timed(op, self.variants[variant])
            scaled = seconds * self.host.scale(first) if self.host else seconds
            status, reason = self._judge(op, variant, code, text, missed, error)
            if missed:
                seconds = scaled = op.deadline_s
            outcomes.append(Outcome(op, status, reason, seconds, scaled))
            if tracer is not None:
                if not op.library:
                    tracer.counts["cli.report_bytes"] += len(text.encode())
                if status in ("ok", "xpass"):
                    for span, value in tracer.snapshot().items():
                        ok_self[span] = ok_self.get(span, 0.0) + value - before.get(span, 0.0)
        return outcomes


class SetUp:
    """Set-ups of one workload's documents in child processes.

    Each ``run`` is a fresh interpreter that imports peal and builds, checks
    and writes the documents; every set-up must write the same bytes.  The
    documents of the first one are used.  With a ``HostSpeed``, each time is
    scaled by probes taken just before and after the set-up.
    """

    def __init__(self, workload, seed, work_dir, host=None):
        self.workload, self.seed, self.work_dir = workload, seed, work_dir
        self.host = host  # a HostSpeed to scale set-up times by, or None
        self.times = []
        self.files = None
        self.variants = None

    def run(self):
        out = os.path.join(self.work_dir, "setup%d" % len(self.times))
        cmd = [sys.executable, os.path.join(HERE, "inputs.py"),
               "--workload", self.workload, "--seed", str(self.seed), "--out", out]
        first = len(self.host.probes) if self.host else 0
        if self.host:
            self.host.take()
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        took = time.perf_counter() - start
        if self.host:
            self.host.take()
            took *= self.host.scale(first)
        self.times.append(took)
        variants, files = [], {}
        for variant in range(inputs.VARIANTS):
            sub = os.path.join(out, str(variant))
            paths = {}
            for name in sorted(os.listdir(sub)):
                paths[name[:-len(".json")]] = os.path.join(sub, name)
                with open(paths[name[:-len(".json")]], "rb") as fh:
                    files[(variant, name)] = fh.read()
            variants.append(paths)
        if self.files is None:
            self.files, self.variants = files, variants
        elif files != self.files:
            raise RuntimeError("set-up wrote different documents for the same seed")
        return self.variants


def load_pins():
    with open(PINNED, encoding="utf-8") as fh:
        return json.load(fh)


@dataclasses.dataclass
class Measurement:
    outcomes: list            # every operation run
    metrics: dict             # name -> value
    lines: list               # readable report

    @property
    def failed(self):
        return sum(1 for o in self.outcomes if o.status == "failed")

    @property
    def correct(self):
        return self.failed == 0


def _failure_lines(outcomes):
    lines, seen = [], set()
    for o in outcomes:
        if o.status in ("failed", "xfail", "xpass") and (o.op.id, o.status, o.reason) not in seen:
            seen.add((o.op.id, o.status, o.reason))
            lines.append("  %-6s %s: %s" % (o.status, o.op.id, o.reason))
    return lines


def measure_end_to_end(workload, seed, seconds, work_dir, pins):
    host = HostSpeed()
    setup = SetUp(workload, seed, work_dir, host)
    for _ in range(SETUPS_FIRST):
        setup.run()
    runner = Runner(wl.WORKLOADS[workload], seed, setup.variants, pins, host)
    # The first pass in the process pays lazy imports and heap growth: it is
    # judged, and later passes on its relabeling must repeat its bytes, but
    # it is not timed.
    warm_up = runner.run_pass(0)
    # Timed passes come in rounds of one pass per relabeling, so that every
    # relabeling weighs alike in each operation's median.
    per_round = inputs.VARIANTS if inputs.DOCUMENTS[workload] else 1
    passes = []
    start = time.perf_counter()
    while True:
        for variant in range(per_round):
            passes.append(runner.run_pass(variant))
            # set-ups spread over the run see the same host as the passes
            for _ in range(SETUPS_PER_PASS):
                setup.run()
        elapsed = time.perf_counter() - start
        # start another round only if it should end within half a round of
        # the time asked for
        rounds = len(passes) // per_round
        if elapsed + elapsed / rounds / 2 > seconds:
            break
    outcomes = warm_up + [o for p in passes for o in p]
    walls = [sum(o.seconds for o in p) for p in passes]
    latencies = [o.seconds for p in passes for o in p]
    done = sum(1 for o in outcomes if o.status in ("ok", "xpass"))
    # A pass is estimated as the sum over operations of each operation's
    # median scaled time over the timed passes: a burst of load that the
    # probes miss then costs one sample of the operations it hit rather than
    # a whole pass.
    per_op = [statistics.median(p[i].scaled for p in passes) for i in range(len(passes[0]))]
    metrics = {
        "setup_s": statistics.median(setup.times),
        "scaled_wall_s": sum(per_op),
        # The pooled median of a few distinct operations jumps between them
        # from run to run; the geometric mean weighs every operation's
        # latency alike and stays put.
        "scaled_op_gmean_ms": 1000.0 * statistics.geometric_mean(per_op),
        "done_ratio": done / len(outcomes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    q1, _, q3 = statistics.quantiles(walls, n=4)
    lines = ["workload %s, seed %d: %d timed passes after a warm-up, %d operations,"
             " wall time of a pass (unscaled) quartiles %.4f..%.4f s, pooled operation"
             " latency p50 %.3f ms, mean probe %.3g s (nominal %.3g s)"
             % (workload, seed, len(passes), len(outcomes), q1, q3,
                1000.0 * statistics.median(latencies), statistics.fmean(host.probes),
                PROBE_NOMINAL_S)]
    lines += _failure_lines(outcomes)
    return Measurement(outcomes, metrics, lines)


def _share_lines(workload, m, wall, ok_self):
    """Layer shares of the traced pass and the workload-purpose checks."""
    from tracing import LAYERS

    lines = ["  layer shares of the traced pass (%.4f s):" % wall]
    for layer in sorted(LAYERS, key=lambda l: -m[l + ".self_s"]):
        lines.append("    %-15s %6.1f%%  %.4f s" % (layer, 100 * m[layer + ".self_s"] / wall,
                                                   m[layer + ".self_s"]))
    spans = sorted((k[:-len(".self_s")] for k in m
                    if k.endswith(".self_s") and m.get(k[:-len(".self_s")] + ".calls")),
                   key=lambda span: -m[span + ".self_s"])
    lines.append("  spans by self time:")
    for span in spans:
        lines.append("    %-45s %6.2f%%  %.6f s  %d calls" % (
            span, 100 * m[span + ".self_s"] / wall, m[span + ".self_s"], m[span + ".calls"]))
    lines.append("  counters:")
    for name in sorted(k for k in m if "." in k and not k.endswith((".self_s", ".calls"))):
        lines.append("    %-45s %.6g" % (name, m[name]))
    if workload == "suite":
        share = m["corpus.self_s"] / wall
        lines.append("  check corpus.* > 50%% of the pass: %s (%.1f%%)"
                     % ("PASS" if share > 0.5 else "FAIL", 100 * share))
    elif workload == "docs":
        total = sum(ok_self.values())
        target = ok_self.get("states.solve_state_space", 0.0) + sum(
            v for s, v in ok_self.items() if s.startswith("rdp."))
        others = {}
        for span, v in ok_self.items():
            if span == "states.solve_state_space" or span.startswith("rdp."):
                continue
            others[span.split(".")[0]] = others.get(span.split(".")[0], 0.0) + v
        rival = max(others, key=others.get)
        lines.append("  check solve_state_space + rdp.* is the largest share of ok operations:"
                     " %s (%.1f%% vs %s %.1f%%)"
                     % ("PASS" if target > others[rival] else "FAIL", 100 * target / total,
                        rival, 100 * others[rival] / total))
    elif workload == "polytope":
        share = (m["states.self_s"] + m["decompositions.self_s"]) / wall
        per_solve = m["states.free_parameters_per_solve"]
        lines.append("  check states.* + decompositions.* > 50%% of the pass: %s (%.1f%%)"
                     % ("PASS" if share > 0.5 else "FAIL", 100 * share))
        lines.append("  check free parameters per solve >= 8: %s (%.2f)"
                     % ("PASS" if per_solve >= 8 else "FAIL", per_solve))
    return lines


def bracketed_trace(runner):
    """A warm-up pass, then an untraced, a traced and another untraced pass,
    all on the first relabeling.

    Returns every outcome, the traced pass, the tracer, the self time of the
    operations that ended ok, and the tracer's overhead: the traced pass
    minus the mean of the two untraced passes around it."""
    from tracing import Tracer

    outcomes = runner.run_pass()
    before = runner.run_pass()
    ok_self = {}
    with Tracer() as tracer:
        traced = runner.run_pass(0, tracer, ok_self)
    after = runner.run_pass()
    plain = [sum(o.seconds for o in p) for p in (before, after)]
    overhead = sum(o.seconds for o in traced) - statistics.fmean(plain)
    return outcomes + before + traced + after, traced, tracer, ok_self, overhead


def measure_traced(workload, seed, work_dir, pins):
    runner = Runner(wl.WORKLOADS[workload], seed, SetUp(workload, seed, work_dir).run(), pins)
    outcomes, traced, tracer, ok_self, overhead = bracketed_trace(runner)
    traced_wall = sum(o.seconds for o in traced)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = overhead
    metrics["trace.self_sum_s"] = sum(tracer.self_s.values())
    lines = ["workload %s, seed %d: traced pass %.4f s, untraced passes around it %.4f s"
             " on average, self time of all spans %.4f s"
             % (workload, seed, traced_wall, traced_wall - overhead, metrics["trace.self_sum_s"])]
    lines += _failure_lines(outcomes)
    lines += _share_lines(workload, metrics, traced_wall, ok_self)
    return Measurement(outcomes, metrics, lines)


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def select(metrics, declared):
    out = {}
    for d in declared:
        if d["name"] not in metrics:
            raise KeyError("metric %r was not measured" % d["name"])
        out[d["name"]] = {"value": metrics[d["name"]], "unit": d["unit"]}
    return out


def run_one(workload, seed, seconds, trace, work_dir, pins):
    """Measure, print the readable report and return the result object."""
    spec = bench_spec()
    if trace:
        m = measure_traced(workload, seed, work_dir, pins)
        selected = select(m.metrics, spec["per_layer"])
    else:
        m = measure_end_to_end(workload, seed, seconds, work_dir, pins)
        selected = select(m.metrics, spec["end_to_end"])
    print("\n".join(m.lines))
    for name, value in selected.items():
        print("  %-45s %.6g %s" % (name, value["value"], value["unit"]))
    return {"correct": m.correct, "attempted": len(m.outcomes), "failed": m.failed,
            "metrics": selected}


def run_all(seed, seconds, work_dir, pins):
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            sub = os.path.join(work_dir, "%s-%d" % (name, trace))
            one = run_one(name, seed, seconds, trace, sub, pins[name])
            result["correct"] = result["correct"] and one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            for metric, value in one["metrics"].items():
                result["metrics"]["%s/%s" % (name, metric)] = value
    return result


def pin(work_dir):
    """Summaries of one pass at two seeds; they must agree (relabel
    invariance) and no operation may fail except by a known deadline miss."""
    from peal import core

    pins = {}
    for name, workload in wl.WORKLOADS.items():
        per_seed = []
        for seed in (0, 1):
            sub = os.path.join(work_dir, "%s-%d" % (name, seed))
            variants = SetUp(name, seed, sub).run()
            runner = Runner(workload, seed, variants, None)
            for o in runner.run_pass():
                if o.status == "failed":
                    raise RuntimeError("%s failed while pinning: %s" % (o.op.id, o.reason))
                if o.status == "xfail":
                    text = wl.ideals_oracle_text(core.load_table(variants[0][o.op.doc]))
                    runner.summaries[o.op.id] = wl.summarize(o.op, text)[0]
            per_seed.append(runner.summaries)
        if per_seed[0] != per_seed[1]:
            raise RuntimeError("summaries of %s differ between seeds" % name)
        pins[name] = per_seed[0]
    with open(PINNED, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print("pinned %d operations to %s" % (sum(len(p) for p in pins.values()), PINNED))


def main(argv=None):
    parser = argparse.ArgumentParser(description="peal benchmark")
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--pin", action="store_true", help="rewrite pinned.json")
    args = parser.parse_args(argv)
    if not (args.workload or args.all or args.pin):
        parser.error("give --workload, --all or --pin")
    inputs.import_peal()
    if args.seconds is None:
        args.seconds = bench_spec()["run_seconds"]
    work_dir = os.path.join(WORK, str(os.getpid()))
    try:
        if args.pin:
            pin(work_dir)
            return 0
        pins = load_pins()
        if args.all:
            result = run_all(args.seed, args.seconds, work_dir, pins)
        else:
            result = run_one(args.workload, args.seed, args.seconds, args.trace, work_dir,
                             pins[args.workload])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
