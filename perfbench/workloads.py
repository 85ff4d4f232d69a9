"""The benchmark's workloads, their operations and the correctness gate.

An operation is one top-level call: one ``peal.cli.main([...])`` or one
library call.  Each operation yields an exit code and an output text; the
text is hashed for the byte-identity check between passes and reduced to a
relabel-invariant summary that must equal the one pinned in
``pinned.json`` for the seed commit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Optional, Tuple

# Deadline of every operation.  The slowest healthy operation takes about
# 5 s on a 2-core host, so only a hang or a several-fold slowdown misses it.
DEADLINE_S = 30.0

# Deadline of the operations recorded as failing at the seed commit.  Their
# real work (16 or 32 ideals, 4 or 5 two-valued states) takes milliseconds;
# the time goes into a relabeling search that does not finish in minutes.
KNOWN_FAILURE_DEADLINE_S = 1.0

BOOLEAN_IDEALS_CAUSE = (
    "two_valued_partition -> are_isomorphic -> canonical_key walks every "
    "profile-compatible relabeling of the unitized table (4!*6!*4! = 414,720 "
    "on 2^4); enumerate_ideals alone takes about 2 ms"
)


@dataclasses.dataclass(frozen=True)
class Op:
    id: str                              # relabel-invariant name, keys pinned.json
    args: Tuple[str, ...] = ()           # pea arguments; "{doc}" is the document path
    doc: Optional[str] = None
    library: Optional[str] = None        # "rdp_report": a library call, not the CLI
    deadline_s: float = DEADLINE_S
    known_failure: Optional[str] = None  # cause, when the op misses its deadline at the seed

    @property
    def command(self):
        return self.library or self.args[0]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    ops: Tuple[Op, ...]


def _document_ops(doc):
    ops = [
        Op("verify %s" % doc, ("verify", "{doc}"), doc),
        Op("states %s" % doc, ("states", "{doc}", "--extremal", "--discrete", "2"), doc),
        Op("decompose %s" % doc, ("decompose", "{doc}", "2"), doc),
    ]
    if doc.startswith("bool"):
        ops.append(Op("ideals %s" % doc, ("ideals", "{doc}"), doc,
                      deadline_s=KNOWN_FAILURE_DEADLINE_S,
                      known_failure=BOOLEAN_IDEALS_CAUSE))
    else:
        ops.append(Op("ideals %s" % doc, ("ideals", "{doc}"), doc))
    ops.append(Op("rdp %s" % doc, doc=doc, library="rdp_report"))
    return ops


WORKLOADS = {
    "suite": Workload(
        "suite",
        (Op("suite", ("suite", "--max-size", "7", "--samples", "2000")),),
    ),
    "docs": Workload(
        "docs",
        tuple(op for doc in ("chain40", "z2-5x5", "bool5", "bool4")
              for op in _document_ops(doc))
        + (Op("unitize coatom-gpea", ("unitize", "{doc}"), "coatom-gpea"),
           Op("construct lex-product", ("construct", "--lex-product", "3", "--group",
                                        "z:2", "--samples", "2000"))),
    ),
    "polytope": Workload(
        "polytope",
        (Op("states hsum-4x2^3", ("states", "{doc}", "--extremal"), "hsum-4x2^3"),
         Op("states hsum-10x2^2", ("states", "{doc}", "--extremal"), "hsum-10x2^2"),
         Op("decompose hsum-4x2^3", ("decompose", "{doc}", "2"), "hsum-4x2^3")),
    ),
}

# Inputs left out because one pass over them would exceed a minute.
EXCLUDED = {
    "states chain:80": "solve_state_space takes about 41 s (dense elimination)",
    "ideals Boolean 2^6": "more than 9 minutes (antichain walk, relabeling search)",
    "suite --max-size 8": "about 365 s (size-8 corpus search)",
    "states --discrete 2 on ten 2^2 blocks": "about 3^10 discrete states",
}


# -- summaries --------------------------------------------------------------


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _count(flags):
    return sum(1 for f in flags if f)


def _results_summary(command, results):
    if command == "verify":
        return {
            "elements": len(results["isotropic_index"]),
            "order_pairs": len(results["order_pairs"]),
            "order_covers": len(results["order_covers"]),
            "infinit": len(results["infinit"]),
            "symmetric": results.get("symmetric"),
        }
    if command == "states":
        out = {
            "consistent": results["consistent"],
            "free_parameters": results["free_parameters"],
            "extremal_states": len(results["extremal_states"]),
        }
        if "discrete_states_n2" in results:
            out["discrete_states_n2"] = len(results["discrete_states_n2"])
        return out
    if command == "decompose":
        return {"decompositions": len(results["decompositions"])}
    if command == "ideals":
        ideals = results["ideals"]
        return {
            "ideals": len(ideals),
            "normal": _count(i["normal"] for i in ideals),
            "maximal": _count(i["maximal"] for i in ideals),
            "riesz": _count(i["riesz"] for i in ideals),
            "radical": len(results.get("radical", ())),
            "normal_radical": len(results.get("normal_radical", ())),
            "two_valued": len(results.get("two_valued_partition", ())),
        }
    if command == "unitize":
        doc = results["unitization_document"]
        return {"elements": len(doc["elements"]), "sums": len(doc["add"])}
    if command == "construct":
        return {"symbolic": results["symbolic"]}
    if command == "suite":
        return {"corpus_sizes": results["corpus_sizes"],
                "witness": "witness_document" in results}
    raise ValueError("no summary for %r" % (command,))


def summarize(op, text):
    """(relabel-invariant summary, names of failed verdicts) of one output."""
    if op.library == "rdp_report":
        rep = json.loads(text)
        return {k: rep[k] for k in ("rdp0", "rdp", "rdp1")}, []
    report = json.loads(text)
    names = [v["name"] for v in report["verdicts"]]
    summary = _results_summary(op.command, report["results"])
    summary["verdicts"] = len(names)
    summary["verdict_names_sha256"] = digest("\n".join(names))
    return summary, [v["name"] for v in report["verdicts"] if not v["passed"]]


def ideals_oracle_text(table):
    """An ``ideals`` report rebuilt from library calls that finish, used to
    pin the summary of the Boolean ``ideals`` operations that do not."""
    from peal import ideals as idl
    from peal import states as st

    ideals = idl.enumerate_ideals(table)
    rad, rad_n = idl.radicals(table)
    two_valued = st.enumerate_discrete_states(table, 1)
    report = {
        "results": {
            "ideals": [{"members": i.sorted_ids(), "normal": i.normal,
                        "maximal": i.maximal, "riesz": i.riesz} for i in ideals],
            "radical": sorted(rad),
            "normal_radical": sorted(rad_n),
            "two_valued_partition": [s.as_strings() for s in two_valued],
        },
        "verdicts": [{"name": "ideal-lattice-enumerated", "passed": True, "detail": ""}],
    }
    return json.dumps(report, sort_keys=True)
