"""Seeded input documents for the benchmark workloads.

Every document is built through peal's public constructors, relabeled by the
workload seed (element order permuted, every element renamed), certified
with ``check_axioms`` and written with ``dumps_document`` so its bytes are
stable for a given seed.  Each seed yields ``VARIANTS`` relabelings of every
document, because the element order alone moves pivot and search order, and
so the cost of some operations, by a third.

Run as a script, this file is one benchmark set-up: interpreter start-up,
``import peal``, then generating, checking and writing one workload's
documents::

    python3 perfbench/inputs.py --workload docs --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
VARIANTS = 3


def import_peal():
    """Import peal from the ``src/`` tree of the checkout this file sits in.

    Raises SystemExit(2) when that tree is missing, so the benchmark fails
    fast instead of measuring some other installed copy.
    """
    if not os.path.isfile(os.path.join(SRC, "peal", "__init__.py")):
        print("perfbench: no peal sources under %s" % SRC, file=sys.stderr)
        raise SystemExit(2)
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    import peal

    if os.path.dirname(os.path.dirname(os.path.abspath(peal.__file__))) != SRC:
        print("perfbench: imported peal from %s, not %s" % (peal.__file__, SRC),
              file=sys.stderr)
        raise SystemExit(2)
    return peal


def interval(k, u):
    """The interval [0, u] of Z^k (pointwise order) as a finite table."""
    from peal.constructions import gamma_interval_finite
    from peal.groups import IntVectorGroup, UnitalPoGroup

    return gamma_interval_finite(UnitalPoGroup(IntVectorGroup(k), tuple(u)))


def boolean_horizontal_sum(blocks, atoms):
    """``blocks`` copies of the Boolean algebra 2^atoms glued at 0 and 1.

    Inside a block x + y is defined for disjoint masks and gives x | y; no
    sum is defined across blocks, so each block adds free state parameters.
    """
    from peal.core import PartialAdditionTable

    top = (1 << atoms) - 1
    elements = ["0", "1"]
    sums = {}
    for b in range(blocks):
        names = {x: "b%d.%d" % (b, x) for x in range(1, top)}
        names[0], names[top] = "0", "1"
        elements.extend(names[x] for x in range(1, top))
        for x in range(1, top):
            for y in range(1, top):
                if x & y == 0:
                    sums[(names[x], names[y])] = names[x | y]
    return PartialAdditionTable.build(elements, "0", "1", sums)


def coatom_gpea(rng):
    """The 16-element GPEA below a seed-chosen coatom of 2^5."""
    boolean5 = interval(5, (1,) * 5)
    hole = rng.randrange(5)
    below = [e for e in boolean5.elements if e.strip("()").split(",")[hole] == "0"]
    return boolean5.restrict(below)


def relabel(table, rng):
    """An isomorphic copy with permuted element order and fresh names."""
    from peal.core import PartialAdditionTable

    order = list(table.elements)
    rng.shuffle(order)
    ids = list(range(len(order)))
    rng.shuffle(ids)
    name = {e: "e%d" % i for e, i in zip(order, ids)}
    els = table.elements
    sums = {
        (name[els[i]], name[els[j]]): name[els[s]]
        for i, j, s in table.defined_sums()
    }
    one = None if table.one is None else name[table.one]
    return PartialAdditionTable([name[e] for e in order], name[table.zero], one, sums)


# Document name -> make(rng), per workload.  Names are relabel-invariant
# and key the pinned summaries.
DOCUMENTS = {
    "suite": {},
    "docs": {
        "chain40": lambda rng: interval(1, (40,)),
        "z2-5x5": lambda rng: interval(2, (5, 5)),
        "bool5": lambda rng: interval(5, (1,) * 5),
        "bool4": lambda rng: interval(4, (1,) * 4),
        "coatom-gpea": coatom_gpea,
    },
    "polytope": {
        "hsum-4x2^3": lambda rng: boolean_horizontal_sum(4, 3),
        "hsum-10x2^2": lambda rng: boolean_horizontal_sum(10, 2),
    },
}


def build(workload, seed, variant):
    """Relabeled, axiom-checked tables of one workload, by document name."""
    from peal.core import check_axioms

    rng = random.Random("%s/%d/%d" % (workload, seed, variant))
    tables = {}
    for name, make in DOCUMENTS[workload].items():
        table = relabel(make(rng), rng)
        kind = "pea" if table.one is not None else "gpea"
        report = check_axioms(table, kind)
        if not report.passed:
            raise RuntimeError("generated %s fails %s axioms: %r"
                               % (name, kind, report.violations[:1]))
        tables[name] = table
    return tables


def write(workload, seed, out_dir):
    """Build and write every variant of one workload's documents under
    ``out_dir/<variant>/``; returns one name -> path map per variant."""
    from peal.core import dumps_document, table_to_document

    variants = []
    for variant in range(VARIANTS):
        sub = os.path.join(out_dir, str(variant))
        os.makedirs(sub, exist_ok=True)
        paths = {}
        for name, table in build(workload, seed, variant).items():
            path = os.path.join(sub, name + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dumps_document(table_to_document(table)))
            paths[name] = path
        variants.append(paths)
    return variants


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(DOCUMENTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    import_peal()
    write(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
