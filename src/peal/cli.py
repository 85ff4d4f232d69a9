"""Command-line front end.

Exit codes: 0 when every verdict passes, 1 when a checked property fails
(axioms, suite invariants, refused preconditions), 2 for input or usage
errors.  Reports are deterministic given (input, seed) and print exact
fractions only.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from itertools import chain, compress, count, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, TextIO

from . import decompositions as dec
from . import ideals as idl
from . import states as st
from .constructions import (
    SymbolicPea,
    builtin_pea,
    gamma_interval_finite,
    lex_product_pea,
    unitize,
)
from .core import (
    InputError,
    PartialAdditionTable,
    PealError,
    check_axioms,
    complements,
    dumps_document,
    induced_order,
    is_symmetric,
    isotropic_data,
    read_table,
    table_to_document,
)
from .groups import UnitalPoGroup, builtin_group, parse_element
from .suite import run_suite


def _load(args, report: "Report") -> PartialAdditionTable:
    """The table in ``args.file``; the digest of its bytes is reported."""
    table, raw = read_table(args.file)
    report.result("input_digest", hashlib.sha256(raw).hexdigest())
    return table


def _write_document(path: str, table: PartialAdditionTable) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps_document(table_to_document(table)))
    except OSError as exc:
        raise InputError("cannot write %r: %s" % (path, exc)) from None


_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _flat_encoder(depth: int) -> json.JSONEncoder:
    """The C encoder that puts the items of a container of scalars one per
    line at indent ``depth``, leaving out the brackets' own lines."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": "))


def _key(key) -> str:
    """A dict key as ``json`` renders it: str, int, float, bool or None."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return _flat_encoder(0).encode(key)
    raise TypeError("keys must be str, int, float, bool or None, not %s"
                    % (key.__class__.__name__,))


def _holds_scalars(value) -> bool:
    """Whether ``value`` is a nonempty dict, list or tuple of scalars."""
    if type(value) is dict:
        value = value.values()
    elif type(value) is not list and type(value) is not tuple:
        return False
    return bool(value) and _SCALARS.issuperset(map(type, value))


class RowTable:
    """A list of a report written one row at a time, each row made from
    its compact source row only as it is written, so that the list's Python
    values are never held whole.

    A subclass keeps its source rows in ``rows`` and gives ``texts(pads,
    comma)``, the text of each item in turn, and ``values()``, each item as
    the ``json`` module would see it, one at a time; iterating a table gives
    the same.  ``pads[k]`` is the line break and indent k levels below the
    list's own, and ``comma`` the comma of an item separator: ``"\\n  ..."``
    and ``","`` in the indented layout, ``""`` and ``", "`` on one line."""

    rows: Sequence

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator:
        return self.values()


def _write_table(table: RowTable, pads: Sequence[str], comma: str, out: TextIO) -> None:
    """Write ``table`` as ``json`` writes the list of its values."""
    texts = table.texts(pads, comma)
    first = next(texts, None)
    if first is None:
        out.write("[]")
        return
    out.write("[" + pads[1] + first)
    out.writelines(map((comma + pads[1]).__add__, texts))
    out.write(pads[0] + "]")


def _dict_template(keys, pads: Sequence[str], comma: str) -> str:
    """The text of a dict with str ``keys``, an item of a table written with
    ``pads`` and ``comma``, as a ``%`` template whose fields are the encoded
    values in sorted key order."""
    _, p1, p2, _ = pads
    return "{" + p2 + (comma + p2).join(
        encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in sorted(keys)) + p1 + "}"


class _NamedRows(RowTable):
    """A table whose items read each source row in the sorted order of the
    element names."""

    def __init__(self, table: PartialAdditionTable, rows: Sequence):
        self.rows = rows
        order = sorted(range(table.size), key=table.elements.__getitem__)
        self.names = [table.elements[x] for x in order]
        self.pick = itemgetter(*order)


class _PartRows(_NamedRows):
    """The ``decompositions`` of ``decompose``, one item per row of
    ``labelled_decompositions``: the sorted names of each part.  The names
    are sorted and encoded once per table.

    For n < 256 a row's labels, in name order, are read once as a bytes
    string, and ``bytes.translate`` with one table per label turns it into
    that label's 0/1 selector of the names, all in C; a larger label does
    not fit a byte, so for n >= 256 each selector compares every label."""

    def __init__(self, table: PartialAdditionTable, rows: Sequence, n: int):
        super().__init__(table, rows)
        self.n = n

    def _parts(self, names: list) -> Iterator[Iterator[compress]]:
        if self.n < 256:
            picks = [bytes(i) + b"\1" + bytes(255 - i) for i in range(self.n + 1)]

            def selectors(labels):
                return map(bytes(labels).translate, picks)
        else:
            def selectors(labels):
                return (map(i.__eq__, labels) for i in range(self.n + 1))
        for row in self.rows:
            yield map(compress, repeat(names), selectors(self.pick(row[0])))

    def values(self) -> Iterator[list]:
        for parts in self._parts(self.names):
            yield list(map(list, parts))

    def texts(self, pads: Sequence[str], comma: str) -> Iterator[str]:
        _, p1, p2, p3 = pads
        leaves = (comma + p3).join
        start, mid, end = "[" + p2 + "[" + p3, p2 + "]" + comma + p2 + "[" + p3, p2 + "]" + p1 + "]"
        for parts in self._parts(list(map(encode_basestring_ascii, self.names))):
            yield start + mid.join(map(leaves, parts)) + end


class _Memo(dict):
    """A dict that makes a missing value as ``make(key)`` and keeps it."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class _StateRows(_NamedRows):
    """A list of states, each a map from element to fraction, from rows
    whose first item is the state's integer numerators in table element
    order, over ``den`` or, when that is None, over the row's second item:
    (numerators, den) as ``StateVector.as_ints`` gives them, or the labels
    of a row of ``labelled_decompositions`` over n.  The keys are sorted and
    encoded once per table, and each distinct fraction once, so a row is one
    template filled from its numerators."""

    def __init__(self, table: PartialAdditionTable, rows: Sequence, den: Optional[int] = None):
        super().__init__(table, rows)
        self.den = den

    def _fractions(self, render) -> Iterator[Iterator[str]]:
        """Each row's fractions through ``render``, in name order; one memo
        per denominator renders each distinct fraction once."""
        lookups = _Memo(lambda den: _Memo(lambda num: render(st._fraction_string(num, den))).__getitem__)
        if self.den is None:
            lookup = map(lookups.__getitem__, map(itemgetter(1), self.rows))
        else:
            lookup = repeat(lookups[self.den])
        return map(map, lookup, map(self.pick, map(itemgetter(0), self.rows)))

    def values(self) -> Iterator[dict]:
        return map(dict, map(zip, repeat(self.names), self._fractions(str)))

    def texts(self, pads: Sequence[str], comma: str) -> Iterator[str]:
        template = _dict_template(self.names, pads, comma)
        return map(template.__mod__, map(tuple, self._fractions(encode_basestring_ascii)))


class _VerdictRows(RowTable):
    """A ``verdicts`` list: those in ``head`` and then those in ``tail``, as
    ``Report.verdict`` made them, around one verdict ``name % i`` per source
    row i.  That verdict passes as ``flags[i]`` says, or always when
    ``flags`` is None, and its detail is empty unless a subclass gives
    ``_details(render)``, each row's detail through ``render``."""

    def __init__(self, head: List[dict], name: str, rows: Sequence,
                 flags: Optional[Sequence[bool]] = None, tail: Sequence[dict] = ()):
        self.head = head
        self.name = name
        self.rows = rows
        self.flags = flags
        self.tail = tail

    def __len__(self) -> int:
        return len(self.head) + len(self.rows) + len(self.tail)

    def _details(self, render) -> Iterator[str]:
        return repeat(render(""), len(self.rows))

    def values(self) -> Iterator[dict]:
        yield from self.head
        flags = repeat(True) if self.flags is None else self.flags
        for i, passed, detail in zip(count(), flags, self._details(str)):
            yield {"name": self.name % i, "passed": passed, "detail": detail}
        yield from self.tail

    def _spliced(self, made, failing: str, passing: str, numbered: Iterator[tuple]) -> Iterator[str]:
        """``made(v)`` for each verdict v of ``head`` and then of ``tail``,
        around the numbered rows: ``failing`` or ``passing``, as the flags
        say, filled in with each tuple of ``numbered``."""
        if self.flags is None:
            rows = map(passing.__mod__, numbered)
        else:
            rows = map(str.__mod__, map((failing, passing).__getitem__, self.flags), numbered)
        return chain(map(made, self.head), rows, map(made, self.tail))

    def lines(self) -> Iterator[str]:
        """The lines of the text report, ``[pass] name  detail`` or
        ``[FAIL] ...``, the two spaces and the detail only when there is
        one."""
        def made(v: dict) -> str:
            return "[%s] %s%s\n" % ("pass" if v["passed"] else "FAIL", v["name"],
                                    "  " + v["detail"] if v["detail"] else "")

        failing, passing = ("[%s] %s%%s\n" % (status, self.name) for status in ("FAIL", "pass"))
        return self._spliced(made, failing, passing,
                             zip(count(), self._details(lambda detail: detail and "  " + detail)))

    def texts(self, pads: Sequence[str], comma: str) -> Iterator[str]:
        template = _dict_template(("detail", "name", "passed"), pads, comma)

        def made(v: dict) -> str:
            return template % (encode_basestring_ascii(v["detail"]),
                               encode_basestring_ascii(v["name"]),
                               "true" if v["passed"] else "false")

        failing, passing = (template % ("%s", encode_basestring_ascii(self.name), flag)
                            for flag in ("false", "true"))
        return self._spliced(made, failing, passing,
                             zip(self._details(encode_basestring_ascii), count()))


class _ComparabilityRows(_VerdictRows):
    """The verdicts of ``decompose``: one comparability verdict per row of
    ``labelled_decompositions``, which passes.  The detail of each witness
    is made and encoded once."""

    def __init__(self, head: List[dict], table: PartialAdditionTable, rows: Sequence):
        super().__init__(head, "comparability[%d]", rows)
        self.elements = table.elements

    def _details(self, render) -> Iterator[str]:
        details = _Memo(lambda witness: render(
            "comparable" if witness is None else "not comparable: %r"
            % (tuple(map(self.elements.__getitem__, witness)),)))
        return map(details.__getitem__, map(itemgetter(2), self.rows))


def _indented(value, depth: int, out: TextIO) -> None:
    """Write the text of ``json.dumps(value, sort_keys=True, indent=2)`` at
    nesting ``depth`` to ``out``, exactly, but not with the stdlib's
    pure-Python encoder, which it falls back to whenever ``indent`` is set.
    A ``RowTable`` is written as the list its iteration gives.

    Three layouts write a whole container at once; Python recurses only
    over the other containers that hold containers.  Two take one call of
    the C encoder: a container of scalars, encoded with the item separator
    of its depth, and a list of containers of scalars of one kind, laid out
    with its children's item separator, where a child's closing bracket
    followed by that separator, which holds a raw newline that no encoded
    string has, marks a separator between children.  The third is a
    ``RowTable``, written one row at a time, each row made from its compact
    source row only as it is written, so that its values are never held
    whole."""
    pad = "\n" + "  " * depth
    inner = pad + "  "
    if isinstance(value, RowTable):
        _write_table(value, tuple(pad + "  " * k for k in range(4)), ",", out)
    elif _holds_scalars(value):
        text = _flat_encoder(depth + 1).encode(value)
        out.write(text[0] + inner + text[1:-1] + pad + text[-1])
    elif isinstance(value, dict) and value:
        sep = "{" + inner
        for key, v in sorted(value.items()):
            out.write(sep + encode_basestring_ascii(_key(key)) + ": ")
            _indented(v, depth + 1, out)
            sep = "," + inner
        out.write(pad + "}")
    elif isinstance(value, (list, tuple)) and value:
        kinds = set(map(type, value))
        if (kinds == {dict} or kinds <= {list, tuple}) and all(map(_holds_scalars, value)):
            text = _flat_encoder(depth + 2).encode(value)
            start, end = text[1], text[-2]
            text = text.replace(end + "," + inner + "  " + start,
                                inner + end + "," + inner + start + inner + "  ")
            out.write("[" + inner + start + inner + "  " + text[2:-2] + inner + end + pad + "]")
            return
        sep = "[" + inner
        for v in value:
            out.write(sep)
            _indented(v, depth + 1, out)
            sep = "," + inner
        out.write(pad + "]")
    else:
        out.write(_flat_encoder(0).encode(value))


def _default_seed() -> int:
    env = os.environ.get("PEA_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise InputError("PEA_SEED must be an integer, got %r" % (env,)) from None


class Report:
    def __init__(self, command: str, argv: List[str], seed: int):
        self.data: Dict = {
            "command": command,
            "argv": list(argv),
            "seed": seed,
            "results": {},
            "verdicts": [],
        }

    def result(self, key: str, value) -> None:
        self.data["results"][key] = value

    def verdict(self, name: str, passed: bool, detail: str = "") -> None:
        self.data["verdicts"].append(
            {"name": name, "passed": bool(passed), "detail": detail}
        )

    @property
    def all_passed(self) -> bool:
        return all(v["passed"] for v in self.data["verdicts"])

    def emit(self, fmt: str, stream=None) -> None:
        stream = stream or sys.stdout
        if fmt == "json":
            _indented(self.data, 0, stream)
            stream.write("\n")
            return
        for key, value in sorted(self.data["results"].items()):
            if isinstance(value, RowTable):
                stream.write(key + ": ")
                _write_table(value, ("",) * 4, ", ", stream)
                stream.write("\n")
            else:
                stream.write("%s: %s\n" % (key, json.dumps(value, sort_keys=True)))
        verdicts = self.data["verdicts"]
        if not isinstance(verdicts, _VerdictRows):
            verdicts = _VerdictRows(verdicts, "", ())
        stream.writelines(verdicts.lines())


def cmd_verify(args, report: Report, seed: int) -> int:
    table = _load(args, report)
    kind = args.kind or ("pea" if table.one is not None else "gpea")
    axioms = check_axioms(table, kind)
    report.verdict(
        "axioms[%s]" % kind,
        axioms.passed,
        "; ".join("%s at %s" % (t, ",".join(w)) for t, w in axioms.violations),
    )
    if not axioms.passed:
        return 1
    order = induced_order(table)
    report.result("order_pairs", sorted(["%s<=%s" % p for p in order.pairs]))
    report.result("order_covers", sorted(["%s<%s" % p for p in order.covering_pairs]))
    info, infinit = isotropic_data(table)
    report.result(
        "isotropic_index",
        {e: ("inf" if i.iota is None else i.iota) for e, i in info.items()},
    )
    report.result("infinit", sorted(infinit))
    if kind == "pea":
        report.result(
            "complements",
            {e: list(complements(table, e)) for e in table.elements},
        )
        sym = is_symmetric(table)
        report.result("symmetric", sym.symmetric)
        if sym.witness:
            report.result("symmetry_witness", list(sym.witness))
    return 0


def cmd_states(args, report: Report, seed: int) -> int:
    table = _load(args, report)
    space = st.solve_state_space(table)
    report.result("consistent", space.consistent)
    report.result("free_parameters", space.dimension)
    if space.particular is not None:
        report.result(
            "particular_solution",
            {e: str(v) for e, v in space.particular.items()},
        )
        report.result(
            "basis",
            [{e: str(v) for e, v in vec.items()} for vec in space.basis],
        )
        report.result("free_elements", list(space.free_elements))
    report.result("extremal_states",
                  _StateRows(table, [s.as_ints() for s in space.extremal_states]))
    report.verdict("state-space-solved", True)
    flags = list(st._extremal_flags(table)) if args.extremal else []
    if args.discrete is not None:
        found = st.enumerate_discrete_states(table, args.discrete)
        report.result("discrete_states_n%d" % args.discrete,
                      _StateRows(table, [s.as_ints() for s in found]))
        for s in found:
            cls = st.classify_state(table, s)
            if not cls.discrete or cls.n != args.discrete:
                report.verdict("discrete-classification", False, str(cls))
    # state-space-solved, the extremality verdicts, any classification failure
    verdicts = report.data["verdicts"]
    report.data["verdicts"] = _VerdictRows(verdicts[:1], "extremal[%d]", flags, flags, verdicts[1:])
    return 0 if all(flags) and len(verdicts) == 1 else 1


def cmd_decompose(args, report: Report, seed: int) -> int:
    table = _load(args, report)
    rows = dec.labelled_decompositions(table, args.n)
    report.result("decompositions", _PartRows(table, rows, args.n))
    report.result("states", _StateRows(table, rows, args.n))
    report.verdict("bijection-mutually-inverse", True)
    report.data["verdicts"] = _ComparabilityRows(report.data["verdicts"], table, rows)
    return 0


def cmd_ideals(args, report: Report, seed: int) -> int:
    table = _load(args, report)
    ideals = idl.enumerate_ideals(table)
    report.result(
        "ideals",
        [
            {
                "members": i.sorted_ids(),
                "normal": i.normal,
                "maximal": i.maximal,
                "riesz": i.riesz,
            }
            for i in ideals
        ],
    )
    if table.one is not None:
        rad, rad_n = idl.radicals(table)
        report.result("radical", sorted(rad))
        report.result("normal_radical", sorted(rad_n))
        pairs = idl.two_valued_partition(table)
        report.result(
            "two_valued_partition",
            [
                {"ideal": i.sorted_ids(), "state": s.as_strings()}
                for i, s in pairs
            ],
        )
    report.verdict("ideal-lattice-enumerated", True)
    return 0


def cmd_quotient(args, report: Report, seed: int) -> int:
    table = _load(args, report)
    members = [m for m in args.ideal.split(",") if m]
    q, linear, mapping = idl.quotient(table, members)
    report.result("quotient_document", table_to_document(q))
    report.result("linear", linear)
    report.result("class_of", mapping)
    report.verdict("quotient-well-defined", True)
    if args.output:
        _write_document(args.output, q)
    return 0


def cmd_unitize(args, report: Report, seed: int) -> int:
    table = _load(args, report)
    lifted = unitize(table)
    report.result("unitization_document", table_to_document(lifted))
    report.verdict("unitization-is-symmetric-pea", True)
    if args.output:
        _write_document(args.output, lifted)
    return 0


def _construct_object(args, seed: int):
    if args.offset is not None and args.lex_product is None:
        raise InputError("--offset applies only to --lex-product")
    if args.order is not None and not args.group:
        raise InputError("--order applies only with --group")
    order = args.order or "pointwise"
    if args.builtin:
        group = builtin_group(args.group, order) if args.group else None
        return builtin_pea(args.builtin, group)
    if args.lex_product is not None:
        if not args.group:
            raise InputError("--lex-product requires --group")
        group = builtin_group(args.group, order)
        h = parse_element(group, args.offset) if args.offset else None
        return lex_product_pea(args.lex_product, group, h=h, seed=seed)
    if args.interval:
        if not args.group:
            raise InputError("--interval requires --group")
        group = builtin_group(args.group, order)
        return gamma_interval_finite(UnitalPoGroup(group, parse_element(group, args.interval)))
    raise InputError("construct needs --builtin, --lex-product, or --interval")


def cmd_construct(args, report: Report, seed: int) -> int:
    if args.samples < 1:
        raise InputError("--samples must be at least 1, got %d" % (args.samples,))
    obj = _construct_object(args, seed)
    if isinstance(obj, PartialAdditionTable):
        report.result("document", table_to_document(obj))
        report.verdict("construction", True)
        if args.output:
            _write_document(args.output, obj)
        return 0
    assert isinstance(obj, SymbolicPea)
    if args.output:
        raise InputError(
            "-o/--output writes a finite table; %s is symbolic and has none"
            % (obj.name,)
        )
    report.result("symbolic", obj.describe())
    for verdict in obj.sampled_axiom_report(seed=seed, samples=args.samples):
        report.verdict("sampled-%s" % verdict.name, verdict.passed, verdict.witness or "")
    report.verdict(
        "sampled-state-additivity",
        obj.sampled_state_additivity(seed=seed, samples=args.samples).passed,
    )
    return 0 if report.all_passed else 1


def cmd_suite(args, report: Report, seed: int) -> int:
    suite = run_suite(max_size=args.max_size, seed=seed, samples=args.samples)
    report.result("corpus_sizes", {str(k): v for k, v in sorted(suite.corpus_sizes.items())})
    for name, ok, detail in suite.verdicts:
        report.verdict(name, ok, detail)
    if suite.witness_document is not None:
        report.result("witness_document", json.loads(suite.witness_document))
    return 0 if suite.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``pea`` parser, built once per process: parsing leaves it as it
    was, so every call of ``main`` can share it."""
    parser = argparse.ArgumentParser(
        prog="pea",
        description="Exact-arithmetic analysis of pseudo-effect algebras.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=None,
                        help="sampling seed (default: PEA_SEED or 0)")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("verify", help="axioms, order, complements, symmetry")
    p.set_defaults(func=cmd_verify)
    p.add_argument("file")
    p.add_argument("--kind", choices=("pea", "gpea"), default=None)

    p = sub.add_parser("states", help="state space, discrete states, extremality")
    p.set_defaults(func=cmd_states)
    p.add_argument("file")
    p.add_argument("--discrete", type=int, default=None, metavar="N")
    p.add_argument("--extremal", action="store_true")

    p = sub.add_parser("decompose", help="n-decompositions and their states")
    p.set_defaults(func=cmd_decompose)
    p.add_argument("file")
    p.add_argument("n", type=int)

    p = sub.add_parser("ideals", help="ideal lattice, radicals, two-valued partition")
    p.set_defaults(func=cmd_ideals)
    p.add_argument("file")

    p = sub.add_parser("quotient", help="quotient by a normal Riesz ideal")
    p.set_defaults(func=cmd_quotient)
    p.add_argument("file")
    p.add_argument("--ideal", required=True, help="comma-separated member ids")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("unitize", help="unitization of a symmetric GPEA")
    p.set_defaults(func=cmd_unitize)
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("construct", help="builtins and symbolic constructions")
    p.set_defaults(func=cmd_construct)
    what = p.add_mutually_exclusive_group()
    what.add_argument("--builtin", default=None,
                      help="diamond | boolean4 | chain:N | example46 | example47 | twisted_gamma")
    what.add_argument("--lex-product", type=int, default=None, metavar="N")
    what.add_argument("--interval", default=None, metavar="U",
                      help="comma-separated unit coordinates for a finite interval")
    p.add_argument("--group", default=None,
                   help="z:K | lex:z:K | twisted-z3 (with --builtin, example47 only)")
    p.add_argument("--order", default=None, choices=("pointwise", "lex"),
                   help="order of the --group (default: pointwise)")
    p.add_argument("--offset", default=None, help="comma-separated offset coordinates")
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("-o", "--output", default=None,
                   help="write the table document (finite constructions only)")

    p = sub.add_parser("suite", help="exhaustive small-model theorem suite")
    p.set_defaults(func=cmd_suite)
    p.add_argument("--max-size", type=int, default=5)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="sampling seed (same as the global flag)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        seed = args.seed if args.seed is not None else _default_seed()
        report = Report(args.cmd, argv, seed)
        code = args.func(args, report, seed)
    except InputError as exc:
        print("input error: %s" % (exc,), file=sys.stderr)
        return 2
    except PealError as exc:
        print("check failed: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    report.emit(args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
