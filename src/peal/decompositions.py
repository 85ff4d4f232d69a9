"""n-decompositions of finite PEAs, their bijection with discrete states,
comparability, n-perfectness, condition (e), and the canonical-chain collapse
of finite n-perfect algebras."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress
from operator import and_, or_
from typing import Dict, FrozenSet, List, Optional, Tuple

from .core import (
    InconsistencyError,
    InputError,
    PartialAdditionTable,
    _bits,
    _differences,
    _mask,
    _nonadditive,
    _require_pea,
    _require_table,
    complements,
    derived,
    induced_order,
    isotropic_data,
)
from . import ideals as ideals_mod
from . import states as states_mod


# A row of ``labelled_decompositions``: labels, part masks, chain witness.
DecompositionRow = Tuple[Tuple[int, ...], Tuple[int, ...], Optional[Tuple[int, int]]]


@dataclass(frozen=True)
class Decomposition:
    """Ordered partition (E_0, ..., E_n) of the carrier."""

    parts: Tuple[FrozenSet[str], ...]

    @property
    def n(self) -> int:
        return len(self.parts) - 1

    def __repr__(self):
        return "Decomposition(%s)" % ", ".join(
            "{%s}" % ",".join(sorted(p)) for p in self.parts
        )


def _in_table_order(table: PartialAdditionTable, part) -> List[str]:
    """The members of ``part`` in table element order, so that witnesses and
    messages do not depend on set iteration order."""
    return [e for e in table.elements if e in part]


@derived
def _checked(table: PartialAdditionTable) -> Dict[Decomposition, Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """The decompositions of ``table`` validated so far, each with the part
    index of every element and its parts as bitmasks over element indices."""
    return {}


def _check_labels(table: PartialAdditionTable, labels: Tuple[int, ...], n: int) -> None:
    """Raise unless the labels are a decomposition: every label of 0..n is
    used and no other, the complements of an element labelled i are
    labelled n - i, and the labels add on every defined sum (a sum of
    labels above n fails the last test), with the messages of
    ``validate_decomposition``."""
    used = set(labels)
    if len(used) != n + 1 or min(used) != 0 or max(used) != n:
        empty = next((i for i in range(n + 1) if i not in used), None)
        if empty is not None:
            raise InputError("part E_%d is empty" % (empty,))
        raise InputError("parts do not cover the carrier")
    _require_pea(table)
    if labels[table.one_i] == n and _nonadditive(table, labels) is None:
        return  # a- + a = a + a~ = 1 are defined sums, so complements hold
    ldiff, rdiff = _differences(table)
    u = table.one_i
    for x, a in enumerate(table.elements):
        i = labels[x]
        if labels[ldiff[u][x]] != n - i or labels[rdiff[x][u]] != n - i:
            raise InputError("complements of %r land outside E_%d" % (a, n - i))
    bad = _nonadditive(table, labels)
    if bad is not None:
        raise InputError(
            "sum %r + %r = %r violates additivity of parts"
            % tuple(table.elements[x] for x in bad)
        )


def _validated(table: PartialAdditionTable, D: Decomposition) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The labels and part masks of ``D``, after the checks of
    ``validate_decomposition``."""
    checked = _checked(table)
    if D in checked:
        return checked[D]
    n = D.n
    if n < 1:
        raise InputError("decomposition needs at least two parts")
    seen: Dict[str, int] = {}
    for i, part in enumerate(D.parts):
        if not part:
            raise InputError("part E_%d is empty" % (i,))
        for a in _in_table_order(table, part):
            if a in seen:
                raise InputError("element %r in both E_%d and E_%d" % (a, seen[a], i))
            seen[a] = i
    if set().union(*D.parts) != set(table.elements):
        raise InputError("parts do not cover the carrier")
    labels = tuple(map(seen.__getitem__, table.elements))
    _check_labels(table, labels, n)
    entry = checked[D] = labels, tuple(_mask(table, part) for part in D.parts)
    return entry


def validate_decomposition(table: PartialAdditionTable, D: Decomposition) -> None:
    """Check the partition conditions (disjoint, covering, complement-matched,
    additive) plus nonemptiness; raise on the first failure.  A decomposition
    that passed is not checked again."""
    _validated(table, D)


def _part_masks(table: PartialAdditionTable, D: Decomposition) -> Tuple[int, ...]:
    """Each part of the validated ``D`` as a bitmask over element indices."""
    return _validated(table, D)[1]


def _decomposition(table: PartialAdditionTable, labels: Tuple[int, ...],
                   parts: Tuple[int, ...]) -> Decomposition:
    """The decomposition of a row of ``labelled_decompositions``, recorded
    as validated."""
    els = table.elements
    D = Decomposition(tuple(frozenset(compress(els, map(i.__eq__, labels)))
                            for i in range(len(parts))))
    _checked(table)[D] = labels, parts
    return D


@derived
def _lacking(table: PartialAdditionTable) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Per element a, as bitmasks: the elements not above a, and the right
    operands b with a + b undefined."""
    full = (1 << table.size) - 1
    return (tuple(full & ~u for u in induced_order(table).up),
            tuple(sum(1 << b for b, c in enumerate(row) if c is None) for row in table._sums))


def _chain_holds(table: PartialAdditionTable, labels: Tuple[int, ...], parts: Tuple[int, ...]) -> bool:
    """Whether E_0 <= ... <= E_n: every element of E_i is below the union
    above[i] of the parts after E_i.  One mask test per element."""
    above = list(accumulate(reversed(parts), or_))[-2::-1] + [0]
    return not any(map(and_, map(above.__getitem__, labels), _lacking(table)[0]))


def _chain_witness(table: PartialAdditionTable, parts: Tuple[int, ...]) -> Tuple[int, int]:
    """The witness of a failed chain, as element indices: the first a of
    E_i and b of E_j, i < j, with b not above a, taking i, then j, then a
    and b in index order."""
    not_above = _lacking(table)[0]
    for i, low in enumerate(parts):
        for high in parts[i + 1:]:
            for a in _bits(low):
                gap = high & not_above[a]
                if gap:
                    return a, (gap & -gap).bit_length() - 1
    raise InconsistencyError("a failed chain has no witness")


def _sums_exist(table: PartialAdditionTable, labels: Tuple[int, ...], parts: Tuple[int, ...]) -> bool:
    """Whether every sum of E_i and E_j is defined when i + j < n: each
    element of E_i has a defined sum with every element of the union
    E_0 | ... | E_{n-1-i}.  One mask test per element."""
    below = list(accumulate(parts[:-1], or_))[::-1] + [0]
    return not any(map(and_, map(below.__getitem__, labels), _lacking(table)[1]))


def _sums_onto(table: PartialAdditionTable, parts: Tuple[int, ...]) -> bool:
    """Whether E_i + E_j = E_{i+j} whenever i + j < n, for parts whose sums
    there are all defined."""
    t = table._sums
    n = len(parts) - 1
    for i in range(n):
        for j in range(n - i):
            got = 0
            for a in _bits(parts[i]):
                row = t[a]
                for b in _bits(parts[j]):
                    got |= 1 << row[b]
            if got != parts[i + j]:
                return False
    return True


def _comparability(table: PartialAdditionTable, labels: Tuple[int, ...],
                   parts: Tuple[int, ...]) -> Optional[Tuple[int, int]]:
    """None when E_0 <= ... <= E_n, else the chain's witness.

    Decides (A) the chain and (B) E_i + E_j exists whenever i+j < n,
    asserts A <=> B, and when they hold verifies the three consequences
    (E_0 = Infinit(E) and a normal ideal; E_i + E_j = E_{i+j} below n; no
    sums above n, which ``_check_labels`` already guarantees)."""
    comparable = _chain_holds(table, labels, parts)
    sums_exist = _sums_exist(table, labels, parts)
    if comparable != sums_exist:
        raise InconsistencyError(
            "comparability biconditional failed: chain %s, sums %s"
            % (comparable, sums_exist)
        )
    if not comparable:
        return _chain_witness(table, parts)
    e0_is_infinit = parts[0] == _mask(table, isotropic_data(table)[1])
    e0_normal = ideals_mod._normal_ideal(table, parts[0])
    sums_onto = _sums_onto(table, parts)
    if not (e0_is_infinit and e0_normal and sums_onto):
        raise InconsistencyError(
            "comparability consequences failed: infinit=%s normal=%s onto=%s"
            % (e0_is_infinit, e0_normal, sums_onto)
        )
    return None


@derived
def labelled_decompositions(table: PartialAdditionTable, n: int) -> Tuple[DecompositionRow, ...]:
    """The n-decompositions of ``table`` as rows of ints, one per labeling
    of ``discrete_labelings`` and in its order, each checked before it is
    returned: the labels are a decomposition, and the comparability test
    holds with its consequences (``_comparability``).  The state labels / n
    gives the labels back, with nothing to check: with g = gcd(n, labels),
    its lowest terms are (labels / g) / (n / g), whose denominator divides
    n, and the numerators times n / (n / g) = g are the labels.

    That the labels are a decomposition is certified once per block factor,
    not once per row (``states._labelings``): every row is onto {0..n},
    its labels lie in 0..n, and every tuple of the block labelings that the
    rows take is additive (``states._star_additive``), so every row passes
    ``_check_labels`` and its part masks are the sums of its factors'
    masks.  A refused certificate leaves each row to ``_check_labels``, so
    the first row that breaks a condition raises that condition's message.

    A row is (labels, part masks, witness): the label of every element,
    part E_i as a bitmask over element indices, and the index pair of the
    chain's witness, or None when the decomposition is comparable.  Rows
    hold ints only, so the cyclic collector stops tracking them.  They are
    found once per table and n, and the public functions of this module,
    the suite and ``pea decompose`` all read them."""
    found, masks, sound = states_mod._checked_labelings(table, n)
    rows = []
    for labels, parts in zip(found, masks):
        if not sound:
            _check_labels(table, labels, n)
        rows.append((labels, parts, _comparability(table, labels, parts)))
    return tuple(rows)


def find_decompositions(table: PartialAdditionTable, n: int) -> List[Decomposition]:
    """All n-decompositions, in labeling order."""
    return [_decomposition(table, labels, parts)
            for labels, parts, _ in labelled_decompositions(table, n)]


def decomposition_state_bijection(table: PartialAdditionTable, n: int):
    """The bijection D_n(E) <-> S_n(E): each decomposition paired with its
    induced state.  The pair is mutually inverse by construction: the
    state is the row's labels over n and the decomposition the parts of the
    same labels, E_i = {x : s(x) = i/n}, so the labels n * s(x) of the state
    give the decomposition back, and the parts of a decomposition give back
    the labels, hence the state."""
    return [(_decomposition(table, labels, parts),
             states_mod.StateVector._from_additive(table, labels, n))
            for labels, parts, _ in labelled_decompositions(table, n)]


@dataclass(frozen=True)
class ComparabilityReport:
    comparable: bool
    sums_exist: bool
    witness: Optional[Tuple[str, ...]]
    e0_is_infinit: Optional[bool] = None
    e0_normal: Optional[bool] = None
    sums_onto: Optional[bool] = None
    no_high_sums: Optional[bool] = None
    sampled: bool = False
    samples: int = 0


def check_comparability(table: PartialAdditionTable, D: Decomposition):
    """Comparability check of a decomposition of a finite table, by
    ``_comparability``: the chain E_0 <= ... <= E_n holds exactly when
    every sum E_i + E_j with i + j < n exists, and then its consequences
    hold.  Symbolic algebras are sampled by
    ``SymbolicPea.check_comparability_sampled`` instead.
    """
    _require_table(table, "check_comparability", "SymbolicPea.check_comparability_sampled")
    labels, parts = _validated(table, D)
    witness = _comparability(table, labels, parts)
    if witness is not None:
        return ComparabilityReport(False, False, tuple(map(table.elements.__getitem__, witness)))
    return ComparabilityReport(True, True, None, True, True, True, True)


@dataclass(frozen=True)
class NPerfectCertificate:
    decomposition: Optional[Decomposition]
    maximal_ideals: Tuple[Tuple[str, ...], ...]
    reason: Optional[str] = None


def is_n_perfect(table: PartialAdditionTable, n: int):
    """Literal n-perfectness: some n-decomposition has all sums E_i + E_j
    defined for i+j < n and E_0 equal to the unique maximal ideal."""
    maximal = tuple(
        tuple(i.sorted_ids())
        for i in ideals_mod.enumerate_ideals(table)
        if i.maximal
    )
    rows = labelled_decompositions(table, n)
    if not rows:
        return False, NPerfectCertificate(None, maximal, "no n-decomposition")
    if len(maximal) == 1:
        top = _mask(table, maximal[0])
        # a row has all its low sums exactly when it is comparable
        for labels, parts, witness in rows:
            if witness is None and parts[0] == top:
                return True, NPerfectCertificate(_decomposition(table, labels, parts), maximal)
    return False, NPerfectCertificate(
        None, maximal, "no decomposition satisfies the sum and ideal conditions"
    )


def check_condition_e(table: PartialAdditionTable, D: Decomposition) -> bool:
    """Per-part directedness, both directions."""
    parts = _part_masks(table, D)
    order = induced_order(table)
    for part in parts:
        for x in _bits(part):
            for y in _bits(part):
                if not order.up[x] & order.up[y] & part:
                    return False
                if not order.down[x] & order.down[y] & part:
                    return False
    return True


@dataclass(frozen=True)
class ChainReport:
    ok: bool
    refusal: Optional[str] = None
    c: Optional[str] = None
    chain: Optional[Tuple[str, ...]] = None
    quotient_is_chain: Optional[bool] = None


def canonical_chain_report(table: PartialAdditionTable, n: int) -> ChainReport:
    """For an n-perfect table with condition (e), certify the collapse
    E = {0, c, ..., nc} and that the quotient by E_0 is the n-chain.

    Finiteness supplies the descending-chain condition, so once the
    hypotheses hold the certificate must succeed; any internal failure is an
    inconsistency, while failed hypotheses yield a refusal."""
    perfect, cert = is_n_perfect(table, n)
    if not perfect:
        return ChainReport(False, refusal="not %d-perfect: %s" % (n, cert.reason))
    D = cert.decomposition
    if not check_condition_e(table, D):
        return ChainReport(False, refusal="condition (e) fails")
    order = induced_order(table)

    def least_of(part):
        cands = [x for x in part if all(order.le(x, y) for y in part)]
        return cands[0] if len(cands) == 1 else None

    c = least_of(D.parts[1])
    if c is None:
        raise InconsistencyError("E_1 has no least element despite condition (e)")
    multiples = [table.zero]
    cur = table.zero
    for _ in range(n):
        cur = table.add(cur, c)
        if cur is None:
            raise InconsistencyError("ic undefined while building the chain")
        multiples.append(cur)
    for i in range(n + 1):
        part = D.parts[i]
        ic = multiples[i]
        if ic not in part or not all(order.le(ic, y) for y in part):
            raise InconsistencyError("%d*c is not least in E_%d" % (i, i))
        minus, tilde = complements(table, ic)
        if minus != tilde:
            raise InconsistencyError("(ic)~ != (ic)- at i=%d" % (i,))
        top = D.parts[n - i]
        if not all(order.le(y, tilde) for y in top):
            raise InconsistencyError("(ic)~ not greatest in E_%d" % (n - i,))
        interval = {
            e
            for e in table.elements
            if order.le(multiples[i], e)
            and order.le(e, complements(table, multiples[n - i])[1])
        }
        if interval != set(part):
            raise InconsistencyError("E_%d is not the interval [ic, ((n-i)c)~]" % (i,))
    if set(multiples) != set(table.elements):
        raise InconsistencyError("E != {0, c, ..., nc}")

    from .constructions import chain_table
    from .corpus import are_isomorphic

    q, _, _ = ideals_mod.quotient(table, D.parts[0])
    quotient_is_chain = are_isomorphic(q, chain_table(n))
    if not quotient_is_chain:
        raise InconsistencyError("quotient by E_0 is not the %d-chain" % (n,))
    return ChainReport(True, c=c, chain=tuple(multiples), quotient_is_chain=True)
