"""Exhaustive theorem-verification harness over the group catalog.

Each classification claim is checked per vertex convention and produces a
TheoremReport. "Only if" directions are catalog-relative: the catalog does
not enumerate all groups of a given order, and the reports say so.

Convention discrepancies (a claim failing under Strict but holding under
Punctured, i.e. the definition's ambiguity rather than a bug) are reported
separately from counterexamples and never flip a verdict. Groups whose
vertex set is empty under a convention are noted as vacuous and excluded
from both lists.

Facts come first: the claims read a FactsTable, which builds each group
once, reads GP(G)'s components off the prime-subgroup incidence in batched
numpy passes (_graph_facts), builds GP(G) only where planarity needs it,
and keeps only GroupFacts records of small values. Each claim is a census
plus a judge over those records, run by one evaluator, _claim.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .catalog import GroupSpec, build, catalog_groups, parse_spec
from .groups import FiniteGroup, is_prime, prime_factors
from .planarity import is_planar
from .powergraph import VertexConvention, generalized_power_graph, vertex_index

VERDICT_CONFIRMED = "Confirmed"
VERDICT_COUNTEREXAMPLES = "CounterexamplesFound"
VERDICT_NOT_APPLICABLE = "NotApplicable"

DEFAULT_MAX_ORDER = 64
DEFAULT_CONVENTIONS = (VertexConvention.STRICT, VertexConvention.PUNCTURED)

PRUFER_SHADOW_CAP = 4096

_IDENTITY_BEARING = (VertexConvention.FULL, VertexConvention.STRICT_WITH_IDENTITY)


@dataclass(frozen=True)
class Finding:
    group: str      # serialized GroupSpec
    observed: str
    expected: str

    def to_dict(self) -> dict:
        return {"group": self.group, "observed": self.observed, "expected": self.expected}


@dataclass
class TheoremReport:
    theorem: str
    convention: str
    census_groups: int
    max_order: int
    verdict: str
    catalog_relative: bool = False
    counterexamples: list[Finding] = field(default_factory=list)
    discrepancies: list[Finding] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    runtime_ms: float = 0.0  # console-only; excluded from canonical JSON

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "convention": self.convention,
            "census": {"groups": self.census_groups, "max_order": self.max_order},
            "verdict": self.verdict,
            "catalog_relative": self.catalog_relative,
            "counterexamples": [f.to_dict() for f in self.counterexamples],
            "discrepancies": [f.to_dict() for f in self.discrepancies],
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class VerifyConfig:
    max_order: int = DEFAULT_MAX_ORDER
    conventions: tuple[VertexConvention, ...] = DEFAULT_CONVENTIONS
    dedupe: bool = True


# ---------------------------------------------------------------------------
# Facts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupFacts:
    """What the claims read about one group and its GP(G) under one convention."""

    # group invariants
    order: int
    cyclic: bool
    p: int | None                       # the prime if |G| = p^k, else None
    exponent: int
    generalized_quaternion: bool
    d8: bool
    abelian_planar_family: bool
    subgroups_of_order_p: int | None     # counted for p-groups only
    # GP(G) under the convention
    v: int
    complete: bool
    component_sizes: tuple[int, ...]    # ordered by least vertex
    components_complete: bool
    planar: bool
    k5_witness: tuple[int, ...] | None  # five elements of one C_P of 5 or more vertices


def _group_invariants(group: FiniteGroup) -> dict:
    """The group-level fields of GroupFacts."""
    n, p, exponent = group.n, group.p_group_prime(), group.exponent()
    cyclic = int(group.orders.max()) == n
    involutions = int((group.orders == 2).sum())
    subgroups = None
    if p is not None:
        # A p-group's incidence has one column, p's, and each subgroup of
        # order p is one id in it; id -1 counts at 0.
        ids = group.prime_subgroup_incidence()[:, 0]
        subgroups = int(np.count_nonzero(np.bincount(ids + 1)[1:]))
    return dict(
        order=n,
        cyclic=cyclic,
        p=p,
        exponent=exponent,
        # a non-abelian 2-group (order >= 8) with a unique involution
        generalized_quaternion=p == 2 and n >= 8 and involutions == 1 and not group.is_abelian,
        d8=n == 8 and involutions == 5 and not group.is_abelian,
        # elementary abelian 2/3/5-group, Z_4 or Z_6
        abelian_planar_family=(p in (2, 3, 5) and exponent == p) or (n in (4, 6) and cyclic),
        subgroups_of_order_p=subgroups,
    )


# FactsTable reads the graph fields of its pending records in one numpy pass
# (_graph_facts) once they hold this many incidence rows, and at the end of a
# fill or a lookup; so the pending rows, not the catalog, size its memory.
FACTS_BATCH_ROWS = 1 << 12


@dataclass
class _Pending:
    """A record waiting for its batch: the incidence rows of one vertex set,
    the (spec, convention) keys it serves, and the group and convention
    that build GP(G) if the cliques leave its planarity open."""

    keys: list[tuple[GroupSpec, VertexConvention]]
    invariants: dict
    rows: np.ndarray
    labels: np.ndarray                  # the element of each row
    group: FiniteGroup
    convention: VertexConvention


class FactsTable:
    """GroupFacts per (spec, convention) for one harness run.

    fill() makes the facts of every catalog group of order >= 2 from one
    catalog pass, which builds each group once; a spec outside the catalog
    is built on its first lookup. The table reads each distinct vertex set
    of the conventions in (requested | {punctured}), as discrepancy checks
    read Punctured, and conventions with one vertex set share one record (a
    non-cyclic group has two).

    The graph fields come from the prime-subgroup incidence, not from GP(G):
    each vertex set's incidence rows wait in a batch that _graph_facts reads
    in one pass. That pass decides planarity, with a K5 witness, wherever
    the cliques C_P do; GP(G) is built only for the vertex sets they leave
    open. A batch keeps each record's rows and its group until the flush.
    """

    def __init__(self, max_order: int, conventions: tuple[VertexConvention, ...],
                 dedupe: bool = True):
        self.max_order = max_order
        self.dedupe = dedupe
        self.conventions = tuple(dict.fromkeys((*conventions, VertexConvention.PUNCTURED)))
        self._facts: dict[tuple[GroupSpec, VertexConvention], GroupFacts] = {}
        self._catalog: list[GroupSpec] | None = None
        self._pending: list[_Pending] = []
        self._pending_rows = 0
        self._primes: dict[int, frozenset[int]] = {}

    def fill(self) -> None:
        """Make the facts of every catalog group now, once per table."""
        if self._catalog is not None:
            return
        self._catalog = []
        for spec, group in catalog_groups(self.max_order, self.dedupe):
            if group.n >= 2:
                self._add(spec, group)
                self._catalog.append(spec)
        self._flush()

    def census(self, pred, targets: tuple[str, ...] = ()) -> list[GroupSpec]:
        """Catalog specs of order 2..max_order satisfying pred, in catalog
        order, then each target spec text that is not among them."""
        self.fill()
        specs = [s for s in self._catalog if pred(s)]
        texts = {s.to_text() for s in specs}
        return specs + [parse_spec(t) for t in targets if t not in texts]

    def primes(self, spec: GroupSpec) -> frozenset[int]:
        """The primes dividing the spec's order; each order is factored once
        per table, so the census predicates of a run share the work."""
        n = spec.order()
        if n not in self._primes:
            self._primes[n] = frozenset(prime_factors(n))
        return self._primes[n]

    def __call__(self, spec: GroupSpec, convention: VertexConvention) -> GroupFacts:
        if (spec, convention) not in self._facts:
            self._add(spec, build(spec))
            self._flush()
        return self._facts[spec, convention]

    def _add(self, spec: GroupSpec, group: FiniteGroup) -> None:
        invariants = _group_invariants(group)
        incidence = group.prime_subgroup_incidence()
        records: dict[tuple[int, bool], _Pending] = {}
        for convention in self.conventions:
            verts = vertex_index(group, convention)
            key = (len(verts), verts[:1].tolist() == [0])  # tells one group's vertex sets apart
            if key not in records:
                records[key] = _Pending([], invariants, incidence[verts], verts, group, convention)
                self._pending.append(records[key])
                self._pending_rows += len(verts)
            records[key].keys.append((spec, convention))
        if self._pending_rows >= FACTS_BATCH_ROWS:
            self._flush()

    def _flush(self) -> None:
        """Read the graph fields of every pending record in one pass."""
        pending, self._pending, self._pending_rows = self._pending, [], 0
        for rec, fields in zip(pending, _graph_facts([(r.rows, r.group.n) for r in pending])):
            if fields["planar"] is None:
                fields["planar"] = is_planar(generalized_power_graph(rec.group, rec.convention)).planar
            if fields["k5_witness"] is not None:
                fields["k5_witness"] = tuple(rec.labels[list(fields["k5_witness"])].tolist())
            record = GroupFacts(**rec.invariants, **fields)
            for key in rec.keys:
                self._facts[key] = record


def _graph_facts(blocks: list[tuple[np.ndarray, int]]) -> list[dict]:
    """v, complete, component_sizes, components_complete, planar and
    k5_witness of GP(G) on each block's vertex set, read off its
    prime-subgroup incidence rows in one numpy pass; the one reading of GP's
    components, for the harness and `gpgraph check` alike.

    A block is (rows, n): the incidence rows of the vertex set, ascending by
    element (FiniteGroup.prime_subgroup_incidence), and the group order,
    which bounds their subgroup ids. GP(G) is the union of the cliques
    C_P = {x : P <= <x>}, so vertices are joined iff they share an id:
    - components come from min-label propagation over ids, ordered by least
      vertex; a row without ids (the identity) is a component of its own;
    - a component is a clique iff one id is held by all of its vertices.
      This is exact: in a clique component, any x has some P <= <x> of
      prime order, whose generator is a vertex in x's component; every other
      vertex is adjacent to it, so it contains P too. Only strict Z_p lacks
      prime-order vertices, and it has no vertices at all;
    - GP(G) is complete iff it has at most one component, and that one is
      a clique;
    - planar is False when some id is held by 5 or more rows, whose C_P
      spans a K5. k5_witness is then the lexicographically least tuple of
      the five first holders of such an id, as row positions in the block,
      and None otherwise;
    - planar is True when every component is a clique: one id spans it, so
      it has at most 4 vertices;
    - planar is None otherwise: the cliques leave it open.
    Ids are offset per block, so blocks never meet.
    """
    sizes = np.array([len(rows) for rows, _ in blocks], dtype=np.int64)
    total = int(sizes.sum())
    width = max([1, *(rows.shape[1] for rows, _ in blocks)])  # order 1 has no columns
    # ids[j, i] is the j-th id of row i, or -1; columns are rows, so that
    # reductions over a row's few ids run along the first axis
    ids = np.full((width, total), -1, dtype=np.int32)
    offsets = np.zeros(len(blocks), dtype=np.int32)
    start = offset = 0
    for b, (rows, n) in enumerate(blocks):
        ids[:rows.shape[1], start:start + len(rows)] = rows.T
        offsets[b] = offset
        start += len(rows)
        offset += n
    held = ids >= 0
    ids += np.where(held, np.repeat(offsets, sizes), 0)
    # dense ids 0..nids-1 from one sort; nids is a sentinel for "no id"
    flat = ids[held]
    by_id = np.argsort(flat, kind="stable")
    new_id = np.ones(len(flat), dtype=bool)
    new_id[1:] = flat[by_id[1:]] != flat[by_id[:-1]]
    starts = np.flatnonzero(new_id)
    nids = len(starts)
    dense = np.empty(len(flat), dtype=np.int32)
    dense[by_id] = np.cumsum(new_id) - 1
    ids[held] = dense
    ids[~held] = nids
    # the rows holding each id, id by id; they ascend, as the sort is stable
    # and an id, a subgroup of order p, lies in p's column only
    holder_rows = np.nonzero(held)[1][by_id]
    # min-label propagation: a row takes the least label of its ids, an id
    # the least label of its rows, then jumps to its label's label
    label = np.arange(nids + 1, dtype=np.int32)
    while True:
        row_label = label[ids].min(axis=0)
        if not nids:
            break
        new = np.minimum.reduceat(row_label[holder_rows], starts)
        new = new[new]
        if np.array_equal(new, label[:nids]):
            break
        label[:nids] = new
    lone = row_label == nids  # a row without ids (the identity) is a component of one
    row_label[lone] = nids + 1 + np.flatnonzero(lone)
    _, first, comp_of_row, comp_sizes = np.unique(row_label, return_index=True, return_inverse=True,
                                                  return_counts=True)
    holders = np.append(np.diff(starts, append=len(flat)), 0)  # rows per id; 0 for the sentinel
    comp_size_of_row = comp_sizes[comp_of_row]
    spans = (holders[ids].max(axis=0) == comp_size_of_row) | lone
    clique = np.bincount(comp_of_row, weights=spans, minlength=len(comp_sizes)) > 0
    by_least = np.argsort(first)
    block_of_row = np.repeat(np.arange(len(blocks)), sizes)
    block_of_comp = block_of_row[first[by_least]]
    comps_per_block = np.bincount(block_of_comp, minlength=len(blocks)).tolist()
    broken_per_block = np.bincount(block_of_comp, weights=~clique[by_least], minlength=len(blocks)).tolist()
    ordered_sizes = comp_sizes[by_least].tolist()
    # the five first holders of each id held 5 or more times, sorted
    # lexicographically, which sorts them by block first
    five = holder_rows[starts[holders[:nids] >= 5, None] + np.arange(5)]
    five = five[np.lexsort(five.T[::-1])]
    with_k5, least = np.unique(block_of_row[five[:, 0]], return_index=True)
    local = five[least] - (np.cumsum(sizes) - sizes)[with_k5, None]
    witnesses = dict(zip(with_k5.tolist(), map(tuple, local.tolist())))
    out, c = [], 0
    for b, (v, ncomps, broken) in enumerate(zip(sizes.tolist(), comps_per_block, broken_per_block)):
        witness = witnesses.get(b)
        out.append(dict(
            v=v,
            complete=ncomps <= 1 and not broken,
            component_sizes=tuple(ordered_sizes[c:c + ncomps]),
            components_complete=not broken,
            planar=False if witness else (None if broken else True),
            k5_witness=witness,
        ))
        c += ncomps
    return out


# ---------------------------------------------------------------------------
# The claim evaluator
# ---------------------------------------------------------------------------

_CATALOG_RELATIVE_NOTE = "'only if' direction is catalog-relative: checked against catalog families only"


def _claim(
    theorem: str,
    facts: FactsTable,
    convention: VertexConvention,
    specs: list[GroupSpec],
    judge: Callable[[GroupFacts], Iterable[tuple[str, str]]],
    *,
    skip_vacuous: bool = False,
    conventional: bool = False,
    notes: Iterable[str] = (),
    catalog_relative: bool = False,
    max_order: int | None = None,
) -> TheoremReport:
    """Judge each spec's facts under the convention and report.

    judge(f) yields an (observed, expected) pair for each way the record f
    breaks the claim, and nothing when f satisfies it.
    skip_vacuous: a group with an empty vertex set is noted and not judged.
    conventional: a break is a convention discrepancy, not a counterexample,
    when the Punctured record of the same group satisfies the claim.
    """
    t0 = time.perf_counter()
    counterexamples, discrepancies, vacuous = [], [], []
    for spec in specs:
        f = facts(spec, convention)
        if skip_vacuous and f.v == 0:
            vacuous.append(spec.to_text())
            continue
        breaks = [Finding(spec.to_text(), observed, expected) for observed, expected in judge(f)]
        if breaks and conventional and not any(judge(facts(spec, VertexConvention.PUNCTURED))):
            discrepancies.extend(breaks)
        else:
            counterexamples.extend(breaks)
    notes = ([_CATALOG_RELATIVE_NOTE] if catalog_relative else []) + list(notes)
    if vacuous:
        notes.append(
            f"vacuous under {convention.value}: empty vertex set for {len(vacuous)} "
            f"group(s) ({', '.join(vacuous)}); excluded from verdicts"
        )
    if not specs:
        verdict = VERDICT_NOT_APPLICABLE
    elif counterexamples:
        verdict = VERDICT_COUNTEREXAMPLES
    else:
        verdict = VERDICT_CONFIRMED
    return TheoremReport(
        theorem=theorem,
        convention=convention.value,
        census_groups=len(specs),
        max_order=facts.max_order if max_order is None else max_order,
        verdict=verdict,
        catalog_relative=catalog_relative,
        counterexamples=counterexamples,
        discrepancies=discrepancies,
        notes=notes,
        runtime_ms=(time.perf_counter() - t0) * 1000.0,
    )


def _iff(prop: str, observed: bool, expected: bool, reason_yes: str, reason_no: str):
    """The break of `prop iff condition` when observed differs from expected."""
    if observed != expected:
        reason = reason_yes if expected else reason_no
        yield f"{prop}={observed}", f"{prop}={expected} ({reason})"


# ---------------------------------------------------------------------------
# The claims
# ---------------------------------------------------------------------------


def check_completeness_abelian(facts: FactsTable, convention: VertexConvention) -> TheoremReport:
    """T2.2, abelian G of order 2..N: GP complete iff G is cyclic of prime-power order."""

    def expected(f):
        return f.cyclic and f.p is not None

    specs = facts.census(lambda s: s.is_abelian_family)
    report = _claim("T2.2", facts, convention, specs,
                    lambda f: _iff("GP complete", f.complete, expected(f),
                                   "cyclic of prime-power order", "not cyclic of prime-power order"))
    broke_if = sum(expected(f) and not f.complete for f in (facts(s, convention) for s in specs))
    broke_only_if = len(report.counterexamples) - broke_if
    if broke_if:
        report.notes.append(
            f"'if' direction broke for {broke_if} group(s): cyclic prime-power "
            "groups whose GP is not complete under this convention"
        )
    if broke_only_if:
        report.notes.append(f"'only if' direction broke for {broke_only_if} group(s)")
    return report


def check_completeness_nonabelian(facts: FactsTable, convention: VertexConvention) -> TheoremReport:
    """T3.1, non-abelian G of order 2..N: GP complete iff G is generalized quaternion."""
    return _claim(
        "T3.1", facts, convention, facts.census(lambda s: not s.is_abelian_family),
        lambda f: _iff("GP complete", f.complete, f.generalized_quaternion,
                       "generalized quaternion", "not generalized quaternion"),
        catalog_relative=True,
    )


def check_pgroup_components(facts: FactsTable, convention: VertexConvention) -> TheoremReport:
    """T3.4, p-groups: every GP component complete; #components = #subgroups
    of order p. NotApplicable under the identity-bearing conventions."""
    if convention in _IDENTITY_BEARING:
        return _claim("T3.4", facts, convention, [], lambda f: (), notes=[
            f"T3.4 counts components; under {convention.value} the isolated "
            "identity shifts the count by one (reported, not silently adjusted)"])

    def judge(f):
        if not f.components_complete:
            yield "some GP component is not complete", "every component complete"
        ncomps = len(f.component_sizes)
        if ncomps != f.subgroups_of_order_p:
            yield (f"{ncomps} GP components",
                   f"{f.subgroups_of_order_p} components (= subgroups of order p)")

    return _claim("T3.4", facts, convention, facts.census(lambda s: len(facts.primes(s)) == 1),
                  judge, skip_vacuous=True)


def check_planarity_prime_lemmas(
    facts: FactsTable, convention: VertexConvention
) -> list[TheoremReport]:
    """Three reports: four-prime orders (L4.1), prime divisors >= 7 (L4.2),
    and mixed {2,5} / {3,5} abelian groups (L4.3); all expect non-planar GP."""

    def judge(f):
        if f.planar:
            yield "GP planar", "GP not planar"

    def lemma(theorem, specs, notes=()):
        return _claim(theorem, facts, convention, specs, judge,
                      skip_vacuous=True, conventional=True, notes=notes)

    # L4.1: abelian order divisible by >= 4 distinct primes; Z_210 targeted
    # (the smallest such order is 210, beyond any realistic bound).
    specs = facts.census(lambda s: s.is_abelian_family and len(facts.primes(s)) >= 4, ("cyclic:210",))
    l41 = lemma("L4.1", specs, [
        f"K5 witness for {s.to_text()}: elements {list(w)}"
        for s in specs if (w := facts(s, convention).k5_witness) is not None
    ])

    # L4.2: any group whose order has a prime divisor >= 7 (stated for all
    # finite groups); Z_14, Z_21 and D_14 targeted.
    l42 = lemma("L4.2", facts.census(lambda s: max(facts.primes(s)) >= 7,
                                     ("cyclic:14", "cyclic:21", "dihedral:7")))

    # L4.3: abelian {2,5}- and {3,5}-groups of mixed order; Z_10, Z_15 targeted.
    l43 = lemma("L4.3", facts.census(
        lambda s: s.is_abelian_family and facts.primes(s) in ({2, 5}, {3, 5}),
        ("cyclic:10", "cyclic:15")))
    return [l41, l42, l43]


def check_abelian_planarity_classification(
    facts: FactsTable, convention: VertexConvention
) -> TheoremReport:
    """T4.4, abelian G: GP planar iff G is elementary abelian (p in {2,3,5}), Z_4 or Z_6."""
    report = _claim(
        "T4.4", facts, convention, facts.census(lambda s: s.is_abelian_family),
        lambda f: _iff("GP planar", f.planar, f.abelian_planar_family,
                       "in the planar families", "outside the planar families"),
        skip_vacuous=True, conventional=True,
    )
    if report.discrepancies:
        report.notes.append(
            f"{len(report.discrepancies)} group(s) planar under {convention.value} but "
            "outside the classification; the Punctured reading agrees with it"
        )
    return report


def check_nonabelian_pgroup_planarity(
    facts: FactsTable, convention: VertexConvention
) -> list[TheoremReport]:
    """T5.1: planar non-abelian p-groups (p in {3,5}) have exponent p and split
    into (p^n - 1)/(p - 1) copies of K_{p-1}. T5.2: among non-abelian 2-groups,
    only D_8 has planar GP."""

    def judge_t51(f):
        if not f.planar:
            return
        p = f.p
        expected = "exponent p and (p^n-1)/(p-1) components, each K_{p-1}"
        if f.exponent != p:
            yield f"exponent {f.exponent} != {p}", expected
        ncomps = len(f.component_sizes)
        expected_count = (f.order - 1) // (p - 1)
        if ncomps != expected_count:
            yield f"{ncomps} components != (p^n-1)/(p-1) = {expected_count}", expected
        if any(size != p - 1 for size in f.component_sizes):
            yield f"some component size != {p - 1}", expected
        if not f.components_complete:
            yield "some component is not complete", expected

    specs = facts.census(lambda s: not s.is_abelian_family and facts.primes(s) in ({3}, {5}))
    planar = sum(facts(s, convention).planar for s in specs)
    t51 = _claim("T5.1", facts, convention, specs, judge_t51,
                 notes=[f"{planar} of {len(specs)} group(s) have planar GP"] if specs else [])
    t52 = _claim(
        "T5.2", facts, convention,
        facts.census(lambda s: not s.is_abelian_family and facts.primes(s) == {2}),
        lambda f: _iff("GP planar", f.planar, f.d8, "isomorphic to D_8", "not isomorphic to D_8"),
        catalog_relative=True,
    )
    return [t51, t52]


def _shadow_specs(p: int, depth: int) -> list[GroupSpec]:
    """Z_{p^k} for k = 1..depth; ValueError unless p is prime and p^depth is
    within PRUFER_SHADOW_CAP."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p ** depth > PRUFER_SHADOW_CAP:
        raise ValueError(f"p^depth = {p ** depth} exceeds the {PRUFER_SHADOW_CAP} cap")
    return [parse_spec(f"cyclic:{p ** k}") for k in range(1, depth + 1)]


def check_prufer_shadow(
    facts: FactsTable, convention: VertexConvention, p: int, depth: int
) -> TheoremReport:
    """PruferShadow: GP(Z_{p^k}) is complete for k = 1..depth (finite shadow of Z_{p^inf})."""
    specs = _shadow_specs(p, depth)

    def judge(f):
        if not f.complete:
            yield "GP not complete", "GP complete (cyclic p-group)"

    degenerate = [
        f"degenerate: {s.to_text()} has an empty vertex set under "
        f"{convention.value} (vacuously complete)"
        for s in specs if facts(s, convention).v == 0
    ]
    return _claim("PruferShadow", facts, convention, specs, judge,
                  notes=degenerate, max_order=p ** depth)


# ---------------------------------------------------------------------------
# Harness driver
# ---------------------------------------------------------------------------


def run_all(config: VerifyConfig = VerifyConfig()) -> list[TheoremReport]:
    """All checks for each requested convention, deterministically ordered."""
    if config.max_order < 2:
        raise ValueError("max_order must be >= 2")
    conventions = tuple(dict.fromkeys(config.conventions))  # first occurrence wins
    if not conventions:
        raise ValueError("at least one convention is required")
    shadow_depth = max(1, int(math.log2(config.max_order)))
    _shadow_specs(2, shadow_depth)  # fail on the cap before enumerating anything
    # Build the catalog and its facts up front, so a check's runtime is its
    # predicate time only.
    facts = FactsTable(config.max_order, conventions, config.dedupe)
    facts.fill()
    reports: list[TheoremReport] = []
    for convention in conventions:
        reports.append(check_completeness_abelian(facts, convention))
        reports.append(check_completeness_nonabelian(facts, convention))
        reports.append(check_pgroup_components(facts, convention))
        reports.extend(check_planarity_prime_lemmas(facts, convention))
        reports.append(check_abelian_planarity_classification(facts, convention))
        reports.extend(check_nonabelian_pgroup_planarity(facts, convention))
        reports.append(check_prufer_shadow(facts, convention, 2, shadow_depth))
    reports.sort(key=lambda r: (r.theorem, r.convention))
    return reports


def reports_to_json(reports: list[TheoremReport]) -> str:
    """Canonical JSON: deterministic (wall-clock runtime is deliberately
    excluded)."""
    return json.dumps([r.to_dict() for r in reports], indent=2) + "\n"


def punctured_counterexample_free(reports: list[TheoremReport]) -> bool:
    """Exit-code predicate: no CounterexamplesFound under Punctured."""
    return all(
        r.verdict != VERDICT_COUNTEREXAMPLES
        for r in reports
        if r.convention == VertexConvention.PUNCTURED.value
    )


def format_report_line(r: TheoremReport) -> str:
    extra = ""
    if r.discrepancies:
        extra += f" discrepancies={len(r.discrepancies)}"
    if r.counterexamples:
        extra += f" counterexamples={len(r.counterexamples)}"
    return (
        f"[{r.verdict:>21}] {r.theorem:<12} convention={r.convention:<10} "
        f"groups={r.census_groups:<4}{extra} ({r.runtime_ms:.0f} ms)"
    )
