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
once and GP(G) once per convention, and keeps only a GroupFacts record of
small values. Each claim is a predicate over those records.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

from .catalog import GroupSpec, build, catalog_up_to, parse_spec
from .groups import FiniteGroup, is_prime, prime_factors
from .planarity import is_planar
from .powergraph import VertexConvention, generalized_power_graph

VERDICT_CONFIRMED = "Confirmed"
VERDICT_COUNTEREXAMPLES = "CounterexamplesFound"
VERDICT_NOT_APPLICABLE = "NotApplicable"

THEOREM_IDS = (
    "T2.2", "T3.1", "T3.4", "L4.1", "L4.2", "L4.3", "T4.4", "T5.1", "T5.2",
    "PruferShadow",
)

DEFAULT_MAX_ORDER = 64
DEFAULT_CONVENTIONS = (VertexConvention.STRICT, VertexConvention.PUNCTURED)

PRUFER_SHADOW_CAP = 4096

_IDENTITY_BEARING = (VertexConvention.FULL, VertexConvention.STRICT_WITH_IDENTITY)


class ConventionUnsupported(ValueError):
    def __init__(self, theorem: str, convention: VertexConvention):
        super().__init__(
            f"{theorem} counts components; under {convention.value} the isolated "
            "identity shifts the count by one (reported, not silently adjusted)"
        )


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
    k5_witness: tuple[int, ...] | None  # element labels; probed for L4.1 specs only


def _group_invariants(group: FiniteGroup) -> dict:
    """The group-level fields of GroupFacts."""
    n, p, exponent = group.n, group.p_group_prime(), group.exponent()
    cyclic = int(group.orders.max()) == n
    involutions = int((group.orders == 2).sum())
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
        subgroups_of_order_p=None if p is None else len(group.subgroups_of_order_p(p)),
    )


def _spec_primes(spec: GroupSpec) -> set[int]:
    return set(prime_factors(spec.order()))


def _is_l41_spec(spec: GroupSpec) -> bool:
    """Abelian with at least four distinct prime divisors (L4.1's census)."""
    return spec.is_abelian_family and len(_spec_primes(spec)) >= 4


class FactsTable:
    """GroupFacts per (spec, convention) for one harness run.

    fill() or the first lookup of a spec builds its group once and GP(G)
    once for each convention in (requested | {punctured}); Punctured is always made
    because discrepancy checks read it. Neither the group nor the graphs
    are kept.
    """

    def __init__(self, max_order: int, conventions: tuple[VertexConvention, ...],
                 dedupe: bool = True):
        self.max_order = max_order
        self.dedupe = dedupe
        self.conventions = tuple(dict.fromkeys((*conventions, VertexConvention.PUNCTURED)))
        self._facts: dict[tuple[GroupSpec, VertexConvention], GroupFacts] = {}

    def fill(self) -> None:
        """Make the facts of every catalog group now, not on first lookup."""
        for spec in self.census(lambda s: True):
            self(spec, self.conventions[0])

    def census(self, pred) -> list[GroupSpec]:
        """Catalog specs of order 2..max_order satisfying pred, in catalog order."""
        return [
            s for s in catalog_up_to(self.max_order, self.dedupe)
            if 2 <= s.order() <= self.max_order and pred(s)
        ]

    def __call__(self, spec: GroupSpec, convention: VertexConvention) -> GroupFacts:
        if (spec, convention) not in self._facts:
            self._add(spec)
        return self._facts[spec, convention]

    def _add(self, spec: GroupSpec) -> None:
        group = build(spec)
        invariants = _group_invariants(group)
        probe = _is_l41_spec(spec)
        for convention in self.conventions:
            graph = generalized_power_graph(group, convention)
            comps = graph.connected_components()
            verdict = is_planar(graph, find_k5_witness=probe)
            witness = None
            if verdict.witness is not None:
                witness = tuple(int(graph.labels[x]) for x in verdict.witness)
            self._facts[spec, convention] = GroupFacts(
                **invariants,
                v=graph.v,
                complete=graph.is_complete(),
                component_sizes=tuple(len(c) for c in comps),
                components_complete=graph.components_complete(comps),
                planar=verdict.planar,
                k5_witness=witness,
            )


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _with_targets(specs: list[GroupSpec], targets: list[GroupSpec]) -> list[GroupSpec]:
    seen = {s.to_text() for s in specs}
    out = list(specs)
    for t in targets:
        if t.to_text() not in seen:
            seen.add(t.to_text())
            out.append(t)
    return out


def _vacuous_note(convention: VertexConvention, vacuous: list[GroupSpec]) -> list[str]:
    if not vacuous:
        return []
    names = ", ".join(s.to_text() for s in vacuous)
    return [
        f"vacuous under {convention.value}: empty vertex set for {len(vacuous)} "
        f"group(s) ({names}); excluded from verdicts"
    ]


def _divergence_is_conventional(
    facts: FactsTable, spec: GroupSpec, convention: VertexConvention, expected_planar: bool
) -> bool:
    """A planarity mismatch is a convention discrepancy (not a counterexample)
    when the Punctured reading of the same group satisfies the claim."""
    if convention is VertexConvention.PUNCTURED:
        return False
    return facts(spec, VertexConvention.PUNCTURED).planar == expected_planar


def _make_report(
    theorem: str,
    convention: VertexConvention,
    census: int,
    max_order: int,
    counterexamples: list[Finding],
    discrepancies: list[Finding],
    notes: list[str],
    t0: float,
    catalog_relative: bool = False,
) -> TheoremReport:
    if census == 0:
        verdict = VERDICT_NOT_APPLICABLE
    elif counterexamples:
        verdict = VERDICT_COUNTEREXAMPLES
    else:
        verdict = VERDICT_CONFIRMED
    return TheoremReport(
        theorem=theorem,
        convention=convention.value,
        census_groups=census,
        max_order=max_order,
        verdict=verdict,
        catalog_relative=catalog_relative,
        counterexamples=counterexamples,
        discrepancies=discrepancies,
        notes=notes,
        runtime_ms=(time.perf_counter() - t0) * 1000.0,
    )


# ---------------------------------------------------------------------------
# T2.2: torsion abelian completeness (finite case)
# ---------------------------------------------------------------------------


def check_completeness_abelian(facts: FactsTable, convention: VertexConvention) -> TheoremReport:
    """Abelian G of order 2..N: GP complete iff G is cyclic of prime-power order."""
    t0 = time.perf_counter()
    specs = facts.census(lambda s: s.is_abelian_family)
    counterexamples = []
    broke_if = broke_only_if = 0
    for spec in specs:
        f = facts(spec, convention)
        expected = f.cyclic and f.p is not None
        if f.complete != expected:
            reason = "cyclic of prime-power order" if expected else "not cyclic of prime-power order"
            counterexamples.append(
                Finding(spec.to_text(), f"GP complete={f.complete}", f"GP complete={expected} ({reason})")
            )
            if expected:
                broke_if += 1
            else:
                broke_only_if += 1
    notes = []
    if broke_if:
        notes.append(
            f"'if' direction broke for {broke_if} group(s): cyclic prime-power "
            "groups whose GP is not complete under this convention"
        )
    if broke_only_if:
        notes.append(f"'only if' direction broke for {broke_only_if} group(s)")
    return _make_report("T2.2", convention, len(specs), facts.max_order,
                        counterexamples, [], notes, t0)


# ---------------------------------------------------------------------------
# T3.1: finite non-abelian completeness
# ---------------------------------------------------------------------------


def check_completeness_nonabelian(facts: FactsTable, convention: VertexConvention) -> TheoremReport:
    """Non-abelian G of order 2..N: GP complete iff G is generalized quaternion."""
    t0 = time.perf_counter()
    specs = facts.census(lambda s: not s.is_abelian_family)
    counterexamples = []
    for spec in specs:
        f = facts(spec, convention)
        expected = f.generalized_quaternion
        if f.complete != expected:
            reason = "generalized quaternion" if expected else "not generalized quaternion"
            counterexamples.append(
                Finding(spec.to_text(), f"GP complete={f.complete}", f"GP complete={expected} ({reason})")
            )
    notes = ["'only if' direction is catalog-relative: checked against catalog families only"]
    return _make_report("T3.1", convention, len(specs), facts.max_order,
                        counterexamples, [], notes, t0, catalog_relative=True)


# ---------------------------------------------------------------------------
# T3.4: p-group component structure
# ---------------------------------------------------------------------------


def check_pgroup_components(facts: FactsTable, convention: VertexConvention) -> TheoremReport:
    """p-groups: every GP component complete; #components = #subgroups of order p."""
    if convention in _IDENTITY_BEARING:
        raise ConventionUnsupported("T3.4", convention)
    t0 = time.perf_counter()
    specs = facts.census(lambda s: len(_spec_primes(s)) == 1)
    counterexamples = []
    vacuous = []
    for spec in specs:
        f = facts(spec, convention)
        if f.v == 0:
            vacuous.append(spec)
            continue
        if not f.components_complete:
            counterexamples.append(
                Finding(spec.to_text(), "some GP component is not complete",
                        "every component complete")
            )
        ncomps = len(f.component_sizes)
        if ncomps != f.subgroups_of_order_p:
            counterexamples.append(
                Finding(spec.to_text(), f"{ncomps} GP components",
                        f"{f.subgroups_of_order_p} components (= subgroups of order p)")
            )
    notes = _vacuous_note(convention, vacuous)
    return _make_report("T3.4", convention, len(specs), facts.max_order,
                        counterexamples, [], notes, t0)


# ---------------------------------------------------------------------------
# L4.1 / L4.2 / L4.3: prime-divisor planarity lemmas
# ---------------------------------------------------------------------------


def check_planarity_prime_lemmas(
    facts: FactsTable, convention: VertexConvention
) -> list[TheoremReport]:
    """Three reports: four-prime orders (L4.1), prime divisors >= 7 (L4.2),
    and mixed {2,5} / {3,5} abelian groups (L4.3); all expect non-planar GP."""

    def run_lemma(theorem: str, specs: list[GroupSpec], t0: float,
                  witness_note: bool = False) -> TheoremReport:
        counterexamples = []
        discrepancies = []
        vacuous = []
        notes = []
        for spec in specs:
            f = facts(spec, convention)
            if f.v == 0:
                vacuous.append(spec)
                continue
            if witness_note and not f.planar and f.k5_witness is not None:
                notes.append(f"K5 witness for {spec.to_text()}: elements {list(f.k5_witness)}")
            if f.planar:
                finding = Finding(spec.to_text(), "GP planar", "GP not planar")
                if _divergence_is_conventional(facts, spec, convention, expected_planar=False):
                    discrepancies.append(finding)
                else:
                    counterexamples.append(finding)
        notes.extend(_vacuous_note(convention, vacuous))
        return _make_report(theorem, convention, len(specs), facts.max_order,
                            counterexamples, discrepancies, notes, t0)

    # L4.1: abelian order divisible by >= 4 distinct primes; Z_210 targeted
    # (the smallest such order is 210, beyond any realistic bound).
    t0 = time.perf_counter()
    specs = _with_targets(facts.census(_is_l41_spec), [parse_spec("cyclic:210")])
    l41 = run_lemma("L4.1", specs, t0, witness_note=True)

    # L4.2: any group whose order has a prime divisor >= 7 (stated for all
    # finite groups); Z_14, Z_21 and D_14 targeted.
    t0 = time.perf_counter()
    specs = _with_targets(
        facts.census(lambda s: max(_spec_primes(s)) >= 7),
        [parse_spec("cyclic:14"), parse_spec("cyclic:21"), parse_spec("dihedral:7")],
    )
    l42 = run_lemma("L4.2", specs, t0)

    # L4.3: abelian {2,5}- and {3,5}-groups of mixed order; Z_10, Z_15 targeted.
    t0 = time.perf_counter()
    specs = _with_targets(
        facts.census(lambda s: s.is_abelian_family and _spec_primes(s) in ({2, 5}, {3, 5})),
        [parse_spec("cyclic:10"), parse_spec("cyclic:15")],
    )
    l43 = run_lemma("L4.3", specs, t0)
    return [l41, l42, l43]


# ---------------------------------------------------------------------------
# T4.4: abelian planarity classification
# ---------------------------------------------------------------------------


def check_abelian_planarity_classification(
    facts: FactsTable, convention: VertexConvention
) -> TheoremReport:
    """Abelian G: GP planar iff G is elementary abelian (p in {2,3,5}), Z_4 or Z_6."""
    t0 = time.perf_counter()
    specs = facts.census(lambda s: s.is_abelian_family)
    counterexamples = []
    discrepancies = []
    vacuous = []
    for spec in specs:
        f = facts(spec, convention)
        if f.v == 0:
            vacuous.append(spec)
            continue
        expected = f.abelian_planar_family
        if f.planar != expected:
            reason = "in the planar families" if expected else "outside the planar families"
            finding = Finding(spec.to_text(), f"GP planar={f.planar}",
                              f"GP planar={expected} ({reason})")
            if _divergence_is_conventional(facts, spec, convention, expected_planar=expected):
                discrepancies.append(finding)
            else:
                counterexamples.append(finding)
    notes = _vacuous_note(convention, vacuous)
    if discrepancies:
        notes.append(
            f"{len(discrepancies)} group(s) planar under {convention.value} but "
            "outside the classification; the Punctured reading agrees with it"
        )
    return _make_report("T4.4", convention, len(specs), facts.max_order,
                        counterexamples, discrepancies, notes, t0)


# ---------------------------------------------------------------------------
# T5.1 / T5.2: non-abelian p-group planarity
# ---------------------------------------------------------------------------


def check_nonabelian_pgroup_planarity(
    facts: FactsTable, convention: VertexConvention
) -> list[TheoremReport]:
    """T5.1: planar non-abelian p-groups (p in {3,5}) have exponent p and split
    into (p^n - 1)/(p - 1) copies of K_{p-1}. T5.2: among non-abelian 2-groups,
    only D_8 has planar GP."""

    def pgroup_prime(s: GroupSpec) -> int | None:
        primes = _spec_primes(s)
        return next(iter(primes)) if len(primes) == 1 else None

    # T5.1
    t0 = time.perf_counter()
    specs = facts.census(lambda s: not s.is_abelian_family and pgroup_prime(s) in (3, 5))
    counterexamples = []
    planar_count = 0
    for spec in specs:
        f = facts(spec, convention)
        if not f.planar:
            continue
        planar_count += 1
        p = f.p
        problems = []
        if f.exponent != p:
            problems.append(f"exponent {f.exponent} != {p}")
        ncomps = len(f.component_sizes)
        expected_count = (f.order - 1) // (p - 1)
        if ncomps != expected_count:
            problems.append(f"{ncomps} components != (p^n-1)/(p-1) = {expected_count}")
        if any(size != p - 1 for size in f.component_sizes):
            problems.append(f"some component size != {p - 1}")
        if not f.components_complete:
            problems.append("some component is not complete")
        for problem in problems:
            counterexamples.append(
                Finding(spec.to_text(), problem,
                        "exponent p and (p^n-1)/(p-1) components, each K_{p-1}")
            )
    notes = [f"{planar_count} of {len(specs)} group(s) have planar GP"] if specs else []
    t51 = _make_report("T5.1", convention, len(specs), facts.max_order,
                       counterexamples, [], notes, t0)

    # T5.2
    t0 = time.perf_counter()
    specs = facts.census(lambda s: not s.is_abelian_family and pgroup_prime(s) == 2)
    counterexamples = []
    for spec in specs:
        f = facts(spec, convention)
        if f.planar != f.d8:
            reason = "isomorphic to D_8" if f.d8 else "not isomorphic to D_8"
            counterexamples.append(
                Finding(spec.to_text(), f"GP planar={f.planar}",
                        f"GP planar={f.d8} ({reason})")
            )
    notes = ["'only if' direction is catalog-relative: checked against catalog families only"]
    t52 = _make_report("T5.2", convention, len(specs), facts.max_order,
                       counterexamples, [], notes, t0, catalog_relative=True)
    return [t51, t52]


# ---------------------------------------------------------------------------
# PruferShadow: finite truncations of the Pruefer-group completeness claim
# ---------------------------------------------------------------------------


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
    """GP(Z_{p^k}) is complete for k = 1..depth (finite shadow of Z_{p^inf})."""
    specs = _shadow_specs(p, depth)
    t0 = time.perf_counter()
    counterexamples = []
    notes = []
    for spec in specs:
        f = facts(spec, convention)
        if f.v == 0:
            notes.append(
                f"degenerate: {spec.to_text()} has an empty vertex set under "
                f"{convention.value} (vacuously complete)"
            )
        if not f.complete:
            counterexamples.append(
                Finding(spec.to_text(), "GP not complete", "GP complete (cyclic p-group)")
            )
    return _make_report("PruferShadow", convention, len(specs), p ** depth,
                        counterexamples, [], notes, t0)


# ---------------------------------------------------------------------------
# Harness driver
# ---------------------------------------------------------------------------


def run_all(config: VerifyConfig = VerifyConfig()) -> list[TheoremReport]:
    """All checks for each requested convention, deterministically ordered."""
    if config.max_order < 2:
        raise ValueError("max_order must be >= 2")
    shadow_depth = max(1, int(math.log2(config.max_order)))
    _shadow_specs(2, shadow_depth)  # fail on the cap before enumerating anything
    # Build the catalog and its facts up front, so a check's runtime is its
    # predicate time only.
    facts = FactsTable(config.max_order, config.conventions, config.dedupe)
    facts.fill()
    reports: list[TheoremReport] = []
    for convention in config.conventions:
        reports.append(check_completeness_abelian(facts, convention))
        reports.append(check_completeness_nonabelian(facts, convention))
        try:
            reports.append(check_pgroup_components(facts, convention))
        except ConventionUnsupported as exc:
            reports.append(TheoremReport(
                theorem="T3.4",
                convention=convention.value,
                census_groups=0,
                max_order=config.max_order,
                verdict=VERDICT_NOT_APPLICABLE,
                notes=[str(exc)],
            ))
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
