"""Exhaustive theorem-verification harness over the group catalog.

Each classification claim is checked per vertex convention and produces a
TheoremReport. "Only if" directions are catalog-relative: the catalog does
not enumerate all groups of a given order, and the reports say so.

Convention discrepancies (a claim failing under Strict but holding under
Punctured, i.e. the definition's ambiguity rather than a bug) are reported
separately from counterexamples and never flip a verdict. Groups whose
vertex set is empty under a convention are noted as vacuous and excluded
from both lists.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .catalog import GroupSpec, build_cached, catalog_up_to, parse_spec
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
    workers: int = 1
    dedupe: bool = True


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _pmap(fn, items, workers: int) -> list:
    """Order-preserving map, optionally on a thread pool (determinism-safe)."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _is_cyclic(group: FiniteGroup) -> bool:
    return int(group.orders.max()) == group.n


def _is_generalized_quaternion(group: FiniteGroup) -> bool:
    """Non-abelian 2-group with a unique involution (order >= 8)."""
    n = group.n
    return (
        n >= 8
        and n & (n - 1) == 0
        and not group.is_abelian
        and int((group.orders == 2).sum()) == 1
    )


def _is_d8(group: FiniteGroup) -> bool:
    return group.n == 8 and not group.is_abelian and int((group.orders == 2).sum()) == 5


def _in_abelian_planar_families(group: FiniteGroup) -> bool:
    """Member of: elementary abelian 2/3/5-group, Z_4, Z_6."""
    p = group.p_group_prime()
    if p in (2, 3, 5) and group.exponent() == p:
        return True
    return group.n in (4, 6) and _is_cyclic(group)


def _census(max_order: int, dedupe: bool, pred) -> list[GroupSpec]:
    return [
        s for s in catalog_up_to(max_order, dedupe)
        if 2 <= s.order() <= max_order and pred(s)
    ]


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
    spec: GroupSpec, convention: VertexConvention, expected_planar: bool
) -> bool:
    """A planarity mismatch is a convention discrepancy (not a counterexample)
    when the Punctured reading of the same group satisfies the claim."""
    if convention is VertexConvention.PUNCTURED:
        return False
    graph = generalized_power_graph(build_cached(spec), VertexConvention.PUNCTURED)
    return is_planar(graph).planar == expected_planar


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


def check_completeness_abelian(
    max_order: int,
    convention: VertexConvention,
    *,
    workers: int = 1,
    dedupe: bool = True,
) -> TheoremReport:
    """Abelian G of order 2..N: GP complete iff G is cyclic of prime-power order."""
    t0 = time.perf_counter()
    specs = _census(max_order, dedupe, lambda s: s.is_abelian_family)

    def evaluate(spec: GroupSpec):
        group = build_cached(spec)
        complete = generalized_power_graph(group, convention).is_complete()
        expected = _is_cyclic(group) and group.p_group_prime() is not None
        return spec, complete, expected

    counterexamples = []
    broke_if = broke_only_if = 0
    for spec, complete, expected in _pmap(evaluate, specs, workers):
        if complete != expected:
            reason = "cyclic of prime-power order" if expected else "not cyclic of prime-power order"
            counterexamples.append(
                Finding(spec.to_text(), f"GP complete={complete}", f"GP complete={expected} ({reason})")
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
    return _make_report("T2.2", convention, len(specs), max_order,
                        counterexamples, [], notes, t0)


# ---------------------------------------------------------------------------
# T3.1: finite non-abelian completeness
# ---------------------------------------------------------------------------


def check_completeness_nonabelian(
    max_order: int,
    convention: VertexConvention,
    *,
    workers: int = 1,
    dedupe: bool = True,
) -> TheoremReport:
    """Non-abelian G of order 2..N: GP complete iff G is generalized quaternion."""
    t0 = time.perf_counter()
    specs = _census(max_order, dedupe, lambda s: not s.is_abelian_family)

    def evaluate(spec: GroupSpec):
        group = build_cached(spec)
        complete = generalized_power_graph(group, convention).is_complete()
        expected = _is_generalized_quaternion(group)
        return spec, complete, expected

    counterexamples = []
    for spec, complete, expected in _pmap(evaluate, specs, workers):
        if complete != expected:
            reason = "generalized quaternion" if expected else "not generalized quaternion"
            counterexamples.append(
                Finding(spec.to_text(), f"GP complete={complete}", f"GP complete={expected} ({reason})")
            )
    notes = ["'only if' direction is catalog-relative: checked against catalog families only"]
    return _make_report("T3.1", convention, len(specs), max_order,
                        counterexamples, [], notes, t0, catalog_relative=True)


# ---------------------------------------------------------------------------
# T3.4: p-group component structure
# ---------------------------------------------------------------------------


def check_pgroup_components(
    max_order: int,
    convention: VertexConvention,
    *,
    workers: int = 1,
    dedupe: bool = True,
) -> TheoremReport:
    """p-groups: every GP component complete; #components = #subgroups of order p."""
    if convention in _IDENTITY_BEARING:
        raise ConventionUnsupported("T3.4", convention)
    t0 = time.perf_counter()

    def is_pgroup_spec(s: GroupSpec) -> bool:
        return len(prime_factors(s.order())) == 1

    specs = _census(max_order, dedupe, is_pgroup_spec)

    def evaluate(spec: GroupSpec):
        group = build_cached(spec)
        p = group.p_group_prime()
        graph = generalized_power_graph(group, convention)
        comps = graph.connected_components()
        all_complete = all(graph.induced_subgraph(c).is_complete() for c in comps)
        expected_count = len(group.subgroups_of_order_p(p))
        return spec, graph.v, len(comps), all_complete, expected_count

    counterexamples = []
    vacuous = []
    for spec, nverts, ncomps, all_complete, expected_count in _pmap(evaluate, specs, workers):
        if nverts == 0:
            vacuous.append(spec)
            continue
        if not all_complete:
            counterexamples.append(
                Finding(spec.to_text(), "some GP component is not complete",
                        "every component complete")
            )
        if ncomps != expected_count:
            counterexamples.append(
                Finding(spec.to_text(), f"{ncomps} GP components",
                        f"{expected_count} components (= subgroups of order p)")
            )
    notes = _vacuous_note(convention, vacuous)
    return _make_report("T3.4", convention, len(specs), max_order,
                        counterexamples, [], notes, t0)


# ---------------------------------------------------------------------------
# L4.1 / L4.2 / L4.3: prime-divisor planarity lemmas
# ---------------------------------------------------------------------------


def check_planarity_prime_lemmas(
    max_order: int,
    convention: VertexConvention,
    *,
    workers: int = 1,
    dedupe: bool = True,
) -> list[TheoremReport]:
    """Three reports: four-prime orders (L4.1), prime divisors >= 7 (L4.2),
    and mixed {2,5} / {3,5} abelian groups (L4.3); all expect non-planar GP."""
    reports = []

    def run_lemma(theorem: str, specs: list[GroupSpec], t0: float,
                  witness_probe: bool = False) -> TheoremReport:
        def evaluate(spec: GroupSpec):
            group = build_cached(spec)
            graph = generalized_power_graph(group, convention)
            verdict = is_planar(graph, find_k5_witness=witness_probe)
            witness_labels = None
            if verdict.witness is not None:
                witness_labels = [int(graph.labels[x]) for x in verdict.witness]
            return spec, graph.v, verdict, witness_labels

        counterexamples = []
        discrepancies = []
        vacuous = []
        notes = []
        for spec, nverts, verdict, witness_labels in _pmap(evaluate, specs, workers):
            if nverts == 0:
                vacuous.append(spec)
                continue
            if witness_probe and not verdict.planar and witness_labels is not None:
                notes.append(f"K5 witness for {spec.to_text()}: elements {witness_labels}")
            if verdict.planar:
                finding = Finding(spec.to_text(), "GP planar", "GP not planar")
                if _divergence_is_conventional(spec, convention, expected_planar=False):
                    discrepancies.append(finding)
                else:
                    counterexamples.append(finding)
        notes.extend(_vacuous_note(convention, vacuous))
        return _make_report(theorem, convention, len(specs), max_order,
                            counterexamples, discrepancies, notes, t0)

    def spec_primes(s: GroupSpec) -> set[int]:
        return set(prime_factors(s.order()))

    # L4.1: abelian order divisible by >= 4 distinct primes; Z_210 targeted
    # (the smallest such order is 210, beyond any realistic bound).
    t0 = time.perf_counter()
    specs = _census(max_order, dedupe,
                    lambda s: s.is_abelian_family and len(spec_primes(s)) >= 4)
    specs = _with_targets(specs, [parse_spec("cyclic:210")])
    reports.append(run_lemma("L4.1", specs, t0, witness_probe=True))

    # L4.2: any group whose order has a prime divisor >= 7 (stated for all
    # finite groups); Z_14, Z_21 and D_14 targeted.
    t0 = time.perf_counter()
    specs = _census(max_order, dedupe, lambda s: max(spec_primes(s)) >= 7)
    specs = _with_targets(
        specs,
        [parse_spec("cyclic:14"), parse_spec("cyclic:21"), parse_spec("dihedral:7")],
    )
    reports.append(run_lemma("L4.2", specs, t0))

    # L4.3: abelian {2,5}- and {3,5}-groups of mixed order; Z_10, Z_15 targeted.
    t0 = time.perf_counter()
    specs = _census(
        max_order, dedupe,
        lambda s: s.is_abelian_family and spec_primes(s) in ({2, 5}, {3, 5}),
    )
    specs = _with_targets(specs, [parse_spec("cyclic:10"), parse_spec("cyclic:15")])
    reports.append(run_lemma("L4.3", specs, t0))

    return reports


# ---------------------------------------------------------------------------
# T4.4: abelian planarity classification
# ---------------------------------------------------------------------------


def check_abelian_planarity_classification(
    max_order: int,
    convention: VertexConvention,
    *,
    workers: int = 1,
    dedupe: bool = True,
) -> TheoremReport:
    """Abelian G: GP planar iff G is elementary abelian (p in {2,3,5}), Z_4 or Z_6."""
    t0 = time.perf_counter()
    specs = _census(max_order, dedupe, lambda s: s.is_abelian_family)

    def evaluate(spec: GroupSpec):
        group = build_cached(spec)
        graph = generalized_power_graph(group, convention)
        planar = is_planar(graph).planar
        return spec, graph.v, planar, _in_abelian_planar_families(group)

    counterexamples = []
    discrepancies = []
    vacuous = []
    for spec, nverts, planar, expected in _pmap(evaluate, specs, workers):
        if nverts == 0:
            vacuous.append(spec)
            continue
        if planar != expected:
            reason = "in the planar families" if expected else "outside the planar families"
            finding = Finding(spec.to_text(), f"GP planar={planar}",
                              f"GP planar={expected} ({reason})")
            if _divergence_is_conventional(spec, convention, expected_planar=expected):
                discrepancies.append(finding)
            else:
                counterexamples.append(finding)
    notes = _vacuous_note(convention, vacuous)
    if discrepancies:
        notes.append(
            f"{len(discrepancies)} group(s) planar under {convention.value} but "
            "outside the classification; the Punctured reading agrees with it"
        )
    return _make_report("T4.4", convention, len(specs), max_order,
                        counterexamples, discrepancies, notes, t0)


# ---------------------------------------------------------------------------
# T5.1 / T5.2: non-abelian p-group planarity
# ---------------------------------------------------------------------------


def check_nonabelian_pgroup_planarity(
    max_order: int,
    convention: VertexConvention,
    *,
    workers: int = 1,
    dedupe: bool = True,
) -> list[TheoremReport]:
    """T5.1: planar non-abelian p-groups (p in {3,5}) have exponent p and split
    into (p^n - 1)/(p - 1) copies of K_{p-1}. T5.2: among non-abelian 2-groups,
    only D_8 has planar GP."""
    reports = []

    def pgroup_prime(s: GroupSpec) -> int | None:
        fact = prime_factors(s.order())
        return next(iter(fact)) if len(fact) == 1 else None

    # T5.1
    t0 = time.perf_counter()
    specs = _census(
        max_order, dedupe,
        lambda s: not s.is_abelian_family and pgroup_prime(s) in (3, 5),
    )

    def evaluate_odd(spec: GroupSpec):
        group = build_cached(spec)
        p = group.p_group_prime()
        graph = generalized_power_graph(group, convention)
        planar = is_planar(graph).planar
        if not planar:
            return spec, False, []
        problems = []
        if group.exponent() != p:
            problems.append(f"exponent {group.exponent()} != {p}")
        comps = graph.connected_components()
        expected_count = (group.n - 1) // (p - 1)
        if len(comps) != expected_count:
            problems.append(f"{len(comps)} components != (p^n-1)/(p-1) = {expected_count}")
        if not all(len(c) == p - 1 for c in comps):
            problems.append(f"some component size != {p - 1}")
        if not all(graph.induced_subgraph(c).is_complete() for c in comps):
            problems.append("some component is not complete")
        return spec, True, problems

    counterexamples = []
    planar_count = 0
    for spec, planar, problems in _pmap(evaluate_odd, specs, workers):
        if planar:
            planar_count += 1
        for problem in problems:
            counterexamples.append(
                Finding(spec.to_text(), problem,
                        "exponent p and (p^n-1)/(p-1) components, each K_{p-1}")
            )
    notes = [f"{planar_count} of {len(specs)} group(s) have planar GP"] if specs else []
    reports.append(_make_report("T5.1", convention, len(specs), max_order,
                                counterexamples, [], notes, t0))

    # T5.2
    t0 = time.perf_counter()
    specs = _census(
        max_order, dedupe,
        lambda s: not s.is_abelian_family and pgroup_prime(s) == 2,
    )

    def evaluate_two(spec: GroupSpec):
        group = build_cached(spec)
        graph = generalized_power_graph(group, convention)
        return spec, is_planar(graph).planar, _is_d8(group)

    counterexamples = []
    for spec, planar, expected in _pmap(evaluate_two, specs, workers):
        if planar != expected:
            reason = "isomorphic to D_8" if expected else "not isomorphic to D_8"
            counterexamples.append(
                Finding(spec.to_text(), f"GP planar={planar}",
                        f"GP planar={expected} ({reason})")
            )
    notes = ["'only if' direction is catalog-relative: checked against catalog families only"]
    reports.append(_make_report("T5.2", convention, len(specs), max_order,
                                counterexamples, [], notes, t0, catalog_relative=True))
    return reports


# ---------------------------------------------------------------------------
# PruferShadow: finite truncations of the Pruefer-group completeness claim
# ---------------------------------------------------------------------------


def check_prufer_shadow(
    p: int,
    depth: int,
    convention: VertexConvention,
    *,
    workers: int = 1,
) -> TheoremReport:
    """GP(Z_{p^k}) is complete for k = 1..depth (finite shadow of Z_{p^inf})."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p ** depth > 4096:
        raise ValueError(f"p^depth = {p ** depth} exceeds the 4096 cap")
    t0 = time.perf_counter()
    specs = [parse_spec(f"cyclic:{p ** k}") for k in range(1, depth + 1)]

    def evaluate(spec: GroupSpec):
        graph = generalized_power_graph(build_cached(spec), convention)
        return spec, graph.v, graph.is_complete()

    counterexamples = []
    notes = []
    for spec, nverts, complete in _pmap(evaluate, specs, workers):
        if nverts == 0:
            notes.append(
                f"degenerate: {spec.to_text()} has an empty vertex set under "
                f"{convention.value} (vacuously complete)"
            )
        if not complete:
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
    reports: list[TheoremReport] = []
    kwargs = {"workers": config.workers, "dedupe": config.dedupe}
    shadow_depth = max(1, int(math.log2(config.max_order)))
    # Build the shared catalog up front, so its time lands in no check's runtime.
    catalog_up_to(config.max_order, config.dedupe)
    for convention in config.conventions:
        reports.append(check_completeness_abelian(config.max_order, convention, **kwargs))
        reports.append(check_completeness_nonabelian(config.max_order, convention, **kwargs))
        try:
            reports.append(check_pgroup_components(config.max_order, convention, **kwargs))
        except ConventionUnsupported as exc:
            reports.append(TheoremReport(
                theorem="T3.4",
                convention=convention.value,
                census_groups=0,
                max_order=config.max_order,
                verdict=VERDICT_NOT_APPLICABLE,
                notes=[str(exc)],
            ))
        reports.extend(check_planarity_prime_lemmas(config.max_order, convention, **kwargs))
        reports.append(check_abelian_planarity_classification(config.max_order, convention, **kwargs))
        reports.extend(check_nonabelian_pgroup_planarity(config.max_order, convention, **kwargs))
        reports.append(check_prufer_shadow(2, shadow_depth, convention, workers=config.workers))
    reports.sort(key=lambda r: (r.theorem, r.convention))
    return reports


def reports_to_json(reports: list[TheoremReport]) -> str:
    """Canonical JSON: deterministic, byte-identical across worker counts
    (wall-clock runtime is deliberately excluded)."""
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
