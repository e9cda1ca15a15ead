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
once and makes the facts of a batch of groups in one numpy pass over their
element orders: the invariants from the order histograms, the
prime-subgroup incidence of all of them at once (groups.GroupBatch), and
GP(G)'s components and planarity from the incidence rows of every vertex
set (_graph_facts). It never builds GP(G). It keeps the facts as columns,
an array per field with a row per spec, and makes a GroupFacts record only
when a group is looked up. Each claim is a census, a mask over the spec
columns, plus a judge, which maps the census rows' columns to break masks;
one evaluator, _claim, runs them and makes Findings for the broken rows
only.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .catalog import GroupSpec, build, catalog_groups, parse_spec
from .groups import FiniteGroup, GroupBatch, is_prime, prime_factors
# unused here; stays while perfbench/ traces it as verify.generalized_power_graph
from .powergraph import VertexConvention, generalized_power_graph

VERDICT_CONFIRMED = "Confirmed"
VERDICT_COUNTEREXAMPLES = "CounterexamplesFound"
VERDICT_NOT_APPLICABLE = "NotApplicable"

DEFAULT_MAX_ORDER = 64
DEFAULT_CONVENTIONS = (VertexConvention.STRICT, VertexConvention.PUNCTURED)

PRUFER_SHADOW_CAP = 4096


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
    """What the claims read about one group and its GP(G) under one
    convention, as one record: FactsTable makes it from the group's row when
    something looks the group up."""

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


def _group_invariants(batch: GroupBatch) -> dict[str, np.ndarray]:
    """The group-level fields of GroupFacts, one array over the batch's
    groups per field, read off the nonzero entries of each group's
    element-order histogram h. p and subgroups_of_order_p are 0 where
    GroupFacts has None."""
    sizes = batch.sizes
    first = batch.hist_group.searchsorted(np.arange(len(sizes)))  # each group's h[1]
    largest = batch.hist_order[np.append(first[1:], len(batch.hist_order)) - 1]
    exponent = np.lcm.reduceat(batch.hist_order, first)
    two = batch.hist_order == 2
    involutions = np.zeros(len(sizes), dtype=np.intp)
    involutions[batch.hist_group[two]] = batch.hist_count[two]
    # A group is a p-group iff p is the only prime order in it; then its
    # least order after 1 is p, and each of its subgroups of order p holds
    # p - 1 elements of order p. (A trivial group has no entry after h[1].)
    prime = batch.root_of[batch.hist_order] > 0
    p_group = np.bincount(batch.hist_group[prime], minlength=len(sizes)) == 1
    after_one = np.minimum(first + 1, len(batch.hist_order) - 1)
    p = np.where(p_group, batch.hist_order[after_one], 0)
    cyclic = largest == sizes
    nonabelian = ~np.array([group.is_abelian for group in batch.groups], dtype=bool)
    return dict(
        order=sizes,
        cyclic=cyclic,
        p=p,
        exponent=exponent,
        # a non-abelian 2-group (order >= 8) with a unique involution
        generalized_quaternion=(p == 2) & (sizes >= 8) & (involutions == 1) & nonabelian,
        d8=(sizes == 8) & (involutions == 5) & nonabelian,
        # elementary abelian 2/3/5-group, Z_4 or Z_6
        abelian_planar_family=(((p == 2) | (p == 3) | (p == 5)) & (exponent == p))
        | (((sizes == 4) | (sizes == 6)) & cyclic),
        subgroups_of_order_p=np.where(p_group, batch.hist_count[after_one] // np.maximum(p - 1, 1), 0),
    )


# The graph fields, which FactsTable keeps per record (a group's vertex set)
# rather than per row: as arrays, and two as lists.
_RECORD_FIELDS = frozenset({"v", "complete", "components", "components_complete", "planar",
                            "smallest_component", "largest_component"})
_RECORD_LISTS = frozenset({"component_sizes", "k5_witness"})


class Columns:
    """The facts of some table rows under one convention, one array per
    field, in the order of `rows`: the fields of GroupFacts (p and
    subgroups_of_order_p 0 for None; component_sizes and k5_witness
    lists), `components`, `smallest_component` and `largest_component` (0
    for no components), and the spec fields `abelian` (an abelian family),
    `nprimes`, `largest_prime` and `radical` (the product of the distinct
    primes) of the order. Each field is read by `read(name)` on its first
    access, so a judge reads only the fields it names; any number of rows
    will do, one group being one row."""

    def __init__(self, rows: np.ndarray, convention: VertexConvention | None,
                 read: Callable[[str], Sequence]):
        self.rows, self.convention, self._read = rows, convention, read

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        value = self._read(name)
        setattr(self, name, value)
        return value


# FactsTable reads its pending groups in one numpy pass once they hold this
# many elements, and at the end of a fill or a lookup; so the pending
# groups, not the catalog, size its memory. Each pass pays a fixed cost in
# numpy calls, per pass and per leaf shape, and a larger pass a larger
# working set, which the C allocator hands back to the system after each
# pass once it outgrows the largest array freed so far. Filled in process
# on a 2-vCPU host, N = 96 (21,121 elements) took the same at 1 << 12, 13
# and 14 rows, and N = 1024 took 2.2-2.5 s at 1 << 12 or 13 against
# 2.7-3.2 s at 1 << 14, which page-faulted about 200,000 times a fill. At
# 1 << 13 the N = 96 fill is 3 passes, and N = 256's tracemalloc peak
# (all four conventions) 5.0 MB, against 4.0 at 1 << 12.
FACTS_BATCH_ROWS = 1 << 13


class FactsTable:
    """The facts of every group of one harness run, as columns.

    Each spec is a row. A row holds its spec's columns (abelian family, the
    number of primes, the largest prime and the radical of the order, each
    order factored once per table), its group's invariants, and for each
    convention the index of its record: the graph fields of GP(G) on one
    vertex set, kept as arrays over the records. The table reads each
    distinct vertex set of the conventions in (requested | {punctured}), as
    discrepancy checks read Punctured, and conventions with one vertex set
    share one record (a non-cyclic group has two).

    fill() makes the rows of every catalog group of order >= 2 from one
    catalog pass, which builds each group once; a spec outside the catalog
    is built on its first lookup. rows() gives a census as row indices and
    columns() the facts of some rows under one convention; a GroupFacts
    record is made only by a lookup, table(spec, convention).

    Groups wait in a batch, and one numpy pass over the batch's element
    orders (GroupBatch) makes every column of every row in it: the group
    invariants from the order histograms, the prime-subgroup incidence of
    all the groups at once (its powers read one pass per leaf shape), each
    vertex set as a mask over the concatenated orders, and the graph fields
    from the incidence rows of every vertex set (_graph_facts), without
    GP(G); planarity too, from the number of vertices holding each subgroup
    of prime order. A batch keeps its groups until the flush, and each
    flush adds one chunk to every column.
    """

    def __init__(self, max_order: int, conventions: tuple[VertexConvention, ...],
                 dedupe: bool = True):
        self.max_order = max_order
        self.dedupe = dedupe
        self.conventions = tuple(dict.fromkeys((*conventions, VertexConvention.PUNCTURED)))
        self._specs: list[GroupSpec] = []            # row -> spec
        self._row_of: dict[GroupSpec, int] = {}
        self._catalog: np.ndarray | None = None      # the catalog's rows, in catalog order
        self._catalog_columns: Columns | None = None
        # a chunk per flush of each column, joined when it is read: a field
        # name, or a convention for its record index per row
        self._chunks: dict[str | VertexConvention, list[np.ndarray]] = {}
        self._component_sizes: list[list[int]] = []  # per record
        self._k5_witness: list[tuple[int, ...] | None] = []
        self._pending: list[tuple[GroupSpec, FiniteGroup]] = []
        self._pending_elements = 0
        self._factored: dict[int, dict[int, int]] = {}

    def fill(self) -> None:
        """Make the rows of every catalog group now, once per table."""
        if self._catalog is not None:
            return
        catalog = []
        for spec, group in catalog_groups(self.max_order, self.dedupe):
            if group.n >= 2:
                if spec not in self._row_of:
                    self._add(spec, group)
                catalog.append(spec)
        self._flush()
        self._catalog = np.array([self._row_of[spec] for spec in catalog], dtype=np.intp)
        self._catalog_columns = self.columns(self._catalog, None)

    def rows(self, pred: Callable[[Columns], np.ndarray | bool],
             targets: Sequence[str] = ()) -> np.ndarray:
        """The catalog rows whose spec columns satisfy pred, a mask over the
        Columns of the catalog of order 2..max_order, in catalog order, then
        the row of each target spec that is not among them; a target
        without a row is built now."""
        self.fill()
        rows = self._catalog[np.broadcast_to(pred(self._catalog_columns), self._catalog.shape)]
        if not targets:
            return rows
        specs = [parse_spec(t) for t in targets]
        for spec in specs:
            if spec not in self._row_of:
                self._add(spec, build(spec))
        self._flush()
        kept = set(rows.tolist())
        extra = [row for row in map(self._row_of.__getitem__, specs) if row not in kept]
        return np.concatenate([rows, np.array(extra, dtype=np.intp)])

    def columns(self, rows: np.ndarray, convention: VertexConvention | None) -> Columns:
        """The facts of the rows under the convention, each field taken from
        its column when first read (None reads spec and group fields only)."""
        records = None

        def read(name: str):
            nonlocal records
            if name not in _RECORD_FIELDS and name not in _RECORD_LISTS:
                return self._column(name)[rows]
            if records is None:
                records = self._column(convention)[rows]
            if name in _RECORD_FIELDS:
                return self._column(name)[records]
            kept = self._component_sizes if name == "component_sizes" else self._k5_witness
            return [kept[r] for r in records.tolist()]

        return Columns(rows, convention, read)

    def names(self, rows: np.ndarray) -> list[str]:
        """The serialized spec of each row."""
        return [self._specs[row].to_text() for row in rows.tolist()]

    def __call__(self, spec: GroupSpec, convention: VertexConvention) -> GroupFacts:
        """The GroupFacts record of the spec under the convention, made from
        its row; a spec without a row is built now."""
        if spec not in self._row_of:
            self._add(spec, build(spec))
            self._flush()
        f = self.columns(np.array([self._row_of[spec]]), convention)
        p = int(f.p[0])
        return GroupFacts(
            order=int(f.order[0]), cyclic=bool(f.cyclic[0]), p=p or None, exponent=int(f.exponent[0]),
            generalized_quaternion=bool(f.generalized_quaternion[0]), d8=bool(f.d8[0]),
            abelian_planar_family=bool(f.abelian_planar_family[0]),
            subgroups_of_order_p=int(f.subgroups_of_order_p[0]) if p else None,
            v=int(f.v[0]), complete=bool(f.complete[0]), component_sizes=tuple(f.component_sizes[0]),
            components_complete=bool(f.components_complete[0]), planar=bool(f.planar[0]),
            k5_witness=f.k5_witness[0])

    def _factors(self, n: int) -> dict[int, int]:
        """prime_factors(n), once per order per table."""
        if n not in self._factored:
            self._factored[n] = prime_factors(n)
        return self._factored[n]

    def _column(self, name: str | VertexConvention) -> np.ndarray:
        chunks = self._chunks[name]
        if len(chunks) > 1:
            chunks[:] = [np.concatenate(chunks)]
        return chunks[0]

    def _add(self, spec: GroupSpec, group: FiniteGroup) -> None:
        self._pending.append((spec, group))
        self._pending_elements += group.n
        if self._pending_elements >= FACTS_BATCH_ROWS:
            self._flush()

    def _flush(self) -> None:
        """Make the rows of every pending group in one pass."""
        pending, self._pending, self._pending_elements = self._pending, [], 0
        if not pending:
            return
        specs = [spec for spec, _ in pending]
        batch = GroupBatch([group for _, group in pending])
        columns = _group_invariants(batch)
        cyclic = columns["cyclic"]
        orders, of_order = np.unique(batch.sizes, return_inverse=True)
        factored = [self._factors(n) for n in orders.tolist()]
        columns.update(
            abelian=np.array([spec.is_abelian_family for spec in specs], dtype=bool),
            nprimes=np.array([len(f) for f in factored], dtype=np.intp)[of_order],
            largest_prime=np.array([max(f, default=1) for f in factored], dtype=np.intp)[of_order],
            radical=np.array([math.prod(f) for f in factored], dtype=np.intp)[of_order],
        )
        # Each vertex set that some group reads, as a mask over the batch,
        # named (keeps the identity, drops generators): a set that drops
        # generators is read by the cyclic groups, and its set with them by
        # the others too, which have none. The rows of a record, one group's
        # set, are contiguous and ascend by element. record[s, g] is group
        # g's record of set s, where g reads s.
        read = [(c, c.keeps_identity, c.drops_generators) for c in self.conventions]
        requested = {(keeps, drops) for _, keeps, drops in read}
        sets = sorted(requested | {(keeps, False) for keeps, _ in requested})
        record = np.full((len(sets), len(pending)), -1, dtype=np.intp)
        rows, sizes, owners = [], [], []
        made = len(self._k5_witness)
        for s, (keeps, drops) in enumerate(sets):
            owned = cyclic if drops else ~cyclic | ((keeps, False) in requested)
            keep = owned[batch.group] & ((batch.local > 0) | keeps)
            if drops:
                keep &= batch.orders != batch.sizes[batch.group]
            rows.append(np.flatnonzero(keep))
            sizes.append(np.bincount(batch.group[rows[-1]], minlength=len(pending))[owned])
            owners.append(np.flatnonzero(owned))
            record[s, owners[-1]] = made + np.arange(len(owners[-1]))
            made += len(owners[-1])
        rows, sizes, owner = np.concatenate(rows), np.concatenate(sizes), np.concatenate(owners)
        graph = _graph_facts(batch.prime_subgroup_incidence()[rows], sizes, batch.sizes[owner],
                             batch.local[rows])
        self._k5_witness += graph.pop("k5_witness")
        self._component_sizes += graph.pop("component_sizes")
        columns.update(graph)
        for c, keeps, drops in read:
            columns[c] = record[sets.index((keeps, False))]
            if drops:
                columns[c] = np.where(cyclic, record[sets.index((keeps, True))], columns[c])
        for name, chunk in columns.items():
            self._chunks.setdefault(name, []).append(chunk)
        self._row_of.update(zip(specs, range(len(self._specs), len(self._specs) + len(specs))))
        self._specs += specs


def _graph_facts(rows: np.ndarray, sizes: Sequence[int], bounds: Sequence[int],
                 elements: np.ndarray | None = None) -> dict:
    """The graph fields of GP(G) on each block's vertex set, read off its
    prime-subgroup incidence rows in one numpy pass; the one reading of GP's
    components, for the harness and `gpgraph check` alike. One array per
    field, an entry per block: v, complete, components (their number),
    components_complete, planar, and smallest_component and
    largest_component (0 for a block without vertices); and a list per
    block for component_sizes and k5_witness.

    The blocks lie one after another in `rows`: block b is the next
    sizes[b] rows, the incidence rows of its vertex set, ascending by
    element (FiniteGroup.prime_subgroup_incidence), and its ids are below
    bounds[b], the group order; -1 pads a row. GP(G) is the union of the
    cliques C_P = {x : P <= <x>}, so vertices are joined iff they share an
    id:
    - components come from min-label propagation over ids, ordered by least
      vertex; a row without ids (the identity) is a component of its own;
    - a component is a clique iff one id is held by all of its vertices.
      This is exact: in a clique component, any x has some P <= <x> of
      prime order, whose generator is a vertex in x's component; every other
      vertex is adjacent to it, so it contains P too. Only strict Z_p lacks
      prime-order vertices, and it has no vertices at all;
    - GP(G) is complete iff it has at most one component, and that one is
      a clique;
    - k5_witness is the lexicographically least tuple of the five first
      holders of an id held by 5 or more rows, whose C_P spans a K5, as the
      rows' `elements` when given (an entry per row of `rows`), else as row
      positions in the block; None when no id has 5 holders;
    - planar is k5_witness is None. For a group this is exact under every
      convention, as a vertex set holds, with each x, the generators of <x>
      and its non-identity powers. Say P <= <x> has prime order p and x has
      order m: the p - 1 generators of P hold P, and so do the phi(m) of
      <x> when m != p. With at most 4 holders per P, p <= 5, and m is p, 4
      or 6, as phi(m) <= 3 only for m in {1, 2, 3, 4, 6}. An involution
      then lies in at most one C_4 or C_6 (two give 1 + 2 + 2 holders), and
      a P of order 3 in at most one C_6. So a component is a lone P (1, 2
      or 4 vertices), a C_4 with its involution (3), or a C_6 with its
      subgroups of orders 2 and 3 (5 vertices, not K5: the involution
      misses the elements of order 3); the identity is isolated. Every
      graph on at most 5 vertices but K5 is planar (Kuratowski). Hand-made
      blocks, which no group yields, can break this.
    Ids are offset per block, so blocks never meet.
    """
    sizes, bounds = np.asarray(sizes, dtype=np.intp), np.asarray(bounds, dtype=np.intp)
    nblocks = len(sizes)
    offsets = np.cumsum(bounds) - bounds
    total = len(rows)
    # ids[j, i] is the j-th id of row i, or -1; columns are rows, so that
    # reductions over a row's few ids run along the first axis. Order 1 has
    # no columns, and gets one of -1.
    ids = np.full((max(1, rows.shape[1]), total), -1, dtype=np.int32)
    ids[:rows.shape[1]] = rows.T
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
    # components by least vertex, which orders them by block too
    by_least = np.argsort(first)
    block_of_row = np.repeat(np.arange(nblocks), sizes)
    block_of_comp = block_of_row[first[by_least]]
    ordered_sizes = comp_sizes[by_least]
    ncomps = np.bincount(block_of_comp, minlength=nblocks)
    broken = np.bincount(block_of_comp, weights=~clique[by_least], minlength=nblocks) > 0
    smallest, largest = np.zeros(nblocks, dtype=np.intp), np.zeros(nblocks, dtype=np.intp)
    first_comp = np.cumsum(ncomps) - ncomps
    some = ncomps > 0
    if some.any():
        smallest[some] = np.minimum.reduceat(ordered_sizes, first_comp[some])
        largest[some] = np.maximum.reduceat(ordered_sizes, first_comp[some])
    # the five first holders of each id held 5 or more times, sorted
    # lexicographically, which sorts them by block first
    five = holder_rows[starts[holders[:nids] >= 5, None] + np.arange(5)]
    five = five[np.lexsort(five.T[::-1])]
    with_k5, least = np.unique(block_of_row[five[:, 0]], return_index=True)
    at = five[least]  # each witness's rows
    local = at - (np.cumsum(sizes) - sizes)[with_k5, None] if elements is None else elements[at]
    witnesses: list[tuple[int, ...] | None] = [None] * nblocks
    for b, w in zip(with_k5.tolist(), local.tolist()):
        witnesses[b] = tuple(w)
    planar = np.ones(nblocks, dtype=bool)
    planar[with_k5] = False
    listed = ordered_sizes.tolist()
    return dict(
        v=sizes,
        complete=(ncomps <= 1) & ~broken,
        components=ncomps,
        component_sizes=[listed[lo:lo + n] for lo, n in zip(first_comp.tolist(), ncomps.tolist())],
        components_complete=~broken,
        planar=planar,
        smallest_component=smallest,
        largest_component=largest,
        k5_witness=witnesses,
    )


# ---------------------------------------------------------------------------
# The claim evaluator
# ---------------------------------------------------------------------------

_CATALOG_RELATIVE_NOTE = "'only if' direction is catalog-relative: checked against catalog families only"

# A judge maps Columns to its break entries (mask, observed, expected): row i
# breaks the claim in that way where mask[i], and observed and expected are
# the Finding's texts, each a str or a function of i.
Text = Union[str, Callable[[int], str]]
Judge = Callable[[Columns], Sequence[tuple[np.ndarray, Text, Text]]]


def _claim(
    theorem: str,
    facts: FactsTable,
    f: Columns,
    judge: Judge,
    *,
    skip_vacuous: bool = False,
    conventional: bool = False,
    notes: Iterable[str] = (),
    catalog_relative: bool = False,
    max_order: int | None = None,
) -> TheoremReport:
    """Judge the census rows f.rows under f.convention and report.

    A Finding is made only for a broken row, one per entry of the judge
    that it breaks, by row and then by entry.
    skip_vacuous: a group with an empty vertex set is noted and not judged.
    conventional: a break is a convention discrepancy, not a counterexample,
    when the Punctured facts of the same group satisfy the claim; they are
    read only for the broken rows.
    """
    t0 = time.perf_counter()
    entries = judge(f)
    broken = np.zeros(len(f.rows), dtype=bool)
    for mask, _, _ in entries:
        broken |= mask
    vacuous: list[str] = []
    if skip_vacuous:
        empty = f.v == 0
        vacuous = facts.names(f.rows[empty])
        broken &= ~empty
    at = np.flatnonzero(broken)
    shared = np.ones(len(at), dtype=bool)  # the break is a counterexample
    if conventional and len(at):
        shared[:] = False
        for mask, _, _ in judge(facts.columns(f.rows[at], VertexConvention.PUNCTURED)):
            shared |= mask
    counterexamples, discrepancies = [], []
    for i, group, counter in zip(at.tolist(), facts.names(f.rows[at]), shared.tolist()):
        (counterexamples if counter else discrepancies).extend(
            Finding(group, _text(observed, i), _text(expected, i))
            for mask, observed, expected in entries if mask[i])
    notes = ([_CATALOG_RELATIVE_NOTE] if catalog_relative else []) + list(notes)
    if vacuous:
        notes.append(
            f"vacuous under {f.convention.value}: empty vertex set for {len(vacuous)} "
            f"group(s) ({', '.join(vacuous)}); excluded from verdicts"
        )
    if not len(f.rows):
        verdict = VERDICT_NOT_APPLICABLE
    elif counterexamples:
        verdict = VERDICT_COUNTEREXAMPLES
    else:
        verdict = VERDICT_CONFIRMED
    return TheoremReport(
        theorem=theorem,
        convention=f.convention.value,
        census_groups=len(f.rows),
        max_order=facts.max_order if max_order is None else max_order,
        verdict=verdict,
        catalog_relative=catalog_relative,
        counterexamples=counterexamples,
        discrepancies=discrepancies,
        notes=notes,
        runtime_ms=(time.perf_counter() - t0) * 1000.0,
    )


def _text(text: Text, i: int) -> str:
    return text if isinstance(text, str) else text(i)


def _iff(prop: str, observed: np.ndarray, expected: np.ndarray, reason_yes: str, reason_no: str):
    """The break of `prop iff condition`, where observed differs from expected."""
    return [(observed != expected,
             lambda i: f"{prop}={bool(observed[i])}",
             lambda i: f"{prop}={bool(expected[i])} ({reason_yes if expected[i] else reason_no})")]


def _cyclic_prime_power(f: Columns) -> np.ndarray:
    return f.cyclic & (f.p > 0)


def _judge_t34(f: Columns):
    return [
        (~f.components_complete, "some GP component is not complete", "every component complete"),
        (f.components != f.subgroups_of_order_p,
         lambda i: f"{f.components[i]} GP components",
         lambda i: f"{f.subgroups_of_order_p[i]} components (= subgroups of order p)"),
    ]


def _judge_t51(f: Columns):
    # The claim speaks only of planar GP.
    p, planar = f.p, f.planar
    expected = "exponent p and (p^n-1)/(p-1) components, each K_{p-1}"
    count = (f.order - 1) // (p - 1)
    sized = (f.smallest_component != p - 1) | (f.largest_component != p - 1)
    return [
        (planar & (f.exponent != p), lambda i: f"exponent {f.exponent[i]} != {p[i]}", expected),
        (planar & (f.components != count),
         lambda i: f"{f.components[i]} components != (p^n-1)/(p-1) = {count[i]}", expected),
        (planar & (f.components > 0) & sized, lambda i: f"some component size != {p[i] - 1}", expected),
        (planar & ~f.components_complete, "some component is not complete", expected),
    ]


def _planar_breaks(f: Columns):
    return [(f.planar, "GP planar", "GP not planar")]


# Each claim's census: a mask over the spec columns of the catalog (Columns),
# then its target specs.
CENSUS: dict[str, tuple[Callable[[Columns], np.ndarray], tuple[str, ...]]] = {
    "T2.2": (lambda s: s.abelian, ()),
    "T3.1": (lambda s: ~s.abelian, ()),
    "T3.4": (lambda s: s.nprimes == 1, ()),
    # abelian order divisible by >= 4 distinct primes; Z_210 targeted (the
    # smallest such order is 210, beyond any realistic bound)
    "L4.1": (lambda s: s.abelian & (s.nprimes >= 4), ("cyclic:210",)),
    # any group whose order has a prime divisor >= 7 (stated for all finite
    # groups); Z_14, Z_21 and D_14 targeted
    "L4.2": (lambda s: s.largest_prime >= 7, ("cyclic:14", "cyclic:21", "dihedral:7")),
    # abelian {2,5}- and {3,5}-groups of mixed order; Z_10, Z_15 targeted
    "L4.3": (lambda s: s.abelian & ((s.radical == 10) | (s.radical == 15)), ("cyclic:10", "cyclic:15")),
    "T4.4": (lambda s: s.abelian, ()),
    "T5.1": (lambda s: ~s.abelian & ((s.radical == 3) | (s.radical == 5)), ()),
    "T5.2": (lambda s: ~s.abelian & (s.radical == 2), ()),
}

JUDGES: dict[str, Judge] = {
    "T2.2": lambda f: _iff("GP complete", f.complete, _cyclic_prime_power(f),
                           "cyclic of prime-power order", "not cyclic of prime-power order"),
    "T3.1": lambda f: _iff("GP complete", f.complete, f.generalized_quaternion,
                           "generalized quaternion", "not generalized quaternion"),
    "T3.4": _judge_t34,
    "L4.1": _planar_breaks,
    "L4.2": _planar_breaks,
    "L4.3": _planar_breaks,
    "T4.4": lambda f: _iff("GP planar", f.planar, f.abelian_planar_family,
                           "in the planar families", "outside the planar families"),
    "T5.1": _judge_t51,
    "T5.2": lambda f: _iff("GP planar", f.planar, f.d8, "isomorphic to D_8", "not isomorphic to D_8"),
    "PruferShadow": lambda f: [(~f.complete, "GP not complete", "GP complete (cyclic p-group)")],
}


def _census(facts: FactsTable, theorem: str, convention: VertexConvention) -> Columns:
    return facts.columns(facts.rows(*CENSUS[theorem]), convention)


# ---------------------------------------------------------------------------
# The claims
# ---------------------------------------------------------------------------


def check_completeness_abelian(facts: FactsTable, convention: VertexConvention) -> TheoremReport:
    """T2.2, abelian G of order 2..N: GP complete iff G is cyclic of prime-power order."""
    f = _census(facts, "T2.2", convention)
    report = _claim("T2.2", facts, f, JUDGES["T2.2"])
    broke_if = int(np.count_nonzero(_cyclic_prime_power(f) & ~f.complete))
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
    return _claim("T3.1", facts, _census(facts, "T3.1", convention), JUDGES["T3.1"],
                  catalog_relative=True)


def check_pgroup_components(facts: FactsTable, convention: VertexConvention) -> TheoremReport:
    """T3.4, p-groups: every GP component complete; #components = #subgroups
    of order p. NotApplicable under the identity-bearing conventions."""
    if convention.keeps_identity:
        return _claim("T3.4", facts, facts.columns(np.empty(0, dtype=np.intp), convention),
                      lambda f: (), notes=[
                          f"T3.4 counts components; under {convention.value} the isolated "
                          "identity shifts the count by one (reported, not silently adjusted)"])
    return _claim("T3.4", facts, _census(facts, "T3.4", convention), JUDGES["T3.4"], skip_vacuous=True)


def check_planarity_prime_lemmas(
    facts: FactsTable, convention: VertexConvention
) -> list[TheoremReport]:
    """Three reports: four-prime orders (L4.1), prime divisors >= 7 (L4.2),
    and mixed {2,5} / {3,5} abelian groups (L4.3); all expect non-planar GP."""

    def lemma(theorem, f, notes=()):
        return _claim(theorem, facts, f, JUDGES[theorem], skip_vacuous=True, conventional=True,
                      notes=notes)

    f = _census(facts, "L4.1", convention)
    witnessed = [i for i, w in enumerate(f.k5_witness) if w is not None]
    l41 = lemma("L4.1", f, [
        f"K5 witness for {group}: elements {list(f.k5_witness[i])}"
        for i, group in zip(witnessed, facts.names(f.rows[witnessed]))
    ])
    return [l41] + [lemma(theorem, _census(facts, theorem, convention)) for theorem in ("L4.2", "L4.3")]


def check_abelian_planarity_classification(
    facts: FactsTable, convention: VertexConvention
) -> TheoremReport:
    """T4.4, abelian G: GP planar iff G is elementary abelian (p in {2,3,5}), Z_4 or Z_6."""
    report = _claim("T4.4", facts, _census(facts, "T4.4", convention), JUDGES["T4.4"],
                    skip_vacuous=True, conventional=True)
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
    f = _census(facts, "T5.1", convention)
    planar = int(np.count_nonzero(f.planar))
    t51 = _claim("T5.1", facts, f, JUDGES["T5.1"],
                 notes=[f"{planar} of {len(f.rows)} group(s) have planar GP"] if len(f.rows) else [])
    t52 = _claim("T5.2", facts, _census(facts, "T5.2", convention), JUDGES["T5.2"],
                 catalog_relative=True)
    return [t51, t52]


def _shadow_targets(p: int, depth: int) -> list[str]:
    """Z_{p^k} for k = 1..depth; ValueError unless p is prime and p^depth is
    within PRUFER_SHADOW_CAP."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p ** depth > PRUFER_SHADOW_CAP:
        raise ValueError(f"p^depth = {p ** depth} exceeds the {PRUFER_SHADOW_CAP} cap")
    return [f"cyclic:{p ** k}" for k in range(1, depth + 1)]


def check_prufer_shadow(
    facts: FactsTable, convention: VertexConvention, p: int, depth: int
) -> TheoremReport:
    """PruferShadow: GP(Z_{p^k}) is complete for k = 1..depth (finite shadow of Z_{p^inf})."""
    f = facts.columns(facts.rows(lambda s: False, _shadow_targets(p, depth)), convention)
    degenerate = [
        f"degenerate: {group} has an empty vertex set under "
        f"{convention.value} (vacuously complete)"
        for group in facts.names(f.rows[f.v == 0])
    ]
    return _claim("PruferShadow", facts, f, JUDGES["PruferShadow"],
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
    _shadow_targets(2, shadow_depth)  # fail on the cap before enumerating anything
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
