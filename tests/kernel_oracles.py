"""Plain references for the numpy kernels in gpgraph.

Each function is the straightforward version of one kernel: a per-bit walk
for SimpleGraph.induced_subgraph, vertex degrees against component sizes
for the clique test of verify._graph_facts, a dict of row bytes for
groups._permutation_table, an n x n x k digit cube for
catalog._abelian_table, a closed-form index formula over full n x n
coordinate arrays for each family catalog._extension_table makes (dihedral,
dicyclic and generalized quaternion, Heisenberg), np.kron and np.tile for
catalog._product_table, one element's power walk over the Cayley table for
every reader of FiniteGroup.powers (cyclic subgroups, subgroups of prime
order, GP adjacency, element orders) and, read at every (m/p)-th power,
for FiniteGroup.prime_subgroup_incidence, the closure of a set under all
products for groups._generating_set (and the same greedy set by np.unique
frontiers, for the list it returns), the 2-D scatter of a relabelling for
groups.validate_and_build, a per-token parse for
groups.parse_cayley_table, and each claim's census as a predicate over
specs and its judge as a generator over one GroupFacts record, run group by
group, for the masks of verify.CENSUS, verify.JUDGES and verify._claim. The
kernels must agree with them on every input.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from gpgraph.catalog import GroupSpec
from gpgraph.graphs import SimpleGraph
from gpgraph.groups import (
    MAX_GROUP_ORDER,
    CayleyTableError,
    FiniteGroup,
    NotClosed,
    prime_factors,
    validate_and_build,
)
from gpgraph.verify import Finding, GroupFacts


def _table_dtype(n: int) -> type:
    """The dtype of a table of order n: int16 while indices fit in it."""
    return np.int16 if n < 2**15 else np.int32


def induced_rows(g: SimpleGraph, vertices: Iterable[int]) -> list[int]:
    """Adjacency rows of the subgraph on sorted(set(vertices)), walking
    every set bit of every selected row."""
    verts = sorted(set(vertices))
    pos = {x: i for i, x in enumerate(verts)}
    rows = [0] * len(verts)
    for i, x in enumerate(verts):
        r = g.rows[x]
        while r:
            y = (r & -r).bit_length() - 1
            r &= r - 1
            j = pos.get(y)
            if j is not None:
                rows[i] |= 1 << j
    return rows


def components_complete(g: SimpleGraph, components: list[list[int]]) -> bool:
    """True iff every connected component is a clique, i.e. each vertex's
    degree is its component's size minus one; `components` is the result
    of g.connected_components()."""
    return all(g.rows[i].bit_count() == len(c) - 1 for c in components for i in c)


def permutation_table(perms: np.ndarray) -> np.ndarray:
    """table[a, b] = row index of perms[a] o perms[b], by a dict of row
    bytes; KeyError when the rows are not closed under composition."""
    n = len(perms)
    lut = {p.tobytes(): j for j, p in enumerate(perms)}
    table = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        table[a] = [lut[row.tobytes()] for row in perms[a][perms]]
    return table


def permutation_closure(degree: int, generators: Sequence[Sequence[int]]) -> np.ndarray:
    """Every product of the generators as rows of an array, in sorted order."""
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = tuple(p[g[x]] for x in range(degree))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return np.array(sorted(seen), dtype=np.int16).reshape(len(seen), degree)


def abelian_table_rows(factors: tuple[int, ...], rows: Sequence[int]) -> np.ndarray:
    """Rows of the Cayley table of Z_f1 x ... x Z_fk, mixed radix with the
    last factor fastest, from the digit cube of the given rows against all
    elements."""
    n = math.prod(factors)
    k = len(factors)
    digits = np.empty((n, k), dtype=np.int64)
    rem = np.arange(n)
    for j in range(k - 1, -1, -1):
        rem, digits[:, j] = np.divmod(rem, factors[j])
    summed = (digits[list(rows), None, :] + digits[None, :, :]) % np.array(factors)
    strides = np.ones(k, dtype=np.int64)
    for j in range(k - 2, -1, -1):
        strides[j] = strides[j + 1] * factors[j + 1]
    return summed @ strides


def dihedral_table(m: int) -> np.ndarray:
    """Cayley table of D_2m: elements a^i s^j with s*a = a^-1*s, index
    j*m + i."""
    n = 2 * m
    idx = np.arange(n)
    i1, j1 = (idx % m)[:, None], (idx // m)[:, None]
    i2, j2 = (idx % m)[None, :], (idx // m)[None, :]
    res_i = (i1 + np.where(j1 == 1, -i2, i2)) % m
    res_j = (j1 + j2) % 2
    return (res_j * m + res_i).astype(_table_dtype(n))


def dicyclic_table(m: int) -> np.ndarray:
    """Cayley table of Dic_m = <a, b | a^(2m) = 1, b^2 = a^m,
    b^-1*a*b = a^-1>: elements a^i b^j, index j*2m + i. For m a power of
    two it is the generalized quaternion group of order 4m."""
    n = 4 * m
    idx = np.arange(n)
    i1, j1 = (idx % (2 * m))[:, None], (idx // (2 * m))[:, None]
    i2, j2 = (idx % (2 * m))[None, :], (idx // (2 * m))[None, :]
    res_i = (i1 + np.where(j1 == 1, -i2, i2) + m * (j1 & j2)) % (2 * m)
    res_j = (j1 + j2) % 2
    return (res_j * 2 * m + res_i).astype(_table_dtype(n))


def heisenberg_table(p: int) -> np.ndarray:
    """Cayley table of the upper unitriangular 3x3 matrices over F_p as
    triples (a, b, c): (a,b,c)*(a',b',c') = (a+a', b+b', c+c'+a*b'), index
    a*p^2 + b*p + c."""
    n = p ** 3
    idx = np.arange(n)
    a, rem = np.divmod(idx, p * p)
    b, c = np.divmod(rem, p)
    a1, b1, c1 = a[:, None], b[:, None], c[:, None]
    a2, b2, c2 = a[None, :], b[None, :], c[None, :]
    ra = (a1 + a2) % p
    rb = (b1 + b2) % p
    rc = (c1 + c2 + a1 * b2) % p
    return (ra * p * p + rb * p + rc).astype(_table_dtype(n))


def product_table(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Cayley table of the direct product, index a*n2 + x for (a, x), from
    a Kronecker product with a ones matrix and a tiling."""
    n1, n2 = t1.shape[0], t2.shape[0]
    dt = _table_dtype(n1 * n2)
    ones = np.ones((n2, n2), dtype=dt)
    return np.kron(t1.astype(dt), ones) * n2 + np.tile(t2.astype(dt), (n1, n1))


def _powers(rows: list[list[int]], g: int) -> list[int]:
    """g^0 .. g^(m-1) for m the order of g, by multiplying by g until the
    identity (element 0) comes back. ValueError when it has not come back
    after n - 1 steps, n the order of the table."""
    powers = [0]
    cur = g
    for _ in range(len(rows) - 1):
        if cur == 0:
            break
        powers.append(cur)
        cur = rows[cur][g]
    if cur != 0:
        raise ValueError(f"the powers of {g} never reach the identity")
    return powers


def _walk(rows: list[list[int]], g: int) -> list[int]:
    """<g> as a sorted list, from its walked powers."""
    return sorted(_powers(rows, g))


def prime_subgroup_incidence(group: FiniteGroup) -> list[list[int]]:
    """Row x, column j: the least non-identity element of <x^(m/p)>, for m
    the order of x and p the j-th smallest prime dividing the group order,
    or -1 when p does not divide m. The powers x^0 .. x^(m-1) are walked by
    multiplying by x until the identity (element 0) comes back, and
    <x^(m/p)> is every (m/p)-th of them."""
    rows = group.table.tolist()
    n = len(rows)
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]
    incidence = []
    for x in range(n):
        powers = _powers(rows, x)
        m = len(powers)
        incidence.append([min(powers[m // p::m // p]) if m % p == 0 else -1 for p in primes])
    return incidence


def cyclic_subgroups(group: FiniteGroup) -> list[list[int]]:
    """<g> for every g, each walked over the Cayley table."""
    rows = group.table.tolist()
    return [_walk(rows, g) for g in range(group.n)]


def element_orders(walks: list[list[int]]) -> list[int]:
    """The order of every element: the size of its walked <g> (from
    cyclic_subgroups)."""
    return [len(cyc) for cyc in walks]


def subgroups_of_order_p(walks: list[list[int]], p: int) -> list[tuple[int, ...]]:
    """The distinct walked <g> (from cyclic_subgroups) with exactly p
    elements, as sorted tuples."""
    return sorted({tuple(cyc) for cyc in walks if len(cyc) == p})


def gp_adjacent(group: FiniteGroup, x: int, y: int) -> bool:
    """GP(G) adjacency by its definition: <x> and <y> share more than the
    identity."""
    rows = group.table.tolist()
    return len(set(_walk(rows, x)) & set(_walk(rows, y))) > 1


def magma_closure(table: np.ndarray, elements: Iterable[int]) -> np.ndarray:
    """Sorted indices of the identity (element 0), the given elements and
    every product of them in either order, by multiplying the whole found
    set by itself until it stops growing."""
    found = np.zeros(len(table), dtype=bool)
    found[0] = True
    found[list(elements)] = True
    while True:
        idx = np.flatnonzero(found)
        found[table[np.ix_(idx, idx)]] = True
        if found.sum() == len(idx):
            return idx


def relabel(table: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The table with every element x renamed perm[x], by one 2-D scatter:
    new[perm[a], perm[b]] = perm[table[a, b]]."""
    perm = np.asarray(perm)
    out = np.empty_like(table)
    out[perm[:, None], perm[None, :]] = perm[table]
    return out


def swap_identity(table: np.ndarray, e: int) -> np.ndarray:
    """relabel() by the involution that swaps the names 0 and e, so the
    element named e (the identity, in validate_and_build) is named 0."""
    perm = np.arange(len(table))
    perm[0], perm[e] = e, 0
    return relabel(table, perm)


def generating_set(table: np.ndarray) -> list[int]:
    """The greedy generating set of groups._generating_set, each round's new
    elements found by np.unique of the products not yet reached."""
    n = table.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while not reached.all():
        g = int(np.argmin(reached))
        gens.append(g)
        frontier = table[np.flatnonzero(reached), g]
        while len(frontier):
            frontier = np.unique(frontier[~reached[frontier]])
            reached[frontier] = True
            frontier = table[np.ix_(frontier, gens + frontier[:1].tolist())].ravel()
    return gens


def parse_cayley_table(text: str) -> FiniteGroup:
    """The Cayley table text format read one token at a time with int(),
    each row checked in turn, then validated in full."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise CayleyTableError("empty table file")
    try:
        n = int(lines[0])
    except ValueError:
        raise CayleyTableError(f"first line must be the order, got {lines[0]!r}")
    if n < 1:
        raise CayleyTableError(f"order must be >= 1, got {n}")
    if n > MAX_GROUP_ORDER:
        raise CayleyTableError(f"order {n} exceeds the cap {MAX_GROUP_ORDER}")
    if len(lines) != n + 1:
        raise CayleyTableError(f"expected {n} table rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError:
            raise CayleyTableError(f"non-integer entry in row {len(rows)}: {ln!r}")
        if len(row) != n:
            raise CayleyTableError(f"row {len(rows)} has {len(row)} entries, expected {n}")
        if min(row) < 0 or max(row) >= n:
            col = next(c for c, v in enumerate(row) if not 0 <= v < n)
            raise NotClosed(len(rows), col, row[col], n)
        rows.append(row)
    return validate_and_build(np.array(rows))


def _primes(spec: GroupSpec) -> set[int]:
    return set(prime_factors(spec.order()))


# Each claim's census as a predicate over one spec, and its targets.
CENSUS = {
    "T2.2": (lambda s: s.is_abelian_family, ()),
    "T3.1": (lambda s: not s.is_abelian_family, ()),
    "T3.4": (lambda s: len(_primes(s)) == 1, ()),
    "L4.1": (lambda s: s.is_abelian_family and len(_primes(s)) >= 4, ("cyclic:210",)),
    "L4.2": (lambda s: max(_primes(s)) >= 7, ("cyclic:14", "cyclic:21", "dihedral:7")),
    "L4.3": (lambda s: s.is_abelian_family and _primes(s) in ({2, 5}, {3, 5}), ("cyclic:10", "cyclic:15")),
    "T4.4": (lambda s: s.is_abelian_family, ()),
    "T5.1": (lambda s: not s.is_abelian_family and _primes(s) in ({3}, {5}), ()),
    "T5.2": (lambda s: not s.is_abelian_family and _primes(s) == {2}, ()),
}


def census(theorem: str, catalog: Sequence[GroupSpec], parse) -> list[GroupSpec]:
    """The catalog specs that satisfy the claim's predicate, in order, then
    each target (parsed by `parse`) that is not among them."""
    pred, targets = CENSUS[theorem]
    specs = [s for s in catalog if pred(s)]
    return specs + [t for t in map(parse, targets) if t not in specs]


def _iff(prop: str, observed: bool, expected: bool, reason_yes: str, reason_no: str):
    if observed != expected:
        reason = reason_yes if expected else reason_no
        yield f"{prop}={observed}", f"{prop}={expected} ({reason})"


def _judge_t34(f: GroupFacts):
    if not f.components_complete:
        yield "some GP component is not complete", "every component complete"
    ncomps = len(f.component_sizes)
    if ncomps != f.subgroups_of_order_p:
        yield (f"{ncomps} GP components",
               f"{f.subgroups_of_order_p} components (= subgroups of order p)")


def _judge_t51(f: GroupFacts):
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


def _planar_breaks(f: GroupFacts):
    if f.planar:
        yield "GP planar", "GP not planar"


def _not_complete(f: GroupFacts):
    if not f.complete:
        yield "GP not complete", "GP complete (cyclic p-group)"


# Each claim's judge: the (observed, expected) pair of each way one record
# breaks it. T3.4 and T5.1 speak of p-groups only.
JUDGES = {
    "T2.2": lambda f: _iff("GP complete", f.complete, f.cyclic and f.p is not None,
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
    "PruferShadow": _not_complete,
}

# (skip_vacuous, conventional) of each claim
FLAGS = {"T3.4": (True, False), "L4.1": (True, True), "L4.2": (True, True), "L4.3": (True, True),
         "T4.4": (True, True)}


def claim_findings(theorem: str, groups: Iterable[tuple[str, GroupFacts, GroupFacts]]
                   ) -> tuple[list[Finding], list[Finding], list[str]]:
    """(counterexamples, discrepancies, vacuous groups) of the claim, judged
    record by record over (group, record, punctured record) triples: a
    group with no vertices is vacuous where the claim skips them, and a
    break is a discrepancy where the claim is conventional and the
    punctured record does not break it."""
    judge = JUDGES[theorem]
    skip_vacuous, conventional = FLAGS.get(theorem, (False, False))
    counterexamples, discrepancies, vacuous = [], [], []
    for group, f, punctured in groups:
        if skip_vacuous and f.v == 0:
            vacuous.append(group)
            continue
        breaks = [Finding(group, observed, expected) for observed, expected in judge(f)]
        if breaks and conventional and not any(judge(punctured)):
            discrepancies.extend(breaks)
        else:
            counterexamples.extend(breaks)
    return counterexamples, discrepancies, vacuous
