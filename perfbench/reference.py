"""Group constructions and brute-force answers kept independent of gpgraph.

Every group here is a set of hashable elements with an explicit
multiplication, built from its textbook presentation. Answers are computed
with Python sets over cyclic subgroups, never with gpgraph code, so they can
check gpgraph's outputs. They are isomorphism invariants (vertex and edge
counts, completeness, components), so element labelling does not matter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable


@dataclass(frozen=True)
class Group:
    elements: tuple
    identity: Hashable
    mul: Callable


def cyclic(n: int) -> Group:
    return Group(tuple(range(n)), 0, lambda a, b: (a + b) % n)


def abelian(factors: tuple[int, ...]) -> Group:
    elems = tuple(itertools.product(*(range(d) for d in factors)))
    return Group(elems, elems[0],
                 lambda a, b: tuple((x + y) % d for x, y, d in zip(a, b, factors)))


def dihedral(m: int) -> Group:
    # Symmetries of the m-gon as (r, f): x -> (-1)^f x + r on Z_m.
    def mul(a, b):
        r1, f1 = a
        r2, f2 = b
        return ((r1 + (-r2 if f1 else r2)) % m, f1 ^ f2)
    return Group(tuple((r, f) for f in (0, 1) for r in range(m)), (0, 0), mul)


def dicyclic(m: int) -> Group:
    # <a, b | a^2m = 1, b^2 = a^m, b^-1 a b = a^-1>, elements a^i b^j as (i, j).
    def mul(x, y):
        i1, j1 = x
        i2, j2 = y
        i = i1 + (-i2 if j1 else i2) + (m if j1 and j2 else 0)
        return (i % (2 * m), j1 ^ j2)
    return Group(tuple((i, j) for j in (0, 1) for i in range(2 * m)), (0, 0), mul)


def heisenberg(p: int) -> Group:
    # Upper unitriangular 3x3 matrices over F_p, multiplied as matrices.
    def mul(x, y):
        a1, b1, c1 = x
        a2, b2, c2 = y
        return ((a1 + a2) % p, (b1 + b2) % p, (c1 + c2 + a1 * b2) % p)
    return Group(tuple(itertools.product(range(p), repeat=3)), (0, 0, 0), mul)


def symmetric(d: int) -> Group:
    def mul(x, y):
        return tuple(x[i] for i in y)
    return Group(tuple(itertools.permutations(range(d))), tuple(range(d)), mul)


def product(g: Group, h: Group) -> Group:
    return Group(
        tuple(itertools.product(g.elements, h.elements)),
        (g.identity, h.identity),
        lambda a, b: (g.mul(a[0], b[0]), h.mul(a[1], b[1])),
    )


# A spec is a nested tuple: (family, *params) or ("product", spec, spec).
_FAMILIES = {
    "cyclic": lambda n: cyclic(n),
    "abelian": lambda *fs: abelian(fs),
    "elemab": lambda p, k: abelian((p,) * k),
    "dihedral": lambda m: dihedral(m),
    "dicyclic": lambda m: dicyclic(m),
    "gq": lambda n: dicyclic(n // 4),
    "heisenberg": lambda p: heisenberg(p),
    "symmetric": lambda d: symmetric(d),
}


def construct(spec: tuple) -> Group:
    if spec[0] == "product":
        return product(construct(spec[1]), construct(spec[2]))
    return _FAMILIES[spec[0]](*spec[1:])


def parse(text: str) -> tuple:
    """Spec tuple of gpgraph's one-line syntax, e.g. `product:(dihedral:5)x(cyclic:12)`."""
    family, rest = text.split(":", 1)
    if family != "product":
        return (family, *(int(p) for p in rest.split(",")))
    depth, cut = 0, None
    for i, ch in enumerate(rest):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if depth == 0 and ch == "x":
            cut = i
            break
    return ("product", parse(rest[1:cut - 1]), parse(rest[cut + 2:-1]))


def spec_text(spec: tuple) -> str:
    """Inverse of parse()."""
    if spec[0] == "product":
        return f"product:({spec_text(spec[1])})x({spec_text(spec[2])})"
    return f"{spec[0]}:{','.join(str(p) for p in spec[1:])}"


def cayley_rows(group: Group, labels: list) -> list[list[int]]:
    """Multiplication table over the given element order (labels[i] is element i)."""
    index = {x: i for i, x in enumerate(labels)}
    mul = group.mul
    return [[index[mul(x, y)] for y in labels] for x in labels]


def _cyclic_subgroups(group: Group) -> dict:
    e, mul = group.identity, group.mul
    out = {}
    for x in group.elements:
        powers = {e}
        y = x
        while y != e:
            powers.add(y)
            y = mul(y, x)
        out[x] = frozenset(powers)
    return out


def query_answer(spec: tuple, convention: str) -> dict:
    """What a check of `spec` under `convention` must report, by brute force.

    Vertices follow the convention; GP joins x, y when <x> and <y> share a
    non-identity element; P joins them when one lies in the other's cyclic
    subgroup.
    """
    group = construct(spec)
    e = group.identity
    n = len(group.elements)
    cyc = _cyclic_subgroups(group)
    if convention == "full":
        verts = list(group.elements)
    elif convention == "punctured":
        verts = [x for x in group.elements if x != e]
    elif convention == "strict":
        verts = [x for x in group.elements if x != e and len(cyc[x]) != n]
    elif convention == "strict-id":
        verts = [x for x in group.elements if len(cyc[x]) != n]
    else:
        raise ValueError(f"unknown convention {convention!r}")

    v = len(verts)
    nontrivial = [cyc[x] - {e} for x in verts]
    parent = list(range(v))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    gp_edges = pg_edges = 0
    edge_ends = []
    for i in range(v):
        a, ca, xa = nontrivial[i], cyc[verts[i]], verts[i]
        for j in range(i + 1, v):
            if not a.isdisjoint(nontrivial[j]):
                gp_edges += 1
                edge_ends.append(i)
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
            xb = verts[j]
            if xb in ca or xa in cyc[xb]:
                pg_edges += 1
    sizes: dict[int, int] = {}
    for i in range(v):
        r = find(i)
        sizes[r] = sizes.get(r, 0) + 1
    inner: dict[int, int] = {}
    for i in edge_ends:
        r = find(i)
        inner[r] = inner.get(r, 0) + 1
    return {
        "v": v,
        "e": gp_edges,
        "complete": gp_edges == v * (v - 1) // 2,
        "components": len(sizes),
        "components_complete": all(inner.get(r, 0) == s * (s - 1) // 2 for r, s in sizes.items()),
        "pg_v": v,
        "pg_e": pg_edges,
    }


# What `gpgraph verify --max-order N` (conventions strict and punctured)
# must report for any N >= 25, as the paper's claims predict it. Every claim holds under
# punctured. Under strict, Z_8, Z_9, Z_10, Z_15 and Z_25 lose their generator
# vertices and come out planar: T4.4 and L4.3 record them as discrepancies
# (the punctured reading agrees), which never change a verdict.
THEOREMS = ("T2.2", "T3.1", "T3.4", "L4.1", "L4.2", "L4.3", "T4.4", "T5.1", "T5.2",
            "PruferShadow")
VERIFY_VERDICTS = {(t, c): "Confirmed" for t in THEOREMS for c in ("strict", "punctured")}
VERIFY_DISCREPANCIES = {
    ("T4.4", "strict"): {"cyclic:8", "cyclic:9", "cyclic:10", "cyclic:15", "cyclic:25"},
    ("L4.3", "strict"): {"cyclic:10", "cyclic:15"},
}


def verify_report_errors(reports: list[dict]) -> list[str]:
    """Disagreements between a canonical verify report and the table above."""
    errors = []
    seen = {}
    for r in reports:
        key = (r["theorem"], r["convention"])
        seen[key] = r
        if VERIFY_VERDICTS.get(key) != r["verdict"]:
            errors.append(f"{key}: verdict {r['verdict']}, expected {VERIFY_VERDICTS.get(key)}")
        groups = {d["group"] for d in r["discrepancies"]}
        if groups != VERIFY_DISCREPANCIES.get(key, set()):
            errors.append(f"{key}: discrepancies {sorted(groups)}")
    missing = set(VERIFY_VERDICTS) - set(seen)
    if missing:
        errors.append(f"missing reports {sorted(missing)}")
    return errors
