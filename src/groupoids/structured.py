"""Groupoids carrying compatible group or vector-space structure.

A group-groupoid equips the element set and the unit set with group
operations that every structure map respects, tied together by the
interchange law (x*y) + (z*t) = (x+z)*(y+t).  Over a prime field the same
data with a scalar action gives a vector-space groupoid.  Each validator
exists in two equivalent forms: a direct checklist of laws, and a
reduction to ordinary groupoid morphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Sequence

from .core import (
    FiniteGroupoid,
    SizeLimitError,
    ValidationReport,
    Violation,
    _generators,
    _greedy_generators,
    _prefixed,
    validate,
)
from .constructions import (
    CYCLIC_ORDER_LIMIT,
    PAIR_BASE_LIMIT,
    GroupTable,
    _bound_products,
    direct_product,
    from_group,
    null_groupoid,
    pair_arrows,
    pair_groupoid_over,
    pair_index,
)
from .morphisms import GroupoidMorphism, validate_morphism

__all__ = [
    "GroupGroupoid",
    "VectorSpaceGroupoid",
    "gf_vector_group",
    "group_as_group_groupoid",
    "is_prime",
    "pair_group_groupoid",
    "pair_vector_space_groupoid",
    "validate_group_groupoid",
    "validate_group_groupoid_as_morphisms",
    "validate_group_groupoid_morphism",
    "validate_vector_space_groupoid",
    "validate_vector_space_groupoid_via_morphisms",
]


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class GroupGroupoid:
    """A groupoid whose elements and units both form groups.

    elem_group is the group on the full element list (labels must match the
    carrier's element order); unit_group is the group on the units, in the
    carrier's unit order.
    """

    def __init__(
        self,
        carrier: FiniteGroupoid,
        elem_group: GroupTable,
        unit_group: GroupTable,
    ):
        if elem_group.labels != carrier.elements:
            raise ValueError("element group labels must match the carrier elements")
        if unit_group.labels != tuple(carrier.elements[u] for u in carrier.units):
            raise ValueError("unit group labels must match the carrier units in order")
        self.carrier = carrier
        self.elem_group = elem_group
        self.unit_group = unit_group

    def __repr__(self) -> str:
        n, m = self.carrier.groupoid_type()
        return f"GroupGroupoid(type ({n};{m}))"

    def add(self, x: int, y: int) -> int:
        return self.elem_group.table[x][y]


def _table_violations(gg: GroupGroupoid) -> list[Violation]:
    """The violations of the two group tables."""
    return (_prefixed(gg.elem_group.validate(), "elem-group")
            + _prefixed(gg.unit_group.validate(), "unit-group"))


def _precheck_violations(gg: GroupGroupoid) -> list[Violation]:
    """The carrier's violations if it is not a groupoid, else those of the
    two group tables; the structured laws are checked only when it is empty."""
    return _prefixed(validate(gg.carrier), "carrier") or _table_violations(gg)


def _precheck_failed(violations: Sequence[Violation]) -> bool:
    """True when a group-groupoid report stopped at its pre-check."""
    return any(x.axiom.startswith(("carrier", "elem-group", "unit-group")) for x in violations)


def _generators_with_identity(t: GroupTable) -> list[int]:
    """The identity of a validated group table followed by greedy
    generators of the group."""
    return [t.identity, *_greedy_generators(
        t.identity, range(t.order), lambda a, s: t.table[a][s])]


def _non_additive_pairs(
    f: Sequence[int], add: Sequence[Sequence[int]], add_to: Sequence[Sequence[int]],
    gens: Sequence[int],
) -> list[tuple[int, int]]:
    """The pairs (x, y), in row-major order, with f(x + y) != f(x) + f(y),
    where + is read from the table ``add`` of the domain and ``add_to`` of
    the codomain.  The pairs (x, s) with s in ``gens`` are checked first,
    and all pairs only when one of them fails.  When both tables are
    groups, the s at which the law holds for every x are closed under +,
    so they form a subgroup, and ``_generators_with_identity`` of the
    domain is enough; on tables that may not be groups, pass every
    element."""
    def failures(ys):
        return [(x, y) for x, row in enumerate(add) for y in ys
                if f[row[y]] != add_to[f[x]][f[y]]]
    return failures(range(len(add))) if failures(gens) else []


def _interchange_on_generators(g: FiniteGroupoid, add: Sequence[Sequence[int]]) -> bool:
    """Whether addition f(x, z) = x + z on a valid carrier G satisfies the
    interchange law f(a*b) == f(a)*f(b) for a in {(s, u), (u, s) : s a
    generator of G, u a unit} and every b composable after a.  The a at
    which it holds for every b are closed under products in G x G and, once
    the structure maps and the unit inclusion are additive, contain its
    units; these a generate G x G, so the law then holds everywhere."""
    gens = _generators(g)
    by_alpha: dict[int, list[int]] = {}
    for y in range(len(g)):
        by_alpha.setdefault(g.alpha[y], []).append(y)
    times: list[dict[int, int]] = [{} for _ in range(len(g))]  # times[x][y] = x*y
    for (x, y), xy in g.mul.items():
        times[x][y] = xy
    for s in gens:
        for u in g.units:
            for x, z in ((s, u), (u, s)):
                ts = by_alpha[g.beta[z]]
                zts = [times[z][t] for t in ts]
                xz_times = times[add[x][z]]
                for y in by_alpha[g.beta[x]]:
                    row, add_y = add[times[x][y]], add[y]
                    if [row[zt] for zt in zts] != [xz_times.get(add_y[t]) for t in ts]:
                        return False
    return True


def validate_group_groupoid(gg: GroupGroupoid) -> ValidationReport:
    """Direct checklist: carrier is a groupoid, both tables are groups, the
    structure maps are homomorphisms, the interchange law holds, and group
    inversion distributes over the partial product.

    Source, target, inversion and the unit inclusion are checked for
    additivity by ``_non_additive_pairs`` at the generators of their
    domain group, and the interchange law at generators of the carrier
    (``_interchange_on_generators``).  The scans over all pairs run only
    when these checks fail, to list every witness."""
    v = _prefixed(validate(gg.carrier), "carrier")
    return ValidationReport(tuple(v)) if v else _group_groupoid_laws(gg)


def _group_groupoid_laws(gg: GroupGroupoid) -> ValidationReport:
    """``validate_group_groupoid`` on a carrier that validates."""
    v = _table_violations(gg)
    if v:
        return ValidationReport(tuple(v))
    g = gg.carrier
    pos = {u: i for i, u in enumerate(g.units)}
    add = gg.elem_group.table
    add0 = gg.unit_group.table
    gens = _generators_with_identity(gg.elem_group)
    for axiom, f, add_to, detail in (
        ("alpha-additive", [pos[u] for u in g.alpha], add0, "source is not additive"),
        ("beta-additive", [pos[u] for u in g.beta], add0, "target is not additive"),
        ("inv-additive", g.inv, add, "groupoid inversion is not additive"),
    ):
        v.extend(Violation(axiom, xy, f"{detail} on this pair")
                 for xy in _non_additive_pairs(f, add, add_to, gens))
    v.sort(key=lambda x: x.witness)  # stable: alpha, beta, inv within each pair
    v.extend(Violation("unit-additive", ij, "unit inclusion is not a homomorphism on this pair")
             for ij in _non_additive_pairs(
                 g.units, add0, add, _generators_with_identity(gg.unit_group)))
    if v or not _interchange_on_generators(g, add):
        for (x, y), xy in g.mul.items():
            for (z, t), zt in g.mul.items():
                lhs = add[xy][zt]
                rhs = g.mul.get((add[x][z], add[y][t]))
                if rhs is None:
                    v.append(Violation(
                        "interchange", (x, y, z, t),
                        "sums of a composable pair of pairs fail to compose"))
                elif lhs != rhs:
                    v.append(Violation(
                        "interchange", (x, y, z, t),
                        "sum of products differs from product of sums"))
    neg = gg.elem_group.inv
    for (x, y), xy in g.mul.items():
        rhs = g.mul.get((neg[x], neg[y]))
        if rhs is None or neg[xy] != rhs:
            v.append(Violation(
                "neg-compat", (x, y),
                "group negation fails to distribute over this product"))
    return ValidationReport(tuple(v))


def validate_group_groupoid_as_morphisms(gg: GroupGroupoid) -> ValidationReport:
    """Equivalent formulation: addition, the identity selection, and
    negation are groupoid morphisms (from the square of the carrier, from a
    one-point groupoid, and from the carrier)."""
    v = _precheck_violations(gg)
    if v:
        return ValidationReport(tuple(v))
    g = gg.carrier
    n = len(g)
    pos = {u: i for i, u in enumerate(g.units)}
    square = direct_product(g, g)
    add_map = [gg.elem_group.table[i // n][i % n] for i in range(n * n)]
    add_unit_map = {}
    for u in g.units:
        for w in g.units:
            add_unit_map[u * n + w] = g.units[gg.unit_group.table[pos[u]][pos[w]]]
    omega = GroupoidMorphism(square, g, add_map, add_unit_map)
    v.extend(_prefixed(validate_morphism(omega), "add"))
    point = null_groupoid(["*"])
    nu = GroupoidMorphism(point, g, [gg.elem_group.identity],
                          {0: g.units[gg.unit_group.identity]})
    v.extend(_prefixed(validate_morphism(nu), "zero"))
    sigma = GroupoidMorphism(g, g, gg.elem_group.inv,
                             {u: g.units[gg.unit_group.inv[pos[u]]] for u in g.units})
    v.extend(_prefixed(validate_morphism(sigma), "neg"))
    return ValidationReport(tuple(v))


def validate_group_groupoid_morphism(
    m: GroupoidMorphism, dom: GroupGroupoid, cod: GroupGroupoid
) -> ValidationReport:
    """A groupoid morphism between group-groupoids that is also additive on
    elements and on units.  Violations of either endpoint, prefixed
    ``domain-`` or ``codomain-``, are reported alone; on valid endpoints
    additivity is checked at generators of the domain groups.  A morphism
    that sends a unit to a non-unit is reported by that alone."""
    if m.domain != dom.carrier or m.codomain != cod.carrier:
        raise ValueError("morphism endpoints must be the carriers of the two structures")
    endpoints = (_prefixed(validate_group_groupoid(dom), "domain")
                 + _prefixed(validate_group_groupoid(cod), "codomain"))
    if endpoints:
        return ValidationReport(tuple(endpoints))
    report = validate_morphism(m)
    if any(x.axiom == "structure" for x in report.violations):
        return report
    v = list(report.violations)
    add = dom.elem_group.table
    v.extend(Violation("additive", xy, "element map is not a group homomorphism here")
             for xy in _non_additive_pairs(m.elem_map, add, cod.elem_group.table,
                                           _generators_with_identity(dom.elem_group)))
    units = dom.carrier.units
    cpos = {u: i for i, u in enumerate(cod.carrier.units)}
    v.extend(Violation("additive-units", (units[i], units[j]),
                       "unit map is not a group homomorphism here")
             for i, j in _non_additive_pairs([cpos[m.unit_map[u]] for u in units],
                                             dom.unit_group.table, cod.unit_group.table,
                                             _generators_with_identity(dom.unit_group)))
    return ValidationReport(tuple(v))


class VectorSpaceGroupoid:
    """A commutative group-groupoid over GF(p) with a scalar action.

    scalar[k][x] is the element k.x; unit_scalar[k][i] acts on unit
    positions.  p must be prime.
    """

    def __init__(
        self,
        structure: GroupGroupoid,
        p: int,
        scalar: Sequence[Sequence[int]],
        unit_scalar: Sequence[Sequence[int]],
    ):
        if not is_prime(p):
            raise ValueError(f"scalar field size must be prime, got {p}")
        n = len(structure.carrier)
        m = len(structure.carrier.units)
        self.structure = structure
        self.p = p
        self.scalar = tuple(tuple(int(x) for x in row) for row in scalar)
        self.unit_scalar = tuple(tuple(int(x) for x in row) for row in unit_scalar)
        if len(self.scalar) != p or any(len(row) != n for row in self.scalar):
            raise ValueError("scalar table must have p rows over the elements")
        if len(self.unit_scalar) != p or any(len(row) != m for row in self.unit_scalar):
            raise ValueError("unit scalar table must have p rows over the unit positions")
        for row in self.scalar:
            for x in row:
                if not 0 <= x < n:
                    raise ValueError("scalar table entry out of range")
        for row in self.unit_scalar:
            for x in row:
                if not 0 <= x < m:
                    raise ValueError("unit scalar table entry out of range")

    @property
    def carrier(self) -> FiniteGroupoid:
        return self.structure.carrier

    def scale(self, k: int, x: int) -> int:
        return self.scalar[k % self.p][x]

    def __repr__(self) -> str:
        n, m = self.carrier.groupoid_type()
        return f"VectorSpaceGroupoid(GF({self.p}), type ({n};{m}))"


def _vector_space_law_violations(v: VectorSpaceGroupoid) -> list[Violation]:
    """Commutativity of both groups and the vector-space axioms for both
    scalar actions, assuming the additive groups already validate.  Each
    k. is checked to distribute over + by ``_non_additive_pairs``, at the
    generators of the group, and only when that fails over all pairs."""
    out: list[Violation] = []
    p = v.p
    gg = v.structure
    if not gg.elem_group.is_commutative():
        out.append(Violation("commutative", (), "element group is not commutative"))
    if not gg.unit_group.is_commutative():
        out.append(Violation("commutative", (), "unit group is not commutative"))
    n = len(gg.carrier)
    m = len(gg.carrier.units)
    for name, size, act, group in (
        ("scalar", n, v.scalar, gg.elem_group),
        ("unit-scalar", m, v.unit_scalar, gg.unit_group),
    ):
        table = group.table
        for x in range(size):
            if act[1 % p][x] != x:
                out.append(Violation(f"{name}-identity", (x,), "1.x differs from x"))
        for k in range(p):
            for l in range(p):
                for x in range(size):
                    if act[k][act[l][x]] != act[(k * l) % p][x]:
                        out.append(Violation(
                            f"{name}-assoc", (k, l, x), "k.(l.x) differs from (kl).x"))
                    if act[(k + l) % p][x] != table[act[k][x]][act[l][x]]:
                        out.append(Violation(
                            f"{name}-distrib", (k, l, x),
                            "(k+l).x differs from k.x + l.x"))
        gens = _generators_with_identity(group)
        for k in range(p):
            out.extend(Violation(f"{name}-distrib-add", (k, x, y),
                                 "k.(x+y) differs from k.x + k.y")
                       for x, y in _non_additive_pairs(act[k], table, table, gens))
    return out


def _linearity_violations(v: VectorSpaceGroupoid) -> list[Violation]:
    """Structure maps commute with the scalar action."""
    out: list[Violation] = []
    g = v.carrier
    pos = {u: i for i, u in enumerate(g.units)}
    for k in range(v.p):
        for x in range(len(g)):
            if pos[g.alpha[v.scalar[k][x]]] != v.unit_scalar[k][pos[g.alpha[x]]]:
                out.append(Violation(
                    "alpha-linear", (k, x), "source does not commute with the action"))
            if pos[g.beta[v.scalar[k][x]]] != v.unit_scalar[k][pos[g.beta[x]]]:
                out.append(Violation(
                    "beta-linear", (k, x), "target does not commute with the action"))
            if g.inv[v.scalar[k][x]] != v.scalar[k][g.inv[x]]:
                out.append(Violation(
                    "inv-linear", (k, x), "inversion does not commute with the action"))
        for i, u in enumerate(g.units):
            if v.scalar[k][u] != g.units[v.unit_scalar[k][i]]:
                out.append(Violation(
                    "unit-linear", (k, i),
                    "unit inclusion does not commute with the action"))
    return out


def validate_vector_space_groupoid(v: VectorSpaceGroupoid) -> ValidationReport:
    """Direct checklist: a commutative group-groupoid, vector-space axioms
    for both actions, linear structure maps, and the interchange law."""
    carrier = _prefixed(validate(v.carrier), "carrier")
    return ValidationReport(tuple(carrier)) if carrier else _vector_space_laws(v)


def _vector_space_laws(v: VectorSpaceGroupoid) -> ValidationReport:
    """``validate_vector_space_groupoid`` on a carrier that validates."""
    out = list(_group_groupoid_laws(v.structure).violations)
    if _precheck_failed(out):
        return ValidationReport(tuple(out))
    out.extend(_vector_space_law_violations(v))
    out.extend(_linearity_violations(v))
    return ValidationReport(tuple(out))


def validate_vector_space_groupoid_via_morphisms(v: VectorSpaceGroupoid) -> ValidationReport:
    """Equivalent formulation: both scalar structures are vector spaces,
    the carrier is a commutative group-groupoid in the morphism sense, and
    the action is a groupoid morphism from (scalars, carrier) pairs with
    scalars as a null groupoid."""
    base = validate_group_groupoid_as_morphisms(v.structure)
    out = list(base.violations)
    if _precheck_failed(out):
        return ValidationReport(tuple(out))
    out.extend(_vector_space_law_violations(v))
    g = v.carrier
    n = len(g)
    scalars = null_groupoid([str(k) for k in range(v.p)])
    square = direct_product(scalars, g)
    act_map = [v.scalar[i // n][i % n] for i in range(v.p * n)]
    act_unit_map = {}
    for k in range(v.p):
        for i, u in enumerate(g.units):
            act_unit_map[k * n + u] = g.units[v.unit_scalar[k][i]]
    action = GroupoidMorphism(square, g, act_map, act_unit_map)
    out.extend(_prefixed(validate_morphism(action), "action"))
    return ValidationReport(tuple(out))


# ----- canonical models ----------------------------------------------------


def group_as_group_groupoid(t: GroupTable) -> GroupGroupoid:
    """A group as a one-unit groupoid with itself as the ambient group.
    Validates exactly when t is commutative: the interchange law then
    collapses to commutativity."""
    carrier = from_group(t)
    unit_group = GroupTable.build([t.labels[t.identity]], [[0]], 0, [0])
    return GroupGroupoid(carrier, t, unit_group)


def pair_group_groupoid(t: GroupTable) -> GroupGroupoid:
    """The pair groupoid on a group's elements with componentwise addition
    of arrows; the canonical valid group-groupoid.  Its addition table has
    |G|^4 entries; raises SizeLimitError above ``PRODUCT_MUL_LIMIT`` of
    them, before building."""
    n = t.order
    _bound_products("pair group-groupoid addition table", n ** 4, f"{n * n} x {n * n}")
    t.validate().require("not a group")
    carrier = pair_groupoid_over(t.labels)
    pairs = pair_arrows(n)
    table = [
        [pair_index(n, t.table[a][c], t.table[b][d]) for (c, d) in pairs]
        for (a, b) in pairs
    ]
    elem_group = GroupTable.build(
        labels=carrier.elements,
        table=table,
        identity=pair_index(n, t.identity, t.identity),
        inv=[pair_index(n, t.inv[a], t.inv[b]) for (a, b) in pairs],
    )
    unit_group = GroupTable.build(
        labels=tuple(carrier.elements[u] for u in carrier.units),
        table=t.table,
        identity=t.identity,
        inv=t.inv,
    )
    return GroupGroupoid(carrier, elem_group, unit_group)


def _bound_vector_count(p: int, dim: int, limit: int, what: str) -> None:
    """Refuse GF(p)^dim with more than ``limit`` vectors without working out
    a large p ** dim: every p >= 2 has p ** dim >= 2 ** dim.  Arguments that
    name no vector space (p < 2 or dim < 1) pass, for the ValueErrors that
    follow."""
    if p >= 2 and dim >= 1 and (
            p > limit or dim >= limit.bit_length() or p ** dim > limit):
        raise SizeLimitError(f"{what} limited to {limit} points, got {p}^{dim}")


def gf_vector_group(p: int, dim: int) -> GroupTable:
    """The additive group of GF(p)^dim; coordinates joined with commas for
    dim at least 2.  Raises SizeLimitError above ``CYCLIC_ORDER_LIMIT``
    vectors, before testing p for primality."""
    _bound_vector_count(p, dim, CYCLIC_ORDER_LIMIT, "GF(p)^dim")
    if not is_prime(p):
        raise ValueError(f"field size must be prime, got {p}")
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    vectors = list(iter_product(range(p), repeat=dim))
    index = {vec: i for i, vec in enumerate(vectors)}

    def label(vec):
        return str(vec[0]) if dim == 1 else ",".join(str(c) for c in vec)

    return GroupTable.build(
        labels=[label(vec) for vec in vectors],
        table=[
            [index[tuple((a + b) % p for a, b in zip(v, w))] for w in vectors]
            for v in vectors
        ],
        identity=index[(0,) * dim],
        inv=[index[tuple((-a) % p for a in v)] for v in vectors],
    )


def pair_vector_space_groupoid(p: int, dim: int) -> VectorSpaceGroupoid:
    """The pair groupoid on GF(p)^dim with componentwise addition and
    scalar action; the canonical valid vector-space groupoid.  Raises
    SizeLimitError above ``PAIR_BASE_LIMIT`` base points or
    ``PRODUCT_MUL_LIMIT`` addition-table entries, before building."""
    _bound_vector_count(p, dim, PAIR_BASE_LIMIT, "pair vector-space groupoid base")
    t = gf_vector_group(p, dim)
    gg = pair_group_groupoid(t)
    n = t.order
    vectors = list(iter_product(range(p), repeat=dim))
    vec_index = {vec: i for i, vec in enumerate(vectors)}
    vec_scale = [
        [vec_index[tuple((k * a) % p for a in vec)] for vec in vectors]
        for k in range(p)
    ]
    pairs = pair_arrows(n)
    scalar = [
        [pair_index(n, vec_scale[k][a], vec_scale[k][b]) for (a, b) in pairs]
        for k in range(p)
    ]
    unit_scalar = [[vec_scale[k][i] for i in range(n)] for k in range(p)]
    return VectorSpaceGroupoid(gg, p, scalar, unit_scalar)
