"""Groupoids carrying compatible group or vector-space structure.

A group-groupoid equips the element set and the unit set with group
operations that every structure map respects, tied together by the
interchange law (x*y) + (z*t) = (x+z)*(y+t).  Over a prime field the same
data with a scalar action gives a vector-space groupoid.  Each validator
exists in two equivalent forms: a direct checklist of laws, and a
reduction to ordinary groupoid morphisms.

Every public validator first validates each carrier once, with
``validate``, and the group tables with ``GroupTable.validate``; the law
checks after that trust their input, and the morphism forms run only
``morphisms._morphism_laws``.  The constructors check shapes and ranges,
not laws; ``pair_group_groupoid`` validates its group, and
``group_as_group_groupoid`` trusts it.  Each law lists its witnesses from
the check that decides it: additivity and products at generators,
interchange by the Brown-Spencer criterion.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Sequence

from .core import (
    FiniteGroupoid,
    SizeLimitError,
    ValidationReport,
    Violation,
    _greedy_generators,
    _ints,
    _prefixed,
    validate,
)
from .constructions import (
    CYCLIC_ORDER_LIMIT,
    PAIR_BASE_LIMIT,
    GroupTable,
    _bound_products,
    _pair_grid,
    direct_product,
    from_group,
    null_groupoid,
    pair_arrows,
    pair_groupoid_over,
)
from .morphisms import GroupoidMorphism, _morphism_laws, _unit_map_violations

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


def _generators_with_identity(t: GroupTable) -> list[int]:
    """The identity of a validated group table and greedy generators of
    the group, ascending."""
    return sorted([t.identity, *_greedy_generators(
        t.identity, range(t.order), lambda a, s: t.table[a][s])])


def _non_additive_pairs(
    f: Sequence[int], add: Sequence[Sequence[int]], add_to: Sequence[Sequence[int]],
    gens: Sequence[int],
) -> list[tuple[int, int]]:
    """The pairs (x, s) with s in ``gens`` and f(x + s) != f(x) + f(s), in
    row-major order for ascending ``gens``, where + is read from the
    table ``add`` of the domain and ``add_to`` of the codomain.  When both
    tables are groups, the s at which the law holds for every x are closed
    under +, so they form a subgroup, and with ``_generators_with_identity``
    of the domain the list is empty exactly when f is additive."""
    return [(x, s) for x, row in enumerate(add) for s in gens
            if f[row[s]] != add_to[f[x]][f[s]]]


def _interchange_violations(gg: GroupGroupoid) -> list[Violation]:
    """Instances (x, y, z, t) at which the interchange law
    (x*y) + (z*t) == (x+z)*(y+t) fails, on a valid carrier whose two tables
    are groups and whose source, target and unit inclusion are additive.
    Units are read as elements, - is the element group's inverse and 0 its
    identity, which is then the zero unit.  Interchange holds exactly when
    (Brown-Spencer)

      (a) x*y == x - beta(x) + y on every product, and
      (b) a + b == b + a for every a with alpha(a) == 0 and b with beta(b) == 0.

    <= : additivity makes (x+z, y+t) composable, (x*y) + (z*t) =
    x + (-beta(x) + y) + (z - beta(z)) + t by (a), and (x+z)*(y+t) =
    x + (z - beta(z)) + (-beta(x) + y) + t by (a) and additivity;
    -beta(x) + y lies in ker alpha and z - beta(z) in ker beta, so (b)
    makes the two equal.
    => : x*y = (x+0)*(beta(x) + (-beta(x) + y)) =
    (x*beta(x)) + (0*(-beta(x) + y)) = x - beta(x) + y, and for a, b as
    in (b), a + b = (0*a) + (b*0) = (0+b)*(a+0) = b*a = b - beta(b) + a
    = b + a.

    The witnesses are those two derivations.  For each product x*y that
    fails (a), in table order, (x, beta(x), 0, -beta(x) + y): both pairs
    compose, since -beta(x) + y lies in ker alpha, their sums are (x, y),
    and the two sides are x - beta(x) + y and x*y.  Only when (a) holds,
    for each pair of (b) that fails, (0, a, b, 0): the two sides are
    a + b and b*a = b + a.  Each list is at most as long as the products,
    since every (b, a) of ker beta x ker alpha composes.

    This reads each product once and each pair of the two kernels once."""
    g, t = gg.carrier, gg.elem_group
    add, neg, zero = t.table, t.inv, t.identity
    detail = "sum of products differs from product of sums"
    left = [add[x][neg[b]] for x, b in enumerate(g.beta)]  # x - beta(x)
    ker_beta = [b for b, u in enumerate(g.beta) if u == zero]
    failing = [Violation("interchange", (x, g.beta[x], zero, add[neg[g.beta[x]]][y]), detail)
               for x, row in enumerate(g.rows) for y, xy in row.items() if add[left[x]][y] != xy]
    return failing or [Violation("interchange", (zero, a, b, zero), detail)
                       for a, u in enumerate(g.alpha) if u == zero
                       for b in ker_beta if add[a][b] != add[b][a]]


def validate_group_groupoid(gg: GroupGroupoid) -> ValidationReport:
    """Direct checklist: carrier is a groupoid, both tables are groups, the
    structure maps are homomorphisms and the interchange law holds; group
    inversion then distributes over the partial product.

    Source, target, inversion and the unit inclusion are checked for
    additivity by ``_non_additive_pairs``, whose failures at the generators
    of their domain group are the witnesses.  Once source, target and unit
    inclusion are additive, ``_interchange_violations`` decides the
    interchange law and lists its witnesses in one pass over the products
    and the two kernels: at most one witness per product."""
    return ValidationReport(tuple(_precheck_violations(gg) or _group_groupoid_law_violations(gg)))


def _group_groupoid_laws(gg: GroupGroupoid) -> ValidationReport:
    """``validate_group_groupoid`` on a carrier that validates."""
    return ValidationReport(tuple(_table_violations(gg) or _group_groupoid_law_violations(gg)))


def _group_groupoid_law_violations(gg: GroupGroupoid) -> list[Violation]:
    """The laws of ``validate_group_groupoid`` on a valid carrier whose two
    tables are groups.

    Negation is not listed, since the other laws imply it: source and
    target are additive, so for every product x*y beta(-x) = -beta(x) =
    -alpha(y) = alpha(-y) and (-x, -y) composes; the unit inclusion is
    additive, so 0 is the zero unit; and interchange gives (x*y) + (-x * -y)
    = (x - x)*(y - y) = 0*0 = 0, so -x * -y = -(x*y)."""
    g = gg.carrier
    pos = {u: i for i, u in enumerate(g.units)}
    add, add0 = gg.elem_group.table, gg.unit_group.table
    gens = _generators_with_identity(gg.elem_group)
    source, target, inverse = (_non_additive_pairs(f, add, add_to, gens) for f, add_to in (
        ([pos[u] for u in g.alpha], add0), ([pos[u] for u in g.beta], add0), (g.inv, add)))
    unit = _non_additive_pairs(g.units, add0, add, _generators_with_identity(gg.unit_group))
    v = sorted((Violation(axiom, xy, f"{detail} on this pair") for axiom, pairs, detail in (
        ("alpha-additive", source, "source is not additive"),
        ("beta-additive", target, "target is not additive"),
        ("inv-additive", inverse, "groupoid inversion is not additive")) for xy in pairs),
        key=lambda x: x.witness)  # stable: alpha, beta, inv within each pair
    v.extend(Violation("unit-additive", ij, "unit inclusion is not a homomorphism on this pair")
             for ij in unit)
    if not (source or target or unit):  # the hypotheses of the criterion
        v.extend(_interchange_violations(gg))
    return v


def validate_group_groupoid_as_morphisms(gg: GroupGroupoid) -> ValidationReport:
    """Equivalent formulation: addition, the identity selection, and
    negation are groupoid morphisms (from the square of the carrier, from a
    one-point groupoid, and from the carrier)."""
    return ValidationReport(tuple(_precheck_violations(gg) or _structure_morphism_violations(gg)))


def _structure_morphism_violations(gg: GroupGroupoid) -> list[Violation]:
    """The laws of the add, zero and neg morphisms, on a valid carrier
    whose two tables are groups.  Their domains are then groupoids too,
    since products and null groupoids of groupoids are, and their unit maps
    take unit values by construction, so only ``_morphism_laws`` runs."""
    g, t, t0 = gg.carrier, gg.elem_group, gg.unit_group
    n = len(g)
    pos = {u: i for i, u in enumerate(g.units)}
    omega = GroupoidMorphism(
        direct_product(g, g), g, [s for row in t.table for s in row],
        {u * n + w: g.units[t0.table[pos[u]][pos[w]]] for u in g.units for w in g.units})
    nu = GroupoidMorphism(null_groupoid(["*"]), g, [t.identity], {0: g.units[t0.identity]})
    sigma = GroupoidMorphism(g, g, t.inv, {u: g.units[t0.inv[pos[u]]] for u in g.units})
    return (_prefixed(_morphism_laws(omega), "add") + _prefixed(_morphism_laws(nu), "zero")
            + _prefixed(_morphism_laws(sigma), "neg"))


def validate_group_groupoid_morphism(
    m: GroupoidMorphism, dom: GroupGroupoid, cod: GroupGroupoid
) -> ValidationReport:
    """A groupoid morphism between group-groupoids that is also additive on
    elements and on units.  Violations of either endpoint, prefixed
    ``domain-`` or ``codomain-``, are reported alone, and so is a unit-map
    value that is not a unit; each endpoint is validated once, by
    ``validate_group_groupoid``.  Additivity is checked at generators of
    the domain groups."""
    if m.domain != dom.carrier or m.codomain != cod.carrier:
        raise ValueError("morphism endpoints must be the carriers of the two structures")
    v = (_prefixed(validate_group_groupoid(dom), "domain")
         + _prefixed(validate_group_groupoid(cod), "codomain") or _unit_map_violations(m))
    if v:
        return ValidationReport(tuple(v))
    v = list(_morphism_laws(m).violations)
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
        self.scalar = tuple(_ints("scalar", row) for row in scalar)
        self.unit_scalar = tuple(_ints("unit_scalar", row) for row in unit_scalar)
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
    generators of the group."""
    p, gg = v.p, v.structure
    out = [Violation("commutative", (), f"{which} group is not commutative")
           for which, group in (("element", gg.elem_group), ("unit", gg.unit_group))
           if not group.is_commutative()]
    for name, act, group in (("scalar", v.scalar, gg.elem_group),
                             ("unit-scalar", v.unit_scalar, gg.unit_group)):
        table = group.table
        out.extend(Violation(f"{name}-identity", (x,), "1.x differs from x")
                   for x in range(group.order) if act[1 % p][x] != x)
        for k, l, x in iter_product(range(p), range(p), range(group.order)):
            if act[k][act[l][x]] != act[(k * l) % p][x]:
                out.append(Violation(f"{name}-assoc", (k, l, x), "k.(l.x) differs from (kl).x"))
            if act[(k + l) % p][x] != table[act[k][x]][act[l][x]]:
                out.append(Violation(
                    f"{name}-distrib", (k, l, x), "(k+l).x differs from k.x + l.x"))
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
    out = _table_violations(v.structure) or (
        _group_groupoid_law_violations(v.structure) + _vector_space_law_violations(v)
        + _linearity_violations(v))
    return ValidationReport(tuple(out))


def validate_vector_space_groupoid_via_morphisms(v: VectorSpaceGroupoid) -> ValidationReport:
    """Equivalent formulation: both scalar structures are vector spaces,
    the carrier is a commutative group-groupoid in the morphism sense, and
    the action is a groupoid morphism from (scalars, carrier) pairs with
    scalars as a null groupoid."""
    out = _precheck_violations(v.structure)
    if out:
        return ValidationReport(tuple(out))
    g = v.carrier
    n = len(g)
    action = GroupoidMorphism(
        direct_product(null_groupoid([str(k) for k in range(v.p)]), g),
        g, [x for row in v.scalar for x in row],
        {k * n + u: g.units[v.unit_scalar[k][i]] for k in range(v.p) for i, u in enumerate(g.units)})
    return ValidationReport(tuple(
        _structure_morphism_violations(v.structure) + _vector_space_law_violations(v)
        + _prefixed(_morphism_laws(action), "action")))


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
    at = _pair_grid(n)
    # (a, b) + (c, d) = (a + c, b + d)
    table = [[at[ta[c]][tb[d]] for c, d in pairs]
             for ta, tb in ((t.table[a], t.table[b]) for a, b in pairs)]
    elem_group = GroupTable.build(
        labels=carrier.elements,
        table=table,
        identity=at[t.identity][t.identity],
        inv=[at[t.inv[a]][t.inv[b]] for a, b in pairs],
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
    # k.v as the k-fold sum v + ... + v, so (k+1).v = k.v + v
    vec_scale = [[t.identity] * n]
    for _ in range(1, p):
        vec_scale.append([t.table[kv][v] for v, kv in enumerate(vec_scale[-1])])
    pairs = pair_arrows(n)
    at = _pair_grid(n)
    scalar = [[at[scale[a]][scale[b]] for a, b in pairs] for scale in vec_scale]
    unit_scalar = [[vec_scale[k][i] for i in range(n)] for k in range(p)]
    return VectorSpaceGroupoid(gg, p, scalar, unit_scalar)
