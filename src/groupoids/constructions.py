"""Constructors for finite groupoids and the group tables that feed them.

The builders from parameters (``pair_groupoid``, ``pair_groupoid_over``,
``null_groupoid``, ``cyclic_group``) check their arguments and sizes, and
``from_group`` validates its group table.  ``group_table_of`` refuses a
groupoid that is not one group and validates the table it reads.  The
combinators trust that their arguments obey the groupoid laws:
``direct_product`` and ``whitney_sum`` refuse, with ValueError, a source
or target that is not a unit; ``disjoint_union``, ``induced_groupoid``
and ``left_translation_groupoid`` refuse a unit, source, target, inverse
or product index out of range, and the last two also what their own
construction cannot use (a map off the base, equal translations).  No
combinator calls ``validate``; validate the inputs first where they may
break a law.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

from .core import FiniteGroupoid, GroupTable, SizeLimitError, _range_violations
from .quasiperm import Quasipermutation

__all__ = [
    "GroupTable",
    "cyclic_group",
    "direct_product",
    "disjoint_union",
    "from_group",
    "group_table_of",
    "induced_groupoid",
    "induced_triples",
    "klein_four_group",
    "left_translation_groupoid",
    "null_groupoid",
    "pair_groupoid",
    "pair_groupoid_over",
    "pair_index",
    "whitney_sum",
]

PAIR_BASE_LIMIT = 64
NULL_UNIT_LIMIT = PAIR_BASE_LIMIT ** 2  # as many elements as the largest pair groupoid
CYCLIC_ORDER_LIMIT = 256
PRODUCT_MUL_LIMIT = 5_874_516  # the product count of the degree-6 quasipermutation groupoid


def _bound_products(what: str, count: int, got: str = "") -> None:
    """Refuse a construction with more than ``PRODUCT_MUL_LIMIT`` products;
    called with the count worked out before any table is built."""
    if count > PRODUCT_MUL_LIMIT:
        raise SizeLimitError(
            f"{what} limited to {PRODUCT_MUL_LIMIT} products, got {got or count}")


def _bound_pair_base(points: int) -> None:
    """Refuse a pair groupoid on more than ``PAIR_BASE_LIMIT`` points."""
    if points > PAIR_BASE_LIMIT:
        raise SizeLimitError(f"pair groupoid limited to {PAIR_BASE_LIMIT} points, got {points}")


def _bound_null_units(units: int) -> None:
    """Refuse a null groupoid on more than ``NULL_UNIT_LIMIT`` units."""
    if units > NULL_UNIT_LIMIT:
        raise SizeLimitError(f"null groupoid limited to {NULL_UNIT_LIMIT} units, got {units}")


def group_table_of(g: FiniteGroupoid) -> GroupTable:
    """Read a one-unit groupoid back as a group table: the isotropy group at
    its unit, which every element must be a loop at."""
    if len(g.units) != 1:
        raise ValueError(f"expected one unit, got {len(g.units)}")
    u = g.units[0]
    if len(g.isotropy_members(u)) != len(g):
        raise ValueError(f"not every element is a loop at the unit {g.elements[u]}; not a group")
    return g.isotropy_group(u)


def cyclic_group(n: int) -> GroupTable:
    """The cyclic group of order n, written additively with labels 0..n-1.
    Raises SizeLimitError above ``CYCLIC_ORDER_LIMIT``, before building."""
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    if n > CYCLIC_ORDER_LIMIT:
        raise SizeLimitError(f"cyclic group order limited to {CYCLIC_ORDER_LIMIT}, got {n}")
    return GroupTable.build(
        labels=[str(i) for i in range(n)],
        table=[[(i + j) % n for j in range(n)] for i in range(n)],
        identity=0,
        inv=[(-i) % n for i in range(n)],
    )


def klein_four_group() -> GroupTable:
    """The Klein four-group with labels e, a, b, ab."""
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    return GroupTable.build(["e", "a", "b", "ab"], table, 0, [0, 1, 2, 3])


# ----- elementary groupoids ------------------------------------------------


def pair_index(n: int, i: int, j: int) -> int:
    """Position of the arrow (i, j), 0-based points, in the pair groupoid
    element order: the n diagonal units first, then the off-diagonal pairs
    lexicographically."""
    if i == j:
        return i
    # off-diagonal rank of (i, j) in lexicographic order without the diagonal
    return n + i * (n - 1) + j - (1 if j > i else 0)


def pair_arrows(n: int) -> list[tuple[int, int]]:
    """The arrows (i, j) of the pair groupoid on n points in element order,
    so that ``pair_arrows(n)[pair_index(n, i, j)] == (i, j)``."""
    return [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(n) if i != j]


def _pair_grid(n: int) -> list[list[int]]:
    """``pair_index(n, i, j)`` at ``[i][j]``, worked out once for a builder
    that reads a pair position per table cell."""
    return [[pair_index(n, i, j) for j in range(n)] for i in range(n)]


def pair_groupoid_over(points: Sequence[str]) -> FiniteGroupoid:
    """The pair groupoid on the given base points.

    Arrows are ordered pairs (x, y); (x, y) * (y, z) = (x, z) and the
    inverse of (x, y) is (y, x).  Units are the diagonal pairs and come
    first in the element order.  Raises SizeLimitError above
    ``PAIR_BASE_LIMIT`` points, before building.
    """
    pts = list(points)
    if not pts:
        raise ValueError("pair groupoid needs at least one point")
    _bound_pair_base(len(pts))
    if len(set(pts)) != len(pts):
        raise ValueError("pair groupoid points must be distinct")
    n = len(pts)
    pairs = pair_arrows(n)
    at = _pair_grid(n)
    return FiniteGroupoid._typed(
        elements=[f"({pts[i]},{pts[j]})" for i, j in pairs],
        units=list(range(n)),
        # the unit at point i is element i
        alpha=[i for i, j in pairs],
        beta=[j for i, j in pairs],
        inv=[at[j][i] for i, j in pairs],
        # (i, j) * (j, l) = (i, l), for l in order
        rows=[dict(zip(at[j], at[i])) for i, j in pairs],
        base_labels={i: pts[i] for i in range(n)},
    )


def pair_groupoid(n: int) -> FiniteGroupoid:
    """The pair groupoid on the points 1..n; type (n^2; n).  Raises
    SizeLimitError above ``PAIR_BASE_LIMIT`` points, before making any
    label."""
    if n < 1:
        raise ValueError("pair groupoid needs at least one point")
    _bound_pair_base(n)
    return pair_groupoid_over([str(i) for i in range(1, n + 1)])


def null_groupoid(labels: Sequence[str]) -> FiniteGroupoid:
    """The groupoid of units only: every element is its own source, target
    and inverse, and the only products are u*u = u.  Raises SizeLimitError
    above ``NULL_UNIT_LIMIT`` labels, before building."""
    pts = list(labels)
    if not pts:
        raise ValueError("null groupoid needs at least one label")
    _bound_null_units(len(pts))
    if len(set(pts)) != len(pts):
        raise ValueError("null groupoid labels must be distinct")
    n = len(pts)
    idx = list(range(n))
    return FiniteGroupoid._typed(
        elements=pts,
        units=idx,
        alpha=idx,
        beta=idx,
        inv=idx,
        rows=[{i: i} for i in idx],
    )


def from_group(t: GroupTable) -> FiniteGroupoid:
    """A group as a groupoid with a single unit; every pair is composable."""
    t.validate().require("not a group")
    n = t.order
    return FiniteGroupoid._typed(
        elements=t.labels,
        units=[t.identity],
        alpha=[t.identity] * n,
        beta=[t.identity] * n,
        inv=t.inv,
        rows=[dict(enumerate(row)) for row in t.table],
    )


# ----- combinators ---------------------------------------------------------


def _require_unit_anchors(what: str, *factors: FiniteGroupoid) -> None:
    """Raise ValueError naming the first element of a factor whose source or
    target is not a unit; one pass over ``alpha`` and ``beta``, not a
    ``validate``."""
    for g in factors:
        for end, anchors in (("source", g.alpha), ("target", g.beta)):
            if not g._unit_set.issuperset(anchors):
                x = next(x for x, u in enumerate(anchors) if u not in g._unit_set)
                raise ValueError(f"{what} needs groupoids: the {end} of element "
                                 f"{g.elements[x]!r} is {anchors[x]}, not a unit")


def _require_in_range(what: str, *factors: FiniteGroupoid) -> None:
    """Raise ValueError naming the first unit, alpha, beta, inv or product
    entry of a factor that is out of range; the range checks of
    ``validate`` (``_range_violations``), not the laws."""
    for g in factors:
        v = _range_violations(g, "structure")
        if v:
            raise ValueError(f"{what} needs groupoids: {v[0]}")


def disjoint_union(*factors: FiniteGroupoid) -> FiniteGroupoid:
    """The disjoint union of groupoids; elements are tagged copies, and no
    cross-factor pair is composable.  Raises SizeLimitError when it would
    have more than ``PRODUCT_MUL_LIMIT`` products, before building, and
    ValueError when an index of a factor is out of range."""
    if not factors:
        raise ValueError("disjoint union needs at least one factor")
    _bound_products("disjoint union", sum(len(g.mul) for g in factors))
    _require_in_range("disjoint union", *factors)
    elements: list[str] = []
    units: list[int] = []
    alpha: list[int] = []
    beta: list[int] = []
    inv: list[int] = []
    rows: list[dict[int, int]] = []
    offset = 0
    for pos, g in enumerate(factors, start=1):
        elements.extend(f"{pos}/{lbl}" for lbl in g.elements)
        units.extend(offset + u for u in g.units)
        alpha.extend(offset + a for a in g.alpha)
        beta.extend(offset + b for b in g.beta)
        inv.extend(offset + i for i in g.inv)
        rows.extend({offset + y: offset + z for y, z in row.items()} for row in g.rows)
        offset += len(g)
    return FiniteGroupoid._typed(elements, units, alpha, beta, inv, rows)


def direct_product(g: FiniteGroupoid, h: FiniteGroupoid) -> FiniteGroupoid:
    """The direct product: all element pairs, with componentwise structure.
    Raises SizeLimitError when it would have more than ``PRODUCT_MUL_LIMIT``
    products, before building, and raises ValueError when a source or target
    is not a unit."""
    _require_unit_anchors("direct product", g, h)
    _bound_products("direct product", len(g.mul) * len(h.mul),
                    f"{len(g.mul)} x {len(h.mul)}")
    # the pair (x, y) is element x * nh + y
    nh = len(h)
    return FiniteGroupoid._typed(
        elements=[f"({a},{b})" for a in g.elements for b in h.elements],
        units=[u * nh + w for u in g.units for w in h.units],
        alpha=[a * nh + b for a in g.alpha for b in h.alpha],
        beta=[a * nh + b for a in g.beta for b in h.beta],
        inv=[a * nh + b for a in g.inv for b in h.inv],
        rows=[{y1 * nh + y2: z1 * nh + z2 for y1, z1 in row1.items() for y2, z2 in row2.items()}
              for row1 in g.rows for row2 in h.rows],
    )


def whitney_sum(g: FiniteGroupoid, h: FiniteGroupoid) -> FiniteGroupoid:
    """The fibered sum over a shared base: pairs of arrows with equal source
    base labels and equal target base labels, composed componentwise.

    The bases are identified through ``base_labels`` (element labels of the
    units when absent); the two label sets must coincide.  Raises
    SizeLimitError when the sum would have more than ``PRODUCT_MUL_LIMIT``
    products, counted from the fibre sizes before building, and raises
    ValueError when a source or target is not a unit.
    """
    _require_unit_anchors("whitney sum", g, h)
    base_g = {u: g.unit_base_label(u) for u in g.units}
    base_h = {u: h.unit_base_label(u) for u in h.units}
    if set(base_g.values()) != set(base_h.values()):
        raise ValueError(
            "whitney sum needs identical base label sets, got "
            f"{sorted(base_g.values())} vs {sorted(base_h.values())}"
        )
    anchor_g = [(base_g[g.alpha[x]], base_g[g.beta[x]]) for x in range(len(g))]
    unit_h = {lbl: w for w, lbl in base_h.items()}
    elements: list[tuple[int, int]] = []
    from_base: dict[str, list[tuple[int, int]]] = {}
    for x, (a, b) in enumerate(anchor_g):
        for y in h._homs.get((unit_h[a], unit_h[b]), ()):
            elements.append((x, y))
            from_base.setdefault(a, []).append((x, y))
    # no larger than the product count: each element composes with its source unit
    _bound_products("whitney sum",
                    sum(len(from_base.get(anchor_g[x][1], ())) for x, _ in elements))
    index = {p: k for k, p in enumerate(elements)}
    rows = [{index[(x2, y2)]: index[(g.rows[x1][x2], h.rows[y1][y2])]
             for x2, y2 in from_base.get(anchor_g[x1][1], ())
             if x2 in g.rows[x1] and y2 in h.rows[y1]}
            for x1, y1 in elements]
    units = [index[(u, w)] for (u, w) in elements if g.is_unit(u) and h.is_unit(w)]
    return FiniteGroupoid._typed(
        elements=[f"({g.elements[x]},{h.elements[y]})" for x, y in elements],
        units=units,
        alpha=[index[(g.alpha[x], h.alpha[y])] for x, y in elements],
        beta=[index[(g.beta[x], h.beta[y])] for x, y in elements],
        inv=[index[(g.inv[x], h.inv[y])] for x, y in elements],
        rows=rows,
        base_labels={index[(u, w)]: base_g[u] for (u, w) in elements
                     if g.is_unit(u) and h.is_unit(w)},
    )


def induced_triples(
    g: FiniteGroupoid, f: Mapping[str, str]
) -> tuple[list[str], dict[str, int], list[tuple[str, str, int]]]:
    """Element order shared by induced_groupoid and its canonical morphism:
    the points of f's key set, the unit of g over each image base point, and
    the triples (x, y, a) with alpha(a) over f(x) and beta(a) over f(y).
    Raises SizeLimitError above ``PRODUCT_MUL_LIMIT`` products of the
    induced groupoid, counted from the hom-set sizes before any triple is
    listed, and ValueError when an index of g is out of range."""
    points = list(f.keys())
    if not points:
        raise ValueError("induced groupoid needs a nonempty point set")
    _require_in_range("induced groupoid", g)
    base_to_unit = {g.unit_base_label(u): u for u in g.units}
    for x in points:
        if f[x] not in base_to_unit:
            raise ValueError(f"f({x!r}) = {f[x]!r} is not a base label of the groupoid")
    target_unit = {x: base_to_unit[f[x]] for x in points}
    # (x, y, a) * (y, z, b) for every y: (arrows into f(y)) x (arrows out of f(y))
    over = Counter(target_unit.values())
    into, out_of = Counter(), Counter()
    for (u, v), arrows in g._homs.items():
        into[v] += over[u] * len(arrows)
        out_of[u] += len(arrows) * over[v]
    _bound_products("induced groupoid", sum(c * into[u] * out_of[u] for u, c in over.items()))
    triples = [(x, y, a) for x in points for y in points
               for a in g._homs.get((target_unit[x], target_unit[y]), ())]
    return points, target_unit, triples


def induced_groupoid(g: FiniteGroupoid, f: Mapping[str, str]) -> FiniteGroupoid:
    """The pullback of g along a map f from a fresh point set into g's base.

    Elements are triples (x, y, a) with f(x) the source base point of a and
    f(y) the target; (x, y, a) * (y, z, b) = (x, z, a*b) and the inverse is
    (y, x, inv(a)).  The new base is the key set of f, in its given order.
    Raises SizeLimitError above ``PRODUCT_MUL_LIMIT`` products, before
    building, and ValueError when an index of g is out of range.
    """
    return _induced_from(g, *induced_triples(g, f))


def _induced_from(g: FiniteGroupoid, points: list[str], target_unit: dict[str, int],
                  triples: list[tuple[str, str, int]]) -> FiniteGroupoid:
    """The groupoid of ``induced_groupoid`` on ``induced_triples(g, f)``."""
    index = {t: k for k, t in enumerate(triples)}
    starting: dict[str, list[tuple[str, str, int]]] = {}
    for t in triples:
        starting.setdefault(t[0], []).append(t)
    unit_index = {x: index[(x, x, target_unit[x])] for x in points}
    return FiniteGroupoid._typed(
        elements=[f"({x},{y},{g.elements[a]})" for x, y, a in triples],
        units=[unit_index[x] for x in points],
        alpha=[unit_index[x] for x, y, a in triples],
        beta=[unit_index[y] for x, y, a in triples],
        inv=[index[(y, x, g.inv[a])] for x, y, a in triples],
        rows=[{index[t]: index[(x, t[1], g.rows[a][t[2]])] for t in starting[y]}
              for x, y, a in triples],
        base_labels={unit_index[x]: x for x in points},
    )


def left_translation_groupoid(g: FiniteGroupoid) -> FiniteGroupoid:
    """The groupoid of left translations of g, realized as injective partial
    maps of g's element set (numbered 1..|g|).

    L_a acts on {x : alpha(x) = beta(a)}, the keys of a's row, by x -> a*x;
    the translations multiply by L_a * L_b = L_{a*b} on the pairs where a
    and b compose, and a -> L_a is a bijection.  Raises SizeLimitError when g has more than
    ``PRODUCT_MUL_LIMIT`` products, before building, and ValueError when an
    index of g is out of range.
    """
    _bound_products("cayley groupoid", len(g.mul))
    _require_in_range("cayley groupoid", g)
    n = len(g)
    payloads = []
    for row in g.rows:
        domain = sorted(row)
        payloads.append(Quasipermutation(
            n, tuple(x + 1 for x in domain), tuple(row[x] + 1 for x in domain)))
    if len({(p.domain, p.image) for p in payloads}) != n:
        raise ValueError("left translations are not pairwise distinct; input is not a groupoid")
    return FiniteGroupoid(
        elements=[f"L[{lbl}]" for lbl in g.elements],
        units=g.units,
        alpha=g.alpha,
        beta=g.beta,
        inv=g.inv,
        mul=g.mul,
        payloads=payloads,
    )
