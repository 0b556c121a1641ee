"""Subgroupoids: recognition, generation, and exhaustive enumeration.

``enumerate_subgroupoids`` validates its groupoid before listing.
``classify_subset``, ``subgroupoid_handle`` and ``generated_subgroupoid``
refuse member indices that are not ints or out of range, and
``isotropy_subgroupoid`` checks that its unit is one; these and
``null_subgroupoid`` trust that the table is a groupoid.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    FiniteGroupoid, SizeLimitError, _Brandt, _Component, _generators, _ints, _right_closure,
    restricted, validate,
)

__all__ = [
    "ENUM_SIZE_LIMIT",
    "SubgroupoidHandle",
    "SubsetClassification",
    "classify_subset",
    "enumerate_subgroupoids",
    "generated_subgroupoid",
    "isotropy_subgroupoid",
    "null_subgroupoid",
    "subgroupoid_handle",
]

ENUM_SIZE_LIMIT = 16


@dataclass(frozen=True)
class SubsetClassification:
    """Strongest property a subset has, with a witness for why it has no
    stronger one.

    kind is one of "not_subgroupoid", "subgroupoid", "wide", "normal";
    each kind implies the previous ones hold short of the witness.
    """

    kind: str
    members: tuple[int, ...]
    witness: Optional[tuple[int, ...]] = None
    detail: str = ""

    @property
    def is_subgroupoid(self) -> bool:
        return self.kind != "not_subgroupoid"

    @property
    def is_wide(self) -> bool:
        return self.kind in ("wide", "normal")

    @property
    def is_normal(self) -> bool:
        return self.kind == "normal"


@dataclass(frozen=True)
class SubgroupoidHandle:
    """A verified subgroupoid, kept as ascending member indices into the parent."""

    parent: FiniteGroupoid
    members: tuple[int, ...]
    is_wide: bool
    is_normal: bool

    @property
    def order(self) -> int:
        return len(self.members)

    def labels(self) -> tuple[str, ...]:
        return tuple(self.parent.elements[x] for x in self.members)

    def as_groupoid(self) -> FiniteGroupoid:
        return restricted(self.parent, self.members)

    def contains(self, x: int) -> bool:
        i = bisect_left(self.members, x)
        return i < len(self.members) and self.members[i] == x


def _clean_members(g: FiniteGroupoid, members: Iterable[int]) -> tuple[int, ...]:
    out = sorted(set(_ints("members", members)))
    for x in out:
        if not 0 <= x < len(g):
            raise ValueError(f"member index {x} out of range")
    return tuple(out)


def classify_subset(g: FiniteGroupoid, members: Iterable[int]) -> SubsetClassification:
    """Decide whether a subset is a subgroupoid, and if so whether it is
    wide and whether it is stable under conjugation by every arrow."""
    mem = _clean_members(g, members)
    if not mem:
        return SubsetClassification("not_subgroupoid", mem, None, "empty subset")
    inside = set(mem)
    for x in mem:
        if g.inv[x] not in inside:
            return SubsetClassification(
                "not_subgroupoid", mem, (x, g.inv[x]),
                f"inverse of {g.elements[x]} escapes the subset")
    for x in mem:
        # the least escaping y, so that (x, y) is the first in member order
        y = min((y for y, z in g.rows[x].items() if y in inside and z not in inside), default=None)
        if y is not None:
            return SubsetClassification(
                "not_subgroupoid", mem, (x, y, g.rows[x][y]),
                f"product {g.elements[x]} * {g.elements[y]} escapes the subset")
    for u in g.units:
        if u not in inside:
            return SubsetClassification(
                "subgroupoid", mem, (u,), f"unit {g.elements[u]} is missing")
    loops = {b: [h for h in g.isotropy_members(b) if h in inside] for b in set(g.beta)}
    for x in range(len(g)):
        for h in loops[g.beta[x]]:
            xh = g.rows[x].get(h)
            z = g.rows[xh].get(g.inv[x]) if xh is not None and 0 <= xh < len(g) else None
            if z is None:
                raise ValueError(
                    f"conjugate of {g.elements[h]} by {g.elements[x]} is undefined; "
                    "not a groupoid")
            if z not in inside:
                return SubsetClassification(
                    "wide", mem, (x, h, z),
                    f"conjugate of {g.elements[h]} by {g.elements[x]} escapes")
    return SubsetClassification("normal", mem)


def subgroupoid_handle(g: FiniteGroupoid, members: Iterable[int]) -> SubgroupoidHandle:
    """Wrap a member set as a handle; raises ValueError when the subset is
    not closed."""
    cls = classify_subset(g, members)
    if not cls.is_subgroupoid:
        raise ValueError(f"not a subgroupoid: {cls.detail}")
    return SubgroupoidHandle(g, cls.members, cls.is_wide, cls.is_normal)


def generated_subgroupoid(g: FiniteGroupoid, seeds: Iterable[int]) -> SubgroupoidHandle:
    """The smallest subgroupoid containing the seed elements."""
    span = set(_clean_members(g, seeds))
    if not span:
        raise ValueError("generated subgroupoid needs at least one seed")

    def inverse_and_products(a):
        # each pair of members meets when the later of the two is taken
        members = list(span)
        return [g.inv[a], *map(g.rows[a].get, members),
                *(g.rows[b].get(a) for b in members)]

    return subgroupoid_handle(g, _right_closure(span, inverse_and_products))


def _subgroups(k: _Component) -> list[frozenset[int]]:
    """The subgroups of the vertex group of a component, as sets of
    positions in its table, by cyclic extension from the identity: every
    subgroup is <K, x> for one already listed K and an x outside K."""
    table, e = k.table, k.identity
    found = {frozenset([e]): ()}
    queue = list(found.items())
    for sub, gens in queue:
        for x in range(len(table)):
            if x not in sub:
                more = gens + (x,)
                h = frozenset(_right_closure({e}, lambda a: map(table[a].__getitem__, more)))
                if h not in found:
                    found[h] = more
                    queue.append((h, more))
    return list(found)


def _brandt_subgroupoids(g: FiniteGroupoid, b: _Brandt) -> list[list[int]]:
    """The member lists of the nonempty subgroupoids of a groupoid g with
    Brandt decomposition b, each once.  By Brandt's theorem a subgroupoid
    is a partial partition of the units into classes, each inside one
    component, and for a class with least unit c a subgroup K of the vertex
    group at c and, for every other unit u of the class, one of the sets
    K*h with h : c -> u.  In coordinates (``core._brandt``) K is a subgroup
    of the component's H_r and each K*h a right coset of it; with K itself
    the set for c, the class holds the elements u -> v at coordinates a^-1*s
    for a in the set for u and s in that for v, and one a per set already
    gives them all."""
    at = {(g.alpha[x], c, g.beta[x]): x for x, c in enumerate(b.coords)}
    component = {u: k for k in b.components for u in k.arrows}
    subgroups = {k.root: _subgroups(k) for k in b.components}

    @functools.cache
    def class_options(units: tuple[int, ...]) -> list[list[int]]:
        k, out = component[units[0]], []
        table = k.table
        for sub in subgroups[k.root]:
            cosets = list({frozenset(table[s][a] for s in sub): None for a in range(len(table))})
            for chosen in itertools.product([sub], *[cosets] * (len(units) - 1)):
                back = [k.inv[min(s)] for s in chosen]
                out.append([at[u, table[a][s], v] for u, a in zip(units, back)
                            for v, sets in zip(units, chosen) for s in sets])
        return out

    def within(units: tuple[int, ...]) -> list[list[int]]:
        """Subgroupoids whose units lie among ``units``, the empty one too."""
        if not units:
            return [[]]
        u, rest = units[0], units[1:]
        out = within(rest)
        mates = [v for v in rest if component[v] is component[u]]
        for size in range(len(mates) + 1):
            for others in itertools.combinations(mates, size):
                tails = within(tuple(v for v in rest if v not in others))
                for head in class_options((u,) + others):
                    out.extend(head + tail for tail in tails)
        return out

    return [members for members in within(g.units) if members]


def _require_enumerable(g: FiniteGroupoid) -> None:
    if len(g) > ENUM_SIZE_LIMIT:
        raise SizeLimitError(
            f"subgroupoid enumeration supports at most {ENUM_SIZE_LIMIT} elements, got {len(g)}")


def _lattice(g: FiniteGroupoid, b: _Brandt) -> list[SubgroupoidHandle]:
    """Every subgroupoid of the groupoid g in (order, members) order, with
    its flags read off the construction, from g's Brandt decomposition b;
    g must already validate.

    A listed set N is closed, so it is wide when it holds every unit.  A
    wide N is normal when s*h*inv(s) is in N for every generator s : u -> v
    of g (``_generators``) and every loop h of N at v.  Proof: the arrows x
    with x*h*inv(x) in N for every loop h of N at beta(x) include the units
    and are closed under products, and the generators reach every element
    by right multiplication from the units, so they are all of g.
    Conjugation by x : u -> v is injective from the loops of N at v into
    those at u, and by inv(x) back, so finiteness makes each inclusion an
    equality (Brown, ch. 8; Higgins)."""
    conjugates = [(h, g.rows[g.rows[s][h]][g.inv[s]])
                  for s in _generators(g, b) for h in g.isotropy_members(g.beta[s])]
    handles = []
    for members in sorted((tuple(sorted(m)) for m in _brandt_subgroupoids(g, b)),
                          key=lambda t: (len(t), t)):
        inside = set(members)
        wide = inside.issuperset(g.units)
        normal = wide and all(z in inside for h, z in conjugates if h in inside)
        handles.append(SubgroupoidHandle(g, members, wide, normal))
    return handles


def enumerate_subgroupoids(
    g: FiniteGroupoid,
    *,
    normal_only: bool = False,
) -> list[SubgroupoidHandle]:
    """All subgroupoids in (order, members) order, built from the Brandt
    decomposition (``core._brandt``) that validating g derives, so the work
    follows the number found.  Raises SizeLimitError beyond
    ``ENUM_SIZE_LIMIT`` elements, then ValueError when g is not a
    groupoid."""
    _require_enumerable(g)
    (b,) = validate(g)._decomposed("enumerate_subgroupoids: not a groupoid")
    handles = _lattice(g, b)
    return [h for h in handles if h.is_normal] if normal_only else handles


def isotropy_subgroupoid(g: FiniteGroupoid, u: int) -> SubgroupoidHandle:
    """The isotropy group at a unit, as a subgroupoid."""
    if not g.is_unit(u):
        raise ValueError(f"element {u} is not a unit")
    return subgroupoid_handle(g, g.isotropy_members(u))


def null_subgroupoid(g: FiniteGroupoid) -> SubgroupoidHandle:
    """The subgroupoid of units; wide and always normal."""
    return subgroupoid_handle(g, g.units)
