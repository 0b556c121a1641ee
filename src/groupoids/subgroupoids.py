"""Subgroupoids: recognition, generation, and exhaustive enumeration."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core import FiniteGroupoid, SizeLimitError, restricted

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
    out = sorted(set(int(x) for x in members))
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
        for y in mem:
            z = g.mul.get((x, y))
            if z is not None and z not in inside:
                return SubsetClassification(
                    "not_subgroupoid", mem, (x, y, z),
                    f"product {g.elements[x]} * {g.elements[y]} escapes the subset")
    for u in g.units:
        if u not in inside:
            return SubsetClassification(
                "subgroupoid", mem, (u,), f"unit {g.elements[u]} is missing")
    for x in range(len(g)):
        bx = g.beta[x]
        for h in mem:
            if g.alpha[h] == bx and g.beta[h] == bx:
                z = g.mul.get((g.mul.get((x, h)), g.inv[x]))
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
    current = set(_clean_members(g, seeds))
    if not current:
        raise ValueError("generated subgroupoid needs at least one seed")
    while True:
        new = set()
        for x in current:
            if g.inv[x] not in current:
                new.add(g.inv[x])
        for x in current:
            for y in current:
                z = g.mul.get((x, y))
                if z is not None and z not in current:
                    new.add(z)
        if not new:
            break
        current |= new
    return subgroupoid_handle(g, current)


def enumerate_subgroupoids(
    g: FiniteGroupoid,
    *,
    normal_only: bool = False,
    max_size: int = ENUM_SIZE_LIMIT,
) -> list[SubgroupoidHandle]:
    """All subgroupoids, by exhaustive subset scan, in (order, members)
    order.  Limited to small groupoids; raises SizeLimitError beyond
    max_size elements."""
    n = len(g)
    if n > max_size:
        raise SizeLimitError(
            f"subgroupoid enumeration supports at most {max_size} elements, got {n}")
    triples = [(x, y, z) for (x, y), z in g.mul.items()]
    inv_bit = [1 << g.inv[x] for x in range(n)]
    unit_mask = 0
    for u in g.units:
        unit_mask |= 1 << u
    found: list[tuple[int, ...]] = []
    for mask in range(1, 1 << n):
        ok = True
        for x in range(n):
            if mask >> x & 1 and not mask & inv_bit[x]:
                ok = False
                break
        if not ok:
            continue
        for x, y, z in triples:
            if mask >> x & 1 and mask >> y & 1 and not mask >> z & 1:
                ok = False
                break
        if not ok:
            continue
        found.append(tuple(x for x in range(n) if mask >> x & 1))
    handles = []
    for mem in sorted(found, key=lambda t: (len(t), t)):
        cls = classify_subset(g, mem)
        handle = SubgroupoidHandle(g, cls.members, cls.is_wide, cls.is_normal)
        if normal_only and not handle.is_normal:
            continue
        handles.append(handle)
    return handles


def isotropy_subgroupoid(g: FiniteGroupoid, u: int) -> SubgroupoidHandle:
    """The isotropy group at a unit, as a subgroupoid."""
    return subgroupoid_handle(g, g.isotropy_members(u))


def null_subgroupoid(g: FiniteGroupoid) -> SubgroupoidHandle:
    """The subgroupoid of units; wide and always normal."""
    return subgroupoid_handle(g, g.units)
