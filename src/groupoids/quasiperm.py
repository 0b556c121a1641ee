"""Quasipermutations: injective partial maps on {1..n} and their groupoids.

A quasipermutation of degree n is an injective map from a nonempty subset of
{1..n} into {1..n}.  Two of them compose exactly when the range of the first
equals the domain of the second, which makes the full collection a groupoid
whose units are the identity maps of the nonempty subsets.  Restricting to
the ones of positive signature gives a wide normal subgroupoid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial
from typing import Iterator, Optional, Sequence

from .core import FiniteGroupoid, SizeLimitError

__all__ = [
    "GroupoidCounts",
    "Quasipermutation",
    "alternating_groupoid",
    "count_formulas",
    "qp_compose",
    "signature",
    "symmetric_groupoid",
]

DEGREE_LIMIT = 6

# (domain, sorted range, r): the map domain[i] -> range[perms[r][i]], with
# perms the permutations numbered by _coordinates
_Coordinate = tuple[tuple[int, ...], tuple[int, ...], int]


@dataclass(frozen=True)
class Quasipermutation:
    """An injective partial map on {1..degree} with ordered domain.

    ``domain`` is strictly increasing; ``image[i]`` is the value taken at
    ``domain[i]``.  The text form is ``"k: i1 .. ik -> j1 .. jk"``.
    """

    degree: int
    domain: tuple[int, ...]
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        if not self.domain:
            raise ValueError("domain must be nonempty")
        if len(self.domain) != len(self.image):
            raise ValueError("domain and image must have equal length")
        if any(not 1 <= i <= self.degree for i in self.domain + self.image):
            raise ValueError(f"entries must lie in 1..{self.degree}")
        if any(a >= b for a, b in zip(self.domain, self.domain[1:])):
            raise ValueError("domain must be strictly increasing")
        if len(set(self.image)) != len(self.image):
            raise ValueError("image entries must be distinct")

    @classmethod
    def identity(cls, degree: int, subset: tuple[int, ...]) -> "Quasipermutation":
        ordered = tuple(sorted(subset))
        return cls(degree, ordered, ordered)

    @property
    def length(self) -> int:
        return len(self.domain)

    @property
    def range_set(self) -> frozenset[int]:
        return frozenset(self.image)

    @property
    def domain_set(self) -> frozenset[int]:
        return frozenset(self.domain)

    def is_identity(self) -> bool:
        return self.domain == self.image

    def apply(self, i: int) -> int:
        try:
            return self.image[self.domain.index(i)]
        except ValueError:
            raise ValueError(f"{i} is outside the domain {self.domain}") from None

    def inverse(self) -> "Quasipermutation":
        pairs = sorted(zip(self.image, self.domain))
        return Quasipermutation(
            self.degree,
            tuple(v for v, _ in pairs),
            tuple(d for _, d in pairs),
        )

    def text_form(self) -> str:
        dom = " ".join(str(i) for i in self.domain)
        img = " ".join(str(j) for j in self.image)
        return f"{self.length}: {dom} -> {img}"

    @classmethod
    def from_text(cls, degree: int, text: str) -> "Quasipermutation":
        try:
            head, rest = text.split(":", 1)
            dom_part, img_part = rest.split("->", 1)
            k = int(head)
            domain = tuple(map(int, dom_part.split()))
            image = tuple(map(int, img_part.split()))
        except (ValueError, IndexError):
            raise ValueError(f"malformed quasipermutation text {text!r}") from None
        if k != len(domain):
            raise ValueError(f"length prefix {k} does not match domain in {text!r}")
        return cls(degree, domain, image)

    def __str__(self) -> str:
        return self.text_form()


def qp_compose(f: Quasipermutation, g: Quasipermutation) -> Optional[Quasipermutation]:
    """The product f*g: apply f first, then g.

    Defined exactly when the range of f equals the domain of g; returns None
    otherwise.  Degrees must agree.
    """
    if f.degree != g.degree:
        raise ValueError(f"degree mismatch: {f.degree} vs {g.degree}")
    if f.range_set != g.domain_set:
        return None
    return Quasipermutation(
        f.degree, f.domain, tuple(g.apply(f.apply(i)) for i in f.domain)
    )


def signature(f: Quasipermutation) -> int:
    """The sign of a quasipermutation.

    For length >= 2 this is the parity of the permutation obtained by
    ranking the image values against the sorted range.  A length-1 map is
    assigned +1 exactly when it is an identity; this is the unique
    convention under which the even maps at every degree form a wide normal
    subgroupoid whose element counts satisfy the closed-form formulas.
    """
    if f.length == 1:
        return 1 if f.domain == f.image else -1
    inversions = 0
    for i in range(f.length):
        for j in range(i + 1, f.length):
            if f.image[i] > f.image[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def _enumerate(n: int, limit: int, *, even: bool = False) -> list[Quasipermutation]:
    """All quasipermutations of degree n, or only those of signature +1 when
    ``even``: identity maps first (by length, then domain), then the rest by
    (length, domain, image).  Raises SizeLimitError above the degree bound,
    before enumerating."""
    if n > limit:
        raise SizeLimitError(f"degree {n} exceeds the bound {limit}")
    units: list[Quasipermutation] = []
    rest: list[Quasipermutation] = []
    points = range(1, n + 1)
    for k in range(1, n + 1):
        for domain in itertools.combinations(points, k):
            units.append(Quasipermutation(n, domain, domain))
    units.sort(key=lambda f: (f.length, f.domain))
    for k in range(1, n + 1):
        for domain in itertools.combinations(points, k):
            for image in itertools.permutations(points, k):
                if image != domain:
                    f = Quasipermutation(n, domain, image)
                    if not even or signature(f) == 1:
                        rest.append(f)
    return units + rest


def _coordinates(
    maps: Sequence[Quasipermutation],
) -> tuple[list[_Coordinate], list[tuple[int, ...]]]:
    """Each map as (domain, sorted range, r) with ``image[i] ==
    range[perms[r][i]]``, and ``perms``, the permutations of range(k) met,
    numbered in the order met.  For maps of one degree a coordinate names
    one map.  Equal subsets share one tuple, so lookups compare by identity
    first."""
    subsets: dict[tuple[int, ...], tuple[int, ...]] = {}
    rank: dict[tuple[int, ...], int] = {}
    coords: list[_Coordinate] = []
    for f in maps:
        rng = tuple(sorted(f.image))
        at = {v: i for i, v in enumerate(rng)}
        pi = tuple(at[v] for v in f.image)
        coords.append((
            subsets.setdefault(f.domain, f.domain),
            subsets.setdefault(rng, rng),
            rank.setdefault(pi, len(rank)),
        ))
    return coords, list(rank)


def _composites(
    coords: Sequence[_Coordinate], perms: Sequence[tuple[int, ...]]
) -> Iterator[tuple[int, int, _Coordinate]]:
    """Each pair (i, j) of maps that compose, i ascending, then j ascending
    among the maps whose domain is the range of map i, with the coordinate
    of the composite: (A, B, p) * (B, C, q) = (A, C, p;q), no map built.
    The (j, C, p;q) that follow a given (B, p) are worked out the first time
    that (B, p) is met and then reused, so the work follows the products in
    the input, not k!; a permutation not in ``perms`` gets the next free
    number.  Takes ``_coordinates(maps)``."""
    by_domain: dict[tuple[int, ...], list[tuple[int, tuple[int, ...], int]]] = {}
    for j, (b, c, q) in enumerate(coords):
        by_domain.setdefault(b, []).append((j, c, q))
    rank = {p: r for r, p in enumerate(perms)}
    after: dict[tuple[tuple[int, ...], int], list[tuple[int, tuple[int, ...], int]]] = {}
    for i, (a, b, p) in enumerate(coords):
        tail = after.get((b, p))
        if tail is None:
            tail = after[(b, p)] = []
            for j, c, q in by_domain.get(b, ()):
                pq = tuple(map(perms[q].__getitem__, perms[p]))
                tail.append((j, c, rank.setdefault(pq, len(rank))))
        for j, c, r in tail:
            yield i, j, (a, c, r)


def _inverse_ranks(perms: Sequence[tuple[int, ...]]) -> list[Optional[int]]:
    """The number in ``perms`` of each permutation's inverse, None where
    the inverse is not in ``perms``; the map (A, B, p) has the inverse
    (B, A, undo[p])."""
    rank = {p: r for r, p in enumerate(perms)}
    return [rank.get(tuple(sorted(range(len(p)), key=p.__getitem__))) for p in perms]


def _groupoid(maps: list[Quasipermutation]) -> FiniteGroupoid:
    """The groupoid on a list of quasipermutations closed under composition
    and inversion, with elements in list order and the maps as payloads."""
    coords, perms = _coordinates(maps)
    pos = {c: i for i, c in enumerate(coords)}
    undo = _inverse_ranks(perms)
    units = [i for i, f in enumerate(maps) if f.is_identity()]
    unit_of_subset = {coords[u][0]: u for u in units}
    return FiniteGroupoid._typed(
        elements=[f.text_form() for f in maps],
        units=units,
        alpha=[unit_of_subset[a] for a, _, _ in coords],
        beta=[unit_of_subset[b] for _, b, _ in coords],
        inv=[pos[(b, a, undo[p])] for a, b, p in coords],
        mul={(i, j): pos[h] for i, j, h in _composites(coords, perms)},
        payloads=maps,
    )


def symmetric_groupoid(n: int, *, limit: int = DEGREE_LIMIT) -> FiniteGroupoid:
    """The groupoid of all quasipermutations of degree n.

    Units are the identity maps of nonempty subsets; the product of f and g
    is defined when range(f) = domain(g) and is the composite map.  Element
    payloads hold the Quasipermutation objects.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    return _groupoid(_enumerate(n, limit))


def alternating_groupoid(n: int, *, limit: int = DEGREE_LIMIT) -> FiniteGroupoid:
    """The wide subgroupoid of even quasipermutations of degree n (n >= 2),
    with the elements in the order they have in the full groupoid."""
    if n < 2:
        raise ValueError("the even quasipermutations need degree at least 2")
    return _groupoid(_enumerate(n, limit, even=True))


@dataclass(frozen=True)
class GroupoidCounts:
    """Closed-form counts for the quasipermutation groupoids of degree n.

    The alternating fields are None for n = 1, where no even/odd split is
    defined.
    """

    n: int
    s_total: int
    s_units: int
    s_isotropy: int
    a_total: Optional[int]
    a_units: Optional[int]
    a_isotropy: Optional[int]


def count_formulas(n: int) -> GroupoidCounts:
    """Exact element, unit and isotropy counts for degree n (integers, no
    truncation)."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    s_total = sum(factorial(k) * comb(n, k) ** 2 for k in range(1, n + 1))
    s_units = 2**n - 1
    s_isotropy = sum(factorial(k) * comb(n, k) for k in range(1, n + 1))
    if n < 2:
        return GroupoidCounts(n, s_total, s_units, s_isotropy, None, None, None)
    a_total = (s_total - (n * n - 2 * n)) // 2
    a_units = 2**n - 1
    a_isotropy = (n + s_isotropy) // 2
    return GroupoidCounts(n, s_total, s_units, s_isotropy, a_total, a_units, a_isotropy)
