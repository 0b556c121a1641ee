"""Quasipermutations: injective partial maps on {1..n} and their groupoids.

A quasipermutation of degree n is an injective map from a nonempty subset of
{1..n} into {1..n}.  Two of them compose exactly when the range of the first
equals the domain of the second, which makes the full collection a groupoid
whose units are the identity maps of the nonempty subsets.  Restricting to
the ones of positive signature gives a wide normal subgroupoid.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb, factorial
from operator import attrgetter, itemgetter
from typing import Optional, Sequence

from .core import FiniteGroupoid, SizeLimitError, ValidationReport, Violation

__all__ = [
    "GroupoidCounts",
    "Quasipermutation",
    "alternating_groupoid",
    "check_quasiperm_payloads",
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


def _enumerate(n: int, *, even: bool = False) -> list[Quasipermutation]:
    """All quasipermutations of degree n, or only those of signature +1 when
    ``even``: identity maps first (by length, then domain), then the rest by
    (length, domain, image).  Raises SizeLimitError above the degree bound,
    before enumerating."""
    if n > DEGREE_LIMIT:
        raise SizeLimitError(f"degree {n} exceeds the bound {DEGREE_LIMIT}")
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


def _inverse_ranks(perms: Sequence[tuple[int, ...]]) -> list[Optional[int]]:
    """The number in ``perms`` of each permutation's inverse, None where
    the inverse is not in ``perms``; the map (A, B, p) has the inverse
    (B, A, undo[p])."""
    rank = {p: r for r, p in enumerate(perms)}
    return [rank.get(tuple(sorted(range(len(p)), key=p.__getitem__))) for p in perms]


def _composite_table(
    coords: Sequence[_Coordinate], perms: Sequence[tuple[int, ...]]
) -> list[dict[int, Optional[int]]]:
    """``composite[p][q]``, the number in ``perms`` of p;q, where (A, B, p) *
    (B, C, q) = (A, C, p;q), or None when p;q is not in ``perms``.  It is
    worked out for each p of a map into B and q of a map out of B, so the
    work follows the maps given, not k!.  Takes ``_coordinates(maps)``."""
    ends: dict[tuple[int, ...], tuple[set[int], set[int]]] = {}
    for a, b, p in coords:
        ends.setdefault(b, (set(), set()))[0].add(p)
        ends.setdefault(a, (set(), set()))[1].add(p)
    index = {p: r for r, p in enumerate(perms)}
    composite: list[dict[int, Optional[int]]] = [{} for _ in perms]
    for ps, qs in ends.values():
        for p in ps:
            # p;q is (q[p[0]], ..., q[p[-1]]); itemgetter gives q[p[0]] bare for one point
            pick, row = itemgetter(*perms[p]), composite[p]
            for q in qs:
                pq = pick(perms[q])
                row[q] = index.get(pq if type(pq) is tuple else (pq,))
    return composite


def _groupoid(maps: list[Quasipermutation]) -> FiniteGroupoid:
    """The groupoid on a list of quasipermutations closed under composition
    and inversion, with elements in list order and the maps as payloads.
    The products of map i : A -> B are read from ``_composite_table`` with
    the maps out of B in list order, so ``mul`` holds them by i, then j."""
    coords, perms = _coordinates(maps)
    composite = _composite_table(coords, perms)
    undo = _inverse_ranks(perms)
    number: dict[tuple[int, ...], int] = {}
    numbered = [(number.setdefault(a, len(number)), number.setdefault(b, len(number)), p)
                for a, b, p in coords]
    hom: list[dict[int, dict[int, int]]] = [{} for _ in number]  # hom[A][C][p] = map
    bucket: list[list[tuple[int, int, int]]] = [[] for _ in number]  # maps out of B
    for j, (b, c, q) in enumerate(numbered):
        hom[b].setdefault(c, {})[q] = j
        bucket[b].append((j, c, q))
    mul: dict[tuple[int, int], int] = {}
    for i, (a, b, p) in enumerate(numbered):
        row, out_of_a = composite[p], hom[a]
        mul.update({(i, j): out_of_a[c][row[q]] for j, c, q in bucket[b]})
    unit_of_subset = {numbered[u][0]: u for u, f in enumerate(maps) if f.is_identity()}
    return FiniteGroupoid._typed(
        elements=[f.text_form() for f in maps],
        units=list(unit_of_subset.values()),
        alpha=[unit_of_subset[a] for a, _, _ in numbered],
        beta=[unit_of_subset[b] for _, b, _ in numbered],
        inv=[hom[b][a][undo[p]] for a, b, p in numbered],
        mul=mul,
        payloads=maps,
    )


def symmetric_groupoid(n: int) -> FiniteGroupoid:
    """The groupoid of all quasipermutations of degree n.

    Units are the identity maps of nonempty subsets; the product of f and g
    is defined when range(f) = domain(g) and is the composite map.  Element
    payloads hold the Quasipermutation objects.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    return _groupoid(_enumerate(n))


def alternating_groupoid(n: int) -> FiniteGroupoid:
    """The wide subgroupoid of even quasipermutations of degree n (n >= 2),
    with the elements in the order they have in the full groupoid."""
    if n < 2:
        raise ValueError("the even quasipermutations need degree at least 2")
    return _groupoid(_enumerate(n, even=True))


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


# ----- payload cross-check -------------------------------------------------


def _product_violations(
    mul: dict[tuple[int, int], int],
    coords: Sequence[_Coordinate],
    perms: Sequence[tuple[int, ...]],
) -> list[Violation]:
    """The violations of the products, sorted by pair: products on a pair
    out of range or of maps that do not compose, products that are not the
    composite (A, B, p) * (B, C, q) = (A, C, p;q), found in one pass over
    ``mul``, and composable pairs without a product, searched for only when
    fewer than sum_B #(range = B) * #(domain = B) products sit on composable
    pairs.  p;q is read from ``_composite_table``.  Takes
    ``_coordinates(maps)``."""
    n = len(coords)
    dom, rng, num = zip(*coords)
    composite = _composite_table(coords, perms)
    # an index of n or more raises IndexError, and then every product is
    # examined; a loop, since Python 3.11 specialises a comprehension whose
    # filter seldom passes only after several calls
    suspects: list[tuple[tuple[int, int], int]] = []
    try:
        for (x, y), z in mul.items():
            if (x < 0 or y < 0 or rng[x] is not dom[y] or dom[z] is not dom[x]
                    or rng[z] is not rng[y] or num[z] != composite[num[x]][num[y]]):
                suspects.append(((x, y), z))
    except IndexError:
        suspects = list(mul.items())
    v: list[Violation] = []
    off_pairs = 0
    for (x, y), z in suspects:
        if not (0 <= x < n and 0 <= y < n and rng[x] is dom[y]):
            off_pairs += 1
            v.append(Violation("payload", (x, y), "product defined but maps do not compose"))
        elif not (z < n and coords[z] == (dom[x], rng[y], composite[num[x]][num[y]])):
            v.append(Violation("payload", (x, y), "product disagrees with map composition"))
    into = Counter(rng)
    if len(mul) - off_pairs != sum(k * into[b] for b, k in Counter(dom).items()):
        by_domain: dict[tuple[int, ...], list[int]] = {}
        for y, a in enumerate(dom):
            by_domain.setdefault(a, []).append(y)
        v.extend(Violation("payload", (x, y), "maps compose but product is undefined")
                 for x, b in enumerate(rng) for y in by_domain.get(b, ()) if (x, y) not in mul)
    v.sort(key=attrgetter("witness"))
    return v


def check_quasiperm_payloads(g: FiniteGroupoid) -> ValidationReport:
    """Verify that the groupoid's tables agree with its quasipermutation
    payloads: units are identity maps, anchors pick the identities on
    domain and range, inverses and products match map inversion and
    composition.

    Every check reads the coordinates (domain, range, permutation number)
    of ``_coordinates``; no map is built.  The map (A, B, p) is
    an identity when A is B and p is an identity permutation, and its
    inverse is (B, A, undo[p]).  The products are checked in one pass over
    ``g.mul`` that lists the failing ones (``_product_violations``), so a
    failing table costs no more than a passing one; the composable pairs
    are walked only when some of them lack a product.  Payloads of
    different degrees raise ValueError before any of this."""
    v: list[Violation] = []
    if g.payloads is None:
        return ValidationReport((Violation("payload", (), "no payloads present"),))
    for f in g.payloads:
        if f.degree != g.payloads[0].degree:
            raise ValueError(f"degree mismatch: {g.payloads[0].degree} vs {f.degree}")
    # for maps of one degree a coordinate names one map
    coords, perms = _coordinates(g.payloads)
    by_value: dict[_Coordinate, int] = {}
    for i, c in enumerate(coords):
        if c in by_value:
            v.append(Violation("payload", (by_value[c], i), "duplicate quasipermutation"))
        by_value[c] = i
    identities = {r for r, p in enumerate(perms) if p == tuple(range(len(p)))}
    is_identity = [a is b and p in identities for a, b, p in coords]
    undo = _inverse_ranks(perms)
    for x, (a, b, p) in enumerate(coords):
        if g.is_unit(x) != is_identity[x]:
            v.append(Violation(
                "payload", (x,), "unit flag disagrees with being an identity map"))
        s = g.alpha[x]
        if not (is_identity[s] and coords[s][0] is a):
            v.append(Violation(
                "payload", (x,), "source is not the identity on the domain"))
        t = g.beta[x]
        if not (is_identity[t] and coords[t][0] is b):
            v.append(Violation(
                "payload", (x,), "target is not the identity on the range"))
        if coords[g.inv[x]] != (b, a, undo[p]):
            v.append(Violation("payload", (x,), "inverse map mismatch"))
    v.extend(_product_violations(g.mul, coords, perms))
    return ValidationReport(tuple(v))
