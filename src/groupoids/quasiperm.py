"""Quasipermutations: injective partial maps on {1..n} and their groupoids.

A quasipermutation of degree n is an injective map from a nonempty subset of
{1..n} into {1..n}.  Two of them compose exactly when the range of the first
equals the domain of the second, which makes the full collection a groupoid
whose units are the identity maps of the nonempty subsets.  Restricting to
the ones of positive signature gives a wide normal subgroupoid.

The ``Quasipermutation`` constructor and ``from_text`` check every field,
with exact types, and ``qp_compose`` and ``signature`` refuse an argument
that is not a map.  ``symmetric_groupoid``, ``alternating_groupoid`` and
``count_formulas`` check the degree.  ``check_quasiperm_payloads`` refuses
payloads that are not maps of one degree and reports, without raising,
every table entry that disagrees with them; it does not run ``validate``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial
from operator import attrgetter, itemgetter
from typing import Callable, ClassVar, Iterator, Optional, Sequence

from .core import (
    FiniteGroupoid,
    SizeLimitError,
    ValidationReport,
    Violation,
    _index_violations,
)

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
    # the text form, set on the instance by _enumerate, which makes each map
    # with its text; not a field, so equality, hash and repr ignore it
    _text: ClassVar[Optional[str]] = None

    def __post_init__(self) -> None:
        # exact types, so that the text form reads back as an equal map: a
        # bool is an int whose text is "True", and a list never equals a tuple
        if type(self.degree) is not int:
            raise ValueError(f"degree must be an int, got {self.degree!r}")
        for field, points in (("domain", self.domain), ("image", self.image)):
            if type(points) is not tuple:
                raise ValueError(f"{field} must be a tuple, got {points!r}")
            for i in points:
                if type(i) is not int:
                    raise ValueError(f"{field} entries must be ints, got {i!r}")
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
        if self._text is not None:
            return self._text
        return f"{self.length}: {_spaced(self.domain)} -> {_spaced(self.image)}"

    @classmethod
    def from_text(cls, degree: int, text: str) -> "Quasipermutation":
        """The map of one text form, read by ``text_reader``."""
        return cls.text_reader(degree)(text)

    @classmethod
    def text_reader(cls, degree: int) -> Callable[[str], "Quasipermutation"]:
        """A function that reads text forms ``"k: i1 .. ik -> j1 .. jk"`` of
        one degree, for reading many maps: each distinct domain part and
        image part is parsed and checked once.  A text whose parts pass and
        whose length prefix matches is made without ``__init__``'s checks,
        as ``_enumerate`` makes maps; any other well-formed text goes to
        ``__init__`` for its exact error."""
        # per part: its points, None if they are not integers, and whether
        # they pass __init__'s checks
        domains: dict[str, tuple[Optional[tuple[int, ...]], bool]] = {}
        images: dict[str, tuple[Optional[tuple[int, ...]], bool]] = {}

        def points(part: str, is_domain: bool) -> tuple[Optional[tuple[int, ...]], bool]:
            try:
                p = tuple(map(int, part.split()))
            except ValueError:
                return None, False
            return p, bool(p) and all(1 <= i <= degree for i in p) and (
                all(a < b for a, b in zip(p, p[1:])) if is_domain else len(set(p)) == len(p))

        def read(text: str) -> Quasipermutation:
            head, _, rest = text.partition(":")
            dom, arrow, img = rest.partition("->")
            if dom not in domains:
                domains[dom] = points(dom, True)
            if img not in images:
                images[img] = points(img, False)
            (domain, domain_ok), (image, image_ok) = domains[dom], images[img]
            try:
                k = int(head)  # not isdigit: "²".isdigit(), but int("²") raises
            except ValueError:
                k = None
            if not arrow or k is None or domain is None or image is None:
                raise ValueError(f"malformed quasipermutation text {text!r}")
            if k != len(domain):
                raise ValueError(f"length prefix {k} does not match domain in {text!r}")
            if not (domain_ok and image_ok and k == len(image)):
                return cls(degree, domain, image)
            f = object.__new__(cls)
            f.__dict__.update(degree=degree, domain=domain, image=image)
            return f

        return read

    def __str__(self) -> str:
        return self.text_form()


def qp_compose(f: Quasipermutation, g: Quasipermutation) -> Optional[Quasipermutation]:
    """The product f*g: apply f first, then g.

    Defined exactly when the range of f equals the domain of g; returns None
    otherwise.  Degrees must agree, and an argument that is not a
    Quasipermutation raises ValueError naming it.
    """
    for name, h in (("f", f), ("g", g)):
        if not isinstance(h, Quasipermutation):
            raise ValueError(f"{name} is not a Quasipermutation: {h!r}")
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
    if not isinstance(f, Quasipermutation):
        raise ValueError(f"f is not a Quasipermutation: {f!r}")
    if f.length == 1:
        return 1 if f.domain == f.image else -1
    inversions = 0
    for i in range(f.length):
        for j in range(i + 1, f.length):
            if f.image[i] > f.image[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def _spaced(points: Sequence[int]) -> str:
    return " ".join(map(str, points))


def _enumerate(n: int) -> list[Quasipermutation]:
    """All quasipermutations of degree n: identity maps first (by length,
    then domain), then the rest by (length, domain, image).  Raises
    SizeLimitError above the degree bound, before enumerating.

    A map from ``combinations`` x ``permutations`` is valid by construction,
    so each is made without ``__init__``'s checks, with its text joined from
    the text of its domain and of its image; the images of each length are
    listed, and their texts made, once."""
    if n > DEGREE_LIMIT:
        raise SizeLimitError(f"degree {n} exceeds the bound {DEGREE_LIMIT}")
    units: list[Quasipermutation] = []
    rest: list[Quasipermutation] = []
    make = object.__new__
    points = range(1, n + 1)
    for k in range(1, n + 1):
        images = [(image, _spaced(image)) for image in itertools.permutations(points, k)]
        for domain in itertools.combinations(points, k):
            head = f"{k}: {_spaced(domain)} -> "
            for image, tail in images:
                f = make(Quasipermutation)
                f.__dict__.update(degree=n, domain=domain, image=image, _text=head + tail)
                (units if image == domain else rest).append(f)
    return units + rest


def _even(maps: Sequence[Quasipermutation]) -> list[Quasipermutation]:
    """The maps of signature 1, in list order.  Past length 1 the signature
    depends on the image alone, so it is taken once per distinct image."""
    even_image: dict[tuple[int, ...], bool] = {}
    even: list[Quasipermutation] = []
    for f in maps:
        image = f.image
        if len(image) == 1:
            keep = signature(f) == 1
        else:
            keep = even_image.get(image)
            if keep is None:
                keep = even_image[image] = signature(f) == 1
        if keep:
            even.append(f)
    return even


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
    # the sorted range and permutation number of each distinct image
    by_image: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    coords: list[_Coordinate] = []
    for f in maps:
        image = f.image
        got = by_image.get(image)
        if got is None:
            rng = tuple(sorted(image))
            at = {v: i for i, v in enumerate(rng)}
            pi = tuple(at[v] for v in image)
            got = by_image[image] = (subsets.setdefault(rng, rng), rank.setdefault(pi, len(rank)))
        coords.append((subsets.setdefault(f.domain, f.domain), *got))
    return coords, list(rank)


def _table(
    coords: Sequence[_Coordinate], perms: Sequence[tuple[int, ...]]
) -> tuple[list[bool], list[Optional[int]], list[Optional[int]], list[Optional[int]],
           Iterator[dict[int, Optional[int]]]]:
    """The table the maps with these coordinates determine, as
    (is_identity, alpha, beta, inv, rows), each entry the list position of a
    map: the map (A, B, p) has source the identity on A, target the identity
    on B, inverse (B, A, p^-1) and, for each map (B, C, q) in list order, the
    product (A, C, p;q).  An entry is None where the map it names is not in
    the list, and names the last of a map listed twice.  p;q is worked out
    once for each p of a map into B and q of a map out of B, so the work
    follows the maps given, not k!.  The rows are yielded one at a time.
    Takes ``_coordinates(maps)``."""
    rank = {p: r for r, p in enumerate(perms)}
    number: dict[tuple[int, ...], int] = {}
    numbered = [(number.setdefault(a, len(number)), number.setdefault(b, len(number)), p)
                for a, b, p in coords]
    # hom[A][C][p] = map, for each C one or two maps reach from A, so that a
    # missing map reads None through .get; the size follows the products
    hom: list[dict[int, dict[int, int]]] = [{} for _ in number]
    bucket: list[list[tuple[int, int, int]]] = [[] for _ in number]  # maps out of B
    into: list[set[int]] = [set() for _ in number]  # the p of maps into B
    unit_of: list[Optional[int]] = [None] * len(number)  # the identity on A
    is_identity_perm = [p == tuple(range(len(p))) for p in perms]
    is_identity = [a is b and is_identity_perm[p] for a, b, p in coords]
    for j, (b, c, q) in enumerate(numbered):
        hom[b].setdefault(c, {})[q] = j
        bucket[b].append((j, c, q))
        into[c].add(q)
        if is_identity[j]:
            unit_of[b] = j
    none: dict[int, int] = {}  # hom[A][C] where no map goes from A to C
    reach = [list(out_of_b) for out_of_b in hom]
    for a, b in {(a, b) for a, b, _ in numbered}:
        for c in reach[b]:
            hom[a].setdefault(c, none)
    composite: list[dict[int, Optional[int]]] = [{} for _ in perms]  # [p][q] = p;q
    for ps, out_of_b in zip(into, bucket):
        qs = {q for _, _, q in out_of_b}
        for p in ps:
            # p;q is (q[p[0]], ..., q[p[-1]]); itemgetter gives q[p[0]] bare for one point
            pick, row = itemgetter(*perms[p]), composite[p]
            for q in qs:
                pq = pick(perms[q])
                row[q] = rank.get(pq if type(pq) is tuple else (pq,))
    undo = [rank.get(tuple(sorted(range(len(p)), key=p.__getitem__))) for p in perms]

    def rows() -> Iterator[dict[int, Optional[int]]]:
        for a, b, p in numbered:
            times_p, out_of_a = composite[p], hom[a]
            yield {j: out_of_a[c].get(times_p[q]) for j, c, q in bucket[b]}

    return (is_identity, [unit_of[a] for a, _, _ in numbered],
            [unit_of[b] for _, b, _ in numbered],
            [hom[b].get(a, none).get(undo[p]) for a, b, p in numbered], rows())


def _groupoid(maps: list[Quasipermutation]) -> FiniteGroupoid:
    """The groupoid on a list of quasipermutations closed under composition
    and inversion, with elements in list order, the maps as payloads and
    the table ``_table`` reads off them.  A list that is not closed, so
    that some entry of that table is None, raises ValueError."""
    is_identity, alpha, beta, inv, rows = _table(*_coordinates(maps))
    not_closed = ValueError("the maps are not closed under composition and inversion")
    if None in (*alpha, *beta, *inv):
        raise not_closed

    def closed_rows() -> Iterator[dict[int, Optional[int]]]:
        for row in rows:
            if None in row.values():
                raise not_closed
            yield row

    return FiniteGroupoid._typed(
        elements=[f.text_form() for f in maps],
        units=[x for x, unit in enumerate(is_identity) if unit],
        alpha=alpha,
        beta=beta,
        inv=inv,
        rows=closed_rows(),
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
    return _groupoid(_even(_enumerate(n)))


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


def check_quasiperm_payloads(g: FiniteGroupoid) -> ValidationReport:
    """Verify that the groupoid's tables agree with its quasipermutation
    payloads: units are identity maps, anchors pick the identities on
    domain and range, inverses and products match map inversion and
    composition.

    Every check reads the coordinates (domain, range, permutation number)
    of ``_coordinates``; no map is built.  The tables must equal those
    ``_table`` reads off the payloads, up to repeated maps: an entry passes
    when it names the map ``_table`` names or one with the same coordinates.
    A row equal to ``_table``'s passes whole, and only a row that differs is
    walked, so a failing table costs no more than a passing one.  A unit,
    source, target or inverse index out of range is reported alone, before
    any coordinate is read (``_index_violations``); a payload that is not a
    Quasipermutation, or payloads of different degrees, raise ValueError
    after that.

    A passing report makes x -> payload an embedding of the table in the
    groupoid of the symmetric inverse monoid (Ehresmann-Schein-Nambooripad),
    which is associative, so the table is a groupoid and ``validate``
    passes on it too."""
    if g.payloads is None:
        return ValidationReport((Violation("payload", (), "no payloads present"),))
    v = _index_violations(g, "payload")
    if v:
        return ValidationReport(tuple(v))
    for x, f in enumerate(g.payloads):
        if not isinstance(f, Quasipermutation):
            raise ValueError(f"payload {x} is not a Quasipermutation: {f!r}")
        if f.degree != g.payloads[0].degree:
            raise ValueError(f"degree mismatch: {g.payloads[0].degree} vs {f.degree}")
    # for maps of one degree a coordinate names one map
    coords, perms = _coordinates(g.payloads)
    by_value: dict[_Coordinate, int] = {}
    for i, c in enumerate(coords):
        if c in by_value:
            v.append(Violation("payload", (by_value[c], i), "duplicate quasipermutation"))
        by_value[c] = i
    n = len(coords)

    def same(z: int, w: Optional[int]) -> bool:
        # z names the map w names, or one with its coordinates
        return z == w or (w is not None and 0 <= z < n and coords[z] == coords[w])

    is_identity, alpha, beta, inv, rows = _table(coords, perms)
    for x in range(n):
        if g.is_unit(x) != is_identity[x]:
            v.append(Violation(
                "payload", (x,), "unit flag disagrees with being an identity map"))
        if not same(g.alpha[x], alpha[x]):
            v.append(Violation(
                "payload", (x,), "source is not the identity on the domain"))
        if not same(g.beta[x], beta[x]):
            v.append(Violation(
                "payload", (x,), "target is not the identity on the range"))
        if not same(g.inv[x], inv[x]):
            v.append(Violation("payload", (x,), "inverse map mismatch"))
    products = [Violation("payload", (x, y), "product defined but maps do not compose")
                for x, row in g._stray.items() for y in row]
    for x, (row, want) in enumerate(zip(g.rows, rows)):
        if row == want:
            continue
        for y, z in row.items():
            if y not in want:
                products.append(Violation(
                    "payload", (x, y), "product defined but maps do not compose"))
            elif not same(z, want[y]):
                products.append(Violation(
                    "payload", (x, y), "product disagrees with map composition"))
        products.extend(Violation("payload", (x, y), "maps compose but product is undefined")
                        for y in want if y not in row)
    products.sort(key=attrgetter("witness"))
    return ValidationReport((*v, *products))
