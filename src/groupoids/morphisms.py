"""Groupoid morphisms: validation, strength, kernels, images, and the
machine-checked subgroupoid correspondence for surjective strong maps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .core import FiniteGroupoid, ValidationReport, Violation, _generators, _prefixed, validate
from .constructions import (
    induced_groupoid,
    induced_triples,
    left_translation_groupoid,
    pair_groupoid_over,
    pair_index,
)
from .subgroupoids import (
    SubgroupoidHandle,
    enumerate_subgroupoids,
    subgroupoid_handle,
)

__all__ = [
    "CorrespondenceReport",
    "GroupoidMorphism",
    "anchor_morphism",
    "cayley_embed",
    "compose_morphisms",
    "correspondence_check",
    "identity_morphism",
    "image",
    "induced_canonical_morphism",
    "is_isomorphism",
    "is_strong",
    "kernel",
    "preimage",
    "validate_morphism",
]


class GroupoidMorphism:
    """A pair of maps: elements of the domain to elements of the codomain,
    and units to units.  When unit_map is omitted it is read off the
    element map."""

    def __init__(
        self,
        domain: FiniteGroupoid,
        codomain: FiniteGroupoid,
        elem_map: Iterable[int],
        unit_map: Optional[Mapping[int, int]] = None,
    ):
        self.domain = domain
        self.codomain = codomain
        self.elem_map = tuple(int(v) for v in elem_map)
        if len(self.elem_map) != len(domain):
            raise ValueError(
                f"element map has {len(self.elem_map)} entries for {len(domain)} elements")
        for x, v in enumerate(self.elem_map):
            if not 0 <= v < len(codomain):
                raise ValueError(f"element map sends {x} to out-of-range index {v}")
        if unit_map is None:
            self.unit_map = {u: self.elem_map[u] for u in domain.units}
        else:
            self.unit_map = {int(k): int(v) for k, v in unit_map.items()}
        if sorted(self.unit_map) != list(domain.units):
            raise ValueError("unit map must be defined exactly on the domain units")
        for u, v in self.unit_map.items():
            if not 0 <= v < len(self.codomain):
                raise ValueError(f"unit map sends {u} to out-of-range index {v}")

    def apply(self, x: int) -> int:
        return self.elem_map[x]

    def __repr__(self) -> str:
        return (f"GroupoidMorphism({len(self.domain)} -> {len(self.codomain)} "
                f"elements)")


def validate_morphism(m: GroupoidMorphism) -> ValidationReport:
    """Check compatibility with products and anchors, plus the derived
    identities on units and inverses, between groupoids only: violations of
    either endpoint, prefixed ``domain-`` or ``codomain-``, are reported
    alone.  The scan over every product runs only when a product fails at
    the generators of the domain or the anchor or unit law fails."""
    endpoints = (_prefixed(validate(m.domain), "domain")
                 + _prefixed(validate(m.codomain), "codomain"))
    if endpoints:
        return ValidationReport(tuple(endpoints))
    g, h, f, f0 = m.domain, m.codomain, m.elem_map, m.unit_map
    v = [Violation("structure", (u, w), "unit map value is not a unit")
         for u, w in f0.items() if not h.is_unit(w)]
    if v:
        return ValidationReport(tuple(v))
    for x in range(len(g)):
        if h.alpha[f[x]] != f0[g.alpha[x]]:
            v.append(Violation(
                "anchor-compat", (x,),
                f"source of image of {g.elements[x]} disagrees with mapped source"))
        if h.beta[f[x]] != f0[g.beta[x]]:
            v.append(Violation(
                "anchor-compat", (x,),
                f"target of image of {g.elements[x]} disagrees with mapped target"))
    unit_breaks = [
        Violation("unit-compat", (u,), f"element map and unit map disagree on unit {g.elements[u]}")
        for u in g.units if f[u] != f0[u]]
    if v or unit_breaks or not _compatible_at_generators(m):
        for (x, y), z in g.mul.items():
            fz = h.mul.get((f[x], f[y]))
            if fz is None:
                v.append(Violation(
                    "mul-compat", (x, y),
                    f"images of composable pair {g.elements[x]}, {g.elements[y]} do not compose"))
            elif fz != f[z]:
                v.append(Violation(
                    "mul-compat", (x, y),
                    f"image of {g.elements[x]} * {g.elements[y]} is not the product of images"))
    v.extend(unit_breaks)
    v.extend(Violation("inv-compat", (x,),
                       f"image of inverse of {g.elements[x]} is not the inverse of its image")
             for x in range(len(g)) if f[g.inv[x]] != h.inv[f[x]])
    return ValidationReport(tuple(v))


def _compatible_at_generators(m: GroupoidMorphism) -> bool:
    """True when f(s*y) == f(s)*f(y) for every generator s of the domain and
    every y after s.  With the anchor and unit laws, this decides the product
    law: the x with f(x*y) == f(x)*f(y) for every y include the units and are
    closed under products, and the generators reach every element."""
    g, h, f = m.domain, m.codomain, m.elem_map
    after: dict[int, list[int]] = {}
    for y in range(len(g)):
        after.setdefault(g.alpha[y], []).append(y)
    return all(h.mul.get((f[s], f[y])) == f[g.mul[(s, y)]]
               for s in _generators(g) for y in after[g.beta[s]])


def is_strong(m: GroupoidMorphism) -> tuple[bool, Optional[tuple[int, int]]]:
    """A morphism is strong when it reflects composability: whenever the
    images of x and y compose, x and y already compose.  Returns the flag
    and, when false, the lexicographically first witness pair (x, y).
    The images compose exactly when y is in the bucket of elements whose
    image starts where the image of x ends, so only those pairs are visited;
    on a valid morphism this is injectivity of the unit map."""
    g, h, f = m.domain, m.codomain, m.elem_map
    by_image_source: dict[int, list[int]] = {}
    for y in range(len(g)):
        by_image_source.setdefault(h.alpha[f[y]], []).append(y)
    for x in range(len(g)):
        bx = g.beta[x]
        for y in by_image_source.get(h.beta[f[x]], ()):
            if g.alpha[y] != bx:
                return False, (x, y)
    return True, None


def is_isomorphism(m: GroupoidMorphism) -> bool:
    """True when the morphism validates (so both endpoints are groupoids)
    and both maps are bijections."""
    return (validate_morphism(m).passed
            and len(m.domain) == len(set(m.elem_map)) == len(m.codomain)
            and sorted(m.unit_map.values()) == list(m.codomain.units))


def identity_morphism(g: FiniteGroupoid) -> GroupoidMorphism:
    return GroupoidMorphism(g, g, range(len(g)))


def compose_morphisms(first: GroupoidMorphism, second: GroupoidMorphism) -> GroupoidMorphism:
    """The composite applying first, then second."""
    if first.codomain != second.domain:
        raise ValueError("codomain of the first morphism must be the domain of the second")
    return GroupoidMorphism(
        first.domain,
        second.codomain,
        [second.elem_map[v] for v in first.elem_map],
        {u: second.unit_map[w] for u, w in first.unit_map.items()},
    )


def kernel(m: GroupoidMorphism) -> SubgroupoidHandle:
    """Elements sent to a unit of the codomain: a wide normal subgroupoid of
    the domain once the morphism validates (Brown, ch. 8), so not classified."""
    validate_morphism(m).require("kernel")
    members = tuple(x for x in range(len(m.domain)) if m.codomain.is_unit(m.elem_map[x]))
    return SubgroupoidHandle(m.domain, members, True, True)


def image(m: GroupoidMorphism, h: Optional[SubgroupoidHandle] = None) -> SubgroupoidHandle:
    """Image of a subgroupoid (defaults to the whole domain).  Requires a
    valid, strong morphism; otherwise the image need not be closed."""
    validate_morphism(m).require("image")
    strong, witness = is_strong(m)
    if not strong:
        x, y = witness
        raise ValueError(
            "image requires a strong morphism; composability is not reflected at "
            f"({m.domain.elements[x]}, {m.domain.elements[y]})")
    members = set(m.elem_map) if h is None else {m.elem_map[x] for x in h.members}
    return subgroupoid_handle(m.codomain, members)


def preimage(m: GroupoidMorphism, h: SubgroupoidHandle) -> SubgroupoidHandle:
    """Pullback of a subgroupoid of the codomain."""
    inside = set(h.members)
    members = [x for x in range(len(m.domain)) if m.elem_map[x] in inside]
    return subgroupoid_handle(m.domain, members)


def cayley_embed(g: FiniteGroupoid) -> GroupoidMorphism:
    """The embedding of g onto its left translations, element by element."""
    return GroupoidMorphism(g, left_translation_groupoid(g), range(len(g)))


def anchor_morphism(g: FiniteGroupoid) -> GroupoidMorphism:
    """The map x -> (source, target) into the pair groupoid on g's base."""
    base = [g.unit_base_label(u) for u in g.units]
    pos = {u: i for i, u in enumerate(g.units)}
    n = len(base)
    codomain = pair_groupoid_over(base)
    elem_map = [pair_index(n, pos[g.alpha[x]], pos[g.beta[x]]) for x in range(len(g))]
    return GroupoidMorphism(g, codomain, elem_map, {u: pos[u] for u in g.units})


def induced_canonical_morphism(g: FiniteGroupoid, f: Mapping[str, str]) -> GroupoidMorphism:
    """The projection (x, y, a) -> a from the pullback of g along f back
    to g."""
    points, target_unit, triples = induced_triples(g, f)
    domain = induced_groupoid(g, f)
    index = {t: k for k, t in enumerate(triples)}
    unit_map = {index[(x, x, target_unit[x])]: target_unit[x] for x in points}
    return GroupoidMorphism(domain, g, [a for _, _, a in triples], unit_map)


@dataclass(frozen=True)
class CorrespondenceReport:
    """Outcome of checking that direct and inverse image are mutually
    inverse bijections between the subgroupoids of the domain containing
    the kernel and the wide subgroupoids of the codomain, and likewise
    for the normal ones.

    literal_all_count counts every subgroupoid of the codomain, wide or
    not; literal_reading_matches records whether that larger family is
    already in bijection with the domain side.
    """

    kernel_members: tuple[int, ...]
    domain_over_kernel: tuple[tuple[int, ...], ...]
    codomain_wide: tuple[tuple[int, ...], ...]
    normal_domain_over_kernel: tuple[tuple[int, ...], ...]
    normal_codomain: tuple[tuple[int, ...], ...]
    literal_all_count: int
    sub_bijection: bool
    normal_bijection: bool

    @property
    def literal_reading_matches(self) -> bool:
        return self.literal_all_count == len(self.domain_over_kernel)

    @property
    def passed(self) -> bool:
        return self.sub_bijection and self.normal_bijection

    def summary(self) -> str:
        return (
            f"|kernel| = {len(self.kernel_members)}; "
            f"{len(self.domain_over_kernel)} subgroupoids over the kernel <-> "
            f"{len(self.codomain_wide)} wide subgroupoids "
            f"({'ok' if self.sub_bijection else 'FAILED'}); "
            f"{len(self.normal_domain_over_kernel)} normal over the kernel <-> "
            f"{len(self.normal_codomain)} wide normal "
            f"({'ok' if self.normal_bijection else 'FAILED'}); "
            f"codomain has {self.literal_all_count} subgroupoids in total"
        )


def _mutually_inverse(
    f: tuple[int, ...],
    left: list[tuple[int, ...]],
    right: list[tuple[int, ...]],
) -> bool:
    """True when direct image and preimage restrict to inverse bijections
    between the two member-set families."""
    right_set = {frozenset(r) for r in right}
    left_set = {frozenset(l) for l in left}
    if len(left) != len(right):
        return False
    for mem in left:
        fwd = frozenset(f[x] for x in mem)
        if fwd not in right_set:
            return False
        back = frozenset(x for x in range(len(f)) if f[x] in fwd)
        if back != frozenset(mem):
            return False
    for mem in right:
        back = frozenset(x for x in range(len(f)) if f[x] in set(mem))
        if back not in left_set:
            return False
        fwd = frozenset(f[x] for x in back)
        if fwd != frozenset(mem):
            return False
    return True


def correspondence_check(m: GroupoidMorphism) -> CorrespondenceReport:
    """Exhaustively verify the subgroupoid correspondence for a surjective
    strong morphism.  Hypothesis failures raise before any enumeration."""
    report = validate_morphism(m)
    if not report.passed:
        raise ValueError(f"correspondence needs a valid morphism: {report.violations[0]}")
    strong, witness = is_strong(m)
    if not strong:
        x, y = witness
        raise ValueError(
            "correspondence needs a strong morphism; composability is not reflected at "
            f"({m.domain.elements[x]}, {m.domain.elements[y]})")
    if set(m.elem_map) != set(range(len(m.codomain))):
        raise ValueError("correspondence needs a morphism surjective on elements")
    if set(m.unit_map.values()) != set(m.codomain.units):
        raise ValueError("correspondence needs a morphism surjective on units")
    ker = tuple(x for x in range(len(m.domain)) if m.codomain.is_unit(m.elem_map[x]))
    inside_ker = set(ker)
    domain_subs = enumerate_subgroupoids(m.domain)
    codomain_subs = enumerate_subgroupoids(m.codomain)
    over_kernel = [h.members for h in domain_subs if inside_ker <= set(h.members)]
    wide = [h.members for h in codomain_subs if h.is_wide]
    normal_over = [h.members for h in domain_subs
                   if h.is_normal and inside_ker <= set(h.members)]
    normal_wide = [h.members for h in codomain_subs if h.is_normal]
    return CorrespondenceReport(
        kernel_members=ker,
        domain_over_kernel=tuple(over_kernel),
        codomain_wide=tuple(wide),
        normal_domain_over_kernel=tuple(normal_over),
        normal_codomain=tuple(normal_wide),
        literal_all_count=len(codomain_subs),
        sub_bijection=_mutually_inverse(m.elem_map, over_kernel, wide),
        normal_bijection=_mutually_inverse(m.elem_map, normal_over, normal_wide),
    )
