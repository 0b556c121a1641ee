"""Groupoid morphisms: validation, strength, kernels, images, and the
machine-checked subgroupoid correspondence for surjective strong maps.

``validate_morphism`` validates both endpoints, once, before any law;
``kernel``, ``image``, ``correspondence_check`` and ``is_isomorphism`` call
it first.  ``is_strong``, ``preimage``, ``compose_morphisms`` and the
morphism builders trust their input, as does ``_morphism_laws``, the law
check alone, which ``structured`` runs on morphisms between groupoids that
are valid by construction.  The product law is listed at generators."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional

from .core import (
    FiniteGroupoid, ValidationReport, Violation, _Brandt, _brandt, _ints, _prefixed,
    _product_failures, validate,
)
from .constructions import (
    _induced_from,
    _pair_grid,
    induced_triples,
    left_translation_groupoid,
    pair_groupoid_over,
)
from .subgroupoids import (
    SubgroupoidHandle,
    _lattice,
    _require_enumerable,
    enumerate_subgroupoids,  # not called here; perfbench's tracer self-test looks it up
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
        self.elem_map = _ints("element map", elem_map)
        if len(self.elem_map) != len(domain):
            raise ValueError(
                f"element map has {len(self.elem_map)} entries for {len(domain)} elements")
        for x, v in enumerate(self.elem_map):
            if not 0 <= v < len(codomain):
                raise ValueError(f"element map sends {x} to out-of-range index {v}")
        if unit_map is None:
            self.unit_map = {u: self.elem_map[u] for u in domain.units}
        else:
            self.unit_map = dict(zip(_ints("unit map", unit_map),
                                     _ints("unit map", unit_map.values())))
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
    alone, and so is a unit-map value that is not a unit.  Otherwise the
    report carries the Brandt decompositions of domain and codomain."""
    domain, codomain = validate(m.domain), validate(m.codomain)
    v = _prefixed(domain, "domain") + _prefixed(codomain, "codomain") or _unit_map_violations(m)
    if v:
        return ValidationReport(tuple(v))
    return replace(_morphism_laws(m, domain._decompositions[0]),
                   _decompositions=domain._decompositions + codomain._decompositions)


def _unit_map_violations(m: GroupoidMorphism) -> list[Violation]:
    """The unit-map values that are not units of the codomain."""
    return [Violation("structure", (u, w), "unit map value is not a unit")
            for u, w in m.unit_map.items() if not m.codomain.is_unit(w)]


def _morphism_laws(m: GroupoidMorphism, b: Optional[_Brandt] = None) -> ValidationReport:
    """``validate_morphism``'s laws, trusting that both endpoints validate
    and that the unit map sends units to units.  The product law is listed
    at the generators of the domain (``core._product_failures``) in its
    Brandt decomposition b, derived here when not given, which decides it
    once the anchor and unit laws hold and names failing pairs otherwise."""
    g, h, f, f0 = m.domain, m.codomain, m.elem_map, m.unit_map
    v = [Violation("anchor-compat", (x,),
                   f"{end} of image of {g.elements[x]} disagrees with mapped {end}")
         for x in range(len(g))
         for end, a, b in (("source", g.alpha, h.alpha), ("target", g.beta, h.beta))
         if b[f[x]] != f0[a[x]]]
    v.extend(Violation("mul-compat", (x, y), f"images of composable pair "
                       f"{g.elements[x]}, {g.elements[y]} do not compose"
                       if h.rows[f[x]].get(f[y]) is None else
                       f"image of {g.elements[x]} * {g.elements[y]} is not the product of images")
             for x, y in _product_failures(g, h, f, _brandt(g) if b is None else b))
    v.extend(Violation("unit-compat", (u,),
                       f"element map and unit map disagree on unit {g.elements[u]}")
             for u in g.units if f[u] != f0[u])
    v.extend(Violation("inv-compat", (x,),
                       f"image of inverse of {g.elements[x]} is not the inverse of its image")
             for x in range(len(g)) if f[g.inv[x]] != h.inv[f[x]])
    return ValidationReport(tuple(v))


def is_strong(m: GroupoidMorphism) -> tuple[bool, Optional[tuple[int, int]]]:
    """A morphism is strong when it reflects composability: whenever the
    images of x and y compose, x and y already compose.  Returns the flag
    and, when false, the lexicographically first witness pair (x, y).
    Of the y whose image starts at a unit c, x fails first with the least,
    y0, or else with the least whose source differs from y0's, so these two
    are the only candidates kept per c; on a valid morphism strength is
    injectivity of the unit map."""
    g, h, f = m.domain, m.codomain, m.elem_map
    candidates: dict[int, list[int]] = {}
    for y in range(len(g)):
        ys = candidates.setdefault(h.alpha[f[y]], [y])
        if len(ys) == 1 and g.alpha[y] != g.alpha[ys[0]]:
            ys.append(y)
    for x in range(len(g)):
        for y in candidates.get(h.beta[f[x]], ()):
            if g.alpha[y] != g.beta[x]:
                return False, (x, y)
    return True, None


def _require_strong(m: GroupoidMorphism, what: str) -> None:
    """Raise ValueError, its message opening with ``what``, naming the
    witness pair unless the morphism is strong."""
    strong, witness = is_strong(m)
    if not strong:
        x, y = witness
        raise ValueError(
            f"{what} a strong morphism; composability is not reflected at "
            f"({m.domain.elements[x]}, {m.domain.elements[y]})")


def is_isomorphism(m: GroupoidMorphism) -> bool:
    """True when the morphism validates (so both endpoints are groupoids)
    and f is a bijection, which makes f0 (f on units) a bijection too."""
    return (validate_morphism(m).passed
            and len(m.domain) == len(set(m.elem_map)) == len(m.codomain))


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
    """Image of a subgroupoid of the domain (defaults to the whole domain).
    Requires a valid, strong morphism; otherwise the image need not be
    closed."""
    if h is not None and h.parent != m.domain:
        raise ValueError("image needs a subgroupoid of the domain")
    validate_morphism(m).require("image")
    _require_strong(m, "image requires")
    members = set(m.elem_map) if h is None else {m.elem_map[x] for x in h.members}
    return subgroupoid_handle(m.codomain, members)


def preimage(m: GroupoidMorphism, h: SubgroupoidHandle) -> SubgroupoidHandle:
    """Pullback of a subgroupoid of the codomain."""
    if h.parent != m.codomain:
        raise ValueError("preimage needs a subgroupoid of the codomain")
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
    at = _pair_grid(len(base))
    codomain = pair_groupoid_over(base)
    elem_map = [at[pos[a]][pos[b]] for a, b in zip(g.alpha, g.beta)]
    return GroupoidMorphism(g, codomain, elem_map, {u: pos[u] for u in g.units})


def induced_canonical_morphism(g: FiniteGroupoid, f: Mapping[str, str]) -> GroupoidMorphism:
    """The projection (x, y, a) -> a from the pullback of g along f back
    to g."""
    points, target_unit, triples = induced_triples(g, f)
    return GroupoidMorphism(_induced_from(g, points, target_unit, triples), g,
                            [a for _, _, a in triples])


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
    between the two member-set families, neither of which repeats a set.

    One direction decides it: if |left| == |right| and every l has f(l) in
    right and preimage(f(l)) == l, then l -> f(l) is injective, so onto
    right by the count, and preimage inverts it."""
    if len(left) != len(right):
        return False
    right_set = {frozenset(r) for r in right}
    for mem in left:
        fwd = frozenset(f[x] for x in mem)
        if fwd not in right_set:
            return False
        if frozenset(x for x in range(len(f)) if f[x] in fwd) != frozenset(mem):
            return False
    return True


def correspondence_check(m: GroupoidMorphism) -> CorrespondenceReport:
    """Exhaustively verify the subgroupoid correspondence for a surjective
    strong morphism.  Hypothesis failures raise before any enumeration;
    the endpoints are validated once, by ``validate_morphism``."""
    domain, codomain = validate_morphism(m)._decomposed("correspondence")
    _require_strong(m, "correspondence needs")
    if set(m.elem_map) != set(range(len(m.codomain))):
        raise ValueError("correspondence needs a morphism surjective on elements")
    # onto the elements, so onto the units; the codomain is no larger than the domain
    _require_enumerable(m.domain)
    ker = tuple(x for x in range(len(m.domain)) if m.codomain.is_unit(m.elem_map[x]))
    inside_ker = set(ker)
    over_kernel = [h for h in _lattice(m.domain, domain) if inside_ker.issubset(h.members)]
    codomain_subs = _lattice(m.codomain, codomain)
    domain_side = [h.members for h in over_kernel]
    wide = [h.members for h in codomain_subs if h.is_wide]
    normal_over = [h.members for h in over_kernel if h.is_normal]
    normal_wide = [h.members for h in codomain_subs if h.is_normal]
    return CorrespondenceReport(
        kernel_members=ker,
        domain_over_kernel=tuple(domain_side),
        codomain_wide=tuple(wide),
        normal_domain_over_kernel=tuple(normal_over),
        normal_codomain=tuple(normal_wide),
        literal_all_count=len(codomain_subs),
        sub_bijection=_mutually_inverse(m.elem_map, domain_side, wide),
        normal_bijection=_mutually_inverse(m.elem_map, normal_over, normal_wide),
    )
