import random

import pytest

from groupoids import (
    FiniteGroupoid,
    GroupoidMorphism,
    anchor_morphism,
    cayley_embed,
    classify_subset,
    compose_morphisms,
    correspondence_check,
    cyclic_group,
    direct_product,
    disjoint_union,
    enumerate_subgroupoids,
    from_group,
    identity_morphism,
    image,
    induced_canonical_morphism,
    induced_groupoid,
    is_isomorphism,
    is_strong,
    kernel,
    null_subgroupoid,
    pair_groupoid,
    preimage,
    subgroupoid_handle,
    symmetric_groupoid,
    validate,
    validate_morphism,
)
from groupoids import constructions, morphisms, subgroupoids
from groupoids.core import Violation
from groupoids.morphisms import _mutually_inverse
from test_constructions import greedy_generators


def projection_from_product(gp2, z2):
    product = direct_product(gp2, z2)
    return GroupoidMorphism(product, gp2, [i // 2 for i in range(8)])


def test_constructor_rejects_bad_maps(gp2, z4):
    with pytest.raises(ValueError):
        GroupoidMorphism(gp2, z4, [0, 1])
    with pytest.raises(ValueError):
        GroupoidMorphism(gp2, z4, [0, 0, 0, 9])
    with pytest.raises(ValueError):
        GroupoidMorphism(gp2, z4, [0, 0, 0, 0], {0: 0})
    with pytest.raises(ValueError):
        GroupoidMorphism(gp2, z4, [0, 0, 0, 0], {0: 0, 1: 9})


def test_constructor_refuses_map_entries_that_are_not_ints(gp2):
    # int() would read [0.9, 1, 2, 3] as the identity of pair(2)
    assert gp2.units == (0, 1)
    for bad in (0.9, "0", False):
        with pytest.raises(ValueError, match=f"element map entries must be ints, got {bad!r}"):
            GroupoidMorphism(gp2, gp2, [bad, 1, 2, 3])
        for unit_map in ({0: bad, 1: 1}, {bad: 0, 1: 1}):
            with pytest.raises(ValueError, match=f"unit map entries must be ints, got {bad!r}"):
                GroupoidMorphism(gp2, gp2, range(4), unit_map)


def test_identity_morphism_validates(golden):
    m = identity_morphism(golden)
    assert validate_morphism(m).passed
    assert is_strong(m) == (True, None)
    assert is_isomorphism(m)


def test_projection_validates_and_is_strong(gp2, z2):
    m = projection_from_product(gp2, z2)
    assert validate_morphism(m).passed
    assert is_strong(m) == (True, None)
    assert not is_isomorphism(m)


def test_group_quotient_morphism(z4, z2):
    m = GroupoidMorphism(z4, z2, [0, 1, 0, 1])
    assert validate_morphism(m).passed
    assert kernel(m).members == (0, 2)


def test_validate_reports_anchor_break(gp2):
    m = GroupoidMorphism(gp2, gp2, [0, 1, 0, 3])
    report = validate_morphism(m)
    assert any(v.axiom == "anchor-compat" and v.witness == (2,) for v in report.violations)


def test_validate_reports_product_break(z4, z2):
    m = GroupoidMorphism(z4, z2, [0, 1, 1, 1])
    report = validate_morphism(m)
    assert any(v.axiom == "mul-compat" for v in report.violations)


def test_validate_reports_unit_and_inverse_breaks(gp2, z4):
    swapped_units = GroupoidMorphism(gp2, gp2, [0, 1, 2, 3], {0: 1, 1: 0})
    report = validate_morphism(swapped_units)
    assert any(v.axiom == "unit-compat" for v in report.violations)

    twisted = GroupoidMorphism(z4, z4, [0, 1, 2, 1])
    report = validate_morphism(twisted)
    codes = {v.axiom for v in report.violations}
    assert "mul-compat" in codes and "inv-compat" in codes

    bad_unit_value = GroupoidMorphism(gp2, gp2, [0, 1, 2, 3], {0: 2, 1: 1})
    report = validate_morphism(bad_unit_value)
    assert [v.axiom for v in report.violations] == ["structure"]


def test_fold_is_valid_but_not_strong(z2):
    folded = disjoint_union(z2, z2)
    m = GroupoidMorphism(folded, z2, [0, 1, 0, 1])
    assert validate_morphism(m).passed
    strong, witness = is_strong(m)
    assert not strong
    x, y = witness
    assert z2.composable(m.apply(x), m.apply(y))
    assert not folded.composable(x, y)


def test_kernel_of_projection(gp2, z2):
    m = projection_from_product(gp2, z2)
    handle = kernel(m)
    assert handle.members == (0, 1, 2, 3)
    assert handle.is_wide and handle.is_normal
    assert validate(handle.as_groupoid()).passed


def test_kernel_of_identity_is_units(golden):
    assert kernel(identity_morphism(golden)).members == golden.units


def test_image_whole_and_restricted(gp2, z2):
    m = projection_from_product(gp2, z2)
    assert image(m).members == tuple(range(4))
    ker = kernel(m)
    img = image(m, ker)
    assert img.members == gp2.units


def test_image_requires_strong(z2):
    folded = disjoint_union(z2, z2)
    m = GroupoidMorphism(folded, z2, [0, 1, 0, 1])
    with pytest.raises(ValueError) as err:
        image(m)
    assert "1/0" in str(err.value) and "2/0" in str(err.value)


def test_preimage_of_units_is_kernel(gp2, z2, z4):
    m = projection_from_product(gp2, z2)
    assert preimage(m, null_subgroupoid(gp2)).members == kernel(m).members
    q = GroupoidMorphism(z4, z2, [0, 1, 0, 1])
    assert preimage(q, null_subgroupoid(z2)).members == (0, 2)


def test_image_and_preimage_refuse_a_handle_of_another_groupoid(gp2, gp3):
    m = identity_morphism(gp2)
    with pytest.raises(ValueError, match="^image needs a subgroupoid of the domain$"):
        image(m, subgroupoid_handle(gp3, range(9)))
    with pytest.raises(ValueError, match="^preimage needs a subgroupoid of the codomain$"):
        preimage(m, subgroupoid_handle(gp3, [0]))
    # a handle of an equal table is a handle of the same groupoid
    assert image(m, null_subgroupoid(pair_groupoid(2))).members == gp2.units
    assert preimage(m, null_subgroupoid(pair_groupoid(2))).members == gp2.units


def test_preimage_under_anchor_is_isotropy_bundle(golden):
    m = anchor_morphism(golden)
    diagonal = null_subgroupoid(m.codomain)
    handle = preimage(m, diagonal)
    assert handle.members == golden.isotropy_bundle()
    assert handle.is_wide and handle.is_normal


def test_cayley_embedding_is_isomorphism_onto_translations(corpus):
    for name, g in corpus.items():
        m = cayley_embed(g)
        assert validate_morphism(m).passed, name
        assert is_isomorphism(m), name


def test_is_isomorphism_refuses_a_non_groupoid(z4):
    """The identity of Z4 with the inverse of 1 retargeted to 1: its
    endpoints fail validate (G3), and validate_morphism reports exactly
    their violations, prefixed."""
    inv = list(z4.inv)
    inv[1] = 1
    broken = FiniteGroupoid(z4.elements, z4.units, z4.alpha, z4.beta, inv, z4.mul)
    m = identity_morphism(broken)
    endpoint = validate(broken).violations
    assert endpoint and validate_morphism(m).violations == tuple(
        Violation(f"{side}-{v.axiom}", v.witness, v.detail)
        for side in ("domain", "codomain") for v in endpoint)
    assert not is_isomorphism(m)
    assert is_isomorphism(identity_morphism(z4))


def test_anchor_morphism_properties(gp2, z4, golden):
    a = anchor_morphism(gp2)
    assert validate_morphism(a).passed
    assert is_isomorphism(a)
    assert is_strong(a) == (True, None)

    single = anchor_morphism(z4)
    assert validate_morphism(single).passed
    assert single.codomain.groupoid_type() == (1, 1)

    big = anchor_morphism(golden)
    assert validate_morphism(big).passed
    assert is_strong(big) == (True, None)
    assert big.codomain.groupoid_type() == (36, 6)


def test_induced_canonical_morphism(z2):
    m = induced_canonical_morphism(z2, {"x": "0", "y": "0"})
    assert m.domain.groupoid_type() == (8, 2)
    assert validate_morphism(m).passed
    strong, witness = is_strong(m)
    assert not strong
    x, y = witness
    assert z2.composable(m.apply(x), m.apply(y))
    assert not m.domain.composable(x, y)


def test_induced_canonical_morphism_lists_the_triples_once(z2, monkeypatch):
    calls = []
    listed = constructions.induced_triples

    def counted(g, f):
        calls.append(f)
        return listed(g, f)

    monkeypatch.setattr(constructions, "induced_triples", counted)
    monkeypatch.setattr(morphisms, "induced_triples", counted)
    m = induced_canonical_morphism(z2, {"x": "0", "y": "0"})
    assert len(calls) == 1
    assert m.domain == induced_groupoid(z2, {"x": "0", "y": "0"})
    assert m.domain.elements == induced_groupoid(z2, {"x": "0", "y": "0"}).elements


def test_compose_morphisms(z4, z2):
    quotient = GroupoidMorphism(z4, z2, [0, 1, 0, 1])
    collapse = anchor_morphism(z2)
    both = compose_morphisms(quotient, collapse)
    assert validate_morphism(both).passed
    assert both.elem_map == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        compose_morphisms(collapse, quotient)


def test_composite_of_strong_maps_is_strong(gp2, z2):
    m = projection_from_product(gp2, z2)
    a = anchor_morphism(gp2)
    both = compose_morphisms(m, a)
    assert validate_morphism(both).passed
    assert is_strong(both) == (True, None)


def test_correspondence_for_product_projection(gp2, z2):
    report = correspondence_check(projection_from_product(gp2, z2))
    assert report.passed
    assert report.kernel_members == (0, 1, 2, 3)
    assert len(report.domain_over_kernel) == 2
    assert len(report.codomain_wide) == 2
    assert report.literal_all_count == 4
    assert not report.literal_reading_matches
    assert "ok" in report.summary()


def test_correspondence_for_group_quotient(z4, z2):
    report = correspondence_check(GroupoidMorphism(z4, z2, [0, 1, 0, 1]))
    assert report.passed
    assert len(report.domain_over_kernel) == 2
    assert report.literal_reading_matches


def test_correspondence_for_identities(gp2, z4):
    flat = correspondence_check(identity_morphism(gp2))
    assert flat.passed
    assert len(flat.domain_over_kernel) == 2
    assert flat.literal_all_count == 4
    assert not flat.literal_reading_matches

    grp = correspondence_check(identity_morphism(z4))
    assert grp.passed
    assert len(grp.domain_over_kernel) == 3
    assert grp.literal_reading_matches


def test_correspondence_rejects_bad_hypotheses(z2, z4):
    with pytest.raises(ValueError):
        correspondence_check(GroupoidMorphism(z4, z2, [0, 1, 1, 1]))
    folded = disjoint_union(z2, z2)
    with pytest.raises(ValueError) as err:
        correspondence_check(GroupoidMorphism(folded, z2, [0, 1, 0, 1]))
    assert "reflected" in str(err.value)
    inclusion = GroupoidMorphism(z2, z4, [0, 2])
    assert validate_morphism(inclusion).passed
    with pytest.raises(ValueError) as err:
        correspondence_check(inclusion)
    assert "surjective" in str(err.value)


def test_correspondence_validates_each_endpoint_once(z4, z2, monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return validate(g)

    monkeypatch.setattr(morphisms, "validate", counted)
    monkeypatch.setattr(subgroupoids, "validate", counted)
    assert correspondence_check(GroupoidMorphism(z4, z2, [0, 1, 0, 1])).passed
    assert [id(g) for g in calls] == [id(z4), id(z2)]


def mutually_inverse_both_ways(f, left, right):
    """Reference for _mutually_inverse: equal counts, and each family sent
    into the other by direct image, resp. preimage, and back again."""
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


def _distinct_sets(rng, n):
    return list({tuple(sorted(rng.sample(range(n), rng.randint(0, n)))): None
                 for _ in range(rng.randint(0, 6))})


def test_one_way_bijection_check_matches_both_ways_on_seeded_families():
    # preimage families (bijections when f is onto), the same perturbed by
    # one set, and unrelated families; no family repeats a set
    rng = random.Random(2011)
    outcomes = {True: 0, False: 0}
    for trial in range(3000):
        n = rng.randint(1, 7)
        k = rng.randint(1, n)
        f = tuple(rng.randrange(k) for _ in range(n))
        right = _distinct_sets(rng, k)
        if trial % 3 == 2:
            left = _distinct_sets(rng, n)
        else:
            left = list(dict.fromkeys(tuple(x for x in range(n) if f[x] in r) for r in right))
            rng.shuffle(left)
            if trial % 3 == 1 and left:
                extra = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
                left = list(dict.fromkeys(left[1:] + [extra]))
        expected = mutually_inverse_both_ways(f, left, right)
        assert _mutually_inverse(f, left, right) == expected, (f, left, right)
        outcomes[expected] += 1
    assert min(outcomes.values()) >= 500


def test_one_way_bijection_check_matches_both_ways_on_the_correspondence_corpus(
        gp2, z2, z4, golden):
    corpus = [projection_from_product(gp2, z2), GroupoidMorphism(z4, z2, [0, 1, 0, 1]),
              identity_morphism(gp2), identity_morphism(z4), identity_morphism(golden),
              anchor_morphism(z4), anchor_morphism(direct_product(gp2, z2))]
    outcomes = set()
    for m in corpus:
        report = correspondence_check(m)
        every = [h.members for h in enumerate_subgroupoids(m.codomain)]
        for left, right in [(report.domain_over_kernel, report.codomain_wide),
                            (report.normal_domain_over_kernel, report.normal_codomain),
                            (report.domain_over_kernel, every),
                            (report.normal_domain_over_kernel, report.codomain_wide)]:
            expected = mutually_inverse_both_ways(m.elem_map, left, right)
            assert _mutually_inverse(m.elem_map, list(left), list(right)) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_image_of_generated_subgroupoid(gp2, z2):
    m = projection_from_product(gp2, z2)
    sub = subgroupoid_handle(m.domain, [0, 1])
    img = image(m, sub)
    assert img.members == (0,)


def strong_by_pair_scan(m):
    """Reference for is_strong: the definition read over every ordered pair."""
    g, h, f = m.domain, m.codomain, m.elem_map
    for x in range(len(g)):
        for y in range(len(g)):
            if h.composable(f[x], f[y]) and not g.composable(x, y):
                return False, (x, y)
    return True, None


def strength_corpus(gp2, gp3, golden, z4):
    """Seeded morphisms between five groupoids: identities, anchor maps,
    Cayley embeddings, constant maps to a unit, and 40 maps per pair of
    groupoids, half of them random and half over a random unit map."""
    rng = random.Random(2408)
    corpus = [gp2, gp3, golden, z4, symmetric_groupoid(3)]
    morphisms = []
    for g in corpus:
        morphisms += [identity_morphism(g), anchor_morphism(g), cayley_embed(g)]
        for h in corpus:
            morphisms.append(GroupoidMorphism(g, h, [h.units[0]] * len(g)))
            by_anchor = {}
            for y in range(len(h)):
                by_anchor.setdefault((h.alpha[y], h.beta[y]), []).append(y)
            for trial in range(40):
                if trial % 2:
                    elem_map = [rng.randrange(len(h)) for _ in range(len(g))]
                else:
                    # images over a random unit map, so that strength turns on
                    # whether that map is injective
                    f0 = {u: rng.choice(h.units) for u in g.units}
                    elem_map = [
                        rng.choice(by_anchor.get((f0[g.alpha[x]], f0[g.beta[x]]), h.units))
                        for x in range(len(g))]
                morphisms.append(GroupoidMorphism(g, h, elem_map))
    return morphisms


def test_is_strong_matches_pair_scan(gp2, gp3, golden, z4):
    morphisms = strength_corpus(gp2, gp3, golden, z4)
    assert len(morphisms) >= 1000
    flags = set()
    for m in morphisms:
        expected = strong_by_pair_scan(m)
        assert is_strong(m) == expected
        flags.add(expected[0])
    assert flags == {True, False}


def test_valid_morphisms_obey_the_unit_map_theorems(gp2, gp3, golden, z4):
    """On every morphism of the strength corpus that validates: it is strong
    exactly when its unit map is injective; onto the elements implies onto
    the units; a bijection on elements has a unit map that is a bijection
    onto the codomain units."""
    premises = {"strong": 0, "not strong": 0, "onto": 0, "bijective": 0}
    for m in strength_corpus(gp2, gp3, golden, z4):
        if not validate_morphism(m).passed:
            continue
        units = sorted(m.unit_map.values())
        injective = len(set(units)) == len(units)
        assert is_strong(m)[0] == injective
        premises["strong" if injective else "not strong"] += 1
        if set(m.elem_map) == set(range(len(m.codomain))):
            premises["onto"] += 1
            assert set(units) == set(m.codomain.units)
        if sorted(m.elem_map) == list(range(len(m.codomain))):
            premises["bijective"] += 1
            assert units == list(m.codomain.units)
    assert min(premises.values()) >= 10, premises


def laws_by_full_scan(m):
    """Reference for validate_morphism on groupoid endpoints: every law
    read over every element, unit and product."""
    g, h, f, f0 = m.domain, m.codomain, m.elem_map, m.unit_map
    v = [Violation("structure", (u, w), "unit map value is not a unit")
         for u, w in f0.items() if not h.is_unit(w)]
    if v:
        return tuple(v)
    for x in range(len(g)):
        if h.alpha[f[x]] != f0[g.alpha[x]]:
            v.append(Violation("anchor-compat", (x,),
                               f"source of image of {g.elements[x]} disagrees with mapped source"))
        if h.beta[f[x]] != f0[g.beta[x]]:
            v.append(Violation("anchor-compat", (x,),
                               f"target of image of {g.elements[x]} disagrees with mapped target"))
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
    v.extend(Violation("unit-compat", (u,),
                       f"element map and unit map disagree on unit {g.elements[u]}")
             for u in g.units if f[u] != f0[u])
    v.extend(Violation("inv-compat", (x,),
                       f"image of inverse of {g.elements[x]} is not the inverse of its image")
             for x in range(len(g)) if f[g.inv[x]] != h.inv[f[x]])
    return tuple(v)


def groupoid_generators(g):
    """Generators of a groupoid g by plain loops: for each component, with
    r its least unit, the last arrow r -> u to each other unit u and its
    inverse, then the greedy generators of the vertex group at r."""
    n = len(g)
    gens = []
    for r in g.units:
        reached = {g.beta[x] for x in range(n) if g.alpha[x] == r}
        if min(reached) != r:
            continue
        for u in sorted(reached - {r}):
            t = max(x for x in range(n) if g.alpha[x] == r and g.beta[x] == u)
            gens += [t, g.inv[t]]
        members = [x for x in range(n) if g.alpha[x] == g.beta[x] == r]
        pos = {x: i for i, x in enumerate(members)}
        table = [[pos[g.mul[x, y]] for y in members] for x in members]
        gens += [members[i] for i in greedy_generators(table, pos[r])]
    return gens


def laws_at_generators(m):
    """Reference for validate_morphism on groupoid endpoints: the report of
    ``laws_by_full_scan`` with the product law read only at the pairs
    (s, y), s a generator of the domain, in ascending order."""
    full = laws_by_full_scan(m)
    gens = set(groupoid_generators(m.domain))
    products = [v for v in full if v.axiom == "mul-compat"]
    at_gens = sorted((v for v in products if v.witness[0] in gens), key=lambda v: v.witness)
    anchors = [v for v in full if v.axiom in ("structure", "anchor-compat")]
    return tuple(anchors + at_gens + list(full[len(anchors) + len(products):]))


def morphism_corpus(golden, z4, z2):
    """Morphisms whose mutants the full-scan reference judges; the last one
    starts from a domain with no generators at all."""
    return [anchor_morphism(symmetric_groupoid(3)), anchor_morphism(golden),
            identity_morphism(golden), identity_morphism(z4), cayley_embed(golden),
            GroupoidMorphism(z4, z2, [0, 1, 0, 1]), GroupoidMorphism(pair_groupoid(1), z4, [0])]


def test_validate_morphism_lists_products_at_generators_on_mutants(golden, z4, z2):
    """Seeded element-map and unit-map mutants, some retargeted inside an
    anchor fibre so that only the product and inverse laws can fail: the
    report is the reference at generators, every product witness fails in
    the full scan, and the two pass together."""
    rng = random.Random(1807)
    kinds = set()
    products_only = 0
    for m in morphism_corpus(golden, z4, z2):
        g, h = m.domain, m.codomain
        fibre = {}
        for y in range(len(h)):
            fibre.setdefault((h.alpha[y], h.beta[y]), []).append(y)
        assert validate_morphism(m).violations == laws_at_generators(m) == ()
        for _ in range(150):
            f, f0 = list(m.elem_map), dict(m.unit_map)
            for _ in range(rng.randint(1, 3)):
                edit = rng.randrange(4)
                if edit == 0:
                    f[rng.randrange(len(g))] = rng.randrange(len(h))
                elif edit in (1, 2):
                    x = rng.randrange(len(g))
                    f[x] = rng.choice(fibre[(h.alpha[f[x]], h.beta[f[x]])])
                else:
                    f0[rng.choice(g.units)] = rng.choice(
                        h.units if rng.randrange(2) else range(len(h)))
            mutant = GroupoidMorphism(g, h, f, f0)
            expected = laws_at_generators(mutant)
            assert validate_morphism(mutant).violations == expected, (f, f0)
            oracle = laws_by_full_scan(mutant)
            assert set(expected) <= set(oracle) and bool(expected) == bool(oracle)
            axioms = {v.axiom for v in expected}
            kinds |= axioms
            products_only += bool(axioms) and axioms <= {"mul-compat", "inv-compat"}
    assert kinds == {"structure", "anchor-compat", "mul-compat", "unit-compat", "inv-compat"}
    assert products_only >= 100


def test_kernel_is_normal_by_the_theorem(golden, z4, z2, monkeypatch):
    """kernel does not classify its members; the classifier, run here,
    agrees that they form a wide normal subgroupoid."""
    corpus = morphism_corpus(golden, z4, z2)
    expected = {id(m): classify_subset(m.domain, kernel(m).members) for m in corpus}

    def refuse(*args):
        raise AssertionError("kernel classified its members")

    monkeypatch.setattr("groupoids.subgroupoids.classify_subset", refuse)
    for m in corpus:
        handle = kernel(m)
        assert handle.is_wide and handle.is_normal
        assert expected[id(m)].kind == "normal"
        assert expected[id(m)].members == handle.members
