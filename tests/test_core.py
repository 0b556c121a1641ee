import json
import random

import pytest

from groupoids import (
    FiniteGroupoid,
    SizeLimitError,
    ValidationReport,
    Violation,
    alternating_groupoid,
    canonical_dumps,
    cyclic_group,
    direct_product,
    disjoint_union,
    from_group,
    group_groupoid_document,
    induced_groupoid,
    is_isomorphic,
    isotropy_conjugation,
    klein_four_group,
    left_translation_groupoid,
    null_groupoid,
    pair_group_groupoid,
    pair_groupoid,
    pair_groupoid_over,
    pair_vector_space_groupoid,
    parse_groupoid_document,
    plain_document,
    quasiperm_document,
    restricted,
    symmetric_groupoid,
    validate,
    vsg_document,
    whitney_sum,
    with_base_labels,
)


def z4_tables():
    """Raw tables for the cyclic group of order 4 as a one-unit groupoid."""
    return dict(
        elements=["0", "1", "2", "3"],
        units=[0],
        alpha=[0, 0, 0, 0],
        beta=[0, 0, 0, 0],
        inv=[0, 3, 2, 1],
        mul={(i, j): (i + j) % 4 for i in range(4) for j in range(4)},
    )


# ---------------------------------------------------------------------------
# construction


def test_constructor_accepts_valid_tables():
    g = FiniteGroupoid(**z4_tables())
    assert len(g) == 4
    assert g.groupoid_type() == (4, 1)
    assert validate(g).passed


def test_constructor_rejects_bad_shapes():
    good = z4_tables()
    with pytest.raises(ValueError):
        FiniteGroupoid(**{**good, "elements": []})
    with pytest.raises(ValueError):
        FiniteGroupoid(**{**good, "elements": ["0", "0", "2", "3"]})
    with pytest.raises(ValueError):
        FiniteGroupoid(**{**good, "units": []})
    with pytest.raises(ValueError):
        FiniteGroupoid(**{**good, "units": [0, 0]})
    with pytest.raises(ValueError):
        FiniteGroupoid(**{**good, "alpha": [0, 0, 0]})
    with pytest.raises(ValueError):
        FiniteGroupoid(**{**good, "elements": ["0", 1, "2", "3"]})


def test_constructor_converts_products_that_are_not_int_pairs():
    good = z4_tables()
    exact = FiniteGroupoid(**good).mul
    odd = {(bool(x) if x < 2 else x, str(y)): str(z) for (x, y), z in good["mul"].items()}
    g = FiniteGroupoid(**{**good, "mul": odd})
    assert list(g.mul.items()) == list(exact.items())
    assert all(type(x) is type(y) is type(z) is int for (x, y), z in g.mul.items())
    with pytest.raises(ValueError, match=r"mul keys must be element pairs, got \(0, 1, 2\)"):
        FiniteGroupoid(**{**good, "mul": {**good["mul"], (0, 1, 2): 3}})


def exact_int_pairs(mul):
    """Whether every key of a product table is a tuple of two ints and
    every value an int, all of type exactly int (so not bool)."""
    return all(type(key) is tuple and len(key) == 2
               and type(key[0]) is type(key[1]) is type(z) is int for key, z in mul.items())


def test_typed_producers_hand_over_exact_int_tables(golden, gp2, z2, z4):
    documents = [
        plain_document(golden),
        quasiperm_document(symmetric_groupoid(2), 2),
        group_groupoid_document(pair_group_groupoid(cyclic_group(2))),
        vsg_document(pair_vector_space_groupoid(2, 1)),
    ]
    produced = {doc["kind"]: parse_groupoid_document(json.loads(canonical_dumps(doc))).groupoid
                for doc in documents}
    assert sorted(produced) == ["group-groupoid", "plain", "quasiperm", "vsg"]
    produced.update({
        "symmetric": symmetric_groupoid(3),
        "alternating": alternating_groupoid(3),
        "pair_over": pair_groupoid_over(["a", "b", "c"]),
        "null": null_groupoid(["u", "v"]),
        "union": disjoint_union(gp2, z2),
        "product": direct_product(gp2, z4),
        "whitney": whitney_sum(gp2, gp2),
        "induced": induced_groupoid(z2, {"p": "0", "q": "0"}),
        "cayley": left_translation_groupoid(z4),
        "restricted": restricted(golden, [golden.index(f"3/{i}") for i in range(4)]),
    })
    for name, g in produced.items():
        assert exact_int_pairs(g.mul), name
        assert validate(g).passed, name
    # the typed path keeps the caller's dict; the constructor copies it
    tables = z4_tables()
    assert FiniteGroupoid._typed(**tables).mul is tables["mul"]
    assert FiniteGroupoid(**tables).mul is not tables["mul"]


def test_validate_flags_out_of_range_tables():
    good = z4_tables()
    report = validate(FiniteGroupoid(**{**good, "units": [0, 9]}))
    assert any(v.axiom == "structure" for v in report.violations)
    report = validate(FiniteGroupoid(**{**good, "inv": [0, 3, 2, 9]}))
    assert any(v.axiom == "structure" for v in report.violations)
    report = validate(FiniteGroupoid(**{**good, "mul": {(0, 9): 0}}))
    assert any(v.axiom == "structure" for v in report.violations)


def test_constructor_rejects_bad_payload_and_base_labels():
    good = z4_tables()
    with pytest.raises(ValueError):
        FiniteGroupoid(**good, base_labels={1: "p"})
    with pytest.raises(ValueError):
        FiniteGroupoid(**good, payloads=["only-one"])


def test_index_and_label_lookup():
    g = FiniteGroupoid(**z4_tables())
    assert g.index("2") == 2
    assert g.label(2) == "2"
    with pytest.raises(KeyError):
        g.index("missing")


# ---------------------------------------------------------------------------
# validation, one broken axiom at a time


def test_validate_flags_alpha_outside_units():
    bad = z4_tables()
    bad["alpha"] = [0, 1, 0, 0]
    report = validate(FiniteGroupoid(**bad))
    assert not report.passed
    assert any(v.axiom == "structure" for v in report.violations)


def test_validate_flags_missing_unit_in_anchor_image(gp2):
    # two units but every arrow anchored at the first
    bad = FiniteGroupoid(
        elements=list(gp2.elements),
        units=[0, 1],
        alpha=[0, 0, 0, 0],
        beta=[0, 0, 0, 0],
        inv=list(gp2.inv),
        mul={},
    )
    report = validate(bad)
    assert any(v.axiom == "surjectivity" for v in report.violations)


def test_validate_flags_closure_both_directions():
    missing = z4_tables()
    del missing["mul"][(1, 2)]
    report = validate(FiniteGroupoid(**missing))
    assert any(v.axiom == "closure" and v.witness == (1, 2) for v in report.violations)

    extra_tables = dict(
        elements=["u", "v"],
        units=[0, 1],
        alpha=[0, 1],
        beta=[0, 1],
        inv=[0, 1],
        mul={(0, 0): 0, (1, 1): 1, (0, 1): 0},
    )
    report = validate(FiniteGroupoid(**extra_tables))
    assert any(v.axiom == "closure" and v.witness == (0, 1) for v in report.violations)


def test_validate_flags_unit_laws():
    bad = z4_tables()
    bad["mul"][(0, 1)] = 2
    report = validate(FiniteGroupoid(**bad))
    assert any(v.axiom == "G2" for v in report.violations)


def test_validate_flags_inverse_law():
    bad = z4_tables()
    bad["inv"] = [0, 1, 2, 3]
    report = validate(FiniteGroupoid(**bad))
    assert any(v.axiom == "G3" for v in report.violations)


def test_validate_flags_associativity():
    bad = z4_tables()
    bad["mul"][(1, 1)], bad["mul"][(1, 3)] = bad["mul"][(1, 3)], bad["mul"][(1, 1)]
    report = validate(FiniteGroupoid(**bad))
    assert not report.passed
    codes = {v.axiom for v in report.violations}
    assert codes & {"G1", "G3", "G2"}


def test_validate_flags_anchor_drift():
    tables = dict(
        elements=["u", "v", "a", "b"],
        units=[0, 1],
        alpha=[0, 1, 0, 1],
        beta=[0, 1, 1, 0],
        inv=[0, 1, 3, 2],
        mul={(0, 0): 0, (1, 1): 1, (0, 2): 2, (2, 1): 2, (3, 0): 3, (1, 3): 3,
             (2, 3): 1, (3, 2): 1},
    )
    report = validate(FiniteGroupoid(**tables))
    assert any(v.axiom == "G1" and v.witness == (2, 3) for v in report.violations)


def test_violation_string_and_require():
    report = validate(FiniteGroupoid(**{**z4_tables(), "inv": [0, 1, 2, 3]}))
    text = str(report.violations[0])
    assert "G3" in text and "witness" in text
    with pytest.raises(ValueError):
        report.require("bad groupoid")
    assert "violation" in report.summary()


def associativity_by_triple_scan(g):
    """Reference for validate's associativity witnesses: every composable
    triple, rows in the order of g's product table."""
    by_alpha = {}
    for y in range(len(g)):
        by_alpha.setdefault(g.alpha[y], []).append(y)
    v = []
    for (x, y), xy in g.mul.items():
        for z in by_alpha.get(g.beta[y], ()):
            yz = g.mul.get((y, z))
            if yz is None:
                continue
            lhs = g.mul.get((xy, z))
            rhs = g.mul.get((x, yz))
            if lhs is None or rhs is None:
                continue
            if lhs != rhs:
                v.append(Violation("G1", (x, y, z), f"({x}*{y})*{z} != {x}*({y}*{z})"))
    return v


def head_by_separate_scans(g):
    """Reference for validate's violations other than associativity: one
    scan per check, in validate's order, with the missing products found by
    testing every composable pair; stops after the first structure check
    that fails, as validate does."""
    v = []
    n = len(g.elements)
    for u in g.units:
        if not 0 <= u < n:
            v.append(Violation("structure", (u,), "unit index out of range"))
    for name, table in (("alpha", g.alpha), ("beta", g.beta), ("inv", g.inv)):
        for x, value in enumerate(table):
            if not 0 <= value < n:
                v.append(Violation("structure", (x,), f"{name}({x}) = {value} out of range"))
    for (x, y), z in g.mul.items():
        if not (0 <= x < n and 0 <= y < n and 0 <= z < n):
            v.append(Violation("structure", (x, y), f"product entry ({x}, {y}) -> {z} out of range"))
    if v:
        return v
    for x in range(n):
        if g.alpha[x] not in g.units:
            v.append(Violation("structure", (x,), f"alpha({x}) is not a unit"))
        if g.beta[x] not in g.units:
            v.append(Violation("structure", (x,), f"beta({x}) is not a unit"))
    if v:
        return v
    unit_set = set(g.units)
    for u in unit_set - {g.alpha[x] for x in range(n)}:
        v.append(Violation("surjectivity", (u,), "unit is not the source of any element"))
    for u in unit_set - {g.beta[x] for x in range(n)}:
        v.append(Violation("surjectivity", (u,), "unit is not the target of any element"))
    for (x, y) in g.mul:
        if g.beta[x] != g.alpha[y]:
            v.append(Violation("closure", (x, y), "product defined on a non-composable pair"))
    for x in range(n):
        for y in range(n):
            if g.beta[x] == g.alpha[y] and (x, y) not in g.mul:
                v.append(Violation("closure", (x, y), "composable pair has no product"))
    for x in range(n):
        a, b = g.alpha[x], g.beta[x]
        if g.beta[a] != a:
            v.append(Violation("G2", (x,), f"left identity pair ({a}, {x}) not composable"))
        elif g.mul.get((a, x)) != x:
            v.append(Violation("G2", (x,), f"alpha({x}) * {x} != {x}"))
        if g.alpha[b] != b:
            v.append(Violation("G2", (x,), f"right identity pair ({x}, {b}) not composable"))
        elif g.mul.get((x, b)) != x:
            v.append(Violation("G2", (x,), f"{x} * beta({x}) != {x}"))
    for x in range(n):
        xi = g.inv[x]
        if g.beta[xi] != g.alpha[x]:
            v.append(Violation("G3", (x,), f"pair (inv({x}), {x}) not composable"))
        elif g.mul.get((xi, x)) != g.beta[x]:
            v.append(Violation("G3", (x,), f"inv({x}) * {x} != beta({x})"))
        if g.beta[x] != g.alpha[xi]:
            v.append(Violation("G3", (x,), f"pair ({x}, inv({x})) not composable"))
        elif g.mul.get((x, xi)) != g.alpha[x]:
            v.append(Violation("G3", (x,), f"{x} * inv({x}) != alpha({x})"))
    for (x, y), z in g.mul.items():
        if g.alpha[z] != g.alpha[x] or g.beta[z] != g.beta[y]:
            v.append(Violation("G1", (x, y), "anchors of the product drift from its factors"))
    return v


def validate_by_triple_scan(g):
    """Reference for validate's report: the separate scans, then the full
    triple scan, which runs unless a structure check stopped early."""
    head = head_by_separate_scans(g)
    if any(v.axiom == "structure" for v in head):
        return tuple(head)
    return tuple(head + associativity_by_triple_scan(g))


def groupoid_mutant(g, rng, kinds=6):
    """g with one to three seeded edits of its products, inverses or anchors;
    ``kinds=1`` keeps to retargets that leave every law but G1 intact."""
    n = len(g)
    mul, inv = dict(g.mul), list(g.inv)
    alpha, beta = list(g.alpha), list(g.beta)
    for _ in range(rng.randint(1, 3)):
        edit, x, y = rng.randrange(kinds), rng.randrange(n), rng.randrange(n)
        key = rng.choice(sorted(mul))
        if edit == 0:  # a retarget that keeps the anchors and the unit and inverse laws
            plain = [(a, b) for (a, b) in sorted(g.mul)
                     if not g.is_unit(a) and not g.is_unit(b) and g.inv[a] != b]
            key = rng.choice(plain or sorted(g.mul))
            mul[key] = rng.choice([w for w in range(n) if g.anchor(w) == g.anchor(g.mul[key])])
        elif edit == 1:
            mul[key] = x
        elif edit == 2:
            del mul[key]
        elif edit == 3:
            mul[(x, y)] = rng.randrange(n)
        elif edit == 4:
            inv[x] = y
        else:
            (alpha if rng.random() < 0.5 else beta)[x] = rng.choice(g.units)
    return FiniteGroupoid(g.elements, g.units, alpha, beta, inv, mul)


def three_component_union():
    """A(4), Z6 and pair(3) x Z2 side by side: components of many shapes."""
    return disjoint_union(
        alternating_groupoid(4), from_group(cyclic_group(6)),
        direct_product(pair_groupoid(3), from_group(cyclic_group(2))))


def test_validate_matches_triple_scan_on_mutants(golden):
    rng = random.Random(5150)
    corpus = [
        (symmetric_groupoid(2), 200), (symmetric_groupoid(3), 120),
        (alternating_groupoid(4), 25), (golden, 150),
        (direct_product(pair_groupoid(4), from_group(cyclic_group(2))), 60),
        (from_group(cyclic_group(6)), 150), (from_group(klein_four_group()), 150),
        (three_component_union(), 90),
    ]
    fast_path_failed = 0
    for g, mutants in corpus:
        assert validate(g).violations == validate_by_triple_scan(g) == ()
        for i in range(mutants):
            mutant = groupoid_mutant(g, rng, kinds=1 if i % 3 == 0 else 6)
            report = validate(mutant)
            assert report.violations == validate_by_triple_scan(mutant)
            # with no other violation, the coordinate check ran first and failed
            fast_path_failed += not report.passed and all(
                v.axiom == "G1" and len(v.witness) == 3 for v in report.violations)
    assert fast_path_failed > 0


def test_validate_lists_both_closure_defects_when_the_product_count_is_kept():
    # one composable product deleted and one non-composable product added:
    # as many products as composable pairs, but not the same pairs
    g = symmetric_groupoid(3)
    mul = dict(g.mul)
    kept = next(key for key in sorted(mul) if not g.is_unit(key[0]) and not g.is_unit(key[1]))
    off = next((x, y) for x in range(len(g)) for y in range(len(g))
               if g.beta[x] != g.alpha[y] and not g.is_unit(x) and not g.is_unit(y))
    mul[off] = mul.pop(kept)
    mutant = FiniteGroupoid(g.elements, g.units, g.alpha, g.beta, g.inv, mul)
    report = validate(mutant)
    assert len(mutant.mul) == len(g.mul)
    assert report.violations == validate_by_triple_scan(mutant)
    closure = [(v.witness, v.detail) for v in report.violations if v.axiom == "closure"]
    assert closure == [(off, "product defined on a non-composable pair"),
                       (kept, "composable pair has no product")]


@pytest.mark.parametrize("key, value", [
    ((0, 99), 0), ((99, 0), 0), ((0, 0), 99),  # past the end: IndexError
    ((-1, 1), 1), ((1, -3), 1), ((1, 1), -2),  # negative: would wrap around
    ((-99, 0), 0), ((0, 0), -99),
])
def test_validate_reports_only_structure_for_an_out_of_range_product(key, value):
    tables = z4_tables()
    del tables["mul"][(2, 3)]  # a closure defect, not reported
    tables["mul"][key] = value
    g = FiniteGroupoid(**tables)
    report = validate(g)
    assert report.violations == validate_by_triple_scan(g)
    assert [v.axiom for v in report.violations] == ["structure"]
    assert report.violations[0].witness == key


def _coordinate_checks(g):
    """validate's G1 count before any scan: the anchor checks, one coordinate
    per element, one multiplicativity check per product and one entry per
    vertex-group table at each component's least unit."""
    roots = {min(g.beta[x] for x in range(len(g)) if g.alpha[x] == u) for u in g.units}
    return 2 * len(g.mul) + len(g) + sum(len(g.isotropy_members(r)) ** 2 for r in roots)


def test_validate_scans_only_the_failing_component():
    g = three_component_union()
    x, y = g.index("2/1"), g.index("2/2")  # 1 + 2 = 3 in Z6, retargeted to 4
    mul = dict(g.mul)
    mul[(x, y)] = g.index("2/4")
    mutant = FiniteGroupoid(g.elements, g.units, g.alpha, g.beta, g.inv, mul)
    report = validate(mutant)
    assert report.violations == validate_by_triple_scan(mutant) != ()
    by_alpha = {}
    for z in range(len(g)):
        by_alpha.setdefault(g.alpha[z], []).append(z)
    z6_triples = sum(len(by_alpha[g.beta[b]]) for a, b in mul if g.alpha[a] == g.alpha[x])
    assert report.checks["G1"] == _coordinate_checks(mutant) + z6_triples
    assert all(g.alpha[v.witness[0]] == g.alpha[x] for v in report.violations)


def test_validate_scans_a_component_whose_coordinates_are_not_multiplicative():
    # in pair(3) x Z2, (2,3)*(3,1) = (2,1) with Z2 part 0 + 0, retargeted to
    # part 1; no product that fixes a coordinate, no unit or inverse law and
    # no vertex group changes, so the coordinates stay injective and only
    # c(x*y) == c(x)*c(y) fails
    g = three_component_union()
    x, y = g.index("3/((2,3),0)"), g.index("3/((3,1),0)")
    mul = dict(g.mul)
    assert mul[(x, y)] == g.index("3/((2,1),0)")
    mul[(x, y)] = g.index("3/((2,1),1)")
    mutant = FiniteGroupoid(g.elements, g.units, g.alpha, g.beta, g.inv, mul)
    report = validate(mutant)
    assert {v.axiom for v in report.violations} == {"G1"}
    assert report.violations == validate_by_triple_scan(mutant)
    component = {g.alpha[z] for z in range(len(g)) if g.elements[z].startswith("3/")}
    assert all(g.alpha[v.witness[0]] in component for v in report.violations)


def test_vertex_group_associativity_failure_is_listed_by_the_full_scan():
    tables = z4_tables()
    tables["mul"][(2, 3)] = 0  # 2 + 3 is 1 in Z4; no identity or inverse product changes
    report = validate(FiniteGroupoid(**tables))
    assert {v.axiom for v in report.violations} == {"G1"}
    assert report.violations == validate_by_triple_scan(FiniteGroupoid(**tables))
    assert (1, 2, 3) in [v.witness for v in report.violations]


def test_validate_scans_a_component_whose_coordinates_collide():
    # units r, u; two arrows r -> u with their inverses, and every product of
    # two non-units the unit at its ends: closure, G2 and G3 hold and the
    # products are multiplicative over the trivial vertex groups, but both
    # arrows r -> u get the coordinate r
    alpha, beta = [0, 1, 0, 0, 1, 1], [0, 1, 1, 1, 0, 0]
    mul = {(x, y): y if x < 2 else x if y < 2 else alpha[x]
           for x in range(6) for y in range(6) if beta[x] == alpha[y]}
    g = FiniteGroupoid(["r", "u", "t", "t'", "t^", "t'^"], [0, 1], alpha, beta,
                       [0, 1, 4, 5, 2, 3], mul)
    report = validate(g)
    assert {v.axiom for v in report.violations} == {"G1"}
    assert report.violations == validate_by_triple_scan(g)


def test_validate_counts_checks_per_axiom(s5):
    report = validate(s5)
    assert report.passed
    assert set(report.checks) == {"structure", "surjectivity", "closure", "G1", "G2", "G3"}
    assert report.checks["G2"] == report.checks["G3"] == 2 * len(s5)
    # the full scan would check 12,608,625 composable triples on top of the 126,525 products
    assert len(s5.mul) < report.checks["G1"] == _coordinate_checks(s5) < 500_000
    assert report == ValidationReport() and hash(report) == hash(ValidationReport())
    broken = validate(FiniteGroupoid(**{**z4_tables(), "inv": [0, 1, 2, 9]}))
    assert set(broken.checks) == {"structure"}


def scanned_triples(g, units=None):
    """The triples (x, y, z) with x*y in the table and alpha(z) = beta(y)
    that the G1 scan counts: every one, or those with alpha(x) in ``units``."""
    sources = {}
    for z in range(len(g)):
        sources[g.alpha[z]] = sources.get(g.alpha[z], 0) + 1
    return sum(sources.get(g.beta[y], 0) for x, y in g.mul if units is None or g.alpha[x] in units)


def retargeted(g, rng, block):
    """g with one product x*y of two non-units of ``block``, y not inv(x),
    retargeted to another element of the block with the anchor of x*y."""
    pairs = [(x, y) for x in block for y in block
             if (x, y) in g.mul and g.inv[x] != y and g.mul[x, y] in block]
    key = rng.choice(pairs)
    mul = dict(g.mul)
    mul[key] = rng.choice([w for w in block if w != mul[key]
                           and g.anchor(w) == g.anchor(mul[key])])
    return FiniteGroupoid(g.elements, g.units, g.alpha, g.beta, g.inv, mul)


def component_of(g, x):
    return {g.beta[w] for w in range(len(g)) if g.alpha[w] == g.alpha[x]}


def top_block(g):
    """The non-units of the vertex group at the largest unit: a one-unit
    component of a quasipermutation groupoid, as in the benchmark's A(5)."""
    top = max(g.units, key=lambda u: len(g.payloads[u].domain))
    return [x for x in g.isotropy_members(top) if x != top]


@pytest.mark.parametrize("g, block", [
    (alternating_groupoid(4), "top"),
    (from_group(cyclic_group(7)), "all"),
    (from_group(cyclic_group(12)), "all"),
])
def test_g1_scan_in_a_one_unit_component_matches_the_triple_scan(g, block):
    block = top_block(g) if block == "top" else [x for x in range(len(g)) if not g.is_unit(x)]
    rng = random.Random(len(g))
    for _ in range(30):
        mutant = retargeted(g, rng, block)
        report = validate(mutant)
        assert report.violations == validate_by_triple_scan(mutant) != ()
        assert {v.axiom for v in report.violations} == {"G1"}
        scanned = component_of(mutant, block[0])
        assert scanned == {g.alpha[block[0]]}
        assert report.checks["G1"] == _coordinate_checks(mutant) + scanned_triples(mutant, scanned)


@pytest.mark.parametrize("g", [
    symmetric_groupoid(3),
    direct_product(pair_groupoid(3), from_group(cyclic_group(3))),
    three_component_union(),
])
def test_g1_scan_in_a_multi_unit_component_matches_the_triple_scan(g):
    rng = random.Random(len(g.mul))
    multi_unit = 0
    for _ in range(30):
        mutant = groupoid_mutant(g, rng, kinds=1)
        report = validate(mutant)
        assert report.violations == validate_by_triple_scan(mutant)
        failed = {mutant.alpha[v.witness[0]] for v in report.violations}
        scanned = set().union(*(component_of(mutant, u) for u in failed))
        assert report.checks["G1"] == _coordinate_checks(mutant) + scanned_triples(mutant, scanned)
        multi_unit += len(scanned) > 1
    assert multi_unit > 0


def test_g1_scan_meets_misaligned_rows_after_other_violations():
    # a G1 retarget plus a drifting product, a missing product or a product
    # off the composable pairs: every component is scanned, and the rows of
    # the broken products do not line up
    rng = random.Random(1927)
    for g in (symmetric_groupoid(3), alternating_groupoid(4), three_component_union()):
        n = len(g)
        for i in range(30):
            mul = dict(groupoid_mutant(g, rng, kinds=1).mul)
            key = rng.choice(sorted(mul))
            if i % 3 == 0:
                mul[key] = rng.choice([w for w in range(n) if g.anchor(w) != g.anchor(mul[key])])
            elif i % 3 == 1:
                del mul[key]
            else:
                pair = rng.choice([(x, y) for x in range(n) for y in range(n) if (x, y) not in mul])
                mul[pair] = rng.randrange(n)
            mutant = FiniteGroupoid(g.elements, g.units, g.alpha, g.beta, g.inv, mul)
            report = validate(mutant)
            assert report.violations == validate_by_triple_scan(mutant)
            assert not all(v.axiom == "G1" and len(v.witness) == 3 for v in report.violations)
            assert report.checks["G1"] == len(mul) + scanned_triples(mutant)


# ---------------------------------------------------------------------------
# structure queries


def test_compose_and_composable(gp2):
    # (1,2) * (2,1) = (1,1)
    a = gp2.index("(1,2)")
    b = gp2.index("(2,1)")
    assert gp2.composable(a, b)
    assert gp2.compose(a, b) == gp2.index("(1,1)")
    assert gp2.compose(a, a) is None
    assert not gp2.composable(a, a)


def test_anchor_and_transitivity(gp2, golden):
    a = gp2.index("(1,2)")
    assert gp2.anchor(a) == (gp2.index("(1,1)"), gp2.index("(2,2)"))
    assert gp2.is_transitive()
    assert not golden.is_transitive()


def test_unit_predicates(gp2):
    assert gp2.is_unit(gp2.index("(1,1)"))
    assert not gp2.is_unit(gp2.index("(1,2)"))


def test_isotropy_group_structure(golden):
    u = golden.index("3/0")
    iso = golden.isotropy_group(u)
    assert iso.order == 4
    assert iso.validate().passed
    assert iso.labels == ("3/0", "3/1", "3/2", "3/3")
    with pytest.raises(ValueError):
        golden.isotropy_group(golden.index("1/(1,2)"))


def test_isotropy_bundle(golden):
    bundle = golden.isotropy_bundle()
    assert len(bundle) == 10
    assert set(golden.units) <= set(bundle)
    assert all(golden.source(x) == golden.target(x) for x in bundle)


def test_isotropy_conjugation(gp2, golden):
    x = gp2.index("(1,2)")
    omega = isotropy_conjugation(gp2, x)
    assert omega == {gp2.index("(1,1)"): gp2.index("(2,2)")}
    # inside the cyclic block conjugation is the identity
    y = golden.index("3/1")
    omega = isotropy_conjugation(golden, y)
    assert omega == {golden.index(f"3/{i}"): golden.index(f"3/{i}") for i in range(4)}


def test_isotropy_conjugation_raises_value_error_off_a_groupoid(z4):
    """Z4 with the product (2, 3) deleted is not a groupoid; conjugation by 1
    raises ValueError, as its other checks do, not KeyError."""
    mul = dict(z4.mul)
    del mul[(2, 3)]
    g = FiniteGroupoid(z4.elements, z4.units, z4.alpha, z4.beta, z4.inv, mul)
    with pytest.raises(ValueError, match="not a homomorphism at \\(2, 3\\)"):
        isotropy_conjugation(g, 1)


def test_restricted_requires_closed_subset(golden):
    block = [golden.index(f"3/{i}") for i in range(4)]
    sub = restricted(golden, block)
    assert sub.groupoid_type() == (4, 1)
    assert validate(sub).passed
    with pytest.raises(ValueError):
        restricted(golden, [golden.index("1/(1,2)")])
    with pytest.raises(ValueError):
        restricted(golden, [])


def test_with_base_labels(gp2):
    relabeled = with_base_labels(gp2, {0: "p", 1: "q"})
    assert relabeled.unit_base_label(0) == "p"
    assert relabeled.mul == gp2.mul


# ---------------------------------------------------------------------------
# isomorphism


def test_is_isomorphic_finds_relabeling(gp2):
    swapped = FiniteGroupoid(
        elements=["a", "b", "c", "d"],
        units=[0, 1],
        alpha=[0, 1, 1, 0],
        beta=[0, 1, 0, 1],
        inv=[0, 1, 3, 2],
        mul={(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2, (3, 1): 3, (0, 3): 3,
             (2, 3): 1, (3, 2): 0},
    )
    assert validate(swapped).passed
    f = is_isomorphic(gp2, swapped)
    assert f is not None
    # images respect products
    for (x, y), z in gp2.mul.items():
        assert swapped.mul[(f[x], f[y])] == f[z]


def test_is_isomorphic_rejects_different_structure():
    z4 = from_group(cyclic_group(4))
    klein = from_group(klein_four_group())
    assert is_isomorphic(z4, klein) is None
    assert is_isomorphic(z4, null_groupoid(["a", "b", "c", "d"])) is None


def test_is_isomorphic_size_limit():
    big = null_groupoid([str(i) for i in range(40)])
    with pytest.raises(SizeLimitError):
        is_isomorphic(big, big)


def test_is_isomorphic_rejects_idempotent_non_unit():
    tables = z4_tables()
    tables["mul"][(1, 1)] = 1
    with pytest.raises(ValueError, match="first argument is not a groupoid"):
        is_isomorphic(FiniteGroupoid(**tables), from_group(cyclic_group(4)))


def test_equality_ignores_labels_only_when_tables_match(gp2):
    other = pair_groupoid(2)
    assert gp2 == other
    assert gp2 != from_group(cyclic_group(4))
