import itertools
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
from groupoids.core import _brandt, _components
from conftest import symmetric_group_3
from test_constructions import greedy_generators
from test_isomorphism import CORPUS, relabelled


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


def test_constructor_refuses_index_entries_that_are_not_ints():
    # int() would read 0.9 and "0" as 0, and a bool is an int whose text is
    # "False"; product pairs are still converted, as above
    good = z4_tables()
    for field in ("units", "alpha", "beta", "inv"):
        for bad in (0.9, "0", False):
            with pytest.raises(ValueError, match=f"{field} entries must be ints, got {bad!r}"):
                FiniteGroupoid(**{**good, field: [bad, *good[field][1:]]})
    with pytest.raises(ValueError, match="base_labels entries must be ints, got 0.5"):
        FiniteGroupoid(**good, base_labels={0.5: "p"})


def exact_int_rows(g):
    """Whether g has one product row per element and every key and value of
    every row is of type exactly int (so not bool)."""
    return len(g.rows) == len(g) and all(
        type(y) is type(z) is int for row in g.rows for y, z in row.items())


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
        assert exact_int_rows(g), name
        assert validate(g).passed, name
    # the typed path keeps the caller's rows; the constructor builds its own
    tables = z4_tables()
    mul = tables.pop("mul")
    rows = [{y: z for (x, y), z in mul.items() if x == w} for w in range(4)]
    typed = FiniteGroupoid._typed(**tables, rows=rows)
    assert all(kept is given for kept, given in zip(typed.rows, rows))
    built = FiniteGroupoid(**z4_tables())
    assert built == typed and not any(a is b for a, b in zip(built.rows, rows))


# ---------------------------------------------------------------------------
# the read-only .mul view over the rows


def test_mul_is_a_read_only_view_of_the_rows():
    g = symmetric_groupoid(2)
    with pytest.raises(TypeError):
        g.mul[(0, 0)] = 1
    copy = dict(g.mul)
    assert g.mul == copy and copy == g.mul and len(g.mul) == len(copy)
    for x in range(-1, len(g) + 1):
        for y in range(-1, len(g) + 1):
            assert g.mul.get((x, y)) == copy.get((x, y))
            assert ((x, y) in g.mul) == ((x, y) in copy)
            if (x, y) in copy:
                assert g.mul[(x, y)] == copy[(x, y)] == g.rows[x][y]
            else:
                with pytest.raises(KeyError):
                    g.mul[(x, y)]
    assert (0, 1, 2) not in g.mul and "01" not in g.mul
    # row-major: by first factor, each row in its own order
    assert list(g.mul.items()) == [((x, y), z) for x, row in enumerate(g.rows)
                                   for y, z in row.items()]
    assert list(g.mul) == [xy for xy, _ in g.mul.items()]
    assert [x for x, _ in g.mul] == sorted(x for x, _ in g.mul)
    copy[(0, 0)] = 3
    assert g.mul != copy and g.mul[(0, 0)] == 0


def test_constructor_round_trips_the_view_and_shares_its_rows():
    h = symmetric_groupoid(3)
    tables = dict(elements=h.elements, units=h.units, alpha=h.alpha, beta=h.beta, inv=h.inv)
    assert FiniteGroupoid(**tables, mul=dict(h.mul)) == h
    shared = FiniteGroupoid(**tables, mul=h.mul)
    assert shared == h and shared.rows is h.rows
    assert with_base_labels(h, {u: str(u) for u in h.units}).rows is h.rows
    assert left_translation_groupoid(h).rows is h.rows


def test_products_whose_first_factor_names_no_element_stay_in_the_view():
    tables = z4_tables()
    mul = {**tables.pop("mul"), (4, 0): 0, (-1, 2): 1}
    g = FiniteGroupoid(**tables, mul=mul)
    assert len(g.rows) == 4 and len(g.mul) == 18 and dict(g.mul) == mul
    assert g.mul[(-1, 2)] == 1 and g.mul[(3, 2)] == 1 and g.compose(3, 2) == 1
    assert g != FiniteGroupoid(**z4_tables())
    assert [v.witness for v in validate(g).violations] == [(4, 0), (-1, 2)]


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


def vertex_group_bound(g):
    """The bound on validate's G1 triples: one per product, one per element
    and, in each vertex group H_r at a component's least unit r, one per
    pair (i, j) of H_r x generators and third factor l."""
    roots = {min(g.beta[x] for x in range(len(g)) if g.alpha[x] == u) for u in g.units}
    bound = len(g.mul) + len(g)
    for r in roots:
        members = g.isotropy_members(r)
        pos = {x: i for i, x in enumerate(members)}
        table = [[pos[g.mul[x, y]] for y in members] for x in members]
        bound += len(members) ** 2 * len(greedy_generators(table, pos[r]))
    return bound


def g1_triples(g, report):
    """The G1 triples of validate's report, checked against the separate
    scans and the triple scan: after any other violation the head stands
    alone; otherwise every triple is one of the triple scan's, ascending and
    each once, there is one exactly when the scan lists one, and there are
    at most ``vertex_group_bound`` of them."""
    head = head_by_separate_scans(g)
    if any(v.axiom == "structure" for v in head):
        assert report.violations == tuple(head)
        return []
    listed = report.violations[len(head):]
    assert report.violations[:len(head)] == tuple(head)
    triples = [v.witness for v in listed]
    if head:
        assert not triples
        return triples
    scan = associativity_by_triple_scan(g)
    assert set(listed) <= set(scan)
    assert all(g.mul[g.mul[x, y], z] != g.mul[x, g.mul[y, z]] for x, y, z in triples)
    assert triples == sorted(set(triples))
    assert bool(triples) == bool(scan)
    assert len(triples) <= vertex_group_bound(g)
    return triples


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


def test_validate_g1_witnesses_are_triples_of_the_scan_on_mutants(golden):
    # the corpus of this test plus pair(3) x S3, whose components have a
    # non-abelian vertex group on three units
    rng = random.Random(5150)
    corpus = [
        (symmetric_groupoid(2), 200), (symmetric_groupoid(3), 120),
        (alternating_groupoid(4), 25), (golden, 150),
        (direct_product(pair_groupoid(4), from_group(cyclic_group(2))), 60),
        (from_group(cyclic_group(6)), 150), (from_group(klein_four_group()), 150),
        (three_component_union(), 90),
        (direct_product(pair_groupoid(3), from_group(symmetric_group_3())), 60),
    ]
    fast_path_failed = 0
    for g, mutants in corpus:
        assert validate(g).violations == () and not associativity_by_triple_scan(g)
        for i in range(mutants):
            mutant = groupoid_mutant(g, rng, kinds=1 if i % 3 == 0 else 6)
            # with no other violation, the coordinate check ran and failed
            fast_path_failed += bool(g1_triples(mutant, validate(mutant)))
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
    assert not g1_triples(mutant, report)
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
    assert report.violations == tuple(head_by_separate_scans(g))
    assert [v.axiom for v in report.violations] == ["structure"]
    assert report.violations[0].witness == key


def _coordinate_checks(g):
    """validate's G1 count before any witness: the anchor checks, one
    coordinate per element, one multiplicativity check per product and one
    entry per vertex-group table at each component's least unit."""
    roots = {min(g.beta[x] for x in range(len(g)) if g.alpha[x] == u) for u in g.units}
    return 2 * len(g.mul) + len(g) + sum(len(g.isotropy_members(r)) ** 2 for r in roots)


def coordinate_breaks(g):
    """The instances at which Brandt coordinates c(x) = (t_u*x)*inv(t_v)
    break, by plain loops, with r the least unit of each component, t_u
    the last arrow r -> u and t_r = r: each element whose anchors and
    coordinate an earlier element has, and each product x*y with
    c(x)*c(y) != c(x*y).  g must pass every check but associativity."""
    n, mul = len(g), g.mul
    root = {u: min(g.beta[x] for x in range(n) if g.alpha[x] == u) for u in g.units}
    t = {u: u if root[u] == u else max(x for x in range(n) if g.alpha[x] == root[u] and g.beta[x] == u)
         for u in g.units}
    c = [mul[mul[t[g.alpha[x]], x], g.inv[t[g.beta[x]]]] for x in range(n)]
    keys = [(g.alpha[x], g.beta[x], c[x]) for x in range(n)]
    return n - len(set(keys)) + sum(mul[c[x], c[y]] != c[xy] for (x, y), xy in mul.items())


def assert_g1_checks(g, report):
    """validate's G1 count on a groupoid that passes every check but
    associativity: the coordinate checks, then one to four candidate
    triples per broken coordinate instance."""
    base, breaks = _coordinate_checks(g), coordinate_breaks(g)
    assert base + breaks <= report.checks["G1"] <= base + 4 * breaks


def test_validate_lists_only_the_failing_component():
    g = three_component_union()
    x, y = g.index("2/1"), g.index("2/2")  # 1 + 2 = 3 in Z6, retargeted to 4
    mul = dict(g.mul)
    mul[(x, y)] = g.index("2/4")
    mutant = FiniteGroupoid(g.elements, g.units, g.alpha, g.beta, g.inv, mul)
    report = validate(mutant)
    assert g1_triples(mutant, report)
    assert report.checks["G1"] == _coordinate_checks(mutant) == _coordinate_checks(g)
    assert all(g.alpha[v.witness[0]] == g.alpha[x] for v in report.violations)


def test_validate_lists_a_component_whose_coordinates_are_not_multiplicative():
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
    assert g1_triples(mutant, report)
    assert coordinate_breaks(mutant) > 0
    assert_g1_checks(mutant, report)
    component = {g.alpha[z] for z in range(len(g)) if g.elements[z].startswith("3/")}
    assert all(g.alpha[v.witness[0]] in component for v in report.violations)


def test_vertex_group_associativity_failure_is_listed_at_generator_middles():
    # Z4 has the greedy generator 1, so the failures (i, 1, l) are listed
    tables = z4_tables()
    tables["mul"][(2, 3)] = 0  # 2 + 3 is 1 in Z4; no identity or inverse product changes
    g = FiniteGroupoid(**tables)
    report = validate(g)
    assert {v.axiom for v in report.violations} == {"G1"}
    triples = g1_triples(g, report)
    assert (1, 1, 3) in triples and all(j == 1 for _, j, _ in triples)


def test_validate_lists_a_component_whose_coordinates_collide():
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
    assert g1_triples(g, report)
    assert coordinate_breaks(g) > 0
    assert_g1_checks(g, report)


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
def test_g1_witnesses_in_a_one_unit_component_are_failing_triples(g, block):
    # the witnesses are failing triples of the triple scan, in the retargeted
    # component only, and the count adds no triple: one-unit components
    # have no coordinate to break
    block = top_block(g) if block == "top" else [x for x in range(len(g)) if not g.is_unit(x)]
    rng = random.Random(len(g))
    for _ in range(30):
        mutant = retargeted(g, rng, block)
        report = validate(mutant)
        triples = g1_triples(mutant, report)
        assert triples and {v.axiom for v in report.violations} == {"G1"}
        assert {mutant.alpha[x] for x, _, _ in triples} == component_of(mutant, block[0])
        assert report.checks["G1"] == _coordinate_checks(mutant)


@pytest.mark.parametrize("g", [
    symmetric_groupoid(3),
    direct_product(pair_groupoid(3), from_group(cyclic_group(3))),
    three_component_union(),
])
def test_g1_witnesses_in_a_multi_unit_component_are_failing_triples(g):
    # the witnesses are failing triples of the triple scan, and some lie in
    # a component of several units
    rng = random.Random(len(g.mul))
    multi_unit = 0
    for _ in range(30):
        mutant = groupoid_mutant(g, rng, kinds=1)
        report = validate(mutant)
        triples = g1_triples(mutant, report)
        assert_g1_checks(mutant, report)
        multi_unit += any(len(component_of(mutant, x)) > 1 for x, _, _ in triples)
    assert multi_unit > 0


def test_g1_witnesses_meet_misaligned_rows_after_other_violations():
    # a G1 retarget plus a drifting product, a missing product or a product
    # off the composable pairs: the head of the report stands alone, and G1
    # counts only the anchor checks
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
            assert not report.passed and not g1_triples(mutant, report)
            assert report.checks["G1"] == len(mul)


def test_pair_times_a_non_associative_loop_lists_fewer_triples_than_products():
    # Z24 with the intercalate at rows 1, 13 and columns 2, 14 swapped is a
    # loop that is not associative; in pair(4) x the loop every other law
    # holds, and the triple scan finds 86,016 failing triples among 36,864
    # products
    t = cyclic_group(24)
    rows = [list(r) for r in t.table]
    for i in (1, 13):
        rows[i][2], rows[i][14] = rows[i][14], rows[i][2]
    loop = FiniteGroupoid(t.labels, [0], [0] * 24, [0] * 24, t.inv,
                          {(i, j): rows[i][j] for i in range(24) for j in range(24)})
    g = direct_product(pair_groupoid(4), loop)
    report = validate(g)
    assert {v.axiom for v in report.violations} == {"G1"}
    triples = [v.witness for v in report.violations]
    assert 0 < len(triples) < len(g.mul) == 36_864
    assert triples == sorted(set(triples))
    assert all(g.mul[g.mul[x, y], z] != g.mul[x, g.mul[y, z]] for x, y, z in triples)
    assert_g1_checks(g, report)


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


def components_by_scan(g):
    """``_components`` by its definition: per unit a, the last element of
    each hom-set a -> b over the units b, and the least unit of each
    component with the arrows out of it."""
    arrows = {u: {} for u in g.units}
    for x in range(len(g)):
        if g.alpha[x] in arrows and g.is_unit(g.beta[x]):
            arrows[g.alpha[x]][g.beta[x]] = x
    components, placed = [], set()
    for r in g.units:
        if r not in placed:
            placed.update(arrows[r])
            components.append((r, list(arrows[r].items())))
    return components


def assert_hom_index_matches_the_scans(g):
    n = len(g)
    for u in range(-1, n + 1):
        assert g.isotropy_members(u) == tuple(
            x for x in range(n) if g.alpha[x] == u and g.beta[x] == u)
    anchors = {(g.alpha[x], g.beta[x]) for x in range(n)}
    assert g.is_transitive() == (len(anchors) == len(g.units) ** 2)
    assert [(r, list(tree.items())) for r, tree in _components(g)] == components_by_scan(g)


@pytest.mark.parametrize("seed", range(12))
def test_hom_index_answers_equal_their_definition_scans(seed):
    rng = random.Random(seed)
    pieces = [pair_groupoid(1), pair_groupoid(2), pair_groupoid(3), symmetric_groupoid(2),
              alternating_groupoid(3), from_group(cyclic_group(3)), from_group(klein_four_group())]
    union = disjoint_union(*rng.sample(pieces, rng.randint(1, 4)))
    product = direct_product(*rng.sample(pieces, 2))
    bases = [union.unit_base_label(u) for u in union.units]
    induced = induced_groupoid(union, {f"p{i}": rng.choice(bases) for i in range(rng.randint(1, 4))})
    for g in (union, product, induced):
        assert validate(g).passed
        assert_hom_index_matches_the_scans(g)
        assert_hom_index_matches_the_scans(relabelled(g, rng))  # hom-sets interleaved
        # anchors that name non-units reach the unit guard of _components
        alpha, beta = list(g.alpha), list(g.beta)
        for _ in range(rng.randint(1, 3)):
            (alpha if rng.random() < 0.5 else beta)[rng.randrange(len(g))] = rng.randrange(len(g))
        broken = FiniteGroupoid(g.elements, g.units, alpha, beta, g.inv, g.mul)
        assert_hom_index_matches_the_scans(broken)


def assert_brandt_embedding(g):
    """Per component of ``_brandt(g)``: its root is its least unit, with
    t_r = r and t_u : r -> u, H_r and its table are the loops at r and their
    products, x -> (alpha(x), c(x), beta(x)) is a bijection onto U x H_r x U,
    units go to (u, e, u), inverses to (v, c(x)^-1, u), and c(x*y) ==
    c(x)*c(y) on every product; the components cover g."""
    components, c = _brandt(g)
    covered = []
    for k in components:
        units = sorted(k.arrows)
        assert k.root == units[0] and k.arrows[k.root] == k.root
        assert all((g.alpha[t], g.beta[t]) == (k.root, u) for u, t in k.arrows.items())
        assert k.members == g.isotropy_members(k.root) and k.members[k.identity] == k.root
        assert k.table == [[k.members.index(g.mul[x, y]) for y in k.members] for x in k.members]
        inside = [x for x in range(len(g)) if g.alpha[x] in k.arrows]
        assert {(g.alpha[x], c[x], g.beta[x]) for x in inside} == set(
            itertools.product(units, range(len(k.members)), units))
        assert len(inside) == len(units) ** 2 * len(k.members)
        for x in inside:
            if g.is_unit(x):
                assert c[x] == k.identity
            assert k.table[c[x]][k.inv[c[x]]] == k.identity
            assert c[g.inv[x]] == k.inv[c[x]]
            assert all(c[z] == k.table[c[x]][c[y]] for y, z in g.rows[x].items())
        covered += inside
    assert sorted(covered) == list(range(len(g)))


@pytest.mark.parametrize("seed", range(4))
def test_brandt_decomposition_embeds_each_component_in_pair_times_its_vertex_group(seed, golden):
    rng = random.Random(seed)
    corpus = [g for _, g in rng.sample(CORPUS, 25)] + [
        golden, symmetric_groupoid(3), alternating_groupoid(4), three_component_union()]
    for g in corpus:
        for h in (g, relabelled(g, rng)):
            assert validate(h).passed
            assert_brandt_embedding(h)


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
    # an inverse or a product that names no element is no product either
    g = FiniteGroupoid(z4.elements, z4.units, z4.alpha, z4.beta, [0, 9, 2, 1], z4.mul)
    with pytest.raises(ValueError, match="conjugation by 1 undefined at 0"):
        isotropy_conjugation(g, 1)
    g = FiniteGroupoid(z4.elements, z4.units, z4.alpha, z4.beta, z4.inv, {**z4.mul, (3, 0): 9})
    with pytest.raises(ValueError, match="leaves the target isotropy group at 0"):
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


@pytest.mark.parametrize("members, bad", [([0.5, True], "0.5"), ([0, True], "True"), (["0"], "'0'")])
def test_restricted_refuses_members_that_are_not_ints(gp2, members, bad):
    # int() would read 0.5 and True as the two units, and "0" as the first
    with pytest.raises(ValueError, match=f"^members entries must be ints, got {bad}$"):
        restricted(gp2, members)


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
