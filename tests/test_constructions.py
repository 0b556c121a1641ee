import hashlib
import random
import re

import pytest

from conftest import symmetric_group_3

from groupoids import (
    FiniteGroupoid,
    GroupTable,
    SizeLimitError,
    anchor_morphism,
    canonical_dumps,
    cyclic_group,
    direct_product,
    disjoint_union,
    from_group,
    group_table_of,
    induced_canonical_morphism,
    induced_groupoid,
    is_isomorphic,
    klein_four_group,
    left_translation_groupoid,
    null_groupoid,
    pair_groupoid,
    pair_groupoid_over,
    pair_index,
    gf_vector_group,
    group_groupoid_document,
    pair_group_groupoid,
    pair_vector_space_groupoid,
    plain_document,
    qp_compose,
    symmetric_groupoid,
    validate,
    vsg_document,
    whitney_sum,
)
from groupoids import constructions
from groupoids.core import Violation


def test_group_table_validate_clean_tables():
    assert cyclic_group(4).validate().passed
    assert klein_four_group().validate().passed
    assert symmetric_group_3().validate().passed


def test_group_table_associativity_witnesses_match_a_triple_loop():
    # one to three cells of a group table changed within range: once the
    # identity and inverse laws hold, the associativity witnesses are every
    # (i, j, l) with (ij)l != i(jl) and j a greedy generator, and there is
    # one exactly when some triple fails
    rng = random.Random(1854)
    failing = 0
    for _ in range(120):
        t = rng.choice([cyclic_group(6), klein_four_group(), symmetric_group_3()])
        k = t.order
        rows = [list(r) for r in t.table]
        for _ in range(rng.randint(1, 3)):
            rows[rng.randrange(k)][rng.randrange(k)] = rng.randrange(k)
        report = GroupTable.build(t.labels, rows, t.identity, t.inv).validate()
        expected = [(i, j, l) for i in range(k) for j in range(k) for l in range(k)
                    if rows[rows[i][j]][l] != rows[i][rows[j][l]]]
        listed = [v.witness for v in report.violations if v.axiom == "associativity"]
        if len(listed) < len(report.violations):
            assert not listed
            continue
        gens = greedy_generators(rows, t.identity)
        assert listed == [w for w in expected if w[1] in gens]
        assert bool(listed) == bool(expected)
        failing += bool(expected)
    assert failing > 30


def test_group_table_validate_witnesses():
    z4 = cyclic_group(4)
    rows = [list(r) for r in z4.table]
    rows[1][1] = 0
    broken = GroupTable.build(z4.labels, rows, z4.identity, z4.inv)
    report = broken.validate()
    assert any(v.axiom == "associativity" for v in report.violations)

    shifted = GroupTable.build(z4.labels, z4.table, 1, z4.inv)
    assert any(v.axiom == "identity" for v in shifted.validate().violations)

    wrong_inv = GroupTable.build(z4.labels, z4.table, 0, (0, 1, 2, 3))
    assert any(v.axiom == "inverse" for v in wrong_inv.validate().violations)

    dup = GroupTable.build(("0", "0", "2", "3"), z4.table, 0, z4.inv)
    assert any(v.axiom == "structure" for v in dup.validate().violations)

    ragged = GroupTable.build(z4.labels, [[0, 1], [1, 0]], 0, z4.inv)
    assert any(v.axiom == "structure" for v in ragged.validate().violations)


@pytest.mark.parametrize("law, rows_patch, inv", [
    ("identity", (0, 1, 2), (0, 3, 2, 1)),
    ("inverse", None, (0, 2, 2, 1)),
    ("associativity", (1, 1, 1), (0, 3, 2, 1)),
])
def test_group_table_and_isotropy_check_agree_on_planted_fault(z4, law, rows_patch, inv):
    rows = [list(r) for r in cyclic_group(4).table]
    if rows_patch is not None:
        i, j, value = rows_patch
        rows[i][j] = value
    broken = GroupTable.build(z4.elements, rows, 0, inv)
    violations = broken.validate().violations
    assert violations and violations[0].axiom == law
    with pytest.raises(ValueError) as err:
        one_unit_groupoid(broken).isotropy_group(0)
    assert str(violations[0]) in str(err.value)


def one_unit_groupoid(t):
    """The one-unit groupoid on the table of t, whatever laws it breaks:
    every element a loop at the identity, every product defined."""
    k = t.order
    return FiniteGroupoid(elements=t.labels, units=[t.identity], alpha=[t.identity] * k,
                          beta=[t.identity] * k, inv=t.inv,
                          mul={(i, j): t.table[i][j] for i in range(k) for j in range(k)})


def greedy_generators(table, e):
    """Greedy generators of a group table by plain loops: each element, in
    order, that the right products of e by the generators so far miss."""
    gens, span = [], {e}
    for x in range(len(table)):
        if x not in span:
            gens.append(x)
            more = {x}
            while more:
                span |= more
                more = {table[a][s] for a in span for s in gens} - span
    return gens


def group_laws_by_full_scan(table, e, inv):
    """Reference for the group-law check: identity and inverse failures per
    element, then every failing associativity triple in lexicographic order."""
    k = len(table)
    for i in range(k):
        if table[e][i] != i or table[i][e] != i:
            yield Violation("identity", (i,), "identity element fails")
        if not 0 <= inv[i] < k:
            yield Violation("structure", (i,), "inverse entry out of range")
        elif table[i][inv[i]] != e or table[inv[i]][i] != e:
            yield Violation("inverse", (i,), "inverse element fails")
    for i, row_i in enumerate(table):
        for j, ij in enumerate(row_i):
            row_ij = table[ij]
            for l, jl in enumerate(table[j]):
                if row_ij[l] != row_i[jl]:
                    yield Violation("associativity", (i, j, l), "associativity fails")


def group_laws_at_generator_middles(table, e, inv):
    """Reference for the group-law check: identity and inverse failures per
    element; only when there are none, the failing associativity triples
    (i, j, l) with j a greedy generator, in lexicographic order."""
    unit_laws = [v for v in group_laws_by_full_scan(table, e, inv) if v.axiom != "associativity"]
    if unit_laws:
        return unit_laws
    k, gens = len(table), greedy_generators(table, e)
    return [Violation("associativity", (i, j, l), "associativity fails")
            for i in range(k) for j in gens for l in range(k)
            if table[table[i][j]][l] != table[i][table[j][l]]]


def group_mutant(t, rng, kinds=4):
    """t with one to three seeded edits of its table, inverses or identity;
    ``kinds=1`` keeps to cells off the identity and inverse laws."""
    k = t.order
    rows, inv, e = [list(r) for r in t.table], list(t.inv), t.identity
    for _ in range(rng.randint(1, 3)):
        edit, i, j = rng.randrange(kinds), rng.randrange(k), rng.randrange(k)
        if edit == 0:
            plain = [(a, b) for a in range(k) for b in range(k)
                     if t.identity not in (a, b) and t.inv[a] != b]
            a, b = rng.choice(plain or [(i, j)])
            rows[a][b] = rng.randrange(k)
        elif edit == 1:
            rows[i][j] = rng.randrange(k)
        elif edit == 2:
            inv[i] = j
        else:
            e = i
    return GroupTable.build(t.labels, rows, e, inv)


def test_group_laws_list_generator_middles_on_mutants():
    # the report is the reference at generator middles; against the full
    # scan, its witnesses are failing triples of it, listed exactly when it
    # lists one
    rng = random.Random(2718)
    corpus = [(cyclic_group(1), 5), (cyclic_group(2), 60), (cyclic_group(5), 150),
              (cyclic_group(8), 150), (klein_four_group(), 150), (symmetric_group_3(), 150),
              (gf_vector_group(2, 4), 60), (gf_vector_group(2, 6), 12)]
    fast_path_failed = 0
    for t, mutants in corpus:
        assert t.validate().violations == tuple(group_laws_by_full_scan(t.table, t.identity, t.inv)) == ()
        for n in range(mutants):
            m = group_mutant(t, rng, kinds=1 if n % 3 == 0 else 4)
            expected = tuple(group_laws_at_generator_middles(m.table, m.identity, m.inv))
            assert m.validate().violations == expected
            oracle = tuple(group_laws_by_full_scan(m.table, m.identity, m.inv))
            assert set(expected) <= set(oracle) and bool(expected) == bool(oracle)
            g = one_unit_groupoid(m)
            if expected:
                with pytest.raises(ValueError, match=re.escape(str(expected[0]))):
                    g.isotropy_group(m.identity)
            else:
                assert g.isotropy_group(m.identity) == m
            fast_path_failed += bool(expected) and expected[0].axiom == "associativity"
    assert fast_path_failed > 0


def test_group_table_commutativity():
    assert cyclic_group(5).is_commutative()
    assert klein_four_group().is_commutative()
    assert not symmetric_group_3().is_commutative()
    # rows given as lists compare with the columns as well
    rng = random.Random(41)
    for t in (cyclic_group(6), symmetric_group_3(), gf_vector_group(2, 3)):
        for _ in range(20):
            rows = [list(r) for r in t.table]
            rows[rng.randrange(t.order)][rng.randrange(t.order)] = rng.randrange(t.order)
            table = GroupTable(t.labels, rows, t.identity, t.inv)
            k = t.order
            assert table.is_commutative() == all(
                rows[i][j] == rows[j][i] for i in range(k) for j in range(k))


def test_group_table_entries_out_of_range_are_listed_cell_by_cell():
    t = cyclic_group(4)
    rows = [list(r) for r in t.table]
    rows[1][2], rows[1][3], rows[3][0] = -1, 4, 9
    report = GroupTable.build(t.labels, rows, t.identity, t.inv).validate()
    assert report.violations == tuple(
        Violation("structure", ij, "table entry out of range") for ij in [(1, 2), (1, 3), (3, 0)])


def test_isotropy_group_is_a_group_table(golden):
    t = golden.isotropy_group(golden.index("3/0"))
    z4 = cyclic_group(4)
    assert t == GroupTable.build(("3/0", "3/1", "3/2", "3/3"), z4.table, 0, z4.inv)
    assert t.validate().passed


def test_group_table_has_one_import_path():
    import groupoids
    from groupoids import constructions, core
    assert groupoids.GroupTable is constructions.GroupTable is core.GroupTable


def test_group_table_of_round_trip(z4):
    t = group_table_of(z4)
    assert t == cyclic_group(4)
    assert group_table_of(from_group(klein_four_group())) == klein_four_group()
    with pytest.raises(ValueError):
        group_table_of(pair_groupoid(2))
    # one unit, but an arrow that is not a loop at it
    with pytest.raises(ValueError, match="not every element is a loop"):
        group_table_of(FiniteGroupoid(elements=["e", "x"], units=[0], alpha=[0, 1],
                                      beta=[0, 0], inv=[0, 1], mul={(0, 0): 0}))
    partial = FiniteGroupoid(
        elements=["e", "x"],
        units=[0],
        alpha=[0, 0],
        beta=[0, 0],
        inv=[0, 1],
        mul={(0, 0): 0, (0, 1): 1, (1, 0): 1},
    )
    with pytest.raises(ValueError):
        group_table_of(partial)


def test_cyclic_group_tables():
    z6 = cyclic_group(6)
    assert z6.order == 6
    assert z6.mul(4, 5) == 3
    assert z6.inv == (0, 5, 4, 3, 2, 1)
    with pytest.raises(ValueError):
        cyclic_group(0)


def test_klein_four_group_tables():
    k = klein_four_group()
    assert k.order == 4
    assert all(k.inv[i] == i for i in range(4))
    assert k.mul(1, 2) == 3 and k.mul(2, 3) == 1


def test_pair_groupoid_structure(gp3):
    assert gp3.groupoid_type() == (9, 3)
    assert gp3.elements[:3] == ("(1,1)", "(2,2)", "(3,3)")
    a, b, c = gp3.index("(1,2)"), gp3.index("(2,3)"), gp3.index("(1,3)")
    assert gp3.compose(a, b) == c
    assert gp3.compose(a, a) is None
    assert gp3.inv[a] == gp3.index("(2,1)")
    assert validate(gp3).passed
    assert gp3.is_transitive()
    assert all(len(gp3.isotropy_members(u)) == 1 for u in gp3.units)


def test_pair_index_agrees_with_element_order():
    for n in (1, 2, 3, 4):
        g = pair_groupoid(n)
        for i in range(n):
            for j in range(n):
                assert g.index(f"({i + 1},{j + 1})") == pair_index(n, i, j)


def test_pair_groupoid_rows_follow_pair_index():
    # (i, j) * (j, l) = (i, l): the row of (i, j) is keyed by the arrows out
    # of j in order of l
    for n in range(1, 10):
        g = pair_groupoid(n)
        for i in range(n):
            for j in range(n):
                assert list(g.rows[pair_index(n, i, j)].items()) == [
                    (pair_index(n, j, l), pair_index(n, i, l)) for l in range(n)]


@pytest.mark.parametrize("build, digest", [
    (lambda: plain_document(pair_groupoid(7)),
     "88bcef35dfd1c1877005511dde869a13fdbedc0a68f1745c158245040a1bc952"),
    (lambda: vsg_document(pair_vector_space_groupoid(3, 2)),
     "41603b60d2abfb42c9da091c593f1d733008abdd54c9ab4790d749ad0b9b6007"),
    (lambda: vsg_document(pair_vector_space_groupoid(2, 3)),
     "46536b08a62919552c71cfdd58b1f3d4d550e45323aa4ca5d7c05d3e31fd3095"),
    (lambda: group_groupoid_document(pair_group_groupoid(klein_four_group())),
     "0e74d272cf2867cbf6fc8e79d2ff54099e1993981e5b6f851519b2f18384b5fc"),
    (lambda: plain_document(direct_product(pair_groupoid(3), from_group(cyclic_group(4)))),
     "3e219b422226b9b65c0d91b55666dc42dd08acd6a4e515b29027299770c89254"),
], ids=["pair-7", "pair-vsg-3-2", "pair-vsg-2-3", "pair-gg-klein", "pair-3-x-z4"])
def test_pair_shaped_builders_keep_their_document_bytes(build, digest):
    text = canonical_dumps(build())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_anchor_morphism_keeps_its_element_map():
    assert anchor_morphism(symmetric_groupoid(3)).elem_map == (
        0, 1, 2, 3, 4, 5, 6, 7, 8, 13, 14, 19, 20, 28, 3, 29, 28, 29, 34, 34, 35,
        4, 35, 40, 41, 40, 41, 5, 6, 6, 6, 6, 6)


def test_pair_groupoid_over_points():
    g = pair_groupoid_over(["p", "q"])
    assert g.elements == ("(p,p)", "(q,q)", "(p,q)", "(q,p)")
    assert g.unit_base_label(0) == "p" and g.unit_base_label(1) == "q"
    with pytest.raises(ValueError):
        pair_groupoid_over([])
    with pytest.raises(ValueError):
        pair_groupoid_over(["p", "p"])
    with pytest.raises(ValueError):
        pair_groupoid(0)


def test_null_groupoid_products():
    g = null_groupoid(["a", "b", "c"])
    assert g.groupoid_type() == (3, 3)
    assert all(g.is_unit(x) for x in range(3))
    assert g.compose(0, 0) == 0
    assert g.compose(0, 1) is None
    assert validate(g).passed
    assert not g.is_transitive()
    with pytest.raises(ValueError):
        null_groupoid([])
    with pytest.raises(ValueError):
        null_groupoid(["a", "a"])


def test_null_groupoid_is_bounded_before_building():
    # refused by the label count, before the labels are compared
    with pytest.raises(SizeLimitError, match="null groupoid limited to 4096 units, got 4097"):
        null_groupoid(["u"] * (constructions.NULL_UNIT_LIMIT + 1))
    assert len(null_groupoid([str(i) for i in range(constructions.NULL_UNIT_LIMIT)])) == 4096


def test_from_group_structure(z4):
    assert z4.groupoid_type() == (4, 1)
    assert validate(z4).passed
    assert z4.compose(1, 3) == 0
    assert len(z4.mul) == 16
    rows = [list(r) for r in cyclic_group(4).table]
    rows[0][1] = 3
    with pytest.raises(ValueError):
        from_group(GroupTable.build("abcd", rows, 0, (0, 3, 2, 1)))


def test_disjoint_union_matches_reference(golden):
    built = disjoint_union(
        pair_groupoid(2), symmetric_groupoid(2), from_group(cyclic_group(4))
    )
    assert built == golden
    assert built.elements == golden.elements
    assert built.groupoid_type() == (14, 6)
    assert validate(built).passed
    assert built.compose(built.index("1/(1,2)"), built.index("2/1: 1 -> 2")) is None


def test_disjoint_union_type_arithmetic():
    for m in (2, 3):
        for n in (2, 3):
            u = disjoint_union(pair_groupoid(m), from_group(cyclic_group(n)))
            assert u.groupoid_type() == (m * m + n, m + 1)
            assert validate(u).passed
    single = disjoint_union(pair_groupoid(2))
    assert single.groupoid_type() == (4, 2)
    assert single.elements[0] == "1/(1,1)"
    with pytest.raises(ValueError):
        disjoint_union()


def test_direct_product_componentwise(gp2, z2):
    p = direct_product(gp2, z2)
    assert p.groupoid_type() == (8, 2)
    assert validate(p).passed
    a = p.index("((1,2),1)")
    b = p.index("((2,1),1)")
    assert p.compose(a, b) == p.index("((1,1),0)")
    assert p.inv[a] == b
    for m in (2, 3):
        for n in (2, 3):
            q = direct_product(pair_groupoid(m), from_group(cyclic_group(n)))
            assert q.groupoid_type() == (m * m * n, m)
            assert validate(q).passed


def test_whitney_sum_of_pair_groupoid_with_itself(gp2):
    w = whitney_sum(gp2, gp2)
    assert w.groupoid_type() == (4, 2)
    assert validate(w).passed
    assert is_isomorphic(w, pair_groupoid(2)) is not None
    assert {w.unit_base_label(u) for u in w.units} == {"1", "2"}


def test_whitney_sum_over_a_point_is_direct_product(z4, z2):
    w = whitney_sum(z4, z2)
    assert w.groupoid_type() == (8, 1)
    assert validate(w).passed
    assert is_isomorphic(w, direct_product(z4, z2)) is not None


def test_whitney_sum_base_mismatch(gp2, z4):
    with pytest.raises(ValueError):
        whitney_sum(gp2, z4)


def source_off_the_units(g, x, y):
    """g with the source of element x set to the non-unit y."""
    alpha = list(g.alpha)
    alpha[x] = y
    return FiniteGroupoid(g.elements, g.units, alpha, g.beta, g.inv, g.mul)


@pytest.mark.parametrize("build", [whitney_sum, direct_product])
def test_sums_and_products_refuse_an_anchor_off_the_units(build):
    gp2 = pair_groupoid(2)
    broken = source_off_the_units(gp2, 2, 3)
    message = "the source of element '(1,2)' is 3, not a unit"
    for args in ((broken, gp2), (gp2, broken)):
        with pytest.raises(ValueError, match=re.escape(message)):
            build(*args)


def index_out_of_range(g, field):
    """g with one index moved to 5, past its 2 elements: its unit, the
    source, target or inverse of element 1, or the product of 1 and 1 (its
    value, or its second or first factor)."""
    units, mul = list(g.units), dict(g.mul)
    maps = {"alpha": list(g.alpha), "beta": list(g.beta), "inv": list(g.inv)}
    if field == "units":
        units[-1] = 5
    elif field in maps:
        maps[field][1] = 5
    else:
        z = mul.pop((1, 1))
        mul[{"product": (1, 1), "second factor": (1, 5), "first factor": (5, 1)}[field]] = (
            5 if field == "product" else z)
    return FiniteGroupoid(g.elements, units, maps["alpha"], maps["beta"], maps["inv"], mul)


OUT_OF_RANGE = [
    ("units", "witness=(5,): unit index out of range"),
    ("alpha", "witness=(1,): alpha(1) = 5 out of range"),
    ("beta", "witness=(1,): beta(1) = 5 out of range"),
    ("inv", "witness=(1,): inv(1) = 5 out of range"),
    ("product", "witness=(1, 1): product entry (1, 1) -> 5 out of range"),
    ("second factor", "witness=(1, 5): product entry (1, 5) -> 0 out of range"),
    ("first factor", "witness=(5, 1): product entry (5, 1) -> 0 out of range"),
]


@pytest.mark.parametrize("field, message", OUT_OF_RANGE)
def test_disjoint_union_refuses_an_index_out_of_range(z2, field, message):
    # unchecked, inv = [0, 5] gave a (4;2) groupoid
    broken = index_out_of_range(z2, field)
    for factors in ((broken,), (z2, broken)):
        with pytest.raises(ValueError, match=re.escape(
                f"disjoint union needs groupoids: [structure] {message}")):
            disjoint_union(*factors)


@pytest.mark.parametrize("field, message", OUT_OF_RANGE)
def test_induced_groupoid_refuses_an_index_out_of_range(z2, field, message):
    broken = index_out_of_range(z2, field)
    # a unit out of range has no base label to map onto
    f = {"x": "5" if field == "units" else "0"}
    with pytest.raises(ValueError, match=re.escape(
            f"induced groupoid needs groupoids: [structure] {message}")):
        induced_groupoid(broken, f)


@pytest.mark.parametrize("field, message", OUT_OF_RANGE)
def test_left_translation_groupoid_refuses_an_index_out_of_range(z2, field, message):
    with pytest.raises(ValueError, match=re.escape(
            f"cayley groupoid needs groupoids: [structure] {message}")):
        left_translation_groupoid(index_out_of_range(z2, field))


def test_induced_groupoid_doubles_a_point(z2):
    ind = induced_groupoid(z2, {"x": "0", "y": "0"})
    assert ind.groupoid_type() == (8, 2)
    assert validate(ind).passed
    assert {ind.unit_base_label(u) for u in ind.units} == {"x", "y"}
    assert "(x,y,1)" in ind.elements
    model = direct_product(pair_groupoid(2), z2)
    assert is_isomorphic(ind, model) is not None


def test_induced_groupoid_identity_map(gp2):
    ind = induced_groupoid(gp2, {"1": "1", "2": "2"})
    assert ind.groupoid_type() == (4, 2)
    assert is_isomorphic(ind, gp2) is not None


def test_induced_groupoid_errors(z2):
    with pytest.raises(ValueError):
        induced_groupoid(z2, {})
    with pytest.raises(ValueError):
        induced_groupoid(z2, {"x": "missing"})


def test_union_whitney_induced_bound_products_before_building(golden, gp3, z2, monkeypatch):
    base = [golden.unit_base_label(u) for u in golden.units]
    z2_over_three = induced_groupoid(z2, {"1": "0", "2": "0", "3": "0"})
    builds = [
        lambda: disjoint_union(golden, gp3, z2),
        lambda: whitney_sum(gp3, z2_over_three),
        lambda: whitney_sum(z2_over_three, z2_over_three),
        lambda: induced_groupoid(golden, {"a": base[0], "b": base[1], "c": base[1],
                                          "d": base[4], "e": base[5]}),
        lambda: induced_canonical_morphism(z2, {"x": "0", "y": "0", "z": "0"}).domain,
        lambda: left_translation_groupoid(golden),
    ]
    for build in builds:
        products = len(build().mul)
        monkeypatch.setattr(constructions, "PRODUCT_MUL_LIMIT", products)
        assert len(build().mul) == products
        monkeypatch.setattr(constructions, "PRODUCT_MUL_LIMIT", products - 1)
        with pytest.raises(SizeLimitError, match=f"got {products}$"):
            build()
        monkeypatch.undo()


def test_left_translation_tables(z4, gp2):
    for g in (z4, gp2):
        lt = left_translation_groupoid(g)
        assert lt.elements == tuple(f"L[{lbl}]" for lbl in g.elements)
        assert lt.units == g.units
        assert lt.alpha == g.alpha and lt.beta == g.beta
        assert lt.inv == g.inv and lt.mul == g.mul
        assert validate(lt).passed


def test_left_translation_payloads_compose_in_reverse(golden):
    lt = left_translation_groupoid(golden)
    maps = lt.payloads
    n = len(golden)
    for x in range(n):
        dom = tuple(
            i + 1 for i in range(n) if golden.alpha[i] == golden.beta[x]
        )
        assert maps[x].domain == dom
    for x in range(n):
        for y in range(n):
            z = golden.compose(x, y)
            composite = qp_compose(maps[y], maps[x])
            if z is None:
                assert composite is None
            else:
                assert composite == maps[z]
