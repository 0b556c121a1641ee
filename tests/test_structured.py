import random
from collections import Counter

import pytest

from conftest import symmetric_group_3

from groupoids import (
    GroupGroupoid,
    GroupTable,
    GroupoidMorphism,
    SizeLimitError,
    VectorSpaceGroupoid,
    FiniteGroupoid,
    Violation,
    cyclic_group,
    direct_product,
    from_group,
    gf_vector_group,
    group_as_group_groupoid,
    klein_four_group,
    null_groupoid,
    pair_group_groupoid,
    pair_groupoid,
    pair_index,
    pair_vector_space_groupoid,
    validate_group_groupoid,
    validate_group_groupoid_as_morphisms,
    validate_group_groupoid_morphism,
    validate_morphism,
    validate_vector_space_groupoid,
    validate_vector_space_groupoid_via_morphisms,
)
from groupoids import constructions, structured
from groupoids.constructions import pair_arrows
from groupoids.structured import is_prime
from test_constructions import greedy_generators


def mutate_cell(t, i, j, value):
    rows = [list(r) for r in t.table]
    rows[i][j] = value
    return GroupTable.build(t.labels, rows, t.identity, t.inv)


def test_is_prime_small_values():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_pair_group_groupoid_validates_both_ways():
    for t in (cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_four_group()):
        gg = pair_group_groupoid(t)
        assert validate_group_groupoid(gg).passed
        assert validate_group_groupoid_as_morphisms(gg).passed


def test_commutative_group_as_group_groupoid():
    for t in (cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_four_group()):
        gg = group_as_group_groupoid(t)
        assert validate_group_groupoid(gg).passed
        assert validate_group_groupoid_as_morphisms(gg).passed


def test_noncommutative_group_fails_as_group_groupoid():
    gg = group_as_group_groupoid(symmetric_group_3())
    checklist = validate_group_groupoid(gg)
    via_morphisms = validate_group_groupoid_as_morphisms(gg)
    assert not checklist.passed
    assert not via_morphisms.passed
    assert any(v.axiom == "interchange" for v in checklist.violations)
    assert any(v.axiom.startswith("add-") for v in via_morphisms.violations)


def test_constructor_rejects_mismatched_labels(gp2):
    with pytest.raises(ValueError):
        GroupGroupoid(gp2, cyclic_group(4), cyclic_group(2))
    carrier = null_groupoid(["0", "1"])
    with pytest.raises(ValueError):
        GroupGroupoid(carrier, cyclic_group(2), cyclic_group(3))


def test_every_single_cell_addition_mutation_is_detected():
    gg = pair_group_groupoid(cyclic_group(2))
    n = gg.elem_group.order
    for i in range(n):
        for j in range(n):
            for wrong in range(n):
                if wrong == gg.elem_group.table[i][j]:
                    continue
                broken = GroupGroupoid(
                    gg.carrier, mutate_cell(gg.elem_group, i, j, wrong), gg.unit_group
                )
                checklist = validate_group_groupoid(broken)
                via_morphisms = validate_group_groupoid_as_morphisms(broken)
                assert not checklist.passed
                assert not via_morphisms.passed


def test_checklist_and_morphism_routes_agree_on_mutants():
    base = pair_group_groupoid(cyclic_group(3))
    seen_failure = False
    for i, j, wrong in [(0, 0, 1), (1, 2, 0), (4, 4, 0), (2, 7, 3), (8, 8, 8)]:
        table = mutate_cell(base.elem_group, i, j, wrong)
        if table.table == base.elem_group.table:
            continue
        broken = GroupGroupoid(base.carrier, table, base.unit_group)
        a = validate_group_groupoid(broken).passed
        b = validate_group_groupoid_as_morphisms(broken).passed
        assert a == b
        seen_failure = seen_failure or not a
    assert seen_failure


def test_unit_additivity_violation():
    carrier = null_groupoid(["0", "1", "2", "3"])
    z4 = cyclic_group(4)
    klein_on_z4_labels = GroupTable.build(
        z4.labels, klein_four_group().table, 0, klein_four_group().inv
    )
    gg = GroupGroupoid(carrier, z4, klein_on_z4_labels)
    report = validate_group_groupoid(gg)
    codes = {v.axiom for v in report.violations}
    assert "unit-additive" in codes
    assert "alpha-additive" in codes
    assert not validate_group_groupoid_as_morphisms(gg).passed


def test_pair_group_groupoid_size_bound():
    with pytest.raises(SizeLimitError):
        pair_group_groupoid(cyclic_group(65))


def test_pair_group_groupoid_bounds_its_addition_table(monkeypatch):
    # the pair group-groupoid over Z3 adds 9 x 9 = 3^4 pairs of arrows
    monkeypatch.setattr(constructions, "PRODUCT_MUL_LIMIT", 81)
    assert pair_group_groupoid(cyclic_group(3)).elem_group.order == 9
    monkeypatch.setattr(constructions, "PRODUCT_MUL_LIMIT", 80)
    with pytest.raises(SizeLimitError, match="limited to 80 products, got 9 x 9"):
        pair_group_groupoid(cyclic_group(3))
    monkeypatch.undo()
    # 61 points pass the 64-point cap, but 61^4 entries do not
    with pytest.raises(SizeLimitError, match="got 3721 x 3721"):
        pair_vector_space_groupoid(61, 1)


def test_oversized_vector_and_pair_arguments_refused_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before the size bound")

    monkeypatch.setattr(structured, "is_prime", no_work)
    monkeypatch.setattr(constructions, "pair_groupoid_over", no_work)
    with pytest.raises(SizeLimitError, match="got 100000000000000"):
        pair_groupoid(10 ** 14)
    for build in (gf_vector_group, pair_vector_space_groupoid):
        with pytest.raises(SizeLimitError, match=r"got 1000000000000000003\^1"):
            build(10 ** 18 + 3, 1)
        with pytest.raises(SizeLimitError, match=r"got 2\^100000000000"):
            build(2, 10 ** 11)
    with pytest.raises(SizeLimitError, match=r"limited to 64 points, got 2\^7"):
        pair_vector_space_groupoid(2, 7)
    with pytest.raises(SizeLimitError, match=r"limited to 256 points, got 2\^9"):
        gf_vector_group(2, 9)


def test_vector_arguments_that_name_no_space_keep_their_errors():
    for p, dim, message in [(0, 1, "field size must be prime, got 0"),
                            (1, 1, "field size must be prime, got 1"),
                            (4, 1, "field size must be prime, got 4"),
                            (2, 0, "dimension must be at least 1"),
                            (2, -3, "dimension must be at least 1")]:
        for build in (gf_vector_group, pair_vector_space_groupoid):
            with pytest.raises(ValueError, match=message) as excinfo:
                build(p, dim)
            assert excinfo.type is ValueError, (p, dim)


def test_group_groupoid_morphism_diagonal():
    dom = GroupGroupoid(null_groupoid(["0", "1"]), cyclic_group(2), cyclic_group(2))
    assert validate_group_groupoid(dom).passed
    cod = pair_group_groupoid(cyclic_group(2))
    diag = GroupoidMorphism(dom.carrier, cod.carrier, [0, 1])
    report = validate_group_groupoid_morphism(diag, dom, cod)
    assert report.passed

    crossed = GroupoidMorphism(dom.carrier, cod.carrier, [1, 0])
    report = validate_group_groupoid_morphism(crossed, dom, cod)
    assert any(v.axiom == "additive" and v.witness == (0, 0) for v in report.violations)

    with pytest.raises(ValueError):
        validate_group_groupoid_morphism(diag, cod, cod)


def test_gf_vector_group_tables():
    line = gf_vector_group(3, 1)
    assert line.table == cyclic_group(3).table
    assert line.labels == ("0", "1", "2")
    plane = gf_vector_group(3, 2)
    assert plane.order == 9
    assert plane.labels[:3] == ("0,0", "0,1", "0,2")
    five = plane.labels.index("1,2")
    eight = plane.labels.index("2,2")
    assert plane.labels[plane.table[five][eight]] == "0,1"
    assert plane.validate().passed
    with pytest.raises(ValueError):
        gf_vector_group(6, 1)
    with pytest.raises(ValueError):
        gf_vector_group(3, 0)


def test_pair_vector_space_groupoid_validates_both_ways():
    for p, dim in [(2, 1), (2, 2), (3, 1), (5, 1)]:
        v = pair_vector_space_groupoid(p, dim)
        assert validate_vector_space_groupoid(v).passed
        assert validate_vector_space_groupoid_via_morphisms(v).passed
        assert v.carrier.groupoid_type() == (p ** (2 * dim), p**dim)


@pytest.mark.parametrize("p, dim", [(2, 1), (2, 3), (3, 2), (5, 1)])
def test_pair_vector_space_scalars_act_coordinate_wise(p, dim):
    # each unit's base label names its vector; an arrow goes by its anchors
    v = pair_vector_space_groupoid(p, dim)
    g = v.carrier
    vector = {u: tuple(int(c) for c in g.base_labels[u].split(",")) for u in g.units}
    unit_of = {vec: u for u, vec in vector.items()}
    arrow = {(g.alpha[x], g.beta[x]): x for x in range(len(g))}
    for k in range(p):
        times = {u: unit_of[tuple(k * c % p for c in vec)] for u, vec in vector.items()}
        assert v.unit_scalar[k] == tuple(g.units.index(times[u]) for u in g.units)
        assert v.scalar[k] == tuple(arrow[times[g.alpha[x]], times[g.beta[x]]]
                                    for x in range(len(g)))


def test_one_point_line_as_vector_space():
    structure = group_as_group_groupoid(cyclic_group(3))
    scalar = [[(k * x) % 3 for x in range(3)] for k in range(3)]
    unit_scalar = [[0], [0], [0]]
    v = VectorSpaceGroupoid(structure, 3, scalar, unit_scalar)
    assert validate_vector_space_groupoid(v).passed
    assert validate_vector_space_groupoid_via_morphisms(v).passed
    assert v.scale(2, 2) == 1 and v.scale(4, 2) == 2


def test_scalar_law_violations_are_reported():
    structure = group_as_group_groupoid(cyclic_group(3))
    withered = [[0, 0, 0], [0, 1, 2], [0, 1, 2]]
    v = VectorSpaceGroupoid(structure, 3, withered, [[0], [0], [0]])
    report = validate_vector_space_groupoid(v)
    codes = {x.axiom for x in report.violations}
    assert codes & {"scalar-assoc", "scalar-distrib", "scalar-distrib-add"}
    other = validate_vector_space_groupoid_via_morphisms(v)
    assert not other.passed


def test_noncommutative_structure_fails_vector_space_check():
    structure = group_as_group_groupoid(symmetric_group_3())
    identity_action = [list(range(6))] * 2
    v = VectorSpaceGroupoid(structure, 2, identity_action, [[0], [0]])
    report = validate_vector_space_groupoid(v)
    assert any(x.axiom == "commutative" for x in report.violations)


def test_vector_space_constructor_shape_checks():
    structure = group_as_group_groupoid(cyclic_group(3))
    good = [[(k * x) % 3 for x in range(3)] for k in range(3)]
    with pytest.raises(ValueError):
        VectorSpaceGroupoid(structure, 4, good + [good[0]], [[0]] * 4)
    with pytest.raises(ValueError):
        VectorSpaceGroupoid(structure, 3, good[:2], [[0]] * 3)
    with pytest.raises(ValueError):
        VectorSpaceGroupoid(structure, 3, [[0, 1], [0, 1], [0, 1]], [[0]] * 3)
    with pytest.raises(ValueError):
        VectorSpaceGroupoid(structure, 3, [[9, 9, 9]] * 3, [[0]] * 3)


def test_vector_space_constructor_refuses_scalar_entries_that_are_not_ints():
    # each bad entry reads as 1 under int(), which would make a valid table
    v = pair_vector_space_groupoid(2, 1)
    assert v.scalar[1][1] == v.unit_scalar[1][1] == 1
    for bad in (1.5, "1", True):
        for field in ("scalar", "unit_scalar"):
            tables = {"scalar": [list(r) for r in v.scalar],
                      "unit_scalar": [list(r) for r in v.unit_scalar]}
            tables[field][1][1] = bad
            with pytest.raises(ValueError, match=f"{field} entries must be ints, got {bad!r}"):
                VectorSpaceGroupoid(v.structure, 2, tables["scalar"], tables["unit_scalar"])


def test_pair_vector_space_bounds():
    with pytest.raises(ValueError):
        pair_vector_space_groupoid(4, 1)
    with pytest.raises(ValueError):
        pair_vector_space_groupoid(2, 0)
    with pytest.raises(SizeLimitError):
        pair_vector_space_groupoid(2, 7)


def interchange_by_pair_scan(gg):
    """Reference for the interchange law: every composable pair of pairs,
    both in the order of the carrier's product table."""
    g, add = gg.carrier, gg.elem_group.table
    v = []
    for (x, y), xy in g.mul.items():
        for (z, t), zt in g.mul.items():
            lhs = add[xy][zt]
            rhs = g.mul.get((add[x][z], add[y][t]))
            if rhs is None:
                v.append(Violation(
                    "interchange", (x, y, z, t),
                    "sums of a composable pair of pairs fail to compose"))
            elif lhs != rhs:
                v.append(Violation(
                    "interchange", (x, y, z, t),
                    "sum of products differs from product of sums"))
    return v


def generators_with_identity(t):
    """The identity of a group table and its greedy generators, ascending."""
    return sorted([t.identity, *greedy_generators(t.table, t.identity)])


def additivity_by_pair_scan(gg, ys=None, unit_ys=None):
    """Reference for the additivity of the structure maps: every pair of
    elements, then every pair of units; or only the pairs (x, y) with y in
    ``ys`` and the unit pairs (i, j) with j in ``unit_ys``."""
    g, add, add0 = gg.carrier, gg.elem_group.table, gg.unit_group.table
    pos = {u: i for i, u in enumerate(g.units)}
    v = []
    for x in range(len(g)):
        for y in range(len(g)) if ys is None else ys:
            s = add[x][y]
            if pos[g.alpha[s]] != add0[pos[g.alpha[x]]][pos[g.alpha[y]]]:
                v.append(Violation(
                    "alpha-additive", (x, y), "source is not additive on this pair"))
            if pos[g.beta[s]] != add0[pos[g.beta[x]]][pos[g.beta[y]]]:
                v.append(Violation(
                    "beta-additive", (x, y), "target is not additive on this pair"))
            if g.inv[s] != add[g.inv[x]][g.inv[y]]:
                v.append(Violation(
                    "inv-additive", (x, y),
                    "groupoid inversion is not additive on this pair"))
    for i, u in enumerate(g.units):
        for j in range(len(g.units)) if unit_ys is None else unit_ys:
            if add[u][g.units[j]] != g.units[add0[i][j]]:
                v.append(Violation(
                    "unit-additive", (i, j),
                    "unit inclusion is not a homomorphism on this pair"))
    return v


def additivity_at_generators(gg):
    """Reference for the additivity witnesses: the pairs (x, s) and unit
    pairs (i, s) with s the identity or a greedy generator of the group of
    the second factor."""
    return additivity_by_pair_scan(gg, generators_with_identity(gg.elem_group),
                                   generators_with_identity(gg.unit_group))


def negation_by_product_scan(gg):
    """Reference for the negation law, which the other laws imply: every
    product (x, y) with -x * -y != -(x*y)."""
    g, neg = gg.carrier, gg.elem_group.inv
    v = []
    for (x, y), xy in g.mul.items():
        rhs = g.mul.get((neg[x], neg[y]))
        if rhs is None or neg[xy] != rhs:
            v.append(Violation(
                "neg-compat", (x, y),
                "group negation fails to distribute over this product"))
    return v


def interchange_by_criterion(gg):
    """Reference for the interchange witnesses, from the Brown-Spencer
    criterion: (x, beta(x), 0, -beta(x) + y) for each product x*y other
    than x - beta(x) + y, in table order; only when there is none,
    (0, a, b, 0) for each a in ker alpha and b in ker beta with
    a + b != b + a."""
    g, t = gg.carrier, gg.elem_group
    add, neg, zero = t.table, t.inv, t.identity
    detail = "sum of products differs from product of sums"
    v = []
    for (x, y), xy in g.mul.items():
        b = g.beta[x]
        if add[add[x][neg[b]]][y] != xy:
            v.append(Violation("interchange", (x, b, zero, add[neg[b]][y]), detail))
    if v:
        return v
    for a in range(len(g)):
        for b in range(len(g)):
            if g.alpha[a] == zero and g.beta[b] == zero and add[a][b] != add[b][a]:
                v.append(Violation("interchange", (zero, a, b, zero), detail))
    return v


def criterion_applies(additivity):
    """Whether source, target and unit inclusion are additive, given the
    report of ``additivity_by_pair_scan``."""
    return not any(x.axiom in ("alpha-additive", "beta-additive", "unit-additive")
                   for x in additivity)


def group_groupoid_by_pair_scan(gg):
    """Oracle for validate_group_groupoid: the library's pre-check, then
    additivity by its full scan, interchange by the criterion when its
    hypotheses hold, and negation by its full scan."""
    pre = structured._precheck_violations(gg)
    if pre:
        return tuple(pre)
    additivity = additivity_by_pair_scan(gg)
    interchange = interchange_by_criterion(gg) if criterion_applies(additivity) else []
    return tuple(additivity + interchange + negation_by_product_scan(gg))


def group_groupoid_at_generators(gg):
    """Reference for validate_group_groupoid's report: the library's
    pre-check, then additivity at generators, then interchange by the
    criterion when its hypotheses hold; negation is not listed.  Checked
    against ``group_groupoid_by_pair_scan``: a sub-list of its report,
    empty exactly when it is."""
    pre = structured._precheck_violations(gg)
    if pre:
        return tuple(pre)
    additivity = additivity_at_generators(gg)
    interchange = interchange_by_criterion(gg) if criterion_applies(additivity) else []
    report = tuple(additivity + interchange)
    oracle = group_groupoid_by_pair_scan(gg)
    assert set(report) <= set(oracle) and bool(report) == bool(oracle)
    return report


def vector_space_laws_by_scan(v, at_generators=False):
    """Reference for the vector-space laws: commutativity, then for each
    action the identity, the two distributive laws over the scalars and
    distributivity over the addition (k.(x+y)), each over all of its
    instances, or k.(x+y) only at the y in ``generators_with_identity``."""
    gg, p = v.structure, v.p
    out = []
    if not gg.elem_group.is_commutative():
        out.append(Violation("commutative", (), "element group is not commutative"))
    if not gg.unit_group.is_commutative():
        out.append(Violation("commutative", (), "unit group is not commutative"))
    for name, act, group in (("scalar", v.scalar, gg.elem_group),
                             ("unit-scalar", v.unit_scalar, gg.unit_group)):
        table, size = group.table, group.order
        ys = generators_with_identity(group) if at_generators else range(size)
        for x in range(size):
            if act[1 % p][x] != x:
                out.append(Violation(f"{name}-identity", (x,), "1.x differs from x"))
        for k in range(p):
            for l in range(p):
                for x in range(size):
                    if act[k][act[l][x]] != act[(k * l) % p][x]:
                        out.append(Violation(
                            f"{name}-assoc", (k, l, x), "k.(l.x) differs from (kl).x"))
                    if act[(k + l) % p][x] != table[act[k][x]][act[l][x]]:
                        out.append(Violation(
                            f"{name}-distrib", (k, l, x),
                            "(k+l).x differs from k.x + l.x"))
        for k in range(p):
            for x in range(size):
                for y in ys:
                    if act[k][table[x][y]] != table[act[k][x]][act[k][y]]:
                        out.append(Violation(
                            f"{name}-distrib-add", (k, x, y),
                            "k.(x+y) differs from k.x + k.y"))
    return out


def vector_space_by_scan(v):
    """Oracle for validate_vector_space_groupoid's report."""
    head = group_groupoid_by_pair_scan(v.structure)
    if structured._precheck_violations(v.structure):
        return head
    return head + tuple(vector_space_laws_by_scan(v) + structured._linearity_violations(v))


def vector_space_at_generators(v):
    """Reference for validate_vector_space_groupoid's report, with each
    additivity law read at generators."""
    head = group_groupoid_at_generators(v.structure)
    if structured._precheck_violations(v.structure):
        return head
    return head + tuple(vector_space_laws_by_scan(v, at_generators=True)
                        + structured._linearity_violations(v))


def twisted_group_groupoid(m, dim, seed):
    """pair(m) x (Z2^dim as a one-unit groupoid), added componentwise with Z_m
    on the points and a relabelled cyclic group of order 2^dim on the second
    factor.  Every law but interchange holds (inversion in Z2^dim is the
    identity, so it is additive for any group), and interchange fails
    whenever the cyclic group differs from Z2^dim (Eckmann-Hilton)."""
    v = gf_vector_group(2, dim)
    k = v.order
    rng = random.Random(seed)
    relabel = [0] + rng.sample(range(1, k), k - 1)
    back = {w: i for i, w in enumerate(relabel)}
    c = cyclic_group(k)
    twisted = [[relabel[c.table[back[a]][back[b]]] for b in range(k)] for a in range(k)]
    twisted_inv = [relabel[c.inv[back[a]]] for a in range(k)]
    carrier = direct_product(pair_groupoid(m), from_group(v))
    arrows = pair_arrows(m)
    elements = [(i, j, a) for (i, j) in arrows for a in range(k)]
    index = {e: n for n, e in enumerate(elements)}
    table = [[index[(*arrows[pair_index(m, (i + i2) % m, (j + j2) % m)], twisted[a][a2])]
              for (i2, j2, a2) in elements] for (i, j, a) in elements]
    elem_group = GroupTable.build(
        carrier.elements, table, 0,
        [index[((-i) % m, (-j) % m, twisted_inv[a])] for (i, j, a) in elements])
    point = cyclic_group(m)
    unit_group = GroupTable.build(
        [carrier.elements[u] for u in carrier.units], point.table, 0, point.inv)
    return GroupGroupoid(carrier, elem_group, unit_group)


def group_groupoid_mutant(gg, rng):
    """gg with one to three seeded edits of its addition, its negation, its
    carrier's products, or a relabelling of the addition by a transposition."""
    g, t = gg.carrier, gg.elem_group
    n = len(g)
    rows, neg, zero = [list(r) for r in t.table], list(t.inv), t.identity
    mul = dict(g.mul)
    for _ in range(rng.randint(1, 3)):
        edit, x, y = rng.randrange(4), rng.randrange(n), rng.randrange(n)
        if edit == 0:
            rows[x][y] = rng.randrange(n)
        elif edit == 1:
            neg[x] = y
        elif edit == 2:
            mul[rng.choice(sorted(mul))] = x
        else:
            swap = list(range(n))
            swap[x], swap[y] = y, x
            rows = [[swap[rows[swap[a]][swap[b]]] for b in range(n)] for a in range(n)]
            neg, zero = [swap[neg[swap[a]]] for a in range(n)], swap[zero]
    carrier = FiniteGroupoid(g.elements, g.units, g.alpha, g.beta, g.inv, mul)
    return GroupGroupoid(carrier, GroupTable.build(t.labels, rows, zero, neg), gg.unit_group)


def interchange_corpus():
    """Group-groupoids and the number of seeded mutants to draw from each."""
    return [
        (pair_vector_space_groupoid(2, 2).structure, 120),
        (pair_vector_space_groupoid(2, 3).structure, 12),
        (pair_group_groupoid(cyclic_group(3)), 60),
        (group_as_group_groupoid(klein_four_group()), 60),
        (twisted_group_groupoid(2, 2, 0), 30),
    ]


def test_interchange_matches_pair_scan_on_mutants():
    rng = random.Random(1729)
    for gg, mutants in interchange_corpus():
        assert validate_group_groupoid(gg).violations == group_groupoid_at_generators(gg)
        for _ in range(mutants):
            mutant = group_groupoid_mutant(gg, rng)
            assert validate_group_groupoid(mutant).violations == group_groupoid_at_generators(mutant)


def test_interchange_by_kernels_matches_the_pair_scan_on_mutants():
    # wherever its preconditions hold (a valid carrier, two groups, additive
    # structure maps), the kernel criterion says what the pair scan says
    rng = random.Random(1729)
    decided = Counter()
    s3 = symmetric_group_3()
    corpus = interchange_corpus() + [(group_as_group_groupoid(s3), 20),
                                     (pair_group_groupoid(s3), 4)]
    corpus += [(twisted_group_groupoid(m, dim, seed), 0)
               for m, dim in [(1, 2), (1, 3), (2, 2)] for seed in range(3)]
    for gg, mutants in corpus:
        for candidate in [gg] + [group_groupoid_mutant(gg, rng) for _ in range(mutants)]:
            if structured._precheck_violations(candidate) or additivity_by_pair_scan(candidate):
                continue
            holds = not interchange_by_pair_scan(candidate)
            assert (not structured._interchange_violations(candidate)) == holds
            decided[holds] += 1
    assert decided[True] >= 20 and decided[False] >= 10


def test_interchange_of_a_non_abelian_group_is_decided_by_its_kernels():
    # one unit: source, target and unit inclusion are additive, which is
    # all the criterion asks, and both kernels are the whole group, so
    # interchange is commutativity and S3 fails it (inversion is not
    # additive either, which the criterion does not ask);
    # the pair groupoid over S3 passes, since there ker alpha = {(e, b)}
    # and ker beta = {(a, e)} commute
    s3 = symmetric_group_3()
    one_unit = group_as_group_groupoid(s3)
    report = validate_group_groupoid(one_unit).violations
    assert report == group_groupoid_at_generators(one_unit)
    assert "interchange" in {v.axiom for v in report}
    assert structured._interchange_violations(one_unit)
    pair = pair_group_groupoid(s3)
    assert validate_group_groupoid(pair).passed
    assert validate_group_groupoid_as_morphisms(pair).passed
    assert not structured._interchange_violations(pair)


def test_interchange_failure_behind_passing_additivity_is_listed_at_generators():
    for m, dim in [(1, 2), (1, 3), (2, 2)]:
        for seed in range(3):
            gg = twisted_group_groupoid(m, dim, seed)
            report = validate_group_groupoid(gg).violations
            assert report == group_groupoid_at_generators(gg)
            axioms = {v.axiom for v in report}
            assert "interchange" in axioms
            assert not axioms & {"alpha-additive", "beta-additive", "inv-additive", "unit-additive"}


def vector_space_mutant(v, rng):
    """v with one to three seeded edits of its scalar tables, or of its
    group-groupoid by ``group_groupoid_mutant``."""
    scalar, unit_scalar = [list(r) for r in v.scalar], [list(r) for r in v.unit_scalar]
    structure = v.structure
    n, m = len(scalar[0]), len(unit_scalar[0])
    for _ in range(rng.randint(1, 3)):
        edit, k = rng.randrange(4), rng.randrange(v.p)
        if edit == 0:
            scalar[k][rng.randrange(n)] = rng.randrange(n)
        elif edit == 1:
            unit_scalar[k][rng.randrange(m)] = rng.randrange(m)
        elif edit == 2:  # a relabelled row: k. stays a bijection
            a, b = rng.sample(range(n), 2)
            scalar[k] = [b if y == a else a if y == b else y for y in scalar[k]]
        else:
            structure = group_groupoid_mutant(structure, rng)
    return VectorSpaceGroupoid(structure, v.p, scalar, unit_scalar)


def test_vector_space_laws_match_the_generator_references_on_mutants():
    rng = random.Random(2718)
    corpus = [
        (pair_vector_space_groupoid(2, 2), 120),
        (pair_vector_space_groupoid(3, 1), 120),
        (pair_vector_space_groupoid(2, 3), 6),
    ]
    seen = set()
    for v, mutants in corpus:
        assert validate_vector_space_groupoid(v).violations == vector_space_at_generators(v) == ()
        for _ in range(mutants):
            mutant = vector_space_mutant(v, rng)
            report = validate_vector_space_groupoid(mutant).violations
            assert report == vector_space_at_generators(mutant)
            oracle = vector_space_by_scan(mutant)
            assert set(report) <= set(oracle) and bool(report) == bool(oracle)
            seen.update(x.axiom for x in report)
    assert {"scalar-distrib-add", "unit-scalar-distrib-add", "alpha-additive",
            "inv-additive"} <= seen


def law_fails_at(gg, witness):
    """Whether (x*y) + (z*t) != (x+z)*(y+t) at witness (x, y, z, t), where
    both pairs compose."""
    g, add = gg.carrier, gg.elem_group.table
    x, y, z, t = witness
    return g.mul.get((add[x][z], add[y][t])) != add[g.mul[x, y]][g.mul[z, t]]


def test_interchange_witnesses_are_failing_instances_of_the_pair_scan():
    # on seeded group-groupoid and vector-space mutants, the S3 forms and the
    # twisted group-groupoids: every witness is one of the pair scan's and
    # the law fails at it, the two lists are empty together whenever the
    # criterion's hypotheses hold, and there are at most as many witnesses
    # as products
    rng = random.Random(1729)
    s3 = symmetric_group_3()
    corpus = interchange_corpus() + [(group_as_group_groupoid(s3), 20),
                                     (pair_group_groupoid(s3), 4)]
    corpus += [(twisted_group_groupoid(m, dim, seed), 0)
               for m, dim in [(1, 2), (1, 3), (2, 2)] for seed in range(3)]
    cases = [(c, validate_group_groupoid(c).violations) for gg, mutants in corpus
             for c in [gg] + [group_groupoid_mutant(gg, rng) for _ in range(mutants)]]
    rng = random.Random(2718)
    for v, mutants in [(pair_vector_space_groupoid(2, 2), 60),
                       (pair_vector_space_groupoid(3, 1), 60),
                       (pair_vector_space_groupoid(2, 3), 6)]:
        for w in [v] + [vector_space_mutant(v, rng) for _ in range(mutants)]:
            cases.append((w.structure, validate_vector_space_groupoid(w).violations))
    kinds = Counter()  # witnesses at a product (z == 0) and at two kernels
    for gg, report in cases:
        witnesses = [x for x in report if x.axiom == "interchange"]
        if structured._precheck_violations(gg):
            assert not witnesses
            continue
        scan = interchange_by_pair_scan(gg)
        assert set(witnesses) <= set(scan)
        assert all(law_fails_at(gg, x.witness) for x in witnesses)
        assert len(witnesses) <= len(gg.carrier.mul)
        if criterion_applies(additivity_by_pair_scan(gg)):
            assert bool(witnesses) == bool(scan)
        kinds.update(x.witness[2] == gg.elem_group.identity for x in witnesses)
    assert kinds[True] >= 100 and kinds[False] >= 10


def relabelled_addition(v, seed):
    """v with its element addition relabelled by a seeded permutation that
    fixes the identity: still a group, but the structure maps are no longer
    additive for it."""
    t = v.structure.elem_group
    rest = [x for x in range(t.order) if x != t.identity]
    p = list(range(t.order))
    for x, y in zip(rest, random.Random(seed).sample(rest, len(rest))):
        p[x] = y
    back = {y: x for x, y in enumerate(p)}
    table = [[p[t.table[back[a]][back[b]]] for b in range(t.order)] for a in range(t.order)]
    add = GroupTable.build(t.labels, table, t.identity, [p[t.inv[back[a]]] for a in range(t.order)])
    structure = GroupGroupoid(v.carrier, add, v.structure.unit_group)
    return VectorSpaceGroupoid(structure, v.p, v.scalar, v.unit_scalar)


def test_relabelled_addition_reports_its_maps_without_interchange():
    # source and target are not additive, so the interchange criterion does
    # not apply and only the maps' witnesses are listed: one report line per
    # failing pair at a generator, not per failing pair of products (the
    # full scans list 25,110)
    w = relabelled_addition(pair_vector_space_groupoid(3, 2), 7)
    assert w.structure.elem_group.validate().passed
    report = validate_vector_space_groupoid(w).violations
    assert len(report) == 1530
    axioms = Counter(x.axiom for x in report)
    assert "interchange" not in axioms
    assert axioms["alpha-additive"] and axioms["beta-additive"]


def test_additivity_failure_missed_by_every_pair_of_generators_is_found():
    # relabelling the addition of the GF(2)^2 pair group-groupoid by the
    # transposition (8 11) keeps it a group, and the structure maps fail to
    # be additive for it only at pairs that are not both generators
    gg = pair_vector_space_groupoid(2, 2).structure
    g, t = gg.carrier, gg.elem_group
    n = len(g)
    swap = list(range(n))
    swap[8], swap[11] = 11, 8
    rows = [[swap[t.table[swap[x]][swap[y]]] for y in range(n)] for x in range(n)]
    elem_group = GroupTable.build(
        t.labels, rows, swap[t.identity], [swap[t.inv[swap[x]]] for x in range(n)])
    mutant = GroupGroupoid(g, elem_group, gg.unit_group)
    assert elem_group.validate().passed
    report = validate_group_groupoid(mutant).violations
    assert report == group_groupoid_at_generators(mutant)
    additive = [x.witness for x in report if x.axiom in ("alpha-additive", "beta-additive")]
    gens = set(structured._generators_with_identity(elem_group))
    assert additive and not any(x in gens and y in gens for x, y in additive)
    assert all(y in gens for _, y in additive)


class CountingRow(tuple):
    """A table row that counts the entries read from it."""
    reads = 0

    def __getitem__(self, i):
        CountingRow.reads += 1
        return tuple.__getitem__(self, i)

    def __iter__(self):
        CountingRow.reads += len(self)
        return tuple.__iter__(self)


def test_valid_structures_pass_the_checks_at_the_generators():
    # no failing pair is found, and the domain table is read only at the
    # pairs (x, s), s a generator
    for v in (pair_vector_space_groupoid(2, 2), pair_vector_space_groupoid(3, 1)):
        gg = v.structure
        g, add, add0 = gg.carrier, gg.elem_group.table, gg.unit_group.table
        assert not structured._interchange_violations(gg)
        pos = {u: i for i, u in enumerate(g.units)}
        gens = structured._generators_with_identity(gg.elem_group)
        unit_gens = structured._generators_with_identity(gg.unit_group)
        assert len(gens) < len(g) and len(unit_gens) < len(g.units)
        checks = [([pos[u] for u in g.alpha], add, add0, gens),
                  ([pos[u] for u in g.beta], add, add0, gens),
                  (g.inv, add, add, gens),
                  (g.units, add0, add, unit_gens),
                  *((row, add, add, gens) for row in v.scalar),
                  *((row, add0, add0, unit_gens) for row in v.unit_scalar)]
        for f, table, add_to, ys in checks:
            rows = [CountingRow(row) for row in table]
            CountingRow.reads = 0
            assert structured._non_additive_pairs(f, rows, add_to, ys) == []
            assert CountingRow.reads == len(table) * len(ys)


def test_unit_additivity_behind_relabelled_unit_groups_matches_the_pair_scan():
    # a unit group relabelled by a transposition is still a group, so the
    # unit inclusion is first checked at its generators
    seen = set()
    for gg in (pair_vector_space_groupoid(2, 2).structure, pair_group_groupoid(cyclic_group(4))):
        t = gg.unit_group
        m = t.order
        for a in range(m):
            for b in range(a + 1, m):
                swap = list(range(m))
                swap[a], swap[b] = b, a
                rows = [[swap[t.table[swap[x]][swap[y]]] for y in range(m)] for x in range(m)]
                unit_group = GroupTable.build(
                    t.labels, rows, swap[t.identity], [swap[t.inv[swap[x]]] for x in range(m)])
                mutant = GroupGroupoid(gg.carrier, gg.elem_group, unit_group)
                report = validate_group_groupoid(mutant).violations
                assert report == group_groupoid_at_generators(mutant)
                seen.update(x.axiom for x in report)
    assert {"unit-additive", "alpha-additive", "beta-additive"} <= seen


def morphism_additivity_by_pair_scan(m, dom, cod, ys=None, unit_ys=None):
    """Reference for the additive and additive-units violations of
    validate_group_groupoid_morphism: every pair of elements, then every
    pair of units; or only the pairs (x, y) with y in ``ys`` and the unit
    pairs (u, w) with w at a position in ``unit_ys``."""
    f, add, add_to = m.elem_map, dom.elem_group.table, cod.elem_group.table
    v = []
    for x in range(len(add)):
        for y in range(len(add)) if ys is None else ys:
            if f[add[x][y]] != add_to[f[x]][f[y]]:
                v.append(Violation(
                    "additive", (x, y), "element map is not a group homomorphism here"))
    dunits, cunits = dom.carrier.units, cod.carrier.units
    dpos = {u: i for i, u in enumerate(dunits)}
    cpos = {u: i for i, u in enumerate(cunits)}
    for u in dunits:
        for w in dunits if unit_ys is None else [dunits[j] for j in unit_ys]:
            left = m.unit_map[dunits[dom.unit_group.table[dpos[u]][dpos[w]]]]
            right = cunits[cod.unit_group.table[cpos[m.unit_map[u]]][cpos[m.unit_map[w]]]]
            if left != right:
                v.append(Violation(
                    "additive-units", (u, w), "unit map is not a group homomorphism here"))
    return v


def endpoint_violations(dom, cod):
    """The report of validate_group_groupoid_morphism on endpoints that
    fail: each end's violations with its prefix."""
    return [Violation(f"{end}-{x.axiom}", x.witness, x.detail)
            for end, gg in (("domain", dom), ("codomain", cod))
            for x in validate_group_groupoid(gg).violations]


def test_group_groupoid_morphism_additivity_matches_the_pair_scan_on_mutants():
    # scalar maps of vector-space groupoids and identities, with seeded
    # edits of the element map, the unit map (within the units) and the
    # group tables of either end; an end that is no longer a group-groupoid
    # is reported alone
    bases = []
    for v in (pair_vector_space_groupoid(2, 2), pair_vector_space_groupoid(3, 1)):
        g = v.carrier
        for k in range(v.p):
            bases.append((v.structure, v.structure, v.scalar[k],
                          {u: g.units[v.unit_scalar[k][i]] for i, u in enumerate(g.units)}))
    for gg in (pair_group_groupoid(cyclic_group(3)), group_as_group_groupoid(klein_four_group())):
        identity = range(len(gg.carrier))
        bases.append((gg, gg, identity, {u: u for u in gg.carrier.units}))
    rng = random.Random(16180)
    seen = set()
    for _ in range(200):
        dom, cod, f, f0 = rng.choice(bases)
        f, f0 = list(f), dict(f0)
        for _ in range(rng.randint(1, 3)):
            edit = rng.randrange(4)
            if edit == 0:
                f[rng.randrange(len(f))] = rng.randrange(len(cod.carrier))
            elif edit == 1:
                f0[rng.choice(dom.carrier.units)] = rng.choice(cod.carrier.units)
            elif edit == 2:
                dom = group_groupoid_mutant(dom, rng)
            else:
                cod = group_groupoid_mutant(cod, rng)
        m = GroupoidMorphism(dom.carrier, cod.carrier, f, f0)
        report = validate_group_groupoid_morphism(m, dom, cod).violations
        endpoints = endpoint_violations(dom, cod)
        if endpoints:
            assert list(report) == endpoints
            continue
        additive = [x for x in report if x.axiom in ("additive", "additive-units")]
        assert additive == morphism_additivity_by_pair_scan(
            m, dom, cod, generators_with_identity(dom.elem_group),
            generators_with_identity(dom.unit_group))
        oracle = morphism_additivity_by_pair_scan(m, dom, cod)
        assert set(additive) <= set(oracle) and bool(additive) == bool(oracle)
        assert report[:len(report) - len(additive)] == validate_morphism(m).violations
        seen.update(x.axiom for x in additive)
    assert seen == {"additive", "additive-units"}


def test_group_groupoid_morphism_sending_a_unit_off_the_units_reports_the_structure():
    gg = pair_group_groupoid(gf_vector_group(2, 1))
    g = gg.carrier
    assert not g.is_unit(2)
    m = GroupoidMorphism(g, g, range(len(g)), {u: 2 for u in g.units})
    report = validate_group_groupoid_morphism(m, gg, gg)
    assert report.violations == validate_morphism(m).violations
    assert report.violations and {x.axiom for x in report.violations} == {"structure"}


def test_group_groupoid_morphism_validates_both_endpoints():
    # the identity of a mutant passes exactly when the mutant is a
    # group-groupoid, and otherwise reports the mutant's violations twice
    gg = pair_group_groupoid(cyclic_group(3))
    rng = random.Random(2718)
    rejected = 0
    for _ in range(300):
        mutant = group_groupoid_mutant(gg, rng)
        g = mutant.carrier
        identity = GroupoidMorphism(g, g, range(len(g)), {u: u for u in g.units})
        report = validate_group_groupoid_morphism(identity, mutant, mutant)
        assert list(report.violations) == endpoint_violations(mutant, mutant)
        rejected += not report.passed
    assert rejected > 250


def test_each_structured_validator_validates_each_carrier_once(monkeypatch):
    # the morphism forms build the square, a point and scalars x carrier,
    # which are groupoids once the carrier is, and check only their laws
    from groupoids import core, morphisms
    calls = []

    def counted(g):
        calls.append(len(g))
        return core.validate(g)

    monkeypatch.setattr(structured, "validate", counted)
    monkeypatch.setattr(morphisms, "validate", counted)
    gg = pair_group_groupoid(cyclic_group(4))
    twisted = twisted_group_groupoid(2, 2, 0)
    vs = pair_vector_space_groupoid(2, 2)
    relabelled = vector_space_mutant(vs, random.Random(3))
    n, nt = len(gg.carrier), len(twisted.carrier)
    identity = GroupoidMorphism(gg.carrier, gg.carrier, range(n))
    cases = [
        (validate_group_groupoid, (gg,), [n]),
        (validate_group_groupoid, (twisted,), [nt]),
        (validate_group_groupoid_as_morphisms, (gg,), [n]),
        (validate_group_groupoid_as_morphisms, (twisted,), [nt]),
        (validate_vector_space_groupoid, (vs,), [n]),
        (validate_vector_space_groupoid, (relabelled,), [n]),
        (validate_vector_space_groupoid_via_morphisms, (vs,), [n]),
        (validate_vector_space_groupoid_via_morphisms, (relabelled,), [n]),
        (validate_group_groupoid_morphism, (identity, gg, gg), [n, n]),
    ]
    for check, args, expected in cases:
        calls.clear()
        passed = check(*args).passed
        assert passed == (twisted not in args and relabelled not in args), check.__name__
        assert calls == expected, check.__name__
