import random

import pytest

from conftest import symmetric_group_3
from test_isomorphism import relabelled

from groupoids import (
    FiniteGroupoid,
    SizeLimitError,
    SubgroupoidHandle,
    classify_subset,
    cyclic_group,
    direct_product,
    disjoint_union,
    enumerate_subgroupoids,
    from_group,
    generated_subgroupoid,
    isotropy_subgroupoid,
    klein_four_group,
    null_subgroupoid,
    pair_groupoid,
    subgroupoid_handle,
    symmetric_groupoid,
    validate,
)
from groupoids.constructions import GroupTable


@pytest.mark.parametrize("members, bad", [([0.9, 1.2], "0.9"), ([0, False], "False"), (["0"], "'0'")])
def test_member_sets_refuse_entries_that_are_not_ints(gp2, members, bad):
    # int() would read [0.9, 1.2] as the normal subgroupoid of units and
    # "0" as the first unit
    for build in (classify_subset, generated_subgroupoid, subgroupoid_handle):
        with pytest.raises(ValueError, match=f"^members entries must be ints, got {bad}$"):
            build(gp2, members)


def test_classify_whole_and_units(gp2):
    whole = classify_subset(gp2, range(4))
    assert whole.kind == "normal"
    units = classify_subset(gp2, gp2.units)
    assert units.kind == "normal"
    one_unit = classify_subset(gp2, [0])
    assert one_unit.kind == "subgroupoid"
    assert one_unit.witness == (1,)


def test_classify_witnesses(gp2):
    arrow = gp2.index("(1,2)")
    back = gp2.index("(2,1)")
    missing_inverse = classify_subset(gp2, [0, 1, arrow])
    assert missing_inverse.kind == "not_subgroupoid"
    assert missing_inverse.witness == (arrow, back)
    missing_product = classify_subset(gp2, [arrow, back])
    assert missing_product.kind == "not_subgroupoid"
    assert missing_product.witness[:2] in {(arrow, back), (back, arrow)}
    empty = classify_subset(gp2, [])
    assert empty.kind == "not_subgroupoid"
    with pytest.raises(ValueError):
        classify_subset(gp2, [99])
    # conjugating a unit by an arrow whose product with it names no element
    mul = {**gp2.mul, (arrow, 1): 99}
    broken = FiniteGroupoid(gp2.elements, gp2.units, gp2.alpha, gp2.beta, gp2.inv, mul)
    with pytest.raises(ValueError, match="is undefined; not a groupoid"):
        classify_subset(broken, broken.units)


def test_classify_wide_but_not_normal():
    s3 = from_group(symmetric_group_3())
    swap = s3.index("213")
    cls = classify_subset(s3, [s3.index("123"), swap])
    assert cls.kind == "wide"
    x, h, z = cls.witness
    assert h == swap
    assert z not in (s3.index("123"), swap)
    assert s3.compose(s3.compose(x, h), s3.inverse(x)) == z


def test_classify_normal_subgroup_of_s3():
    s3 = from_group(symmetric_group_3())
    rotations = [s3.index("123"), s3.index("231"), s3.index("312")]
    assert classify_subset(s3, rotations).kind == "normal"


def test_subgroupoid_handle_round_trip(z4):
    handle = subgroupoid_handle(z4, [0, 2])
    assert handle.order == 2
    assert handle.labels() == ("0", "2")
    assert handle.is_wide and handle.is_normal
    assert handle.contains(2) and not handle.contains(1)
    sub = handle.as_groupoid()
    assert sub.groupoid_type() == (2, 1)
    assert validate(sub).passed
    with pytest.raises(ValueError):
        subgroupoid_handle(z4, [1])


def test_generated_subgroupoid(gp2, z4, golden):
    assert generated_subgroupoid(gp2, [gp2.index("(1,2)")]).order == 4
    assert generated_subgroupoid(z4, [2]).members == (0, 2)
    assert generated_subgroupoid(z4, [1]).order == 4
    block = generated_subgroupoid(golden, [golden.index("3/1")])
    assert block.labels() == ("3/0", "3/1", "3/2", "3/3")
    with pytest.raises(ValueError):
        generated_subgroupoid(gp2, [])


def generated_by_rounds(g, seeds):
    """Reference for generated_subgroupoid: add every missing inverse and
    product of the current set, round after round, until none is new."""
    current = set(seeds)
    while True:
        new = {g.inv[x] for x in current}
        new.update(g.mul.get((x, y)) for x in current for y in current)
        new -= current | {None}
        if not new:
            return current
        current |= new


def test_generated_subgroupoid_matches_the_closure_by_rounds():
    # on groupoids and on tables with a few entries of mul or inv changed,
    # the same set, or the same error when that set is not a subgroupoid
    rng = random.Random(3141)
    errors = 0
    for _ in range(300):
        g = _random_union(rng)
        mul, inv = dict(g.mul), list(g.inv)
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.5:
                mul[rng.choice(sorted(mul))] = rng.randrange(len(g))
            else:
                inv[rng.randrange(len(g))] = rng.randrange(len(g))
        table = FiniteGroupoid(g.elements, g.units, g.alpha, g.beta, inv, mul)
        seeds = rng.sample(range(len(g)), rng.randint(1, min(3, len(g))))
        try:
            want = subgroupoid_handle(table, generated_by_rounds(table, seeds))
        except ValueError as exc:
            errors += 1
            with pytest.raises(ValueError) as got:
                generated_subgroupoid(table, seeds)
            assert str(got.value) == str(exc)
        else:
            got = generated_subgroupoid(table, seeds)
            assert (got.members, got.is_wide, got.is_normal) == (
                want.members, want.is_wide, want.is_normal)
    assert 0 < errors < 300


def classify_by_pairs(g, members):
    """Reference for classify_subset as (kind, members, witness, detail):
    inverses, then the product of every ordered pair of members, then the
    units, then the conjugate of every loop of the subset by every arrow,
    each in index order."""
    mem = tuple(sorted(set(members)))
    inside, name = set(mem), g.elements
    if not mem:
        return ("not_subgroupoid", mem, None, "empty subset")
    for x in mem:
        if g.inv[x] not in inside:
            return ("not_subgroupoid", mem, (x, g.inv[x]),
                    f"inverse of {name[x]} escapes the subset")
    for x in mem:
        for y in mem:
            z = g.mul.get((x, y))
            if z is not None and z not in inside:
                return ("not_subgroupoid", mem, (x, y, z),
                        f"product {name[x]} * {name[y]} escapes the subset")
    for u in g.units:
        if u not in inside:
            return ("subgroupoid", mem, (u,), f"unit {name[u]} is missing")
    for x in range(len(g)):
        for h in mem:
            if g.alpha[h] == g.beta[h] == g.beta[x]:
                z = g.mul.get((g.mul.get((x, h)), g.inv[x]))
                if z is None:
                    raise ValueError(f"conjugate of {name[h]} by {name[x]} is undefined; "
                                     "not a groupoid")
                if z not in inside:
                    return ("wide", mem, (x, h, z), f"conjugate of {name[h]} by {name[x]} escapes")
    return ("normal", mem, None, "")


def test_classify_subset_matches_the_pairwise_reference():
    # groupoids and broken tables as in the closure-by-rounds test; half the
    # subsets are closed under inverses, so that the product check decides
    # them often.  Pair-groupoid rows are not in ascending key order, so the
    # first escaping product in row order is not always the least.
    rng = random.Random(2718)
    escaping_products = 0
    for _ in range(200):
        g = _random_union(rng)
        mul, inv = dict(g.mul), list(g.inv)
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.5:
                mul[rng.choice(sorted(mul))] = rng.randrange(len(g))
            else:
                inv[rng.randrange(len(g))] = rng.randrange(len(g))
        table = FiniteGroupoid(g.elements, g.units, g.alpha, g.beta, inv, mul)
        for i in range(6):
            members = set(rng.sample(range(len(g)), rng.randint(1, len(g))))
            if i % 2:
                members |= {inv[x] for x in members}
            try:
                want = classify_by_pairs(table, members)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    classify_subset(table, members)
                assert str(got.value) == str(exc)
                continue
            got = classify_subset(table, members)
            assert (got.kind, got.members, got.witness, got.detail) == want
            escaping_products += want[3].startswith("product")
    assert escaping_products > 100


def test_enumerate_pair_groupoid(gp2):
    handles = enumerate_subgroupoids(gp2)
    assert [h.members for h in handles] == [(0,), (1,), (0, 1), (0, 1, 2, 3)]
    assert [h.is_normal for h in handles] == [False, False, True, True]
    normal = enumerate_subgroupoids(gp2, normal_only=True)
    assert [h.members for h in normal] == [(0, 1), (0, 1, 2, 3)]


def test_enumerate_group_case(z4):
    handles = enumerate_subgroupoids(z4)
    assert [h.members for h in handles] == [(0,), (0, 2), (0, 1, 2, 3)]
    assert all(h.is_wide and h.is_normal for h in handles)


def test_enumerate_quasipermutation_degree_two(s2):
    handles = enumerate_subgroupoids(s2)
    assert len(handles) == 14
    wide = [h for h in handles if h.is_wide]
    assert {h.members for h in wide} == {
        (0, 1, 2),
        (0, 1, 2, 5),
        (0, 1, 2, 3, 4),
        (0, 1, 2, 3, 4, 5),
    }
    assert all(h.is_normal for h in wide)


def test_enumerate_reference_groupoid(golden):
    handles = enumerate_subgroupoids(golden)
    assert len(handles) == 299


def test_enumerate_size_bound():
    with pytest.raises(SizeLimitError):
        enumerate_subgroupoids(symmetric_groupoid(3))
    handles = enumerate_subgroupoids(symmetric_groupoid(2))
    assert len(handles) == 14


def test_named_subgroupoids(golden, gp2):
    units = null_subgroupoid(golden)
    assert units.members == golden.units
    assert units.is_wide and units.is_normal
    iso = isotropy_subgroupoid(golden, golden.index("3/0"))
    assert iso.order == 4
    assert not iso.is_wide
    tiny = isotropy_subgroupoid(gp2, 0)
    assert tiny.members == (0,)


def test_isotropy_subgroupoid_refuses_a_non_unit(golden):
    x = golden.index("1/(1,2)")
    with pytest.raises(ValueError, match=f"^element {x} is not a unit$"):
        isotropy_subgroupoid(golden, x)


def test_handles_reclassify_consistently(s2):
    for handle in enumerate_subgroupoids(s2):
        again = classify_subset(s2, handle.members)
        assert again.is_subgroupoid
        assert again.is_wide == handle.is_wide
        assert again.is_normal == handle.is_normal
        assert validate(handle.as_groupoid()).passed


def subgroupoids_by_mask_scan(
    g: FiniteGroupoid, *, normal_only: bool = False
) -> list[SubgroupoidHandle]:
    """Reference enumerator: test every nonempty subset for closure under
    inverses and products, then classify the closed ones in (order, members)
    order."""
    n = len(g)
    triples = [(x, y, z) for (x, y), z in g.mul.items()]
    inv_bit = [1 << g.inv[x] for x in range(n)]
    found: list[tuple[int, ...]] = []
    for mask in range(1, 1 << n):
        ok = True
        for x in range(n):
            if mask >> x & 1 and not mask & inv_bit[x]:
                ok = False
                break
        if not ok:
            continue
        for x, y, z in triples:
            if mask >> x & 1 and mask >> y & 1 and not mask >> z & 1:
                ok = False
                break
        if not ok:
            continue
        found.append(tuple(x for x in range(n) if mask >> x & 1))
    handles = []
    for mem in sorted(found, key=lambda t: (len(t), t)):
        cls = classify_subset(g, mem)
        handle = SubgroupoidHandle(g, cls.members, cls.is_wide, cls.is_normal)
        if normal_only and not handle.is_normal:
            continue
        handles.append(handle)
    return handles


def quaternion_group() -> GroupTable:
    """Q8 with labels 1, i, j, k, -1, -i, -j, -k; element 4*s + a is
    (-1)^s times basis element a."""
    def basis_times(a, b):
        if a == 0 or b == 0:
            return 1, a + b
        if a == b:
            return -1, 0
        return (1 if (b - a) % 3 == 1 else -1), 6 - a - b

    def times(x, y):
        sign, c = basis_times(x % 4, y % 4)
        return c + 4 * ((x // 4 + y // 4 + (sign < 0)) % 2)

    table = [[times(x, y) for y in range(8)] for x in range(8)]
    return GroupTable.build(
        labels=["1", "i", "j", "k", "-1", "-i", "-j", "-k"],
        table=table,
        identity=0,
        inv=[row.index(0) for row in table],
    )


PIECES = (
    [pair_groupoid(m) for m in (1, 2, 3, 4)]
    + [direct_product(pair_groupoid(2), from_group(t))
       for t in (cyclic_group(2), cyclic_group(3), klein_four_group())]
    + [from_group(t) for t in [cyclic_group(n) for n in range(2, 9)]
       + [klein_four_group(), symmetric_group_3(), quaternion_group()]]
)


def _random_union(rng: random.Random, limit: int = 16) -> FiniteGroupoid:
    parts, size = [], 0
    while True:
        fits = [p for p in PIECES if size + len(p) <= limit]
        if not fits or (parts and rng.random() < 0.4):
            return relabelled(disjoint_union(*parts), rng)
        parts.append(rng.choice(fits))
        size += len(parts[-1])


def test_quaternion_table_is_a_group():
    q8 = from_group(quaternion_group())
    assert validate(q8).passed
    assert len(enumerate_subgroupoids(q8)) == 6
    assert [h.is_normal for h in enumerate_subgroupoids(q8)] == [True] * 6


@pytest.mark.parametrize("seed", range(40))
def test_enumeration_matches_the_mask_scan(seed):
    g = _random_union(random.Random(seed))
    for normal_only in (False, True):
        got = enumerate_subgroupoids(g, normal_only=normal_only)
        want = subgroupoids_by_mask_scan(g, normal_only=normal_only)
        assert ([(h.members, h.is_wide, h.is_normal) for h in got]
                == [(h.members, h.is_wide, h.is_normal) for h in want])


def test_enumeration_matches_the_mask_scan_on_named_groupoids(golden, s2, a3):
    cases = [golden, s2, a3, pair_groupoid(4), from_group(cyclic_group(16)),
             direct_product(pair_groupoid(2), from_group(cyclic_group(4)))]
    for g in cases:
        assert ([(h.members, h.is_wide, h.is_normal) for h in enumerate_subgroupoids(g)]
                == [(h.members, h.is_wide, h.is_normal) for h in subgroupoids_by_mask_scan(g)])


def test_enumeration_refuses_a_table_that_is_not_a_groupoid(z4):
    cut = FiniteGroupoid(z4.elements, z4.units, z4.alpha, z4.beta, z4.inv,
                         {k: v for k, v in z4.mul.items() if k != (1, 3)})
    with pytest.raises(ValueError, match="not a groupoid"):
        enumerate_subgroupoids(cut)


def test_flags_come_from_the_construction_beyond_the_cap(monkeypatch):
    """Past the size cap, where the mask scan cannot go: S(3) and
    pair(2) x S3 list the flags the classifier gives, and enumeration
    itself never calls the classifier."""
    monkeypatch.setattr("groupoids.subgroupoids.ENUM_SIZE_LIMIT", 64)
    cases = [symmetric_groupoid(3),
             direct_product(pair_groupoid(2), from_group(symmetric_group_3()))]
    assert len(cases[1]) == 24
    expected = []
    for g in cases:
        handles = enumerate_subgroupoids(g)
        flags = [(h.is_wide, h.is_normal) for h in handles]
        classified = [classify_subset(g, h.members) for h in handles]
        assert flags == [(c.is_wide, c.is_normal) for c in classified]
        assert {c.kind for c in classified} == {"subgroupoid", "wide", "normal"}
        expected.append([(h.members, h.is_wide, h.is_normal) for h in handles])
    assert len(expected[0]) == 6194

    def refuse(*args):
        raise AssertionError("enumerate_subgroupoids classified a listed set")

    monkeypatch.setattr("groupoids.subgroupoids.classify_subset", refuse)
    for g, want in zip(cases, expected):
        assert [(h.members, h.is_wide, h.is_normal)
                for h in enumerate_subgroupoids(g)] == want
