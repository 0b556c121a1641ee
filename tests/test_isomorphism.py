"""is_isomorphic against Brandt's theorem.

A finite groupoid is a disjoint union of components pair(m) x G, and two
groupoids are isomorphic exactly when their multisets of (m, G) agree up to
group isomorphism.  The corpus below is built from pairwise non-isomorphic
groups, so the expected answer is known without any search.
"""

import itertools
import random

import pytest

from conftest import symmetric_group_3

from groupoids import (
    FiniteGroupoid,
    GroupTable,
    cyclic_group,
    direct_product,
    disjoint_union,
    from_group,
    is_isomorphic,
    klein_four_group,
    pair_groupoid,
    validate,
)


def quaternion_group() -> GroupTable:
    """Q8 as signed units 1, i, j, k with i^2 = j^2 = k^2 = ijk = -1."""
    # unit products as (sign, unit) for 1, i, j, k
    units = [[(1, 0), (1, 1), (1, 2), (1, 3)],
             [(1, 1), (-1, 0), (1, 3), (-1, 2)],
             [(1, 2), (-1, 3), (-1, 0), (1, 1)],
             [(1, 3), (1, 2), (-1, 1), (-1, 0)]]
    elements = [(s, u) for s in (1, -1) for u in range(4)]
    index = {e: i for i, e in enumerate(elements)}

    def times(a, b):
        sign, unit = units[a[1]][b[1]]
        return index[(a[0] * b[0] * sign, unit)]

    table = [[times(a, b) for b in elements] for a in elements]
    return GroupTable.build(
        labels=[("" if s > 0 else "-") + "1ijk"[u] for s, u in elements],
        table=table,
        identity=0,
        inv=[row.index(0) for row in table],
    )


def _cyclic(n):
    return from_group(cyclic_group(n))


def _groups():
    """Pairwise non-isomorphic groups; Z4xZ4 and Z2xQ8 share their element
    orders."""
    q8 = from_group(quaternion_group())
    groups = {f"Z{n}": _cyclic(n) for n in range(1, 9)}
    groups.update({
        "V4": from_group(klein_four_group()),
        "Z2xZ4": direct_product(_cyclic(2), _cyclic(4)),
        "Z2^3": direct_product(_cyclic(2), direct_product(_cyclic(2), _cyclic(2))),
        "Q8": q8,
        "S3": from_group(symmetric_group_3()),
        "Z4xZ4": direct_product(_cyclic(4), _cyclic(4)),
        "Z2xQ8": direct_product(_cyclic(2), q8),
    })
    return groups


GROUPS = _groups()
SIZE = 32


def _corpus():
    """Disjoint unions of one or two components pair(m) x G of at most SIZE
    elements, each with its sorted multiset of (m, G) as the key."""
    atoms = [(m, name) for m in range(1, 6) for name, g in GROUPS.items()
             if m * m * len(g) <= SIZE]
    out = []
    for k in (1, 2):
        for combo in itertools.combinations_with_replacement(atoms, k):
            if sum(m * m * len(GROUPS[name]) for m, name in combo) <= SIZE:
                parts = [direct_product(pair_groupoid(m), GROUPS[name]) for m, name in combo]
                out.append((combo, disjoint_union(*parts)))
    return out


CORPUS = _corpus()


def relabelled(g: FiniteGroupoid, rng: random.Random) -> FiniteGroupoid:
    """g with its elements renumbered by a seeded permutation."""
    p = list(range(len(g)))
    rng.shuffle(p)
    back = sorted(range(len(g)), key=p.__getitem__)
    return FiniteGroupoid(
        elements=[g.elements[x] for x in back],
        units=[p[u] for u in g.units],
        alpha=[p[g.alpha[x]] for x in back],
        beta=[p[g.beta[x]] for x in back],
        inv=[p[g.inv[x]] for x in back],
        mul={(p[x], p[y]): p[z] for (x, y), z in g.mul.items()},
    )


def assert_table_isomorphism(g, h, f):
    """f is a bijection g -> h that carries units, alpha, beta, inv and the
    product table of g exactly onto those of h."""
    n = len(g)
    assert len(f) == n == len(h) and sorted(f) == list(range(n))
    assert sorted(f[u] for u in g.units) == list(h.units)
    for x in range(n):
        assert h.alpha[f[x]] == f[g.alpha[x]]
        assert h.beta[f[x]] == f[g.beta[x]]
        assert h.inv[f[x]] == f[g.inv[x]]
    assert {(f[x], f[y]): f[z] for (x, y), z in g.mul.items()} == h.mul


def _invariants(g: FiniteGroupoid) -> tuple:
    """Order, element orders and commutativity of a one-unit groupoid."""
    def order(x):
        k, power = 1, x
        while not g.is_unit(power):
            k, power = k + 1, g.mul[(power, x)]
        return k

    abelian = all(g.mul[(x, y)] == g.mul[(y, x)] for x, y in g.mul)
    return len(g), tuple(sorted(order(x) for x in range(len(g)))), abelian


def test_corpus_groups_are_told_apart_by_invariants():
    invariants = {_invariants(g) for g in GROUPS.values()}
    assert len(GROUPS) == len(invariants) == 15
    assert all(len(g) <= SIZE for _, g in CORPUS)


def test_is_isomorphic_agrees_with_brandt_classification():
    classes = {}
    for combo, g in CORPUS:
        classes.setdefault((len(g), len(g.units), len(g.mul)), []).append((combo, g))
    pairs = 0
    for members in classes.values():
        for (key_g, g), (key_h, h) in itertools.product(members, repeat=2):
            f = is_isomorphic(g, h)
            assert (f is not None) == (key_g == key_h), (key_g, key_h)
            if f is not None:
                assert_table_isomorphism(g, h, f)
            pairs += 1
    assert pairs > 1000


def test_is_isomorphic_finds_seeded_relabellings():
    rng = random.Random(20240801)
    for combo, g in CORPUS:
        h = relabelled(g, rng)
        f = is_isomorphic(g, h)
        assert f is not None, combo
        assert_table_isomorphism(g, h, f)


def _mutant(g: FiniteGroupoid, rng: random.Random) -> FiniteGroupoid:
    """g with one table entry retargeted, deleted or added, all in range."""
    tables = dict(elements=g.elements, units=g.units, alpha=list(g.alpha),
                  beta=list(g.beta), inv=list(g.inv), mul=dict(g.mul))
    n = len(g)
    kind = rng.choice(["alpha", "beta", "inv", "retarget", "delete", "add"])
    if kind in ("alpha", "beta", "inv"):
        tables[kind][rng.randrange(n)] = rng.randrange(n)
    elif kind == "retarget":
        tables["mul"][rng.choice(sorted(g.mul))] = rng.randrange(n)
    elif kind == "delete":
        del tables["mul"][rng.choice(sorted(g.mul))]
    else:
        tables["mul"][(rng.randrange(n), rng.randrange(n))] = rng.randrange(n)
    return FiniteGroupoid(**tables)


@pytest.mark.parametrize("seed", range(4))
def test_is_isomorphic_on_mutants_raises_only_value_error(seed):
    rng = random.Random(seed)
    for _ in range(150):
        _, g = rng.choice(CORPUS)
        m = _mutant(g, rng)
        for a, b in ((m, g), (g, m), (m, m)):
            try:
                f = is_isomorphic(a, b)
            except ValueError:
                continue
            if f is not None:
                assert validate(a).passed and validate(b).passed
                assert_table_isomorphism(a, b, f)
        if not validate(m).passed:
            for a, b in ((m, g), (g, m), (m, m)):
                with pytest.raises(ValueError):
                    is_isomorphic(a, b)


def test_is_isomorphic_validates_before_answering():
    """Z4 with the inverse of 1 retargeted to 1 fails G3 yet has the size,
    unit count and product count of the Klein group; the answer is an error,
    not None."""
    z4 = from_group(cyclic_group(4))
    inv = list(z4.inv)
    inv[1] = 1
    broken = FiniteGroupoid(z4.elements, z4.units, z4.alpha, z4.beta, inv, z4.mul)
    assert any(v.axiom == "G3" for v in validate(broken).violations)
    klein = from_group(klein_four_group())
    with pytest.raises(ValueError, match="first argument is not a groupoid"):
        is_isomorphic(broken, klein)
    with pytest.raises(ValueError, match="second argument is not a groupoid"):
        is_isomorphic(klein, broken)


def test_is_isomorphic_refuses_a_vertex_map_that_is_not_a_homomorphism(monkeypatch):
    """A vertex-group search that returned 0->0, 1->2, 2->1, 3->4, 4->3 on
    Z5: a bijection that fixes the unit and commutes with inverses, so only
    the product part of the final guard can refuse it."""
    z5 = from_group(cyclic_group(5))
    swap = {0: 0, 1: 2, 2: 1, 3: 4, 4: 3}
    assert all(swap[z5.inv[x]] == z5.inv[swap[x]] for x in swap)
    monkeypatch.setattr("groupoids.core._vertex_group_iso",
                        lambda a, b: [b.members.index(swap[x]) for x in a.members])
    with pytest.raises(ValueError, match="is_isomorphic: the component map is not an isomorphism"):
        is_isomorphic(z5, z5)
