import itertools
import random

import pytest

from groupoids import (
    FiniteGroupoid,
    Quasipermutation,
    SizeLimitError,
    alternating_groupoid,
    count_formulas,
    qp_compose,
    restricted,
    signature,
    symmetric_groupoid,
    validate,
)
from groupoids.quasiperm import DEGREE_LIMIT, _coordinates, _enumerate, _even, _groupoid


def test_text_form_round_trip():
    f = Quasipermutation(4, (1, 3), (4, 2))
    assert f.text_form() == "2: 1 3 -> 4 2"
    assert Quasipermutation.from_text(4, f.text_form()) == f
    assert str(f) == f.text_form()


def test_from_text_rejects_malformed_strings():
    cases = [
        ("", "malformed quasipermutation text ''"),
        ("1 2 -> 2 1", "malformed quasipermutation text '1 2 -> 2 1'"),
        ("2: 1 2", "malformed quasipermutation text '2: 1 2'"),
        ("2: 1 2 -> 2", "domain and image must have equal length"),
        ("x: 1 -> 1", "malformed quasipermutation text 'x: 1 -> 1'"),
        ("1: a -> b", "malformed quasipermutation text '1: a -> b'"),
        ("1: 1.0 -> 1", "malformed quasipermutation text '1: 1.0 -> 1'"),
        ("3: 1 2 -> 2 1", "length prefix 3 does not match domain in '3: 1 2 -> 2 1'"),
        ("2: 2 1 -> 1 2", "domain must be strictly increasing"),
        ("2: 1 2 -> 1 1", "image entries must be distinct"),
        ("1: 4 -> 1", "entries must lie in 1..3"),
    ]
    for bad, message in cases:
        with pytest.raises(ValueError) as err:
            Quasipermutation.from_text(3, bad)
        assert str(err.value) == message, bad


@pytest.mark.parametrize("text", [" 2: 1 2 -> 2 1", "2:1 2->2 1", "\t2 :  1  2 -> 2 1\n"])
def test_from_text_ignores_whitespace_around_the_numbers(text):
    assert Quasipermutation.from_text(3, text) == Quasipermutation(3, (1, 2), (2, 1))


def test_constructor_rejects_bad_maps():
    with pytest.raises(ValueError):
        Quasipermutation(0, (1,), (1,))
    with pytest.raises(ValueError):
        Quasipermutation(3, (), ())
    with pytest.raises(ValueError):
        Quasipermutation(3, (1, 2), (3,))
    with pytest.raises(ValueError):
        Quasipermutation(3, (2, 1), (1, 2))
    with pytest.raises(ValueError):
        Quasipermutation(3, (1, 2), (3, 3))
    with pytest.raises(ValueError):
        Quasipermutation(3, (1, 4), (1, 2))


@pytest.mark.parametrize("args, message", [
    ((3, (1.0,), (1,)), "domain entries must be ints, got 1.0"),
    ((3, (True,), (1,)), "domain entries must be ints, got True"),
    ((3, ("1",), ("1",)), "domain entries must be ints, got '1'"),
    ((3, (1,), (False,)), "image entries must be ints, got False"),
    ((3, (1, 2), (2, None)), "image entries must be ints, got None"),
    (("3", (1,), (1,)), "degree must be an int, got '3'"),
    ((True, (1,), (1,)), "degree must be an int, got True"),
    ((3.0, (1,), (1,)), "degree must be an int, got 3.0"),
    ((3, [1], (1,)), "domain must be a tuple, got [1]"),
    ((3, (1,), [1]), "image must be a tuple, got [1]"),
])
def test_constructor_refuses_points_that_are_not_ints(args, message):
    with pytest.raises(ValueError) as err:
        Quasipermutation(*args)
    assert str(err.value) == message


def test_every_constructed_map_reads_back_from_its_text():
    # seeded constructor arguments drawn from ints in and out of range and
    # from values that are not ints: each is refused or round-trips
    rng = random.Random(31)
    values = [1, 2, 3, 4, 0, -1, 1.0, True, False, "1", None]
    made = 0
    for _ in range(3000):
        degree = rng.choice([3, 3, 3, 0, True, 3.0, "3"])
        k = rng.randint(0, 3)
        domain = tuple(rng.choice(values) for _ in range(k))
        image = tuple(rng.choice(values) for _ in range(k))
        if rng.random() < 0.6:
            domain = tuple(sorted(rng.sample(range(1, 4), k)))
        if rng.random() < 0.6:
            image = tuple(rng.sample(range(1, 4), k))
        try:
            f = Quasipermutation(degree, domain, image)
        except ValueError:
            continue
        assert Quasipermutation.from_text(f.degree, f.text_form()) == f
        made += 1
    assert made > 300


def test_compose_refuses_an_argument_that_is_not_a_quasipermutation():
    f = Quasipermutation(2, (1,), (2,))
    with pytest.raises(ValueError, match="^g is not a Quasipermutation: 'x'$"):
        qp_compose(f, "x")
    with pytest.raises(ValueError, match="^f is not a Quasipermutation: None$"):
        qp_compose(None, f)


def test_signature_refuses_an_argument_that_is_not_a_quasipermutation():
    with pytest.raises(ValueError, match="^f is not a Quasipermutation: 'x'$"):
        signature("x")
    with pytest.raises(ValueError, match="^f is not a Quasipermutation: None$"):
        signature(None)
    assert signature(Quasipermutation(2, (1, 2), (2, 1))) == -1


def test_apply_and_inverse():
    f = Quasipermutation(3, (1, 2), (3, 1))
    assert f.apply(1) == 3 and f.apply(2) == 1
    with pytest.raises(ValueError):
        f.apply(3)
    g = f.inverse()
    assert g.domain == (1, 3) and g.image == (2, 1)
    assert qp_compose(f, g) == Quasipermutation.identity(3, (1, 2))


def test_compose_defined_exactly_on_matching_range_and_domain():
    one_to_two = Quasipermutation(2, (1,), (2,))
    two_to_one = Quasipermutation(2, (2,), (1,))
    assert qp_compose(one_to_two, two_to_one) == Quasipermutation.identity(2, (1,))
    assert qp_compose(two_to_one, one_to_two) == Quasipermutation.identity(2, (2,))
    assert qp_compose(one_to_two, one_to_two) is None
    with pytest.raises(ValueError):
        qp_compose(one_to_two, Quasipermutation(3, (2,), (1,)))


def test_compose_applies_left_factor_first():
    f = Quasipermutation(3, (1, 2), (2, 3))
    g = Quasipermutation(3, (2, 3), (1, 3))
    h = qp_compose(f, g)
    assert h is not None
    assert h.domain == (1, 2) and h.image == (1, 3)


def test_signature_values():
    assert signature(Quasipermutation(3, (1, 2, 3), (2, 3, 1))) == 1
    assert signature(Quasipermutation(2, (1, 2), (2, 1))) == -1
    assert signature(Quasipermutation(3, (1, 3), (3, 1))) == -1
    assert signature(Quasipermutation(3, (2,), (2,))) == 1
    assert signature(Quasipermutation(3, (2,), (3,))) == -1


def test_signature_behaviour_under_composition():
    # Multiplicative on maps of length >= 2; on length-1 maps only closure
    # of the even part survives (two odd point maps can compose to odd).
    full = symmetric_groupoid(3)
    maps = full.payloads
    for (i, j), k in full.mul.items():
        if maps[i].length >= 2:
            assert signature(maps[i]) * signature(maps[j]) == signature(maps[k])
        if signature(maps[i]) == 1 and signature(maps[j]) == 1:
            assert signature(maps[k]) == 1
    odd_product = qp_compose(
        Quasipermutation(3, (1,), (2,)), Quasipermutation(3, (2,), (3,))
    )
    assert signature(odd_product) == -1


def test_degree_two_enumeration_order():
    g = symmetric_groupoid(2)
    assert g.elements == (
        "1: 1 -> 1",
        "1: 2 -> 2",
        "2: 1 2 -> 1 2",
        "1: 1 -> 2",
        "1: 2 -> 1",
        "2: 1 2 -> 2 1",
    )
    assert g.units == (0, 1, 2)
    assert validate(g).passed


def test_degree_two_tables():
    g = symmetric_groupoid(2)
    swap = g.index("2: 1 2 -> 2 1")
    up = g.index("1: 1 -> 2")
    down = g.index("1: 2 -> 1")
    assert g.inv[swap] == swap
    assert g.inv[up] == down
    assert g.compose(swap, swap) == g.index("2: 1 2 -> 1 2")
    assert g.compose(up, down) == g.index("1: 1 -> 1")
    assert g.compose(up, swap) is None
    assert g.anchor(up) == (0, 1)


def test_symmetric_groupoid_sizes_and_validity():
    for n in (1, 2, 3):
        g = symmetric_groupoid(n)
        counts = count_formulas(n)
        assert len(g) == counts.s_total
        assert len(g.units) == counts.s_units
        assert validate(g).passed
    assert symmetric_groupoid(3).groupoid_type() == (33, 7)


def test_symmetric_groupoid_isotropy_count():
    g = symmetric_groupoid(2)
    counts = count_formulas(2)
    assert len(g.isotropy_bundle()) == counts.s_isotropy
    g3 = symmetric_groupoid(3)
    assert len(g3.isotropy_bundle()) == count_formulas(3).s_isotropy


def test_alternating_groupoid_membership_and_sizes():
    a = alternating_groupoid(3)
    assert a.groupoid_type() == (15, 7)
    assert validate(a).passed
    assert all(signature(f) == 1 for f in a.payloads)
    full = symmetric_groupoid(3)
    even = sum(1 for f in full.payloads if signature(f) == 1)
    assert len(a) == even == count_formulas(3).a_total


def test_alternating_degree_two_is_the_units():
    a = alternating_groupoid(2)
    assert a.groupoid_type() == (3, 3)
    assert all(a.is_unit(x) for x in range(len(a)))


def test_count_formulas_match_enumeration():
    for n in (1, 2, 3, 4):
        counts = count_formulas(n)
        g = symmetric_groupoid(n)
        assert len(g) == counts.s_total
        assert len(g.units) == counts.s_units
        assert len(g.isotropy_bundle()) == counts.s_isotropy
        if n == 1:
            assert counts.a_total is None
            assert counts.a_units is None
            assert counts.a_isotropy is None
        else:
            a = alternating_groupoid(n)
            assert len(a) == counts.a_total
            assert len(a.units) == counts.a_units
            assert len(a.isotropy_bundle()) == counts.a_isotropy
            even = [i for i, f in enumerate(g.payloads) if signature(f) == 1]
            by_restriction = restricted(g, even)
            assert a == by_restriction
            assert a.elements == by_restriction.elements
            assert a.payloads == by_restriction.payloads


def test_alternating_payloads_are_the_even_symmetric_payloads(s5):
    # degrees 2 to 4 are pinned by test_count_formulas_match_enumeration
    assert alternating_groupoid(5).payloads == tuple(f for f in s5.payloads if signature(f) == 1)


def test_known_count_values():
    two = count_formulas(2)
    assert (two.s_total, two.s_units, two.s_isotropy) == (6, 3, 4)
    assert (two.a_total, two.a_units, two.a_isotropy) == (3, 3, 3)
    three = count_formulas(3)
    assert (three.s_total, three.s_units, three.s_isotropy) == (33, 7, 15)
    assert (three.a_total, three.a_units, three.a_isotropy) == (15, 7, 9)


def test_degree_bounds():
    with pytest.raises(ValueError):
        symmetric_groupoid(0)
    with pytest.raises(ValueError):
        count_formulas(0)
    with pytest.raises(SizeLimitError):
        symmetric_groupoid(7)
    with pytest.raises(ValueError):
        alternating_groupoid(1)
    with pytest.raises(SizeLimitError):
        alternating_groupoid(9)
    assert DEGREE_LIMIT == 6  # degree 6 stays in the library; only `build` stops at 5


def groupoid_by_qp_compose(maps):
    """Reference for quasiperm._groupoid: every product and inverse built
    as a Quasipermutation and looked up by (domain, image)."""
    index = {(f.domain, f.image): i for i, f in enumerate(maps)}
    unit_of_subset = {f.domain_set: i for i, f in enumerate(maps) if f.is_identity()}
    by_domain = {}
    for j, g in enumerate(maps):
        by_domain.setdefault(g.domain_set, []).append(j)
    mul = {}
    for i, f in enumerate(maps):
        for j in by_domain.get(f.range_set, ()):
            h = qp_compose(f, maps[j])
            mul[(i, j)] = index[(h.domain, h.image)]
    return FiniteGroupoid(
        elements=[f.text_form() for f in maps],
        units=[i for i, f in enumerate(maps) if f.is_identity()],
        alpha=[unit_of_subset[f.domain_set] for f in maps],
        beta=[unit_of_subset[f.range_set] for f in maps],
        inv=[index[(f.inverse().domain, f.inverse().image)] for f in maps],
        mul=mul,
        payloads=maps,
    )


def kernel_inputs(s5):
    yield from (symmetric_groupoid(n) for n in (1, 2, 3, 4))
    yield s5
    yield from (alternating_groupoid(n) for n in (2, 3, 4, 5))


def test_groupoid_matches_the_qp_compose_reference(s5):
    for g in kernel_inputs(s5):
        expected = groupoid_by_qp_compose(list(g.payloads))
        assert g.elements == expected.elements
        assert g.units == expected.units
        assert g.alpha == expected.alpha
        assert g.beta == expected.beta
        assert g.inv == expected.inv
        assert list(g.mul.items()) == list(expected.mul.items())
        assert g.payloads == expected.payloads


def checked_maps(n):
    """Every map of degree n made by the public constructor, identities
    first, in the order ``_enumerate`` promises."""
    pairs = [(d, i) for k in range(1, n + 1)
             for d in itertools.combinations(range(1, n + 1), k)
             for i in itertools.permutations(range(1, n + 1), k)]
    ordered = [p for p in pairs if p[0] == p[1]] + [p for p in pairs if p[0] != p[1]]
    return [Quasipermutation(n, d, i) for d, i in ordered]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_makes_the_checked_maps(n):
    maps = _enumerate(n)
    expected = checked_maps(n)
    assert maps == expected
    for f, g in zip(maps, expected):
        assert type(f) is Quasipermutation
        assert (hash(f), repr(f)) == (hash(g), repr(g))
        text = f"{len(g.domain)}: {' '.join(str(i) for i in g.domain)} -> " \
               f"{' '.join(str(j) for j in g.image)}"
        assert f.text_form() == g.text_form() == str(f) == text


def test_enumerate_keeps_no_map_between_calls():
    first, second = _enumerate(3), _enumerate(3)
    assert first == second
    assert all(f is not g for f, g in zip(first, second))


def coordinates_map_by_map(maps):
    """Reference for _coordinates: the range sorted and the permutation
    ranked again for every map."""
    rank, coords = {}, []
    for f in maps:
        rng = tuple(sorted(f.image))
        pi = tuple(rng.index(v) for v in f.image)
        coords.append((f.domain, rng, rank.setdefault(pi, len(rank))))
    return coords, list(rank)


def test_coordinates_per_image_equal_the_per_map_reference():
    for n in (1, 2, 3, 4, 5):
        maps = _enumerate(n)
        shuffled = random.Random(n).sample(maps, len(maps))
        for given in (maps, _even(maps), shuffled):
            assert _coordinates(given) == coordinates_map_by_map(given)


def test_even_filter_equals_the_signature_filter():
    for n in (1, 2, 3, 4, 5):
        maps = _enumerate(n)
        shuffled = random.Random(n).sample(maps, len(maps))
        for given in (maps, shuffled):
            assert _even(given) == [f for f in given if signature(f) == 1]


def table_over_all_pairs(maps):
    """(elements, units, alpha, beta, inv, products) of the maps, read from
    qp_compose over every ordered pair."""
    index = {f: i for i, f in enumerate(maps)}
    identity_on = {f.domain: i for i, f in enumerate(maps) if f.is_identity()}
    products = {}
    for (i, f), (j, g) in itertools.product(enumerate(maps), repeat=2):
        h = qp_compose(f, g)
        if h is not None:
            products[(i, j)] = index[h]
    return ([f.text_form() for f in maps], sorted(identity_on.values()),
            [identity_on[f.domain] for f in maps],
            [identity_on[tuple(sorted(f.image))] for f in maps],
            [index[f.inverse()] for f in maps], products)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_groupoids_equal_the_all_pairs_qp_compose_tables(n):
    builds = [(symmetric_groupoid, checked_maps(n))]
    if n >= 2:
        builds.append((alternating_groupoid,
                       [f for f in checked_maps(n) if signature(f) == 1]))
    for build, maps in builds:
        g = build(n)
        elements, units, alpha, beta, inv, products = table_over_all_pairs(maps)
        assert list(g.payloads) == maps
        assert (list(g.elements), list(g.units)) == (elements, units)
        assert (list(g.alpha), list(g.beta), list(g.inv)) == (alpha, beta, inv)
        assert dict(g.mul.items()) == products


@pytest.mark.parametrize("maps", [
    # (1 2);(2 3) is a 3-cycle, which is not in the list
    [Quasipermutation(3, (1, 2, 3), (1, 2, 3)), Quasipermutation(3, (1, 2, 3), (2, 1, 3)),
     Quasipermutation(3, (1, 2, 3), (1, 3, 2))],
    # the identity on {1}, the source, is not in the list
    [Quasipermutation(2, (1,), (2,)), Quasipermutation(2, (2,), (1,)),
     Quasipermutation(2, (2,), (2,))],
])
def test_a_list_not_closed_under_composition_is_refused(maps):
    with pytest.raises(ValueError, match="not closed under composition and inversion"):
        _groupoid(maps)
