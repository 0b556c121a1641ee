import json

import pytest
from hypothesis import example, given, settings, strategies as st

from groupoids import (
    Quasipermutation,
    anchor_morphism,
    canonical_dumps,
    canonicalize_document,
    cyclic_group,
    direct_product,
    disjoint_union,
    from_group,
    induced_groupoid,
    is_strong,
    isotropy_conjugation,
    klein_four_group,
    left_translation_groupoid,
    null_groupoid,
    null_subgroupoid,
    pair_groupoid,
    parse_groupoid_document,
    plain_document,
    qp_compose,
    signature,
    symmetric_groupoid,
    validate,
    validate_morphism,
    whitney_sum,
)

BASES = [
    pair_groupoid(1),
    pair_groupoid(2),
    pair_groupoid(3),
    null_groupoid(["a"]),
    null_groupoid(["a", "b"]),
    null_groupoid(["a", "b", "c"]),
    from_group(cyclic_group(1)),
    from_group(cyclic_group(2)),
    from_group(cyclic_group(3)),
    from_group(cyclic_group(4)),
    from_group(klein_four_group()),
    symmetric_groupoid(1),
    symmetric_groupoid(2),
]

SIZE_CAP = 80


@st.composite
def chain_groupoids(draw):
    """A base groupoid pushed through a short random chain of combinators,
    capped so the properties stay cheap to check."""
    g = draw(st.sampled_from(BASES))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        op = draw(st.sampled_from(["union", "product", "whitney", "translate", "induced"]))
        h = draw(st.sampled_from(BASES[:8]))
        if op == "union":
            candidate = disjoint_union(g, h)
        elif op == "product":
            if len(g) * len(h) > SIZE_CAP:
                continue
            candidate = direct_product(g, h)
        elif op == "whitney":
            candidate = whitney_sum(g, g)
        elif op == "translate":
            candidate = left_translation_groupoid(g)
        else:
            targets = [g.unit_base_label(u) for u in g.units]
            points = draw(st.integers(min_value=1, max_value=2))
            mapping = {
                f"p{i}": draw(st.sampled_from(targets)) for i in range(points)
            }
            candidate = induced_groupoid(g, mapping)
        if len(candidate) <= SIZE_CAP:
            g = candidate
    return g


@st.composite
def quasiperm_of_degree(draw, degree):
    k = draw(st.integers(min_value=1, max_value=degree))
    domain = tuple(sorted(draw(st.permutations(range(1, degree + 1)))[:k]))
    image = tuple(draw(st.permutations(range(1, degree + 1)))[:k])
    return Quasipermutation(degree, domain, image)


@st.composite
def quasiperm_pairs(draw):
    degree = draw(st.integers(min_value=1, max_value=4))
    return (
        draw(quasiperm_of_degree(degree)),
        draw(quasiperm_of_degree(degree)),
    )


@st.composite
def composable_quasiperm_pairs(draw):
    degree = draw(st.integers(min_value=2, max_value=4))
    f = draw(quasiperm_of_degree(degree))
    second_domain = tuple(sorted(f.image))
    image = tuple(draw(st.permutations(range(1, degree + 1)))[: f.length])
    return f, Quasipermutation(degree, second_domain, image)


@settings(max_examples=40, deadline=None)
@given(chain_groupoids())
def test_chain_groupoids_satisfy_the_axioms(g):
    assert validate(g).passed
    for u in g.units:
        assert g.alpha[u] == u and g.beta[u] == u and g.inv[u] == u
    for x in range(len(g)):
        assert g.inv[g.inv[x]] == x
        assert g.alpha[g.inv[x]] == g.beta[x]
    for (x, y), z in list(g.mul.items())[:300]:
        assert g.inv[z] == g.mul[(g.inv[y], g.inv[x])]
        assert g.anchor(z) == (g.alpha[x], g.beta[y])


@settings(max_examples=40, deadline=None)
@given(chain_groupoids())
def test_chain_groupoid_units_form_a_normal_subgroupoid(g):
    handle = null_subgroupoid(g)
    assert handle.is_wide and handle.is_normal


@settings(max_examples=40, deadline=None)
@given(chain_groupoids())
def test_chain_groupoid_anchor_morphism_is_strong(g):
    m = anchor_morphism(g)
    assert validate_morphism(m).passed
    assert is_strong(m) == (True, None)


@settings(max_examples=40, deadline=None)
@given(chain_groupoids())
def test_chain_groupoid_documents_are_stable(g):
    text = canonical_dumps(plain_document(g))
    parsed = parse_groupoid_document(json.loads(text))
    assert parsed.groupoid == g
    assert canonical_dumps(plain_document(parsed.groupoid)) == text


@settings(max_examples=25, deadline=None)
@given(chain_groupoids())
def test_chain_groupoid_conjugation_is_defined_everywhere(g):
    for x in range(min(len(g), 40)):
        mapping = isotropy_conjugation(g, x)
        assert sorted(mapping) == list(g.isotropy_members(g.alpha[x]))
        assert sorted(mapping.values()) == list(g.isotropy_members(g.beta[x]))


@given(quasiperm_pairs())
def test_composition_defined_exactly_when_range_meets_domain(pair):
    f, g = pair
    composite = qp_compose(f, g)
    if f.range_set == g.domain_set:
        assert composite is not None
        assert composite.domain == f.domain
        for i in f.domain:
            assert composite.apply(i) == g.apply(f.apply(i))
    else:
        assert composite is None


@given(quasiperm_pairs())
def test_degree_mismatch_raises(pair):
    f, _ = pair
    other = Quasipermutation(f.degree + 1, f.domain, f.image)
    with pytest.raises(ValueError):
        qp_compose(f, other)


@given(st.integers(min_value=1, max_value=4), st.data())
def test_inverse_is_an_involution(degree, data):
    f = data.draw(quasiperm_of_degree(degree))
    assert f.inverse().inverse() == f
    assert qp_compose(f, f.inverse()) == Quasipermutation.identity(f.degree, f.domain)
    assert qp_compose(f.inverse(), f) == Quasipermutation.identity(
        f.degree, tuple(sorted(f.image))
    )


@given(composable_quasiperm_pairs())
def test_signature_multiplies_for_longer_maps(pair):
    f, g = pair
    composite = qp_compose(f, g)
    assert composite is not None
    if f.length >= 2:
        assert signature(composite) == signature(f) * signature(g)
    if signature(f) == 1 and signature(g) == 1:
        assert signature(composite) == 1


@given(composable_quasiperm_pairs())
def test_text_form_round_trips(pair):
    f, g = pair
    for h in (f, g):
        assert Quasipermutation.from_text(h.degree, h.text_form()) == h


# Labels that JSON escapes or that read like other JSON values.
LABELS = st.one_of(
    st.sampled_from(["", "true", "1", "null", '"', "\\", "\n", "\x00\x1f", "é", "\u2028", "✓"]),
    st.text(max_size=5),
)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), LABELS)
TRIPLES = st.lists(LABELS, min_size=3, max_size=3)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(st.one_of(TRIPLES, inner), max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(LABELS, inner, max_size=4),
        st.dictionaries(st.integers(), inner, max_size=3),
    ),
    max_leaves=12,
)
LAYOUT_FIELDS = ("elements", "units", "mul", "add", "unit_add")


@st.composite
def documents(draw):
    """Documents that canonicalize_document accepts: element, unit and
    triple labels drawn from LABELS, at least one unit, no pair repeated in
    a triple list, and any other fields from VALUES, string-keyed label
    maps and lists of label triples among them."""
    elements = draw(st.lists(LABELS, min_size=1, max_size=6, unique=True))
    units = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=3, unique=True))
    label = st.sampled_from(elements)
    pairs_once = dict(unique_by=lambda t: tuple(t[:2]))
    doc = draw(st.dictionaries(
        st.text(max_size=8).filter(lambda k: k not in LAYOUT_FIELDS),
        st.one_of(VALUES, st.lists(TRIPLES, max_size=4),
                  st.lists(st.lists(SCALARS, min_size=3, max_size=3), max_size=4),
                  st.dictionaries(LABELS, st.dictionaries(LABELS, LABELS, max_size=3),
                                  max_size=3)),
        max_size=5))
    doc["elements"], doc["units"] = elements, units
    doc["mul"] = draw(st.lists(st.lists(label, min_size=3, max_size=3), max_size=8, **pairs_once))
    if draw(st.booleans()):
        doc["add"] = draw(st.lists(st.lists(label, min_size=3, max_size=3), max_size=8,
                                   **pairs_once))
    if draw(st.booleans()):
        doc["unit_add"] = draw(st.lists(
            st.lists(st.sampled_from(units), min_size=3, max_size=3), max_size=4, **pairs_once))
    return doc


# 1, True and 1.0 are equal dict keys: a string cache that took them in
# would write all three alike.  A list cell among string labels cannot go
# in the writer's set of labels, so its triples are left to json.
@settings(max_examples=200, deadline=None)
@given(documents())
@example({"elements": ["a"], "units": ["a"], "mul": [["a", "a", "a"]],
          "equal keys, other types": [[1, True, 1.0], [0, False, 0.0], ["1", [], {}]]})
@example({"elements": ["a"], "units": ["a"], "mul": [["a", "a", "a"]],
          "a list cell": [["a", ["b", "c"], "d"], ["e", "f", "g"]]})
def test_canonical_dumps_writes_the_stdlib_bytes(doc):
    expected = json.dumps(canonicalize_document(doc), sort_keys=True, indent=2) + "\n"
    assert canonical_dumps(doc) == expected
