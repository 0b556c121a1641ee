import pytest

from groupoids import (
    FiniteGroupoid,
    SizeLimitError,
    cyclic_group,
    from_group,
    is_isomorphic,
    isotropy_conjugation,
    klein_four_group,
    null_groupoid,
    pair_groupoid,
    restricted,
    validate,
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
    iso.check(golden)
    members = [golden.elements[x] for x in iso.members]
    assert members == ["3/0", "3/1", "3/2", "3/3"]
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
    with pytest.raises(ValueError, match="element 1 "):
        is_isomorphic(FiniteGroupoid(**tables), from_group(cyclic_group(4)))


def test_equality_ignores_labels_only_when_tables_match(gp2):
    other = pair_groupoid(2)
    assert gp2 == other
    assert gp2 != from_group(cyclic_group(4))
