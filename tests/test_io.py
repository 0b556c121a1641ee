import io
import itertools
import json
import os
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from groupoids import (
    FiniteGroupoid,
    ParseError,
    ParsedDocument,
    Quasipermutation,
    Violation,
    alternating_groupoid,
    anchor_morphism,
    canonical_dumps,
    canonicalize_document,
    check_quasiperm_payloads,
    cyclic_group,
    disjoint_union,
    document_for,
    from_group,
    group_groupoid_document,
    is_strong,
    kernel,
    left_translation_groupoid,
    load_groupoid,
    load_morphism,
    pair_group_groupoid,
    pair_groupoid,
    pair_vector_space_groupoid,
    parse_groupoid_document,
    parse_morphism_document,
    plain_document,
    qp_compose,
    quasiperm_document,
    signature,
    symmetric_groupoid,
    validate,
    validate_group_groupoid,
    validate_morphism,
    validate_vector_space_groupoid,
    vsg_document,
)
from groupoids import io as groupoids_io
from conftest import LONG_INTEGER
from groupoids.cli import main

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_14_6.json"


def reparse(doc):
    return parse_groupoid_document(json.loads(canonical_dumps(doc)))


def test_plain_documents_round_trip(corpus):
    for name, g in corpus.items():
        doc = plain_document(g)
        parsed = reparse(doc)
        assert parsed.kind == "plain", name
        assert parsed.groupoid == g, name
        assert canonical_dumps(document_for(parsed)) == canonical_dumps(doc), name


def test_golden_file_is_canonical(golden):
    text = GOLDEN_PATH.read_text(encoding="utf-8")
    assert canonical_dumps(plain_document(golden)) == text
    parsed = load_groupoid(GOLDEN_PATH)
    assert parsed.groupoid == golden
    assert validate(parsed.groupoid).passed


def test_quasiperm_document_round_trip(s2):
    doc = quasiperm_document(s2, 2)
    parsed = reparse(doc)
    assert parsed.kind == "quasiperm"
    assert parsed.groupoid == s2
    assert parsed.groupoid.payloads == s2.payloads
    assert check_quasiperm_payloads(parsed.groupoid).passed
    assert canonical_dumps(document_for(parsed)) == canonical_dumps(doc)


def test_group_groupoid_document_round_trip():
    gg = pair_group_groupoid(cyclic_group(2))
    doc = group_groupoid_document(gg)
    assert len(doc["add"]) == 16
    parsed = reparse(doc)
    assert parsed.kind == "group-groupoid"
    assert parsed.group_groupoid is not None
    assert validate_group_groupoid(parsed.group_groupoid).passed
    assert parsed.group_groupoid.elem_group == gg.elem_group
    assert parsed.group_groupoid.unit_group == gg.unit_group
    assert canonical_dumps(document_for(parsed)) == canonical_dumps(doc)


def test_group_groupoid_add_field_errors():
    base = group_groupoid_document(pair_group_groupoid(cyclic_group(2)))
    add, unit_add = base["add"], base["unit_add"]
    cases = [
        ({"add": add[:-1]}, "add", "missing entry for ('(1,0)', '(1,0)')"),
        ({"add": add[:5] + add[6:]}, "add", "missing entry for ('(1,1)', '(1,1)')"),
        ({"add": add[:1] + add[2:]}, "add", "missing entry for ('(0,0)', '(1,1)')"),
        ({"add": add + [add[0]]}, f"add[{len(add)}]", "duplicate triple for ('(0,0)', '(0,0)')"),
        ({"add": [add[0][:2]] + add[1:]}, "add[0]", "expected a [x, y, sum] label triple"),
        ({"add": [add[0][:2] + ["zzz"]] + add[1:]}, "add[0]", "unknown label 'zzz'"),
        ({"unit_add": unit_add[1:]}, "unit_add", "missing entry for ('(0,0)', '(0,0)')"),
        ({"unit_add": unit_add + [unit_add[-1]]}, "unit_add[4]",
         "duplicate triple for ('(1,1)', '(1,1)')"),
        ({"unit_add": [["zzz"] + unit_add[0][1:]] + unit_add[1:]}, "unit_add[0]",
         "unknown label 'zzz'"),
        ({"unit_zero": "zzz"}, "unit_zero", "unknown label 'zzz'"),
    ]
    for changes, field, message in cases:
        with pytest.raises(ParseError) as err:
            parse_groupoid_document({**base, **changes})
        assert (err.value.field, err.value.message) == (field, message), field


def test_vsg_document_round_trip():
    v = pair_vector_space_groupoid(2, 1)
    doc = vsg_document(v)
    parsed = reparse(doc)
    assert parsed.kind == "vsg"
    assert parsed.vector_space is not None
    assert validate_vector_space_groupoid(parsed.vector_space).passed
    assert parsed.vector_space.scalar == v.scalar
    assert canonical_dumps(document_for(parsed)) == canonical_dumps(doc)


@pytest.mark.parametrize("kind, message", [
    ("quasiperm", "document of kind 'quasiperm' carries no quasipermutation payloads"),
    ("group-groupoid", "document of kind 'group-groupoid' carries no group-groupoid"),
    ("vsg", "document of kind 'vsg' carries no vector space"),
    ("bogus", "unknown document kind 'bogus'"),
], ids=["quasiperm", "group-groupoid", "vsg", "bogus"])
def test_a_parsed_document_lacking_its_kind_is_refused(kind, message, gp2):
    for write in (document_for, canonical_dumps):
        with pytest.raises(ValueError) as err:
            write(ParsedDocument(gp2, kind))
        assert str(err.value) == message, write


def test_parse_error_fields(gp2):
    base = plain_document(gp2)

    def broken(**changes):
        doc = {**base, **changes}
        for key, value in changes.items():
            if value is None:
                del doc[key]
        return doc

    cases = [
        (broken(format_version=None), "format_version"),
        (broken(format_version=2), "format_version"),
        (broken(kind="mystery"), "kind"),
        (broken(elements="nope"), "elements"),
        (broken(elements=[]), "elements"),
        (broken(elements=["a", "a", "b", "c"]), "elements"),
        (broken(elements=["a", 3, "b", "c"]), "elements[1]"),
        (broken(units=["missing"]), "units[0]"),
        (broken(units=["(1,1)", "(1,1)"]), "units"),
        (broken(alpha={}), "alpha"),
        (broken(alpha={**base["alpha"], "(1,2)": "zzz"}), "alpha"),
        (broken(mul="x"), "mul"),
        (broken(mul=[["(1,1)", "(1,1)"]]), "mul[0]"),
        (broken(mul=[["(1,1)", "(1,1)", "zzz"]]), "mul[0]"),
        (broken(mul=base["mul"] + [base["mul"][0]]), f"mul[{len(base['mul'])}]"),
        (broken(base_labels={"(1,2)": "p"}), "base_labels"),
        (broken(base_labels={"(1,1)": 7}), "base_labels"),
    ]
    for doc, field in cases:
        with pytest.raises(ParseError) as err:
            parse_groupoid_document(doc)
        assert err.value.field == field, field
    with pytest.raises(ParseError) as err:
        parse_groupoid_document(["not", "an", "object"])
    assert err.value.field == "document"


DELETE = object()


def edited(doc, path, value):
    """A copy of doc with the entry at ``path`` (a key sequence) set to
    ``value``, or deleted when value is DELETE."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


# the vsg document of pair_vector_space_groupoid(2, 1): elements (0,0),
# (1,1), (0,1), (1,0), units (0,0) and (1,1), scalar rows "0" and "1"
@pytest.mark.parametrize("path, value, field, message", [
    (("alpha", "zzz"), "(0,0)", "alpha", "unknown label 'zzz'"),
    (("alpha", "(0,1)"), "zzz", "alpha", "unknown label 'zzz' under key '(0,1)'"),
    (("alpha", "(0,1)"), 3, "alpha", "unknown label 3 under key '(0,1)'"),
    (("alpha", "(0,1)"), None, "alpha", "unknown label None under key '(0,1)'"),
    (("alpha", "(0,1)"), DELETE, "alpha", "missing entry for '(0,1)'"),
    (("neg", "zzz"), "(0,0)", "neg", "unknown label 'zzz'"),
    (("neg", "(1,0)"), ["(1,0)"], "neg", "unknown label ['(1,0)'] under key '(1,0)'"),
    (("neg", "(1,0)"), DELETE, "neg", "missing entry for '(1,0)'"),
    (("unit_neg", "(0,1)"), "(0,0)", "unit_neg", "unknown label '(0,1)'"),
    (("unit_neg", "(1,1)"), "(0,1)", "unit_neg", "unknown label '(0,1)' under key '(1,1)'"),
    (("unit_neg", "(1,1)"), None, "unit_neg", "unknown label None under key '(1,1)'"),
    (("unit_neg", "(0,0)"), DELETE, "unit_neg", "missing entry for '(0,0)'"),
    (("scalar", "1", "zzz"), "(0,0)", "scalar", "row 1: unknown label 'zzz'"),
    (("scalar", "1", "(0,1)"), "zzz", "scalar", "row 1: unknown label 'zzz' under key '(0,1)'"),
    (("scalar", "0", "(1,0)"), 0, "scalar", "row 0: unknown label 0 under key '(1,0)'"),
    (("scalar", "1", "(0,1)"), None, "scalar", "row 1: unknown label None under key '(0,1)'"),
    (("scalar", "1", "(1,0)"), DELETE, "scalar", "row 1: missing entry for '(1,0)'"),
    (("scalar", "0"), DELETE, "scalar", "row 0: missing required field"),
    (("scalar", "1"), "(1,1)", "scalar", "row 1: expected dict"),
    (("unit_scalar", "1", "(0,1)"), "(0,0)", "unit_scalar", "row 1: unknown label '(0,1)'"),
    (("unit_scalar", "0", "(1,1)"), "(1,0)", "unit_scalar",
     "row 0: unknown label '(1,0)' under key '(1,1)'"),
    (("unit_scalar", "0", "(1,1)"), None, "unit_scalar",
     "row 0: unknown label None under key '(1,1)'"),
    (("unit_scalar", "1", "(0,0)"), DELETE, "unit_scalar", "row 1: missing entry for '(0,0)'"),
    (("unit_scalar", "1"), DELETE, "unit_scalar", "row 1: missing required field"),
    (("scalar", "7"), "junk", "scalar", "unknown row '7'"),
    (("scalar", "01"), {}, "scalar", "unknown row '01'"),
    (("unit_scalar", "x"), {}, "unit_scalar", "unknown row 'x'"),
])
def test_every_groupoid_label_map_is_read_the_same_way(path, value, field, message):
    doc = edited(vsg_document(pair_vector_space_groupoid(2, 1)), path, value)
    with pytest.raises(ParseError) as err:
        parse_groupoid_document(doc)
    assert (err.value.field, err.value.message) == (field, message)


# Z4 (labels "0" to "3", unit "0") onto Z2 (labels "0", "1")
@pytest.mark.parametrize("path, value, field, message", [
    (("f", "ghost"), "0", "f", "unknown label 'ghost'"),
    (("f", "1"), "9", "f", "unknown label '9' under key '1'"),
    (("f", "1"), 1, "f", "unknown label 1 under key '1'"),
    (("f", "2"), None, "f", "unknown label None under key '2'"),
    (("f", "3"), DELETE, "f", "missing entry for '3'"),
    (("f0", "1"), "1", "f0", "unknown label '1'"),
    (("f0", "ghost"), "0", "f0", "unknown label 'ghost'"),
    (("f0", "0"), "9", "f0", "unknown label '9' under key '0'"),
    (("f0", "0"), None, "f0", "unknown label None under key '0'"),
    (("f0", "0"), DELETE, "f0", "missing entry for '0'"),
    (("f0",), ["0"], "f0", "expected dict"),
])
def test_every_morphism_label_map_is_read_the_same_way(z4, z2, path, value, field, message):
    good = {
        "format_version": 1,
        "domain": plain_document(z4),
        "codomain": plain_document(z2),
        "f": {"0": "0", "1": "1", "2": "0", "3": "1"},
        "f0": {"0": "0"},
    }
    assert parse_morphism_document(good).unit_map == {0: 0}
    with pytest.raises(ParseError) as err:
        parse_morphism_document(edited(good, path, value))
    assert (err.value.field, err.value.message) == (field, message)


def test_constructor_refusals_are_document_parse_errors(gp2):
    cases = [
        (edited(plain_document(gp2), ("base_labels", "(2,2)"), "1"),
         "base labels must be pairwise distinct"),
        # (2,2) has no base label, so it goes by its element label
        (edited(plain_document(gp2), ("base_labels",), {"(1,1)": "(2,2)"}),
         "base labels must be pairwise distinct"),
        (edited(vsg_document(pair_vector_space_groupoid(2, 1)), ("p",), 1),
         "scalar field size must be prime, got 1"),
    ]
    for doc, message in cases:
        with pytest.raises(ParseError) as err:
            parse_groupoid_document(doc)
        assert (err.value.field, err.value.message) == ("document", message)


def z3_with_mul_row(row):
    """The Z3 document, labels "0", "1", "2", with mul[1] (the pair 0, 1)
    replaced by ``row``."""
    doc = plain_document(from_group(cyclic_group(3)))
    doc["mul"][1] = row
    return doc


@pytest.mark.parametrize("row, field, message", [
    ("0", "mul[1]", "expected a [x, y, product] label triple"),
    (["0", "1"], "mul[1]", "expected a [x, y, product] label triple"),
    ("012", "mul[1]", "expected a [x, y, product] label triple"),
    ({"0": "0", "1": "1", "2": "2"}, "mul[1]", "expected a [x, y, product] label triple"),
    (["0", 1, "1"], "mul[1]", "expected a [x, y, product] label triple"),
    (["0", "1", "zzz"], "mul[1]", "unknown label 'zzz'"),
    (["0", "0", "0"], "mul[1]", "duplicate triple for ('0', '0')"),
])
def test_malformed_label_triples_name_the_first_bad_entry(row, field, message):
    # a 3-character string or a 3-key object unpacks to three known labels
    with pytest.raises(ParseError) as err:
        parse_groupoid_document(z3_with_mul_row(row))
    assert (err.value.field, err.value.message) == (field, message)


def test_load_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_groupoid(bad)
    assert err.value.field == "json"
    with pytest.raises(OSError):
        load_groupoid(tmp_path / "absent.json")


def test_an_integer_too_long_for_int_is_a_json_parse_error(tmp_path, long_integer_texts):
    # int() refuses it with a bare ValueError, not a JSONDecodeError
    texts, message = long_integer_texts
    path = tmp_path / "doc.json"
    morphism = json.dumps({"format_version": 1, "domain": "@", "codomain": {"path": "s2.json"},
                           "f": {}})
    (tmp_path / "s2.json").write_text(json.dumps(quasiperm_document(symmetric_groupoid(2), 2)),
                                      encoding="utf-8")
    for field, text in texts.items():
        for load, doc in ((load_groupoid, text), (load_morphism, morphism.replace('"@"', text))):
            path.write_text(doc, encoding="utf-8")
            with pytest.raises(ParseError) as err:
                load(path)
            assert (err.value.field, err.value.message) == ("json", message), (field, load)


def test_product_off_composable_pair_is_a_validation_matter(gp2):
    doc = plain_document(gp2)
    doc["mul"] = doc["mul"] + [["(1,2)", "(1,2)", "(1,1)"]]
    parsed = parse_groupoid_document(doc)
    report = validate(parsed.groupoid)
    assert any(v.axiom == "closure" for v in report.violations)


def test_quasiperm_parse_errors(s2):
    base = quasiperm_document(s2, 2)
    no_degree = {k: v for k, v in base.items() if k != "degree"}
    with pytest.raises(ParseError) as err:
        parse_groupoid_document(no_degree)
    assert err.value.field == "degree"
    with pytest.raises(ParseError):
        parse_groupoid_document({**base, "degree": 0})
    with pytest.raises(ParseError) as err:
        parse_groupoid_document({**base, "payloads": base["payloads"][:-1]})
    assert err.value.field == "payloads"
    mangled = list(base["payloads"])
    mangled[0] = "1: 1 -> 7"
    with pytest.raises(ParseError) as err:
        parse_groupoid_document({**base, "payloads": mangled})
    assert err.value.field == "payloads[0]"


@pytest.mark.parametrize("text, message", [
    ("", "malformed quasipermutation text ''"),
    ("1 2 -> 2 1", "malformed quasipermutation text '1 2 -> 2 1'"),
    ("2: 1 2", "malformed quasipermutation text '2: 1 2'"),
    ("x: 1 -> 1", "malformed quasipermutation text 'x: 1 -> 1'"),
    ("1: a -> b", "malformed quasipermutation text '1: a -> b'"),
    ("2: 1 2 -> 2", "domain and image must have equal length"),
    ("3: 1 2 -> 2 1", "length prefix 3 does not match domain in '3: 1 2 -> 2 1'"),
    ("2: 2 1 -> 1 2", "domain must be strictly increasing"),
    ("2: 1 2 -> 1 1", "image entries must be distinct"),
    ("1: 1 -> 7", "entries must lie in 1..2"),
])
def test_payload_text_parse_errors(s2, text, message):
    doc = quasiperm_document(s2, 2)
    doc["payloads"][3] = text
    with pytest.raises(ParseError) as err:
        parse_groupoid_document(doc)
    assert (err.value.field, err.value.message) == ("payloads[3]", message)


@pytest.mark.parametrize("text, outcome", [
    ("²: 1 -> 1", ("payloads[0]", "malformed quasipermutation text '²: 1 -> 1'")),
    ("1: 1 -> 1 2", ("payloads[0]", "domain and image must have equal length")),
    ("2: 2 1 -> 1 2", ("payloads[0]", "domain must be strictly increasing")),
    ("2: 1 2 -> 1 1", ("payloads[0]", "image entries must be distinct")),
    ("1: 9 -> 1", ("payloads[0]", "entries must lie in 1..2")),
    ("0: -> ", ("payloads[0]", "domain must be nonempty")),
    ("1: 1 -> 1 -> 1", ("payloads[0]", "malformed quasipermutation text '1: 1 -> 1 -> 1'")),
    ("+1: 1 -> 1", ((1,), (1,), "1: 1 -> 1")),
    ("1:1->1", ((1,), (1,), "1: 1 -> 1")),
    (" 2: 1 2 -> 2 1 ", ((1, 2), (2, 1), "2: 1 2 -> 2 1")),
])
def test_a_payload_text_reads_as_from_text_reads_it(text, outcome):
    # the parts of each text are parsed once per document; a text read that
    # way gives from_text's map, and its text form is the canonical one
    doc = quasiperm_document(symmetric_groupoid(1), 1)
    doc["degree"] = 2
    doc["payloads"] = [text]
    try:
        f = parse_groupoid_document(doc).groupoid.payloads[0]
    except ParseError as err:
        assert (err.field, err.message) == outcome
    else:
        assert (f.domain, f.image, f.text_form()) == outcome
        assert f == Quasipermutation.from_text(2, text)


def test_built_payloads_read_back_as_from_text_reads_them(capsys):
    assert main(["build", "symmetric", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    payloads = parse_groupoid_document(doc).groupoid.payloads
    assert len(payloads) == 208
    assert list(payloads) == [Quasipermutation.from_text(4, t) for t in doc["payloads"]]
    assert [f.text_form() for f in payloads] == doc["payloads"]


def test_payload_text_around_the_numbers_is_free(s2):
    doc = quasiperm_document(s2, 2)
    at = doc["payloads"].index("2: 1 2 -> 2 1")
    doc["payloads"][at] = " 2:1 2->2 1 "
    parsed = parse_groupoid_document(doc).groupoid
    assert parsed.payloads == s2.payloads
    assert check_quasiperm_payloads(parsed).passed


def test_payload_cross_check_flags_mismatches(s2, gp2):
    assert check_quasiperm_payloads(s2).passed

    report = check_quasiperm_payloads(gp2)
    assert any("no payloads" in v.detail for v in report.violations)

    swapped = list(s2.payloads)
    swapped[3], swapped[4] = swapped[4], swapped[3]
    tampered = FiniteGroupoid(
        elements=s2.elements,
        units=s2.units,
        alpha=s2.alpha,
        beta=s2.beta,
        inv=s2.inv,
        mul=s2.mul,
        payloads=swapped,
    )
    report = check_quasiperm_payloads(tampered)
    assert not report.passed
    assert all(v.axiom == "payload" for v in report.violations)

    doubled = list(s2.payloads)
    doubled[3] = doubled[4]
    report = check_quasiperm_payloads(
        FiniteGroupoid(
            elements=s2.elements,
            units=s2.units,
            alpha=s2.alpha,
            beta=s2.beta,
            inv=s2.inv,
            mul=s2.mul,
            payloads=doubled,
        )
    )
    assert any(v.witness == (3, 4) for v in report.violations)


def payloads_by_pair_scan(g):
    """Reference for check_quasiperm_payloads: the products read over every
    ordered pair of elements and every other pair of the product table, in
    ascending order."""
    v = []
    by_value = {}
    for i, f in enumerate(g.payloads):
        key = (f.domain, f.image)
        if key in by_value:
            v.append(Violation("payload", (by_value[key], i), "duplicate quasipermutation"))
        by_value[key] = i
    for x, f in enumerate(g.payloads):
        if g.is_unit(x) != f.is_identity():
            v.append(Violation("payload", (x,), "unit flag disagrees with being an identity map"))
        fa = g.payloads[g.alpha[x]]
        if not (fa.is_identity() and fa.domain == f.domain):
            v.append(Violation("payload", (x,), "source is not the identity on the domain"))
        fb = g.payloads[g.beta[x]]
        if not (fb.is_identity() and fb.domain == tuple(sorted(f.image))):
            v.append(Violation("payload", (x,), "target is not the identity on the range"))
        if g.payloads[g.inv[x]] != f.inverse():
            v.append(Violation("payload", (x,), "inverse map mismatch"))
    n = len(g)
    for x, y in sorted({(x, y) for x in range(n) for y in range(n)} | g.mul.keys()):
        composed = None
        if 0 <= x < n and 0 <= y < n:
            composed = qp_compose(g.payloads[x], g.payloads[y])
        z = g.mul.get((x, y))
        if composed is None:
            if z is not None:
                v.append(Violation("payload", (x, y), "product defined but maps do not compose"))
        elif z is None:
            v.append(Violation("payload", (x, y), "maps compose but product is undefined"))
        elif g.payloads[z] != composed:
            v.append(Violation("payload", (x, y), "product disagrees with map composition"))
    return tuple(v)


def payload_mutant(g, rng):
    """g with one to three seeded edits of its payloads, products or inverses."""
    n = len(g)
    payloads, mul, inv = list(g.payloads), dict(g.mul), list(g.inv)
    for _ in range(rng.randint(1, 3)):
        edit, x, y = rng.randrange(6), rng.randrange(n), rng.randrange(n)
        if edit == 0:
            payloads[x], payloads[y] = payloads[y], payloads[x]
        elif edit == 1:
            payloads[x] = payloads[y]
        elif edit == 2:
            mul[rng.choice(sorted(mul))] = x
        elif edit == 3:
            del mul[rng.choice(sorted(mul))]
        elif edit == 4:
            mul[(x, y)] = rng.randrange(n)
        else:
            inv[x] = y
    return FiniteGroupoid(
        g.elements, g.units, g.alpha, g.beta, inv, mul, payloads=payloads)


def extra_or_missing_product(g, rng):
    """g with one product deleted, or one added on a pair that does not
    compose: its only defect."""
    mul = dict(g.mul)
    if rng.random() < 0.5:
        del mul[rng.choice(sorted(mul))]
    else:
        n = len(g)
        pair = rng.choice([(x, y) for x in range(n) for y in range(n) if (x, y) not in mul])
        mul[pair] = rng.randrange(n)
    return FiniteGroupoid(
        g.elements, g.units, g.alpha, g.beta, g.inv, mul, payloads=g.payloads)


def test_payload_cross_check_matches_pair_scan():
    rng = random.Random(4096)
    details = set()
    corpus = [(symmetric_groupoid(2), 300), (symmetric_groupoid(3), 150),
              (alternating_groupoid(3), 200), (alternating_groupoid(4), 30)]
    for g, mutants in corpus:
        assert check_quasiperm_payloads(g).violations == payloads_by_pair_scan(g) == ()
        for _ in range(mutants):
            mutant = payload_mutant(g, rng)
            expected = payloads_by_pair_scan(mutant)
            assert check_quasiperm_payloads(mutant).violations == expected
            details.update(v.detail for v in expected if len(v.witness) == 2)
        for _ in range(mutants // 5):
            mutant = extra_or_missing_product(g, rng)
            expected = payloads_by_pair_scan(mutant)
            assert len(expected) == 1
            assert check_quasiperm_payloads(mutant).violations == expected
    assert details == {
        "duplicate quasipermutation",
        "product defined but maps do not compose",
        "maps compose but product is undefined",
        "product disagrees with map composition",
    }


def count_preserving_product_mutant(g, rng):
    """g with one edit of its products that keeps their number: a product
    retargeted to another element with the same anchors, the values of two
    products swapped, or a product moved to a pair that does not compose."""
    mul = dict(g.mul)
    keys = sorted(mul)
    edit = rng.randrange(3)
    if edit == 0:
        hom = {}
        for w in range(len(g)):
            hom.setdefault(g.anchor(w), []).append(w)
        key = rng.choice([k for k in keys if len(hom[g.anchor(mul[k])]) > 1])
        mul[key] = rng.choice([w for w in hom[g.anchor(mul[key])] if w != mul[key]])
    elif edit == 1:
        a, b = rng.sample(keys, 2)
        mul[a], mul[b] = mul[b], mul[a]
    else:
        n = len(g)
        pair = rng.choice([(x, y) for x in range(n) for y in range(n) if (x, y) not in mul])
        mul[pair] = mul.pop(rng.choice(keys))
    return FiniteGroupoid(
        g.elements, g.units, g.alpha, g.beta, g.inv, mul, payloads=g.payloads)


def test_payload_cross_check_matches_pair_scan_on_count_preserving_mutants():
    rng = random.Random(8128)
    for g, mutants in ((symmetric_groupoid(3), 150), (alternating_groupoid(4), 20)):
        for _ in range(mutants):
            mutant = count_preserving_product_mutant(g, rng)
            assert len(mutant.mul) == len(g.mul)
            expected = payloads_by_pair_scan(mutant)
            assert expected
            assert check_quasiperm_payloads(mutant).violations == expected


def test_payload_cross_check_matches_pair_scan_on_swaps_within_an_anchor():
    # two maps with the same domain and range trade payloads, as in the
    # benchmark's A(5) mutant: the tables stay a groupoid, and every product
    # with either map as a factor or as the product may disagree
    rng = random.Random(1985)
    for g, swaps in ((symmetric_groupoid(3), 40), (alternating_groupoid(4), 15)):
        fibre = {}
        for x in range(len(g)):
            if not g.is_unit(x):
                fibre.setdefault(g.anchor(x), []).append(x)
        pairs = [pair for members in fibre.values() if len(members) > 1
                 for pair in zip(members, members[1:])]
        for _ in range(swaps):
            x, x2 = rng.choice(pairs)
            payloads = list(g.payloads)
            payloads[x], payloads[x2] = payloads[x2], payloads[x]
            mutant = FiniteGroupoid(g.elements, g.units, g.alpha, g.beta, g.inv, g.mul,
                                    payloads=payloads)
            expected = payloads_by_pair_scan(mutant)
            assert any(v.detail == "product disagrees with map composition" for v in expected)
            assert check_quasiperm_payloads(mutant).violations == expected


@pytest.mark.parametrize("shift", [-1, 1])
def test_payload_cross_check_sees_a_product_moved_out_of_range(shift):
    # the product of (x, y) moved to (x - n, y) or (x + n, y): as many
    # products as composable pairs, and x - n indexes the same map as x
    g = symmetric_groupoid(3)
    n = len(g)
    x, y = max(g.mul)
    mul = dict(g.mul)
    mul[(x + shift * n, y)] = mul.pop((x, y))
    moved = FiniteGroupoid(
        g.elements, g.units, g.alpha, g.beta, g.inv, mul, payloads=g.payloads)
    report = check_quasiperm_payloads(moved).violations
    assert report == payloads_by_pair_scan(moved)
    assert sorted((v.witness, v.detail) for v in report) == sorted([
        ((x, y), "maps compose but product is undefined"),
        ((x + shift * n, y), "product defined but maps do not compose"),
    ])


@pytest.mark.parametrize("value", [6, 99])
def test_payload_cross_check_reports_a_product_value_out_of_range(value):
    # a product that names no element is no composite, and raises nothing
    g = symmetric_groupoid(2)
    mul = dict(g.mul)
    key = max(mul)
    mul[key] = value
    broken = FiniteGroupoid(
        g.elements, g.units, g.alpha, g.beta, g.inv, mul, payloads=g.payloads)
    assert check_quasiperm_payloads(broken).violations == (
        Violation("payload", key, "product disagrees with map composition"),)


def test_products_of_valid_groupoids_pass_the_one_pass_check():
    # a valid table yields no payload violation, including the maps of one
    # point
    for g in (symmetric_groupoid(1), symmetric_groupoid(3), alternating_groupoid(4),
              left_translation_groupoid(from_group(cyclic_group(10)))):
        assert check_quasiperm_payloads(g).passed


def test_payload_cross_check_rejects_mixed_degrees_up_front(s2):
    # the degree-3 map composes with no other, yet the degrees are refused
    payloads = list(s2.payloads)
    payloads[3] = Quasipermutation(3, (3,), (3,))
    mixed = FiniteGroupoid(
        s2.elements, s2.units, s2.alpha, s2.beta, s2.inv, s2.mul, payloads=payloads)
    with pytest.raises(ValueError, match="degree mismatch: 2 vs 3"):
        check_quasiperm_payloads(mixed)


@pytest.mark.parametrize("payload", ["2: 1 2 -> 2 1", None])
def test_payload_cross_check_refuses_a_payload_that_is_no_map(s2, payload):
    payloads = list(s2.payloads)
    payloads[3] = payloads[5] = payload
    broken = FiniteGroupoid(
        s2.elements, s2.units, s2.alpha, s2.beta, s2.inv, s2.mul, payloads=payloads)
    with pytest.raises(ValueError, match=f"payload 3 is not a Quasipermutation: {payload!r}"):
        check_quasiperm_payloads(broken)


def test_payload_cross_check_matches_pair_scan_with_a_map_from_outside_the_list():
    # an odd map in the even groupoid: its composites with the even maps are
    # odd, so the maps they should name are not in the list
    rng = random.Random(2029)
    for degree in (3, 4):
        g = alternating_groupoid(degree)
        odd = [f for f in symmetric_groupoid(degree).payloads if signature(f) == -1]
        for _ in range(50):
            payloads = list(g.payloads)
            payloads[rng.randrange(len(g))] = rng.choice(odd)
            mutant = FiniteGroupoid(g.elements, g.units, g.alpha, g.beta, g.inv, g.mul,
                                    payloads=payloads)
            expected = payloads_by_pair_scan(mutant)
            assert expected
            assert check_quasiperm_payloads(mutant).violations == expected


def test_payload_cross_check_on_thousands_of_subsets_is_linear(tmp_path, capsys):
    # the identity maps on the 2047 nonempty subsets of 11 points: the
    # check's memory follows the maps, not the square of the subsets
    degree = 11
    maps = [Quasipermutation(degree, s, s) for k in range(1, degree + 1)
            for s in itertools.combinations(range(1, degree + 1), k)]
    n = len(maps)
    g = FiniteGroupoid([f.text_form() for f in maps], range(n), range(n), range(n), range(n),
                       {(x, x): x for x in range(n)}, payloads=maps)
    tracemalloc.start()
    try:
        assert check_quasiperm_payloads(g).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    path = tmp_path / "discrete.json"
    path.write_text(canonical_dumps(quasiperm_document(g, degree)), encoding="utf-8")
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == f"ok: {path} is a quasiperm groupoid of type ({n};{n})\n"


@pytest.mark.parametrize("edit", ["product", "inv"])
def test_payload_cross_check_refuses_a_negative_index(s2, edit):
    # -1 read as a list index is the last map, which is the right answer
    # here, so only a range check tells the index from that map's
    last = len(s2) - 1
    mul, inv = dict(s2.mul), list(s2.inv)
    if edit == "product":
        key = min(k for k, z in mul.items() if z == last)
        mul[key] = -1
        expected = Violation("payload", key, "product disagrees with map composition")
    else:
        x = inv.index(last)
        inv[x] = -1
        expected = Violation("payload", (x,), f"inv({x}) = -1 out of range")
    broken = FiniteGroupoid(
        s2.elements, s2.units, s2.alpha, s2.beta, inv, mul, payloads=s2.payloads)
    assert check_quasiperm_payloads(broken).violations == (expected,)
    assert {v.axiom for v in validate(broken).violations} == {"structure"}


@pytest.mark.parametrize("table, value", [
    ("units", -1), ("units", 6), ("alpha", -2), ("alpha", 6), ("beta", 9), ("inv", -6)])
def test_payload_cross_check_reports_anchor_unit_and_inverse_indices_out_of_range(
        s2, table, value):
    # reported alone, before any coordinate is read
    tables = {"units": list(s2.units), "alpha": list(s2.alpha), "beta": list(s2.beta),
              "inv": list(s2.inv)}
    x = 3
    if table == "units":
        tables["units"].append(value)
        expected = Violation("payload", (value,), "unit index out of range")
    else:
        tables[table][x] = value
        expected = Violation("payload", (x,), f"{table}({x}) = {value} out of range")
    broken = FiniteGroupoid(s2.elements, tables["units"], tables["alpha"], tables["beta"],
                            tables["inv"], s2.mul, payloads=s2.payloads)
    assert check_quasiperm_payloads(broken).violations == (expected,)
    assert not validate(broken).passed


def index_in_range(g):
    """Whether every unit, anchor, inverse and product index of g names an
    element."""
    n = len(g)
    indices = [*g.units, *g.alpha, *g.beta, *g.inv, *g.mul.values()]
    indices += [i for pair in g.mul for i in pair]
    return all(0 <= i < n for i in indices)


def esn_mutant(g, rng):
    """g with one to three seeded edits: a source, target, unit or inverse
    retargeted, a product retargeted, deleted or added, two payloads
    swapped, or one index of any table moved out of range."""
    n = len(g)
    units, alpha, beta, inv = list(g.units), list(g.alpha), list(g.beta), list(g.inv)
    mul, payloads = dict(g.mul), list(g.payloads)
    for _ in range(rng.randint(1, 3)):
        edit, x, y = rng.randrange(9), rng.randrange(n), rng.randrange(n)
        if edit == 0:
            alpha[x] = y
        elif edit == 1:
            beta[x] = y
        elif edit == 2:
            inv[x] = y
        elif edit == 3 and y not in units:
            units[rng.randrange(len(units))] = y
        elif edit == 4:
            mul[rng.choice(sorted(mul))] = x
        elif edit == 5 and mul:
            del mul[rng.choice(sorted(mul))]
        elif edit == 6:
            mul[(x, y)] = rng.randrange(n)
        elif edit == 7:
            payloads[x], payloads[y] = payloads[y], payloads[x]
        elif edit == 8:
            bad = rng.choice([-n, -1, n, n + 3])
            where = rng.randrange(5)
            if where == 0 and bad not in units:
                units.append(bad)
            elif where in (1, 2, 3):
                (alpha, beta, inv)[where - 1][x] = bad
            elif mul:
                key = rng.choice(sorted(mul))
                if where == 4 and rng.random() < 0.5:
                    mul[key] = bad
                else:
                    mul[(key[0], bad)] = mul.pop(key)
    return FiniteGroupoid(g.elements, units, alpha, beta, inv, mul, payloads=payloads)


def verify_validate_first(path):
    """The exit code and stdout of ``groupoids verify`` on a quasiperm
    document when ``validate`` runs first and the payload check only after
    it passes."""
    parsed = load_groupoid(path)
    g = parsed.groupoid
    report = validate(g)
    if report.passed:
        report = check_quasiperm_payloads(g)
    n, m = g.groupoid_type()
    header = f"{path} is a quasiperm groupoid of type ({n};{m})"
    if report.passed:
        return 0, f"ok: {header}\n"
    return 1, "".join([f"FAILED: {header}\n", *(f"  {v}\n" for v in report.violations)])


def test_a_passing_payload_check_implies_a_passing_validate(tmp_path, capsys):
    # the payloads embed a table that passes the payload check in the
    # groupoid of the symmetric inverse monoid, so validate has nothing to
    # add; verify, which then skips validate, prints what a validate-first
    # verify prints on every mutant that can be written as a document
    rng = random.Random(19)
    outcomes = Counter()
    for degree, g, mutants in ((2, symmetric_groupoid(2), 500),
                               (3, symmetric_groupoid(3), 300),
                               (3, alternating_groupoid(3), 300),
                               (4, alternating_groupoid(4), 60)):
        for i in range(mutants):
            mutant = esn_mutant(g, rng)
            payloads_pass = check_quasiperm_payloads(mutant).passed
            validate_passes = validate(mutant).passed
            assert validate_passes or not payloads_pass
            in_range = index_in_range(mutant)
            outcomes[(payloads_pass, validate_passes, in_range)] += 1
            if in_range and i % 3 == 0:
                path = tmp_path / "mutant.json"
                path.write_text(canonical_dumps(quasiperm_document(mutant, degree)),
                                encoding="utf-8")
                code = main(["verify", str(path)])
                assert (code, capsys.readouterr().out) == verify_validate_first(path)
    assert outcomes[(True, True, True)] > 0
    assert outcomes[(False, True, True)] > 0
    assert sum(k for (_, _, in_range), k in outcomes.items() if not in_range) > 100


def test_payload_cross_check_on_long_maps():
    # the left translations of C10 are maps of length 10: the check's work
    # follows the 100 products, not the 10! permutations of that length
    g = left_translation_groupoid(from_group(cyclic_group(10)))
    assert check_quasiperm_payloads(g).passed
    mul = dict(g.mul)
    mul[(1, 1)] = 3
    wrong = FiniteGroupoid(
        g.elements, g.units, g.alpha, g.beta, g.inv, mul, payloads=g.payloads)
    assert check_quasiperm_payloads(wrong).violations == (
        Violation("payload", (1, 1), "product disagrees with map composition"),)


def test_morphism_document_with_path_and_inline(tmp_path, z4, z2):
    z4_path = tmp_path / "z4.json"
    z4_path.write_text(canonical_dumps(plain_document(z4)), encoding="utf-8")
    doc = {
        "format_version": 1,
        "domain": {"path": "z4.json"},
        "codomain": json.loads(canonical_dumps(plain_document(z2))),
        "f": {"0": "0", "1": "1", "2": "0", "3": "1"},
    }
    morphism_path = tmp_path / "quotient.json"
    morphism_path.write_text(json.dumps(doc), encoding="utf-8")
    m = load_morphism(morphism_path)
    assert validate_morphism(m).passed
    assert is_strong(m) == (True, None)
    assert kernel(m).members == (0, 2)


def test_morphism_document_explicit_unit_map(z4, z2):
    doc = {
        "format_version": 1,
        "domain": plain_document(z4),
        "codomain": plain_document(z2),
        "f": {"0": "0", "1": "1", "2": "0", "3": "1"},
        "f0": {"0": "0"},
    }
    m = parse_morphism_document(doc)
    assert m.unit_map == {0: 0}


def test_morphism_document_errors(tmp_path, z4, z2):
    good = {
        "format_version": 1,
        "domain": plain_document(z4),
        "codomain": plain_document(z2),
        "f": {"0": "0", "1": "1", "2": "0", "3": "1"},
    }
    with pytest.raises(ParseError) as err:
        parse_morphism_document({**good, "f": {"0": "0"}})
    assert err.value.field == "f"
    with pytest.raises(ParseError):
        parse_morphism_document({**good, "f": {**good["f"], "1": "9"}})
    with pytest.raises(ParseError):
        parse_morphism_document({**good, "f": {**good["f"], "ghost": "0"}})
    with pytest.raises(ParseError) as err:
        parse_morphism_document({**good, "f0": {"1": "0"}})
    assert err.value.field == "f0"
    with pytest.raises(ParseError) as err:
        parse_morphism_document(
            {**good, "domain": {"path": str(tmp_path / "absent.json")}}
        )
    assert err.value.field == "domain"
    with pytest.raises(ParseError):
        parse_morphism_document({**good, "format_version": 9})


def test_canonicalize_reorders_shuffled_lists(gp2):
    doc = plain_document(gp2)
    shuffled = dict(doc)
    shuffled["units"] = list(reversed(doc["units"]))
    shuffled["mul"] = list(reversed(doc["mul"]))
    fixed = canonicalize_document(shuffled)
    assert fixed["units"] == doc["units"]
    assert fixed["mul"] == doc["mul"]
    assert canonical_dumps(shuffled) == canonical_dumps(doc)


@pytest.mark.parametrize("doc", [
    plain_document(disjoint_union(pair_groupoid(2), from_group(cyclic_group(3)))),
    quasiperm_document(symmetric_groupoid(2), 2),
    group_groupoid_document(pair_group_groupoid(cyclic_group(3))),
    vsg_document(pair_vector_space_groupoid(3, 1)),
], ids=lambda doc: doc["kind"])
def test_tables_out_of_canonical_order_are_written_in_it(doc):
    """Elements shuffled, units against element order and triples shuffled:
    the parsed document, its dict form and the shuffled dict itself all
    write the stdlib's bytes, with unit_add in the order of the sorted
    units rather than that of the units list."""
    rng = random.Random(2323)
    order = list(range(len(doc["elements"])))
    rng.shuffle(order)
    shuffled = json.loads(json.dumps(doc))
    shuffled["elements"] = [doc["elements"][i] for i in order]
    if "payloads" in doc:
        shuffled["payloads"] = [doc["payloads"][i] for i in order]
    position = {lbl: i for i, lbl in enumerate(shuffled["elements"])}
    shuffled["units"] = sorted(doc["units"], key=position.get, reverse=True)
    for field in ("mul", "add", "unit_add"):
        if field in shuffled:
            rng.shuffle(shuffled[field])
    parsed = parse_groupoid_document(shuffled)
    expected = json.dumps(canonicalize_document(document_for(parsed)),
                          sort_keys=True, indent=2) + "\n"
    assert canonical_dumps(parsed) == expected
    assert canonical_dumps(document_for(parsed)) == expected
    assert canonical_dumps(shuffled) == expected
    assert expected != canonical_dumps(doc)


@pytest.mark.parametrize("doc, field, message", [
    ({"units": ["a"], "mul": []}, "elements", "missing required field"),
    ({"elements": ["a"], "mul": []}, "units", "missing required field"),
    ({"elements": ["a", "b"], "units": ["a"]}, "mul", "missing required field"),
    ({"elements": ["a", "b"], "units": ["a", "zz"], "mul": []}, "units[1]", "unknown label 'zz'"),
    ({"elements": ["a"], "units": ["a"], "mul": [["a", "a", "a"], ["a", "zz", "a"]]},
     "mul[1]", "unknown label 'zz'"),
    ({"elements": ["a"], "units": ["a"], "mul": [["a", "a", "zz"]]},
     "mul[0]", "unknown label 'zz'"),
    ({"elements": ["a"], "units": ["a"], "mul": [], "add": [["zz", "a", "a"]]},
     "add[0]", "unknown label 'zz'"),
    ({"elements": ["a"], "units": ["a"], "mul": [["a", "a", ["a"]]]},
     "mul[0]", "expected a [x, y, product] label triple"),
    ({"elements": ["a"], "units": ["a"], "mul": [5]},
     "mul[0]", "expected a [x, y, product] label triple"),
    ({"elements": ["a"], "units": ["a"], "mul": [], "unit_add": [["a", "zz", "a"]]},
     "unit_add[0]", "unknown label 'zz'"),
    ({"elements": ["a", "b"], "units": ["a"], "mul": [], "unit_add": [["a", "a", "b"]]},
     "unit_add[0]", "unknown label 'b'"),
    ({"elements": ["a"], "units": ["a"], "mul": [], "add": 5}, "add", "expected list"),
    ({"elements": ["a"], "units": ["a"], "mul": [], "unit_add": 5}, "unit_add", "expected list"),
    ({"elements": 5, "units": ["a"], "mul": []}, "elements", "expected list"),
    ({"elements": ["a"], "units": 5, "mul": []}, "units", "expected list"),
    ({"elements": ["a"], "units": ["a"], "mul": 5}, "mul", "expected list"),
    ({"elements": [["a"]], "units": ["a"], "mul": []}, "elements[0]", "expected a string"),
    ({"elements": ["a"], "units": [["a"]], "mul": []}, "units[0]", "expected a string"),
    ({"elements": ["a"], "units": ["a"], "mul": [["a", "a"]]},
     "mul[0]", "expected a [x, y, product] label triple"),
])
def test_canonical_forms_of_a_document_dict_refuse_a_missing_field_or_unknown_label(
        doc, field, message):
    for write in (canonicalize_document, canonical_dumps):
        with pytest.raises(ParseError) as err:
            write(doc)
        assert (err.value.field, err.value.message) == (field, message)


def canonical_path_mutant(doc, rng):
    """A copy of a written document with its elements, units and triple
    lists shuffled, and then with one seeded edit of its labels or tables
    (or none): a repeated unit, no unit at all, a repeated element label, a
    repeated pair, an unknown label, a cell that is no string, a short
    triple, or a labels field that is no list."""
    out = json.loads(json.dumps(doc))
    order = list(range(len(doc["elements"])))
    rng.shuffle(order)
    out["elements"] = [doc["elements"][i] for i in order]
    if "payloads" in doc:
        out["payloads"] = [doc["payloads"][i] for i in order]
    rng.shuffle(out["units"])
    tables = [field for field in ("mul", "add", "unit_add") if field in out]
    for field in tables:
        rng.shuffle(out[field])
    edit = rng.randrange(10)
    table = out[rng.choice(tables)]
    if edit == 1:
        out["units"].append(rng.choice(out["units"]))
    elif edit == 2:
        out["units"] = []
    elif edit == 3:
        i, j = rng.sample(range(len(out["elements"])), 2)
        out["elements"][j] = out["elements"][i]
    elif edit == 4:
        x, y, _ = rng.choice(table)
        table.insert(rng.randrange(len(table) + 1), [x, y, rng.choice(rng.choice(table))])
    elif edit == 5:
        rng.choice(table)[rng.randrange(3)] = "no such label"
    elif edit == 6:
        rng.choice(table)[rng.randrange(3)] = rng.choice([1, None, ["a"]])
    elif edit == 7:
        rng.choice(table).pop()
    elif edit == 8:
        out[rng.choice(["elements", "units", "mul"])] = rng.choice([5, "a", {"a": "a"}])
    return out


def test_canonical_forms_of_a_dict_are_those_of_the_parsed_document():
    """Where the parser reads a document, canonical_dumps of the dict writes
    the bytes of its parsed document; where the parser refuses its labels or
    tables, canonical_dumps and canonicalize_document refuse it with the
    parser's error.  Only the labels and tables are edited, so the parser
    meets no other fault first."""
    docs = [plain_document(disjoint_union(pair_groupoid(2), from_group(cyclic_group(3)))),
            quasiperm_document(symmetric_groupoid(2), 2),
            group_groupoid_document(pair_group_groupoid(cyclic_group(3))),
            vsg_document(pair_vector_space_groupoid(3, 1))]
    rng = random.Random(3636)
    outcomes = Counter()
    for _ in range(400):
        doc = canonical_path_mutant(rng.choice(docs), rng)
        try:
            parsed = parse_groupoid_document(doc)
        except ParseError as exc:
            for write in (canonicalize_document, canonical_dumps):
                with pytest.raises(ParseError) as err:
                    write(doc)
                assert (err.value.field, err.value.message) == (exc.field, exc.message), doc
            outcomes[exc.field.split("[")[0]] += 1
        else:
            assert canonical_dumps(doc) == canonical_dumps(parsed)
            assert canonicalize_document(doc) == document_for(parsed)
            outcomes["accepted"] += 1
    assert set(outcomes) >= {"accepted", "elements", "units", "mul", "add", "unit_add"}, outcomes


def test_a_repeated_pair_unit_or_label_is_refused_as_the_parser_refuses_it():
    doc = {"elements": ["a", "b"], "units": ["a"], "mul": [["a", "a", "a"], ["a", "a", "b"]]}
    cases = [(doc, "mul[1]", "duplicate triple for ('a', 'a')"),
             ({**doc, "units": ["a", "a"]}, "units", "unit labels must be unique"),
             ({**doc, "elements": ["a", "a"]}, "elements", "labels must be unique")]
    for case, field, message in cases:
        for write in (canonicalize_document, canonical_dumps):
            with pytest.raises(ParseError) as err:
                write(case)
            assert (err.value.field, err.value.message) == (field, message)


# ----- reading document text --------------------------------------------------

# the fields whose strings are element or unit labels, and those that map
# scalar rows to label maps
LABEL_FIELDS = ("elements", "units", "alpha", "beta", "inv", "mul", "add", "zero", "neg",
                "unit_add", "unit_zero", "unit_neg")
SCALAR_FIELDS = ("scalar", "unit_scalar")
# pieces that a cut of a table must not be fooled by, raw and escaped alike
AWKWARD = ['"', "\\", "],", "[", "]", ",", " ", "é", "☃", "\\u00e9", '"],"', '\\"],', "\\\\],"]


def relabel(doc, new):
    """``doc`` with each label renamed by ``new``; payloads and row keys of
    the scalar fields are not labels and stay."""
    def r(o):
        if isinstance(o, str):
            return new.get(o, o)
        if isinstance(o, list):
            return [r(v) for v in o]
        return {r(k): r(v) for k, v in o.items()}
    out = {}
    for k, v in doc.items():
        if k in LABEL_FIELDS:
            v = r(v)
        elif k in SCALAR_FIELDS:
            v = {row: r(m) for row, m in v.items()}
        elif k == "base_labels":
            v = {new.get(u, u): lbl for u, lbl in v.items()}
        out[k] = v
    return out


def awkward_labels(doc, rng):
    """A rename of ``doc``'s labels, each given a seeded awkward piece."""
    new = {lbl: lbl + rng.choice(AWKWARD) for lbl in doc["elements"]}
    assert len(set(new.values())) == len(new)
    return new


def documents_to_read():
    """One document of each kind, and pair(3) again with one-letter labels,
    so that a 3-character string unpacks into three of them."""
    pair3 = plain_document(pair_groupoid(3))
    return {
        "pair3": pair3,
        "letters": relabel(pair3, {lbl: "abcdefghi"[i] for i, lbl in enumerate(pair3["elements"])}),
        "golden": plain_document(disjoint_union(
            pair_groupoid(2), symmetric_groupoid(2), from_group(cyclic_group(4)))),
        "s2": quasiperm_document(symmetric_groupoid(2), 2),
        "gg": group_groupoid_document(pair_group_groupoid(cyclic_group(2))),
        "vsg": vsg_document(pair_vector_space_groupoid(2, 1)),
    }


def key_orders(doc):
    """``doc`` with its keys as built, sorted, reversed and with every table
    before the labels it uses."""
    tables_first = sorted(doc, key=lambda k: k not in ("mul", "add", "unit_add"))
    for keys in (list(doc), sorted(doc), sorted(doc, reverse=True), tables_first):
        yield {k: doc[k] for k in keys}


def texts_of(doc):
    """``doc`` written compact, at indent 0, with tabs and with CRLF line
    ends, each with and without escapes for non-ASCII labels."""
    for ascii_only in (True, False):
        yield json.dumps(doc, separators=(",", ":"), ensure_ascii=ascii_only)
        yield json.dumps(doc, indent=0, ensure_ascii=ascii_only)
        yield json.dumps(doc, indent="\t", ensure_ascii=ascii_only)
        yield json.dumps(doc, indent=2, ensure_ascii=ascii_only).replace("\n", "\r\n")


def decode_whole(path):
    """The reference reader: the file decoded whole by json.loads, its
    errors reported as load_groupoid reports them."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError("json", str(exc)) from exc
    except RecursionError as exc:
        raise ParseError("json", "nested too deeply") from exc


def groupoid_outcome(load, path):
    """The parsed parts a reader gives for a file, or its refusal."""
    try:
        parsed = load(path)
    except ParseError as exc:
        return ("refused", exc.field, exc.message)
    g = parsed.groupoid
    return ("parsed", parsed.kind, g, g.elements, g.payloads, g.base_labels,
            canonical_dumps(parsed))


def morphism_outcome(load, path):
    try:
        m = load(path)
    except ParseError as exc:
        return ("refused", exc.field, exc.message)
    return ("parsed", m.domain, m.domain.elements, m.codomain, m.codomain.elements,
            m.elem_map, m.unit_map)


CHUNKS = (1, 7, groupoids_io._CHUNK)


def assert_reads_as_decoded_whole(path, monkeypatch):
    """load_groupoid gives what the whole-text decoder gives, however small
    the slices and the chunks of the file are."""
    want = groupoid_outcome(lambda p: parse_groupoid_document(decode_whole(p)), path)
    for size, chunk in itertools.product((1, 40, 1 << 16), CHUNKS):
        monkeypatch.setattr(groupoids_io, "_SLICE", size)
        monkeypatch.setattr(groupoids_io, "_CHUNK", chunk)
        assert groupoid_outcome(load_groupoid, path) == want, (path.read_bytes()[:200], size, chunk)
    return want


def never_decoded_whole(text):
    raise AssertionError("a valid document was decoded whole")


def test_documents_in_every_layout_read_as_decoded_whole(tmp_path, monkeypatch):
    # every one of these documents is read slice by slice
    monkeypatch.setattr(groupoids_io, "_decode", never_decoded_whole)
    rng = random.Random(3301)
    path = tmp_path / "doc.json"
    kinds = Counter()
    for name, base in documents_to_read().items():
        for doc in (base, relabel(base, awkward_labels(base, rng))):
            for ordered in key_orders(doc):
                for text in texts_of(ordered):
                    path.write_text(text, encoding="utf-8", newline="")
                    want = assert_reads_as_decoded_whole(path, monkeypatch)
                    assert want[0] == "parsed", (name, want)
                    kinds[want[1]] += 1
    assert set(kinds) == set(groupoids_io.KINDS)


def mul_texts(triples, rng):
    """Broken and awkward text for a product table: entries that are not
    three labels, a repeated pair, an unknown label, bad separators."""
    t = [list(e) for e in triples]
    k = rng.randrange(len(t))
    x, y, z = t[k]
    entries = [
        [x, y], [x, y, z, z], [[x], y, z], [x, y, 5], [x, y, None], x + y + z, {x: y},
        dict.fromkeys([x, y, z + "!", z + "?"]), [x, y, "ghost"], ["ghost", y, z],
        t[rng.randrange(len(t))], [x, y, z + "]"],
    ]
    for entry in entries:  # in place of entry k
        yield json.dumps(t[:k] + [entry] + t[k + 1:])
    yield json.dumps(t[:k] + [[x, y, z]] + t[k:])  # a repeated pair
    yield "[]"
    yield "[ ]"
    whole = json.dumps(t)
    yield whole[:-1] + ",]"
    yield whole[:-1] + ", ]"
    yield whole.replace("], [", "]\x0c, [", 1)
    yield whole.replace("], [", "],, [", 1)
    yield whole.replace("], [", "] [", 1)
    yield whole.replace("], [", "]\n\t ,\r\n[")
    yield whole.replace('"', "'", 1)
    yield whole[:-1]
    yield "[" + whole


def test_malformed_documents_are_refused_as_decoded_whole(tmp_path, monkeypatch):
    rng = random.Random(3302)
    path = tmp_path / "doc.json"
    refusals = Counter()

    def check(text):
        path.write_text(text, encoding="utf-8", newline="")
        want = assert_reads_as_decoded_whole(path, monkeypatch)
        refusals[want[1] if want[0] == "refused" else "parsed"] += 1

    for name, base in documents_to_read().items():
        for ordered in key_orders(base):
            for table in ("mul", "add", "unit_add"):
                if table not in ordered:
                    continue
                for mul in mul_texts(ordered[table], rng):
                    check(json.dumps({**ordered, table: "@"}).replace('"@"', mul))
            text = json.dumps(ordered, indent=1)
            for cut in sorted(rng.sample(range(1, len(text)), 8)):
                check(text[:cut])
            for tail in ("x", "{}", "]", " \n\t\r", ",", "\x0c"):
                check(text + tail)
            check("\ufeff" + text)
            # a repeated key: the decoder keeps its first place and last value
            for key in ("elements", "mul", "units", "kind", "add"):
                if key in ordered:
                    for other in (ordered[key], [], ordered[key][:-1]):
                        check('{"%s": %s, %s' % (key, json.dumps(other), text[1:]))
                        check('%s, "%s": %s}' % (text.rstrip()[:-1], key, json.dumps(other)))
    for text in ("[" * 100000, "", "[]", "5", '"mul"', "{}", '{"mul": [}', "{,}"):
        check(text)
    path.write_bytes(b'{"elements": ["\xff"]}')
    assert_reads_as_decoded_whole(path, monkeypatch)
    # each way of failing is met, and so is a document that still parses
    assert {"json", "mul[0]", "document", "parsed"} <= set(refusals)
    assert any(field.startswith(("mul[", "add[", "unit_add[")) and field != "mul[0]"
               for field in refusals)


def is_json(text):
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


def test_inline_morphism_endpoints_read_as_decoded_whole(tmp_path, monkeypatch, z4, z2):
    rng = random.Random(3303)
    (tmp_path / "z4.json").write_text(canonical_dumps(plain_document(z4)), encoding="utf-8")
    path = tmp_path / "m.json"
    codomain = plain_document(z2)
    doc = {"format_version": 1, "domain": plain_document(z4), "codomain": codomain,
           "f": {"0": "0", "1": "1", "2": "0", "3": "1"}}
    docs = [doc, {**doc, "domain": {"path": "z4.json"}},
            {**doc, "domain": relabel(doc["domain"], {"1": "é],"}),
             "f": {"0": "0", "é],": "1", "2": "0", "3": "1"}}]
    docs += [{**doc, "codomain": {**codomain, "mul": mul}}
             for mul in map(json.loads, filter(is_json, mul_texts(codomain["mul"], rng)))]
    docs += [{**doc, "domain": {"path": "z4.json", "mul": []}}, {**doc, "f": 5}]

    def reference(p):
        return parse_morphism_document(decode_whole(p), base_dir=p.parent)

    outcomes = Counter()
    for d in docs:
        for ordered in key_orders(d):
            for text in texts_of(ordered):
                path.write_text(text, encoding="utf-8", newline="")
                want = morphism_outcome(reference, path)
                for size, chunk in itertools.product((1, 1 << 16), CHUNKS):
                    monkeypatch.setattr(groupoids_io, "_SLICE", size)
                    monkeypatch.setattr(groupoids_io, "_CHUNK", chunk)
                    assert morphism_outcome(load_morphism, path) == want
                outcomes[want[0]] += 1
    assert outcomes["parsed"] and outcomes["refused"]


def test_a_table_whose_rows_come_in_interleaved_runs_reads_as_decoded_whole(
        tmp_path, monkeypatch):
    # each run of equal first labels looks its row up once, so a row met
    # again in a later run must be the same row; a repeated pair in a later
    # run of its row is refused as the whole read refuses it
    doc = plain_document(pair_groupoid(3))
    rows = {}
    for t in doc["mul"]:
        rows.setdefault(t[0], []).append(t)
    a, b = list(rows)[:2]
    halves = [rows[a][:2], rows[b][:2], rows[a][2:], rows[b][2:]]
    interleaved = list(itertools.chain(*halves, *(rows[x] for x in list(rows)[2:])))
    one_by_one = sorted(doc["mul"], key=lambda t: (t[1], t[0]))  # runs of length one
    assert interleaved != doc["mul"] and sorted(interleaved) == sorted(doc["mul"])
    path = tmp_path / "doc.json"
    monkeypatch.setattr(groupoids_io, "_decode", never_decoded_whole)
    for mul in (interleaved, one_by_one):
        path.write_text(json.dumps({**doc, "mul": mul}), encoding="utf-8")
        assert assert_reads_as_decoded_whole(path, monkeypatch)[0] == "parsed"
    monkeypatch.undo()
    repeat = rows[a][1][:2] + [rows[a][0][2]]
    for mul in (interleaved + [repeat], halves[0] + halves[1] + [repeat] + halves[2]):
        path.write_text(json.dumps({**doc, "mul": mul}), encoding="utf-8")
        want = assert_reads_as_decoded_whole(path, monkeypatch)
        assert want == ("refused", f"mul[{mul.index(repeat)}]",
                        f"duplicate triple for ({a!r}, {repeat[1]!r})"), want


def table_by_triples(entries, seed):
    """The labels and rows a table reader gives for ``entries`` with one
    row lookup per triple: the labels of ``seed``, then each other label as
    it first appears."""
    labels, rows = list(seed), [{} for _ in seed]
    ids = {lbl: i for i, lbl in enumerate(labels)}
    for x, y, z in entries:
        for lbl in (x, y, z):
            if lbl not in ids:
                ids[lbl] = len(labels)
                labels.append(lbl)
                rows.append({})
        rows[ids[x]][ids[y]] = ids[z]
    return labels, rows


def test_first_labels_that_are_equal_share_their_row_as_with_a_lookup_per_triple(
        tmp_path, monkeypatch):
    # 1, 1.0 and true are one key of a dict, so one run and one row; none is
    # a label, so the parser refuses them later, at the first
    doc = plain_document(pair_groupoid(2))
    x, y, z = doc["mul"][0]
    path = tmp_path / "doc.json"
    for firsts in ((1, 1.0, True), (True, x, 1, 1.0), (None, None, "ghost", None)):
        mul = ([[v, f"a{i}", z] for i, v in enumerate(firsts)] + doc["mul"]
               + [[v, f"b{i}", z] for i, v in enumerate(firsts)])
        path.write_text(json.dumps({**doc, "mul": mul}), encoding="utf-8")
        want = table_by_triples(mul, doc["elements"])
        for size, chunk in itertools.product((1, 40, 1 << 16), CHUNKS):
            monkeypatch.setattr(groupoids_io, "_SLICE", size)
            monkeypatch.setattr(groupoids_io, "_CHUNK", chunk)
            table = groupoids_io._walk(path, groupoids_io._TABLES)["mul"]
            assert (table.labels, table.rows) == want, (firsts, size, chunk)
        assert assert_reads_as_decoded_whole(path, monkeypatch)[:2] == ("refused", "mul[0]")
    # a label that is not hashable is no key at all: the file is decoded whole
    path.write_text(json.dumps({**doc, "mul": doc["mul"] + [[[x], y, z]]}), encoding="utf-8")
    with pytest.raises(groupoids_io._Reread):
        groupoids_io._walk(path, groupoids_io._TABLES)


def test_labels_full_of_cuts_inside_strings_read_as_decoded_whole(tmp_path, monkeypatch):
    # a slice is first cut at the next "]," whether or not it lies inside a
    # string; here most of them do, so the slice is cut again outside strings
    # and the document is still read slice by slice
    monkeypatch.setattr(groupoids_io, "_decode", never_decoded_whole)
    cuts = Counter()
    cut = groupoids_io._Window.cut

    def counted(src, outside_strings=False):
        cuts[outside_strings] += 1
        return cut(src, outside_strings)

    monkeypatch.setattr(groupoids_io._Window, "cut", counted)
    path = tmp_path / "doc.json"
    for base in (plain_document(pair_groupoid(3)), quasiperm_document(symmetric_groupoid(2), 2)):
        doc = relabel(base, {lbl: lbl + '" ],"' * 12 + '\\"' + "],]," * 12
                             for lbl in base["elements"]})
        for text in (json.dumps(doc), json.dumps(doc, indent=2, ensure_ascii=False)):
            path.write_text(text, encoding="utf-8")
            assert assert_reads_as_decoded_whole(path, monkeypatch)[0] == "parsed"
    assert cuts[True] > 0 and cuts[False] > cuts[True], cuts


def boundary_document():
    """The text of a valid quasiperm document of S(2) with a label that ends
    in escapes of "é" and of a surrogate pair, and top-level numbers that go
    on past their first digit, and the places in it that a chunk boundary
    must not upset; they all come before the first table."""
    doc = quasiperm_document(symmetric_groupoid(2), 2)
    label = doc["elements"][1]
    doc = relabel(doc, {label: label + "é\U0001F600"})
    head = {"format_version": 1, "degree": 2, "fraction": "@1", "exponent": "@2"}
    text = json.dumps({**head, **doc}).replace('"@1"', "-12.5").replace('"@2"', "1.25e+30")
    places = [text.index(json.dumps(label)[:-1]), text.index("\\u00e9"), text.index("\\ud83d"),
              text.index('"degree": 2') + 10, text.index('"format_version": 1') + 18,
              text.index("-12.5"), text.index("1.25e+30")]
    assert max(places) < text.index('"mul"')
    return text, places


def test_a_first_chunk_that_ends_inside_any_token_reads_as_decoded_whole(
        tmp_path, monkeypatch):
    # the first read of a file takes _CHUNK characters, so a chunk of k
    # characters puts a boundary right before character k when no earlier
    # token reaches past it: here inside a label, a \u escape and a
    # surrogate pair, and inside and right after top-level numbers
    monkeypatch.setattr(groupoids_io, "_decode", never_decoded_whole)
    text, places = boundary_document()
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    want = groupoid_outcome(lambda p: parse_groupoid_document(decode_whole(p)), path)
    assert want[0] == "parsed"
    for at in places:
        for chunk in range(at, at + 13):
            monkeypatch.setattr(groupoids_io, "_CHUNK", chunk)
            assert groupoid_outcome(load_groupoid, path) == want, text[at:chunk]


def open_one_byte_at_a_time(path, encoding):
    """The file as ``open(path, encoding=encoding)`` opens it, but read from
    disk one byte at a time, so that the text decoder meets a boundary
    between any two bytes."""
    class OneByte(io.RawIOBase):
        def __init__(self):
            self.file = Path(path).open("rb", buffering=0)

        def readable(self):
            return True

        def readinto(self, b):
            data = self.file.read(1)
            b[:len(data)] = data
            return len(data)

        def close(self):
            self.file.close()
            super().close()

    return io.TextIOWrapper(io.BufferedReader(OneByte(), buffer_size=1), encoding=encoding)


def test_byte_boundaries_inside_characters_and_line_ends_read_as_decoded_whole(
        tmp_path, monkeypatch):
    monkeypatch.setattr(groupoids_io, "open", open_one_byte_at_a_time, raising=False)
    path = tmp_path / "doc.json"
    text, _ = boundary_document()
    doc = json.loads(text)
    texts = [json.dumps(doc, indent=2, ensure_ascii=False).replace("\n", "\r\n"),
             json.dumps(doc, indent="\t", ensure_ascii=False).replace("\n", "\r"),
             json.dumps(relabel(doc, {lbl: lbl + "☃ß" for lbl in doc["elements"]}),
                        ensure_ascii=False)]
    for text in texts:
        path.write_text(text, encoding="utf-8", newline="")
        monkeypatch.setattr(groupoids_io, "_decode", never_decoded_whole)
        want = assert_reads_as_decoded_whole(path, monkeypatch)
        assert want[0] == "parsed"


def test_a_byte_that_is_not_utf8_after_the_first_chunk_is_refused_as_read_whole(
        tmp_path, monkeypatch):
    # the chunked decoder counts the position of the bad byte from its own
    # chunk; the refusal is that of the whole read, position included.  The
    # file is read as it is, and one byte at a time
    path = tmp_path / "doc.json"
    for pad, opener in ((groupoids_io._CHUNK, open), (40, open_one_byte_at_a_time)):
        monkeypatch.setattr(groupoids_io, "open", opener, raising=False)
        data = json.dumps({"pad": "a" * pad, **plain_document(pair_groupoid(2))}).encode()
        at = data.index(b'"mul"') + 9
        path.write_bytes(data[:at] + b"\xff" + data[at:])
        want = assert_reads_as_decoded_whole(path, monkeypatch)
        assert want[:2] == ("refused", "json") and f"position {at}:" in want[2], want


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd to name a pipe by")
def test_a_document_from_a_pipe_reads_as_decoded_whole(tmp_path, z2):
    # a pipe cannot be read a second time, as the fallback reads a file
    z2_doc = plain_document(z2)
    morphism = {"format_version": 1, "domain": z2_doc, "codomain": z2_doc, "f": {"0": "0"}}
    cases = [(load_groupoid, groupoid_outcome, parse_groupoid_document, z2_doc),
             (load_morphism, morphism_outcome, parse_morphism_document, morphism)]
    path = tmp_path / "doc.json"
    for load, outcome, parse, doc in cases:
        for text in (json.dumps(doc), json.dumps(doc)[:-1], json.dumps(doc).replace("]", "]x", 1)):
            path.write_text(text, encoding="utf-8")
            want = outcome(lambda p: parse(decode_whole(p)), path)
            r, w = os.pipe()
            try:
                os.write(w, text.encode())
                os.close(w)
                assert outcome(load, f"/dev/fd/{r}") == want, text
            finally:
                os.close(r)


def test_loading_the_degree_5_document_peaks_below_three_quarters_of_its_text(
        tmp_path, s5):
    path = tmp_path / "s5.json"
    size = path.write_text(canonical_dumps(quasiperm_document(s5, 5)), encoding="utf-8")
    tracemalloc.start()
    try:
        parsed = load_groupoid(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed.groupoid == s5
    # the rows, one chunk and its read: reading the text whole peaked at
    # 2.0 times it, and decoding the whole tree of cells near 4.0 times
    assert peak < 0.75 * size, peak / size


def test_a_5000_digit_degree_goes_to_the_whole_text_read_at_once(
        tmp_path, s5, long_integer_texts, monkeypatch):
    """The degree-5 document with a 5,000-digit degree: the walker gives up
    at the number, after at most two window reads, and the whole-text read
    refuses it.  Nothing of the window is left by then, so the traced peak
    is that of the whole-text read alone; reading the window on to the end
    of the file first made 9 reads and peaked 37% above it."""
    _, message = long_integer_texts
    text = canonical_dumps(quasiperm_document(s5, 5))
    path = tmp_path / "s5_long.json"
    path.write_text(text.replace('"degree": 5,', f'"degree": {LONG_INTEGER},', 1),
                    encoding="utf-8")
    reads = []
    more = groupoids_io._Window.more
    monkeypatch.setattr(groupoids_io._Window, "more", lambda self: reads.append(1) or more(self))
    peaks = []
    for read in (load_groupoid, groupoids_io._read_json):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as err:
                read(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (err.value.field, err.value.message) == ("json", message)
    assert 1 <= len(reads) <= 2
    assert peaks[0] < 1.01 * peaks[1], peaks

def test_loading_the_anchor_morphism_of_s5_peaks_below_12_mb(tmp_path, s5):
    # the codomain pair(31) inline and the domain S5 by path, as in the
    # benchmark: the morphism's text is gone before S5 is read
    m = anchor_morphism(s5)
    h = m.codomain
    (tmp_path / "s5.json").write_text(canonical_dumps(quasiperm_document(s5, 5)),
                                      encoding="utf-8")
    path = tmp_path / "anchor.json"
    path.write_text(json.dumps({
        "format_version": 1,
        "domain": {"path": "s5.json"},
        "codomain": plain_document(h),
        "f": {s5.elements[x]: h.elements[m.elem_map[x]] for x in range(len(s5))},
        "f0": {s5.elements[u]: h.elements[v] for u, v in m.unit_map.items()},
    }, sort_keys=True, indent=2), encoding="utf-8")
    tracemalloc.start()
    try:
        loaded = load_morphism(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.domain == s5 and loaded.elem_map == m.elem_map
    # reading each text whole peaked at 32 MB
    assert peak < 12e6, peak / 1e6
