import gc
import hashlib
import json
import random

import pytest

from groupoids import (
    FiniteGroupoid,
    GroupoidMorphism,
    Quasipermutation,
    anchor_morphism,
    canonical_dumps,
    canonicalize_document,
    cyclic_group,
    disjoint_union,
    from_group,
    group_groupoid_document,
    pair_group_groupoid,
    pair_groupoid,
    plain_document,
    quasiperm_document,
    symmetric_groupoid,
    validate,
)
from groupoids import cli, constructions, pair_vector_space_groupoid, vsg_document
from groupoids.cli import main

GOLDEN = None


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(canonical_dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def gp2_file(tmp_path, gp2):
    return write_doc(tmp_path, "gp2.json", plain_document(gp2))


@pytest.fixture
def z4_file(tmp_path, z4):
    return write_doc(tmp_path, "z4.json", plain_document(z4))


@pytest.fixture
def z2_file(tmp_path, z2):
    return write_doc(tmp_path, "z2.json", plain_document(z2))


def test_build_pair_prints_canonical_document(capsys):
    assert main(["build", "pair", "2"]) == 0
    out = capsys.readouterr().out
    assert out == canonical_dumps(plain_document(pair_groupoid(2)))


def test_build_and_verify_round_trips(tmp_path, capsys):
    argvs = [
        ["build", "pair", "3"],
        ["build", "null", "2"],
        ["build", "cyclic", "4"],
        ["build", "symmetric", "2"],
        ["build", "alternating", "3"],
        ["build", "pair-vsg", "2", "1"],
    ]
    for i, argv in enumerate(argvs):
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        path = tmp_path / f"built_{i}.json"
        path.write_text(out, encoding="utf-8")
        assert main(["verify", str(path)]) == 0, argv
        assert capsys.readouterr().out.startswith("ok:")


def test_verify_reports_kind_and_type(tmp_path, golden, capsys):
    path = write_doc(tmp_path, "golden.json", plain_document(golden))
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "plain groupoid of type (14;6)" in out


def test_verify_flags_broken_inverse(tmp_path, golden, capsys):
    doc = plain_document(golden)
    doc["inv"] = {**doc["inv"], "3/1": "3/1"}
    path = write_doc(tmp_path, "broken.json", doc)
    assert main(["verify", path]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out and "[G3]" in out


def test_verify_quasiperm_payload_mismatch(tmp_path, s2, capsys):
    doc = quasiperm_document(s2, 2)
    payloads = list(doc["payloads"])
    payloads[3], payloads[4] = payloads[4], payloads[3]
    doc["payloads"] = payloads
    path = write_doc(tmp_path, "tampered.json", doc)
    assert main(["verify", path]) == 1
    assert "[payload]" in capsys.readouterr().out


def test_verify_quasiperm_document_of_long_maps(tmp_path, capsys):
    identity = Quasipermutation.identity(8, tuple(range(1, 9)))
    g = FiniteGroupoid(["e"], [0], [0], [0], [0], {(0, 0): 0}, payloads=[identity])
    path = write_doc(tmp_path, "degree8.json", quasiperm_document(g, 8))
    assert main(["verify", path]) == 0
    assert "8: 1 2 3 4 5 6 7 8 -> 1 2 3 4 5 6 7 8" in (tmp_path / "degree8.json").read_text()


def test_analyze_pair_groupoid(gp2_file, capsys):
    assert main(["analyze", gp2_file]) == 0
    out = capsys.readouterr().out
    assert "type: (4;2)" in out
    assert "transitive: yes" in out
    assert "isotropy at (1,1): order 1" in out


def test_analyze_reference_groupoid(tmp_path, golden, capsys):
    path = write_doc(tmp_path, "golden.json", plain_document(golden))
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "type: (14;6)" in out
    assert "transitive: no" in out
    assert "isotropy at 3/0: order 4" in out
    assert "isotropy bundle size: 10" in out


def test_analyze_rejects_invalid_document(tmp_path, golden, capsys):
    doc = plain_document(golden)
    doc["inv"] = {**doc["inv"], "3/1": "3/1"}
    path = write_doc(tmp_path, "broken.json", doc)
    assert main(["analyze", path]) == 1


def test_missing_and_malformed_files(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{]", encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    not_a_doc = tmp_path / "wrong.json"
    not_a_doc.write_text(json.dumps({"format_version": 1}), encoding="utf-8")
    assert main(["verify", str(not_a_doc)]) == 2


def test_size_limit_exit_codes(tmp_path, s5, capsys):
    assert main(["build", "symmetric", "9"]) == 3
    assert main(["build", "pair-vsg", "2", "7"]) == 3
    assert main(["build", "pair", "65"]) == 3
    assert main(["build", "cyclic", "257"]) == 3
    s5_file = write_doc(tmp_path, "s5.json", quasiperm_document(s5, 5))
    capsys.readouterr()
    assert main(["build", "product", s5_file, s5_file]) == 3
    assert "126525 x 126525" in capsys.readouterr().err
    assert main(["build", "symmetric", "6"]) == 3
    assert main(["build", "alternating", "6"]) == 3
    capsys.readouterr()
    # refused from the arguments alone, before any label, primality test or p^dim
    for argv, message in [
        (["pair", "100000000000000"], "pair groupoid limited to 64 points"),
        (["pair-vsg", "1000000000000000003", "1"], "base limited to 64 points"),
        (["pair-vsg", "2", "100000000000"], "base limited to 64 points"),
        (["pair-vsg", "61", "1"], "got 3721 x 3721"),
    ]:
        assert main(["build"] + argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, argv


def test_value_error_exit_codes(capsys):
    assert main(["build", "pair-vsg", "4", "1"]) == 1
    assert main(["build", "cyclic", "0"]) == 1
    assert main(["build", "null", "0"]) == 1
    capsys.readouterr()
    for argv, message in [(["0", "1"], "field size must be prime, got 0"),
                          (["1", "1"], "field size must be prime, got 1"),
                          (["4", "1"], "field size must be prime, got 4"),
                          (["2", "0"], "dimension must be at least 1")]:
        assert main(["build", "pair-vsg"] + argv) == 1, argv
        assert capsys.readouterr().err == f"error: {message}\n", argv


def test_counts_match(capsys):
    assert main(["counts", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("match") == 2
    assert "MISMATCH" not in out
    assert "S_3: size 33 = 33" in out
    assert "A_3: size 15 = 15" in out


def test_counts_degree_one(capsys):
    assert main(["counts", "1"]) == 0
    out = capsys.readouterr().out
    assert "S_1" in out and "A_" not in out


def test_subgroupoids_listing(gp2_file, capsys):
    assert main(["subgroupoids", gp2_file]) == 0
    out = capsys.readouterr().out
    assert "4 subgroupoids" in out
    assert "[wide normal]" in out
    assert main(["subgroupoids", "--normal", gp2_file]) == 0
    out = capsys.readouterr().out
    assert "2 normal subgroupoids" in out


def test_subgroupoids_size_limit(tmp_path, capsys):
    doc = quasiperm_document(symmetric_groupoid(3), 3)
    path = write_doc(tmp_path, "s3.json", doc)
    assert main(["subgroupoids", path]) == 3


def test_subgroupoids_validates_once(tmp_path, gp2_file, capsys, monkeypatch):
    from groupoids import subgroupoids
    calls = []

    def counted(g):
        calls.append(g)
        return validate(g)

    monkeypatch.setattr(cli, "validate", counted)
    monkeypatch.setattr(subgroupoids, "validate", counted)
    assert main(["subgroupoids", gp2_file]) == 0
    assert "4 subgroupoids" in capsys.readouterr().out
    assert len(calls) == 1
    # the size bound refuses before any validation
    calls.clear()
    s3 = write_doc(tmp_path, "s3.json", quasiperm_document(symmetric_groupoid(3), 3))
    assert main(["subgroupoids", s3]) == 3
    assert calls == []


def test_verify_validates_a_structured_carrier_once(tmp_path, z4_file, capsys, monkeypatch):
    from groupoids import structured
    calls = []

    def counted(g):
        calls.append(g)
        return validate(g)

    for argv in (["pair-vsg", "2", "2"], ["pair-gg", z4_file]):
        assert main(["build", *argv]) == 0
        path = tmp_path / "structured.json"
        path.write_text(capsys.readouterr().out, encoding="utf-8")
        monkeypatch.setattr(cli, "validate", counted)
        monkeypatch.setattr(structured, "validate", counted)
        calls.clear()
        assert main(["verify", str(path)]) == 0
        assert capsys.readouterr().out.startswith("ok: ")
        assert len(calls) == 1, argv
        monkeypatch.undo()


def test_subgroupoids_rejects_a_non_groupoid(tmp_path, capsys):
    doc = plain_document(from_group(cyclic_group(4)))
    doc["mul"] = [row if row[:2] != ["2", "3"] else ["2", "3", "0"] for row in doc["mul"]]
    path = write_doc(tmp_path, "broken.json", doc)
    assert main(["subgroupoids", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not a groupoid" in captured.err and "Traceback" not in captured.err


def test_build_union_reproduces_reference(tmp_path, golden, capsys):
    pieces = []
    for i, argv in enumerate(
        [["build", "pair", "2"], ["build", "symmetric", "2"], ["build", "cyclic", "4"]]
    ):
        assert main(argv) == 0
        out = capsys.readouterr().out
        path = tmp_path / f"piece_{i}.json"
        path.write_text(out, encoding="utf-8")
        pieces.append(str(path))
    assert main(["build", "union", *pieces]) == 0
    out = capsys.readouterr().out
    assert out == canonical_dumps(plain_document(golden))


def test_build_product_and_whitney(gp2_file, z2_file, z4_file, capsys):
    assert main(["build", "product", gp2_file, z2_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["elements"]) == 8 and len(doc["units"]) == 2
    assert main(["build", "whitney", z4_file, z2_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["elements"]) == 8 and len(doc["units"]) == 1
    assert main(["build", "whitney", gp2_file, z4_file]) == 1


def test_build_induced(tmp_path, z2_file, capsys):
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"x": "0", "y": "0"}), encoding="utf-8")
    assert main(["build", "induced", z2_file, str(map_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["elements"]) == 8 and len(doc["units"]) == 2
    bad_map = tmp_path / "bad_map.json"
    bad_map.write_text(json.dumps(["x"]), encoding="utf-8")
    assert main(["build", "induced", z2_file, str(bad_map)]) == 2
    missing_base = tmp_path / "missing.json"
    missing_base.write_text(json.dumps({"x": "7"}), encoding="utf-8")
    assert main(["build", "induced", z2_file, str(missing_base)]) == 1


def test_product_bounded_builders_exit_3(tmp_path, gp2_file, z2_file, capsys, monkeypatch):
    # each build below has at least 8 products
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"x": "0", "y": "0"}), encoding="utf-8")
    monkeypatch.setattr(constructions, "PRODUCT_MUL_LIMIT", 7)
    for argv in (["union", gp2_file, z2_file], ["whitney", gp2_file, gp2_file],
                 ["induced", z2_file, str(map_path)], ["cayley", gp2_file]):
        assert main(["build"] + argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "limited to 7 products" in captured.err


def test_build_cayley(z4_file, tmp_path, capsys):
    assert main(["build", "cayley", z4_file]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["elements"] == ["L[0]", "L[1]", "L[2]", "L[3]"]
    path = tmp_path / "cayley.json"
    path.write_text(out, encoding="utf-8")
    assert main(["verify", str(path)]) == 0


def test_build_pair_gg(z4_file, gp2_file, tmp_path, capsys):
    assert main(["build", "pair-gg", z4_file]) == 0
    out = capsys.readouterr().out
    path = tmp_path / "pair_gg.json"
    path.write_text(out, encoding="utf-8")
    assert main(["verify", str(path)]) == 0
    assert "group-groupoid groupoid of type (16;4)" in capsys.readouterr().out
    assert main(["build", "pair-gg", gp2_file]) == 1


def stdlib_dumps(doc):
    """The reference for canonical text: the stdlib's own indent encoder."""
    return json.dumps(canonicalize_document(doc), sort_keys=True, indent=2) + "\n"


def test_every_build_kind_writes_the_stdlib_bytes(tmp_path, gp2_file, z2_file, z4_file,
                                                  capsys, monkeypatch):
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"x": "0", "y": "0"}), encoding="utf-8")
    kinds = [["pair", "3"], ["null", "2"], ["cyclic", "4"], ["symmetric", "3"],
             ["alternating", "3"], ["union", gp2_file, z2_file], ["product", gp2_file, z2_file],
             ["whitney", z4_file, z2_file], ["induced", z2_file, str(map_path)],
             ["cayley", z4_file], ["pair-gg", z4_file], ["pair-vsg", "3", "1"]]
    built = []
    for argv in kinds:
        assert main(["build"] + argv) == 0, argv
        built.append(capsys.readouterr().out)
    monkeypatch.setattr(cli, "canonical_dumps", stdlib_dumps)
    for argv, out in zip(kinds, built):
        assert main(["build"] + argv) == 0, argv
        assert capsys.readouterr().out == out, argv


# sha256 of the stdout of `groupoids build ...` as json's own indent encoder
# writes it; pins the layout of the quasiperm, vsg and group-groupoid kinds
BUILD_PINS = {
    ("symmetric", "4"): "070f33888b04ed9dfc33115d347f7add5cb34e6190650c983e138b4efb8589cd",
    ("pair-vsg", "2", "2"): "8045c29d9a57b5582609f7129c46d6c2ef6b222228f6f89b2161e601c7d7e5cb",
    ("pair-gg", "z4.json"): "2be5c589433e13fff7bf21aabf6ace9ed4b8da222355938587a0fac0ae3fd0d1",
}


def test_build_layouts_are_pinned(z4_file, capsys):
    for argv, digest in BUILD_PINS.items():
        args = [z4_file if a == "z4.json" else a for a in argv]
        assert main(["build", *args]) == 0, argv
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == digest, argv


def test_verify_group_groupoid_mutation(z4_file, tmp_path, capsys):
    assert main(["build", "pair-gg", z4_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    for i, (x, y, z) in enumerate(doc["add"]):
        if x == y == "(0,1)":
            doc["add"][i] = [x, y, "(1,0)"]
            break
    path = write_doc(tmp_path, "broken_gg.json", doc)
    assert main(["verify", path]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_morphism_commands(tmp_path, z4_file, z2_file, capsys):
    doc = {
        "format_version": 1,
        "domain": {"path": "z4.json"},
        "codomain": {"path": "z2.json"},
        "f": {"0": "0", "1": "1", "2": "0", "3": "1"},
    }
    path = tmp_path / "quotient.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["morphism", "verify", str(path)]) == 0
    assert capsys.readouterr().out.startswith("ok:")
    assert main(["morphism", "strong", str(path)]) == 0
    assert "strong: yes" in capsys.readouterr().out
    assert main(["morphism", "kernel", str(path)]) == 0
    out = capsys.readouterr().out
    assert "kernel: 2 elements" in out and "normal: yes" in out
    assert main(["morphism", "image", str(path)]) == 0
    assert "image: 2 elements" in capsys.readouterr().out
    assert main(["morphism", "correspondence", str(path)]) == 0
    out = capsys.readouterr().out
    assert "|kernel| = 2" in out and "ok" in out


def test_morphism_fold_is_not_strong(tmp_path, z2, capsys):
    folded = disjoint_union(z2, z2)
    fold_file = write_doc(tmp_path, "fold.json", plain_document(folded))
    z2_file = write_doc(tmp_path, "z2.json", plain_document(z2))
    doc = {
        "format_version": 1,
        "domain": {"path": "fold.json"},
        "codomain": {"path": "z2.json"},
        "f": {"1/0": "0", "1/1": "1", "2/0": "0", "2/1": "1"},
    }
    path = tmp_path / "fold_morphism.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["morphism", "verify", str(path)]) == 0
    capsys.readouterr()
    assert main(["morphism", "strong", str(path)]) == 0
    assert "strong: no; witness elements" in capsys.readouterr().out
    assert main(["morphism", "image", str(path)]) == 1
    capsys.readouterr()
    assert main(["morphism", "correspondence", str(path)]) == 1


def test_morphism_verify_reports_violations(tmp_path, z4, z2, capsys):
    doc = {
        "format_version": 1,
        "domain": plain_document(z4),
        "codomain": plain_document(z2),
        "f": {"0": "0", "1": "1", "2": "1", "3": "1"},
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["morphism", "verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out and "mul-compat" in out
    assert main(["morphism", "kernel", str(path)]) == 1


def test_morphism_commands_check_the_endpoints(tmp_path, z4, z2, capsys):
    domain = plain_document(z4)
    domain["mul"] = [entry for entry in domain["mul"] if entry[:2] != ["1", "3"]]
    doc = {
        "format_version": 1,
        "domain": domain,
        "codomain": plain_document(z2),
        "f": {"0": "0", "1": "1", "2": "0", "3": "1"},
    }
    path = tmp_path / "cut_domain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["morphism", "verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out and "[domain-closure] witness=(1, 3)" in out
    for action in ("kernel", "correspondence"):
        assert main(["morphism", action, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_morphism_domain_source_off_the_units(tmp_path, z4, z2, capsys):
    domain = plain_document(z4)
    domain["alpha"]["1"] = "1"
    doc = {
        "format_version": 1,
        "domain": domain,
        "codomain": plain_document(z2),
        "f": {"0": "0", "1": "1", "2": "0", "3": "1"},
    }
    path = tmp_path / "loose_source.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for action in ("strong", "kernel", "image", "correspondence"):
        assert main(["morphism", action, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "[domain-structure] witness=(1,)" in captured.err
        assert "Traceback" not in captured.err


def broken_z4_identity_document(z4):
    """The identity morphism of Z4 with the inverse of 1 retargeted to 1 in
    both endpoints, so that G3 fails on each."""
    broken = plain_document(z4)
    broken["inv"]["1"] = "1"
    identity = {label: label for label in z4.elements}
    return {"format_version": 1, "domain": broken, "codomain": broken,
            "f": identity, "f0": {z4.elements[u]: z4.elements[u] for u in z4.units}}


def test_every_morphism_action_refuses_a_non_groupoid_endpoint(tmp_path, z4, capsys):
    path = tmp_path / "broken_id.json"
    path.write_text(json.dumps(broken_z4_identity_document(z4)), encoding="utf-8")
    path = str(path)
    assert main(["morphism", "verify", path]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("FAILED") and "[domain-G3]" in captured.out
    for action in ("strong", "kernel", "image", "correspondence"):
        assert main(["morphism", action, path]) == 1, action
        captured = capsys.readouterr()
        assert captured.out == "", action
        assert captured.err.startswith("error: ") and "[domain-G3]" in captured.err, action
        assert "Traceback" not in captured.err


def test_morphism_actions_validate_each_endpoint_once(tmp_path, z4_file, z2_file, capsys,
                                                      monkeypatch):
    doc = {"format_version": 1, "domain": {"path": "z4.json"},
           "codomain": {"path": "z2.json"}, "f": {"0": "0", "1": "1", "2": "0", "3": "1"}}
    path = tmp_path / "quotient.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    calls = []

    def counted(g):
        calls.append(len(g))
        return validate(g)

    monkeypatch.setattr("groupoids.morphisms.validate", counted)
    for action in ("verify", "strong", "kernel", "image", "correspondence"):
        calls.clear()
        assert main(["morphism", action, str(path)]) == 0, action
        assert calls == [4, 2], (action, calls)
    capsys.readouterr()


def test_morphism_missing_file(tmp_path, capsys):
    assert main(["morphism", "verify", str(tmp_path / "absent.json")]) == 2


def test_morphism_endpoint_parse_errors_name_the_endpoint(tmp_path, z2_file, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="ascii")
    no_elements = plain_document(from_group(cyclic_group(2)))
    del no_elements["elements"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(no_elements), encoding="utf-8")
    cases = [
        ({"domain": {"path": str(deep)}, "codomain": {"path": z2_file}},
         f"domain: {deep}: json: nested too deeply"),
        ({"domain": {"path": z2_file}, "codomain": {"path": str(bare)}},
         f"codomain: {bare}: elements: missing required field"),
    ]
    for endpoints, message in cases:
        path = tmp_path / "morphism.json"
        path.write_text(json.dumps({"format_version": 1, **endpoints, "f": {}}),
                        encoding="utf-8")
        assert main(["morphism", "verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"parse error: {message}\n"


def test_counts_six_builds_no_groupoid(monkeypatch, capsys):
    def refuse(maps):
        raise AssertionError("counts built a product table")

    monkeypatch.setattr("groupoids.quasiperm._groupoid", refuse)
    assert main(["counts", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(line.endswith("-> match") for line in lines)


@pytest.fixture
def collector_state():
    """Put the collector back as it was, whatever the test leaves."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def test_main_restores_the_collector_on_every_exit(tmp_path, z2_file, monkeypatch, capsys,
                                                   collector_state):
    def broken(g):
        raise RuntimeError("validate broke")

    runs = [(["build", "pair", "2"], 0), (["build", "cyclic", "0"], 1),
            (["verify", str(tmp_path / "absent.json")], 2), (["build", "pair", "65"], 3)]
    for enabled in (True, False):
        for argv, code in runs:
            gc.enable() if enabled else gc.disable()
            assert main(argv) == code, argv
            assert gc.isenabled() == enabled, argv
        gc.enable() if enabled else gc.disable()
        with pytest.raises(SystemExit):
            main(["no-such-command"])
        assert gc.isenabled() == enabled
        with monkeypatch.context() as patch:
            patch.setattr(cli, "validate", broken)
            with pytest.raises(RuntimeError, match="validate broke"):
                main(["verify", z2_file])
        assert gc.isenabled() == enabled
    capsys.readouterr()


def test_commands_run_with_the_collector_paused(z4_file, monkeypatch, capsys,
                                                 collector_state):
    seen = []
    real_validate = cli.validate

    def recording(g):
        seen.append(gc.isenabled())
        return real_validate(g)

    monkeypatch.setattr(cli, "validate", recording)
    gc.enable()
    assert main(["verify", z4_file]) == 0
    assert main(["analyze", z4_file]) == 0
    assert seen == [False, False] and gc.isenabled()
    capsys.readouterr()


def test_unreadable_documents_exit_2_without_a_traceback(tmp_path, z2_file, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="ascii")
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b"\xff" + json.dumps({"format_version": 1}).encode())
    # JSON true where an integer belongs
    format_true = write_doc(tmp_path, "fv.json", {
        **plain_document(from_group(cyclic_group(2))), "format_version": True})
    degree_true = write_doc(tmp_path, "s2.json", {
        **quasiperm_document(symmetric_groupoid(2), 2), "degree": True})
    p_true = write_doc(tmp_path, "v.json", {
        **vsg_document(pair_vector_space_groupoid(2, 1)), "p": True})
    morphism = tmp_path / "morphism.json"
    morphism.write_text(json.dumps({
        "format_version": 1, "domain": {"path": 5}, "codomain": {"path": "z2.json"},
        "f": {}}), encoding="utf-8")
    cases = [
        (["verify", str(deep)], "json: nested too deeply"),
        (["verify", str(not_utf8)], "json: 'utf-8' codec can't decode"),
        (["morphism", "verify", str(deep)], "json: nested too deeply"),
        (["build", "induced", z2_file, str(deep)], "json: nested too deeply"),
        (["build", "induced", z2_file, str(not_utf8)], "json: 'utf-8' codec"),
        (["morphism", "strong", str(morphism)], "domain: path must be a string"),
        (["verify", format_true], "format_version: expected int"),
        (["verify", degree_true], "degree: expected int"),
        (["verify", p_true], "p: expected int"),
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("parse error: " + message), (argv, err)
        assert "Traceback" not in err, argv


def _positions(node, out):
    """Every (container, key) of a decoded document, and whether its value
    is a scalar."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        out.append((node, key, not isinstance(value, (dict, list))))
        if isinstance(value, (dict, list)):
            _positions(value, out)
    return out


def fuzzed_document(doc, rng, labels=None):
    """A copy of doc with one seeded edit: two scalars swapped, one entry
    deleted, or one scalar retargeted to one of ``labels`` (the document's
    element labels by default)."""
    doc = json.loads(json.dumps(doc))
    positions = _positions(doc, [])
    scalars = [(node, key) for node, key, scalar in positions if scalar]
    edit = rng.randrange(3)
    if edit == 0:
        (a, i), (b, j) = rng.sample(scalars, 2)
        a[i], b[j] = b[j], a[i]
    elif edit == 1:
        node, key, _ = rng.choice(positions)
        del node[key]
    else:
        node, key = rng.choice(scalars)
        node[key] = rng.choice(labels or doc["elements"])
    return doc


def test_verify_survives_seeded_single_edits(tmp_path, capsys):
    rng = random.Random(90210)
    documents = [
        plain_document(disjoint_union(pair_groupoid(2), from_group(cyclic_group(3)))),
        quasiperm_document(symmetric_groupoid(2), 2),
        group_groupoid_document(pair_group_groupoid(cyclic_group(2))),
        vsg_document(pair_vector_space_groupoid(2, 1)),
    ]
    codes = set()
    for doc in documents:
        for i in range(80):
            path = tmp_path / f"fuzz{i}.json"
            path.write_text(json.dumps(fuzzed_document(doc, rng)), encoding="utf-8")
            code = main(["verify", str(path)])
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3) and "Traceback" not in err, (path, err)
            codes.add(code)
    assert {0, 1, 2} <= codes


def test_analyze_and_subgroupoids_survive_seeded_single_edits(tmp_path, capsys):
    rng = random.Random(60606)
    documents = [
        plain_document(disjoint_union(pair_groupoid(2), from_group(cyclic_group(3)))),
        quasiperm_document(symmetric_groupoid(2), 2),
        group_groupoid_document(pair_group_groupoid(cyclic_group(2))),
        vsg_document(pair_vector_space_groupoid(2, 1)),
    ]
    codes = {"analyze": set(), "subgroupoids": set()}
    for doc in documents:
        for i in range(160):
            path = tmp_path / f"fuzz{i}.json"
            path.write_text(json.dumps(fuzzed_document(doc, rng)), encoding="utf-8")
            for command in codes:
                code = main([command, str(path)])
                err = capsys.readouterr().err
                assert code in (0, 1, 2, 3) and "Traceback" not in err, (command, path, err)
                codes[command].add(code)
    assert all({0, 1, 2} <= seen for seen in codes.values())


def morphism_document(m, domain, codomain):
    """The document of the morphism m with the given endpoint entries."""
    g, h = m.domain, m.codomain
    return {
        "format_version": 1,
        "domain": domain,
        "codomain": codomain,
        "f": {g.elements[x]: h.elements[y] for x, y in enumerate(m.elem_map)},
        "f0": {g.elements[u]: h.elements[v] for u, v in m.unit_map.items()},
    }


def test_morphism_commands_survive_seeded_single_edits(tmp_path, capsys):
    rng = random.Random(1729)
    s2 = symmetric_groupoid(2)
    z4 = from_group(cyclic_group(4))
    z2 = from_group(cyclic_group(2))
    morphisms = [
        (anchor_morphism(s2), quasiperm_document(s2, 2)),
        (GroupoidMorphism(z4, z2, [0, 1, 0, 1]), plain_document(z4)),
    ]
    codes = set()
    for m, domain in morphisms:
        codomain = plain_document(m.codomain)
        labels = list(m.domain.elements) + list(m.codomain.elements)
        by_path = {"m.json": morphism_document(m, {"path": "d.json"}, {"path": "c.json"}),
                   "d.json": domain, "c.json": codomain}
        for files in ({"m.json": morphism_document(m, domain, codomain)}, by_path):
            for _ in range(12):
                edited = rng.choice(sorted(files))
                case = {**files, edited: fuzzed_document(files[edited], rng, labels)}
                for name, doc in case.items():
                    (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
                for action in ("verify", "strong", "kernel", "image", "correspondence"):
                    code = main(["morphism", action, str(tmp_path / "m.json")])
                    err = capsys.readouterr().err
                    assert code in (0, 1, 2, 3) and "Traceback" not in err, (
                        action, edited, case[edited], err)
                    codes.add(code)
    assert {0, 1, 2} <= codes


def test_build_survives_seeded_single_edits(tmp_path, capsys):
    """The builders that read files, each with one of its input files (the
    map file of ``induced`` included) given one seeded edit."""
    rng = random.Random(31337)
    gp2 = plain_document(pair_groupoid(2))
    z2 = plain_document(from_group(cyclic_group(2)))
    z4 = plain_document(from_group(cyclic_group(4)))
    s2 = quasiperm_document(symmetric_groupoid(2), 2)
    cases = [
        (["union", "a.json", "b.json"], {"a.json": gp2, "b.json": s2}),
        (["product", "a.json", "b.json"], {"a.json": gp2, "b.json": z2}),
        (["whitney", "a.json", "b.json"], {"a.json": z4, "b.json": z2}),
        (["induced", "a.json", "map.json"], {"a.json": z2, "map.json": {"x": "0", "y": "0"}}),
        (["cayley", "a.json"], {"a.json": s2}),
        (["pair-gg", "a.json"], {"a.json": z4}),
    ]
    codes = set()
    for argv, files in cases:
        labels = sorted({label for doc in files.values() for label in doc.get("elements", [])})
        for _ in range(60):
            edited = rng.choice(sorted(files))
            case = {**files, edited: fuzzed_document(files[edited], rng, labels)}
            for name, doc in case.items():
                (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
            args = [str(tmp_path / a) if a in files else a for a in argv]
            code = main(["build"] + args)
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3) and "Traceback" not in err, (argv, case[edited], err)
            codes.add(code)
    assert {0, 1, 2} <= codes
