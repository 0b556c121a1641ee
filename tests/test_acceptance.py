"""End-to-end gate for the package: ten numbered criteria.

Each test covers one criterion, prints a single PASS/FAIL line (shown under
``pytest -s``; the -v test listing gives the same one-line-per-criterion
verdict), and fails loudly when any of its checks do not hold.
"""

import json
import random
from collections import defaultdict
from pathlib import Path

from groupoids import (
    GroupGroupoid,
    GroupTable,
    GroupoidMorphism,
    alternating_groupoid,
    anchor_morphism,
    canonical_dumps,
    cayley_embed,
    correspondence_check,
    count_formulas,
    cyclic_group,
    direct_product,
    disjoint_union,
    from_group,
    group_as_group_groupoid,
    image,
    induced_canonical_morphism,
    induced_groupoid,
    is_isomorphic,
    is_isomorphism,
    is_strong,
    isotropy_conjugation,
    klein_four_group,
    left_translation_groupoid,
    null_groupoid,
    pair_group_groupoid,
    pair_groupoid,
    pair_vector_space_groupoid,
    plain_document,
    symmetric_groupoid,
    validate,
    validate_group_groupoid,
    validate_group_groupoid_as_morphisms,
    validate_morphism,
    validate_vector_space_groupoid,
    validate_vector_space_groupoid_via_morphisms,
    whitney_sum,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_14_6.json"


def _report(number, ok, text):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d}: {verdict} - {text}")
    assert ok, f"criterion {number:02d}: {text}"


def _corpus():
    golden = disjoint_union(
        pair_groupoid(2), symmetric_groupoid(2), from_group(cyclic_group(4))
    )
    return [
        pair_groupoid(2),
        pair_groupoid(3),
        symmetric_groupoid(2),
        from_group(cyclic_group(4)),
        golden,
        alternating_groupoid(3),
    ]


def test_criterion_01_quasipermutation_counts():
    problems = []
    for n in range(1, 6):
        g = symmetric_groupoid(n)
        counts = count_formulas(n)
        found = (len(g), len(g.units), len(g.isotropy_bundle()))
        wanted = (counts.s_total, counts.s_units, counts.s_isotropy)
        if found != wanted:
            problems.append(f"degree {n}: {found} != {wanted}")
        if n == 2 and found != (6, 3, 4):
            problems.append(f"degree 2 triple is {found}")
    _report(1, not problems, "full quasipermutation groupoid counts match the closed forms for degrees 1..5" + ("" if not problems else f" ({problems})"))


def test_criterion_02_even_quasipermutation_counts():
    problems = []
    for n in range(2, 6):
        g = alternating_groupoid(n)
        counts = count_formulas(n)
        found = (len(g), len(g.units), len(g.isotropy_bundle()))
        wanted = (counts.a_total, counts.a_units, counts.a_isotropy)
        if found != wanted:
            problems.append(f"degree {n}: {found} != {wanted}")
        if n == 3 and found != (15, 7, 9):
            problems.append(f"degree 3 triple is {found}")
    _report(2, not problems, "even quasipermutation groupoid counts match the closed forms for degrees 2..5" + ("" if not problems else f" ({problems})"))


def test_criterion_03_fourteen_element_reference_tables():
    g = disjoint_union(
        pair_groupoid(2), symmetric_groupoid(2), from_group(cyclic_group(4))
    )
    # Hand-transcribed structure tables for the (14;6) reference groupoid,
    # 0-based.  Independent of the construction code above.
    alpha = [0, 1, 0, 1, 4, 5, 6, 4, 5, 6, 10, 10, 10, 10]
    beta = [0, 1, 1, 0, 4, 5, 6, 5, 4, 6, 10, 10, 10, 10]
    inv = [0, 1, 3, 2, 4, 5, 6, 8, 7, 9, 10, 13, 12, 11]
    mul = {
        (0, 0): 0, (0, 2): 2, (1, 1): 1, (1, 3): 3,
        (2, 1): 2, (2, 3): 0, (3, 0): 3, (3, 2): 1,
        (4, 4): 4, (4, 7): 7, (5, 5): 5, (5, 8): 8,
        (6, 6): 6, (6, 9): 9, (7, 5): 7, (7, 8): 4,
        (8, 4): 8, (8, 7): 5, (9, 6): 9, (9, 9): 6,
        (10, 10): 10, (10, 11): 11, (10, 12): 12, (10, 13): 13,
        (11, 10): 11, (11, 11): 12, (11, 12): 13, (11, 13): 10,
        (12, 10): 12, (12, 11): 13, (12, 12): 10, (12, 13): 11,
        (13, 10): 13, (13, 11): 10, (13, 12): 11, (13, 13): 12,
    }
    checks = [
        (len(g), len(g.units)) == (14, 6),
        list(g.units) == [0, 1, 4, 5, 6, 10],
        list(g.alpha) == alpha,
        list(g.beta) == beta,
        list(g.inv) == inv,
        dict(g.mul) == mul,
        g.mul[(2, 3)] == 0,
        g.mul[(8, 7)] == 5,
        g.mul[(12, 13)] == 11,
        (6, 8) not in g.mul,
        validate(g).passed,
        canonical_dumps(plain_document(g)) == GOLDEN_PATH.read_text(),
    ]
    _report(3, all(checks), "the (14;6) disjoint union reproduces every hand-checked table cell")


def test_criterion_04_type_arithmetic():
    problems = []
    for m in (2, 3):
        for n in (2, 3):
            u = disjoint_union(pair_groupoid(m), from_group(cyclic_group(n)))
            p = direct_product(pair_groupoid(m), from_group(cyclic_group(n)))
            if (len(u), len(u.units)) != (m * m + n, m + 1):
                problems.append(f"union {m},{n}")
            if (len(p), len(p.units)) != (m * m * n, m):
                problems.append(f"product {m},{n}")
            if not (validate(u).passed and validate(p).passed):
                problems.append(f"validity {m},{n}")
    _report(4, not problems, "disjoint unions and direct products have the predicted types for m,n in {2,3}")


def test_criterion_05_translation_embedding():
    problems = []
    for g in _corpus():
        c = cayley_embed(g)
        if not validate_morphism(c).passed:
            problems.append("morphism invalid")
        if len(set(c.elem_map)) != len(c.elem_map):
            problems.append("not injective")
        handle = image(c)
        closed = handle.as_groupoid()
        if not validate(closed).passed:
            problems.append("image not closed")
        if not is_isomorphism(c):
            problems.append("not an isomorphism onto the image")
        if is_isomorphic(g, closed) is None:
            problems.append("no isomorphism found")
    _report(5, not problems, "every corpus groupoid embeds isomorphically into its translation groupoid")


def test_criterion_06_order_divisibility_fails():
    s2 = symmetric_groupoid(2)
    bundle = len(s2.isotropy_bundle())
    ok = bundle == 4 and len(s2) == 6 and len(s2) % bundle != 0
    _report(6, ok, "the isotropy bundle of the degree-2 groupoid has order 4, which does not divide 6")


def test_criterion_07_lattice_correspondence():
    gp2 = pair_groupoid(2)
    z2 = from_group(cyclic_group(2))
    z4 = from_group(cyclic_group(4))
    projection = GroupoidMorphism(direct_product(gp2, z2), gp2, [i // 2 for i in range(8)])
    quotient = GroupoidMorphism(z4, z2, [0, 1, 0, 1])
    reports = [correspondence_check(projection), correspondence_check(quotient)]
    ok = all(r.passed for r in reports)
    _report(7, ok, "subgroupoid lattices over the kernel correspond bijectively for both surjections")


def test_criterion_08_strongness():
    problems = []
    for g in _corpus():
        m = anchor_morphism(g)
        if not validate_morphism(m).passed:
            problems.append("anchor invalid")
        if is_strong(m) != (True, None):
            problems.append("anchor not strong")
    z2 = from_group(cyclic_group(2))
    base = z2.unit_base_label(z2.units[0])
    ind = induced_canonical_morphism(z2, {"x": base, "y": base})
    strong, witness = is_strong(ind)
    if strong or witness is None:
        problems.append("doubled-point morphism unexpectedly strong")
    else:
        x, y = witness
        fx, fy = ind.elem_map[x], ind.elem_map[y]
        cod, dom = ind.codomain, ind.domain
        if cod.beta[fx] != cod.alpha[fy]:
            problems.append("witness images not composable")
        if dom.beta[x] == dom.alpha[y]:
            problems.append("witness sources composable")
    _report(8, not problems, "anchor morphisms are strong and the doubled-point morphism is not, with a verified witness")


def test_criterion_09_structured_laws():
    problems = []
    z4 = cyclic_group(4)
    gg = pair_group_groupoid(z4)
    if not (validate_group_groupoid(gg).passed and validate_group_groupoid_as_morphisms(gg).passed):
        problems.append("pair structure over the 4-cycle fails")
    vsg = pair_vector_space_groupoid(2, 2)
    if not (validate_vector_space_groupoid(vsg).passed and validate_vector_space_groupoid_via_morphisms(vsg).passed):
        problems.append("pair vector structure over GF(2)^2 fails")

    valid = [pair_group_groupoid(cyclic_group(k)) for k in (2, 3, 4, 5, 6)]
    valid.append(pair_group_groupoid(klein_four_group()))
    valid.extend(group_as_group_groupoid(cyclic_group(k)) for k in (1, 2, 3, 4))
    valid.append(group_as_group_groupoid(klein_four_group()))
    for inst in valid:
        a = validate_group_groupoid(inst).passed
        b = validate_group_groupoid_as_morphisms(inst).passed
        if not (a and b):
            problems.append("valid instance rejected")
    if len(valid) < 10:
        problems.append("fewer than ten valid instances")

    base = pair_group_groupoid(cyclic_group(2))
    t = base.elem_group
    mutants = 0
    for i in range(4):
        for j in range(4):
            for v in range(4):
                if v == t.table[i][j]:
                    continue
                rows = [list(r) for r in t.table]
                rows[i][j] = v
                bad = GroupGroupoid(
                    base.carrier,
                    GroupTable.build(t.labels, rows, t.identity, t.inv),
                    base.unit_group,
                )
                a = validate_group_groupoid(bad).passed
                b = validate_group_groupoid_as_morphisms(bad).passed
                if a or b:
                    problems.append(f"mutation at ({i},{j})->{v} undetected")
                mutants += 1
    if mutants < 10:
        problems.append("fewer than ten mutated instances")
    _report(9, not problems, "both validation routes agree on valid and mutated structured instances; every addition-cell mutation is caught" + ("" if not problems else f" ({problems[:3]})"))


CHAIN_BASES = [
    pair_groupoid(1),
    pair_groupoid(2),
    pair_groupoid(3),
    null_groupoid(["a", "b"]),
    null_groupoid(["a", "b", "c"]),
    from_group(cyclic_group(2)),
    from_group(cyclic_group(3)),
    from_group(cyclic_group(4)),
    from_group(klein_four_group()),
    symmetric_groupoid(2),
]

CHAIN_CAP = 48


def _random_chain(rng):
    g = rng.choice(CHAIN_BASES)
    for _ in range(rng.randint(0, 3)):
        op = rng.choice(("union", "product", "whitney", "translate", "induced"))
        other = rng.choice(CHAIN_BASES)
        if op == "union":
            candidate = disjoint_union(g, other)
        elif op == "product":
            if len(g) * len(other) > CHAIN_CAP:
                continue
            candidate = direct_product(g, other)
        elif op == "whitney":
            candidate = whitney_sum(g, g)
        elif op == "translate":
            candidate = left_translation_groupoid(g)
        else:
            targets = [g.unit_base_label(u) for u in g.units]
            mapping = {f"q{i}": rng.choice(targets) for i in range(rng.randint(1, 2))}
            candidate = induced_groupoid(g, mapping)
        if len(candidate) <= CHAIN_CAP:
            g = candidate
    return g


def _law_problems(g):
    problems = []
    if not validate(g).passed:
        problems.append("axioms fail")
    for u in g.units:
        if not (g.alpha[u] == u and g.beta[u] == u and g.inv[u] == u and g.mul.get((u, u)) == u):
            problems.append(f"unit {u} not self-fixed")
    for x in range(len(g)):
        if g.inv[g.inv[x]] != x or g.alpha[g.inv[x]] != g.beta[x] or g.beta[g.inv[x]] != g.alpha[x]:
            problems.append(f"inverse laws fail at {x}")
    left = defaultdict(set)
    right = defaultdict(set)
    left_n = defaultdict(int)
    right_n = defaultdict(int)
    for (x, y), z in g.mul.items():
        if g.alpha[z] != g.alpha[x] or g.beta[z] != g.beta[y]:
            problems.append(f"anchors drift at ({x},{y})")
        if g.mul.get((g.inv[y], g.inv[x])) != g.inv[z]:
            problems.append(f"inverse of product fails at ({x},{y})")
        left[x].add(z)
        left_n[x] += 1
        right[y].add(z)
        right_n[y] += 1
    for x in left:
        if len(left[x]) != left_n[x]:
            problems.append(f"left cancellation fails at {x}")
    for y in right:
        if len(right[y]) != right_n[y]:
            problems.append(f"right cancellation fails at {y}")
    for u in g.units:
        try:
            g.isotropy_group(u)
        except ValueError as exc:
            problems.append(str(exc))
    for x in range(min(len(g), 30)):
        mapping = isotropy_conjugation(g, x)
        pairs = 0
        for z1 in mapping:
            for z2 in mapping:
                out = g.mul.get((z1, z2))
                if out is None or mapping[out] != g.mul.get((mapping[z1], mapping[z2])):
                    problems.append(f"conjugation by {x} is not a homomorphism")
                pairs += 1
                if pairs >= 16:
                    break
            if pairs >= 16:
                break
    if g.is_transitive():
        orders = {len(g.isotropy_members(u)) for u in g.units}
        if len(orders) > 1:
            problems.append("transitive but isotropy orders differ")
    m = anchor_morphism(g)
    if not validate_morphism(m).passed or is_strong(m) != (True, None):
        problems.append("anchor morphism misbehaves")
    c = cayley_embed(g)
    if not validate_morphism(c).passed or not is_isomorphism(c):
        problems.append("translation embedding misbehaves")
    return problems


def test_criterion_10_randomized_invariants():
    rng = random.Random(361204)
    problems = []
    cases = 0
    for g in _corpus():
        found = _law_problems(g)
        if found:
            problems.append((cases, found[:2]))
        cases += 1
    while cases < 500:
        g = _random_chain(rng)
        found = _law_problems(g)
        if found:
            problems.append((cases, found[:2]))
        cases += 1
    _report(10, not problems and cases >= 500, f"structural laws hold across {cases} randomized constructor chains" + ("" if not problems else f" ({problems[:3]})"))
