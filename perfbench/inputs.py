"""Seeded input documents for the benchmark workloads, with the closed-form
sizes and pinned digests that keep the load from changing silently.

Every document is first produced in canonical, unshuffled form; its size
(elements, products) is checked against a closed form computed here and
its sha256 against a digest pinned in ``PINS``.  Only then does the seed
reorder elements or choose a mutation, so the seeded variants carry exactly
the pinned load.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path

from groupoids import (
    FiniteGroupoid,
    GroupTable,
    anchor_morphism,
    alternating_groupoid,
    canonical_dumps,
    cyclic_group,
    direct_product,
    disjoint_union,
    from_group,
    pair_groupoid,
    pair_vector_space_groupoid,
    plain_document,
    quasiperm_document,
    symmetric_groupoid,
    vsg_document,
)

WORKLOADS = ("verify", "build", "search")


# ----- closed forms (the known answers; none is read from the library) ----


def bell(n: int) -> int:
    """Number of equivalence relations on n points."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def partial_equivalences(n: int) -> int:
    """Partial equivalence relations on n points, the empty one included:
    the subgroupoids of the pair groupoid on n points, plus the empty set."""
    return sum(comb(n, k) * bell(k) for k in range(n + 1))


def divisor_count(n: int) -> int:
    """Subgroups of the cyclic group of order n."""
    return sum(1 for d in range(1, n + 1) if n % d == 0)


@dataclass(frozen=True)
class QuasipermSizes:
    elements: int
    units: int
    isotropy: int
    products: int


def symmetric_sizes(n: int) -> QuasipermSizes:
    """All injective maps between k-subsets of {1..n}: k! C(n,k)^2 arrows,
    of which k! C(n,k) are loops; (f, g) composes when range f = dom g."""
    return QuasipermSizes(
        elements=sum(factorial(k) * comb(n, k) ** 2 for k in range(1, n + 1)),
        units=2**n - 1,
        isotropy=sum(factorial(k) * comb(n, k) for k in range(1, n + 1)),
        products=sum(comb(n, k) * (factorial(k) * comb(n, k)) ** 2 for k in range(1, n + 1)),
    )


def alternating_sizes(n: int) -> QuasipermSizes:
    """Even maps: the identity alone among the length-1 maps of each point,
    and half of every (domain, range) fibre from length 2 on."""
    half = lambda k: factorial(k) // 2  # noqa: E731
    return QuasipermSizes(
        elements=n + sum(half(k) * comb(n, k) ** 2 for k in range(2, n + 1)),
        units=2**n - 1,
        isotropy=n + sum(half(k) * comb(n, k) for k in range(2, n + 1)),
        products=n + sum(comb(n, k) * (half(k) * comb(n, k)) ** 2 for k in range(2, n + 1)),
    )


S5 = symmetric_sizes(5)
A5 = alternating_sizes(5)
S4 = symmetric_sizes(4)
S2 = symmetric_sizes(2)

# Sizes (elements, products) of every generated document.  The pair
# groupoid on n points has n^2 arrows and n^3 products; a group of order k
# has k^2 products; a disjoint union adds both.
SIZES = {
    "s5": (S5.elements, S5.products),
    "a5": (A5.elements, A5.products),
    "vsg": (16**2, 16**3),
    "s4": (S4.elements, S4.products),
    "z4": (4, 16),
    "pair4": (16, 64),
    "golden": (4 + S2.elements + 4, 8 + S2.products + 16),
    "proj.domain": (4 * 4, 8 * 16),
    "anchor.codomain": (31**2, 31**3),
    "iso.z4z4+z4z4": (32, 2 * 256),
    "iso.z4z4+z2q8": (32, 2 * 256),
    "iso.z2q8+z2q8": (32, 2 * 256),
}

# Subgroupoid counts.  The golden groupoid is pair(2) + S2 + Z4, and S2 is
# itself pair(2) + Z2 (the maps between singletons, and the group at {1,2}):
# a subgroupoid of a disjoint union is a choice of subgroupoid-or-nothing
# per component, minus the all-empty choice: 5 * 15 * 4 - 1 = 299.
GOLDEN_SUBGROUPOIDS = (
    partial_equivalences(2) * partial_equivalences(2) * (divisor_count(2) + 1)
    * (divisor_count(4) + 1) - 1)
PAIR4_SUBGROUPOIDS = partial_equivalences(4) - 1
# In a pair groupoid the isotropy is trivial, so every wide subgroupoid
# (an equivalence relation) is normal.
PAIR4_NORMAL = bell(4)

# sha256 of the canonical, unshuffled bytes of every generated document.
PINS = {
    "s5": "29123368017204c76e3d09340149d424046d56995a6cb14162eaa44c1d495576",
    "a5": "158ac80fddb4c8b92c11c28a56265c7ad2803f29aa761eb835b8c3d10b1159d7",
    "vsg": "5ae262d76872caae3eca2ff5e634b6a9ef11c016bd80d333e99cfbeccb89f52c",
    "s4": "070f33888b04ed9dfc33115d347f7add5cb34e6190650c983e138b4efb8589cd",
    "z4": "3df6be66545345e981443f5bb0ff34cf4bc74ef8a0eed1736e4e1714f9113004",
    "pair4": "e9be25dcc4839f1a7b4841254ba5136f54419319fc15b4b6911b362cf2855296",
    "golden": "30788fef7fd1b0f9a5fb2bb8d8aec1ababdff9a9a8926a929e617377e410ba21",
    "proj": "c10c63ce7988e245063d16358f7c3aeeaf4b38c09ac74f6f8585e56707259f55",
    "anchor": "9d0477a1bccea08eafc49d4d013d44602bd0af0418871610ed19231eb4ce2538",
    "iso.z4z4+z4z4": "4914613fab7ac0eebf06b52af0b1f826c575bd35880b8cecb38d1d82ee20b81f",
    "iso.z4z4+z2q8": "65afbd754b07b2ed69d7156ae9317f593982a9fcc048442ec28f14788273a2a0",
    "iso.z2q8+z2q8": "7eeb377b8c1dd8c0bd7d13ab23b22ed215a79f808ba3fd734e99d89799881a9b",
}


class PinError(RuntimeError):
    """A generated document no longer matches its pinned size or digest."""


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_size(name: str, g: FiniteGroupoid) -> None:
    if (len(g), len(g.mul)) != SIZES[name]:
        raise PinError(f"{name}: size ({len(g)}, {len(g.mul)}), expected {SIZES[name]}")


def _pin(name: str, text: str, g: FiniteGroupoid | None = None) -> str:
    if g is not None:
        _check_size(name, g)
    digest = _digest(text)
    if digest != PINS[name]:
        raise PinError(f"{name}: sha256 {digest}, pinned {PINS[name]}")
    return text


def morphism_dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ----- seeded variants ------------------------------------------------------


def permuted(g: FiniteGroupoid, order: list[int]) -> FiniteGroupoid:
    """The same groupoid with its elements listed in ``order`` (old indices);
    labels and payloads travel with their elements."""
    new = {old: i for i, old in enumerate(order)}
    return FiniteGroupoid(
        elements=[g.elements[x] for x in order],
        units=[new[u] for u in g.units],
        alpha=[new[g.alpha[x]] for x in order],
        beta=[new[g.beta[x]] for x in order],
        inv=[new[g.inv[x]] for x in order],
        mul={(new[x], new[y]): new[z] for (x, y), z in g.mul.items()},
        base_labels=None if g.base_labels is None
        else {new[u]: lbl for u, lbl in g.base_labels.items()},
        payloads=None if g.payloads is None else [g.payloads[x] for x in order],
    )


def shuffled(g: FiniteGroupoid, rng: random.Random) -> FiniteGroupoid:
    order = list(range(len(g)))
    rng.shuffle(order)
    return permuted(g, order)


def _top_block(g: FiniteGroupoid) -> list[int]:
    """Non-units of a degree-5 quasipermutation groupoid whose domain and
    range are all of {1..5}: one anchor fibre, the same size for every seed."""
    return [x for x in range(len(g)) if not g.is_unit(x) and len(g.payloads[x].domain) == 5]


def g1_mutant(g: FiniteGroupoid, rng: random.Random) -> FiniteGroupoid:
    """Retarget one product x*y of two non-units inside its anchor fibre.

    y is not the inverse of x, so neither factor nor product is a unit and
    no identity (G2) or inverse (G3) entry moves; the new value z' has the
    anchor of z, so closure and anchors hold.  With z' != x the triple
    (x, y, inv y) gives (x*y)*inv(y) = z'*inv(y) != x = x*(y*inv(y)): an
    associativity (G1) failure is guaranteed, and it is the only kind.
    """
    block = _top_block(g)
    x, y = rng.sample(block, 2)
    while y == g.inv[x]:
        x, y = rng.sample(block, 2)
    z = g.mul[(x, y)]
    z_new = rng.choice([w for w in block if w not in (z, x)])
    mul = dict(g.mul)
    mul[(x, y)] = z_new
    return FiniteGroupoid(g.elements, g.units, g.alpha, g.beta, g.inv, mul,
                          payloads=g.payloads)


def payload_mutant(g: FiniteGroupoid, rng: random.Random) -> FiniteGroupoid:
    """Swap the payloads of two non-units x, x' with the same anchor.

    The tables are untouched, so the groupoid axioms still hold.  With
    inv(x) outside {x, x'} the product x*inv(x) is a unit while the payloads
    compose to the map of x'*inv(x), which is not an identity: a payload
    failure is guaranteed.
    """
    block = _top_block(g)
    x, x2 = rng.sample(block, 2)
    while g.inv[x] in (x, x2):
        x, x2 = rng.sample(block, 2)
    payloads = list(g.payloads)
    payloads[x], payloads[x2] = payloads[x2], payloads[x]
    return FiniteGroupoid(g.elements, g.units, g.alpha, g.beta, g.inv, g.mul,
                          payloads=payloads)


# ----- the groups for the isomorphism pairs --------------------------------


def quaternion_group() -> GroupTable:
    """Q8 as signed units 1, i, j, k with i^2 = j^2 = k^2 = ijk = -1."""
    units = "1ijk"
    # product of basis units as (sign, unit)
    rule = {
        "11": (1, "1"), "1i": (1, "i"), "1j": (1, "j"), "1k": (1, "k"),
        "i1": (1, "i"), "ii": (-1, "1"), "ij": (1, "k"), "ik": (-1, "j"),
        "j1": (1, "j"), "ji": (-1, "k"), "jj": (-1, "1"), "jk": (1, "i"),
        "k1": (1, "k"), "ki": (1, "j"), "kj": (-1, "i"), "kk": (-1, "1"),
    }
    elems = [(s, u) for s in (1, -1) for u in units]
    index = {e: i for i, e in enumerate(elems)}

    def times(a, b):
        sign, unit = rule[a[1] + b[1]]
        return (a[0] * b[0] * sign, unit)

    table = [[index[times(a, b)] for b in elems] for a in elems]
    return GroupTable.build(
        labels=[("" if s == 1 else "-") + u for s, u in elems],
        table=table,
        identity=0,
        inv=[row.index(0) for row in table],
    )


def iso_groupoids() -> dict[str, FiniteGroupoid]:
    z4 = from_group(cyclic_group(4))
    z4z4 = direct_product(z4, z4)
    z2q8 = direct_product(from_group(cyclic_group(2)), from_group(quaternion_group()))
    return {
        "iso.z4z4+z4z4": disjoint_union(z4z4, z4z4),
        "iso.z4z4+z2q8": disjoint_union(z4z4, z2q8),
        "iso.z2q8+z2q8": disjoint_union(z2q8, z2q8),
    }


def golden_groupoid() -> FiniteGroupoid:
    """The 14-element reference groupoid pair(2) + S2 + Z4."""
    return disjoint_union(pair_groupoid(2), symmetric_groupoid(2), from_group(cyclic_group(4)))


# ----- per-workload generation ---------------------------------------------


def _plain(name: str, g: FiniteGroupoid) -> str:
    return _pin(name, canonical_dumps(plain_document(g)), g)


def _s5(rng: random.Random) -> tuple[FiniteGroupoid, str]:
    """Degree-5 groupoid, pinned in canonical order, written shuffled."""
    s5 = symmetric_groupoid(5)
    _pin("s5", canonical_dumps(quasiperm_document(s5, 5)), s5)
    return s5, canonical_dumps(quasiperm_document(shuffled(s5, rng), 5))


def verify_documents(rng: random.Random) -> dict[str, str]:
    _, s5_text = _s5(rng)
    a5 = alternating_groupoid(5)
    _pin("a5", canonical_dumps(quasiperm_document(a5, 5)), a5)
    vsg = pair_vector_space_groupoid(2, 4)
    return {
        "s5.json": s5_text,
        "a5_g1.json": canonical_dumps(quasiperm_document(g1_mutant(a5, rng), 5)),
        "a5_payload.json": canonical_dumps(quasiperm_document(payload_mutant(a5, rng), 5)),
        "vsg.json": _pin("vsg", canonical_dumps(vsg_document(vsg)), vsg.carrier),
    }


def build_documents(rng: random.Random) -> dict[str, str]:
    """Fixed inputs: ``build`` output bytes are pinned, so the seed orders
    the commands of each pass instead of reshaping these documents."""
    s4 = symmetric_groupoid(4)
    return {
        "s4.json": _pin("s4", canonical_dumps(quasiperm_document(s4, 4)), s4),
        "golden.json": _plain("golden", golden_groupoid()),
        "z4.json": _plain("z4", from_group(cyclic_group(4))),
    }


def _projection_document(domain: FiniteGroupoid, codomain: FiniteGroupoid) -> dict:
    """pair(2) x Z4 -> pair(2); labels of the domain read "((a,b),k)"."""
    return {
        "format_version": 1,
        "domain": plain_document(domain),
        "codomain": plain_document(codomain),
        "f": {lbl: lbl[1:].rsplit(",", 1)[0] for lbl in domain.elements},
    }


def _anchor_document(s5: FiniteGroupoid) -> dict:
    m = anchor_morphism(s5)
    h = m.codomain
    _check_size("anchor.codomain", h)
    return {
        "format_version": 1,
        "domain": {"path": "s5.json"},
        "codomain": plain_document(h),
        "f": {s5.elements[x]: h.elements[m.elem_map[x]] for x in range(len(s5))},
        "f0": {s5.elements[u]: h.elements[v] for u, v in m.unit_map.items()},
    }


def search_documents(rng: random.Random) -> dict[str, str]:
    s5, s5_text = _s5(rng)
    golden = golden_groupoid()
    pair4 = pair_groupoid(4)
    _plain("golden", golden)
    _plain("pair4", pair4)
    p2 = pair_groupoid(2)
    domain = direct_product(p2, from_group(cyclic_group(4)))
    _check_size("proj.domain", domain)
    _pin("proj", morphism_dumps(_projection_document(domain, p2)))
    docs = {
        "s5.json": s5_text,
        "anchor.json": _pin("anchor", morphism_dumps(_anchor_document(s5))),
        "golden.json": canonical_dumps(plain_document(shuffled(golden, rng))),
        "pair4.json": canonical_dumps(plain_document(shuffled(pair4, rng))),
        "proj.json": morphism_dumps(_projection_document(shuffled(domain, rng), p2)),
    }
    isos = iso_groupoids()
    for name, g in isos.items():
        docs[f"{name}.json"] = _plain(name, g)
    docs["iso.z2q8+z2q8.relabelled.json"] = canonical_dumps(
        plain_document(shuffled(isos["iso.z2q8+z2q8"], rng)))
    return docs


GENERATORS = {
    "verify": verify_documents,
    "build": build_documents,
    "search": search_documents,
}


def write_inputs(workload: str, seed: int, out: Path) -> dict[str, str]:
    """Generate one workload's documents into ``out``; returns the sha256 of
    every file written, so repeated set-ups can be compared."""
    docs = GENERATORS[workload](random.Random(f"{workload}:{seed}"))
    out.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, text in docs.items():
        (out / name).write_text(text, encoding="utf-8")
        digests[name] = _digest(text)
    return digests
