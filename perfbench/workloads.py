"""The three workloads: each a list of operations with a known answer.

An operation is one ``groupoids`` CLI command, run in-process through
``groupoids.cli.main(argv)`` with its output captured, or, where the CLI has
no command (``is_isomorphic``), one public library call.  Both are looked up
at call time, so a tracer installed later sees them.

Every answer is derived without the code under test: closed forms and hand
counts from ``inputs``, axiom tags that a mutation guarantees, sha256
digests of ``build`` output pinned when the benchmark was written, and an
isomorphism checker written here.
"""

from __future__ import annotations

import hashlib
import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import combinations, permutations
from pathlib import Path
from typing import Callable, Optional

import groupoids.cli
import groupoids.core
from groupoids import load_groupoid

import inputs

# End-to-end metric that each operation's time adds to.
VERIFY_VALID = "verify_valid_s"
VERIFY_INVALID = "verify_invalid_s"
BUILD = "build_s"
LATTICE = "lattice_s"
MORPHISM = "morphism_s"
ISO = "iso_s"
CATEGORIES = {
    "verify": (VERIFY_VALID, VERIFY_INVALID),
    "build": (BUILD,),
    "search": (LATTICE, MORPHISM, ISO),
}

# sha256 of the stdout of each ``build`` command, pinned at the commit that
# added the benchmark; document bytes are meant to stay stable.  The first
# three print the canonical documents whose digests ``inputs`` pins.
BUILD_DIGESTS = {
    "symmetric 5": inputs.PINS["s5"],
    "alternating 5": inputs.PINS["a5"],
    "pair-vsg 2 4": inputs.PINS["vsg"],
    "cayley s4": "62f9ffc5395d7af78c25d4b270adf9af0d5bbfc47004947c7f8645056028884c",
    "product golden z4": "69f87776c8de9deb9ac328bf8f878520283da58bfc4238cd41cd4dc639d6f47a",
}


def known_answers() -> dict:
    """Expected results, keyed by what they describe.  The self-test swaps
    one for a wrong value to prove that a wrong answer is counted."""
    return {
        "s5": inputs.S5,
        "a5": inputs.A5,
        "vsg.type": (16**2, 16),
        "golden.subgroupoids": inputs.GOLDEN_SUBGROUPOIDS,
        "pair4.subgroupoids": inputs.PAIR4_SUBGROUPOIDS,
        "pair4.normal": inputs.PAIR4_NORMAL,
        # pair(2) x Z4 -> pair(2): the kernel is the 2 units times Z4; by
        # the correspondence theorem the subgroupoids over the kernel match
        # the wide subgroupoids of pair(2), the Bell(2) = 2 equivalence
        # relations, all of them normal; pair(2) has 4 subgroupoids in all.
        "projection": {"kernel": 2 * 4, "wide": inputs.bell(2), "normal": inputs.bell(2),
                       "all": inputs.partial_equivalences(2) - 1},
        "build.digests": dict(BUILD_DIGESTS),
    }


@dataclass
class CliResult:
    code: int
    out: str


@dataclass
class Op:
    name: str
    metric: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when right, else the reason


def cli_call(argv: list[str]) -> Callable[[], CliResult]:
    def call() -> CliResult:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = groupoids.cli.main(argv)
        return CliResult(code, out.getvalue())
    return call


def _expect_code(result: CliResult, code: int) -> Optional[str]:
    if result.code != code:
        return f"exit {result.code}, expected {code}: {result.out[:200]!r}"
    return None


# ----- verify ---------------------------------------------------------------


def expect_text(want: str):
    def check(r: CliResult) -> Optional[str]:
        return _expect_code(r, 0) or (None if r.out == want else f"stdout {r.out[:200]!r}")
    return check


def expect_valid(path: str, kind: str, elements: int, units: int):
    return expect_text(f"ok: {path} is a {kind} groupoid of type ({elements};{units})\n")


VIOLATION = re.compile(r"^  \[([\w-]+)\] witness=")


def expect_only(path: str, kind: str, elements: int, units: int, tag: str):
    """Exit 1, a FAILED header, at least one violation, all tagged ``tag``."""
    header = f"FAILED: {path} is a {kind} groupoid of type ({elements};{units})"

    def check(r: CliResult) -> Optional[str]:
        lines = r.out.splitlines()
        if (err := _expect_code(r, 1)) or lines[:1] != [header] or len(lines) < 2:
            return err or f"stdout {r.out[:200]!r}"
        tags = {m.group(1) if (m := VIOLATION.match(line)) else line for line in lines[1:]}
        return None if tags == {tag} else f"violation tags {sorted(tags)[:5]}, expected [{tag}]"
    return check


def verify_ops(d: Path, answers: dict) -> list[Op]:
    s5, a5 = answers["s5"], answers["a5"]
    n, m = answers["vsg.type"]
    p = {name: str(d / f"{name}.json") for name in ("s5", "a5_g1", "a5_payload", "vsg")}
    return [
        Op("verify s5", VERIFY_VALID, cli_call(["verify", p["s5"]]),
           expect_valid(p["s5"], "quasiperm", s5.elements, s5.units)),
        Op("verify a5 G1 mutant", VERIFY_INVALID, cli_call(["verify", p["a5_g1"]]),
           expect_only(p["a5_g1"], "quasiperm", a5.elements, a5.units, "G1")),
        Op("verify a5 payload mutant", VERIFY_INVALID, cli_call(["verify", p["a5_payload"]]),
           expect_only(p["a5_payload"], "quasiperm", a5.elements, a5.units, "payload")),
        Op("verify vsg", VERIFY_VALID, cli_call(["verify", p["vsg"]]),
           expect_valid(p["vsg"], "vsg", n, m)),
    ]


# ----- build ----------------------------------------------------------------


def expect_digest(digest: str):
    def check(r: CliResult) -> Optional[str]:
        got = hashlib.sha256(r.out.encode("utf-8")).hexdigest()
        return _expect_code(r, 0) or (None if got == digest else f"stdout sha256 {got}")
    return check


def counts_text(n: int, s: inputs.QuasipermSizes, a: inputs.QuasipermSizes) -> str:
    return (f"S_{n}: size {s.elements} = {s.elements}, units {s.units} = {s.units}, "
            f"isotropy {s.isotropy} = {s.isotropy} -> match\n"
            f"A_{n}: size {a.elements} = {a.elements}, units {a.units} = {a.units}, "
            f"isotropy {a.isotropy} = {a.isotropy} -> match\n")


def build_ops(d: Path, answers: dict) -> list[Op]:
    digests = answers["build.digests"]
    s4, golden, z4 = (str(d / f"{name}.json") for name in ("s4", "golden", "z4"))
    commands = {
        "symmetric 5": ["symmetric", "5"],
        "alternating 5": ["alternating", "5"],
        "pair-vsg 2 4": ["pair-vsg", "2", "4"],
        "cayley s4": ["cayley", s4],
        "product golden z4": ["product", golden, z4],
    }
    ops = [Op(f"build {name}", BUILD, cli_call(["build"] + argv), expect_digest(digests[name]))
           for name, argv in commands.items()]
    ops.append(Op("counts 5", BUILD, cli_call(["counts", "5"]),
                  expect_text(counts_text(5, answers["s5"], answers["a5"]))))
    return ops


# ----- search ---------------------------------------------------------------


LISTED = re.compile(r"^  (\d+): \{(.*)\}( \[wide normal\]| \[wide\])?$")


def expect_listing(count: int, normal: bool = False):
    """Header with the known count, then that many distinct member sets,
    each as long as its stated order (and flagged normal when asked)."""
    what = "normal subgroupoids" if normal else "subgroupoids"

    def check(r: CliResult) -> Optional[str]:
        lines = r.out.splitlines()
        if (err := _expect_code(r, 0)) or lines[:1] != [f"{count} {what}"]:
            return err or f"header {lines[:1]}, expected {count} {what}"
        seen = set()
        for line in lines[1:]:
            m = LISTED.match(line)
            members = frozenset(m.group(2).split(", ")) if m else frozenset()
            if (not m or len(members) != int(m.group(1)) or members in seen
                    or (normal and m.group(3) != " [wide normal]")):
                return f"bad listing line {line!r}"
            seen.add(members)
        return None if len(seen) == count else f"{len(seen)} listed, expected {count}"
    return check


def correspondence_text(a: dict) -> str:
    return (f"|kernel| = {a['kernel']}; "
            f"{a['wide']} subgroupoids over the kernel <-> {a['wide']} wide subgroupoids (ok); "
            f"{a['normal']} normal over the kernel <-> {a['normal']} wide normal (ok); "
            f"codomain has {a['all']} subgroupoids in total\n"
            "literal reading over all codomain subgroupoids "
            f"{'also matches' if a['all'] == a['wide'] else 'does not match'}\n")


def loop_labels(n: int) -> set[str]:
    """Labels of the degree-n quasipermutations with range = domain, in the
    text form "k: d1 .. dk -> i1 .. ik"."""
    out = set()
    for k in range(1, n + 1):
        for dom in combinations(range(1, n + 1), k):
            for img in permutations(dom):
                out.add(f"{k}: {' '.join(map(str, dom))} -> {' '.join(map(str, img))}")
    return out


def expect_kernel(count: int, labels: set[str]):
    """The anchor morphism's kernel is the isotropy bundle, which is normal."""
    def check(r: CliResult) -> Optional[str]:
        lines = r.out.splitlines()
        head = f"kernel: {count} elements: {{"
        if (err := _expect_code(r, 0)) or len(lines) != 2 or not lines[0].startswith(head):
            return err or f"stdout {r.out[:200]!r}"
        members = set(lines[0][len(head):-1].split(", "))
        if members != labels:
            return f"kernel differs from the isotropy bundle in {len(members ^ labels)} labels"
        return None if lines[1] == "normal: yes" else f"normality line {lines[1]!r}"
    return check


def isomorphism_error(g, h, f) -> Optional[str]:
    """None when f (a tuple, position x holding the image of x) is a
    groupoid isomorphism g -> h, checked against both tables."""
    n = len(g)
    if not isinstance(f, tuple) or len(f) != n or len(h) != n or sorted(f) != list(range(n)):
        return "not a bijection of the carriers"
    if sorted(f[u] for u in g.units) != sorted(h.units):
        return "units do not map onto units"
    for x in range(n):
        if (f[g.alpha[x]], f[g.beta[x]], f[g.inv[x]]) != (h.alpha[f[x]], h.beta[f[x]], h.inv[f[x]]):
            return f"source, target or inverse not preserved at {x}"
    for x in range(n):
        for y in range(n):
            z = g.mul.get((x, y))
            w = h.mul.get((f[x], f[y]))
            if (z is None) != (w is None) or (z is not None and f[z] != w):
                return f"product not preserved at ({x}, {y})"
    return None


def expect_isomorphism(g, h):
    return lambda f: isomorphism_error(g, h, f)


def expect_none(f) -> Optional[str]:
    return None if f is None else "found a map between non-isomorphic groupoids"


def iso_call(g, h) -> Callable[[], object]:
    return lambda: groupoids.core.is_isomorphic(g, h)


def search_ops(d: Path, answers: dict) -> list[Op]:
    path = {name: str(d / f"{name}.json")
            for name in ("golden", "pair4", "proj", "anchor")}
    iso = {name: load_groupoid(d / f"iso.{name}.json").groupoid
           for name in ("z4z4+z4z4", "z4z4+z2q8", "z2q8+z2q8", "z2q8+z2q8.relabelled")}
    s5 = answers["s5"]
    return [
        Op("subgroupoids golden", LATTICE, cli_call(["subgroupoids", path["golden"]]),
           expect_listing(answers["golden.subgroupoids"])),
        Op("subgroupoids pair4", LATTICE, cli_call(["subgroupoids", path["pair4"]]),
           expect_listing(answers["pair4.subgroupoids"])),
        Op("subgroupoids --normal pair4", LATTICE,
           cli_call(["subgroupoids", "--normal", path["pair4"]]),
           expect_listing(answers["pair4.normal"], normal=True)),
        Op("morphism correspondence projection", LATTICE,
           cli_call(["morphism", "correspondence", path["proj"]]),
           expect_text(correspondence_text(answers["projection"]))),
        # strong: the anchor morphism's unit map is injective
        Op("morphism strong anchor s5", MORPHISM, cli_call(["morphism", "strong", path["anchor"]]),
           expect_text("strong: yes\n")),
        Op("morphism kernel anchor s5", MORPHISM, cli_call(["morphism", "kernel", path["anchor"]]),
           expect_kernel(s5.isotropy, loop_labels(5))),
        # Z4xZ4 is abelian and Z2xQ8 is not, but their invariants agree
        Op("is_isomorphic z4z4+z4z4 z4z4+z2q8", ISO,
           iso_call(iso["z4z4+z4z4"], iso["z4z4+z2q8"]), expect_none),
        Op("is_isomorphic z2q8+z2q8 relabelled", ISO,
           iso_call(iso["z2q8+z2q8"], iso["z2q8+z2q8.relabelled"]),
           expect_isomorphism(iso["z2q8+z2q8"], iso["z2q8+z2q8.relabelled"])),
    ]


MAKERS = {"verify": verify_ops, "build": build_ops, "search": search_ops}


def make_ops(workload: str, inputs_dir: Path, answers: Optional[dict] = None) -> list[Op]:
    return MAKERS[workload](inputs_dir, known_answers() if answers is None else answers)


def pass_order(workload: str, ops: list[Op], rng: random.Random) -> list[Op]:
    """The order of one pass.  ``build`` has fixed inputs (its output bytes
    are pinned), so there the seed shuffles the commands of each pass."""
    if workload != "build":
        return ops
    return rng.sample(ops, len(ops))
