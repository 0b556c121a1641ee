"""Command-line surface: build, verify, analyze, and cross-check groupoid
documents.

Exit codes: 0 success, 1 validation or claim failure, 2 parse or usage
error, 3 size bound exceeded.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys

from .core import FiniteGroupoid, SizeLimitError, ValidationReport, validate
from .constructions import (
    _bound_null_units,
    cyclic_group,
    direct_product,
    disjoint_union,
    from_group,
    group_table_of,
    induced_groupoid,
    left_translation_groupoid,
    null_groupoid,
    pair_groupoid,
    whitney_sum,
)
from .io import (
    ParseError,
    ParsedDocument,
    _read_json,
    canonical_dumps,
    check_quasiperm_payloads,
    load_groupoid,
    load_morphism,
)
from .morphisms import (
    correspondence_check,
    image,
    is_strong,
    kernel,
    validate_morphism,
)
from .quasiperm import (
    _enumerate,
    _even,
    alternating_groupoid,
    count_formulas,
    symmetric_groupoid,
)
from .structured import (
    _group_groupoid_laws,
    _vector_space_laws,
    pair_group_groupoid,
    pair_vector_space_groupoid,
)
from .subgroupoids import enumerate_subgroupoids

__all__ = ["main"]

# A degree-6 document would be about 0.6 GB of JSON, so `build` stops at
# degree 5; the library (and `counts`) go up to quasiperm.DEGREE_LIMIT.
_DOCUMENT_DEGREE_LIMIT = 5


def _load_valid(path: str) -> FiniteGroupoid:
    """Parse a document and insist its groupoid validates."""
    parsed = load_groupoid(path)
    validate(parsed.groupoid).require(path)
    return parsed.groupoid


def _print_report(report: ValidationReport, header: str) -> int:
    if report.passed:
        print(f"ok: {header}")
        return 0
    print(f"FAILED: {header}")
    for violation in report.violations:
        print(f"  {violation}")
    return 1


def _verify_report(parsed: ParsedDocument) -> ValidationReport:
    """The report that decides ``verify``: the carrier's violations if it is
    not a groupoid, else those of the document kind's own laws.

    A quasiperm document is decided by its payloads: a passing payload
    check embeds the table in the groupoid of the symmetric inverse
    monoid, so ``validate`` runs only when that check fails, and then its
    violations are reported if it fails too, else the payload check's.
    The parser leaves every index in range and gives every payload the
    document's degree, so the payload check raises nothing."""
    g = parsed.groupoid
    if parsed.kind == "quasiperm":
        payloads = check_quasiperm_payloads(g)
        if payloads.passed:
            return payloads
        carrier = validate(g)
        return payloads if carrier.passed else carrier
    carrier = validate(g)
    if not carrier.passed or parsed.kind == "plain":
        return carrier
    if parsed.kind == "group-groupoid":
        return _group_groupoid_laws(parsed.group_groupoid)
    return _vector_space_laws(parsed.vector_space)


def cmd_verify(args: argparse.Namespace) -> int:
    parsed = load_groupoid(args.file)
    n, m = parsed.groupoid.groupoid_type()
    return _print_report(_verify_report(parsed),
                         f"{args.file} is a {parsed.kind} groupoid of type ({n};{m})")


def cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_valid(args.file)
    n, m = g.groupoid_type()
    print(f"type: ({n};{m})")
    print(f"transitive: {'yes' if g.is_transitive() else 'no'}")
    print("units: " + " ".join(g.elements[u] for u in g.units))
    bundle = 0
    for u in g.units:
        order = len(g.isotropy_members(u))
        bundle += order
        print(f"isotropy at {g.elements[u]}: order {order}")
    print(f"isotropy bundle size: {bundle}")
    return 0


def cmd_subgroupoids(args: argparse.Namespace) -> int:
    g = load_groupoid(args.file).groupoid
    handles = enumerate_subgroupoids(g, normal_only=args.normal)
    what = "normal subgroupoids" if args.normal else "subgroupoids"
    print(f"{len(handles)} {what}")
    for h in handles:
        flags = ""
        if h.is_normal:
            flags = " [wide normal]"
        elif h.is_wide:
            flags = " [wide]"
        print(f"  {h.order}: {{{', '.join(h.labels())}}}{flags}")
    return 0


def cmd_counts(args: argparse.Namespace) -> int:
    n = args.n
    # _enumerate refuses a degree above its bound before the closed forms,
    # which take seconds from a few thousand on; the counts come from the
    # map lists themselves, and no product table is built
    all_maps = _enumerate(n)
    c = count_formulas(n)
    rows = [("S", all_maps, (c.s_total, c.s_units, c.s_isotropy))]
    if n >= 2:
        rows.append(("A", _even(all_maps), (c.a_total, c.a_units, c.a_isotropy)))
    all_ok = True
    for name, maps, (total, units, iso) in rows:
        got = (len(maps), sum(f.is_identity() for f in maps),
               sum(f.domain == tuple(sorted(f.image)) for f in maps))
        ok = got == (total, units, iso)
        print(f"{name}_{n}: size {got[0]} = {total}, units {got[1]} = {units}, "
              f"isotropy {got[2]} = {iso} -> {'match' if ok else 'MISMATCH'}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def cmd_morphism(args: argparse.Namespace) -> int:
    m = load_morphism(args.file)
    if args.action == "verify":
        return _print_report(validate_morphism(m), f"{args.file} is a groupoid morphism")
    if args.action == "strong":
        validate_morphism(m).require(args.file)
        strong, witness = is_strong(m)
        if strong:
            print("strong: yes")
        else:
            x, y = witness
            print(f"strong: no; witness elements "
                  f"{m.domain.elements[x]} and {m.domain.elements[y]}")
        return 0
    if args.action == "kernel":
        h = kernel(m)
        print(f"kernel: {h.order} elements: {{{', '.join(h.labels())}}}")
        print(f"normal: {'yes' if h.is_normal else 'no'}")
        return 0
    if args.action == "image":
        h = image(m)
        print(f"image: {h.order} elements: {{{', '.join(h.labels())}}}")
        return 0
    report = correspondence_check(m)
    print(report.summary())
    print("literal reading over all codomain subgroupoids "
          f"{'also matches' if report.literal_reading_matches else 'does not match'}")
    return 0 if report.passed else 1


def _build(args: argparse.Namespace) -> ParsedDocument:
    what = args.what
    if what in ("symmetric", "alternating"):
        if args.n > _DOCUMENT_DEGREE_LIMIT:
            raise SizeLimitError(f"degree {args.n} exceeds the bound {_DOCUMENT_DEGREE_LIMIT}")
        build = symmetric_groupoid if what == "symmetric" else alternating_groupoid
        return ParsedDocument(build(args.n), "quasiperm")
    if what == "pair-gg":
        gg = pair_group_groupoid(group_table_of(_load_valid(args.group_file)))
        return ParsedDocument(gg.carrier, "group-groupoid", gg)
    if what == "pair-vsg":
        v = pair_vector_space_groupoid(args.p, args.dim)
        return ParsedDocument(v.carrier, "vsg", v.structure, v)
    if what == "pair":
        g = pair_groupoid(args.n)
    elif what == "null":
        if args.k < 1:
            raise ValueError("null groupoid needs at least one unit")
        _bound_null_units(args.k)
        g = null_groupoid([str(i) for i in range(1, args.k + 1)])
    elif what == "cyclic":
        g = from_group(cyclic_group(args.n))
    elif what == "union":
        g = disjoint_union(*[_load_valid(f) for f in args.files])
    elif what == "product":
        g = direct_product(_load_valid(args.first), _load_valid(args.second))
    elif what == "whitney":
        g = whitney_sum(_load_valid(args.first), _load_valid(args.second))
    elif what == "induced":
        g = _load_valid(args.file)
        mapping = _read_json(args.map_file)
        if not isinstance(mapping, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()):
            raise ParseError("map", "expected an object of label pairs")
        g = induced_groupoid(g, mapping)
    else:
        g = left_translation_groupoid(_load_valid(args.file))
    return ParsedDocument(g, "plain")


def cmd_build(args: argparse.Namespace) -> int:
    # a built document is written from its product rows: canonical_dumps
    # takes the ParsedDocument itself, so no triple list is made
    sys.stdout.write(canonical_dumps(_build(args)))
    return 0


# Parsing keeps no state in the parser, so one tree serves every call.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupoids",
        description="Build, validate, and analyze finite groupoids stored as JSON documents.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="validate a groupoid document")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("build", help="construct a groupoid and print its document")
    what = p.add_subparsers(dest="what", required=True)
    q = what.add_parser("pair", help="pair groupoid on n points")
    q.add_argument("n", type=int)
    q = what.add_parser("null", help="null groupoid on k units")
    q.add_argument("k", type=int)
    q = what.add_parser("cyclic", help="cyclic group of order n as a groupoid")
    q.add_argument("n", type=int)
    q = what.add_parser("symmetric", help="groupoid of quasipermutations of degree n")
    q.add_argument("n", type=int)
    q = what.add_parser("alternating", help="groupoid of even quasipermutations")
    q.add_argument("n", type=int)
    q = what.add_parser("union", help="disjoint union of groupoid files")
    q.add_argument("files", nargs="+")
    q = what.add_parser("product", help="direct product of two groupoid files")
    q.add_argument("first")
    q.add_argument("second")
    q = what.add_parser("whitney", help="fibered sum of two groupoids over a shared base")
    q.add_argument("first")
    q.add_argument("second")
    q = what.add_parser("induced", help="pullback along a map file into the base")
    q.add_argument("file")
    q.add_argument("map_file")
    q = what.add_parser("cayley", help="groupoid of left translations")
    q.add_argument("file")
    q = what.add_parser("pair-gg", help="pair group-groupoid on a one-unit groupoid file")
    q.add_argument("group_file")
    q = what.add_parser("pair-vsg", help="pair vector-space groupoid over GF(p)^dim")
    q.add_argument("p", type=int)
    q.add_argument("dim", type=int)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("analyze", help="type, transitivity, and isotropy summary")
    p.add_argument("file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("subgroupoids", help="enumerate subgroupoids of a small groupoid")
    p.add_argument("file")
    p.add_argument("--normal", action="store_true", help="only normal subgroupoids")
    p.set_defaults(func=cmd_subgroupoids)

    p = sub.add_parser("counts", help="closed-form vs enumerated quasipermutation counts")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("morphism", help="verify and analyze a morphism document")
    p.add_argument("action",
                   choices=["verify", "strong", "kernel", "image", "correspondence"])
    p.add_argument("file")
    p.set_defaults(func=cmd_morphism)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # A command's tables (product rows, JSON lists) hold no reference cycles,
    # so the cyclic collector would only rescan them; reference counting
    # still frees them, and the caller's collector state comes back after.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except SizeLimitError as exc:
        print(f"size limit exceeded: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
