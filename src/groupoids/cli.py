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

from .core import FiniteGroupoid, SizeLimitError, validate
from .constructions import (
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
    _read_json,
    canonical_dumps,
    check_quasiperm_payloads,
    group_groupoid_document,
    load_groupoid,
    load_morphism,
    plain_document,
    quasiperm_document,
    vsg_document,
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


def _print_report(reports: list, header: str) -> int:
    failed = [v for report in reports for v in report.violations]
    if not failed:
        print(f"ok: {header}")
        return 0
    print(f"FAILED: {header}")
    for violation in failed:
        print(f"  {violation}")
    return 1


def cmd_verify(args: argparse.Namespace) -> int:
    parsed = load_groupoid(args.file)
    g = parsed.groupoid
    reports = [validate(g)]
    if reports[0].passed:
        if parsed.kind == "quasiperm":
            reports.append(check_quasiperm_payloads(g))
        elif parsed.kind == "group-groupoid":
            reports.append(_group_groupoid_laws(parsed.group_groupoid))
        elif parsed.kind == "vsg":
            reports.append(_vector_space_laws(parsed.vector_space))
    n, m = g.groupoid_type()
    return _print_report(reports, f"{args.file} is a {parsed.kind} groupoid of type ({n};{m})")


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
    c = count_formulas(n)
    rows = [("S", False, (c.s_total, c.s_units, c.s_isotropy))]
    if n >= 2:
        rows.append(("A", True, (c.a_total, c.a_units, c.a_isotropy)))
    all_ok = True
    for name, even, (total, units, iso) in rows:
        # the counts come from the map list itself; no product table is built
        maps = _enumerate(n, even=even)
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
        return _print_report([validate_morphism(m)], f"{args.file} is a groupoid morphism")
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


def _build_document(args: argparse.Namespace) -> dict:
    what = args.what
    if what == "pair":
        return plain_document(pair_groupoid(args.n))
    if what == "null":
        if args.k < 1:
            raise ValueError("null groupoid needs at least one unit")
        return plain_document(null_groupoid([str(i) for i in range(1, args.k + 1)]))
    if what == "cyclic":
        return plain_document(from_group(cyclic_group(args.n)))
    if what in ("symmetric", "alternating") and args.n > _DOCUMENT_DEGREE_LIMIT:
        raise SizeLimitError(f"degree {args.n} exceeds the bound {_DOCUMENT_DEGREE_LIMIT}")
    if what == "symmetric":
        return quasiperm_document(symmetric_groupoid(args.n), args.n)
    if what == "alternating":
        return quasiperm_document(alternating_groupoid(args.n), args.n)
    if what == "union":
        return plain_document(disjoint_union(*[_load_valid(f) for f in args.files]))
    if what == "product":
        return plain_document(direct_product(_load_valid(args.first), _load_valid(args.second)))
    if what == "whitney":
        return plain_document(whitney_sum(_load_valid(args.first), _load_valid(args.second)))
    if what == "induced":
        g = _load_valid(args.file)
        mapping = _read_json(args.map_file)
        if not isinstance(mapping, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()):
            raise ParseError("map", "expected an object of label pairs")
        return plain_document(induced_groupoid(g, mapping))
    if what == "cayley":
        return plain_document(left_translation_groupoid(_load_valid(args.file)))
    if what == "pair-gg":
        return group_groupoid_document(
            pair_group_groupoid(group_table_of(_load_valid(args.group_file))))
    return vsg_document(pair_vector_space_groupoid(args.p, args.dim))


def cmd_build(args: argparse.Namespace) -> int:
    sys.stdout.write(canonical_dumps(_build_document(args)))
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
    # A command's tables (tuple keys, JSON rows) hold no reference cycles,
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
