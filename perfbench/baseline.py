"""The degree-5 rows of the ROADMAP baseline table, read from the span files
that traced runs write (``run.py --baseline`` makes them and prints these).

Each row is the median inclusive duration of one layer's top-level spans
inside one named operation, with that span's work counts.
"""

from __future__ import annotations

from statistics import median


def _spans(trace: dict) -> list[dict]:
    spans = [dict(zip(trace["fields"], s)) for s in trace["spans"]]
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        s["nested"] = parent is not None and parent["name"] == s["name"]
        s["op_name"] = trace["ops"][str(s["op"])]
    return spans


def _cell(spans: list[dict], name: str, op: str, work: str = "") -> tuple[str, str]:
    """(median time, work text) of the top-level ``name`` spans in ``op``;
    ``work`` is formatted with the counts of the first such span."""
    found = [s for s in spans if s["name"] == name and s["op_name"] == op and not s["nested"]]
    if not found:
        return "not run", ""
    seconds = median(s["end"] - s["start"] for s in found)
    return f"{seconds:.2f} s", work.format(**found[0]["counts"])


def _memory(trace: dict, function: str) -> str:
    for probe in trace["memory"]:
        if probe["function"] == function:
            peak = probe["peak_bytes"]
            return f", peak {peak / 1e6:.1f} MB traced (~{peak / probe['products']:.0f} B/product)"
    return ""


def rows(traces: dict[str, dict]) -> list[str]:
    verify, build, search = (_spans(traces[w]) for w in ("verify", "build", "search"))

    def row(path: str, what: str, *cells: tuple[str, str], extra: str = "") -> str:
        times = " / ".join(t for t, _ in cells)
        work = " / ".join(w for _, w in cells if w)
        return f"| `{path}` | {what} | {times} | {work}{extra} |"

    return [
        "| Path | Input | Time | Work |",
        "| --- | --- | --- | --- |",
        row("symmetric_groupoid", "degree 5",
            _cell(build, "quasiperm.build", "build symmetric 5", "{products:,} products"),
            extra=_memory(traces["build"], "symmetric_groupoid")),
        row("validate", "degree 5",
            _cell(verify, "core.validate", "verify s5", "{triples:,} composable triples")),
        row("check_quasiperm_payloads", "degree 5",
            _cell(verify, "io.payload_check", "verify s5", "all {pairs:,} ordered pairs")),
        row("canonical_dumps` / `load_groupoid", "degree 5",
            _cell(build, "io.dump", "build symmetric 5", "{bytes:,} bytes"),
            _cell(verify, "io.load", "verify s5")),
        row("alternating_groupoid", "degree 5",
            _cell(build, "quasiperm.build", "build alternating 5", "{products:,} products"),
            extra=_memory(traces["build"], "alternating_groupoid")),
        row("is_strong(anchor_morphism)", "degree 5",
            _cell(search, "morphisms.is_strong", "morphism strong anchor s5", "{pairs:,} pairs")),
        row("enumerate_subgroupoids", "14 / 16 elements",
            _cell(search, "subgroupoids.enumerate", "subgroupoids golden", "{masks:,}"),
            _cell(search, "subgroupoids.enumerate", "subgroupoids pair4", "{masks:,} masks")),
        row("validate_vector_space_groupoid", "GF(2)^4 pair, 256 elements",
            _cell(verify, "structured.validate", "verify vsg", "{products:,} products")),
    ]
