"""JSON documents for groupoids and morphisms, with canonical text form.

A groupoid document carries labels only; indices are an implementation
detail.  The partial multiplication is a list of [x, y, xy] triples, one
per defined product; a missing pair means the product is undefined.
Canonical serialization sorts object keys and orders the triples by the
positions of their factors, so equal documents serialize to identical
bytes.

The parsers (``parse_groupoid_document``, ``parse_morphism_document`` and
the two loaders) refuse a document of the wrong shape with ParseError and
leave the laws to the validators: a parsed groupoid may fail ``validate``.
``canonicalize_document`` and ``canonical_dumps`` refuse a dict whose labels
or product tables the parser refuses, with the parser's ParseError.  The
writers (``plain_document``, ``quasiperm_document``,
``group_groupoid_document``, ``vsg_document``, ``document_for``, and
``canonical_dumps`` on a parsed document) trust the tables they write.

``load_groupoid`` reads a file through a window on its text
(``_Window``): chunks of 256K characters are read in text mode, so
newlines read as ``Path.read_text`` reads them, and each read first drops
the text already taken.  A walker steps through the top-level object and
leaves each member to the stdlib decoder, except the product tables
(``mul``, ``add``, ``unit_add``): those are decoded in slices of about 64K
characters, each cut at the first "]," after them and cut again at the
first one outside strings only when it does not decode, and each slice's
labels go straight into rows, one row lookup per run of entries with the
same first label, so neither the text nor a tree of every cell is ever held
whole.  On the degree-5
symmetric document (13.2 MB) the tracemalloc peak is 0.56 times the text:
7.4 MB, of which the parsed groupoid keeps 5.6 MB.  ``load_morphism``
reads an inline endpoint the same way, and has read its own text through
before it loads an endpoint given by path.  A file the walker does not
take as-is (a top level that is not an object, a table entry that is not
three strings, a repeated pair, a label outside its index, malformed text,
bytes that are not UTF-8) is read again and decoded whole, and a file that
cannot be read twice (a pipe) is decoded whole at once.  Only that
fallback holds the whole text, and it makes every result and ParseError
that of ``parse_groupoid_document(json.loads(text))``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain
from json.decoder import scanstring
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

from .core import FiniteGroupoid, GroupTable
from .morphisms import GroupoidMorphism
from .quasiperm import Quasipermutation, check_quasiperm_payloads
from .structured import GroupGroupoid, VectorSpaceGroupoid

__all__ = [
    "FORMAT_VERSION",
    "KINDS",
    "ParseError",
    "ParsedDocument",
    "canonical_dumps",
    "canonicalize_document",
    "check_quasiperm_payloads",
    "document_for",
    "group_groupoid_document",
    "load_groupoid",
    "load_morphism",
    "parse_groupoid_document",
    "parse_morphism_document",
    "plain_document",
    "quasiperm_document",
    "vsg_document",
]

FORMAT_VERSION = 1
KINDS = ("plain", "quasiperm", "group-groupoid", "vsg")


class ParseError(Exception):
    """A malformed document; field names the offending part."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


@dataclass
class ParsedDocument:
    """A parsed groupoid document: the groupoid plus any structured extras
    the kind carries."""

    groupoid: FiniteGroupoid
    kind: str
    group_groupoid: Optional[GroupGroupoid] = None
    vector_space: Optional[VectorSpaceGroupoid] = None


def _require(data: dict, field: str, kind: type):
    if field not in data:
        raise ParseError(field, "missing required field")
    value = data[field]
    # JSON true and false decode to bool, which Python counts as an int
    if not isinstance(value, kind) or (kind is int and type(value) is bool):
        raise ParseError(field, f"expected {kind.__name__}")
    return value


def _string_list(data: dict, field: str) -> list[str]:
    value = _require(data, field, list)
    for i, item in enumerate(value):
        if not isinstance(item, str):
            raise ParseError(f"{field}[{i}]", "expected a string")
    return value


def _label_map(data: dict, field: str, keys: dict[str, int],
               values: dict[str, int]) -> list[int]:
    """Read an object from the labels of ``keys`` to labels of ``values``
    into the value indices, in key order.  An unknown key, a value that is
    not a label of ``values`` or a missing key raises ParseError."""
    value = _require(data, field, dict)
    for k, v in value.items():
        if k not in keys:
            raise ParseError(field, f"unknown label {k!r}")
        if not isinstance(v, str) or v not in values:
            raise ParseError(field, f"unknown label {v!r} under key {k!r}")
    # every key is known, so a key is missing exactly when the sizes differ
    if len(value) != len(keys):
        missing = next(k for k in keys if k not in value)
        raise ParseError(field, f"missing entry for {missing!r}")
    return [values[value[k]] for k in keys]


def _label_triples(
    data: dict, field: str, index: dict[str, int], third: str
) -> list[dict[int, int]]:
    """Read a list of [x, y, third] label triples into rows, {y: third} at
    the position of x; a malformed, unknown or repeated entry raises
    ParseError.

    Well-formed lists are read in one pass; anything else is reread entry
    by entry to name the first bad one.  A table that ``load_groupoid``
    read from text is mapped onto ``index`` (``_table_rows``)."""
    if type(data.get(field)) is _Table:
        return _table_rows(data[field], index)
    triples = _require(data, field, list)
    rows: list[dict[int, int]] = [{} for _ in index]
    try:
        _fill_rows(triples, index, rows, _NO_LABEL, None)
        # a 3-character string or a 3-key object also unpacks into three labels
        if sum(map(len, rows)) == len(triples) and set(map(type, triples)) <= {list}:
            return rows
    except (KeyError, TypeError, ValueError):
        pass
    rows = [{} for _ in index]
    for i, triple in enumerate(triples):
        if (not isinstance(triple, list) or len(triple) != 3
                or not all(isinstance(t, str) for t in triple)):
            raise ParseError(f"{field}[{i}]", f"expected a [x, y, {third}] label triple")
        x, y, z = triple
        for lbl in (x, y, z):
            if lbl not in index:
                raise ParseError(f"{field}[{i}]", f"unknown label {lbl!r}")
        row = rows[index[x]]
        if index[y] in row:
            raise ParseError(f"{field}[{i}]", f"duplicate triple for ({x!r}, {y!r})")
        row[index[y]] = index[z]
    return rows


def _group_fields(data: dict, prefix: str, index: dict[str, int]) -> GroupTable:
    """Read add/zero/neg style fields (optionally prefixed) into a group
    table over the labels of ``index``."""
    labels = list(index)
    table = []
    for x, row in enumerate(_label_triples(data, f"{prefix}add", index, "sum")):
        try:
            table.append([row[y] for y in range(len(labels))])
        except KeyError as exc:
            # rows are read in order, so this is the first missing pair
            raise ParseError(f"{prefix}add", f"missing entry for "
                             f"({labels[x]!r}, {labels[exc.args[0]]!r})") from None
    zero = _require(data, f"{prefix}zero", str)
    if zero not in index:
        raise ParseError(f"{prefix}zero", f"unknown label {zero!r}")
    return GroupTable.build(
        labels=labels,
        table=table,
        identity=index[zero],
        inv=_label_map(data, f"{prefix}neg", index, index),
    )


def _scalar_fields(data: dict, field: str, p: int,
                   index: dict[str, int]) -> list[list[int]]:
    """Read the rows "0" .. "p-1" of a scalar field, each a label map over
    ``index``; an error names the field and the row."""
    rows = _require(data, field, dict)
    try:
        return [_label_map(rows, str(k), index, index) for k in range(p)]
    except ParseError as exc:
        raise ParseError(field, f"row {exc.field}: {exc.message}") from None


def _refuse_other_rows(data: dict, field: str, p: int) -> None:
    """Refuse a row key of a scalar field other than "0" .. "p-1", once all
    of those have been read: another key is there exactly when the sizes
    differ."""
    rows = data[field]
    if len(rows) != p:
        wanted = {str(k) for k in range(p)}
        raise ParseError(field, f"unknown row {next(k for k in rows if k not in wanted)!r}")


def _check_header(data: Any) -> None:
    """Insist on a JSON object with the supported format_version."""
    if not isinstance(data, dict):
        raise ParseError("document", "expected a JSON object")
    version = _require(data, "format_version", int)
    if version != FORMAT_VERSION:
        raise ParseError("format_version", f"unsupported version {version}")


def _payloads(data: dict, count: int) -> list[Quasipermutation]:
    """Read the degree and the payload texts of a quasiperm document, one
    per element."""
    degree = _require(data, "degree", int)
    if degree < 1:
        raise ParseError("degree", "must be at least 1")
    texts = _string_list(data, "payloads")
    if len(texts) != count:
        raise ParseError("payloads", "must be parallel to elements")
    read = Quasipermutation.text_reader(degree)
    payloads = []
    for i, text in enumerate(texts):
        try:
            payloads.append(read(text))
        except ValueError as exc:
            raise ParseError(f"payloads[{i}]", str(exc)) from exc
    return payloads


def _labels(data: dict) -> tuple[list[str], dict[str, int], list[str]]:
    """The element labels of a document, the position of each, and its unit
    labels.  Labels that are not unique strings, an empty list or a unit
    outside the elements raise ParseError."""
    elements = _string_list(data, "elements")
    if not elements:
        raise ParseError("elements", "must not be empty")
    index = {lbl: i for i, lbl in enumerate(elements)}
    if len(index) != len(elements):
        raise ParseError("elements", "labels must be unique")
    units = _string_list(data, "units")
    for i, u in enumerate(units):
        if u not in index:
            raise ParseError(f"units[{i}]", f"unknown label {u!r}")
    if len(set(units)) != len(units):
        raise ParseError("units", "unit labels must be unique")
    if not units:
        raise ParseError("units", "must not be empty")
    return elements, index, units


def parse_groupoid_document(data: Any) -> ParsedDocument:
    """Build a groupoid (and structured extras) from a decoded document.
    Shape problems raise ParseError; mathematical defects are left for the
    validators."""
    _check_header(data)
    kind = data.get("kind", "plain")
    if kind not in KINDS:
        raise ParseError("kind", f"unknown kind {kind!r}")
    elements, index, units = _labels(data)
    alpha = _label_map(data, "alpha", index, index)
    beta = _label_map(data, "beta", index, index)
    inv = _label_map(data, "inv", index, index)
    rows = _label_triples(data, "mul", index, "product")
    base_labels = None
    if "base_labels" in data:
        raw = _require(data, "base_labels", dict)
        base_labels = {}
        unit_set = set(units)
        for k, v in raw.items():
            if k not in unit_set:
                raise ParseError("base_labels", f"key {k!r} is not a unit")
            if not isinstance(v, str):
                raise ParseError("base_labels", f"value for {k!r} must be a string")
            base_labels[index[k]] = v
    payloads = _payloads(data, len(elements)) if kind == "quasiperm" else None
    try:
        groupoid = FiniteGroupoid._typed(
            elements=elements,
            units=[index[u] for u in units],
            alpha=alpha,
            beta=beta,
            inv=inv,
            rows=rows,
            base_labels=base_labels,
            payloads=payloads,
        )
        parsed = ParsedDocument(groupoid, kind)
        if kind in ("group-groupoid", "vsg"):
            unit_index = {elements[u]: i for i, u in enumerate(groupoid.units)}
            parsed.group_groupoid = GroupGroupoid(
                groupoid, _group_fields(data, "", index), _group_fields(data, "unit_", unit_index))
        if kind == "vsg":
            p = _require(data, "p", int)
            parsed.vector_space = VectorSpaceGroupoid(
                parsed.group_groupoid,
                p,
                _scalar_fields(data, "scalar", p, index),
                _scalar_fields(data, "unit_scalar", p, unit_index),
            )
            # after the constructor, so that a p that is no field size is
            # reported as such, not as rows beyond it
            for field in ("scalar", "unit_scalar"):
                _refuse_other_rows(data, field, p)
    except ValueError as exc:
        raise ParseError("document", str(exc)) from exc
    return parsed


# ----- reading document text -----------------------------------------------

_DECODER = json.JSONDecoder()
_SPACE = re.compile(r"[ \t\n\r]*")  # JSON whitespace, as the decoder skips it
_CUT = re.compile(r"\][ \t\n\r]*,")
_ESCAPED_QUOTE = re.compile(r'(?<!\\)(?:\\\\)*\\"')  # after an odd run of backslashes
_SLICE = 1 << 16
# characters per read of a file: a text-mode read of c characters peaks near
# 3c (the bytes, their decoded text and the piece returned)
_CHUNK = 1 << 18
# the product tables of a groupoid document, each with the field of its labels
_TABLES = {"mul": "elements", "add": "elements", "unit_add": "units"}
_NO_LABEL = object()  # unequal to every label: the first entry looks its row up


class _Reread(Exception):
    """Text the walker does not take as-is: decode it whole instead."""


class _Window:
    """The text of an open file from the reader's position on, read in
    chunks.  ``text[pos:]`` is read but not yet taken; ``more`` forgets the
    text before ``pos`` and reads on.  A scan whose value runs past the
    window is done again once more is read, so each read takes a chunk or
    as much as the window holds, whichever is more: the window doubles
    while it holds a long value, which is then scanned about twice over in
    all."""

    __slots__ = ("file", "text", "pos", "eof")

    def __init__(self, file):
        self.file, self.text, self.pos, self.eof = file, "", 0, False

    def more(self) -> None:
        rest = self.text[self.pos:]
        self.text, self.pos = "", 0  # let the used text go before the next chunk comes
        chunk = self.file.read(max(_CHUNK, len(rest)))
        self.eof = not chunk
        self.text = rest + chunk

    def next(self) -> str:
        """The next character that is not JSON whitespace, with the position
        moved to it; "" at the end of the file."""
        while True:
            self.pos = _SPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text) or self.eof:
                return self.text[self.pos:self.pos + 1]
            self.more()

    def take(self, scan) -> Any:
        """The value ``scan(text, pos)`` reads, with the position moved past
        it, once the window holds three characters after its end or the
        file ends (a number such as "1e+5" may go on past a window that
        ends in "1e+").  A scan that may have failed only because the window
        cut its value off (``_cut_off``) is done again on more text; any
        other error, and every error at the end of the file, passes through."""
        while True:
            try:
                value, end = scan(self.text, self.pos)
                if self.eof or end + 2 < len(self.text):
                    self.pos = end
                    return value
            except (ValueError, StopIteration) as exc:
                if self.eof or not _cut_off(exc, len(self.text)):
                    raise
            self.more()

    def cut(self, outside_strings: bool = False) -> Optional[re.Match]:
        """The first _CUT at or after ``pos + _SLICE``, or None when the file
        ends first.  With ``outside_strings``, the first one with an even
        number of string quotes between ``pos`` and it, so that it lies
        outside strings (a "]," inside a label is passed over)."""
        while True:
            text, start, odd = self.text, self.pos, 0
            cut = _CUT.search(text, start + _SLICE)
            while cut and outside_strings:
                odd ^= _string_quotes(text, start, cut.start()) & 1
                if not odd:
                    break
                start, cut = cut.start(), _CUT.search(text, cut.end())
            if cut or self.eof:
                return cut
            self.more()


def _cut_off(exc: Exception, size: int) -> bool:
    """Whether a scan of a window of ``size`` characters may have failed for
    lack of text alone: on a string it leaves open, or where a literal as
    long as "-Infinity" can be cut.  Any other error stays one on more text."""
    if isinstance(exc, StopIteration):
        return size - exc.value < len("-Infinity")
    return isinstance(exc, json.JSONDecodeError) and (
        exc.msg.startswith("Unterminated string") or size - exc.pos < len("-Infinity"))


def _string_quotes(text: str, start: int, end: int) -> int:
    """The number of quotes in ``text[start:end]`` that open or close a
    string, for a span in which no run of backslashes is cut off."""
    n = text.count('"', start, end)
    if text.find("\\", start, end) >= 0:
        n -= len(_ESCAPED_QUOTE.findall(text, start, end))
    return n


def _read_slice(text: str, pos: int, cut: Optional[re.Match]) -> tuple[list, Optional[int]]:
    """The entries of a table's slice from ``pos`` to ``cut``, and None
    when ``"[" + slice + "]"`` decodes; else, when the list ends first, the
    entries that ``"[" + slice`` decodes to and the position past its end.
    Text that neither decodes raises the decoder's error."""
    part = text[pos:cut.start() + 1] if cut else text[pos:]
    if cut:
        try:
            return _DECODER.decode("[" + part + "]"), None
        except ValueError:
            pass
    entries, end = _DECODER.raw_decode("[" + part)
    return entries, pos + end - 1


def _fill_rows(entries: list, ids: dict, rows: list, last: Any, row: Any) -> tuple[Any, Any]:
    """Put each [x, y, z] entry into ``rows`` as ``rows[ids[x]][ids[y]] =
    ids[z]``, looking a row up once per run of equal first labels: the
    lookup goes by equality too, so a run is one row.  ``row`` is the row of
    ``last``, the first label of the entry before; the last entry's are
    returned.  A label outside ``ids`` raises KeyError, and one that cannot
    be a key TypeError."""
    for x, y, z in entries:
        if x != last:
            row, last = rows[ids[x]], x
        row[ids[y]] = ids[z]
    return last, row


def _read_table(src: _Window, seed: Any) -> _Table:
    """Read the triple list that opens at the window's position into a
    table over its labels, with the position moved past the list.  The
    labels are ``seed``, the labels field as far as the document has given
    it, then each other label as it first appears, so that the rows come
    out over the parser's own index when ``seed`` is that field.  (The
    parser checks that field before it reads the table.)  A label that is
    no string is kept too; ``_table_rows`` finds it in no index.

    The list is decoded in slices of about ``_SLICE`` characters, so no
    tree of every cell is ever made, and each slice ends at the first cut
    (``_Window.cut``) after them.  The slice is taken when ``"[" + slice +
    "]"`` decodes: the decoder reads the slice as it reads the whole text,
    so the cut then lies right after an entry of this list.  Otherwise the
    list may end before the cut, and decoding ``"[" + slice`` reads its
    last entries and finds its end.  A cut inside a string leaves the slice
    ending inside that string, so neither decodes; only then is the slice
    cut again at the first cut outside strings, which keeps a label holding
    "]," off the whole-text read.  An entry that is not three strings, a
    repeated pair, or text the decoder refuses raises _Reread or the
    decoder's error.  The entries go into rows by ``_fill_rows``, one row
    lookup per run of equal first labels, runs crossing slices too."""
    labels = list(seed)
    ids = dict(zip(labels, range(len(labels))))
    rows: list[dict[int, int]] = [{} for _ in labels]
    size, last, row = 0, _NO_LABEL, None
    src.pos += 1
    while True:
        cut = src.cut()
        try:
            entries, end = _read_slice(src.text, src.pos, cut)
        except ValueError:
            if cut is None:
                raise
            cut = src.cut(outside_strings=True)
            entries, end = _read_slice(src.text, src.pos, cut)
        if end is not None and size and not entries:  # a "," before the closing "]"
            raise _Reread
        if not set(map(type, entries)) <= {list}:
            raise _Reread
        try:
            last, row = _fill_rows(entries, ids, rows, last, row)
        except KeyError:  # labels first seen here: give them ids, then read the slice again
            for label in chain.from_iterable(entries):
                if label not in ids:
                    ids[label] = len(labels)
                    labels.append(label)
                    rows.append({})
            last, row = _fill_rows(entries, ids, rows, _NO_LABEL, None)
        size += len(entries)
        if end is not None:
            src.pos = end
            break
        src.pos = cut.end()
    if sum(map(len, rows)) != size:  # a repeated pair
        raise _Reread
    return _Table(labels, rows)


def _table_rows(t: _Table, index: dict[str, int]) -> list[dict[int, int]]:
    """The rows of a table read from text, over ``index``.  A label outside
    ``index`` raises _Reread, so that the entry-by-entry reader names the
    first bad entry."""
    if t.labels == list(index):
        return t.rows
    remap = [index.get(lbl) for lbl in t.labels]
    if None in remap:
        raise _Reread
    rows: list[dict[int, int]] = [{} for _ in index]
    for x, row in zip(remap, t.rows):
        rows[x] = {remap[y]: remap[z] for y, z in row.items()}
    return rows


def _object(src: _Window, tables: dict[str, str], endpoints: tuple[str, ...] = ()) -> dict:
    """The JSON object that opens at the window's next character, as the
    decoder reads it, with the position moved past it.  A member named in
    ``tables`` that is a list is read by ``_read_table``, and one named in
    ``endpoints`` that is an object is read as a groupoid document; the
    decoder reads every other member.  A repeated key keeps its first place
    and its last value, as in the decoder.  Text that is not an object
    raises _Reread, and malformed text the decoder's error."""
    if src.next() != "{":
        raise _Reread
    src.pos += 1
    data: dict[str, Any] = {}
    c = src.next()
    if c == "}":
        src.pos += 1
        return data
    while True:
        if c != '"':
            raise _Reread
        src.pos += 1
        key = src.take(scanstring)
        if src.next() != ":":
            raise _Reread
        src.pos += 1
        c = src.next()
        if key in tables and c == "[":
            data[key] = _read_table(src, data.get(tables[key], ()))
        elif key in endpoints and c == "{":
            data[key] = _object(src, _TABLES)
        else:
            data[key] = src.take(_DECODER.scan_once)
        c = src.next()
        if c == "}":
            src.pos += 1
            return data
        if c != ",":
            raise _Reread
        src.pos += 1
        c = src.next()


def _walk(path: str | Path, tables: dict[str, str], endpoints: tuple[str, ...] = ()) -> dict:
    """What ``json.loads`` gives for the text of a document file, with its
    product tables read by ``_read_table`` (see ``_object``).  The file is
    read through a ``_Window`` in text mode, so its newlines are read as
    ``Path.read_text`` reads them.  Any text that this reader does not take
    as-is raises _Reread, and so does text that is not UTF-8: the chunked
    decoder counts the position of a bad byte from its chunk.  OSError
    passes through."""
    with open(path, encoding="utf-8") as file:
        src = _Window(file)
        try:
            data = _object(src, tables, endpoints)
            rest = src.next()
        except (ValueError, TypeError, StopIteration, RecursionError):
            raise _Reread from None
    if rest:
        raise _Reread
    return data


def _read_text(path: str | Path) -> str:
    """The text of a file; text that is not UTF-8 raises
    ParseError("json", ...), and OSError passes through."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("json", str(exc)) from exc


def _decode(text: str) -> Any:
    """Decode JSON text whole.  Text that is not JSON, an integer too long
    for ``int`` (over 4,300 digits by default) or nesting too deep for the
    decoder raises ParseError("json", ...)."""
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or int's limit on digits
        raise ParseError("json", str(exc)) from exc
    except RecursionError as exc:
        raise ParseError("json", "nested too deeply") from exc


def _read_json(path: str | Path) -> Any:
    """Read and decode a JSON file whole (see ``_read_text`` and
    ``_decode``)."""
    return _decode(_read_text(path))


def _load(path: str | Path, parse, tables: dict[str, str],
          endpoints: tuple[str, ...] = ()) -> Any:
    """``parse`` of the document in a file, walked through a window
    (``_walk``); a file the walker does not take as-is is read again and
    decoded whole.  A file that is not a regular one, such as a pipe,
    cannot be read twice, so it is decoded whole at once."""
    if Path(path).is_file():
        try:
            return parse(_walk(path, tables, endpoints))
        except _Reread:
            pass  # out of the handler first, so that the walk's frames are gone
    return parse(_read_json(path))


def load_groupoid(path: str | Path) -> ParsedDocument:
    """Read a groupoid document file.  The result, and any ParseError, is
    that of ``parse_groupoid_document(json.loads(text))``, but the file is
    read through a window and its product tables slice by slice
    (``_load``)."""
    return _load(path, parse_groupoid_document, _TABLES)


# ----- serialization -------------------------------------------------------


@dataclass(slots=True)
class _Table:
    """A product table over ``labels``: ``rows[x]`` is {y: xy} with its keys
    in any order, or the dense sequence of every xy.  The writers write one,
    and ``load_groupoid`` reads each triple list of a document into one.
    Its [x, y, xy] label triples are read off row by row, each row's y
    positions in order, which is canonical order, so no triple list needs to
    be made or sorted."""

    labels: Sequence[str]
    rows: Sequence

    def pairs(self, x: int) -> tuple[Iterable[int], Iterable[int]]:
        """The y positions of row x in order, and their products."""
        row = self.rows[x]
        if type(row) is dict:
            ys = sorted(row)
            return ys, map(row.__getitem__, ys)
        return range(len(row)), row

    def triples(self) -> list[list[str]]:
        labels = self.labels
        return [[labels[x], labels[y], labels[z]]
                for x in range(len(self.rows)) for y, z in zip(*self.pairs(x))]


def _plain_fields(g: FiniteGroupoid) -> dict:
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "kind": "plain",
        "elements": list(g.elements),
        "units": [g.elements[u] for u in g.units],
        "alpha": {g.elements[x]: g.elements[g.alpha[x]] for x in range(len(g))},
        "beta": {g.elements[x]: g.elements[g.beta[x]] for x in range(len(g))},
        "inv": {g.elements[x]: g.elements[g.inv[x]] for x in range(len(g))},
        "mul": _Table(g.elements, g.rows),
    }
    if g.base_labels is not None:
        doc["base_labels"] = {g.elements[u]: lbl for u, lbl in g.base_labels.items()}
    return doc


def _quasiperm_fields(g: FiniteGroupoid, degree: int) -> dict:
    if g.payloads is None:
        raise ValueError("groupoid carries no quasipermutation payloads")
    doc = _plain_fields(g)
    doc["kind"] = "quasiperm"
    doc["degree"] = degree
    doc["payloads"] = [f.text_form() for f in g.payloads]
    return doc


def _group_groupoid_fields(gg: GroupGroupoid) -> dict:
    doc = _plain_fields(gg.carrier)
    doc["kind"] = "group-groupoid"
    for prefix, t in (("", gg.elem_group), ("unit_", gg.unit_group)):
        doc[f"{prefix}add"] = _Table(t.labels, t.table)
        doc[f"{prefix}zero"] = t.labels[t.identity]
        doc[f"{prefix}neg"] = {t.labels[x]: t.labels[t.inv[x]] for x in range(t.order)}
    return doc


def _vsg_fields(v: VectorSpaceGroupoid) -> dict:
    doc = _group_groupoid_fields(v.structure)
    g = v.carrier
    doc["kind"] = "vsg"
    doc["p"] = v.p
    doc["scalar"] = {
        str(k): {g.elements[x]: g.elements[v.scalar[k][x]] for x in range(len(g))}
        for k in range(v.p)
    }
    unit_labels = [g.elements[u] for u in g.units]
    doc["unit_scalar"] = {
        str(k): {unit_labels[i]: unit_labels[v.unit_scalar[k][i]]
                 for i in range(len(unit_labels))}
        for k in range(v.p)
    }
    return doc


def _fields(parsed: ParsedDocument) -> dict:
    """The fields of a parsed document's kind, product tables as tables.
    Raises ValueError on an unknown kind, or when the document lacks the
    part its kind is written from."""
    kind, g = parsed.kind, parsed.groupoid
    if kind == "plain":
        return _plain_fields(g)
    if kind == "quasiperm" and g.payloads is not None:
        return _quasiperm_fields(g, g.payloads[0].degree)
    if kind == "group-groupoid" and parsed.group_groupoid is not None:
        return _group_groupoid_fields(parsed.group_groupoid)
    if kind == "vsg" and parsed.vector_space is not None:
        return _vsg_fields(parsed.vector_space)
    parts = {"quasiperm": "quasipermutation payloads", "group-groupoid": "group-groupoid",
             "vsg": "vector space"}
    if kind in parts:
        raise ValueError(f"document of kind {kind!r} carries no {parts[kind]}")
    raise ValueError(f"unknown document kind {kind!r}")


def _with_triples(doc: dict) -> dict:
    """The dict form of a document: each product table as its triple list."""
    return {k: v.triples() if type(v) is _Table else v for k, v in doc.items()}


def plain_document(g: FiniteGroupoid) -> dict:
    return _with_triples(_plain_fields(g))


def quasiperm_document(g: FiniteGroupoid, degree: int) -> dict:
    return _with_triples(_quasiperm_fields(g, degree))


def group_groupoid_document(gg: GroupGroupoid) -> dict:
    return _with_triples(_group_groupoid_fields(gg))


def vsg_document(v: VectorSpaceGroupoid) -> dict:
    return _with_triples(_vsg_fields(v))


def document_for(parsed: ParsedDocument) -> dict:
    """Serialize a parsed document back to its dict form."""
    return _with_triples(_fields(parsed))


def _read_tables(doc: dict) -> dict:
    """``doc`` with its units in element order and each triple list read
    into a table by the parser's readers, which write in canonical order;
    their ParseError where they refuse the labels or a triple list."""
    elements, index, units = _labels(doc)
    out = dict(doc)
    out["units"] = units = sorted(units, key=index.__getitem__)
    out["mul"] = _Table(elements, _label_triples(doc, "mul", index, "product"))
    if "add" in doc:
        out["add"] = _Table(elements, _label_triples(doc, "add", index, "sum"))
    if "unit_add" in doc:
        unit_index = {lbl: i for i, lbl in enumerate(units)}
        out["unit_add"] = _Table(units, _label_triples(doc, "unit_add", unit_index, "sum"))
    return out


def canonicalize_document(doc: dict) -> dict:
    """Deterministic form: mul, add and unit_add triples ordered by factor
    positions, units by element position (``_read_tables``).  Labels or a
    triple list that the parser refuses raise its ParseError."""
    return _with_triples(_read_tables(doc))


class _Encoded(dict):
    """The JSON text of each string, encoded on first use."""

    def __missing__(self, s: str) -> str:
        text = self[s] = json.dumps(s)
        return text


def _write_table(t: _Table, indent: str, enc: _Encoded, out: list[str]) -> None:
    """Append the pieces of a table's triple list.  A triple is the head,
    mid and tail of its three labels, made once per label; each head
    begins with the separator, cut from the first triple's."""
    inner = indent + "  "
    cell = inner + "  "
    labels = [enc[s] for s in t.labels]
    heads = [",\n" + inner + "[\n" + cell + s + ",\n" for s in labels]
    mids = [cell + s + ",\n" for s in labels]
    tails = [cell + s + "\n" + inner + "]" for s in labels]
    first = len(out)
    for x, head in enumerate(heads):
        ys, zs = t.pairs(x)
        row = [head] * (3 * len(ys))
        row[1::3] = map(mids.__getitem__, ys)
        row[2::3] = map(tails.__getitem__, zs)
        out += row
    if len(out) == first:
        out.append("[]")
        return
    out[first] = "[\n" + out[first][2:]
    out.append("\n" + indent + "]")


def _write(o: Any, indent: str, enc: _Encoded, out: list[str]) -> None:
    """Append to ``out`` the pieces of ``json.dumps(o, sort_keys=True,
    indent=2)`` with every line after the first indented by ``indent``.

    Product tables, string-keyed dicts and string lists (the shapes the
    document builders produce) are written here, each string through the
    cache; anything else, such as ints, empty containers, tuples or other
    keys, goes to json.  JSON text holds no raw newline, so re-indenting
    json's output line by line is safe.  The caller joins the pieces once:
    joining at every level would copy a large list's text again at each
    enclosing level."""
    kind = type(o)
    if kind is str:
        out.append(enc[o])
        return
    if kind is _Table:
        _write_table(o, indent, enc, out)
        return
    if o and (kind is dict or kind is list) and set(map(type, o)) == {str}:
        inner = indent + "  "
        sep = ",\n" + inner
        if kind is list:
            out.append("[\n" + inner + sep.join(map(enc.__getitem__, o)) + "\n" + indent + "]")
            return
        lead = "{\n" + inner
        for k in sorted(o):
            out.append(lead + enc[k] + ": ")
            _write(o[k], inner, enc, out)
            lead = sep
        out.append("\n" + indent + "}")
        return
    out.append(json.dumps(o, sort_keys=True, indent=2).replace("\n", "\n" + indent))


def canonical_dumps(doc: dict | ParsedDocument) -> str:
    """The canonical text of a document: ``canonicalize_document(doc)``
    written as ``json.dumps(..., sort_keys=True, indent=2)`` writes it
    (ASCII only, every list item and object member on its own line),
    plus one trailing newline; the bytes are the same.  A parsed document
    is written as ``document_for(doc)`` would be, straight from its
    product rows."""
    fields = _fields(doc) if isinstance(doc, ParsedDocument) else _read_tables(doc)
    out: list[str] = []
    _write(fields, "", _Encoded(), out)
    out.append("\n")
    return "".join(out)


# ----- morphism documents --------------------------------------------------


def parse_morphism_document(
    data: Any, *, base_dir: Optional[Path] = None
) -> GroupoidMorphism:
    """Build a morphism from a decoded document; domain and codomain may be
    inline documents or {"path": ...} references."""
    _check_header(data)

    def resolve(field: str) -> FiniteGroupoid:
        value = _require(data, field, dict)
        if set(value.keys()) == {"path"}:
            if not isinstance(value["path"], str):
                raise ParseError(field, "path must be a string")
            path = Path(value["path"])
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            try:
                return load_groupoid(path).groupoid
            except OSError as exc:
                raise ParseError(field, f"cannot read {path}: {exc}") from exc
            except ParseError as exc:
                raise ParseError(field, f"{path}: {exc}") from exc
        return parse_groupoid_document(value).groupoid

    domain = resolve("domain")
    codomain = resolve("codomain")
    elem_map = _label_map(data, "f", domain._label_index, codomain._label_index)
    unit_map = None
    if "f0" in data:
        unit_labels = {domain.elements[u]: u for u in domain.units}
        unit_map = dict(zip(domain.units,
                            _label_map(data, "f0", unit_labels, codomain._label_index)))
    try:
        return GroupoidMorphism(domain, codomain, elem_map, unit_map)
    except ValueError as exc:
        raise ParseError("document", str(exc)) from exc


def load_morphism(path: str | Path) -> GroupoidMorphism:
    """Read a morphism document file as ``load_groupoid`` reads a groupoid
    document, an endpoint given inline included.  The text is read through
    before an endpoint given by path is loaded, so none of it is held
    then."""
    base_dir = Path(path).parent
    return _load(path, lambda data: parse_morphism_document(data, base_dir=base_dir),
                 {}, ("domain", "codomain"))
