"""Finite groupoids as explicit partial multiplication tables.

A finite groupoid is stored in Brandt normal form: the unit set is a subset
of the carrier, the source map ``alpha`` and target map ``beta`` send every
element to a unit, ``inv`` is the inversion bijection, and the partial
product is a sparse table defined exactly on the composable pairs
``{(x, y) : beta(x) == alpha(y)}``, stored as one row ``{y: x*y}`` per
element x.  Elements are identified by index; labels exist for display and
serialization only.

``validate`` checks the axioms (associativity, identities, inverses,
surjectivity of source/target onto the units, and exactness of the partial
product's domain) and reports violations with witnesses instead of raising.
Associativity is decided from the Brandt decomposition (``_brandt``), which
the structural answers then read: each condition of the embedding in
pair(U) x H_r that fails names its own witnesses, so no triple is scanned.

``validate`` and ``GroupTable.validate`` take any table of the right shape
and report its defects; they do not raise on them.  ``is_isomorphic``
validates both groupoids before any answer.  The ``FiniteGroupoid``
constructor checks shapes and index types, not laws, and
``with_base_labels`` checks only the base labels.  ``restricted``,
``isotropy_conjugation`` and ``FiniteGroupoid.isotropy_group`` check the
closure that their result needs and raise ValueError without it.  Every
other function and method trusts that the table is a groupoid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import ItemsView, Mapping
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

__all__ = [
    "FiniteGroupoid",
    "GroupTable",
    "SizeLimitError",
    "ValidationReport",
    "Violation",
    "is_isomorphic",
    "isotropy_conjugation",
    "restricted",
    "validate",
    "with_base_labels",
]

ISO_SIZE_LIMIT = 32


class SizeLimitError(ValueError):
    """An operation was asked to run above its configured size bound."""


@dataclass(frozen=True)
class Violation:
    """A single axiom failure with a concrete witness (element indices)."""

    axiom: str
    witness: tuple[int, ...]
    detail: str

    def __str__(self) -> str:
        return f"[{self.axiom}] witness={self.witness}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an axiom check; passes exactly when no violations exist.

    ``checks`` maps an axiom tag to the number of law instances checked for
    it (filled by :func:`validate`); it takes no part in equality.
    """

    violations: tuple[Violation, ...] = ()
    checks: dict[str, int] = field(default_factory=dict, compare=False)
    # the Brandt decompositions (``_brandt``) of the groupoids a passing check validated
    _decompositions: tuple = field(default=(), compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return not self.violations

    def require(self, context: str) -> None:
        """Raise ValueError naming the first violation unless the report passed."""
        if not self.passed:
            first = self.violations[0]
            raise ValueError(f"{context}: {len(self.violations)} violation(s), first: {first}")

    def _decomposed(self, context: str) -> tuple:
        """``require(context)``, then the Brandt decompositions of the check."""
        self.require(context)
        return self._decompositions

    def summary(self) -> str:
        if self.passed:
            return "ok"
        lines = [f"{len(self.violations)} violation(s):"]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


def _prefixed(report: ValidationReport, prefix: str) -> list[Violation]:
    """The violations of ``report`` with their axiom tags prefixed."""
    return [Violation(f"{prefix}-{v.axiom}", v.witness, v.detail) for v in report.violations]


def _ints(field: str, values: Iterable[object]) -> tuple[int, ...]:
    """``values`` as a tuple, refusing with ValueError any entry whose type
    is not exactly int: int() would truncate 0.9 and read "0", and a bool
    is an int whose text is "True"."""
    out = tuple(values)
    if not set(map(type, out)) <= {int}:
        bad = next(v for v in out if type(v) is not int)
        raise ValueError(f"{field} entries must be ints, got {bad!r}")
    return out


class _ProductView(Mapping):
    """The products of a groupoid as a read-only mapping {(x, y): x*y} over
    its rows: row by row in element order, each row in its own order, then
    the rows of first factors that name no element."""

    def __init__(self, rows: tuple[dict[int, int], ...], stray: dict[int, dict[int, int]]):
        self._rows, self._stray = rows, stray
        self._len = sum(map(len, rows)) + sum(map(len, stray.values()))

    def __getitem__(self, key: tuple[int, int]) -> int:
        try:
            x, y = key
            return (self._rows[x] if 0 <= x < len(self._rows) else self._stray[x])[y]
        except (KeyError, TypeError, ValueError):
            raise KeyError(key) from None

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return (xy for xy, _ in self.items())

    def __len__(self) -> int:
        return self._len

    def items(self) -> ItemsView:
        return _ProductItems(self)


class _ProductItems(ItemsView):
    def __iter__(self) -> Iterator[tuple[tuple[int, int], int]]:
        rows = chain(enumerate(self._mapping._rows), self._mapping._stray.items())
        return (((x, y), z) for x, row in rows for y, z in row.items())


class FiniteGroupoid:
    """A finite groupoid over indexed elements.

    Attributes (treated as immutable after construction):
      elements:    tuple of unique display labels; index = identity.
      units:       ascending tuple of element indices forming the unit set.
      alpha, beta: source/target, total maps index -> unit index.
      inv:         inversion, total map index -> index.
      rows:        the partial product, one dict {y: x*y} per element x.
      mul:         read-only mapping view {(x, y): x*y} over ``rows``.
      base_labels: optional bijection unit index -> external base label,
                   used when two groupoids must share a base.
      payloads:    optional per-element payload objects (e.g. partial maps).

    The constructor checks container shape only: lengths, label uniqueness,
    key forms, and entries of type exactly int in ``units``, ``alpha``,
    ``beta``, ``inv`` and the keys of ``base_labels`` (product keys and
    values are converted with int()).  Semantic defects such as
    out-of-range indices or products defined off the composable pairs are
    reported by :func:`validate`, not raised here; a product whose first
    factor names no element is kept apart from ``rows``.  Given another
    groupoid's ``.mul`` over as many elements, it shares that groupoid's
    rows.  Equality compares the tables index-wise and ignores labels, base
    labels and payloads.
    """

    def __init__(
        self,
        elements: Sequence[str],
        units: Iterable[int],
        alpha: Sequence[int],
        beta: Sequence[int],
        inv: Sequence[int],
        mul: Mapping[tuple[int, int], int],
        *,
        base_labels: Mapping[int, str] | None = None,
        payloads: Sequence[object] | None = None,
    ) -> None:
        elements = tuple(elements)
        n = len(elements)
        if isinstance(mul, _ProductView) and len(mul._rows) == n:
            rows, stray = mul._rows, mul._stray
        else:
            rows, stray = tuple({} for _ in range(n)), {}
            for key, value in mul.items():
                pair = tuple(key)
                if len(pair) != 2:
                    raise ValueError(f"mul keys must be element pairs, got {key!r}")
                x, y = int(pair[0]), int(pair[1])
                (rows[x] if 0 <= x < n else stray.setdefault(x, {}))[y] = int(value)
        self._set(elements, units, alpha, beta, inv, rows, base_labels, payloads, stray)

    @classmethod
    def _typed(cls, elements: Sequence[str], units: Iterable[int], alpha: Sequence[int],
               beta: Sequence[int], inv: Sequence[int], rows: Iterable[dict[int, int]], *,
               base_labels: Mapping[int, str] | None = None,
               payloads: Sequence[object] | None = None) -> "FiniteGroupoid":
        """The groupoid on product rows that the caller built with exact int
        keys and values, one row per element.  The rows are kept as they
        are, neither copied nor re-checked, so the caller must not change
        them afterwards; every other argument is checked as the constructor
        checks it."""
        g = cls.__new__(cls)
        g._set(elements, units, alpha, beta, inv, tuple(rows), base_labels, payloads, {})
        return g

    def _set(self, elements, units, alpha, beta, inv, rows, base_labels, payloads,
             stray) -> None:
        self.elements: tuple[str, ...] = tuple(elements)
        if not self.elements:
            raise ValueError("a groupoid needs at least one element")
        for e in self.elements:
            if not isinstance(e, str):
                raise ValueError(f"element labels must be strings, got {e!r}")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("element labels must be unique")

        unit_list = _ints("units", units)
        if len(set(unit_list)) != len(unit_list):
            raise ValueError("duplicate entries in unit set")
        if not unit_list:
            raise ValueError("a groupoid needs at least one unit")
        self.units: tuple[int, ...] = tuple(sorted(unit_list))
        self._unit_set: frozenset[int] = frozenset(unit_list)

        n = len(self.elements)
        self.alpha: tuple[int, ...] = _ints("alpha", alpha)
        self.beta: tuple[int, ...] = _ints("beta", beta)
        self.inv: tuple[int, ...] = _ints("inv", inv)
        for name, table in (("alpha", self.alpha), ("beta", self.beta), ("inv", self.inv)):
            if len(table) != n:
                raise ValueError(f"{name} must assign every element, got {len(table)} of {n}")

        self.rows: tuple[dict[int, int], ...] = rows
        self._stray: dict[int, dict[int, int]] = stray
        self.mul: Mapping[tuple[int, int], int] = _ProductView(rows, stray)

        if base_labels is not None:
            base = dict(zip(_ints("base_labels", base_labels), map(str, base_labels.values())))
            unknown = set(base) - set(self.units)
            if unknown:
                raise ValueError(f"base labels given for non-units: {sorted(unknown)}")
            # a unit without a base label goes by its element label
            effective = {**{u: self.elements[u] for u in self.units if 0 <= u < n}, **base}
            if len(set(effective.values())) != len(effective):
                raise ValueError("base labels must be pairwise distinct")
            self.base_labels: dict[int, str] | None = base
        else:
            self.base_labels = None

        if payloads is not None:
            self.payloads: tuple[object, ...] | None = tuple(payloads)
            if len(self.payloads) != n:
                raise ValueError("payloads must parallel the element list")
        else:
            self.payloads = None

        self._label_index: dict[str, int] = {lbl: i for i, lbl in enumerate(self.elements)}
        # filled by ``_homs`` on first use, but made here: under CPython an
        # attribute added after construction slows every attribute read
        self._hom_index: dict[tuple[int, int], tuple[int, ...]] | None = None

    # ----- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        n, m = self.groupoid_type()
        return f"FiniteGroupoid(type=({n};{m}))"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteGroupoid):
            return NotImplemented
        return (
            len(self.elements) == len(other.elements)
            and self.units == other.units
            and self.alpha == other.alpha
            and self.beta == other.beta
            and self.inv == other.inv
            and self.rows == other.rows
            and self._stray == other._stray
        )

    def groupoid_type(self) -> tuple[int, int]:
        """The pair (carrier size, unit count)."""
        return (len(self.elements), len(self.units))

    def is_unit(self, x: int) -> bool:
        return x in self._unit_set

    def label(self, x: int) -> str:
        return self.elements[x]

    def index(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise KeyError(f"no element labelled {label!r}") from None

    def source(self, x: int) -> int:
        self._check_index(x)
        return self.alpha[x]

    def target(self, x: int) -> int:
        self._check_index(x)
        return self.beta[x]

    def inverse(self, x: int) -> int:
        self._check_index(x)
        return self.inv[x]

    def composable(self, x: int, y: int) -> bool:
        self._check_index(x)
        self._check_index(y)
        return self.beta[x] == self.alpha[y]

    def compose(self, x: int, y: int) -> Optional[int]:
        """The product x*y, or None when the pair is not composable."""
        self._check_index(x)
        self._check_index(y)
        return self.rows[x].get(y)

    def anchor(self, x: int) -> tuple[int, int]:
        """The (source, target) unit pair of x."""
        self._check_index(x)
        return (self.alpha[x], self.beta[x])

    @property
    def _homs(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """The hom-sets: each anchor (alpha(x), beta(x)) with its elements x
        in index order, anchors in the order of their first element.  Built
        once, on first use, from the immutable ``alpha`` and ``beta``."""
        if self._hom_index is None:
            homs: dict[tuple[int, int], list[int]] = {}
            for x, anchor in enumerate(zip(self.alpha, self.beta)):
                homs.setdefault(anchor, []).append(x)
            self._hom_index = {anchor: tuple(xs) for anchor, xs in homs.items()}
        return self._hom_index

    def is_transitive(self) -> bool:
        """True when every ordered unit pair is the anchor of some element."""
        return len(self._homs) == len(self.units) ** 2

    def isotropy_members(self, u: int) -> tuple[int, ...]:
        """The loops at u, the elements with source and target u, ascending."""
        return self._homs.get((u, u), ())

    def isotropy_group(self, u: int) -> "GroupTable":
        """The group of elements with source and target both equal to the
        unit u, with its members' labels in index order."""
        if not self.is_unit(u):
            raise ValueError(f"element {u} is not a unit")
        members = self.isotropy_members(u)
        pos = {x: i for i, x in enumerate(members)}
        table = [[pos.get(self.rows[x].get(y)) for y in members] for x in members]
        for x, row in zip(members, table):
            if None in row:
                y = members[row.index(None)]
                raise ValueError(f"isotropy set at unit {u} is not closed at ({x}, {y})")
        inv_positions = [pos.get(self.inv[x]) for x in members]
        if None in inv_positions:
            x = members[inv_positions.index(None)]
            raise ValueError(f"isotropy set at unit {u} lacks the inverse of {x}")
        group = GroupTable.build(
            [self.elements[x] for x in members], table, pos[u], inv_positions)
        group.validate().require(f"isotropy group at unit {u} is not a group")
        return group

    def isotropy_bundle(self) -> tuple[int, ...]:
        """All elements whose source and target coincide, ascending."""
        return tuple(
            x for x in range(len(self.elements)) if self.alpha[x] == self.beta[x]
        )

    def unit_base_label(self, u: int) -> str:
        """The external base label of a unit (defaults to its element label)."""
        if not self.is_unit(u):
            raise ValueError(f"element {u} is not a unit")
        if self.base_labels is not None and u in self.base_labels:
            return self.base_labels[u]
        return self.elements[u]

    def _check_index(self, x: int) -> None:
        if not 0 <= x < len(self.elements):
            raise IndexError(f"element index {x} out of range")


@dataclass(frozen=True)
class GroupTable:
    """A finite group as labels, a total multiplication table, identity and
    inverses.  ``table[i][j]`` is the index of the product of i and j."""

    labels: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    identity: int
    inv: tuple[int, ...]

    @classmethod
    def build(
        cls,
        labels: Sequence[str],
        table: Sequence[Sequence[int]],
        identity: int,
        inv: Sequence[int],
    ) -> "GroupTable":
        return cls(
            tuple(labels),
            tuple(tuple(row) for row in table),
            identity,
            tuple(inv),
        )

    @property
    def order(self) -> int:
        return len(self.labels)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def validate(self) -> ValidationReport:
        """Check the group axioms; violations carry witnesses.  Each row is
        range-checked by its least and greatest entry, and only a row that
        fails is walked to list its cells."""
        v: list[Violation] = []
        k = self.order
        if len(set(self.labels)) != k:
            v.append(Violation("structure", (), "labels must be unique"))
        if len(self.table) != k or any(len(row) != k for row in self.table):
            v.append(Violation("structure", (), "table must be k x k"))
            return ValidationReport(tuple(v))
        if not 0 <= self.identity < k or len(self.inv) != k:
            v.append(Violation("structure", (), "identity or inverse map out of shape"))
            return ValidationReport(tuple(v))
        for i, row in enumerate(self.table):
            if min(row) < 0 or max(row) >= k:
                v.extend(Violation("structure", (i, j), "table entry out of range")
                         for j, x in enumerate(row) if not 0 <= x < k)
        laws = v or _group_law_violations(self.table, self.identity, self.inv)
        return ValidationReport(tuple(laws))

    def is_commutative(self) -> bool:
        """Whether every row equals the column of the same index."""
        return list(map(tuple, self.table)) == list(zip(*self.table))


def _group_law_violations(
    table: Sequence[Sequence[int]], e: int, inv: Sequence[int]
) -> Iterator[Violation]:
    """Identity and inverse failures per element of a k x k table with
    entries in range; only when there are none, the associativity failures
    (i, j, l) with j a greedy generator, in lexicographic order.

    (i*j)*l over every l is the row of i*j, and i*(j*l) the row of i read
    at the entries of j's row, read with one ``itemgetter`` per generator;
    i and j associate when the two lists are equal, and only a pair whose
    lists differ is walked per l.  Once identity and inverses hold, the
    middles j that associate with every i and l are closed under products
    and contain e, so they are the whole table exactly when they contain
    the generators: the list is empty exactly when the table is
    associative."""
    k = len(table)
    unit_laws: list[Violation] = []
    for i in range(k):
        if table[e][i] != i or table[i][e] != i:
            unit_laws.append(Violation("identity", (i,), "identity element fails"))
        if not 0 <= inv[i] < k:
            unit_laws.append(Violation("structure", (i,), "inverse entry out of range"))
        elif table[i][inv[i]] != e or table[inv[i]][i] != e:
            unit_laws.append(Violation("inverse", (i,), "inverse element fails"))
    if unit_laws:
        yield from unit_laws
        return
    # a generator exists only for k >= 2, where itemgetter returns tuples
    rows = [tuple(row) for row in table]
    picks = [(j, itemgetter(*rows[j])) for j in
             _greedy_generators(e, range(k), lambda a, s: table[a][s])]
    for i, row_i in enumerate(rows):
        for j, pick in picks:
            left, right = rows[row_i[j]], pick(row_i)
            if left != right:
                yield from (Violation("associativity", (i, j, l), "associativity fails")
                            for l, (a, b) in enumerate(zip(left, right)) if a != b)


def _right_closure(span: set, successors) -> set:
    """Close ``span`` in place under ``successors(a)``, such as the right
    multiples of a by the generators; a successor is None where it is
    undefined.  Each member is passed to ``successors`` once, after it
    joins ``span``."""
    queue = list(span)
    for a in queue:
        for b in successors(a):
            if b is not None and b not in span:
                span.add(b)
                queue.append(b)
    return span


def _greedy_generators(start: int, members: Iterable[int], times) -> list[int]:
    """Greedy generators of a group with identity ``start``: scan ``members``
    and take each one not yet in the span, the closure of ``{start}`` under
    right multiplication ``times(a, s)`` by the generators taken so far;
    every member then lies in the span."""
    gens: list[int] = []
    span = {start}
    for x in members:
        if x not in span:
            gens.append(x)
            _right_closure(span, lambda a: (times(a, s) for s in gens))
    return gens


# ----- Brandt decomposition ------------------------------------------------


class _Component(NamedTuple):  # a connected component in Brandt's form (``_brandt``)
    root: int                 # its least unit r
    arrows: dict[int, int]    # an arrow t_u : r -> u per unit u, with t_r = r
    members: tuple[int, ...]  # the vertex group H_r, ascending
    table: list[list[int]]    # the products of H_r over positions in ``members``
    identity: int             # the position of r
    inv: list[int]            # the position of each member's inverse


class _Brandt(NamedTuple):
    components: list[_Component]
    coords: list[int]  # c(x) per element x, a position in its component's ``members``


def _components(g: FiniteGroupoid) -> list[tuple[int, dict[int, int]]]:
    """Each connected component as its least unit r and one arrow r -> u for
    every unit u of it, the last element of the hom-set r -> u (r -> r
    included); in a groupoid these units are exactly the units that some
    arrow out of r reaches."""
    arrows: dict[int, dict[int, int]] = {u: {} for u in g.units}
    for (a, b), xs in g._homs.items():
        if a in arrows and g.is_unit(b):
            arrows[a][b] = xs[-1]
    components: list[tuple[int, dict[int, int]]] = []
    placed: set[int] = set()
    for r in g.units:
        if r not in placed:
            placed.update(arrows[r])
            components.append((r, arrows[r]))
    return components


def _brandt(g: FiniteGroupoid) -> _Brandt:
    """The Brandt decomposition of g, which must pass every check of
    ``validate`` before the coordinate check: per component, the arrows t_u
    of ``_components`` with t_r = r, the table of H_r, and c(x) =
    (t_u*x)*t_v^-1 for every x : u -> v, the one place where it is computed.
    When g is a groupoid, x -> (alpha(x), c(x), beta(x)) is an isomorphism
    onto pair(U) x H_r (H. Brandt, Math. Ann. 96, 1927)."""
    rows, inv, homs = g.rows, g.inv, g._homs
    coords = [0] * len(g)
    components: list[_Component] = []
    for r, tree in _components(g):
        members = homs[r, r]
        pos = {x: i for i, x in enumerate(members)}
        arrows = {**tree, r: r}
        for u, tu in arrows.items():
            row = rows[tu]
            for v, tv in arrows.items():
                back = inv[tv]
                for x in homs[u, v]:
                    coords[x] = pos[rows[row[x]][back]]
        components.append(_Component(
            r, arrows, members, [[pos[rows[x][y]] for y in members] for x in members],
            pos[r], [pos[inv[x]] for x in members]))
    return _Brandt(components, coords)


def _generators(g: FiniteGroupoid, b: _Brandt) -> list[int]:
    """Generators of a groupoid g from its Brandt decomposition b: per
    component, the arrows t_u : r -> u other than r, their inverses, and
    greedy generators of H_r.  Right multiplication by composable
    generators, starting from the units, reaches every element."""
    gens: list[int] = []
    for r, arrows, members, table, e, _ in b.components:
        gens.extend(z for u, t in arrows.items() if u != r for z in (t, g.inv[t]))
        gens.extend(members[i] for i in _greedy_generators(
            e, range(len(members)), lambda a, s: table[a][s]))
    return gens


def _product_failures(g: FiniteGroupoid, h: FiniteGroupoid, f: Sequence[int], b: _Brandt
                      ) -> list[tuple[int, int]]:
    """The pairs (s, y), ascending, with s a generator of g (``_generators``
    of g's decomposition b) and f(s*y) not f(s)*f(y).  When f sends units to
    units and commutes with the anchors, the list is empty exactly when f
    preserves every product: the x with f(x*y) == f(x)*f(y) for every y
    include the units and are closed under products, and the generators
    reach every element."""
    return sorted((s, y) for s in _generators(g, b) for y, sy in g.rows[s].items()
                  if h.rows[f[s]].get(f[y]) != f[sy])


# ----- validation ----------------------------------------------------------


def _closure_gaps(rows: Sequence[dict[int, int]], buckets: Sequence[dict[int, None]]
                  ) -> dict[int, tuple[list[int], list[int]]]:
    """The rows x whose keys are not those of ``buckets[x]``, the y that x
    should compose with in ascending order, each with its keys outside the
    bucket in row order and the bucket members missing from it.  A row is
    walked only when its key set differs from its bucket."""
    return {x: ([y for y in row if y not in bucket], [y for y in bucket if y not in row])
            for x, (row, bucket) in enumerate(zip(rows, buckets))
            if row.keys() != bucket.keys()}


def _index_violations(g: FiniteGroupoid, tag: str) -> list[Violation]:
    """The units and the alpha, beta and inv entries out of range(len(g)),
    tagged ``tag``: found by each table's least and greatest entry and
    walked only to list the witnesses."""
    n = len(g)
    v = [Violation(tag, (u,), "unit index out of range") for u in g.units if not 0 <= u < n]
    for name, table in (("alpha", g.alpha), ("beta", g.beta), ("inv", g.inv)):
        if min(table) < 0 or max(table) >= n:
            v.extend(Violation(tag, (x,), f"{name}({x}) = {value} out of range")
                     for x, value in enumerate(table) if not 0 <= value < n)
    return v


def _range_violations(g: FiniteGroupoid, tag: str) -> list[Violation]:
    """``_index_violations``, then the product entries out of range: the
    keys and values of the rows are range-checked as one set, and walked
    only to list the witnesses."""
    n = len(g)
    rows = g.rows
    v = _index_violations(g, tag)
    if g._stray or not set().union(*rows, *map(dict.values, rows)) <= set(range(n)):
        v.extend(Violation(tag, (x, y), f"product entry ({x}, {y}) -> {z} out of range")
                 for x, row in chain(enumerate(rows), g._stray.items()) for y, z in row.items()
                 if not (0 <= x < n and 0 <= y < n and 0 <= z < n))
    return v


def validate(g: FiniteGroupoid) -> ValidationReport:
    """Check the groupoid axioms on g's tables.

    Violations are tagged by axiom:
      structure     index out of range, source/target not landing in units
      closure       product defined off a composable pair, or missing on one
      surjectivity  a unit missed by the source or target map
      G1            associativity (including drifting product anchors)
      G2            identity laws alpha(x)*x = x = x*beta(x)
      G3            inverse laws inv(x)*x = beta(x), x*inv(x) = alpha(x)

    The indices in the rows are range-checked as one set, and the rows are
    walked only to list the products out of range.  Closure compares the
    keys of the row of x with the elements y that have alpha(y) == beta(x)
    (``_closure_gaps``).

    When every other check passes, associativity is decided from the
    Brandt decomposition ``_brandt(g)`` (``_coordinate_failures``), and a
    report that passes carries it for the callers.  ``checks`` counts the
    law instances checked per tag; for G1 these are the anchor checks, one
    coordinate per element, one multiplicativity check per product, one
    cell per table H_r and the candidate triples.
    """
    n = len(g.elements)
    rows, alpha, beta = g.rows, g.alpha, g.beta
    checks = {"structure": len(g.units) + 3 * n + len(g.mul)}

    v = _range_violations(g, "structure")
    if v:
        return ValidationReport(tuple(v), checks)

    checks["structure"] += 2 * n
    unit_set = set(g.units)
    for x in range(n):
        if alpha[x] not in unit_set:
            v.append(Violation("structure", (x,), f"alpha({x}) is not a unit"))
        if beta[x] not in unit_set:
            v.append(Violation("structure", (x,), f"beta({x}) is not a unit"))
    if v:
        return ValidationReport(tuple(v), checks)

    checks["surjectivity"] = 2 * len(unit_set)
    for u in unit_set - set(alpha):
        v.append(Violation("surjectivity", (u,), "unit is not the source of any element"))
    for u in unit_set - set(beta):
        v.append(Violation("surjectivity", (u,), "unit is not the target of any element"))

    by_alpha: dict[int, dict[int, None]] = {u: {} for u in g.units}
    for y, a in enumerate(alpha):
        by_alpha[a][y] = None
    buckets = [by_alpha[b] for b in beta]
    gaps = _closure_gaps(rows, buckets)
    checks["closure"] = len(g.mul) + sum(map(len, buckets))
    v.extend(Violation("closure", (x, y), "product defined on a non-composable pair")
             for x, (off, _) in gaps.items() for y in off)
    v.extend(Violation("closure", (x, y), "composable pair has no product")
             for x, (_, missing) in gaps.items() for y in missing)

    checks["G2"] = 2 * n
    for x in range(n):
        a, b = alpha[x], beta[x]
        if beta[a] != a:
            v.append(Violation("G2", (x,), f"left identity pair ({a}, {x}) not composable"))
        elif rows[a].get(x) != x:
            v.append(Violation("G2", (x,), f"alpha({x}) * {x} != {x}"))
        if alpha[b] != b:
            v.append(Violation("G2", (x,), f"right identity pair ({x}, {b}) not composable"))
        elif rows[x].get(b) != x:
            v.append(Violation("G2", (x,), f"{x} * beta({x}) != {x}"))

    checks["G3"] = 2 * n
    for x in range(n):
        xi = g.inv[x]
        if beta[xi] != alpha[x]:
            v.append(Violation("G3", (x,), f"pair (inv({x}), {x}) not composable"))
        elif rows[xi].get(x) != beta[x]:
            v.append(Violation("G3", (x,), f"inv({x}) * {x} != beta({x})"))
        if beta[x] != alpha[xi]:
            v.append(Violation("G3", (x,), f"pair ({x}, inv({x})) not composable"))
        elif rows[x].get(xi) != alpha[x]:
            v.append(Violation("G3", (x,), f"{x} * inv({x}) != alpha({x})"))

    checks["G1"] = len(g.mul)
    for x, row in enumerate(rows):
        a = alpha[x]
        v.extend(Violation("G1", (x, y), "anchors of the product drift from its factors")
                 for y, z in row.items() if alpha[z] != a or beta[z] != beta[y])
    if v:
        return ValidationReport(tuple(v), checks)
    b = _brandt(g)
    triples, checked = _coordinate_failures(g, b)
    checks["G1"] += checked
    v.extend(Violation("G1", (x, y, z), f"({x}*{y})*{z} != {x}*({y}*{z})") for x, y, z in triples)
    return ValidationReport(tuple(v), checks, () if v else (b,))


def _coordinate_failures(g: FiniteGroupoid, b: _Brandt) -> tuple[list[tuple[int, int, int]], int]:
    """The composable triples (x, y, z), ascending and each once, with
    (x*y)*z != x*(y*z) that the coordinates c(x) = (t_u*x)*t_v^-1 of
    b = ``_brandt(g)`` name, and the number of checks made.  Each condition
    of ``validate`` that fails names witnesses:
    - H_r fails the group laws: its associativity failures;
    - c(x) == c(x') for x before x' in a hom-set: the first failing triple
      of (t_u*x, t_v^-1, t_v), (t_u*x', t_v^-1, t_v), (t_u^-1, t_u, x) and
      (t_u^-1, t_u, x').  If all four associate, G2 and G3 give
      x = (t_u^-1*t_u)*x = t_u^-1*((t_u*x)*(t_v^-1*t_v)) = t_u^-1*(c(x)*t_v),
      and likewise x' = t_u^-1*(c(x')*t_v) = x;
    - c(x)*c(y) != c(x*y) for y : v -> w: the first failing triple of
      (c(x), t_v*y, t_w^-1), (t_u*x, t_v^-1, t_v*y), (t_v^-1, t_v, y) and
      (t_u, x, y).  If all four associate, G2 and G3 give c(x)*c(y) =
      ((t_u*x)*((t_v^-1*t_v)*y))*t_w^-1 = (t_u*(x*y))*t_w^-1 = c(x*y).
    So the list is empty exactly when g is associative, and apart from the
    witnesses of H_r it names at most one per element or product.  The
    checks are the coordinates, the products, the cells of each H_r and
    the candidate triples evaluated."""
    rows, alpha, beta, inv, homs, c = g.rows, g.alpha, g.beta, g.inv, g._homs, b.coords
    triples: list[tuple[int, int, int]] = []
    checked = len(g) + len(g.mul)

    def first_failing(*candidates: tuple[int, int, int]) -> tuple[int, int, int]:
        nonlocal checked
        for x, y, z in candidates:
            checked += 1
            if rows[rows[x][y]][z] != rows[x][rows[y][z]]:
                return x, y, z
        raise AssertionError(candidates)  # excluded by the derivations above

    for _, t, members, table, e, inverse in b.components:
        checked += len(members) ** 2
        triples.extend(tuple(members[i] for i in v.witness) for v in
                       _group_law_violations(table, e, inverse))
        first: dict[tuple[int, int, int], int] = {}
        for x in chain.from_iterable(homs[u, v] for u in t for v in t):
            tu, tv, row, cx = t[alpha[x]], t[beta[x]], rows[x], table[c[x]]
            sv, x0 = inv[tv], first.setdefault((tu, tv, c[x]), x)
            if x0 != x:
                triples.append(first_failing((rows[tu][x0], sv, tv), (rows[tu][x], sv, tv),
                                             (inv[tu], tu, x0), (inv[tu], tu, x)))
            if [cx[c[y]] for y in row] != [c[z] for z in row.values()]:
                triples.extend(
                    first_failing((members[c[x]], rows[tv][y], inv[t[beta[y]]]),
                                  (rows[tu][x], sv, rows[tv][y]), (sv, tv, y), (tu, x, y))
                    for y, z in row.items() if cx[c[y]] != c[z])
    return sorted(set(triples)), checked


# ----- derived structure ---------------------------------------------------


def isotropy_conjugation(g: FiniteGroupoid, x: int) -> dict[int, int]:
    """Conjugation by x: the isomorphism z -> inv(x)*z*x between the isotropy
    groups at the source and target of x.  Returns the map as a dict and
    verifies it really is a group isomorphism.
    """
    g._check_index(x)
    u, w = g.alpha[x], g.beta[x]
    source = g.isotropy_members(u)
    target_set = set(g.isotropy_members(w))
    xi = g.inv[x]
    mapping: dict[int, int] = {}
    for z in source:
        step = g.rows[xi].get(z) if 0 <= xi < len(g) else None
        if step is None:
            raise ValueError(f"conjugation by {x} undefined at {z}")
        out = g.rows[step].get(x) if 0 <= step < len(g) else None
        if out is None or out not in target_set:
            raise ValueError(f"conjugation by {x} leaves the target isotropy group at {z}")
        mapping[z] = out
    if len(set(mapping.values())) != len(target_set):
        raise ValueError(f"conjugation by {x} is not a bijection of isotropy groups")
    for z1 in source:
        for z2 in source:
            image = mapping.get(g.rows[z1].get(z2))
            if image is None or image != g.rows[mapping[z1]].get(mapping[z2]):
                raise ValueError(f"conjugation by {x} is not a homomorphism at ({z1}, {z2})")
    return mapping


def restricted(g: FiniteGroupoid, members: Iterable[int]) -> FiniteGroupoid:
    """The full substructure on a product- and inverse-closed subset.

    Labels, base labels and payloads are inherited.  Raises ValueError when
    a member is not an int or the subset is not closed (use the subgroupoid
    classifier to check first).
    """
    subset = sorted(set(_ints("members", members)))
    if not subset:
        raise ValueError("cannot restrict to an empty subset")
    member_set = set(subset)
    for x in subset:
        g._check_index(x)
        for probe, name in ((g.alpha[x], "source"), (g.beta[x], "target"), (g.inv[x], "inverse")):
            if probe not in member_set:
                raise ValueError(f"subset is not closed: {name} of {x} escapes it")
    escaped = next(((x, y) for x in subset for y, z in g.rows[x].items()
                    if y in member_set and z not in member_set), None)
    if escaped is not None:
        raise ValueError(f"subset is not closed: product of {escaped} escapes it")
    new_index = {x: i for i, x in enumerate(subset)}
    base = None
    if g.base_labels is not None:
        base = {new_index[u]: lbl for u, lbl in g.base_labels.items() if u in member_set}
    payloads = None
    if g.payloads is not None:
        payloads = [g.payloads[x] for x in subset]
    return FiniteGroupoid._typed(
        elements=[g.elements[x] for x in subset],
        units=[new_index[u] for u in g.units if u in member_set],
        alpha=[new_index[g.alpha[x]] for x in subset],
        beta=[new_index[g.beta[x]] for x in subset],
        inv=[new_index[g.inv[x]] for x in subset],
        rows=[{new_index[y]: new_index[z] for y, z in g.rows[x].items() if y in member_set}
              for x in subset],
        base_labels=base,
        payloads=payloads,
    )


def with_base_labels(g: FiniteGroupoid, base_labels: Mapping[int, str]) -> FiniteGroupoid:
    """A copy of g carrying the given unit -> base label bijection."""
    return FiniteGroupoid(
        elements=g.elements,
        units=g.units,
        alpha=g.alpha,
        beta=g.beta,
        inv=g.inv,
        mul=g.mul,
        base_labels=base_labels,
        payloads=g.payloads,
    )


# ----- isomorphism search --------------------------------------------------


def _vertex_group_iso(a: _Component, b: _Component) -> Optional[list[int]]:
    """An isomorphism from the vertex group of component a onto that of b,
    as the position in b of the image of each position in a.  Backtracks
    over images of equal element order for a greedy generating set (next
    generator: an element of highest order outside the span); each partial
    map is closed under right multiplication by the generators in the
    position tables and rejected when inconsistent or not injective."""
    def orders(k: _Component) -> list[int]:  # each the size of the cyclic group <x>
        return [len(_right_closure({k.identity}, lambda p: (k.table[p][x],)))
                for x in range(len(k.table))]

    order_g, order_h = orders(a), orders(b)
    if sorted(order_g) != sorted(order_h):
        return None
    by_order = sorted(range(len(order_g)), key=lambda x: -order_g[x])

    def extend(pairs: list[tuple[int, int]]) -> Optional[list[int]]:
        phi, queue = {a.identity: b.identity}, [a.identity]
        for p in queue:
            for x, y in pairs:
                q, w = a.table[p][x], b.table[phi[p]][y]
                if q not in phi:
                    phi[q] = w
                    queue.append(q)
                elif phi[q] != w:
                    return None
        if len(set(phi.values())) != len(phi):
            return None
        x = next((x for x in by_order if x not in phi), None)
        if x is None:
            return [phi[p] for p in range(len(order_g))]
        found = (extend(pairs + [(x, y)]) for y, order in enumerate(order_h) if order == order_g[x])
        return next((iso for iso in found if iso is not None), None)

    return extend([])


def is_isomorphic(g: FiniteGroupoid, h: FiniteGroupoid) -> Optional[tuple[int, ...]]:
    """Search for a structure-preserving bijection g -> h.

    Returns the element map as a tuple (position x holds the image of x),
    or None when the groupoids are not isomorphic.  The answer reads the
    Brandt decompositions (``_brandt``) that validating g and h derives:
    components are matched greedily by unit count and vertex-group
    isomorphism φ, units paired by σ in ascending order, and x : u -> v
    goes to the element of h at (σu, μ_u φ(c(x)) μ_v^-1, σv), checked
    against both tables.  μ_u is l'^-1 φ(l) at the least unit, with l and
    l' the last loops there and at its image, and the identity elsewhere:
    the map goes through the arrows of ``_components``, l among them.
    Raises SizeLimitError above ``ISO_SIZE_LIMIT`` elements, then
    ValueError when either table fails :func:`validate`, before any answer.
    """
    if len(g) > ISO_SIZE_LIMIT or len(h) > ISO_SIZE_LIMIT:
        raise SizeLimitError(
            f"isomorphism search limited to {ISO_SIZE_LIMIT} elements, got {len(g)} and {len(h)}"
        )
    (bg,) = validate(g)._decomposed("is_isomorphic: first argument is not a groupoid")
    (bh,) = validate(h)._decomposed("is_isomorphic: second argument is not a groupoid")
    if len(g) != len(h) or len(g.units) != len(h.units) or len(g.mul) != len(h.mul):
        return None
    free = list(bh.components)
    maps: dict[int, tuple] = {}  # per unit u of g: σu, φ, the component of σu, μ_u
    for k in bg.components:
        for i, k2 in enumerate(free):
            phi = _vertex_group_iso(k, k2) if len(k2.arrows) == len(k.arrows) else None
            if phi is not None:
                break
        else:
            return None
        del free[i]
        mu = k2.table[k2.inv[-1]][phi[-1]]
        maps.update((u, (w, phi, k2, mu if u == k.root else k2.identity))
                    for u, w in zip(sorted(k.arrows), sorted(k2.arrows)))
    at = {(h.alpha[y], c, h.beta[y]): y for y, c in enumerate(bh.coords)}

    def image(u: int, c: int, v: int) -> Optional[int]:
        (w, phi, k, mu), (w2, *_, nu) = maps[u], maps[v]
        return at.get((w, k.table[k.table[mu][phi[c]]][k.inv[nu]], w2))

    f = tuple(map(image, g.alpha, bg.coords, g.beta))
    if (set(f) != set(range(len(h))) or not all(h.is_unit(f[u]) for u in g.units)
            or any((h.alpha[y], h.beta[y], h.inv[y]) != (f[g.alpha[x]], f[g.beta[x]], f[g.inv[x]])
                   for x, y in enumerate(f))
            or _product_failures(g, h, f, bg)):
        raise ValueError("is_isomorphic: the component map is not an isomorphism")
    return f  # type: ignore[return-value]
