"""Finite groupoids as explicit partial multiplication tables.

A finite groupoid is stored in Brandt normal form: the unit set is a subset
of the carrier, the source map ``alpha`` and target map ``beta`` send every
element to a unit, ``inv`` is the inversion bijection, and the partial
product is a sparse table defined exactly on the composable pairs
``{(x, y) : beta(x) == alpha(y)}``.  Elements are identified by index;
labels exist for display and serialization only.

``validate`` checks the axioms (associativity, identities, inverses,
surjectivity of source/target onto the units, and exactness of the partial
product's domain) and reports violations with witnesses instead of raising.
Associativity is decided per component from Brandt coordinates
c(x) = t_u * x * inv(t_v) in the vertex group H_r at its least unit r: when
x -> (alpha(x), beta(x), c(x)) is injective, c is multiplicative and H_r
passes the group laws, the component embeds in the associative pair(U) x H_r.
The triple scan runs only to list the witnesses of a failure, in the
components where a condition fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

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

    @property
    def passed(self) -> bool:
        return not self.violations

    def require(self, context: str) -> None:
        """Raise ValueError naming the first violation unless the report passed."""
        if not self.passed:
            first = self.violations[0]
            raise ValueError(f"{context}: {len(self.violations)} violation(s), first: {first}")

    def summary(self) -> str:
        if self.passed:
            return "ok"
        lines = [f"{len(self.violations)} violation(s):"]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


def _prefixed(report: ValidationReport, prefix: str) -> list[Violation]:
    """The violations of ``report`` with their axiom tags prefixed."""
    return [Violation(f"{prefix}-{v.axiom}", v.witness, v.detail) for v in report.violations]


def _int_pairs(mul: Mapping[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """A copy of ``mul`` with ``(int, int)`` tuple keys and int values;
    a key that is not a pair raises ValueError."""
    product = dict(mul)
    if all(type(key) is tuple and len(key) == 2
           and type(key[0]) is type(key[1]) is type(value) is int
           for key, value in product.items()):
        return product
    product = {}
    for key, value in mul.items():
        pair = tuple(key)
        if len(pair) != 2:
            raise ValueError(f"mul keys must be element pairs, got {key!r}")
        product[(int(pair[0]), int(pair[1]))] = int(value)
    return product


class FiniteGroupoid:
    """A finite groupoid over indexed elements.

    Attributes (treated as immutable after construction):
      elements:    tuple of unique display labels; index = identity.
      units:       ascending tuple of element indices forming the unit set.
      alpha, beta: source/target, total maps index -> unit index.
      inv:         inversion, total map index -> index.
      mul:         sparse partial product {(x, y): x*y}.
      base_labels: optional bijection unit index -> external base label,
                   used when two groupoids must share a base.
      payloads:    optional per-element payload objects (e.g. partial maps).

    The constructor checks container shape only (lengths, label uniqueness,
    key forms); semantic defects such as out-of-range indices or products
    defined off the composable pairs are reported by :func:`validate`, not
    raised here.  Equality compares the tables index-wise and ignores
    labels, base labels and payloads.
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
        self._set(elements, units, alpha, beta, inv, mul, base_labels, payloads, typed=False)

    @classmethod
    def _typed(cls, elements: Sequence[str], units: Iterable[int], alpha: Sequence[int],
               beta: Sequence[int], inv: Sequence[int], mul: dict[tuple[int, int], int], *,
               base_labels: Mapping[int, str] | None = None,
               payloads: Sequence[object] | None = None) -> "FiniteGroupoid":
        """The groupoid on a product table that the caller built with exact
        ``(int, int)`` tuple keys and exact int values.  The dict is kept as
        it is, neither copied nor re-checked, so the caller must not change
        it afterwards; every other argument is checked as the constructor
        checks it."""
        g = cls.__new__(cls)
        g._set(elements, units, alpha, beta, inv, mul, base_labels, payloads, typed=True)
        return g

    def _set(self, elements, units, alpha, beta, inv, mul, base_labels, payloads,
             *, typed: bool) -> None:
        self.elements: tuple[str, ...] = tuple(elements)
        if not self.elements:
            raise ValueError("a groupoid needs at least one element")
        for e in self.elements:
            if not isinstance(e, str):
                raise ValueError(f"element labels must be strings, got {e!r}")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("element labels must be unique")

        unit_list = [int(u) for u in units]
        if len(set(unit_list)) != len(unit_list):
            raise ValueError("duplicate entries in unit set")
        if not unit_list:
            raise ValueError("a groupoid needs at least one unit")
        self.units: tuple[int, ...] = tuple(sorted(unit_list))
        self._unit_set: frozenset[int] = frozenset(unit_list)

        n = len(self.elements)
        self.alpha: tuple[int, ...] = tuple(int(v) for v in alpha)
        self.beta: tuple[int, ...] = tuple(int(v) for v in beta)
        self.inv: tuple[int, ...] = tuple(int(v) for v in inv)
        for name, table in (("alpha", self.alpha), ("beta", self.beta), ("inv", self.inv)):
            if len(table) != n:
                raise ValueError(f"{name} must assign every element, got {len(table)} of {n}")

        self.mul: dict[tuple[int, int], int] = mul if typed else _int_pairs(mul)

        if base_labels is not None:
            base = {int(u): str(lbl) for u, lbl in base_labels.items()}
            unknown = set(base) - set(self.units)
            if unknown:
                raise ValueError(f"base labels given for non-units: {sorted(unknown)}")
            if len(set(base.values())) != len(base):
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
            and self.mul == other.mul
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
        return self.mul.get((x, y))

    def anchor(self, x: int) -> tuple[int, int]:
        """The (source, target) unit pair of x."""
        self._check_index(x)
        return (self.alpha[x], self.beta[x])

    def is_transitive(self) -> bool:
        """True when every ordered unit pair is the anchor of some element."""
        seen = {(self.alpha[x], self.beta[x]) for x in range(len(self.elements))}
        return len(seen) == len(self.units) ** 2

    def isotropy_members(self, u: int) -> tuple[int, ...]:
        return tuple(
            x for x in range(len(self.elements)) if self.alpha[x] == u and self.beta[x] == u
        )

    def isotropy_group(self, u: int) -> "GroupTable":
        """The group of elements with source and target both equal to the
        unit u, with its members' labels in index order."""
        if not self.is_unit(u):
            raise ValueError(f"element {u} is not a unit")
        members = self.isotropy_members(u)
        pos = {x: i for i, x in enumerate(members)}
        table = []
        for x in members:
            row = []
            for y in members:
                z = self.mul.get((x, y))
                if z is None or z not in pos:
                    raise ValueError(f"isotropy set at unit {u} is not closed at ({x}, {y})")
                row.append(pos[z])
            table.append(row)
        inv_positions = []
        for x in members:
            xi = self.inv[x]
            if xi not in pos:
                raise ValueError(f"isotropy set at unit {u} lacks the inverse of {x}")
            inv_positions.append(pos[xi])
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
        """Check the group axioms; violations carry witnesses."""
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
        for i in range(k):
            for j in range(k):
                if not 0 <= self.table[i][j] < k:
                    v.append(Violation("structure", (i, j), "table entry out of range"))
        laws = v or _group_law_violations(self.table, self.identity, self.inv)
        return ValidationReport(tuple(laws))

    def is_commutative(self) -> bool:
        k = self.order
        return all(self.table[i][j] == self.table[j][i] for i in range(k) for j in range(k))


def _group_law_violations(
    table: Sequence[Sequence[int]], e: int, inv: Sequence[int]
) -> Iterator[Violation]:
    """Identity and inverse failures per element, then associativity failures
    (i, j, l) in lexicographic order, of a k x k table with entries in range.

    (i*j)*l over every l is the row of i*j, and i*(j*l) the row of i read
    at the entries of j's row; i and j associate when the two lists are
    equal, and only a pair whose lists differ is walked per l.  Once
    identity and inverses hold, associativity is decided on the middles j
    drawn from a greedy generating set: the middles that associate are
    closed under products and contain e, so they are the whole table exactly
    when they contain the generators.  The full scan runs only on a failure,
    to list its witnesses."""
    k = len(table)
    unit_laws: list[Violation] = []
    for i in range(k):
        if table[e][i] != i or table[i][e] != i:
            unit_laws.append(Violation("identity", (i,), "identity element fails"))
        if not 0 <= inv[i] < k:
            unit_laws.append(Violation("structure", (i,), "inverse entry out of range"))
        elif table[i][inv[i]] != e or table[inv[i]][i] != e:
            unit_laws.append(Violation("inverse", (i,), "inverse element fails"))
    yield from unit_laws
    rows = [list(row) for row in table]  # lists compare equal only to lists
    if not unit_laws:
        gens = _greedy_generators(e, range(k), lambda a, s: table[a][s])
        if all(rows[row_i[j]] == [row_i[jl] for jl in rows[j]]
               for j in gens for row_i in rows):
            return
    for i, row_i in enumerate(rows):
        for j, ij in enumerate(row_i):
            right = [row_i[jl] for jl in rows[j]]
            if rows[ij] != right:
                yield from (Violation("associativity", (i, j, l), "associativity fails")
                            for l, (a, b) in enumerate(zip(rows[ij], right)) if a != b)


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


def _generators(g: FiniteGroupoid) -> list[int]:
    """Generators of a groupoid g from Brandt's decomposition: per component,
    the arrows t_u : r -> u out of its least unit r, their inverses, and
    greedy generators of the vertex group at r.  Right multiplication by
    composable generators, starting from the units, reaches every element."""
    gens: list[int] = []
    for r, tree in _components(g):
        gens.extend(z for u, t in tree.items() if u != r for z in (t, g.inv[t]))
        gens.extend(_greedy_generators(
            r, g.isotropy_members(r), lambda a, s: g.mul.get((a, s))))
    return gens


# ----- validation ----------------------------------------------------------


def validate(g: FiniteGroupoid) -> ValidationReport:
    """Check the groupoid axioms on g's tables.

    Violations are tagged by axiom:
      structure     index out of range, source/target not landing in units
      closure       product defined off a composable pair, or missing on one
      surjectivity  a unit missed by the source or target map
      G1            associativity (including drifting product anchors)
      G2            identity laws alpha(x)*x = x = x*beta(x)
      G3            inverse laws inv(x)*x = beta(x), x*inv(x) = alpha(x)

    One pass over the products checks their index range, that they sit on
    composable pairs and that their anchors do not drift.  No composable
    pair lacks a product when, in addition, there are as many products as
    composable pairs; only otherwise are the pairs scanned for the missing
    ones.

    When every other check passes, associativity is decided per connected
    component from Brandt coordinates c(x) in the vertex group H_r at its
    least unit r (``_coordinate_failures``).  If x -> (alpha(x), beta(x),
    c(x)) is injective, c(x*y) == c(x)*c(y) on every product and H_r passes
    the group laws, the component embeds in pair(U) x H_r, which is
    associative, so it is associative too.  The triple scan runs only over
    the components where a condition fails, listing every failing triple;
    no composable triple leaves its component, so the report is the full
    scan's.  After any other violation the scan covers every component.
    It takes a product x*y at a time: the row ((x*y)*z over z) is compared
    as one list with the row of x read at the positions of y's row, and
    only a row that differs is walked per z.  A missing, off-pair or
    drifting product leaves its row misaligned and is read from the dict.
    ``checks`` counts the law instances checked per tag; for G1 these are
    the anchor checks, one coordinate per element, one multiplicativity
    check per product, one cell per table H_r and any scanned triples.
    """
    v: list[Violation] = []
    n = len(g.elements)
    checks = {"structure": len(g.units) + 3 * n + len(g.mul)}

    for u in g.units:
        if not 0 <= u < n:
            v.append(Violation("structure", (u,), "unit index out of range"))
    for name, table in (("alpha", g.alpha), ("beta", g.beta), ("inv", g.inv)):
        for x, value in enumerate(table):
            if not 0 <= value < n:
                v.append(Violation("structure", (x,), f"{name}({x}) = {value} out of range"))
    # one pass over the products finds those out of range, defined off a
    # composable pair or drifting from their factors' anchors; an index of n
    # or more raises IndexError, and then every product is examined (a loop:
    # see quasiperm._product_violations)
    mul, alpha, beta = g.mul, g.alpha, g.beta
    suspects: Iterable[tuple[tuple[int, int], int]] = mul.items()
    if not v:
        try:
            found: list[tuple[tuple[int, int], int]] = []
            for (x, y), z in mul.items():
                if (x < 0 or y < 0 or z < 0 or beta[x] != alpha[y]
                        or alpha[z] != alpha[x] or beta[z] != beta[y]):
                    found.append(((x, y), z))
            suspects = found
        except IndexError:
            pass
    off_pairs: list[Violation] = []
    drifts: list[Violation] = []
    for (x, y), z in suspects:
        if not (0 <= x < n and 0 <= y < n and 0 <= z < n):
            v.append(Violation("structure", (x, y), f"product entry ({x}, {y}) -> {z} out of range"))
            continue
        if beta[x] != alpha[y]:
            off_pairs.append(Violation("closure", (x, y), "product defined on a non-composable pair"))
        if alpha[z] != alpha[x] or beta[z] != beta[y]:
            drifts.append(Violation("G1", (x, y), "anchors of the product drift from its factors"))
    if v:
        return ValidationReport(tuple(v), checks)

    checks["structure"] += 2 * n
    unit_set = set(g.units)
    for x in range(n):
        if g.alpha[x] not in unit_set:
            v.append(Violation("structure", (x,), f"alpha({x}) is not a unit"))
        if g.beta[x] not in unit_set:
            v.append(Violation("structure", (x,), f"beta({x}) is not a unit"))
    if v:
        return ValidationReport(tuple(v), checks)

    checks["surjectivity"] = 2 * len(unit_set)
    for u in unit_set - {g.alpha[x] for x in range(n)}:
        v.append(Violation("surjectivity", (u,), "unit is not the source of any element"))
    for u in unit_set - {g.beta[x] for x in range(n)}:
        v.append(Violation("surjectivity", (u,), "unit is not the target of any element"))

    by_alpha: dict[int, list[int]] = {}
    for y in range(n):
        by_alpha.setdefault(g.alpha[y], []).append(y)

    # with every product on a composable pair, as many products as
    # composable pairs means that none is missing
    composable = sum(len(by_alpha.get(b, ())) for b in beta)
    checks["closure"] = len(mul) + composable
    v.extend(off_pairs)
    if off_pairs or len(mul) != composable:
        for x in range(n):
            for y in by_alpha.get(beta[x], ()):
                if (x, y) not in mul:
                    v.append(Violation("closure", (x, y), "composable pair has no product"))

    checks["G2"] = 2 * n
    for x in range(n):
        a, b = g.alpha[x], g.beta[x]
        if g.beta[a] != a:
            v.append(Violation("G2", (x,), f"left identity pair ({a}, {x}) not composable"))
        elif g.mul.get((a, x)) != x:
            v.append(Violation("G2", (x,), f"alpha({x}) * {x} != {x}"))
        if g.alpha[b] != b:
            v.append(Violation("G2", (x,), f"right identity pair ({x}, {b}) not composable"))
        elif g.mul.get((x, b)) != x:
            v.append(Violation("G2", (x,), f"{x} * beta({x}) != {x}"))

    checks["G3"] = 2 * n
    for x in range(n):
        xi = g.inv[x]
        if g.beta[xi] != g.alpha[x]:
            v.append(Violation("G3", (x,), f"pair (inv({x}), {x}) not composable"))
        elif g.mul.get((xi, x)) != g.beta[x]:
            v.append(Violation("G3", (x,), f"inv({x}) * {x} != beta({x})"))
        if g.beta[x] != g.alpha[xi]:
            v.append(Violation("G3", (x,), f"pair ({x}, inv({x})) not composable"))
        elif g.mul.get((x, xi)) != g.alpha[x]:
            v.append(Violation("G3", (x,), f"{x} * inv({x}) != alpha({x})"))

    checks["G1"] = len(g.mul)
    v.extend(drifts)

    # composable triples stay inside a component, so once every other check
    # passed only the components that coordinates do not prove are scanned
    scanned: Optional[set[int]] = None
    if not v:
        scanned, checked = _coordinate_failures(g)
        checks["G1"] += checked
        if not scanned:
            return ValidationReport((), checks)

    # the row of w: w*z over z in by_alpha[beta[w]]; slot: bucket positions
    slot = {y: i for bucket in by_alpha.values() for i, y in enumerate(bucket)}
    rows = {w: [mul.get((w, z)) for z in by_alpha.get(beta[w], ())]
            for w in range(n) if scanned is None or alpha[w] in scanned}
    at = {y: [slot[yz] for yz in row] for y, row in rows.items()
          if None not in row and {alpha[yz] for yz in row} <= {alpha[y]}}
    for (x, y), xy in mul.items():
        if scanned is not None and alpha[x] not in scanned:
            continue
        zs = by_alpha.get(beta[y], ())
        checks["G1"] += len(zs)
        if y in at and beta[x] == alpha[y] and beta[xy] == beta[y]:
            row_x = rows[x]
            rhs = [row_x[p] for p in at[y]]
            if rows[xy] == rhs:
                continue
            triples = zip(zs, rows[xy], rhs)
        else:  # only after other violations, when every component is scanned
            triples = ((z, mul.get((xy, z)), mul.get((x, mul.get((y, z))))) for z in zs)
        v.extend(Violation("G1", (x, y, z), f"({x}*{y})*{z} != {x}*({y}*{z})")
                 for z, lhs, rhs in triples if lhs is not None and rhs is not None and lhs != rhs)

    return ValidationReport(tuple(v), checks)


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
        step = g.mul.get((xi, z))
        if step is None:
            raise ValueError(f"conjugation by {x} undefined at {z}")
        out = g.mul.get((step, x))
        if out is None or out not in target_set:
            raise ValueError(f"conjugation by {x} leaves the target isotropy group at {z}")
        mapping[z] = out
    if len(set(mapping.values())) != len(target_set):
        raise ValueError(f"conjugation by {x} is not a bijection of isotropy groups")
    for z1 in source:
        for z2 in source:
            image = mapping.get(g.mul.get((z1, z2)))
            if image is None or image != g.mul.get((mapping[z1], mapping[z2])):
                raise ValueError(f"conjugation by {x} is not a homomorphism at ({z1}, {z2})")
    return mapping


def restricted(g: FiniteGroupoid, members: Iterable[int]) -> FiniteGroupoid:
    """The full substructure on a product- and inverse-closed subset.

    Labels, base labels and payloads are inherited.  Raises ValueError when
    the subset is not closed (use the subgroupoid classifier to check first).
    """
    subset = sorted(set(int(x) for x in members))
    if not subset:
        raise ValueError("cannot restrict to an empty subset")
    member_set = set(subset)
    for x in subset:
        g._check_index(x)
        for probe, name in ((g.alpha[x], "source"), (g.beta[x], "target"), (g.inv[x], "inverse")):
            if probe not in member_set:
                raise ValueError(f"subset is not closed: {name} of {x} escapes it")
    new_index = {x: i for i, x in enumerate(subset)}
    mul = {}
    for (x, y), z in g.mul.items():
        if x in member_set and y in member_set:
            if z not in member_set:
                raise ValueError(f"subset is not closed: product of ({x}, {y}) escapes it")
            mul[(new_index[x], new_index[y])] = new_index[z]
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
        mul=mul,
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


def _element_order(g: FiniteGroupoid, x: int) -> int:
    """The order of a loop x of a groupoid g: its least power that is a unit."""
    order, power = 1, x
    while not g.is_unit(power):
        order, power = order + 1, g.mul[(power, x)]
    return order


def _components(g: FiniteGroupoid) -> list[tuple[int, dict[int, int]]]:
    """Each connected component as its least unit r and one arrow r -> u for
    every unit u of it; in a groupoid these units are exactly the units that
    some arrow out of r reaches."""
    arrows: dict[int, dict[int, int]] = {u: {} for u in g.units}
    for x in range(len(g)):
        if g.alpha[x] in arrows and g.is_unit(g.beta[x]):
            arrows[g.alpha[x]][g.beta[x]] = x
    components: list[tuple[int, dict[int, int]]] = []
    placed: set[int] = set()
    for r in g.units:
        if r not in placed:
            placed.update(arrows[r])
            components.append((r, arrows[r]))
    return components


def _coordinate_failures(g: FiniteGroupoid) -> tuple[set[int], int]:
    """The units of the components that Brandt coordinates do not prove
    associative, and the number of checks made.  With t_u : r -> u the
    arrows of ``_components`` and t_r = r, x : u -> v has the coordinate
    c(x) = t_u * x * inv(t_v) in the vertex group H_r; see ``validate`` for
    the three conditions.  g must pass every other check of validate."""
    mul, alpha, beta = g.mul, g.alpha, g.beta
    root: dict[int, int] = {}
    arrow: dict[int, int] = {}
    for r, tree in _components(g):
        root.update(dict.fromkeys(tree, r))
        arrow.update({**tree, r: r})
    loops: dict[int, list[int]] = {r: [] for r in root.values()}
    for x in g.isotropy_bundle():
        if alpha[x] in loops:
            loops[alpha[x]].append(x)
    # each H_r as a table over the positions of its members, c(x) as a position
    pos: dict[int, int] = {}
    table: dict[int, list[list[int]]] = {}
    failed: set[int] = set()
    for r, members in loops.items():
        pos.update((x, i) for i, x in enumerate(members))
        table[r] = [[pos[mul[x, y]] for y in members] for x in members]
        if any(_group_law_violations(table[r], pos[r], [pos[g.inv[x]] for x in members])):
            failed.add(r)
    c = [pos[mul[mul[arrow[alpha[x]], x], g.inv[arrow[beta[x]]]]] for x in range(len(g))]
    row = [table[root[alpha[x]]][cx] for x, cx in enumerate(c)]
    failed.update({root[alpha[x]] for (x, y), z in mul.items() if row[x][c[y]] != c[z]})
    first: dict[tuple[int, int, int], int] = {}
    failed.update(root[alpha[x]] for x, cx in enumerate(c)
                  if first.setdefault((alpha[x], beta[x], cx), x) != x)
    checked = len(c) + len(mul) + sum(len(members) ** 2 for members in loops.values())
    return {u for u, r in root.items() if r in failed}, checked


def _vertex_group_iso(
    g: FiniteGroupoid, r: int, h: FiniteGroupoid, s: int
) -> Optional[dict[int, int]]:
    """An isomorphism from the vertex group of g at r onto that of h at s.
    Backtracks over images of equal element order for a greedy generating
    set (next generator: an element of highest order outside the span); each
    partial map r -> s is closed under right multiplication by the
    generators and rejected when inconsistent or not injective."""
    order_g = {x: _element_order(g, x) for x in g.isotropy_members(r)}
    order_h = {y: _element_order(h, y) for y in h.isotropy_members(s)}
    if sorted(order_g.values()) != sorted(order_h.values()):
        return None
    by_order = sorted(order_g, key=lambda x: -order_g[x])

    def extend(pairs: list[tuple[int, int]]) -> Optional[dict[int, int]]:
        phi, queue = {r: s}, [r]
        for a in queue:
            for x, y in pairs:
                b, c = g.mul.get((a, x)), h.mul.get((phi[a], y))
                if b not in phi:
                    phi[b] = c
                    queue.append(b)
                elif phi[b] != c:
                    return None
        if len(set(phi.values())) != len(phi):
            return None
        x = next((x for x in by_order if x not in phi), None)
        if x is None:
            return phi
        found = (extend(pairs + [(x, y)]) for y in order_h if order_h[y] == order_g[x])
        return next((iso for iso in found if iso is not None), None)

    return extend([])


def is_isomorphic(g: FiniteGroupoid, h: FiniteGroupoid) -> Optional[tuple[int, ...]]:
    """Search for a structure-preserving bijection g -> h.

    Returns the element map as a tuple (position x holds the image of x),
    or None when the groupoids are not isomorphic.  Components are matched
    greedily by unit count and vertex-group isomorphism φ (Brandt's theorem);
    with arrows t, t' out of matched roots and units paired by σ, x : u -> v
    goes to t'(σu)^-1 * φ(t(u) * x * t(v)^-1) * t'(σv), checked against both
    tables.  Raises SizeLimitError above ``ISO_SIZE_LIMIT`` elements, then
    ValueError when either table fails :func:`validate`, before any answer.
    """
    if len(g) > ISO_SIZE_LIMIT or len(h) > ISO_SIZE_LIMIT:
        raise SizeLimitError(
            f"isomorphism search limited to {ISO_SIZE_LIMIT} elements, got {len(g)} and {len(h)}"
        )
    validate(g).require("is_isomorphic: first argument is not a groupoid")
    validate(h).require("is_isomorphic: second argument is not a groupoid")
    if len(g) != len(h) or len(g.units) != len(h.units) or len(g.mul) != len(h.mul):
        return None
    free = _components(h)
    image: dict[Optional[int], Optional[int]] = {}
    for r, tree in _components(g):
        for i, (s, tree2) in enumerate(free):
            phi = _vertex_group_iso(g, r, h, s) if len(tree2) == len(tree) else None
            if phi is not None:
                break
        else:
            return None
        del free[i]
        arrows = [(tree[u], tree2[w]) for u, w in zip(sorted(tree), sorted(tree2))]
        for t, t2 in arrows:
            for z, z2 in phi.items():
                for a, a2 in arrows:
                    x = g.mul.get((g.mul.get((g.inv[t], z)), a))
                    image[x] = h.mul.get((h.mul.get((h.inv[t2], z2)), a2))
    f = tuple(image.get(x) for x in range(len(g)))
    if (set(f) != set(range(len(h))) or not all(h.is_unit(f[u]) for u in g.units)
            or any((h.alpha[y], h.beta[y], h.inv[y]) != (f[g.alpha[x]], f[g.beta[x]], f[g.inv[x]])
                   for x, y in enumerate(f))
            or any(h.mul.get((f[x], f[y])) != f[z] for (x, y), z in g.mul.items())):
        raise ValueError("is_isomorphic: the component map is not an isomorphism")
    return f  # type: ignore[return-value]
