"""Finite gamma-hemirings presented by dense operation tables.

Elements are integer indices into an ordered label list and every operation
table is index-valued, so exhaustive law checks run as plain nested loops and
witnesses come out in a fixed lexicographic order.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from operator import getitem, itemgetter
from typing import Iterable, Sequence

DEFAULT_CELL_CAP = 1_000_000
DEFAULT_VIOLATION_CAP = 16

CELL_CAP_ENV = "GAMMAH_CELL_CAP"


class StructureError(ValueError):
    """Tables that are malformed or violate the laws they promised."""

    def __init__(self, message: str, report: "ValidationReport | None" = None):
        super().__init__(message)
        self.report = report


class CapacityError(RuntimeError):
    """A configured size cap would be exceeded."""


class SettingError(ValueError):
    """An environment setting that does not parse."""


def _cap(env_name: str, default: int) -> int:
    raw = os.environ.get(env_name, "")
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise SettingError(f"{env_name} must be an integer, not {raw!r}") from None


def _check_cells(what: str, cells: int) -> None:
    """Raise CapacityError when a table of `cells` entries exceeds GAMMAH_CELL_CAP."""
    limit = _cap(CELL_CAP_ENV, DEFAULT_CELL_CAP)
    if cells > limit:
        raise CapacityError(f"{what} needs {cells} cells, cap is {limit}")


def _memo(obj, key, build):
    # Lazy per-object cache; frozen dataclasses still allow object.__setattr__.
    cache = obj.__dict__.get("_memo")
    if cache is None:
        object.__setattr__(obj, "_memo", {})
        cache = obj.__dict__["_memo"]
    if key not in cache:
        cache[key] = build()
    return cache[key]


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def describe(self) -> str:
        if self.valid:
            return "valid"
        lines = [
            f"violation {law}: witness ({', '.join(witness)})"
            for law, witness in self.violations
        ]
        return "\n".join(lines)


class _Violations:
    """Collects (law, witness) pairs up to a cap."""

    def __init__(self, cap: int = DEFAULT_VIOLATION_CAP):
        self.cap = cap
        self.items: list[tuple[str, tuple[str, ...]]] = []

    def add(self, law: str, witness: tuple[str, ...]) -> bool:
        """Record one violation; returns False once the cap is reached."""
        if len(self.items) < self.cap:
            self.items.append((law, witness))
        return len(self.items) < self.cap

    def report(self) -> ValidationReport:
        return ValidationReport(valid=not self.items, violations=tuple(self.items))


@dataclass(frozen=True)
class FiniteMonoid:
    """Additive commutative monoid on elements 0..n-1 given by its table."""

    elements: tuple[str, ...]
    zero: int
    add: tuple[tuple[int, ...], ...]
    name: str = ""

    @property
    def n(self) -> int:
        return len(self.elements)

    def add_all(self, indices: Iterable[int]) -> int:
        total = self.zero
        tbl = self.add
        for i in indices:
            total = tbl[total][i]
        return total

    def index_of(self, label: str) -> int:
        return _memo(self, "index", lambda: {e: i for i, e in enumerate(self.elements)})[label]


def check_monoid_shape(m: FiniteMonoid) -> None:
    """Raise StructureError when tables cannot even be interpreted."""
    n = len(m.elements)
    if n == 0:
        raise StructureError("monoid has no elements")
    if not (0 <= m.zero < n):
        raise StructureError(f"zero index {m.zero} out of range for {n} elements")
    if len(m.add) != n or any(len(row) != n for row in m.add):
        raise StructureError(f"addition table is not {n}x{n}")
    for row in m.add:
        for v in row:
            if not (0 <= v < n):
                raise StructureError(f"addition table entry {v} out of range")


def validate_monoid(m: FiniteMonoid, violation_cap: int = DEFAULT_VIOLATION_CAP) -> ValidationReport:
    """Exhaustively check the commutative-monoid laws.

    Violations are reported with the lexicographically first witness per law,
    up to `violation_cap` entries overall.
    """
    check_monoid_shape(m)
    out = _Violations(violation_cap)
    lab = m.elements
    n = m.n
    seen: set[str] = set()
    for e in lab:
        if not e:
            out.add("label-nonempty", (repr(e),))
        if e in seen:
            out.add("label-unique", (e,))
        seen.add(e)
    add = m.add
    z = m.zero
    for x in range(n):
        if add[z][x] != x or add[x][z] != x:
            if not out.add("zero-neutral", (lab[x],)):
                return out.report()
    for a in range(n):
        for b in range(n):
            if add[a][b] != add[b][a]:
                if not out.add("commutative", (lab[a], lab[b])):
                    return out.report()
    for a in range(n):
        for b in range(n):
            row_ab = add[add[a][b]]
            for c in range(n):
                if row_ab[c] != add[a][add[b][c]]:
                    if not out.add("associative", (lab[a], lab[b], lab[c])):
                        return out.report()
    return out.report()


@dataclass(frozen=True)
class Hemiring:
    """Commutative additive monoid plus a distributive semigroup product.

    No multiplicative identity is required; the zero annihilates.
    """

    elements: tuple[str, ...]
    zero: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    name: str = ""

    @property
    def n(self) -> int:
        return len(self.elements)

    def monoid(self) -> FiniteMonoid:
        return FiniteMonoid(self.elements, self.zero, self.add, self.name)


def validate_hemiring(h: Hemiring, violation_cap: int = DEFAULT_VIOLATION_CAP) -> ValidationReport:
    """Monoid laws plus associativity, distributivity and zero annihilation."""
    base = validate_monoid(h.monoid(), violation_cap)
    out = _Violations(violation_cap)
    out.items.extend(base.violations)
    n = h.n
    if len(h.mul) != n or any(len(row) != n for row in h.mul):
        raise StructureError(f"multiplication table is not {n}x{n}")
    for row in h.mul:
        for v in row:
            if not (0 <= v < n):
                raise StructureError(f"multiplication table entry {v} out of range")
    lab = h.elements
    add, mul, z = h.add, h.mul, h.zero
    for a in range(n):
        if mul[z][a] != z or mul[a][z] != z:
            out.add("zero-absorbing", (lab[a],))
    # Each (a, b) compares the three laws as whole rows over c; only a pair
    # whose rows differ is walked element by element, which reports the same
    # violations in the same order as a walk over every triple.  (With n = 1
    # a getter returns a bare index, never equal to a row, so it is walked.)
    by_mul = [itemgetter(*row) for row in mul]  # by_mul[x](r)[c] == r[mul[x][c]]
    by_add = [itemgetter(*row) for row in add]
    for a in range(n):
        ma, adda = mul[a], add[a]
        sum_rows = [add[p] for p in ma]  # sum_rows[c][q] == mul[a][c] + q
        for b in range(n):
            mb, ab = mul[b], ma[b]
            if (
                mul[ab] == by_mul[b](ma)
                and mul[adda[b]] == tuple(map(getitem, sum_rows, mb))
                and by_add[b](ma) == by_mul[a](add[ab])
            ):
                continue
            for c in range(n):
                if mul[ab][c] != ma[mb[c]]:
                    out.add("mul-associative", (lab[a], lab[b], lab[c]))
                if mul[adda[b]][c] != add[ma[c]][mb[c]]:
                    out.add("left-distributive", (lab[a], lab[b], lab[c]))
                if ma[add[b][c]] != add[ab][ma[c]]:
                    out.add("right-distributive", (lab[a], lab[b], lab[c]))
                if len(out.items) >= out.cap:
                    return out.report()
    return out.report()


@dataclass(frozen=True)
class GammaHemiring:
    """Carrier monoid S acted on by a monoid Gamma via a ternary table.

    action[a][g][b] is the index in S of the product of a and b along g.
    """

    name: str
    S: FiniteMonoid
    Gamma: FiniteMonoid
    action: tuple[tuple[tuple[int, ...], ...], ...]

    def act(self, a: int, g: int, b: int) -> int:
        return self.action[a][g][b]


AXIOM_NAMES = (
    "axiom-1",  # (a+b) g c == a g c + b g c
    "axiom-2",  # a g (b+c) == a g b + a g c
    "axiom-3",  # a (g+h) b == a g b + a h b
    "axiom-4",  # a g (b h c) == (a g b) h c
    "axiom-5",  # 0 g a == 0 == a g 0
    "axiom-6",  # a 0 b == 0 == b 0 a
)


def check_action_shape(g: GammaHemiring) -> None:
    ns, ng = g.S.n, g.Gamma.n
    if len(g.action) != ns:
        raise StructureError(f"action table has {len(g.action)} rows, expected {ns}")
    for plane in g.action:
        if len(plane) != ng or any(len(row) != ns for row in plane):
            raise StructureError("action table is not |S| x |Gamma| x |S|")
        for row in plane:
            for v in row:
                if not (0 <= v < ns):
                    raise StructureError(f"action table entry {v} out of range")


def validate_gamma_hemiring(
    g: GammaHemiring, violation_cap: int = DEFAULT_VIOLATION_CAP
) -> ValidationReport:
    """Check axioms 1-6 exhaustively over all argument tuples.

    Carrier monoids are validated first; if either fails, that report is
    returned (with law names prefixed `S:` or `Gamma:`) and the axioms are
    not examined.
    """
    for prefix, mon in (("S", g.S), ("Gamma", g.Gamma)):
        rep = validate_monoid(mon, violation_cap)
        if not rep.valid:
            return ValidationReport(
                False,
                tuple((f"{prefix}:{law}", w) for law, w in rep.violations),
            )
    check_action_shape(g)
    ns, ng = g.S.n, g.Gamma.n
    _check_cells("axiom check", ns * ng * ns)

    out = _Violations(violation_cap)
    sl, gl = g.S.elements, g.Gamma.elements
    sadd, gadd, act = g.S.add, g.Gamma.add, g.action
    zs, zg = g.S.zero, g.Gamma.zero

    for a in range(ns):
        for b in range(ns):
            ab = sadd[a][b]
            for ga in range(ng):
                for c in range(ns):
                    if act[ab][ga][c] != sadd[act[a][ga][c]][act[b][ga][c]]:
                        out.add("axiom-1", (sl[a], sl[b], gl[ga], sl[c]))
                    if act[c][ga][ab] != sadd[act[c][ga][a]][act[c][ga][b]]:
                        out.add("axiom-2", (sl[c], gl[ga], sl[a], sl[b]))
    for a in range(ns):
        for ga in range(ng):
            for gb in range(ng):
                gs = gadd[ga][gb]
                for b in range(ns):
                    if act[a][gs][b] != sadd[act[a][ga][b]][act[a][gb][b]]:
                        out.add("axiom-3", (sl[a], gl[ga], gl[gb], sl[b]))
    # Axiom-4 compares whole rows over c; only a row that differs is walked
    # element by element, which reports the same violations in the same order.
    # (With |S| = 1 a getter returns a bare index, never equal to a row, so
    # the single element is always walked.)
    getters = [[itemgetter(*act[b][gb]) for gb in range(ng)] for b in range(ns)]
    for a in range(ns):
        for ga in range(ng):
            left = act[a][ga]
            for b in range(ns):
                outer = act[left[b]]
                row_getters = getters[b]
                for gb in range(ng):
                    if row_getters[gb](left) == outer[gb]:
                        continue
                    inner = act[b][gb]
                    for c in range(ns):
                        if left[inner[c]] != outer[gb][c]:
                            out.add("axiom-4", (sl[a], gl[ga], sl[b], gl[gb], sl[c]))
    for ga in range(ng):
        for a in range(ns):
            if act[zs][ga][a] != zs or act[a][ga][zs] != zs:
                out.add("axiom-5", (sl[a], gl[ga]))
    for a in range(ns):
        for b in range(ns):
            if act[a][zg][b] != zs or act[b][zg][a] != zs:
                out.add("axiom-6", (sl[a], sl[b]))
    return out.report()


@dataclass(frozen=True)
class ProductStructure:
    """A carrier monoid plus, for each ordered pair, the set of products.

    Unifies the gamma-hemiring case (all products a g b over g) and the plain
    hemiring case (singleton a*b), so h-products and ideal checks share one
    engine.
    """

    carrier: FiniteMonoid
    pair_products: tuple[tuple[tuple[int, ...], ...], ...]


def action_columns(g: GammaHemiring) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """columns[x][y] = (x g y for g in Gamma): the products of x and y along each g."""
    ns, ng, act = g.S.n, g.Gamma.n, g.action
    return tuple(
        tuple(tuple(act[x][ga][y] for ga in range(ng)) for y in range(ns)) for x in range(ns)
    )


def as_product_structure(g: GammaHemiring) -> ProductStructure:
    """pair_products(a, b) = {a g b : g in Gamma}."""
    table = tuple(tuple(tuple(sorted(set(col))) for col in row) for row in action_columns(g))
    mon = g.S if g.S.name else FiniteMonoid(g.S.elements, g.S.zero, g.S.add, f"{g.name}:S")
    return ProductStructure(mon, table)


def hemiring_product_structure(h: Hemiring) -> ProductStructure:
    """pair_products(a, b) = {a*b}."""
    n = h.n
    table = tuple(tuple((h.mul[a][b],) for b in range(n)) for a in range(n))
    return ProductStructure(h.monoid(), table)


def from_hemiring(
    add: Sequence[Sequence[int]],
    mul: Sequence[Sequence[int]],
    elements: Sequence[str] | None = None,
    zero: int = 0,
    name: str = "",
) -> GammaHemiring:
    """View a hemiring H as a gamma-hemiring with Gamma = H and a g b = a*g*b.

    The hemiring laws are validated first; a violation raises StructureError
    carrying the offending report.
    """
    n = len(add)
    labels = tuple(elements) if elements is not None else tuple(str(i) for i in range(n))
    h = Hemiring(labels, zero, tuple(map(tuple, add)), tuple(map(tuple, mul)), name)
    rep = validate_hemiring(h)
    if not rep.valid:
        raise StructureError(f"not a hemiring: {rep.violations[0][0]}", rep)
    return gamma_from_hemiring(h)


def gamma_from_hemiring(h: Hemiring) -> GammaHemiring:
    """Same as from_hemiring but for an already validated Hemiring value."""
    n = h.n
    _check_cells("hemiring action", n ** 3)
    mul = h.mul
    action = tuple(
        tuple(tuple(mul[mul[a][g]][b] for b in range(n)) for g in range(n))
        for a in range(n)
    )
    mon = h.monoid()
    return GammaHemiring(h.name or "H", mon, mon, action)


def product_monoid(a: FiniteMonoid, b: FiniteMonoid) -> FiniteMonoid:
    """Componentwise product monoid with labels "(x,y)".

    Memoized on the left factor by the identity of the right one: the same
    factor objects give the same carrier object.  The entry holds the right
    factor, so that its id is not reused while the entry lives, unless it is
    the left factor itself, which would make a reference cycle.
    """

    def build() -> tuple[FiniteMonoid | None, FiniteMonoid]:
        _check_cells("product carrier", (a.n * b.n) ** 2)
        nb = b.n
        labels = tuple(f"({x},{y})" for x in a.elements for y in b.elements)
        zero = a.zero * nb + b.zero
        add = tuple(
            tuple(a.add[i1][j1] * nb + b.add[i2][j2] for j1 in range(a.n) for j2 in range(nb))
            for i1 in range(a.n)
            for i2 in range(nb)
        )
        name = f"{a.name}x{b.name}" if (a.name or b.name) else ""
        return None if b is a else b, FiniteMonoid(labels, zero, add, name)

    return _memo(a, ("product", id(b)), build)[1]


def pair_product_structure(
    carrier: FiniteMonoid, columns: Sequence[Sequence[tuple[int, ...]]]
) -> ProductStructure:
    """The product structure of carrier x carrier, multiplied componentwise.

    columns[x][y] lists the products of x and y along each parameter: the
    Gamma-column (x g y over g in Gamma) of a gamma-hemiring, or the single
    product (x*y,) of a hemiring.  The products of (x1,x2) and (y1,y2) are
    the pairs read in step along the columns of (x1,y1) and (x2,y2), so they
    depend on those two columns alone.  Equal columns are interned and each
    pair of distinct columns is computed once, so a gamma-hemiring's S x S
    never builds the |S|^4|Gamma| action table of product(g, g).
    """
    n = carrier.n
    ids: dict[tuple[int, ...], int] = {}
    col_id = [[ids.setdefault(col, len(ids)) for col in row] for row in columns]
    prods = [[tuple(sorted({u * n + v for u, v in zip(c1, c2)})) for c2 in ids] for c1 in ids]
    table = tuple(
        tuple(prods[c1][c2] for c1 in row1 for c2 in row2) for row1 in col_id for row2 in col_id
    )
    return ProductStructure(product_monoid(carrier, carrier), table)


def product(g1: GammaHemiring, g2: GammaHemiring) -> GammaHemiring:
    """Binary product gamma-hemiring over a shared Gamma, acting componentwise."""
    ga, gb = g1.Gamma, g2.Gamma
    if (ga.elements, ga.zero, ga.add) != (gb.elements, gb.zero, gb.add):
        raise StructureError("factors must share the same Gamma (labels and tables)")
    n1, n2, ng = g1.S.n, g2.S.n, ga.n
    _check_cells("product structure", (n1 * n2) ** 2 * ng)
    s = product_monoid(g1.S, g2.S)
    a1, a2 = g1.action, g2.action
    action = tuple(
        tuple(
            tuple(
                a1[x1][g][y1] * n2 + a2[x2][g][y2]
                for y1 in range(n1)
                for y2 in range(n2)
            )
            for g in range(ng)
        )
        for x1 in range(n1)
        for x2 in range(n2)
    )
    return GammaHemiring(f"{g1.name}x{g2.name}", s, ga, action)


def _matrices(h: Hemiring, rows: int, cols: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(h.n), repeat=rows * cols))


def _matrix_label(h: Hemiring, m: tuple[int, ...], rows: int, cols: int) -> str:
    return "|".join(
        ",".join(h.elements[m[r * cols + c]] for c in range(cols)) for r in range(rows)
    )


def _matrix_monoid(h: Hemiring, rows: int, cols: int, name: str) -> FiniteMonoid:
    mats = _matrices(h, rows, cols)
    index = {m: i for i, m in enumerate(mats)}
    labels = tuple(_matrix_label(h, m, rows, cols) for m in mats)
    zero = index[tuple(h.zero for _ in range(rows * cols))]
    add = tuple(
        tuple(index[tuple(h.add[x][y] for x, y in zip(m1, m2))] for m2 in mats)
        for m1 in mats
    )
    return FiniteMonoid(labels, zero, add, name)


def _mat_mul(h: Hemiring, m1: Sequence[int], r1: int, c1: int, m2: Sequence[int], c2: int) -> tuple[int, ...]:
    out = []
    for r in range(r1):
        for c in range(c2):
            acc = h.zero
            for k in range(c1):
                acc = h.add[acc][h.mul[m1[r * c1 + k]][m2[k * c2 + c]]]
            out.append(acc)
    return tuple(out)


def matrix_gamma_hemiring(h: Hemiring, rows: int, cols: int) -> GammaHemiring:
    """S = rows x cols matrices over h, Gamma = cols x rows, triple product action."""
    if rows < 1 or cols < 1:
        raise StructureError("matrix dimensions must be positive")
    rep = validate_hemiring(h)
    if not rep.valid:
        raise StructureError(f"base is not a hemiring: {rep.violations[0][0]}", rep)
    ns = h.n ** (rows * cols)
    ng = h.n ** (cols * rows)
    _check_cells("matrix structure", ns * ng * ns)
    name = f"Mat({h.name or 'H'},{rows}x{cols})"
    s = _matrix_monoid(h, rows, cols, f"{name}:S")
    gam = _matrix_monoid(h, cols, rows, f"{name}:Gamma")
    smats = _matrices(h, rows, cols)
    gmats = _matrices(h, cols, rows)
    sindex = {m: i for i, m in enumerate(smats)}
    action = tuple(
        tuple(
            tuple(
                sindex[_mat_mul(h, _mat_mul(h, a, rows, cols, g, rows), rows, rows, b, cols)]
                for b in smats
            )
            for g in gmats
        )
        for a in smats
    )
    return GammaHemiring(name, s, gam, action)
