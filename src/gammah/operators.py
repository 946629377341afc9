"""Left and right operator hemirings realized as closures of action maps.

A formal sum of generator pairs acts on the carrier S; two sums are
congruent exactly when they induce the same total map, so the quotient is
enumerated as a function-closure fixpoint under pointwise addition and
composition.  Composition is oriented so the tables match the defining
relations: on the left side (f.g)(a) = f(g(a)), on the right side
(f.g)(a) = g(f(a)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    CapacityError,
    FiniteMonoid,
    GammaHemiring,
    Hemiring,
    StructureError,
    _cap,
    validate_monoid,
)

LEFT = "left"
RIGHT = "right"

DEFAULT_OPERATOR_CAP = 20_000
OPERATOR_CAP_ENV = "GAMMAH_OPERATOR_CAP"


@dataclass(frozen=True)
class FormalSum:
    """Non-empty sum of generator pairs: (S,Gamma) on the left, (Gamma,S) on the right."""

    side: str
    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.side not in (LEFT, RIGHT):
            raise ValueError(f"side must be {LEFT!r} or {RIGHT!r}")
        if not self.terms:
            raise ValueError("formal sums must have at least one term")

    def __add__(self, other: "FormalSum") -> "FormalSum":
        if self.side != other.side:
            raise ValueError("cannot add formal sums of different sides")
        return FormalSum(self.side, self.terms + other.terms)


@dataclass(frozen=True)
class ActionMap:
    """Total additive map S -> S induced by a formal sum."""

    table: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.table[a]


def formal_sum_label(g: GammaHemiring, f: FormalSum) -> str:
    if f.side == LEFT:
        parts = [f"[{g.S.elements[x]},{g.Gamma.elements[ga]}]" for x, ga in f.terms]
    else:
        parts = [f"[{g.Gamma.elements[ga]},{g.S.elements[x]}]" for ga, x in f.terms]
    return "+".join(parts)


def realize(g: GammaHemiring, f: FormalSum) -> ActionMap:
    """The map a -> sum_i x_i g_i a (left) or a -> sum_i a g_i x_i (right)."""
    ns = g.S.n
    ng = g.Gamma.n
    act = g.action
    for t in f.terms:
        first, second = t
        x, ga = (first, second) if f.side == LEFT else (second, first)
        if not (0 <= x < ns and 0 <= ga < ng):
            raise ValueError(f"term {t} out of range")
    table = []
    for a in range(ns):
        if f.side == LEFT:
            total = g.S.add_all(act[x][ga][a] for x, ga in f.terms)
        else:
            total = g.S.add_all(act[a][ga][x] for ga, x in f.terms)
        table.append(total)
    return ActionMap(tuple(table))


def rho_equivalent(g: GammaHemiring, f1: FormalSum, f2: FormalSum) -> bool:
    """Congruent iff both sums act identically on every carrier element."""
    if f1.side != f2.side:
        raise ValueError("formal sums on different sides are never compared")
    return realize(g, f1) == realize(g, f2)


def formal_product(g: GammaHemiring, f1: FormalSum, f2: FormalSum) -> FormalSum:
    """Pairwise product of formal sums, matching the quotient multiplication."""
    if f1.side != f2.side:
        raise ValueError("cannot multiply formal sums of different sides")
    act = g.action
    terms = []
    if f1.side == LEFT:
        for x, ga in f1.terms:
            for y, gb in f2.terms:
                terms.append((act[x][ga][y], gb))
    else:
        for ga, x in f1.terms:
            for gb, y in f2.terms:
                terms.append((ga, act[x][gb][y]))
    return FormalSum(f1.side, tuple(terms))


@dataclass(frozen=True, kw_only=True)
class OperatorHemiring(Hemiring):
    """Finite operator hemiring: distinct action maps closed under + and composition.

    A Hemiring whose element k is labelled "op<k>" in closure-discovery order
    and whose name is L(<structure>) or R(<structure>).  `maps[k]` is the
    action map of op<k>; `provenance[k]` is one formal sum realizing it
    (first found); `embed[x][gamma]` is the index of the generator class
    [x,gamma] (left) or [gamma,x] (right).
    """

    side: str
    structure: str
    maps: tuple[ActionMap, ...]
    provenance: tuple[FormalSum, ...]
    embed: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "_index", {m.table: i for i, m in enumerate(self.maps)})

    def index_of(self, m: ActionMap) -> int:
        return self._index[m.table]


def _pointwise_add(s: FiniteMonoid, m1: ActionMap, m2: ActionMap) -> ActionMap:
    add = s.add
    return ActionMap(tuple(add[a][b] for a, b in zip(m1.table, m2.table)))


def _compose(side: str, m1: ActionMap, m2: ActionMap) -> ActionMap:
    # Left operators act first on the inner argument; right operators chain
    # the other way so the table matches the defining multiplication.
    if side == LEFT:
        return ActionMap(tuple(m1.table[v] for v in m2.table))
    return ActionMap(tuple(m2.table[v] for v in m1.table))


def build_operator(g: GammaHemiring, side: str) -> OperatorHemiring:
    """Breadth-first closure of the generator maps under + and composition.

    Maps are deduplicated by table equality; each map keeps the first formal
    sum that produced it.  The closure is semi-naive: a round pairs only the
    maps found since the previous round with all maps, because a pair of
    older maps was tabled in an earlier round and admits nothing new.  The
    rounds visit the remaining pairs in the order a full rescan would, so
    discovery order, labels and provenance are those of the full rescan, and
    each pair's result is its cell of the `add` and `mul` tables.

    The result is a hemiring without a check of its tables.  S is validated
    as a commutative monoid up front, and every map is checked to fix zero
    and to be additive.  Such maps form a hemiring under pointwise + and
    composition f.g = f(g(-)): + inherits commutativity and associativity
    from S; composition is associative; (f+g).h = f.h + g.h holds pointwise;
    f.(g+h) = f.g + f.h and f.0 = 0 hold because f is additive and fixes
    zero; 0.f = 0 always holds.  The reversed composition of the right side
    satisfies the same laws.  The closure is closed under both operations
    and holds the zero map, so it is a hemiring too.
    """
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be {LEFT!r} or {RIGHT!r}")
    limit = _cap(OPERATOR_CAP_ENV, DEFAULT_OPERATOR_CAP)
    s = g.S
    rep = validate_monoid(s)
    if not rep.valid:
        raise StructureError(f"carrier S is not a commutative monoid: {rep.violations[0][0]}", rep)
    maps: list[ActionMap] = []
    prov: list[FormalSum] = []
    index: dict[tuple[int, ...], int] = {}

    def admit(m: ActionMap, provenance) -> int:
        k = index.get(m.table)
        if k is None:
            if len(maps) >= limit:
                raise CapacityError(f"operator closure exceeded cap {limit} maps")
            k = index[m.table] = len(maps)
            maps.append(m)
            prov.append(provenance())
        return k

    def generator(x: int, ga: int) -> int:
        f = FormalSum(side, ((x, ga) if side == LEFT else (ga, x),))
        return admit(realize(g, f), lambda: f)

    embed = tuple(tuple(generator(x, ga) for ga in range(g.Gamma.n)) for x in range(s.n))

    # add_rows[i] and mul_rows[i] hold the tabled results of map i with maps
    # 0..len-1; a round extends every row to the maps that existed when it
    # began.  Addition on S commutes, so add[i][j] for i > j is add[j][i],
    # which row j already holds.
    add_rows: list[list[int]] = []
    mul_rows: list[list[int]] = []
    while len(mul_rows) < len(maps):
        size = len(maps)
        for _ in range(len(mul_rows), size):
            add_rows.append([])
            mul_rows.append([])
        for i in range(size):
            add_row, mul_row = add_rows[i], mul_rows[i]
            for j in range(len(mul_row), size):
                if i <= j:
                    add_row.append(admit(
                        _pointwise_add(s, maps[i], maps[j]), lambda: prov[i] + prov[j]
                    ))
                else:
                    add_row.append(add_rows[j][i])
                mul_row.append(admit(
                    _compose(side, maps[i], maps[j]), lambda: formal_product(g, prov[i], prov[j])
                ))

    zero = index[tuple(s.zero for _ in range(s.n))]
    op = OperatorHemiring(
        tuple(f"op{k}" for k in range(len(maps))), zero,
        tuple(map(tuple, add_rows)), tuple(map(tuple, mul_rows)),
        f"{'L' if side == LEFT else 'R'}({g.name})",
        side=side, structure=g.name, maps=tuple(maps), provenance=tuple(prov), embed=embed,
    )
    for k, m in enumerate(maps):
        if m.table[s.zero] != s.zero:
            raise StructureError(f"map op{k} does not fix zero")
        for a in range(s.n):
            for b in range(s.n):
                if m.table[s.add[a][b]] != s.add[m.table[a]][m.table[b]]:
                    raise StructureError(f"map op{k} is not additive at ({a},{b})")
    return op


def embed(g: GammaHemiring, op: OperatorHemiring, x: int, gamma: int) -> int:
    """Index in the closure of the single-generator class [x,gamma] (or [gamma,x])."""
    pair = (x, gamma) if op.side == LEFT else (gamma, x)
    return op.index_of(realize(g, FormalSum(op.side, (pair,))))


@dataclass(frozen=True)
class Unity:
    kind: str  # left | right
    strong: bool
    witness: FormalSum


def find_unity(g: GammaHemiring, op: OperatorHemiring) -> Unity | None:
    """The identity map's class, if any, witnessed by its provenance.

    The unity is strong (a single generator realizes it) exactly when its
    provenance has one term, and then the provenance is the first such
    generator in (x, gamma) order:
      - build_operator admits every generator, in (x, gamma) order, before
        any sum or product, so a class that some generator realizes has the
        first such generator as its provenance;
      - a sum has two or more terms;
      - a product of two one-term sums is one term, so it is a generator.
    So a class no generator realizes has a provenance of two or more terms.
    """
    k = op._index.get(tuple(range(g.S.n)))
    if k is None:
        return None
    witness = op.provenance[k]
    return Unity(op.side, len(witness.terms) == 1, witness)
