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
    _additive_on_generators,
    _cap,
    monoid_generators,
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
    # Sums the terms' rows (left) or columns (right) pointwise, from zero.
    add = g.S.add
    table = (g.S.zero,) * ns
    for first, second in f.terms:
        term = act[first][second] if f.side == LEFT else [plane[first][second] for plane in act]
        table = tuple(add[u][v] for u, v in zip(table, term))
    return ActionMap(table)


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

    Maps are deduplicated by their key, the tuple of their values on S's
    additive generators (`core.monoid_generators`); each map keeps the first
    formal sum that produced it.  Every map of the closure is additive and
    fixes zero (proved below), and such a map is determined by its values on
    the generators (the lemma in `monoid_generators`), so two maps share a
    key exactly when they share a table.  A sum's key is the pointwise sum
    of its summands' keys, and its table is built only when that key is
    new.  A product is formed by `_compose` and looked up by the key read
    off its table.  The generators themselves are told apart by their
    tables, since they are checked for additivity only once all are in.

    The closure is semi-naive: a round pairs only the maps found since the
    previous round with all maps, because a pair of older maps was tabled in
    an earlier round and admits nothing new.  The rounds visit the remaining
    pairs in the order a full rescan would, so discovery order, labels and
    provenance are those of the full rescan, and each pair's result is its
    cell of the `add` and `mul` tables.

    The result is a hemiring without a check of its tables.  S is validated
    as a commutative monoid up front, and each generator map is checked to
    fix zero and to be additive before any sum or product is formed.  That
    covers every map of the closure: (f+g)(a+b) = f(a)+f(b)+g(a)+g(b) =
    (f+g)(a) + (f+g)(b) since + on S commutes and associates, and (f+g)(0) =
    0 + 0 = 0; a composite of two such maps, in either orientation, is such
    a map.  The generators are admitted first, as op0, op1, ..., so a scan
    of every map in index order would stop at the same generator with the
    same message.  Such maps form a hemiring under pointwise + and
    composition f.g = f(g(-)): + inherits commutativity and associativity
    from S; composition is associative; (f+g).h = f.h + g.h holds pointwise;
    f.(g+h) = f.g + f.h and f.0 = 0 hold because f is additive and fixes
    zero; 0.f = 0 always holds.  The reversed composition of the right side
    satisfies the same laws.  The closure is closed under both operations,
    so it is a hemiring too once it holds the zero map; a closure in which
    no map vanishes raises StructureError.
    """
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be {LEFT!r} or {RIGHT!r}")
    limit = _cap(OPERATOR_CAP_ENV, DEFAULT_OPERATOR_CAP)
    s = g.S
    rep = validate_monoid(s)
    if not rep.valid:
        raise StructureError(f"carrier S is not a commutative monoid: {rep.violations[0][0]}", rep)
    sadd = s.add
    maps: list[ActionMap] = []
    keys: list[tuple[int, ...]] = []
    prov: list[FormalSum] = []
    index: dict[tuple[int, ...], int] = {}

    def new(key: tuple[int, ...], m: ActionMap, provenance: FormalSum) -> int:
        if len(maps) >= limit:
            raise CapacityError(f"operator closure exceeded cap {limit} maps")
        k = index[key] = len(maps)
        maps.append(m)
        keys.append(key)
        prov.append(provenance)
        return k

    # The generator maps are not yet known to be additive, so they are told
    # apart by their whole tables.
    def generator(x: int, ga: int) -> int:
        f = FormalSum(side, ((x, ga) if side == LEFT else (ga, x),))
        m = realize(g, f)
        k = index.get(m.table)
        return new(m.table, m, f) if k is None else k

    embed = tuple(tuple(generator(x, ga) for ga in range(g.Gamma.n)) for x in range(s.n))
    # Only a map that fails the generator check is scanned pair by pair, for
    # the first (a, b) it breaks.
    gens = monoid_generators(s)
    for k, m in enumerate(maps):
        t = m.table
        if t[s.zero] != s.zero:
            raise StructureError(f"map op{k} does not fix zero")
        if _additive_on_generators(t, sadd, gens):
            continue
        for a in range(s.n):
            for b in range(s.n):
                if t[sadd[a][b]] != sadd[t[a]][t[b]]:
                    raise StructureError(f"map op{k} is not additive at ({a},{b})")

    # From here on every map is additive and fixes zero, so its values on
    # S's generators are its key.
    keys[:] = [tuple(m.table[x] for x in gens) for m in maps]
    index = {key: k for k, key in enumerate(keys)}

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
            add_row, mul_row, map_i, key_i = add_rows[i], mul_rows[i], maps[i], keys[i]
            for j in range(len(mul_row), size):
                if i <= j:
                    key = tuple(sadd[u][v] for u, v in zip(key_i, keys[j]))
                    k = index.get(key)
                    if k is None:
                        k = new(key, _pointwise_add(s, map_i, maps[j]), prov[i] + prov[j])
                    add_row.append(k)
                else:
                    add_row.append(add_rows[j][i])
                m = _compose(side, map_i, maps[j])
                key = tuple(m.table[x] for x in gens)
                k = index.get(key)
                if k is None:
                    k = new(key, m, formal_product(g, prov[i], prov[j]))
                mul_row.append(k)

    zero = index.get((s.zero,) * len(gens))
    if zero is None:
        raise StructureError(f"the {side} closure holds no zero map")
    return OperatorHemiring(
        tuple(f"op{k}" for k in range(len(maps))), zero,
        tuple(map(tuple, add_rows)), tuple(map(tuple, mul_rows)),
        f"{'L' if side == LEFT else 'R'}({g.name})",
        side=side, structure=g.name, maps=tuple(maps), provenance=tuple(prov), embed=embed,
    )


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
