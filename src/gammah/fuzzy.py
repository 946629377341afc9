"""Fuzzy subsets over finite carriers with exact rational membership values.

All values are `fractions.Fraction` restricted to [0,1]; no floating point
enters anywhere.  The kernels compare int ranks, not Fractions: _ranks maps
the inputs' distinct values, ascending, onto 0..k-1, an order isomorphism,
so min, max and >= commute with it, and a result read back through its
levels is the exact input object (or ZERO) that comparing the Fractions
would pick.  So the sup/inf identities checked elsewhere are exact
equalities of canonical rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import FiniteMonoid, ProductStructure, _memo, product_monoid

ZERO = Fraction(0)
ONE = Fraction(1)


def unit_rational(value) -> Fraction:
    """Parse/coerce into a Fraction and require it to lie in [0,1]."""
    v = Fraction(value)
    if not (0 <= v <= 1):
        raise ValueError(f"membership value {v} outside [0,1]")
    return v


@dataclass(frozen=True)
class FuzzySubset:
    carrier: FiniteMonoid
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != self.carrier.n:
            raise ValueError(
                f"{len(self.values)} values for carrier of size {self.carrier.n}"
            )

    def __call__(self, i: int) -> Fraction:
        return self.values[i]

    def is_constant(self) -> bool:
        return len(set(self.values)) == 1


def make_fuzzy(carrier: FiniteMonoid, values: Iterable) -> FuzzySubset:
    return FuzzySubset(carrier, tuple(unit_rational(v) for v in values))


def constant(carrier: FiniteMonoid, value) -> FuzzySubset:
    v = unit_rational(value)
    return FuzzySubset(carrier, tuple(v for _ in range(carrier.n)))


def _inside(carrier: FiniteMonoid, members: Iterable[int]) -> set[int]:
    """The members as a set of indices; ValueError if one lies outside the carrier."""
    inside = set(members)
    bad = inside - set(range(carrier.n))
    if bad:
        raise ValueError(f"members {sorted(bad)} outside carrier")
    return inside


def characteristic(carrier: FiniteMonoid, members: Iterable[int]) -> FuzzySubset:
    inside = _inside(carrier, members)
    return FuzzySubset(carrier, tuple(ONE if i in inside else ZERO for i in range(carrier.n)))


def _require_same_carrier(m1: FuzzySubset, m2: FuzzySubset) -> None:
    if m1.carrier != m2.carrier:
        raise ValueError(
            f"carrier mismatch: {m1.carrier.name or m1.carrier.elements} vs "
            f"{m2.carrier.name or m2.carrier.elements}"
        )


def _ranks(*subsets: FuzzySubset) -> tuple[list[Fraction], list[list[int]]]:
    """The distinct values ascending, as input objects, and each subset's values as
    ranks into them.  Values are deduplicated by id, so no Fraction is hashed."""
    distinct = {id(v): v for m in subsets for v in m.values}
    levels, rank_of = [], {}
    for v in sorted(distinct.values()):
        if not levels or v != levels[-1]:
            levels.append(v)
        rank_of[id(v)] = len(levels) - 1
    return levels, [list(map(rank_of.__getitem__, map(id, m.values))) for m in subsets]


def _cuts(ranks: Sequence[int], k: int) -> list[int]:
    """cuts[r] = bitmask of the x with ranks[x] >= r, for r in 0..k."""
    cuts = [0] * (k + 1)
    for x, r in enumerate(ranks):
        cuts[r] |= 1 << x
    for r in range(k - 1, -1, -1):
        cuts[r] |= cuts[r + 1]
    return cuts


def intersect(m1: FuzzySubset, m2: FuzzySubset) -> FuzzySubset:
    _require_same_carrier(m1, m2)
    return FuzzySubset(m1.carrier, tuple(map(min, m1.values, m2.values)))


def is_subset(m1: FuzzySubset, m2: FuzzySubset) -> bool:
    _require_same_carrier(m1, m2)
    return all(a <= b for a, b in zip(m1.values, m2.values))


def fuzzy_sum(m1: FuzzySubset, m2: FuzzySubset) -> FuzzySubset:
    """(m1 (+) m2)(x) = max over x = u+v of min(m1(u), m2(v)).

    Every x decomposes as x + zero, so the sup never ranges over an empty set
    on a monoid carrier.
    """
    _require_same_carrier(m1, m2)
    mon = m1.carrier
    levels, (r1, r2) = _ranks(m1, m2)
    # Rank 0 is the least value, a floor of every nonempty sup.
    best = [0] * mon.n
    for a, row in zip(r1, mon.add):
        for t, b in zip(row, r2):
            m = a if a < b else b
            if m > best[t]:
                best[t] = m
    return FuzzySubset(mon, tuple(map(levels.__getitem__, best)))


def cartesian(m1: FuzzySubset, m2: FuzzySubset) -> FuzzySubset:
    """(m1 x m2)(x,y) = min(m1(x), m2(y)) over the product carrier."""
    carrier = product_monoid(m1.carrier, m2.carrier)
    levels, (r1, r2) = _ranks(m1, m2)
    values = tuple(levels[a if a < b else b] for a in r1 for b in r2)
    return FuzzySubset(carrier, values)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def same_sum_rows(mon: FiniteMonoid) -> tuple[int, ...]:
    """rows[p] = bitmask of all q with p + z == q + z for some z.

    This is the single relation behind every h-condition scan: x + a + z ==
    b + z for some z is exactly rows[x+a] having bit b.  Bucketing by the
    value of p + z makes the whole table O(n^2) instead of scanning
    quadruples.
    """

    def build():
        n = mon.n
        add = mon.add
        rows = [0] * n
        for z in range(n):
            buckets: dict[int, list[int]] = {}
            for p in range(n):
                buckets.setdefault(add[p][z], []).append(p)
            for group in buckets.values():
                mask = 0
                for p in group:
                    mask |= 1 << p
                for p in group:
                    rows[p] |= mask
        return tuple(rows)

    return _memo(mon, "same_sum", build)


def pair_product_masks(ps: ProductStructure) -> tuple[tuple[int, ...], ...]:
    def build():
        n = ps.carrier.n
        return tuple(
            tuple(sum(1 << p for p in ps.pair_products[a][b]) for b in range(n))
            for a in range(n)
        )

    return _memo(ps, "pp_masks", build)


def additive_closure_mask(mon: FiniteMonoid, mask: int) -> int:
    """Closure of the masked set under the carrier addition (sums of >= 1 terms).

    Semi-naive: a round sums only the elements new in the round before with
    the whole set.  That relies on the carrier's addition commuting, as it
    does on every FiniteMonoid (a commutative monoid).
    """
    add = mon.add
    closed = fresh = mask
    while fresh:
        members = list(_bits(closed))
        sums = 0
        for u in _bits(fresh):
            row = add[u]
            for v in members:
                sums |= 1 << row[v]
        fresh = sums & ~closed
        closed |= fresh
    return closed


def product_mask(ppm: tuple[tuple[int, ...], ...], amask: int, bmask: int) -> int:
    """Bitmask of every product a.g.b with a in amask, b in bmask; ppm from pair_product_masks."""
    out = 0
    bs = list(_bits(bmask))
    for a in _bits(amask):
        row = ppm[a]
        for b in bs:
            out |= row[b]
    return out


def h_hull(add: Sequence[Sequence[int]], same: Sequence[int], pool: int, skip: int = 0) -> int:
    """Bitmask of every x outside skip with x + a + z == b + z for some z, a and b in pool.

    add is the carrier's addition table and same its same_sum_rows, which the
    caller fetches, so the scan reads the relation its own module binds.
    """
    bits = list(_bits(pool))
    hit = 0
    for x, row in enumerate(add):
        if not skip >> x & 1 and any(same[row[u]] & pool for u in bits):
            hit |= 1 << x
    return hit


def _level_product(
    ps: ProductStructure,
    mu: FuzzySubset,
    theta: FuzzySubset,
    close: bool,
) -> FuzzySubset:
    mon = ps.carrier
    same = same_sum_rows(mon)
    ppm = pair_product_masks(ps)
    levels, (r1, r2) = _ranks(mu, theta)
    cuts1, cuts2 = _cuts(r1, len(levels)), _cuts(r2, len(levels))
    out = [ZERO] * mon.n
    assigned = 0
    full = (1 << mon.n) - 1
    # The thresholds are the positive levels, highest first.
    for r in range(len(levels) - 1, 0 if levels[0] == 0 else -1, -1):
        base = product_mask(ppm, cuts1[r], cuts2[r])
        if not base:
            continue
        pool = additive_closure_mask(mon, base) if close else base
        fresh = h_hull(mon.add, same, pool, assigned)
        for x in _bits(fresh):
            out[x] = levels[r]
        assigned |= fresh
        if assigned == full:
            break
    return FuzzySubset(mon, tuple(out))


def generalized_h_product(ps: ProductStructure, mu: FuzzySubset, theta: FuzzySubset) -> FuzzySubset:
    """Sup-min product over multi-term h-decompositions.

    Computed by level sets: for each candidate threshold t, take the additive
    closure of the pair products whose factors clear t, then ask which x admit
    x + u + z == v + z with u,v in that closure.  The result at x is the
    largest qualifying t, or 0 when no decomposition exists.
    """
    if mu.carrier != ps.carrier or theta.carrier != ps.carrier:
        raise ValueError("fuzzy subsets must live on the product structure's carrier")
    return _level_product(ps, mu, theta, close=True)


def simple_h_product(ps: ProductStructure, mu: FuzzySubset, theta: FuzzySubset) -> FuzzySubset:
    """Single-term restriction of the generalized h-product."""
    if mu.carrier != ps.carrier or theta.carrier != ps.carrier:
        raise ValueError("fuzzy subsets must live on the product structure's carrier")
    return _level_product(ps, mu, theta, close=False)
