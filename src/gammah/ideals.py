"""Crisp and fuzzy h-ideal machinery: checkers, closures, enumeration.

The h-condition (x + a + z == b + z forces x into the set) is scanned by
fuzzy.h_hull, the one hull kernel under the h-products, closures and checks,
over the same-sum relation each caller fetches through this module's
same_sum_rows; checkers take that bitmask pass and only on failure rescan
quadruples in lexicographic (x, a, b, z) order, so witnesses are reproducible.

Families are enumerated through level cuts mu_t = {x : mu(x) >= t}.  Every
fuzzy condition here reads "mu(out) >= min of mu(inputs)" (additivity, the
sided, bi and sandwich products, the h-condition), and an instance fails
exactly when, at t = that min, the inputs lie in mu_t and the output does not.
The quasi condition reads by cuts too: cut_t(mu oh chi) = hull(mu_t . S).  So a
grid-valued mu is a member exactly when it is nonzero (for h-ideals: 1 at
zero) and each nonempty positive cut is a closed set of the kind (Das 1981;
Liu 1982).  The closed sets form a Moore family: they are the fixpoints of
_closure_mask, whose rules are the crisp membership conditions of each kind,
and enumerate_h_ideals lists them; _cut_family walks the antitone chains of
cuts over them, each of which the theorem makes a member.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import CapacityError, FiniteMonoid, ProductStructure, _cap
from .fuzzy import (
    ONE,
    ZERO,
    FuzzySubset,
    _cuts,
    _inside,
    _ranks,
    additive_closure_mask,
    characteristic,
    h_hull,
    same_sum_rows,
    is_subset,
    pair_product_masks,
    product_mask,
    simple_h_product,
    unit_rational,
)

TWO_SIDED = "two-sided"
LEFT = "left"
RIGHT = "right"
SIDEDNESS = (TWO_SIDED, LEFT, RIGHT)
BI = "bi"
QUASI = "quasi"
KINDS = SIDEDNESS + (BI, QUASI)

DEFAULT_CARRIER_CAP = 64
DEFAULT_LATTICE_CAP = 4096
DEFAULT_CANDIDATE_CAP = 1_000_000

CARRIER_CAP_ENV = "GAMMAH_IDEAL_CARRIER_CAP"
CANDIDATE_CAP_ENV = "GAMMAH_FUZZY_CANDIDATE_CAP"


@dataclass(frozen=True)
class CrispSubset:
    """A subset of the carrier as a bitmask: bit i set when element i is a member."""

    carrier: FiniteMonoid
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < 1 << self.carrier.n:
            raise ValueError("mask has members outside the carrier")

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.carrier.n) if self.mask >> i & 1)

    def labels(self) -> tuple[str, ...]:
        return tuple(self.carrier.elements[i] for i in self.indices())

    def size(self) -> int:
        return self.mask.bit_count()


def crisp(carrier: FiniteMonoid, members: Iterable[int]) -> CrispSubset:
    return CrispSubset(carrier, sum(1 << i for i in _inside(carrier, members)))


@dataclass(frozen=True)
class CheckResult:
    holds: bool
    condition: str | None = None
    witness: dict | None = None
    qualifier: str | None = None

    def describe(self) -> str:
        if self.holds:
            return "holds" + (f" ({self.qualifier})" if self.qualifier else "")
        parts = [f"fails: {self.condition}"]
        if self.witness:
            parts.append(", ".join(f"{k}={v}" for k, v in self.witness.items()))
        return " ".join(parts)


def _ok(qualifier: str | None = None) -> CheckResult:
    return CheckResult(True, qualifier=qualifier)


def _fail(condition: str, witness: dict | None = None) -> CheckResult:
    return CheckResult(False, condition=condition, witness=witness if witness is not None else {})


def _h_witness(mon: FiniteMonoid, predicate) -> dict:
    """Lexicographically first violating (x,a,b,z) quadruple.

    predicate(x,a,b) states the violation apart from the existence of z.
    """
    add = mon.add
    lab = mon.elements
    same = same_sum_rows(mon)
    for x in range(mon.n):
        row = add[x]
        for a in range(mon.n):
            xa = row[a]
            reach = same[xa]
            for b in range(mon.n):
                if reach >> b & 1 and predicate(x, a, b):
                    for z in range(mon.n):
                        if add[xa][z] == add[b][z]:
                            return {"x": lab[x], "a": lab[a], "b": lab[b], "z": lab[z]}
    raise AssertionError("flagged h-condition failure without witness")


def is_h_ideal(ps: ProductStructure, a: CrispSubset, sidedness: str = TWO_SIDED) -> CheckResult:
    """Closure under +, the sided products and the h-condition: the fuzzy
    checker (_fuzzy_check) on chi_A with top at zero.

    By the one-cut case of the level-subset theorem (module docstring), A is
    a sided h-ideal exactly when chi_A is a fuzzy one with value 1 at zero:
    chi_A's only positive cut is A, each fuzzy condition fails exactly when
    its inputs lie in A and its output does not, and chi_A(zero) = 1 puts
    zero in A.  A failure names the fuzzy condition and its witness.
    """
    if sidedness not in SIDEDNESS:
        raise ValueError(f"sidedness must be one of {SIDEDNESS}")
    if a.carrier != ps.carrier:
        raise ValueError("subset lives on a different carrier")
    return _fuzzy_check(ps, characteristic(a.carrier, a.indices()), sidedness, require_top=True)


def _quasi_hull(ps: ProductStructure, mask: int, skip: int = 0) -> int:
    """The quasi rule: hull(A.S) & hull(S.A) outside skip, for A = mask.

    hull(P) is h_hull of the additive closure of P, and hull(S.A) is scanned
    only where hull(A.S) holds.  By the level-subset theorem (Das 1981) and
    the h-hull lemma (Zhan and Dudek 2007), hull(mu_t.S) is the t-cut of
    generalized_h_product(mu, 1): at threshold t that product closes the
    pair products of mu_t with S under +, takes their h_hull, and keeps at x
    the largest t whose hull holds x; the hulls fall as t rises.  Likewise
    hull(S.mu_t) is the t-cut of (1, mu), so _quasi_hull(mu_t) is the t-cut
    of their meet, the left side of the fuzzy quasi condition.  Reads this
    module's same_sum_rows on each call, as every scan here does.
    """
    mon = ps.carrier
    ppm = pair_product_masks(ps)
    same = same_sum_rows(mon)
    full = (1 << mon.n) - 1
    hull_as = h_hull(mon.add, same, additive_closure_mask(mon, product_mask(ppm, mask, full)), skip)
    return hull_as and h_hull(
        mon.add, same, additive_closure_mask(mon, product_mask(ppm, full, mask)), full ^ hull_as
    )


def _closure_mask(ps: ProductStructure, mask: int, kind: str) -> int:
    """Least closed set of a kind (a sidedness, BI or QUASI) containing mask.

    A is closed when A + A lies in A, h_hull(A) lies in A (x + a + z == b + z
    with a, b in A puts x in A), and by kind: zero in A and S.A (left), A.S
    (right) or both in A, the crisp h-ideals; A.A and (A.S).A in A (BI);
    _quasi_hull(A) in A (QUASI).  Each rule r is monotone, so iterating
    A |= r(A) reaches the least closed superset, and the closed sets form a
    Moore family: S is closed, and for closed A, B each r(A & B) lies in
    r(A) & r(B), within A & B.  For QUASI: hull((A&B).S) & hull(S.(A&B))
    lies in hull(A.S) & hull(S.A), within A.  Nonempty closed sets hold zero
    (0 + a + 0 == a + 0); the empty set is closed for BI and QUASI only.
    """
    mon = ps.carrier
    add = mon.add
    same = same_sum_rows(mon)
    ppm = pair_product_masks(ps)
    full = (1 << mon.n) - 1
    if kind in SIDEDNESS:
        mask |= 1 << mon.zero
    while True:
        mask = additive_closure_mask(mon, mask)
        out = mask
        if kind in (TWO_SIDED, LEFT):
            out |= product_mask(ppm, full, mask)
        if kind in (TWO_SIDED, RIGHT):
            out |= product_mask(ppm, mask, full)
        if kind == BI:
            out |= product_mask(ppm, mask, mask)
            out |= product_mask(ppm, product_mask(ppm, mask, full), mask)
        if kind == QUASI:
            out |= _quasi_hull(ps, mask, out)
        out |= h_hull(add, same, mask, out)
        if out == mask:
            return mask
        mask = out


def h_closure(ps: ProductStructure, a: CrispSubset | Iterable[int], sidedness: str = TWO_SIDED) -> CrispSubset:
    """Least closed set of a kind (by default a two-sided h-ideal) containing the given set."""
    _require_kind(sidedness)
    mon = ps.carrier
    if not isinstance(a, CrispSubset):
        a = crisp(mon, a)
    if a.carrier != mon:
        raise ValueError("subset lives on a different carrier")
    return CrispSubset(mon, _closure_mask(ps, a.mask, sidedness))


def enumerate_h_ideals(ps: ProductStructure, sidedness: str = TWO_SIDED) -> list[CrispSubset]:
    """All sided h-ideals, or with sidedness BI or QUASI all nonempty closed sets.

    Closed sets form a Moore family (_closure_mask), so each is the join of
    the principal closures of its elements: joining each new closed set with
    every principal enumerates the lattice without walking 2^n subsets, since
    cl(cl(A) | B) = cl(A | B); more than DEFAULT_LATTICE_CAP closed sets
    raise CapacityError.  Nothing is re-checked: _closure_mask returns a set
    only when no rule adds to it, the rules of each kind are its crisp
    membership conditions, and by the one-cut case of the level-subset
    theorem those are the kind's fuzzy checker on the characteristic
    function.  Sorted by size, then lexicographically.
    """
    _require_kind(sidedness)
    mon = ps.carrier
    limit = _cap(CARRIER_CAP_ENV, DEFAULT_CARRIER_CAP)
    if mon.n > limit:
        raise CapacityError(f"carrier size {mon.n} above enumeration cap {limit}")
    principals = {_closure_mask(ps, 1 << i, sidedness) for i in range(mon.n)}
    found = set(principals)
    worklist = list(found)
    while worklist:
        fresh: list[int] = []
        for m1 in worklist:
            for m2 in principals:
                joined = m1 | m2
                if joined in found:
                    continue
                j = _closure_mask(ps, joined, sidedness)
                if j not in found:
                    found.add(j)
                    fresh.append(j)
                    if len(found) > DEFAULT_LATTICE_CAP:
                        raise CapacityError(f"h-ideal lattice grew beyond {DEFAULT_LATTICE_CAP}")
        worklist = fresh
    ideals = [CrispSubset(mon, m) for m in found]
    ideals.sort(key=lambda c: (c.size(), c.indices()))
    return ideals


def _fuzzy_check(
    ps: ProductStructure, mu: FuzzySubset, kind: str, require_top: bool = False
) -> CheckResult:
    """The first failing condition of a kind (a sidedness, BI or QUASI), else a pass.

    The conditions run in a fixed order, each over its elements in index
    order, so witnesses are reproducible: nonempty; top at zero when asked;
    additive; the kind's own (left- then right-product at each (x, y, p) for
    a sidedness, product then sandwich for BI, the quasi-intersection for
    QUASI); the h-condition.  Each compares ranks of mu's values
    (fuzzy._ranks), as ints.  The quasi-intersection is read on mu's cuts:
    its left side is at least t exactly on _quasi_hull(mu_t), so x fails
    exactly when it lies in the quasi hull of a positive cut that misses it,
    and its left side is the value of the highest such cut.
    """
    mon = ps.carrier
    lab = mon.elements
    if mu.carrier != mon:
        raise ValueError("fuzzy subset lives on a different carrier")
    levels, (vals,) = _ranks(mu)
    if levels[-1] == 0:
        return _fail("nonempty")
    if require_top and mu.values[mon.zero] != ONE:
        return _fail("top-at-zero", {"zero": lab[mon.zero], "value": str(mu.values[mon.zero])})
    n = mon.n
    add = mon.add
    pp = ps.pair_products
    cuts = _cuts(vals, len(levels))
    for x in range(n):
        row = add[x]
        vx = vals[x]
        for y in range(n):
            m = vals[y] if vals[y] < vx else vx
            if vals[row[y]] < m:
                return _fail("additive", {"x": lab[x], "y": lab[y], "x+y": lab[row[y]]})
    if kind in SIDEDNESS:
        left, right = kind != RIGHT, kind != LEFT
        for x in range(n):
            for y in range(n):
                for p in pp[x][y]:
                    if left and vals[p] < vals[y]:
                        return _fail("left-product", {"x": lab[x], "y": lab[y], "xy": lab[p]})
                    if right and vals[p] < vals[x]:
                        return _fail("right-product", {"x": lab[x], "y": lab[y], "xy": lab[p]})
    elif kind == BI:
        for x in range(n):
            vx = vals[x]
            for y in range(n):
                m = vals[y] if vals[y] < vx else vx
                for p in pp[x][y]:
                    if vals[p] < m:
                        return _fail("product", {"x": lab[x], "y": lab[y], "xy": lab[p]})
        for x in range(n):
            vx = vals[x]
            for y in range(n):
                for p in pp[x][y]:
                    row = pp[p]
                    for z in range(n):
                        m = vals[z] if vals[z] < vx else vx
                        for q in row[z]:
                            if vals[q] < m:
                                return _fail(
                                    "sandwich",
                                    {"x": lab[x], "y": lab[y], "z": lab[z], "xyz": lab[q]},
                                )
    else:
        # The cuts from the top, skipping the points at or past the first
        # failure so far: a point found at a cut is the new first failure,
        # and that cut is the highest whose quasi hull holds it.  The cut at
        # rank 0 is the whole carrier, which no quasi hull leaves.
        first, full = n, cuts[0]
        for r in range(len(levels) - 1, 0, -1):
            fresh = _quasi_hull(ps, cuts[r], cuts[r] | full >> first << first)
            if fresh:
                first, rank = (fresh & -fresh).bit_length() - 1, r
        if first < n:
            return _fail(
                "quasi-intersection",
                {"x": lab[first], "lhs": str(levels[rank]), "mu": str(mu.values[first])},
            )
    # Cut formulation: no x below a positive rank r may be h-reachable from a
    # pair inside the cut at r; the cut at rank 0 is the whole carrier.
    same = same_sum_rows(mon)
    for cut in cuts[1:-1]:
        if h_hull(add, same, cut, cut):
            witness = _h_witness(mon, lambda x, a, b: vals[x] < min(vals[a], vals[b]))
            return _fail("h-condition", witness)
    return _ok()


def is_fuzzy_h_ideal(
    ps: ProductStructure,
    mu: FuzzySubset,
    sidedness: str = TWO_SIDED,
    require_top: bool = False,
) -> CheckResult:
    """Additivity, the sided products and the h-condition (_fuzzy_check)."""
    if sidedness not in SIDEDNESS:
        raise ValueError(f"sidedness must be one of {SIDEDNESS}")
    return _fuzzy_check(ps, mu, sidedness, require_top)


def is_fuzzy_h_bi_ideal(ps: ProductStructure, mu: FuzzySubset) -> CheckResult:
    """Additivity, product, two-step product, and h conditions (_fuzzy_check)."""
    return _fuzzy_check(ps, mu, BI)


def is_fuzzy_h_quasi_ideal(ps: ProductStructure, mu: FuzzySubset) -> CheckResult:
    """Additivity, (mu oh chi) meet (chi oh mu) below mu, and the h-condition (_fuzzy_check)."""
    return _fuzzy_check(ps, mu, QUASI)


def _require_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")


@dataclass(frozen=True)
class FuzzyHIdealFamily:
    """All grid-valued members of a kind; for a sidedness, with top at zero."""

    carrier: FiniteMonoid
    kind: str
    members: tuple[FuzzySubset, ...]


def _check_grid(grid: Sequence) -> tuple[Fraction, ...]:
    vals = tuple(unit_rational(v) for v in grid)
    if list(vals) != sorted(set(vals)):
        raise ValueError("grid must be strictly ascending without repeats")
    if ZERO not in vals or ONE not in vals:
        raise ValueError("grid must contain 0 and 1")
    return vals


def _cut_family(
    mon: FiniteMonoid,
    grid: tuple[Fraction, ...],
    kind: str,
    lattice: Sequence[int],
) -> tuple[FuzzySubset, ...]:
    """Every member of a kind valued in a checked grid, sorted by values.

    lattice holds the masks of the kind's closed sets on mon, as the
    caller's enumerate_h_ideals listed them.

    By the level-subset theorem (module docstring) mu is a member exactly
    when its cuts at the positive grid values t_1 < ... < t_k form a chain
    C_1 >= ... >= C_k of closed sets with C_1 nonempty, and for a sidedness
    C_k nonempty (mu(zero) = 1); the chain gives mu(x) = max{t_j : x in C_j},
    or 0.  For BI and QUASI the cuts above C_1 may be empty.  More chains
    than the candidate cap raise CapacityError.  Members are not re-checked:
    every cut here is a fixpoint of _closure_mask, a closed set of the kind,
    and the theorem then makes each chain a member.

    The family is closed under intersection (pointwise min): the cuts of
    a & b are a_t & b_t, closed since the closed sets form a Moore family
    (_closure_mask) for any same-sum relation, falling as t rises, and
    nonempty wherever both are, for nonempty closed sets hold zero.

    The chains grow one level at a time, each held as its last cut and the
    values it sets so far.  A chain can always repeat its last cut, so the
    count never falls from one level to the next, and a level past the cap
    ends the walk with at most limit + 1 chains held; a negative cap ends it
    at the first level.
    """
    limit = _cap(CANDIDATE_CAP_ENV, DEFAULT_CANDIDATE_CAP)
    upper = lattice if kind in SIDEDNESS else [*lattice, 0]
    chains = [((1 << mon.n) - 1, (ZERO,) * mon.n)]
    pool = lattice
    for t in (t for t in grid if t > 0):
        step = (
            (m, tuple(t if m >> x & 1 else v for x, v in enumerate(values)))
            for last, values in chains
            for m in pool
            if not m & ~last
        )
        # islice stops at 0..sys.maxsize: a negative cap holds no chain, and
        # no list reaches a cap past sys.maxsize.
        chains = list(itertools.islice(step, max(0, min(limit + 1, sys.maxsize))))
        if len(chains) > limit:
            raise CapacityError(f"more than {limit} level-set chains in the family")
        pool = upper
    return tuple(FuzzySubset(mon, values) for values in sorted(v for _, v in chains))


def enumerate_fuzzy_h_ideals(
    ps: ProductStructure, grid: Sequence, kind: str = TWO_SIDED
) -> FuzzyHIdealFamily:
    """Complete family of grid-valued members of a kind (_cut_family): fuzzy
    sided h-ideals with top at zero, or nonempty fuzzy h-bi- or h-quasi-ideals."""
    grid = _check_grid(grid)
    mon, lattice = ps.carrier, [c.mask for c in enumerate_h_ideals(ps, kind)]
    return FuzzyHIdealFamily(mon, kind, _cut_family(mon, grid, kind, lattice))


RELATIVE = "relative-to-family"


def _prime_like(
    ps: ProductStructure,
    zeta: FuzzySubset,
    family: FuzzyHIdealFamily,
    semiprime: bool,
) -> CheckResult:
    if family.carrier != ps.carrier or zeta.carrier != ps.carrier:
        raise ValueError("family and candidate must live on the same carrier")
    base = is_fuzzy_h_ideal(ps, zeta, family.kind, require_top=True)
    if not base.holds:
        return CheckResult(False, condition=f"h-ideal:{base.condition}", witness=base.witness)
    if zeta.is_constant():
        return _fail("non-constant", {"value": str(zeta.values[0])})
    # A pair with a member below zeta satisfies the implication, so only
    # the members outside zeta are multiplied; the pairs keep their order.
    outside = [m for m in family.members if not is_subset(m, zeta)]
    pairs = zip(outside, outside) if semiprime else itertools.product(outside, outside)
    for mu, nu in pairs:
        if is_subset(simple_h_product(ps, mu, nu), zeta):
            witness = {"mu": [str(v) for v in mu.values]}
            if not semiprime:
                witness["nu"] = [str(v) for v in nu.values]
            return _fail("semiprime-implication" if semiprime else "prime-implication", witness)
    return _ok(qualifier=RELATIVE)


def is_prime_fuzzy_h_ideal(
    ps: ProductStructure, zeta: FuzzySubset, family: FuzzyHIdealFamily
) -> CheckResult:
    """Non-constant and prime against every pair from the enumerated family.

    A failure witness is definitive; a pass only certifies primality relative
    to the family and is flagged as such.
    """
    return _prime_like(ps, zeta, family, semiprime=False)


def is_semiprime_fuzzy_h_ideal(
    ps: ProductStructure, zeta: FuzzySubset, family: FuzzyHIdealFamily
) -> CheckResult:
    return _prime_like(ps, zeta, family, semiprime=True)
