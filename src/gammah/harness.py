"""Catalog of correspondence identities run as executable property checks.

Section-2 checks read only tables; S2-oplus and S2-gamma-subset hold for
any fuzzy subsets by the proofs in their docstrings, so a section2 suite
enumerates no family.  The other checks quantify over finite families
(grid-valued fuzzy h-ideal families, crisp h-ideal lattices) and assert
their identities exactly; missing hypotheses (unities) give
`assumption-unmet`, never a pass.  The catalog is a table of rows: a
side-generic body serves every row that differs only in its side(s), its
direction and its source family.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import correspondence as corr
from .core import validate_gamma_hemiring, validate_hemiring
from .correspondence import DOWN, UP, CorrespondenceContext
from .fuzzy import (
    ONE,
    ZERO,
    FuzzySubset,
    cartesian,
    characteristic,
    fuzzy_sum,
    generalized_h_product,
    intersect,
    is_subset,
    simple_h_product,
)
from .ideals import (
    BI as BI_KIND,
    LEFT,
    QUASI as QUASI_KIND,
    RIGHT,
    SIDEDNESS,
    TWO_SIDED,
    FuzzyHIdealFamily,
    _check_grid,
    _cut_family,
    enumerate_h_ideals,
    is_fuzzy_h_bi_ideal,
    is_fuzzy_h_ideal,
    is_fuzzy_h_quasi_ideal,
    is_prime_fuzzy_h_ideal,
    is_semiprime_fuzzy_h_ideal,
)

PASS = "pass"
FAIL = "fail"
UNMET = "assumption-unmet"


@dataclass(frozen=True)
class PropertyResult:
    check_id: str
    status: str
    witness: dict | None
    elapsed: float

    def to_json_dict(self, with_timings: bool = False) -> dict:
        return {
            "id": self.check_id,
            "status": self.status,
            "witness": self.witness,
            "ms": int(self.elapsed * 1000) if with_timings else 0,
        }


@dataclass(frozen=True)
class SuiteReport:
    structure: str
    grid: tuple[Fraction, ...]
    results: tuple[PropertyResult, ...]
    overall: str

    def to_json_dict(self, with_timings: bool = False) -> dict:
        return {
            "structure": self.structure,
            "grid": [str(v) for v in self.grid],
            "results": [r.to_json_dict(with_timings) for r in self.results],
            "overall": self.overall,
        }

    def to_json(self, with_timings: bool = False) -> str:
        return json.dumps(self.to_json_dict(with_timings), indent=2)


def _vals(mu: FuzzySubset) -> list[str]:
    return [str(v) for v in mu.values]


def _first_diff(f1: FuzzySubset, f2: FuzzySubset) -> int | None:
    for i, (a, b) in enumerate(zip(f1.values, f2.values)):
        if a != b:
            return i
    return None


def _diff_witness(context: dict, lhs: FuzzySubset, rhs: FuzzySubset) -> dict | None:
    i = _first_diff(lhs, rhs)
    if i is None:
        return None
    out = dict(context)
    out.update(
        {
            "point": lhs.carrier.elements[i],
            "lhs": str(lhs.values[i]),
            "rhs": str(rhs.values[i]),
        }
    )
    return out


class _Families:
    """Lazy per-run cache of all enumerated families.

    Each (carrier, kind) has one crisp lattice per run, and `fuzzy` walks the
    chains of cuts over it (ideals._cut_family).
    """

    def __init__(self, ctx: CorrespondenceContext, grid: tuple[Fraction, ...]):
        self.ctx = ctx
        self.grid = grid
        self._cache: dict = {}

    def _cached(self, key: tuple, build: Callable):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def fuzzy(self, which: str, kind: str = TWO_SIDED) -> FuzzyHIdealFamily:
        def build():
            mon, lattice = self.ctx.ps(which).carrier, [c.mask for c in self.crisp(which, kind)]
            return FuzzyHIdealFamily(mon, kind, _cut_family(mon, self.grid, kind, lattice))

        return self._cached(("fuzzy", which, kind), build)

    def crisp(self, which: str, kind: str = TWO_SIDED):
        return self._cached(
            ("crisp", which, kind), lambda: enumerate_h_ideals(self.ctx.ps(which), kind)
        )

    def primes(self, which: str, semi: bool = False) -> tuple[FuzzySubset, ...]:
        def build():
            fam = self.fuzzy(which)
            check = is_semiprime_fuzzy_h_ideal if semi else is_prime_fuzzy_h_ideal
            ps = self.ctx.ps(which)
            return tuple(z for z in fam.members if check(ps, z, fam).holds)

        return self._cached(("primes", which, semi), build)


# --- transfer maps and source families ----------------------------------------

_MAP_NAMES = {
    ("L", UP): "plus_prime",
    ("L", DOWN): "plus",
    ("R", UP): "star_prime",
    ("R", DOWN): "star",
}


def _map(side: str, direction: str, kind: str = "") -> Callable:
    """The transfer map of a side and direction; kind is "", "crisp_" or "product_".

    Looked up when a check runs, never at import, so a patched map in
    gammah.correspondence reaches every check.
    """
    return getattr(corr, kind + _MAP_NAMES[side, direction])


@dataclass(frozen=True)
class _Source:
    """A family of fuzzy subsets and the membership test its transfers must pass.

    The family comes in variants (an ideal kind, or prime versus semiprime),
    which checks loop outermost; `tag(variant)` names the variant in a witness.
    """

    variants: tuple
    members: Callable  # (fams, carrier, variant) -> members
    check: Callable  # (fams, carrier, subset, variant) -> CheckResult
    tag: Callable = lambda variant: {}
    member_key: str = "member"


def _ideal_check(fams, c, mu, kind):
    # The checkers are read from this module when a check runs, so a wrapped
    # name here reaches every check.
    ps = fams.ctx.ps(c)
    if kind in SIDEDNESS:
        return is_fuzzy_h_ideal(ps, mu, kind, require_top=True)
    return (is_fuzzy_h_bi_ideal if kind == BI_KIND else is_fuzzy_h_quasi_ideal)(ps, mu)


def _ideal_source(kinds: tuple) -> _Source:
    """The fuzzy family of each kind, tested by the kind's checker; a source
    over several kinds (the sidednesses) names the kind in its witness."""
    return _Source(
        kinds,
        lambda fams, c, kind: fams.fuzzy(c, kind).members,
        _ideal_check,
        (lambda kind: {"sidedness": kind}) if len(kinds) > 1 else (lambda kind: {}),
    )


H_IDEAL = _ideal_source((TWO_SIDED,))
SIDED = _ideal_source(SIDEDNESS)
BI = _ideal_source((BI_KIND,))
QUASI = _ideal_source((QUASI_KIND,))
PRIME = _Source(
    (False, True),
    lambda fams, c, semi: fams.primes(c, semi),
    lambda fams, c, zeta, semi: (
        is_semiprime_fuzzy_h_ideal if semi else is_prime_fuzzy_h_ideal
    )(fams.ctx.ps(c), zeta, fams.fuzzy(c)),
    lambda semi: {"kind": "semiprime" if semi else "prime"},
    "zeta",
)


def _failure(keys: dict, res) -> dict:
    return {**keys, "condition": res.condition, "inner": res.witness or {}}


# --- section 2: machinery sanity -------------------------------------------


def _check_axioms(ctx, fams):
    rep = validate_gamma_hemiring(ctx.G)
    if not rep.valid:
        law, w = rep.violations[0]
        return {"table": "action", "law": law, "witness": list(w)}
    for tag, op in (("L", ctx.L), ("R", ctx.R)):
        rep = validate_hemiring(op)
        if not rep.valid:
            law, w = rep.violations[0]
            return {"table": tag, "law": law, "witness": list(w)}
    return None


def _check_embed_additive(ctx, fams):
    g = ctx.G
    for tag, op in (("L", ctx.L), ("R", ctx.R)):
        table = op.embed
        for x in range(g.S.n):
            for y in range(g.S.n):
                xy = g.S.add[x][y]
                for ga in range(g.Gamma.n):
                    if op.add[table[x][ga]][table[y][ga]] != table[xy][ga]:
                        return {
                            "side": tag,
                            "x": g.S.elements[x],
                            "y": g.S.elements[y],
                            "gamma": g.Gamma.elements[ga],
                        }
    return None


def _check_mul_law(ctx, fams):
    """The mul table multiplies generator classes as formal sums multiply.

    Generators are enough.  The add table is pointwise addition of maps by
    construction, so the class of a formal sum is the sum of its generators'
    classes, and S2-axioms checks that mul distributes over add in L and R
    exhaustively.  The product of two sums is therefore the sum of the
    products of their generators, which is what formal_product realizes.

    Generator products are read from embed.  The formal product of two
    one-term sums is one term: [x,gamma][y,delta] = [x gamma y, delta] on
    the left, [gamma,x][delta,y] = [gamma, x delta y] on the right, so its
    map is a generator's.  build_operator admitted the map of every
    generator, realized from the action table without _compose, and embed
    holds its index.  admit keeps one index per map table, so two indices
    are equal exactly when their maps are: comparing the mul cell with the
    embed index gives the verdict of comparing the realized maps.
    """
    g, act = ctx.G, ctx.G.action
    gens = [(x, ga) for x in range(g.S.n) for ga in range(g.Gamma.n)]
    for op in (ctx.L, ctx.R):
        e, left = op.embed, op.side == "left"
        for x, ga in gens:
            for y, gb in gens:
                product = e[act[x][ga][y]][gb] if left else e[act[x][gb][y]][ga]
                if op.mul[e[x][ga]][e[y][gb]] != product:
                    return {
                        "side": op.side,
                        "f1": [[x, ga] if left else [ga, x]],
                        "f2": [[y, gb] if left else [gb, y]],
                    }
    return None


def _check_oplus(ctx, fams):
    """The sum (+) of fuzzy subsets of S is commutative and associative.

    Proved for any fuzzy subsets of S, members of the family or not.
    fuzzy_sum reads only S.add, which no fault seam touches, and
    (mu (+) sigma)(x) is the max over x = u + v of min(mu(u), sigma(v)),
    0 when that set is empty.  Commutativity of + and of min gives
    mu (+) sigma = sigma (+) mu.  Associativity of + makes both
    (mu (+) sigma) (+) tau and mu (+) (sigma (+) tau) the max over
    x = u + v + w of min(mu(u), sigma(v), tau(w)).  build_context calls
    build_operator, which raises StructureError unless validate_monoid(S)
    passes, so every context has a commutative, associative S.add.
    """
    return None


def _check_gamma_subset(ctx, fams):
    """The simple h-product of fuzzy subsets of S lies inside the generalized one.

    Proved for any fuzzy subsets mu and nu of S and any same-sum relation.
    Both products run fuzzy._level_product over the same thresholds t, in
    descending order, with the same same_sum_rows table.  At each t the
    generalized pool additive_closure_mask(base) contains the simple pool
    base, and h_hull is monotone in its pool.  So an x that the simple
    product sets to t is set by the generalized product at t, or already at
    a higher threshold: simple(x) <= generalized(x) at every x.
    """
    return None


# --- section 3 ---------------------------------------------------------------


def _check_intersection_commutes(ctx, fams):
    """plus(a) & plus(b) = plus(a & b) for every pair of members of L's family.

    Pairs settle every finite meet.  The meet a & b of members is a member
    (ideals._cut_family), so when all pairs pass, plus(a) & plus(b) & plus(c)
    = plus(a & b) & plus(c) = plus(a & b & c) by the pair (a & b, c), in
    either order as & is a pointwise min; induction does the rest.  Only
    that plus maps equal values to equal values is used, which a corrupted
    plus keeps too.
    """
    members = fams.fuzzy("L").members
    for a, b in itertools.combinations_with_replacement(members, 2):
        lhs = intersect(corr.plus(ctx, a), corr.plus(ctx, b))
        w = _diff_witness({"members": [_vals(a), _vals(b)]}, lhs, corr.plus(ctx, intersect(a, b)))
        if w:
            return w
    return None


def _membership(ctx, fams, sides, direction, source):
    """Transfers of each source member pass the source's test on the other carrier.

    Forward rows (S to a side) loop member-major, backward rows side-major;
    the witness names the side only when the row has two.
    """
    for v in source.variants:
        if direction == UP:
            pairs = ((side, mu) for mu in source.members(fams, "S", v) for side in sides)
        else:
            pairs = ((side, mu) for side in sides for mu in source.members(fams, side, v))
        for side, mu in pairs:
            target = side if direction == UP else "S"
            res = source.check(fams, target, _map(side, direction)(ctx, mu), v)
            if not res.holds:
                named = {"operator": side} if len(sides) > 1 else {}
                return _failure({**source.tag(v), **named, source.member_key: _vals(mu)}, res)
    return None


def _roundtrip(ctx, fams, fwd, bwd, side):
    for src, there, back in (("S", fwd, bwd), (side, bwd, fwd)):
        for mu in fams.fuzzy(src).members:
            w = _diff_witness({"member": _vals(mu)}, back(ctx, there(ctx, mu)), mu)
            if w:
                return w
    return None


def _monotone(ctx, fams, fwd, bwd, side):
    for direction, src, mapper in (("forward", "S", fwd), ("backward", side, bwd)):
        members = fams.fuzzy(src).members
        images = [mapper(ctx, m) for m in members]
        for (m1, a), (m2, b) in itertools.product(zip(members, images), repeat=2):
            if is_subset(m1, m2) and not is_subset(a, b):
                return {"direction": direction, "m1": _vals(m1), "m2": _vals(m2)}
    return None


def _lattice_ops(ctx, fams, fwd, bwd, side):
    members = fams.fuzzy("S").members
    pairs = zip(members, [fwd(ctx, m) for m in members])
    for (s1, a), (s2, b) in itertools.combinations_with_replacement(pairs, 2):
        ctx_w = {"m1": _vals(s1), "m2": _vals(s2)}
        w = _diff_witness(
            {**ctx_w, "op": "sum"}, fwd(ctx, fuzzy_sum(s1, s2)), fuzzy_sum(a, b)
        )
        if w:
            return w
        w = _diff_witness(
            {**ctx_w, "op": "intersection"}, fwd(ctx, intersect(s1, s2)), intersect(a, b)
        )
        if w:
            return w
    return None


_ISO_PARTS = {"roundtrip": _roundtrip, "monotone": _monotone, "lattice": _lattice_ops}


def _iso(ctx, fams, side, parts):
    """Parts of the fuzzy lattice isomorphism between S and one side.

    A row with several parts names the failing one in its witness.
    """
    fwd, bwd = _map(side, UP), _map(side, DOWN)
    for part in parts:
        w = _ISO_PARTS[part](ctx, fams, fwd, bwd, side)
        if w:
            return {"part": part, **w} if len(parts) > 1 else w
    return None


def _check_complete_lattices(ctx, fams):
    """Each sided family of L and R is closed under intersection and sum.

    Only the sum is checked: the intersection of two members is a member
    (ideals._cut_family), its cuts being meets in the crisp lattice, a Moore
    family for any same-sum relation.
    """
    for which, sid in (("L", LEFT), ("L", RIGHT), ("R", LEFT), ("R", RIGHT)):
        fam = fams.fuzzy(which, sid)
        index = {m.values for m in fam.members}
        for a, b in itertools.combinations_with_replacement(fam.members, 2):
            join = fuzzy_sum(a, b)
            if join.values not in index:
                return {"carrier": which, "sidedness": sid, "op": "sum",
                        "a": _vals(a), "b": _vals(b), "result": _vals(join)}
    return None


def _indicator_square(ctx, fams, side, direction):
    """The fuzzy map of an indicator is the indicator of the crisp map."""
    fuzzy_map, crisp_map = _map(side, direction), _map(side, direction, "crisp_")
    src, src_mon, dst_mon = "S", ctx.s_monoid, ctx.ps(side).carrier
    if direction == DOWN:
        src, src_mon, dst_mon = side, dst_mon, src_mon
    for sid in SIDEDNESS:
        for ideal in fams.crisp(src, sid):
            lhs = fuzzy_map(ctx, characteristic(src_mon, ideal.indices()))
            rhs = characteristic(dst_mon, crisp_map(ctx, ideal).indices())
            w = _diff_witness({"sidedness": sid, "ideal": list(ideal.labels())}, lhs, rhs)
            if w:
                return w
    return None


def _crisp_lattice_bijection(ctx, fams, side):
    fwd, bwd = _map(side, UP, "crisp_"), _map(side, DOWN, "crisp_")
    s_ideals = fams.crisp("S")
    o_ideals = fams.crisp(side)
    images = [fwd(ctx, i) for i in s_ideals]
    # A mask is recomputed on every read, so each ideal's is read once.
    masks, image_masks = [i.mask for i in s_ideals], [i.mask for i in images]
    if sorted(image_masks) != sorted(i.mask for i in o_ideals):
        return {
            "reason": "not-onto-or-not-injective",
            "source-count": len(s_ideals),
            "image-count": len(set(image_masks)),
            "target-count": len(o_ideals),
        }
    for ideal, image, mask in zip(s_ideals, images, masks):
        back = bwd(ctx, image)
        if back.mask != mask:
            return {
                "reason": "inverse-mismatch",
                "ideal": list(ideal.labels()),
                "image": list(image.labels()),
                "back": list(back.labels()),
            }
    rows = zip(s_ideals, images, masks, image_masks)
    for (i1, im1, m1, n1), (i2, im2, m2, n2) in itertools.product(rows, repeat=2):
        if m1 | m2 == m2 and n1 | n2 != n2:
            return {
                "reason": "not-inclusion-preserving",
                "smaller": list(i1.labels()),
                "larger": list(i2.labels()),
            }
        if n1 | n2 == n2 and m1 | m2 != m2:
            return {
                "reason": "inverse-not-inclusion-preserving",
                "smaller": list(im1.labels()),
                "larger": list(im2.labels()),
            }
    return None


def _composition(ctx, fams, sides, product):
    """A forward map of an h-product is the h-product of the forward maps."""
    product_fn = generalized_h_product if product == "generalized" else simple_h_product
    members = fams.fuzzy("S").members
    # Each S product is built once, by member position, and mapped per side.
    prods = [[product_fn(ctx.s_ps, mu, nu) for nu in members] for mu in members]
    for side in sides:
        mapper, ps = _map(side, UP), ctx.ps(side)
        images = [mapper(ctx, mu) for mu in members]
        for i, mu in enumerate(members):
            for j, nu in enumerate(members):
                w = _diff_witness(
                    {"operator": side, "mu": _vals(mu), "nu": _vals(nu)},
                    mapper(ctx, prods[i][j]),
                    product_fn(ps, images[i], images[j]),
                )
                if w:
                    return w
    return None


# --- section 4 ---------------------------------------------------------------


def _characteristic(members) -> tuple[FuzzySubset, ...]:
    """A family's {0,1}-valued members, one per crisp lattice element."""
    return tuple(m for m in members if set(m.values) <= {ZERO, ONE})


def _coproduct_scan(ctx, members):
    # Each S product is built once, by member position, and read |members|^2 times.
    prods = [[simple_h_product(ctx.s_ps, mu, nu) for nu in members] for mu in members]
    at = range(len(members))
    pairs = [(i, i2, cartesian(members[i], members[i2])) for i in at for i2 in at]
    for i, i2, left in pairs:
        for j, j2, right in pairs:
            lhs = simple_h_product(ctx.sxs_ps, left, right)
            rhs = cartesian(prods[i][j], prods[i2][j2])
            named = zip(("mu", "mu'", "nu", "nu'"), (i, i2, j, j2))
            w = _diff_witness({key: _vals(members[k]) for key, k in named}, lhs, rhs)
            if w:
                return w
    return None


def _check_coproduct(ctx, fams):
    """(mu x mu') oh (nu x nu') = (mu oh nu) x (mu' oh nu'), decided on the lattice.

    The characteristic members are enough.  _level_product gives the simple
    h-product a cut at every t in (0,1] of hull(mu_t . nu_t), with hull the
    h_hull kernel over whatever same_sum_rows returns: the hull is monotone in
    its pool, so the union over the thresholds at or above t is the one at
    the least of them, where the cuts equal mu_t and nu_t.  The cut of
    cartesian(mu, mu') at t is mu_t x mu'_t.  So both sides have at t the cut
    the identity has at 1 on chi_A, chi_A', chi_B, chi_B' with A = mu_t,
    A' = mu'_t, B = nu_t, B' = nu'_t.  Each of these is a crisp lattice
    element (members are chains of them, nonempty at every t since the top
    is at zero), and chi of each element is a characteristic member.  Two
    fuzzy subsets with equal cuts are equal.  A failure there is a failure
    of the whole family, and the scan over all members names its first
    witness.
    """
    members = fams.fuzzy("S").members
    if _coproduct_scan(ctx, _characteristic(members)) is None:
        return None
    return _coproduct_scan(ctx, members)


def _product_commutes(ctx, fams, sides, direction):
    """The product map of a cartesian product is the product of the maps."""
    for side in sides:
        members = fams.fuzzy("S" if direction == UP else side).members
        mapper, pmap = _map(side, direction), _map(side, direction, "product_")
        images = [mapper(ctx, mu) for mu in members]
        for (mu, a), (sigma, b) in itertools.product(zip(members, images), repeat=2):
            w = _diff_witness(
                {"operator": side, "mu": _vals(mu), "sigma": _vals(sigma)},
                pmap(ctx, cartesian(mu, sigma)),
                cartesian(a, b),
            )
            if w:
                return w
    return None


def _pair_image_scan(ctx, fams, sides, source):
    """Cartesian products of transferred pairs pass the source's test there.

    Backward images land in SxS and name their operator; forward images land
    in LxL or RxR and name that target.
    """
    for v in source.variants:
        for direction in (DOWN, UP):
            for side in sides:
                members = source.members(fams, "S" if direction == UP else side, v)
                target = f"{side}x{side}" if direction == UP else "SxS"
                named = {"target": target} if direction == UP else {"operator": side}
                mapper = _map(side, direction)
                images = [mapper(ctx, mu) for mu in members]
                for (mu, a), (sigma, b) in itertools.product(zip(members, images), repeat=2):
                    res = source.check(fams, target, cartesian(a, b), v)
                    if not res.holds:
                        pair = {"mu": _vals(mu), "sigma": _vals(sigma)}
                        return _failure({**source.tag(v), **named, **pair}, res)
    return None


def _pair_images(ctx, fams, sides, source):
    """Transferred pairs pass the source's test; h-ideals decided on the factors.

    A pair carrier (SxS, LxL, RxR) adds componentwise and reads each rule
    componentwise, so for a and b with value 1 at zero, a x b passes
    is_fuzzy_h_ideal(require_top=True) exactly when a and b pass on their own
    carriers (level-subset theorem, ideals module docstring).  The cut of
    a x b at t is a_t x b_t, and both factors contain zero.  Additivity, the
    sided products and the h-condition each hold on A x B exactly when they
    hold on A and on B: an instance on A x B pairs an instance on A with one
    on B, which gives "if"; the instances with zero, which is absorbing, in
    the other component give "only if".  For SxS this covers the products
    taken in step along Gamma: (x1 g y1, x2 g y2) lies in A x B exactly when
    each component does.  The same-sum relation of a pair carrier is the
    product of its factors' relations, z being chosen per component; that
    holds of the honest same_sum_rows and of the skip-z corruption (the
    identity) alike.  Nothing is assumed of the maps: _membership checks
    each image on its own carrier, top at zero included, so its passing both
    ways makes every pair pass, and an image that fails makes its pair with
    itself fail.  Otherwise, and for prime sources, the scan over all pairs
    decides and names the first witness.
    """
    if source is H_IDEAL and all(
        _membership(ctx, fams, sides, d, source) is None for d in (DOWN, UP)
    ):
        return None
    return _pair_image_scan(ctx, fams, sides, source)


def _cartesian_inclusions(members, images):
    """First pair of member pairs with mu1 x s1 <= mu2 x s2 but not so their images.

    images[k] is the image of members[k]; pairs run in member order.  Members
    are 1 at zero, so mu1 x s1 <= mu2 x s2 exactly when mu1 <= mu2 and
    s1 <= s2: min is monotone, and mu1(x) = min(mu1(x), s1(zero)) <=
    min(mu2(x), s2(zero)) <= mu2(x), likewise for s1.  Images of corrupted
    maps need not be 1 at zero, so their cartesians are compared directly.
    """
    at = range(len(members))
    up = [[j for j in at if is_subset(members[i], members[j])] for i in at]
    prods = [[cartesian(a, b) for b in images] for a in images]
    for i1, j1 in itertools.product(at, at):
        for i2, j2 in itertools.product(up[i1], up[j1]):
            if not is_subset(prods[i1][j1], prods[i2][j2]):
                return {
                    "reason": "not-inclusion-preserving",
                    "smaller": [_vals(members[i1]), _vals(members[j1])],
                    "larger": [_vals(members[i2]), _vals(members[j2])],
                }
    return None


def _check_product_roundtrip(ctx, fams):
    # The R-side product maps undo the R-side maps on cartesian products, both
    # ways; then the forward map preserves inclusion of cartesian products.
    images = {}
    for source, direction in (("S", UP), ("R", DOWN)):
        inner = _map("R", direction)
        outer = _map("R", DOWN if direction == UP else UP, "product_")
        members = fams.fuzzy(source).members
        images[source] = [inner(ctx, m) for m in members]
        for mu, a in zip(members, images[source]):
            for sigma, b in zip(members, images[source]):
                w = _diff_witness(
                    {"direction": source, "mu": _vals(mu), "sigma": _vals(sigma)},
                    outer(ctx, cartesian(a, b)),
                    cartesian(mu, sigma),
                )
                if w:
                    return w
    return _cartesian_inclusions(fams.fuzzy("S").members, images["S"])


@dataclass(frozen=True)
class CatalogEntry:
    """One check: a body run as fn(ctx, fams, *args).

    The args of a side-generic body name its side(s), its direction and its
    source family.
    """

    check_id: str
    suite: str
    needs: tuple[str, ...]
    fn: Callable
    args: tuple = ()


LR, RL = ("L", "R"), ("R", "L")
UNITIES = ("left unity", "right unity")

CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry("S2-axioms", "section2", (), _check_axioms),
    CatalogEntry("S2-embed-additive", "section2", (), _check_embed_additive),
    CatalogEntry("S2-mul-law", "section2", (), _check_mul_law),
    CatalogEntry("S2-oplus", "section2", (), _check_oplus),
    CatalogEntry("S2-gamma-subset", "section2", (), _check_gamma_subset),
    CatalogEntry("L3.3", "section3", (), _check_intersection_commutes),
    CatalogEntry("P3.4", "section3", (), _membership, (("L",), DOWN, H_IDEAL)),
    CatalogEntry("P3.5", "section3", (), _membership, (("L",), UP, SIDED)),
    CatalogEntry("P3.6", "section3", (), _membership, (("R",), DOWN, SIDED)),
    CatalogEntry("P3.7", "section3", (), _membership, (("R",), UP, SIDED)),
    CatalogEntry("T3.8-roundtrip", "section3", UNITIES, _iso, ("L", ("roundtrip",))),
    CatalogEntry("T3.8-monotone", "section3", (), _iso, ("L", ("monotone",))),
    CatalogEntry("T3.8-lattice", "section3", (), _iso, ("L", ("lattice",))),
    CatalogEntry("T3.9", "section3", UNITIES, _iso, ("R", ("roundtrip", "monotone", "lattice"))),
    CatalogEntry("C3.10", "section3", (), _check_complete_lattices),
    CatalogEntry("L3.11", "section3", (), _indicator_square, ("L", UP)),
    CatalogEntry("L3.12", "section3", (), _indicator_square, ("L", DOWN)),
    CatalogEntry("L3.13", "section3", (), _indicator_square, ("R", UP)),
    CatalogEntry("L3.14", "section3", (), _indicator_square, ("R", DOWN)),
    CatalogEntry("T3.15", "section3", UNITIES, _crisp_lattice_bijection, ("L",)),
    CatalogEntry("T3.16", "section3", UNITIES, _crisp_lattice_bijection, ("R",)),
    CatalogEntry("P-comp", "section3", (), _composition, (LR, "generalized")),
    CatalogEntry("R-gamma", "section3", (), _composition, (LR, "simple")),
    CatalogEntry("P-prime-fwd", "section3", (), _membership, (LR, UP, PRIME)),
    CatalogEntry("P-prime-bwd", "section3", (), _membership, (LR, DOWN, PRIME)),
    CatalogEntry("P-bi-fwd", "section3", (), _membership, (LR, UP, BI)),
    CatalogEntry("P-bi-bwd", "section3", (), _membership, (LR, DOWN, BI)),
    CatalogEntry("P-quasi-fwd", "section3", (), _membership, (LR, UP, QUASI)),
    CatalogEntry("P-quasi-bwd", "section3", (), _membership, (LR, DOWN, QUASI)),
    CatalogEntry("S4-coprod", "section4", (), _check_coproduct),
    CatalogEntry("S4-commute-star", "section4", (), _product_commutes, (RL, DOWN)),
    CatalogEntry("S4-commute-starprime", "section4", (), _product_commutes, (RL, UP)),
    CatalogEntry("S4-hideal", "section4", (), _pair_images, (RL, H_IDEAL)),
    CatalogEntry("S4-prime", "section4", (), _pair_images, (RL, PRIME)),
    CatalogEntry(
        "T-cores2", "section4", ("strong left unity", "right unity"), _check_product_roundtrip
    ),
)

_BY_ID = {entry.check_id: entry for entry in CATALOG}

SUITES = ("all", "section2", "section3", "section4")


def _missing_hypothesis(ctx: CorrespondenceContext, needs: tuple[str, ...]) -> str | None:
    for need in needs:
        if need == "left unity" and ctx.left_unity is None:
            return need
        if need == "right unity" and ctx.right_unity is None:
            return need
        if need == "strong left unity" and (
            ctx.left_unity is None or not ctx.left_unity.strong
        ):
            return need
    return None


def run_check(
    check_id: str,
    ctx: CorrespondenceContext,
    grid,
    fams: "_Families | None" = None,
) -> PropertyResult:
    """Run one catalog check against a context at the given value grid."""
    if check_id not in _BY_ID:
        raise ValueError(f"unknown check id {check_id!r}")
    entry = _BY_ID[check_id]
    grid = _check_grid(grid)
    if fams is None:
        fams = _Families(ctx, grid)
    start = time.perf_counter()
    missing = _missing_hypothesis(ctx, entry.needs)
    if missing is not None:
        return PropertyResult(check_id, UNMET, {"missing": missing}, time.perf_counter() - start)
    witness = entry.fn(ctx, fams, *entry.args)
    elapsed = time.perf_counter() - start
    if witness is None:
        return PropertyResult(check_id, PASS, None, elapsed)
    return PropertyResult(check_id, FAIL, witness, elapsed)


def run_suite(ctx: CorrespondenceContext, grid, suite: str = "all") -> SuiteReport:
    """Run every catalog check in the suite, in catalog order."""
    if suite not in SUITES:
        raise ValueError(f"suite must be one of {SUITES}")
    grid = _check_grid(grid)
    fams = _Families(ctx, grid)
    results = []
    for entry in CATALOG:
        if suite != "all" and entry.suite != suite:
            continue
        results.append(run_check(entry.check_id, ctx, grid, fams))
    overall = PASS if all(r.status != FAIL for r in results) else FAIL
    return SuiteReport(ctx.G.name, grid, tuple(results), overall)
