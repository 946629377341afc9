"""Independent brute-force oracles.

Everything here re-derives results straight from the definitions with plain
nested loops and stays deliberately ignorant of the library's level-set,
bitmask and closure shortcuts.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from gammah.core import GammaHemiring, ProductStructure
from gammah.fuzzy import FuzzySubset

ZERO = Fraction(0)


def _vals(m):
    return [str(v) for v in m.values]


def grid_subsets(carrier, grid):
    """All fuzzy subsets with values drawn from the grid (lexicographic order)."""
    vals = [Fraction(v) for v in grid]
    for combo in itertools.product(vals, repeat=carrier.n):
        yield FuzzySubset(carrier, combo)


def h_equal(mon, lhs: int, rhs: int) -> bool:
    """x + u + z == v + z for some z, by direct scan."""
    add = mon.add
    return any(add[lhs][z] == add[rhs][z] for z in range(mon.n))


def equals(m1: FuzzySubset, m2: FuzzySubset) -> bool:
    """Same values on the same carrier; a ValueError across carriers."""
    if m1.carrier != m2.carrier:
        raise ValueError("carrier mismatch")
    return m1.values == m2.values


def rho_equivalent(g: GammaHemiring, f1, f2) -> bool:
    """Two formal sums are congruent iff they act identically on every
    carrier element; sums on different sides are never compared."""
    from gammah.operators import realize

    if f1.side != f2.side:
        raise ValueError("formal sums on different sides are never compared")
    return realize(g, f1) == realize(g, f2)


def embed(g: GammaHemiring, op, x: int, gamma: int) -> int:
    """Index in the closure of the single-generator class [x,gamma] (left)
    or [gamma,x] (right), by realizing the generator's map again.
    build_operator records the same index in op.embed."""
    from gammah.operators import FormalSum, realize

    pair = (x, gamma) if op.side == "left" else (gamma, x)
    return op.index_of(realize(g, FormalSum(op.side, (pair,))))


def naive_generalized_h_product(
    ps: ProductStructure, mu: FuzzySubset, theta: FuzzySubset, max_terms: int | None = None
) -> FuzzySubset:
    """Enumerate decompositions with up to max_terms product terms per side."""
    mon = ps.carrier
    n = mon.n
    limit = max_terms if max_terms is not None else n
    # A "term" is one product p drawn from pair_products(a, b); remember the
    # membership floor min(mu(a), theta(b)) it contributes.
    term_options = []
    for a in range(n):
        for b in range(n):
            floor = min(mu.values[a], theta.values[b])
            for p in ps.pair_products[a][b]:
                term_options.append((p, floor))
    sides = []  # (sum, floor) for every sequence of 1..limit terms
    for k in range(1, limit + 1):
        for combo in itertools.product(term_options, repeat=k):
            total = mon.add_all(p for p, _ in combo)
            floor = min(f for _, f in combo)
            sides.append((total, floor))
    best = [ZERO] * n
    add = mon.add
    for u, fu in sides:
        for v, fv in sides:
            floor = min(fu, fv)
            if floor == ZERO:
                continue
            for x in range(n):
                if floor > best[x] and h_equal(mon, add[x][u], v):
                    best[x] = floor
    return FuzzySubset(mon, tuple(best))


def naive_simple_h_product(ps: ProductStructure, mu: FuzzySubset, theta: FuzzySubset) -> FuzzySubset:
    return naive_generalized_h_product(ps, mu, theta, max_terms=1)


def brute_operator(g: GammaHemiring, side: str):
    """All maps realized by formal sums with <= |S| terms, then a fixpoint
    closure under pointwise addition and composition.

    Returns (maps, has_identity, has_strong_identity).
    """
    n = g.S.n
    act = g.action
    add = g.S.add

    def one_term(x, ga):
        if side == "left":
            return tuple(act[x][ga][a] for a in range(n))
        return tuple(act[a][ga][x] for a in range(n))

    generators = [one_term(x, ga) for x in range(n) for ga in range(g.Gamma.n)]
    identity = tuple(range(n))
    strong = identity in generators

    def plus(t1, t2):
        return tuple(add[a][b] for a, b in zip(t1, t2))

    maps = set()
    for k in range(1, n + 1):
        for combo in itertools.product(generators, repeat=k):
            total = combo[0]
            for t in combo[1:]:
                total = plus(total, t)
            maps.add(total)
    changed = True
    while changed:
        changed = False
        current = sorted(maps)
        for t1 in current:
            for t2 in current:
                for cand in (
                    plus(t1, t2),
                    tuple(t1[v] for v in t2) if side == "left" else tuple(t2[v] for v in t1),
                ):
                    if cand not in maps:
                        maps.add(cand)
                        changed = True
    return maps, identity in maps, strong


def brute_h_ideals(ps: ProductStructure, sidedness: str = "two-sided") -> list[tuple[int, ...]]:
    """All sided h-ideals by filtering every nonempty subset directly."""
    mon = ps.carrier
    n = mon.n
    add = mon.add
    out = []
    for bits in range(1, 1 << n):
        members = {i for i in range(n) if bits >> i & 1}
        if mon.zero not in members:
            continue
        if any(add[a][b] not in members for a in members for b in members):
            continue
        ok = True
        if sidedness in ("two-sided", "left"):
            ok = all(
                p in members
                for x in range(n)
                for a in members
                for p in ps.pair_products[x][a]
            )
        if ok and sidedness in ("two-sided", "right"):
            ok = all(
                p in members
                for a in members
                for x in range(n)
                for p in ps.pair_products[a][x]
            )
        if ok:
            for x in range(n):
                if x in members:
                    continue
                if any(
                    add[add[x][a]][z] == add[b][z]
                    for a in members
                    for b in members
                    for z in range(n)
                ):
                    ok = False
                    break
        if ok:
            out.append(tuple(sorted(members)))
    out.sort(key=lambda t: (len(t), t))
    return out


def closure_subsets_h_ideals(ps: ProductStructure) -> list[tuple[int, ...]]:
    """The {h_closure(A) : A subset of carrier} route, using the library closure."""
    from gammah.ideals import h_closure, is_h_ideal

    n = ps.carrier.n
    seen = set()
    for bits in range(1, 1 << n):
        members = [i for i in range(n) if bits >> i & 1]
        closed = h_closure(ps, members)
        assert is_h_ideal(ps, closed).holds
        seen.add(closed.indices())
    return sorted(seen, key=lambda t: (len(t), t))


def all_pairs_h_ideals(ps: ProductStructure, kind: str = "two-sided") -> list[tuple[int, ...]]:
    """The closed sets of a kind by the former lattice walk: the principal
    closures, then the closure of the union of every pair of closed sets
    found, until no pair adds one.  Uses the library closure; sorted by
    size, then lexicographically.
    """
    from gammah.ideals import _closure_mask

    n = ps.carrier.n
    found = {_closure_mask(ps, 1 << i, kind) for i in range(n)}
    worklist = list(found)
    while worklist:
        fresh = []
        for m1 in worklist:
            for m2 in list(found):
                if m1 | m2 in found:
                    continue
                joined = _closure_mask(ps, m1 | m2, kind)
                if joined not in found:
                    found.add(joined)
                    fresh.append(joined)
        worklist = fresh
    out = [tuple(i for i in range(n) if m >> i & 1) for m in found]
    return sorted(out, key=lambda t: (len(t), t))


def crisp_h_ideal_loops(ps: ProductStructure, a, sidedness: str = "two-sided"):
    """The crisp checker as its own loops: zero-membership, add-closed, the
    left- then right-absorbing rule over pair_product_masks, the h-condition.
    ideals.is_h_ideal runs the fuzzy checker on chi_A instead; the verdicts
    must agree, and the nonempty and h-condition witnesses too.  Reads
    same_sum_rows through gammah.ideals when called, so a patched relation
    reaches it.
    """
    import gammah.ideals as ideals
    from gammah.fuzzy import h_hull, pair_product_masks

    mon = ps.carrier
    lab = mon.elements
    idx = a.indices()
    if not idx:
        return ideals.CheckResult(False, "nonempty", {})
    if not a.mask >> mon.zero & 1:
        return ideals.CheckResult(False, "zero-membership", {"zero": lab[mon.zero]})
    mask = a.mask
    add = mon.add
    for i in idx:
        row = add[i]
        for j in idx:
            if not mask >> row[j] & 1:
                return ideals.CheckResult(False, "add-closed", {"a": lab[i], "b": lab[j]})
    ppm = pair_product_masks(ps)
    if sidedness in ("two-sided", "left"):
        for x in range(mon.n):
            row = ppm[x]
            for i in idx:
                if row[i] & ~mask:
                    p = next(q for q in ps.pair_products[x][i] if not mask >> q & 1)
                    return ideals.CheckResult(
                        False, "left-absorbing", {"x": lab[x], "a": lab[i], "xa": lab[p]}
                    )
    if sidedness in ("two-sided", "right"):
        for i in idx:
            row = ppm[i]
            for x in range(mon.n):
                if row[x] & ~mask:
                    p = next(q for q in ps.pair_products[i][x] if not mask >> q & 1)
                    return ideals.CheckResult(
                        False, "right-absorbing", {"a": lab[i], "x": lab[x], "ax": lab[p]}
                    )
    if h_hull(add, ideals.same_sum_rows(mon), mask, mask):
        witness = ideals._h_witness(
            mon,
            lambda x, a, b: not mask >> x & 1 and mask >> a & 1 and mask >> b & 1,
        )
        return ideals.CheckResult(False, "h-condition", witness)
    return ideals.CheckResult(True)


def naive_is_fuzzy_h_ideal(
    ps: ProductStructure, values: tuple[Fraction, ...], sidedness: str, require_top: bool
) -> bool:
    """Definition checked with plain quadruple loops."""
    mon = ps.carrier
    n = mon.n
    add = mon.add
    if all(v == 0 for v in values):
        return False
    if require_top and values[mon.zero] != 1:
        return False
    for x in range(n):
        for y in range(n):
            if values[add[x][y]] < min(values[x], values[y]):
                return False
    for x in range(n):
        for y in range(n):
            for p in ps.pair_products[x][y]:
                if sidedness in ("two-sided", "left") and values[p] < values[y]:
                    return False
                if sidedness in ("two-sided", "right") and values[p] < values[x]:
                    return False
    for x in range(n):
        for a in range(n):
            for b in range(n):
                if values[x] >= min(values[a], values[b]):
                    continue
                if any(add[add[x][a]][z] == add[b][z] for z in range(n)):
                    return False
    return True


def element_loop_fuzzy_check(
    ps: ProductStructure, mu: FuzzySubset, kind: str, require_top: bool = False
):
    """The first failing condition of a kind and its witness, by element loops
    comparing Fraction values: nonempty, top at zero when asked, additive,
    the kind's own conditions (left- then right-product at each (x, y, p)
    for a sidedness; product, then sandwich, for "bi"; the
    quasi-intersection for "quasi", read from the library's h-products as
    the checker reads them), then the h-condition at the first violating
    (x, a, b, z).  The witness reference for the fuzzy checkers.
    """
    from gammah.fuzzy import constant, generalized_h_product, intersect
    from gammah.ideals import CheckResult

    mon = ps.carrier
    lab = mon.elements
    n = mon.n
    add = mon.add
    pp = ps.pair_products
    vals = mu.values

    def fail(condition, witness=None):
        return CheckResult(False, condition=condition, witness=witness or {})

    if all(v == 0 for v in vals):
        return fail("nonempty")
    if require_top and vals[mon.zero] != 1:
        return fail("top-at-zero", {"zero": lab[mon.zero], "value": str(vals[mon.zero])})
    for x in range(n):
        for y in range(n):
            if vals[add[x][y]] < min(vals[x], vals[y]):
                return fail("additive", {"x": lab[x], "y": lab[y], "x+y": lab[add[x][y]]})
    if kind in ("two-sided", "left", "right"):
        for x in range(n):
            for y in range(n):
                for p in pp[x][y]:
                    if kind != "right" and vals[p] < vals[y]:
                        return fail("left-product", {"x": lab[x], "y": lab[y], "xy": lab[p]})
                    if kind != "left" and vals[p] < vals[x]:
                        return fail("right-product", {"x": lab[x], "y": lab[y], "xy": lab[p]})
    elif kind == "bi":
        for x in range(n):
            for y in range(n):
                for p in pp[x][y]:
                    if vals[p] < min(vals[x], vals[y]):
                        return fail("product", {"x": lab[x], "y": lab[y], "xy": lab[p]})
        for x in range(n):
            for y in range(n):
                for p in pp[x][y]:
                    for z in range(n):
                        for q in pp[p][z]:
                            if vals[q] < min(vals[x], vals[z]):
                                return fail(
                                    "sandwich",
                                    {"x": lab[x], "y": lab[y], "z": lab[z], "xyz": lab[q]},
                                )
    elif kind == "quasi":
        chi = constant(mon, 1)
        both = intersect(generalized_h_product(ps, mu, chi), generalized_h_product(ps, chi, mu))
        for x in range(n):
            if both.values[x] > vals[x]:
                return fail(
                    "quasi-intersection",
                    {"x": lab[x], "lhs": str(both.values[x]), "mu": str(vals[x])},
                )
    else:
        raise ValueError(f"unknown kind {kind!r}")
    for x in range(n):
        for a in range(n):
            for b in range(n):
                if vals[x] < min(vals[a], vals[b]):
                    for z in range(n):
                        if add[add[x][a]][z] == add[b][z]:
                            return fail(
                                "h-condition",
                                {"x": lab[x], "a": lab[a], "b": lab[b], "z": lab[z]},
                            )
    return CheckResult(True)


def brute_fuzzy_family(
    ps: ProductStructure, grid, sidedness: str = "two-sided"
) -> list[tuple[Fraction, ...]]:
    vals = [Fraction(v) for v in grid]
    mon = ps.carrier
    out = []
    for combo in itertools.product(vals, repeat=mon.n):
        if combo[mon.zero] != 1:
            continue
        if naive_is_fuzzy_h_ideal(ps, combo, sidedness, require_top=True):
            out.append(combo)
    return sorted(out)


def direct_filter(
    ps: ProductStructure, grid, check, require_top: bool = False
) -> list[tuple[Fraction, ...]]:
    """Every nonzero grid-valued subset that check accepts, by scanning all
    |grid|^n assignments; with require_top, only those with value 1 at zero.

    The reference for the level-set chain enumerators.  Sorted by values.
    """
    vals = [Fraction(v) for v in grid]
    mon = ps.carrier
    out = []
    for combo in itertools.product(vals, repeat=mon.n):
        if not any(combo) or require_top and combo[mon.zero] != 1:
            continue
        if check(ps, FuzzySubset(mon, combo)).holds:
            out.append(combo)
    return sorted(out)


def full_rescan_operator(g: GammaHemiring, side: str, orientation: str | None = None):
    """The operator closure by rescanning every pair of maps until nothing new
    appears, with both tables recomputed from the final maps.

    Returns (map tables, provenance, add, mul, zero) in discovery order, each
    map with the first formal sum that produced it.  Maps compose as on
    `orientation`'s side, by default `side` itself: (f.g)(a) = f(g(a)) for
    left, g(f(a)) for right.
    """
    from gammah.operators import FormalSum, formal_product, realize

    add = g.S.add
    maps: list[tuple[int, ...]] = []
    prov = []
    index: dict[tuple[int, ...], int] = {}

    def plus(t1, t2):
        return tuple(add[a][b] for a, b in zip(t1, t2))

    def times(t1, t2):
        return tuple(t1[v] for v in t2) if (orientation or side) == "left" else tuple(t2[v] for v in t1)

    def admit(table, f):
        if table not in index:
            index[table] = len(maps)
            maps.append(table)
            prov.append(f)

    for x in range(g.S.n):
        for ga in range(g.Gamma.n):
            f = FormalSum(side, ((x, ga) if side == "left" else (ga, x),))
            admit(realize(g, f).table, f)
    grown = True
    while grown:
        grown = False
        size = len(maps)
        for i in range(size):
            for j in range(size):
                before = len(maps)
                if i <= j:
                    admit(plus(maps[i], maps[j]), prov[i] + prov[j])
                admit(times(maps[i], maps[j]), formal_product(g, prov[i], prov[j]))
                grown = grown or len(maps) != before
    n = len(maps)
    add_table = tuple(tuple(index[plus(maps[i], maps[j])] for j in range(n)) for i in range(n))
    mul_table = tuple(tuple(index[times(maps[i], maps[j])] for j in range(n)) for i in range(n))
    zero = index[tuple(g.S.zero for _ in range(g.S.n))]
    return maps, prov, add_table, mul_table, zero


def spanned_submonoid(mon, gens) -> set[int]:
    """The elements that are sums of `gens` (zero the empty sum), by adding
    every generator to every element found until nothing new appears."""
    found = {mon.zero}
    grown = True
    while grown:
        size = len(found)
        found |= {mon.add[a][x] for a in found for x in gens}
        grown = len(found) != size
    return found


def all_maps_post_check(g: GammaHemiring, side: str) -> str | None:
    """The message of the first map of the operator closure that does not fix
    zero or is not additive, checking every map; None when all are.

    The maps are labelled op<k> in admission order: the generators first, in
    (x, gamma) order, then each map's sums and composites (both orders) with
    the maps before it and itself, until nothing new appears.
    """
    from gammah.operators import FormalSum, realize

    s = g.S
    add = s.add
    maps = []
    for x in range(s.n):
        for ga in range(g.Gamma.n):
            table = realize(g, FormalSum(side, ((x, ga) if side == "left" else (ga, x),))).table
            if table not in maps:
                maps.append(table)
    seen = set(maps)
    i = 0
    while i < len(maps):
        for j in range(i + 1):
            f, h = maps[i], maps[j]
            for table in (
                tuple(add[a][b] for a, b in zip(f, h)),
                tuple(f[v] for v in h),
                tuple(h[v] for v in f),
            ):
                if table not in seen:
                    seen.add(table)
                    maps.append(table)
        i += 1
    for k, m in enumerate(maps):
        if m[s.zero] != s.zero:
            return f"map op{k} does not fix zero"
        for a in range(s.n):
            for b in range(s.n):
                if m[add[a][b]] != add[m[a]][m[b]]:
                    return f"map op{k} is not additive at ({a},{b})"
    return None


def short_sums_mul_law(ctx):
    """The multiplication law checked on every pair of formal sums with at
    most two terms; returns the first failing pair as a witness, or None.
    """
    from gammah.operators import FormalSum, formal_product, realize

    g = ctx.G
    realized: dict = {}  # a sum's map depends only on its multiset of terms

    def realize_product(f1, f2):
        f = formal_product(g, f1, f2)
        key = (f.side, tuple(sorted(f.terms)))
        if key not in realized:
            realized[key] = realize(g, f).table
        return realized[key]

    for op in (ctx.L, ctx.R):
        pairs = [
            (x, ga) if op.side == "left" else (ga, x)
            for x in range(g.S.n)
            for ga in range(g.Gamma.n)
        ]
        sums = [FormalSum(op.side, (p,)) for p in pairs]
        sums += [FormalSum(op.side, (p, q)) for p in pairs for q in pairs]
        tables = [realize(g, f).table for f in sums]
        for i, f1 in enumerate(sums):
            k1 = op._index[tables[i]]
            for j, f2 in enumerate(sums):
                k2 = op._index[tables[j]]
                via_table = op.maps[op.mul[k1][k2]].table
                via_sum = realize_product(f1, f2)
                if via_table != via_sum:
                    return {
                        "side": op.side,
                        "f1": [list(t) for t in f1.terms],
                        "f2": [list(t) for t in f2.terms],
                    }
    return None


def realized_mul_law(ctx):
    """S2-mul-law by realizing each generator product: for every ordered pair
    of generators, the map of their mul cell against the map realized from
    their formal product.  Returns the first failing pair as a witness, or
    None.  The check reads the same verdict from build_operator's embed.
    """
    from gammah.operators import FormalSum, formal_product, realize

    g = ctx.G
    for op in (ctx.L, ctx.R):
        gens = [
            (FormalSum(op.side, ((x, ga) if op.side == "left" else (ga, x),)), op.embed[x][ga])
            for x in range(g.S.n)
            for ga in range(g.Gamma.n)
        ]
        for f1, k1 in gens:
            for f2, k2 in gens:
                via_table = op.maps[op.mul[k1][k2]].table
                via_sum = realize(g, formal_product(g, f1, f2)).table
                if via_table != via_sum:
                    return {
                        "side": op.side,
                        "f1": [list(t) for t in f1.terms],
                        "f2": [list(t) for t in f2.terms],
                    }
    return None


def axioms_with_operator_tables(ctx):
    """S2-axioms with L and R validated again as tables: the action table's
    first violation, else the first violation of validate_hemiring on L,
    then on R.  Returns the witness, or None.  The check skips L and R,
    since build_operator's proof makes them hemirings.
    """
    from gammah.core import validate_gamma_hemiring, validate_hemiring

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


def element_loop_axioms(g: GammaHemiring, violation_cap: int = 16):
    """Violations of axioms 1-6 in the order of an element-by-element scan,
    cut at violation_cap.  The carrier monoids are assumed valid.
    """
    ns, ng = g.S.n, g.Gamma.n
    sl, gl = g.S.elements, g.Gamma.elements
    sadd, gadd, act = g.S.add, g.Gamma.add, g.action
    zs, zg = g.S.zero, g.Gamma.zero
    out = []
    for a in range(ns):
        for b in range(ns):
            ab = sadd[a][b]
            for ga in range(ng):
                for c in range(ns):
                    if act[ab][ga][c] != sadd[act[a][ga][c]][act[b][ga][c]]:
                        out.append(("axiom-1", (sl[a], sl[b], gl[ga], sl[c])))
                    if act[c][ga][ab] != sadd[act[c][ga][a]][act[c][ga][b]]:
                        out.append(("axiom-2", (sl[c], gl[ga], sl[a], sl[b])))
    for a in range(ns):
        for ga in range(ng):
            for gb in range(ng):
                for b in range(ns):
                    if act[a][gadd[ga][gb]][b] != sadd[act[a][ga][b]][act[a][gb][b]]:
                        out.append(("axiom-3", (sl[a], gl[ga], gl[gb], sl[b])))
    for a in range(ns):
        for ga in range(ng):
            for b in range(ns):
                for gb in range(ng):
                    for c in range(ns):
                        if act[a][ga][act[b][gb][c]] != act[act[a][ga][b]][gb][c]:
                            out.append(("axiom-4", (sl[a], gl[ga], sl[b], gl[gb], sl[c])))
    for ga in range(ng):
        for a in range(ns):
            if act[zs][ga][a] != zs or act[a][ga][zs] != zs:
                out.append(("axiom-5", (sl[a], gl[ga])))
    for a in range(ns):
        for b in range(ns):
            if act[a][zg][b] != zs or act[b][zg][a] != zs:
                out.append(("axiom-6", (sl[a], sl[b])))
    return tuple(out[:violation_cap])


def element_loop_hemiring(h, violation_cap: int = 16):
    """validate_hemiring's violations in the order of an element-by-element
    scan over every triple, cut at violation_cap: the monoid laws, zero
    annihilation, then associativity and both distributive laws per triple.
    """
    from gammah.core import validate_monoid

    n = h.n
    lab = h.elements
    add, mul, z = h.add, h.mul, h.zero
    out = list(validate_monoid(h.monoid(), violation_cap).violations)
    for a in range(n):
        if mul[z][a] != z or mul[a][z] != z:
            out.append(("zero-absorbing", (lab[a],)))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    out.append(("mul-associative", (lab[a], lab[b], lab[c])))
                if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]:
                    out.append(("left-distributive", (lab[a], lab[b], lab[c])))
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    out.append(("right-distributive", (lab[a], lab[b], lab[c])))
    return tuple(out[:violation_cap])


def pair_hemiring_ps(op, mon) -> ProductStructure:
    """Componentwise product of an operator hemiring with itself, on carrier mon."""
    n = op.n
    mul = op.mul
    pp = tuple(
        tuple(
            (mul[i1][j1] * n + mul[i2][j2],)
            for j1 in range(n)
            for j2 in range(n)
        )
        for i1 in range(n)
        for i2 in range(n)
    )
    return ProductStructure(mon, pp)


def product_cut_quasi_closure(ps: ProductStructure, mask: int) -> int:
    """Least quasi-closed superset of mask, with the quasi rule read off h-products.

    The former library closure for the quasi kind: hull(A.S) & hull(S.A) is
    the meet of the 1-cuts of generalized_h_product(chi_A, 1) and
    generalized_h_product(1, chi_A); A + A and the h-condition are added one
    step per round from the same-sum relation.
    """
    from gammah.fuzzy import generalized_h_product, same_sum_rows

    mon = ps.carrier
    n = mon.n
    add = mon.add
    same = same_sum_rows(mon)
    one = Fraction(1)
    top = FuzzySubset(mon, (one,) * n)
    while True:
        members = [i for i in range(n) if mask >> i & 1]
        chi = FuzzySubset(mon, tuple(one if mask >> i & 1 else ZERO for i in range(n)))
        left = generalized_h_product(ps, chi, top).values
        right = generalized_h_product(ps, top, chi).values
        out = mask
        for x in range(n):
            if left[x] == one and right[x] == one:
                out |= 1 << x
            if any(same[add[x][a]] & mask for a in members):
                out |= 1 << x
        for a in members:
            for b in members:
                out |= 1 << add[a][b]
        if out == mask:
            return mask
        mask = out


def down_comprehension(tag: str, ctx, mu: FuzzySubset) -> FuzzySubset:
    """The down map as a min over every Gamma index of mu at embed(g, op, x, gamma)."""
    g, op = ctx.G, ctx.L if tag == "L" else ctx.R
    values = tuple(
        min(mu.values[embed(g, op, x, ga)] for ga in range(g.Gamma.n)) for x in range(g.S.n)
    )
    return FuzzySubset(ctx.s_monoid, values)


def up_comprehension(tag: str, ctx, sigma: FuzzySubset) -> FuzzySubset:
    """The up map as a min over every point s of S of sigma(f(s))."""
    op, mon = (ctx.L, ctx.l_monoid) if tag == "L" else (ctx.R, ctx.r_monoid)
    values = tuple(min(sigma.values[m.table[s]] for s in range(ctx.G.S.n)) for m in op.maps)
    return FuzzySubset(mon, values)


def sum_closure_up(tag: str, ctx, q) -> tuple[bool, ...]:
    """The crisp up map from its definition: the classes of f whose every
    finite sum of values lies in Q, the sums closed by a plain fixpoint."""
    op = ctx.L if tag == "L" else ctx.R
    add = ctx.s_monoid.add
    out = []
    for m in op.maps:
        sums = set(m.table)
        while True:
            more = sums | {add[a][b] for a in sums for b in sums}
            if more == sums:
                break
            sums = more
        out.append(all(q.mask >> v & 1 for v in sums))
    return tuple(out)


def product_down_comprehension(tag: str, ctx, phi: FuzzySubset) -> FuzzySubset:
    """The down product map as a min over every pair of Gamma indices, repeats included."""
    op = ctx.L if tag == "L" else ctx.R
    ns, ng, n, emb = ctx.G.S.n, ctx.G.Gamma.n, op.n, op.embed
    values = tuple(
        min(phi.values[emb[x][a] * n + emb[y][b]] for a in range(ng) for b in range(ng))
        for x in range(ns)
        for y in range(ns)
    )
    return FuzzySubset(ctx.sxs_monoid, values)


def product_up_comprehension(tag: str, ctx, phi: FuzzySubset) -> FuzzySubset:
    """The up product map as a min over every pair of points of S, repeats included."""
    op = ctx.L if tag == "L" else ctx.R
    ns = ctx.G.S.n
    values = tuple(
        min(phi.values[m1.table[s1] * ns + m2.table[s2]] for s1 in range(ns) for s2 in range(ns))
        for m1 in op.maps
        for m2 in op.maps
    )
    return FuzzySubset(ctx.lxl_monoid if tag == "L" else ctx.rxr_monoid, values)


def cartesian_inclusion_loop(members, image):
    """T-cores2's inclusion half over every pair of member pairs.

    For each pair (mu1, s1) and each pair (mu2, s2), in member order: when
    mu1 x s1 lies in mu2 x s2, image(mu1) x image(s1) must lie in
    image(mu2) x image(s2).  Returns the first failure as a witness, or None.
    """
    from gammah.fuzzy import cartesian, is_subset

    pairs = [(m1, m2, cartesian(m1, m2)) for m1 in members for m2 in members]
    for mu1, s1, c1 in pairs:
        im1 = cartesian(image(mu1), image(s1))
        for mu2, s2, c2 in pairs:
            if is_subset(c1, c2):
                im2 = cartesian(image(mu2), image(s2))
                if not is_subset(im1, im2):
                    return {
                        "reason": "not-inclusion-preserving",
                        "smaller": [_vals(mu1), _vals(s1)],
                        "larger": [_vals(mu2), _vals(s2)],
                    }
    return None


def generator_scan_unity(g: GammaHemiring, op):
    """The unity by realizing every generator in (x, gamma) order: strong,
    witnessed by the first generator that acts as the identity; otherwise the
    identity class's provenance; None when the closure has no identity.
    """
    from gammah.operators import FormalSum, Unity, realize

    identity = tuple(range(g.S.n))
    for x in range(g.S.n):
        for ga in range(g.Gamma.n):
            f = FormalSum(op.side, ((x, ga) if op.side == "left" else (ga, x),))
            if realize(g, f).table == identity:
                return Unity(op.side, True, f)
    k = op._index.get(identity)
    if k is None:
        return None
    return Unity(op.side, False, op.provenance[k])


def pair_scan_prime_like(ps: ProductStructure, zeta: FuzzySubset, family, semiprime: bool):
    """Prime (or semiprime) relative to the family, forming the simple
    h-product of every pair (every diagonal pair) before asking whether a
    member of the pair lies below zeta.
    """
    from gammah.fuzzy import is_subset, simple_h_product
    from gammah.ideals import RELATIVE, CheckResult, is_fuzzy_h_ideal

    base = is_fuzzy_h_ideal(ps, zeta, family.kind, require_top=True)
    if not base.holds:
        return CheckResult(False, condition=f"h-ideal:{base.condition}", witness=base.witness)
    if zeta.is_constant():
        return CheckResult(False, condition="non-constant", witness={"value": str(zeta.values[0])})
    members = family.members
    pairs = ((m, m) for m in members) if semiprime else itertools.product(members, members)
    for mu, nu in pairs:
        prod = simple_h_product(ps, mu, nu)
        if is_subset(prod, zeta) and not (is_subset(mu, zeta) or is_subset(nu, zeta)):
            witness = {"mu": [str(v) for v in mu.values]}
            if not semiprime:
                witness["nu"] = [str(v) for v in nu.values]
            condition = "semiprime-implication" if semiprime else "prime-implication"
            return CheckResult(False, condition=condition, witness=witness)
    return CheckResult(True, qualifier=RELATIVE)


def intersection_commutes_scan(ctx, fams):
    """L3.3 over every pair, then every triple, of members of L's family: the
    meet of the plus images against plus of the meet.  Returns the first
    failing group as a witness, or None.  Pairs alone decide it, by the meet
    lemma; this scans what that lemma lets the check skip.
    """
    from gammah import correspondence
    from gammah.fuzzy import intersect
    from gammah.harness import _diff_witness

    members = fams.fuzzy("L").members
    for group in itertools.chain(
        itertools.combinations_with_replacement(members, 2),
        itertools.combinations_with_replacement(members, 3),
    ):
        lhs = correspondence.plus(ctx, group[0])
        meet = group[0]
        for m in group[1:]:
            lhs = intersect(lhs, correspondence.plus(ctx, m))
            meet = intersect(meet, m)
        witness = {"members": [_vals(m) for m in group]}
        w = _diff_witness(witness, lhs, correspondence.plus(ctx, meet))
        if w:
            return w
    return None


def complete_lattices_scan(ctx, fams):
    """C3.10 over every pair of each sided family of L and R: the
    intersection, then the sum, must be a member.  Returns the first result
    outside the family as a witness, or None.
    """
    from gammah.fuzzy import fuzzy_sum, intersect

    for which, sid in (("L", "left"), ("L", "right"), ("R", "left"), ("R", "right")):
        members = fams.fuzzy(which, sid).members
        index = {m.values for m in members}
        for a, b in itertools.combinations_with_replacement(members, 2):
            for op, result in (("intersection", intersect(a, b)), ("sum", fuzzy_sum(a, b))):
                if result.values not in index:
                    return {"carrier": which, "sidedness": sid, "op": op,
                            "a": _vals(a), "b": _vals(b), "result": _vals(result)}
    return None


def oplus_law_scan(members):
    """S2-oplus over every pair, then every triple, of members: fuzzy_sum
    commutes, then associates.  Returns the first failing group as a
    witness, or None.  The monoid laws of S decide it for any fuzzy subsets;
    this scans what that proof lets the check skip.
    """
    from gammah.fuzzy import fuzzy_sum

    for a, b in itertools.combinations_with_replacement(members, 2):
        if not equals(fuzzy_sum(a, b), fuzzy_sum(b, a)):
            return {"law": "commutative", "a": _vals(a), "b": _vals(b)}
    for a, b, c in itertools.combinations_with_replacement(members, 3):
        if not equals(fuzzy_sum(fuzzy_sum(a, b), c), fuzzy_sum(a, fuzzy_sum(b, c))):
            return {"law": "associative", "a": _vals(a), "b": _vals(b), "c": _vals(c)}
    return None


def gamma_subset_scan(ps: ProductStructure, members):
    """S2-gamma-subset over every ordered pair of members: the simple
    h-product lies inside the generalized one.  Returns the first failing
    pair as a witness, or None.  Pool monotonicity decides it for any fuzzy
    subsets; this scans what that proof lets the check skip.
    """
    from gammah.fuzzy import generalized_h_product, is_subset, simple_h_product

    for a in members:
        for b in members:
            if not is_subset(simple_h_product(ps, a, b), generalized_h_product(ps, a, b)):
                return {"mu": _vals(a), "nu": _vals(b)}
    return None


def rescan_additive_closure(mon, mask: int) -> int:
    """Closure of the masked set under the carrier addition, summing every
    ordered pair of the set again each round until no sum is new.  It
    assumes nothing of the addition; fuzzy.additive_closure_mask sums only
    new elements against the set, which relies on addition commuting.
    """
    add = mon.add
    closed = mask
    changed = True
    while changed:
        changed = False
        members = [i for i in range(mon.n) if closed >> i & 1]
        for u in members:
            for v in members:
                bit = 1 << add[u][v]
                if not closed & bit:
                    closed |= bit
                    changed = True
    return closed


# The Fraction loops the rank kernels replaced: each compares membership
# values directly, the reference for fuzzy._ranks and the kernels on it.


def fraction_fuzzy_sum(m1: FuzzySubset, m2: FuzzySubset) -> FuzzySubset:
    """(m1 (+) m2)(x) = max over x = u+v of min(m1(u), m2(v)), from ZERO up."""
    mon = m1.carrier
    best = [ZERO] * mon.n
    for u in range(mon.n):
        vu = m1.values[u]
        row = mon.add[u]
        for v in range(mon.n):
            m = min(vu, m2.values[v])
            t = row[v]
            if m > best[t]:
                best[t] = m
    return FuzzySubset(mon, tuple(best))


def fraction_cartesian(m1: FuzzySubset, m2: FuzzySubset) -> FuzzySubset:
    """(m1 x m2)(x,y) = min(m1(x), m2(y)) over the product carrier."""
    from gammah.core import product_monoid

    carrier = product_monoid(m1.carrier, m2.carrier)
    return FuzzySubset(carrier, tuple(min(a, b) for a in m1.values for b in m2.values))


def cut_mask(mu: FuzzySubset, t: Fraction) -> int:
    """Bitmask of the level cut {x : mu(x) >= t}."""
    mask = 0
    for i, v in enumerate(mu.values):
        if v >= t:
            mask |= 1 << i
    return mask


def fraction_level_product(
    ps: ProductStructure, mu: FuzzySubset, theta: FuzzySubset, close: bool
) -> FuzzySubset:
    """The h-product by level sets (generalized when close, else simple),
    one cut_mask scan per positive value of mu or theta, highest first."""
    from gammah.fuzzy import (
        _bits,
        additive_closure_mask,
        h_hull,
        pair_product_masks,
        product_mask,
        same_sum_rows,
    )

    mon = ps.carrier
    same = same_sum_rows(mon)
    ppm = pair_product_masks(ps)
    out = [ZERO] * mon.n
    assigned = 0
    for t in sorted({v for v in mu.values + theta.values if v > 0}, reverse=True):
        base = product_mask(ppm, cut_mask(mu, t), cut_mask(theta, t))
        if not base:
            continue
        pool = additive_closure_mask(mon, base) if close else base
        fresh = h_hull(mon.add, same, pool, assigned)
        for x in _bits(fresh):
            out[x] = t
        assigned |= fresh
    return FuzzySubset(mon, tuple(out))


def fraction_mins(vals, rows) -> tuple:
    """Output k is the min of the Fraction values over rows[k]."""
    return tuple(min(vals[i] for i in row) for row in rows)
