"""Transfer maps between fuzzy subsets of S and of its operator hemirings.

All infima become minima over the finite carriers.  The maps on operator
elements evaluate on the induced action maps, which makes well-definedness on
congruence classes automatic.  One table, `_transfer`, names the input rows
of each side ("L" or "R") and direction; one body per kind of map (fuzzy,
crisp, product) reads it, and the paper's names bind the side and direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .core import (
    FiniteMonoid,
    GammaHemiring,
    ProductStructure,
    _memo,
    action_columns,
    as_product_structure,
    hemiring_product_structure,
    pair_product_structure,
    product_monoid,
)
from .fuzzy import FuzzySubset, _ranks
from .ideals import CrispSubset
from .operators import (
    LEFT,
    RIGHT,
    OperatorHemiring,
    Unity,
    build_operator,
    find_unity,
)


@dataclass
class CorrespondenceContext:
    """A structure together with its operator hemirings and product carriers.

    Each carrier is one object, shared by its product structure and by
    `cartesian`.  The pair carriers SxS, LxL and RxR are built on first read,
    through `ps`: they hold |S|^4, |L|^4 and |R|^4 cells, and most uses of a
    context need none of them.
    """

    G: GammaHemiring
    L: OperatorHemiring
    R: OperatorHemiring
    left_unity: Unity | None
    right_unity: Unity | None
    s_ps: ProductStructure
    l_ps: ProductStructure
    r_ps: ProductStructure

    # The carrier monoids.  A pair monoid comes from product_monoid's memo,
    # which is the carrier of the pair structure, built or not.
    s_monoid = property(lambda self: self.s_ps.carrier)
    l_monoid = property(lambda self: self.l_ps.carrier)
    r_monoid = property(lambda self: self.r_ps.carrier)
    sxs_ps = property(lambda self: self.ps("SxS"))
    sxs_monoid = property(lambda self: product_monoid(self.s_monoid, self.s_monoid))
    lxl_monoid = property(lambda self: product_monoid(self.l_monoid, self.l_monoid))
    rxr_monoid = property(lambda self: product_monoid(self.r_monoid, self.r_monoid))

    def ps(self, which: str) -> ProductStructure:
        """The product structure of carrier S, L, R, SxS, LxL or RxR."""
        if which in ("S", "L", "R"):
            return {"S": self.s_ps, "L": self.l_ps, "R": self.r_ps}[which]
        if which not in ("SxS", "LxL", "RxR"):
            raise ValueError(f"unknown carrier {which!r}")

        def build() -> ProductStructure:
            # S multiplies along its Gamma-columns; a hemiring's column of x
            # and y is the single product.
            base = self.ps(which[0])
            columns = action_columns(self.G) if which == "SxS" else base.pair_products
            return pair_product_structure(base.carrier, columns)

        return _memo(self, which, build)


def _named(g: GammaHemiring) -> GammaHemiring:
    # Carriers need stable names: product carriers are named after them, and
    # the context's S is the carrier of its product structure.
    s, gam = g.S, g.Gamma
    if s.name and gam.name:
        return g
    if not s.name:
        s = FiniteMonoid(s.elements, s.zero, s.add, f"{g.name}:S")
    if not gam.name:
        gam = FiniteMonoid(gam.elements, gam.zero, gam.add, f"{g.name}:Gamma")
    return GammaHemiring(g.name, s, gam, g.action)


def build_context(g: GammaHemiring) -> CorrespondenceContext:
    g = _named(g)
    left = build_operator(g, LEFT)
    right = build_operator(g, RIGHT)
    s_ps = as_product_structure(g)
    l_ps = hemiring_product_structure(left)
    r_ps = hemiring_product_structure(right)
    return CorrespondenceContext(
        G=g,
        L=left,
        R=right,
        left_unity=find_unity(g, left),
        right_unity=find_unity(g, right),
        s_ps=s_ps,
        l_ps=l_ps,
        r_ps=r_ps,
    )


def _expect(subset, carrier: FiniteMonoid, what: str) -> None:
    if subset.carrier != carrier:
        kind = "fuzzy subset over" if isinstance(subset, FuzzySubset) else "subset of"
        raise ValueError(f"expected a {kind} {what}")


UP, DOWN = "up", "down"  # S -> L/R, and L/R -> S


def _transfer(ctx: CorrespondenceContext, tag: str, direction: str):
    """Source carrier, target carrier and input rows of a map between S and L or R.

    Output point k reads the source points in rows[k]: going down, x in S
    reads [x,gamma] (L) or [gamma,x] (R) for every gamma; going up, the class
    of f reads f(s) for every s in S.
    """
    op = ctx.L if tag == "L" else ctx.R
    if direction == DOWN:
        return tag, "S", op.embed
    return "S", tag, [m.table for m in op.maps]


def _mins(ranks, rows) -> list[int]:
    """Output k is the min of ranks over rows[k]."""
    at = ranks.__getitem__
    return [min(map(at, row)) for row in rows]


def _crisp_map(
    tag: str, direction: str, ctx: CorrespondenceContext, p: CrispSubset
) -> CrispSubset:
    """Down: {a in S : [a,gamma] (L) or [gamma,a] (R) lies in P for every gamma}.
    Up: {class of f : every finite sum of values of f lies in P}.

    Going up, the values of f already hold every finite sum of them:
    build_operator rejects a map that is not additive or does not fix zero,
    so its image is a submonoid of S, and its additive closure is itself.
    """
    src, dst, rows = _transfer(ctx, tag, direction)
    _expect(p, ctx.ps(src).carrier, src)
    mask = p.mask
    out = sum(1 << k for k, row in enumerate(rows) if all(mask >> i & 1 for i in row))
    return CrispSubset(ctx.ps(dst).carrier, out)


def _fuzzy_map(
    tag: str, direction: str, ctx: CorrespondenceContext, mu: FuzzySubset
) -> FuzzySubset:
    """Down: x -> min over gamma of mu([x,gamma]) (L) or mu([gamma,x]) (R).
    Up: class of f -> min over s of mu(f(s))."""
    src, dst, rows = _transfer(ctx, tag, direction)
    _expect(mu, ctx.ps(src).carrier, src)
    levels, (ranks,) = _ranks(mu)
    return FuzzySubset(ctx.ps(dst).carrier, tuple(map(levels.__getitem__, _mins(ranks, rows))))


def _product_map(
    tag: str, direction: str, ctx: CorrespondenceContext, phi: FuzzySubset
) -> FuzzySubset:
    """The map on pair carriers: (a, b) -> min of phi over rows[a] x rows[b], a-major.

    The same min is taken once per coordinate, over rows of distinct indices:
    over the second coordinate once per first-coordinate index, then over
    the first.  Independent indices give, up, min over (s1, s2) of
    phi(f(s1), g(s2)) and, down, min over (alpha, beta) of phi at the
    embeddings of (x, alpha) and (y, beta).
    """
    src, dst, rows = _transfer(ctx, tag, direction)
    base, out = ctx.ps(src).carrier, ctx.ps(dst).carrier
    _expect(phi, product_monoid(base, base), f"{src}x{src}")
    levels, (ranks,) = _ranks(phi)
    n, rows = base.n, [set(row) for row in rows]
    inner = {i: _mins(ranks[i * n:(i + 1) * n], rows) for i in set().union(*rows)}
    values = tuple(levels[min(col)] for ra in rows for col in zip(*[inner[i] for i in ra]))
    return FuzzySubset(product_monoid(out, out), values)


# The paper's names.  Callers look these up as module attributes at call time,
# so patching one (fault injection, tracing) reaches every use.
plus = partial(_fuzzy_map, "L", DOWN)
star = partial(_fuzzy_map, "R", DOWN)
plus_prime = partial(_fuzzy_map, "L", UP)
star_prime = partial(_fuzzy_map, "R", UP)
crisp_plus = partial(_crisp_map, "L", DOWN)
crisp_star = partial(_crisp_map, "R", DOWN)
crisp_plus_prime = partial(_crisp_map, "L", UP)
crisp_star_prime = partial(_crisp_map, "R", UP)
product_plus = partial(_product_map, "L", DOWN)
product_star = partial(_product_map, "R", DOWN)
product_plus_prime = partial(_product_map, "L", UP)
product_star_prime = partial(_product_map, "R", UP)
