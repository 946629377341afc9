"""Transfer maps between fuzzy subsets of S and of its operator hemirings.

All infima become minima over the finite carriers.  The maps on operator
elements evaluate on the induced action maps, which makes well-definedness on
congruence classes automatic.  Each left/right pair of maps is one body that
takes a side tag, "L" or "R"; the paper's names bind that tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

from .core import (
    FiniteMonoid,
    GammaHemiring,
    ProductStructure,
    _memo,
    action_columns,
    as_product_structure,
    pair_product_structure,
    product_monoid,
)
from .fuzzy import FuzzySubset, additive_closure_mask
from .ideals import CrispSubset, crisp_from_mask
from .operators import (
    LEFT,
    RIGHT,
    OperatorHemiring,
    Unity,
    build_operator,
    embed,
    find_unity,
    hemiring_as_product_structure,
)


class Side(NamedTuple):
    """One operator hemiring with its embedding table and carriers.

    The pair carrier (LxL or RxR) is read from the context only when asked
    for, so a map that never touches it never builds it.
    """

    ctx: "CorrespondenceContext"
    tag: str
    op: OperatorHemiring
    embed: tuple[tuple[int, ...], ...]  # embed[x][gamma]: index of [x,gamma] or [gamma,x]
    monoid: FiniteMonoid

    @property
    def pair_monoid(self) -> FiniteMonoid:
        return self.ctx.lxl_monoid if self.tag == "L" else self.ctx.rxr_monoid


@dataclass
class CorrespondenceContext:
    """A structure together with its operator hemirings and product carriers.

    Each carrier is one object, shared by its product structure and by
    `cartesian`.  The LxL and RxR carriers and structures are built on first
    read: they hold |L|^4 and |R|^4 cells, and most uses of a context need
    none of them.
    """

    G: GammaHemiring
    L: OperatorHemiring
    R: OperatorHemiring
    left_unity: Unity | None
    right_unity: Unity | None
    s_monoid: FiniteMonoid
    l_monoid: FiniteMonoid
    r_monoid: FiniteMonoid
    s_ps: ProductStructure
    l_ps: ProductStructure
    r_ps: ProductStructure
    sxs_monoid: FiniteMonoid
    sxs_ps: ProductStructure
    left_embed: tuple[tuple[int, ...], ...] = field(repr=False, default=())
    right_embed: tuple[tuple[int, ...], ...] = field(repr=False, default=())

    @cached_property
    def lxl_monoid(self) -> FiniteMonoid:
        return product_monoid(self.l_monoid, self.l_monoid)

    @cached_property
    def rxr_monoid(self) -> FiniteMonoid:
        return product_monoid(self.r_monoid, self.r_monoid)

    def ps(self, which: str) -> ProductStructure:
        """The product structure of carrier S, L, R, SxS, LxL or RxR."""
        if which in ("LxL", "RxR"):
            # A hemiring's products of x and y are its column: the single product.
            base = self.ps(which[0])
            build = partial(pair_product_structure, base.carrier, base.pair_products)
            return _memo(self, which, build)
        fixed = {"S": self.s_ps, "L": self.l_ps, "R": self.r_ps, "SxS": self.sxs_ps}
        if which not in fixed:
            raise ValueError(f"unknown carrier {which!r}")
        return fixed[which]

    def side(self, tag: str) -> Side:
        """The operator hemiring L or R with its embedding table and carriers."""
        if tag == "L":
            return Side(self, tag, self.L, self.left_embed, self.l_monoid)
        return Side(self, tag, self.R, self.right_embed, self.r_monoid)


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


def build_context(g: GammaHemiring, cap: int | None = None) -> CorrespondenceContext:
    g = _named(g)
    left = build_operator(g, LEFT, cap)
    right = build_operator(g, RIGHT, cap)
    s_ps = as_product_structure(g)
    l_ps = hemiring_as_product_structure(left)
    r_ps = hemiring_as_product_structure(right)
    sxs_ps = pair_product_structure(s_ps.carrier, action_columns(g))
    return CorrespondenceContext(
        G=g,
        L=left,
        R=right,
        left_unity=find_unity(g, left),
        right_unity=find_unity(g, right),
        s_monoid=s_ps.carrier,
        l_monoid=l_ps.carrier,
        r_monoid=r_ps.carrier,
        s_ps=s_ps,
        l_ps=l_ps,
        r_ps=r_ps,
        sxs_monoid=sxs_ps.carrier,
        sxs_ps=sxs_ps,
        left_embed=_embed_table(g, left),
        right_embed=_embed_table(g, right),
    )


def _embed_table(g: GammaHemiring, op: OperatorHemiring) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(embed(g, op, x, ga) for ga in range(g.Gamma.n)) for x in range(g.S.n))


def _expect(subset, carrier: FiniteMonoid, what: str) -> None:
    if subset.carrier != carrier:
        kind = "fuzzy subset over" if isinstance(subset, FuzzySubset) else "subset of"
        raise ValueError(f"expected a {kind} {what}")


def _fuzzy_down(tag: str, ctx: CorrespondenceContext, mu: FuzzySubset) -> FuzzySubset:
    """Over S: x -> min over gamma of mu([x,gamma]) (L) or mu([gamma,x]) (R)."""
    sd = ctx.side(tag)
    _expect(mu, sd.monoid, tag)
    values = tuple(
        min(mu.values[sd.embed[x][ga]] for ga in range(ctx.G.Gamma.n))
        for x in range(ctx.G.S.n)
    )
    return FuzzySubset(ctx.s_monoid, values)


def _fuzzy_up(tag: str, ctx: CorrespondenceContext, sigma: FuzzySubset) -> FuzzySubset:
    """Over L or R: class of f -> min over s of sigma(f(s))."""
    sd = ctx.side(tag)
    _expect(sigma, ctx.s_monoid, "S")
    values = tuple(
        min(sigma.values[m.table[s]] for s in range(ctx.G.S.n)) for m in sd.op.maps
    )
    return FuzzySubset(sd.monoid, values)


def _crisp_down(tag: str, ctx: CorrespondenceContext, p: CrispSubset) -> CrispSubset:
    """{a in S : [a,gamma] (L) or [gamma,a] (R) lies in P for every gamma}."""
    sd = ctx.side(tag)
    _expect(p, sd.monoid, tag)
    mask = 0
    for x in range(ctx.G.S.n):
        if all(p.members[sd.embed[x][ga]] for ga in range(ctx.G.Gamma.n)):
            mask |= 1 << x
    return crisp_from_mask(ctx.s_monoid, mask)


def _crisp_up(tag: str, ctx: CorrespondenceContext, q: CrispSubset) -> CrispSubset:
    """{class of f : every finite sum of values of f lands in Q}."""
    sd = ctx.side(tag)
    _expect(q, ctx.s_monoid, "S")
    qmask = q.mask
    mask = 0
    for k, m in enumerate(sd.op.maps):
        # All finite sums of values of the map: additive closure of its image.
        image = 0
        for v in m.table:
            image |= 1 << v
        if not additive_closure_mask(ctx.s_monoid, image) & ~qmask:
            mask |= 1 << k
    return crisp_from_mask(sd.monoid, mask)


def _pair_min(vals, n: int, rows: list[set[int]]) -> tuple:
    """(a, b) -> min of vals[i * n + j] over i in rows[a], j in rows[b], a-major.

    Rows hold distinct indices; the min over j is taken once per i and b.
    """
    inner = {i: [min(vals[i * n + j] for j in rb) for rb in rows] for i in set().union(*rows)}
    return tuple(min(inner[i][b] for i in ra) for ra in rows for b in range(len(rows)))


def _product_down(tag: str, ctx: CorrespondenceContext, phi: FuzzySubset) -> FuzzySubset:
    """Over SxS: (x,y) -> min over (alpha,beta) of phi at the embeddings of (x,alpha), (y,beta)."""
    sd = ctx.side(tag)
    _expect(phi, sd.pair_monoid, f"{tag}x{tag}")
    values = _pair_min(phi.values, sd.op.n, [set(row) for row in sd.embed])
    return FuzzySubset(ctx.sxs_monoid, values)


def _product_up(tag: str, ctx: CorrespondenceContext, phi: FuzzySubset) -> FuzzySubset:
    """Over LxL or RxR: (f,g) -> min over independent (s1,s2) of phi(f(s1), g(s2))."""
    sd = ctx.side(tag)
    _expect(phi, ctx.sxs_monoid, "SxS")
    values = _pair_min(phi.values, ctx.G.S.n, [set(m.table) for m in sd.op.maps])
    return FuzzySubset(sd.pair_monoid, values)


# The paper's names.  Callers look these up as module attributes at call time,
# so patching one (fault injection, tracing) reaches every use.
plus = partial(_fuzzy_down, "L")
star = partial(_fuzzy_down, "R")
plus_prime = partial(_fuzzy_up, "L")
star_prime = partial(_fuzzy_up, "R")
crisp_plus = partial(_crisp_down, "L")
crisp_star = partial(_crisp_down, "R")
crisp_plus_prime = partial(_crisp_up, "L")
crisp_star_prime = partial(_crisp_up, "R")
product_plus = partial(_product_down, "L")
product_star = partial(_product_down, "R")
product_plus_prime = partial(_product_up, "L")
product_star_prime = partial(_product_up, "R")
