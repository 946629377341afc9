"""Small bundled structures used throughout tests, docs and CLI examples."""

from __future__ import annotations

import itertools

from .core import (
    FiniteMonoid,
    GammaHemiring,
    Hemiring,
    from_hemiring,
    gamma_from_hemiring,
    matrix_gamma_hemiring,
    product,
)


def boolean_hemiring() -> Hemiring:
    """{0,1} with OR addition and AND multiplication."""
    return Hemiring(("0", "1"), 0, ((0, 1), (1, 1)), ((0, 0), (0, 1)), "B")


def zmod_hemiring(n: int) -> Hemiring:
    labels = tuple(str(i) for i in range(n))
    add = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    mul = tuple(tuple(i * j % n for j in range(n)) for i in range(n))
    return Hemiring(labels, 0, add, mul, f"Z{n}")


def upper_triangular_hemiring() -> Hemiring:
    """UT2(Z2): the upper-triangular 2x2 matrices over Z2, a ring whose product
    does not commute.  The label abc is the matrix [[a, b], [0, c]]."""
    mats = list(itertools.product(range(2), repeat=3))
    index = {m: i for i, m in enumerate(mats)}
    add = tuple(
        tuple(index[tuple((x + y) % 2 for x, y in zip(m1, m2))] for m2 in mats) for m1 in mats
    )
    mul = tuple(
        tuple(index[(a * d, (a * e + b * f) % 2, c * f)] for d, e, f in mats) for a, b, c in mats
    )
    return Hemiring(tuple("".join(map(str, m)) for m in mats), 0, add, mul, "UT2(Z2)")


def boolean() -> GammaHemiring:
    return gamma_from_hemiring(boolean_hemiring())


def zmod(n: int) -> GammaHemiring:
    return gamma_from_hemiring(zmod_hemiring(n))


def upper_triangular() -> GammaHemiring:
    h = upper_triangular_hemiring()
    return from_hemiring(h.add, h.mul, h.elements, h.zero, h.name)


def z2xz2() -> GammaHemiring:
    g = product(zmod(2), zmod(2))
    return GammaHemiring("Z2xZ2", g.S, g.Gamma, g.action)


def boolean_matrix_2x1() -> GammaHemiring:
    return matrix_gamma_hemiring(boolean_hemiring(), 2, 1)


def zero_action(n: int = 2) -> GammaHemiring:
    """Degenerate fixture: cyclic carriers with the all-zero action (no unity)."""
    base = zmod_hemiring(n)
    mon = FiniteMonoid(base.elements, base.zero, base.add)
    action = tuple(tuple(tuple(0 for _ in range(n)) for _ in range(n)) for _ in range(n))
    return GammaHemiring(f"Zero{n}", mon, mon, action)


def standard_corpus() -> list[GammaHemiring]:
    """The fixed acceptance corpus, in a stable order."""
    return [
        boolean(),
        zmod(2),
        zmod(3),
        zmod(4),
        z2xz2(),
        boolean_matrix_2x1(),
    ]
