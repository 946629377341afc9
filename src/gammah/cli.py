"""Command-line front end.

Exit codes are a stable contract: 0 success, 1 property/check failure,
2 input error, 3 capacity cap exceeded.  Reports are byte-identical across
runs for fixed inputs; `verify` therefore emits ms=0 timings unless asked
for real ones with --timings.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import correspondence as corr
from .core import (
    CapacityError,
    FiniteMonoid,
    GammaHemiring,
    SettingError,
    StructureError,
    gamma_from_hemiring,
    validate_gamma_hemiring,
)
from .fuzzy import FuzzySubset, unit_rational
from .harness import SUITES, run_suite
from .ideals import (
    FuzzyHIdealFamily,
    _check_grid,
    enumerate_fuzzy_h_ideals,
    enumerate_h_ideals,
    is_fuzzy_h_bi_ideal,
    is_fuzzy_h_ideal,
    is_fuzzy_h_quasi_ideal,
    is_prime_fuzzy_h_ideal,
    is_semiprime_fuzzy_h_ideal,
)
from .operators import formal_sum_label, LEFT, RIGHT

OK, CHECK_FAILED, INPUT_ERROR, CAPACITY = 0, 1, 2, 3

# Decimal text is read exactly, which builds 10**exponent: bound the exponent
# so that no input can stall the run.
MAX_EXPONENT = 1000

# The carriers a fuzzy file may be over.
FUZZY_CARRIERS = ("S", "L", "R", "SxS")


class InputError(ValueError):
    pass


# --- file formats ------------------------------------------------------------


def _exact(text: str) -> Fraction:
    """The exact value of p/q or decimal text: 0.1 is 1/10."""
    _, _, exponent = text.lower().partition("e")
    if exponent and abs(int(exponent)) > MAX_EXPONENT:
        raise ValueError(f"exponent {exponent} out of range")
    return Fraction(text)


def _is_table(rows, n_rows: int, n_cols: int) -> bool:
    """A JSON list of n_rows lists of n_cols entries each."""
    return (
        isinstance(rows, list)
        and len(rows) == n_rows
        and all(isinstance(row, list) and len(row) == n_cols for row in rows)
    )


def _indices(row: list, index: dict, where: str) -> tuple[int, ...]:
    for v in row:
        if not isinstance(v, str) or v not in index:
            raise InputError(f"unknown label {v!r} in {where}")
    return tuple(index[v] for v in row)


def _monoid_from_doc(doc: dict, what: str, name: str) -> FiniteMonoid:
    if not isinstance(doc, dict):
        raise InputError(f"{what}: must be a JSON object")
    try:
        elements = doc["elements"]
        zero_label = doc["zero"]
        add_rows = doc["add"]
    except KeyError as exc:
        raise InputError(f"{what}: missing field {exc}") from exc
    # Labels are strings: fuzzy files address elements by JSON object keys.
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise InputError(f"{what}: elements must be a list of string labels")
    index = {e: i for i, e in enumerate(elements)}
    if len(index) != len(elements):
        raise InputError(f"{what}: duplicate element labels")
    if not isinstance(zero_label, str) or zero_label not in index:
        raise InputError(f"{what}: zero label {zero_label!r} not an element")
    if not _is_table(add_rows, len(elements), len(elements)):
        raise InputError(f"{what}: addition table must be a list of one row per element")
    add = tuple(_indices(row, index, f"{what} addition table") for row in add_rows)
    return FiniteMonoid(tuple(elements), index[zero_label], add, name)


def structure_from_doc(doc: dict) -> GammaHemiring:
    if not isinstance(doc, dict):
        raise InputError("structure file must contain a JSON object")
    name = doc.get("name", "structure")
    if not isinstance(name, str):
        raise InputError(f"structure name must be a string, not {name!r}")
    s = _monoid_from_doc(doc.get("S", {}), "S", f"{name}:S")
    gam = _monoid_from_doc(doc.get("Gamma", {}), "Gamma", f"{name}:Gamma")
    planes = doc.get("action")
    if not isinstance(planes, list) or len(planes) != s.n:
        raise InputError("action table must have one plane per S element")
    sindex = {e: i for i, e in enumerate(s.elements)}
    action = []
    for plane in planes:
        if not _is_table(plane, gam.n, s.n):
            raise InputError("action table must be |S| x |Gamma| x |S|")
        action.append(tuple(_indices(row, sindex, "action table") for row in plane))
    return GammaHemiring(name, s, gam, tuple(action))


def _monoid_to_doc(m: FiniteMonoid) -> dict:
    lab = m.elements
    return {
        "elements": list(lab),
        "zero": lab[m.zero],
        "add": [[lab[v] for v in row] for row in m.add],
    }


def structure_to_doc(g: GammaHemiring) -> dict:
    sl = g.S.elements
    return {
        "name": g.name,
        "S": _monoid_to_doc(g.S),
        "Gamma": _monoid_to_doc(g.Gamma),
        "action": [[[sl[v] for v in row] for row in plane] for plane in g.action],
    }


def _load_json(path: str, **options):
    try:
        with open(path) as fh:
            return json.load(fh, **options)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: malformed JSON: {exc}") from exc


def load_structure(path: str) -> GammaHemiring:
    return structure_from_doc(_load_json(path))


def fuzzy_from_doc(doc: dict, ctx: corr.CorrespondenceContext, structure_name: str) -> tuple[str, FuzzySubset]:
    if not isinstance(doc, dict):
        raise InputError("fuzzy file must contain a JSON object")
    over = doc.get("over", "S")
    if not isinstance(over, str) or over not in FUZZY_CARRIERS:
        raise InputError(f"unknown carrier {over!r} (expected S, L, R or SxS)")
    declared = doc.get("structure")
    if declared is not None and declared != structure_name:
        raise InputError(
            f"fuzzy file is for structure {declared!r}, not {structure_name!r}"
        )
    carrier = ctx.ps(over).carrier
    index = {e: i for i, e in enumerate(carrier.elements)}
    if len(index) != carrier.n:
        # Only SxS can repeat: its "(x,y)" labels collide when S's contain commas.
        raise InputError(f"the labels of {over} repeat, so a fuzzy file over it is ambiguous")
    values = [Fraction(0)] * carrier.n
    raw = doc.get("values", {})
    if not isinstance(raw, dict):
        raise InputError("values must be a mapping from labels to rationals")
    for label, v in raw.items():
        if label not in index:
            raise InputError(f"label {label!r} is not an element of {over}")
        if isinstance(v, bool):
            raise InputError(f"bad membership value for {label!r}: {v!r} is not a rational")
        try:
            values[index[label]] = unit_rational(_exact(v) if isinstance(v, str) else v)
        except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
            raise InputError(f"bad membership value for {label!r}: {exc}") from exc
    return over, FuzzySubset(carrier, tuple(values))


def fuzzy_to_doc(over: str, structure_name: str, mu: FuzzySubset) -> dict:
    return {
        "over": over,
        "structure": structure_name,
        "values": {e: str(v) for e, v in zip(mu.carrier.elements, mu.values)},
    }


def load_fuzzy(path: str, ctx: corr.CorrespondenceContext, structure_name: str):
    return fuzzy_from_doc(_load_json(path, parse_float=_exact), ctx, structure_name)


def _parse_grid(raw: str) -> tuple[Fraction, ...]:
    try:
        return _check_grid([_exact(part.strip()) for part in raw.split(",")])
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad grid {raw!r}: {exc}") from exc


def _validated(path: str) -> GammaHemiring:
    g = load_structure(path)
    rep = validate_gamma_hemiring(g)
    if not rep.valid:
        raise InputError(f"structure does not validate: {rep.violations[0][0]}")
    return g


# --- subcommands ---------------------------------------------------------------


def cmd_validate(args) -> int:
    g = load_structure(args.structure)
    report = validate_gamma_hemiring(g)
    print(report.describe())
    return OK if report.valid else CHECK_FAILED


def _print_side(ctx, g, side: str) -> None:
    op, unity = (ctx.L, ctx.left_unity) if side == LEFT else (ctx.R, ctx.right_unity)
    tag = "L" if side == LEFT else "R"
    print(f"|{tag}|={op.n}")
    if unity is None:
        print(f"no {side} unity")
    elif unity.strong:
        print(f"strong {side} unity {formal_sum_label(g, unity.witness)}")
    else:
        terms = len(unity.witness.terms)
        print(f"{side} unity ({terms} terms), not strong: {formal_sum_label(g, unity.witness)}")
    for k, f in enumerate(op.provenance):
        print(f"op{k} = {formal_sum_label(g, f)}")


def cmd_operators(args) -> int:
    g = _validated(args.structure)
    ctx = corr.build_context(g)
    sides = [LEFT, RIGHT] if args.side == "both" else [args.side]
    if args.dump_tables:
        if len(sides) != 1:
            raise InputError("--dump-tables requires --side left or --side right")
        op = ctx.L if sides[0] == LEFT else ctx.R
        print(json.dumps(structure_to_doc(gamma_from_hemiring(op)), indent=2))
        return OK
    for side in sides:
        _print_side(ctx, ctx.G, side)
    return OK


def _set_label(subset) -> str:
    return "{" + ",".join(subset.labels()) + "}"


def cmd_h_ideals(args) -> int:
    g = _validated(args.structure)
    ctx = corr.build_context(g)
    s_ideals = enumerate_h_ideals(ctx.s_ps)
    l_ideals = enumerate_h_ideals(ctx.l_ps)
    r_ideals = enumerate_h_ideals(ctx.r_ps)
    print(f"h-ideals(S)={len(s_ideals)} h-ideals(L)={len(l_ideals)} h-ideals(R)={len(r_ideals)}")
    ok = len(s_ideals) == len(l_ideals) == len(r_ideals)
    l_seen, r_seen = set(), set()
    for ideal in s_ideals:
        li = corr.crisp_plus_prime(ctx, ideal)
        ri = corr.crisp_star_prime(ctx, ideal)
        l_seen.add(li.mask)
        r_seen.add(ri.mask)
        back_l = corr.crisp_plus(ctx, li)
        back_r = corr.crisp_star(ctx, ri)
        if back_l.mask != ideal.mask or back_r.mask != ideal.mask:
            ok = False
        print(f"{_set_label(ideal)} <-> {_set_label(li)} <-> {_set_label(ri)}")
    if l_seen != {i.mask for i in l_ideals} or r_seen != {i.mask for i in r_ideals}:
        ok = False
    print("bijection: " + ("verified" if ok else "FAILED"))
    return OK if ok else CHECK_FAILED


def cmd_check(args) -> int:
    g = _validated(args.structure)
    grid = _parse_grid(args.grid)
    ctx = corr.build_context(g)
    over, mu = load_fuzzy(args.fuzzy, ctx, g.name)
    ps = ctx.ps(over)
    if args.kind == "h-ideal":
        res = is_fuzzy_h_ideal(ps, mu, args.side)
    elif args.kind == "bi":
        res = is_fuzzy_h_bi_ideal(ps, mu)
    elif args.kind == "quasi":
        res = is_fuzzy_h_quasi_ideal(ps, mu)
    else:
        # A candidate that is no h-ideal with top at zero fails on its own;
        # the empty family lets the check report that failure unchanged.
        if is_fuzzy_h_ideal(ps, mu, args.side, require_top=True).holds:
            family = enumerate_fuzzy_h_ideals(ps, grid, args.side)
        else:
            family = FuzzyHIdealFamily(ps.carrier, args.side, ())
        check = is_prime_fuzzy_h_ideal if args.kind == "prime" else is_semiprime_fuzzy_h_ideal
        res = check(ps, mu, family)
    print(res.describe())
    return OK if res.holds else CHECK_FAILED


def cmd_map(args) -> int:
    g = _validated(args.structure)
    ctx = corr.build_context(g)
    over, mu = load_fuzzy(args.fuzzy, ctx, g.name)
    routes = {
        "plus": ("L", "S", corr.plus),
        "plusprime": ("S", "L", corr.plus_prime),
        "star": ("R", "S", corr.star),
        "starprime": ("S", "R", corr.star_prime),
    }
    src, dst, mapper = routes[args.dir]
    if over != src:
        raise InputError(f"--dir {args.dir} expects a fuzzy subset over {src}, got {over}")
    out = mapper(ctx, mu)
    print(json.dumps(fuzzy_to_doc(dst, g.name, out), indent=2))
    return OK


def cmd_verify(args) -> int:
    g = _validated(args.structure)
    grid = _parse_grid(args.grid)
    ctx = corr.build_context(g)
    report = run_suite(ctx, grid, args.suite)
    print(report.to_json(with_timings=args.timings))
    return OK if report.overall == "pass" else CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammah",
        description="Finite gamma-hemiring workbench: validation, operator "
        "hemirings, h-ideal checks, transfer maps, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the axioms of a structure file")
    p.add_argument("structure")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("operators", help="build the left/right operator hemirings")
    p.add_argument("structure")
    p.add_argument("--side", choices=["left", "right", "both"], default="both")
    p.add_argument("--dump-tables", action="store_true")
    p.set_defaults(fn=cmd_operators)

    p = sub.add_parser("h-ideals", help="list crisp h-ideals and the transfer bijection")
    p.add_argument("structure")
    p.set_defaults(fn=cmd_h_ideals)

    p = sub.add_parser("check", help="check one fuzzy subset against an ideal notion")
    p.add_argument("structure")
    p.add_argument("fuzzy")
    p.add_argument("--kind", choices=["h-ideal", "bi", "quasi", "prime", "semiprime"],
                   default="h-ideal")
    p.add_argument("--side", choices=["two-sided", "left", "right"], default="two-sided")
    p.add_argument("--grid", default="0,1/2,1")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("map", help="apply one of the four transfer maps")
    p.add_argument("structure")
    p.add_argument("fuzzy")
    p.add_argument("--dir", choices=["plus", "plusprime", "star", "starprime"],
                   required=True)
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("verify", help="run the identity catalog and emit a JSON report")
    p.add_argument("structure")
    p.add_argument("--suite", choices=list(SUITES), default="all")
    p.add_argument("--grid", default="0,1/2,1")
    p.add_argument("--timings", action="store_true",
                   help="emit measured ms (reports are no longer byte-stable)")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, StructureError, SettingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return CAPACITY


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
