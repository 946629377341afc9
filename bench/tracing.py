"""Spans around the gammah layer entry points, recorded from outside the package.

A traced pass swaps selected module attributes for wrappers that record one
span per call: name, start, end, parent span, run id (the pass number) and a
few attributes read from the arguments or the result.  Only calls that cross
a module boundary are wrapped, i.e. the name as bound in the *caller's*
module (``gammah.harness.is_fuzzy_h_ideal``, not ``gammah.ideals``'s own
binding), so the tight loops inside one module stay untouched and the span
count stays in the tens of thousands per pass.

Spans stay in memory and are written out once, by ``write_spans``.  Self
time is a span's duration minus the durations of its child spans; the
per-layer metrics in ``layer_metrics`` are sums of self times, except where
the docstring says otherwise.
"""

from __future__ import annotations

import contextlib
import json
import time
import weakref
from collections import defaultdict

# Span record fields: [name, start, end, parent index, run id, attrs].
NAME, START, END, PARENT, RUN, ATTRS = range(6)

FAMILY_METHODS = ("fuzzy", "crisp", "bi", "quasi", "primes")
TRANSFER_MAPS = (
    "plus", "plus_prime", "star", "star_prime",
    "crisp_plus", "crisp_plus_prime", "crisp_star", "crisp_star_prime",
    "product_plus", "product_plus_prime", "product_star", "product_star_prime",
)
IDEAL_CHECKS = (
    "is_fuzzy_h_ideal", "is_fuzzy_h_bi_ideal", "is_fuzzy_h_quasi_ideal",
    "is_prime_fuzzy_h_ideal", "is_semiprime_fuzzy_h_ideal",
)
LATTICE_OPS = ("fuzzy_sum", "intersect", "is_subset", "equals")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self.missing: set[str] = set()
        self._stack: list[int] = []
        # id(carrier monoid) -> (label, weak reference to the monoid).  Weak,
        # so a traced pass holds no context alive longer than the program does.
        self._carriers: dict[int, tuple[str, weakref.ref]] = {}

    # --- recording -----------------------------------------------------------

    def wrap(self, name, fn, describe=None):
        """Return fn wrapped to record a span; describe(args, kwargs, result) -> attrs."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if describe is not None:
                try:
                    rec[ATTRS] = describe(args, kwargs, out)
                except Exception as exc:  # a renamed field must not stop the run
                    rec[ATTRS] = {"describe_error": repr(exc)}
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name, attrs=None):
        """A span around a block of the benchmark's own code."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self, run_id):
        """Patch the program's layer entry points for the duration of one pass."""
        self.run_id = run_id
        patches = _program_patches(self)
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, fn in patches:
                setattr(obj, attr, fn)
            yield
        finally:
            for obj, attr, fn in saved:
                setattr(obj, attr, fn)
            self._carriers.clear()

    # --- carrier labels ------------------------------------------------------

    def register_context(self, ctx):
        pairs = (
            ("S", ctx.s_ps.carrier), ("L", ctx.l_ps.carrier), ("L", ctx.l_monoid),
            ("R", ctx.r_ps.carrier), ("R", ctx.r_monoid), ("SxS", ctx.sxs_ps.carrier),
            ("LxL", ctx.lxl_monoid), ("RxR", ctx.rxr_monoid),
        )
        for label, mon in pairs:
            self._carriers[id(mon)] = (label, weakref.ref(mon))

    def carrier_label(self, mon) -> str:
        entry = self._carriers.get(id(mon))
        return entry[0] if entry and entry[1]() is mon else "other"

    # --- output --------------------------------------------------------------

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "run": run, "attrs": attrs,
                }) + "\n")


def _program_patches(tr: Tracer):
    """(object, attribute, wrapper) for every layer entry point the program crosses."""
    from gammah import cli, core, correspondence, fuzzy, harness, ideals, operators

    out = []

    def patch(obj, attr, name, describe=None):
        # An entry point the program no longer has reads as zero, and is listed.
        if hasattr(obj, attr):
            out.append((obj, attr, tr.wrap(name, getattr(obj, attr), describe)))
        else:
            tr.missing.add(f"{getattr(obj, '__name__', obj)}.{attr}")

    def fn_attr(fn_name):
        return lambda a, k, r: {"fn": fn_name}

    # core: axiom validation and product carriers.
    for mod in (cli, harness):
        patch(mod, "validate_gamma_hemiring", "core.validate", fn_attr("validate_gamma_hemiring"))
    patch(harness, "validate_hemiring", "core.validate", fn_attr("validate_hemiring"))
    patch(correspondence, "product", "core.product_carrier",
          lambda a, k, r: {"fn": "product", "cells": _product_cells(r)})
    patch(correspondence, "as_product_structure", "core.product_carrier",
          lambda a, k, r: {"fn": "as_product_structure", "cells": _pp_cells(r)})
    for mod in (correspondence, fuzzy):
        patch(mod, "product_monoid", "core.product_carrier",
              lambda a, k, r: {"fn": "product_monoid", "cells": r.n * r.n})

    # operators: the closures and their post-check.
    patch(correspondence, "build_operator", "operators.build", _describe_build)
    patch(operators, "validate_hemiring", "operators.post_check")

    # correspondence: contexts and transfer maps.
    def describe_context(a, k, ctx):
        tr.register_context(ctx)
        return {"structure": ctx.G.name}

    patch(correspondence, "build_context", "correspondence.context", describe_context)
    for name in TRANSFER_MAPS:
        patch(correspondence, name, "correspondence.transfer", fn_attr(name))

    # ideals: family enumeration (with route counts) and membership checks.
    def describe_enum(kind):
        def describe(a, k, r):
            ps = a[0]
            n = ps.carrier.n
            attrs = {"fn": kind, "carrier": tr.carrier_label(ps.carrier)}
            if kind == "fuzzy":
                # The route rule of enumerate_fuzzy_h_ideals: direct filtering
                # while |grid|^n is within the candidate cap.
                grid = a[1] if len(a) > 1 else k["grid"]
                cap = a[3] if len(a) > 3 else k.get("cap")
                limit = core._cap(ideals.CANDIDATE_CAP_ENV, ideals.DEFAULT_CANDIDATE_CAP, cap)
                direct = len(grid) ** n <= limit
                attrs.update(size=len(r.members), route="direct" if direct else "chain",
                             candidates=len(grid) ** (n - 1) if direct else 0)
            elif kind == "crisp":
                attrs.update(size=len(r), route="closure", candidates=0)
            else:
                grid = a[1] if len(a) > 1 else k["grid"]
                attrs.update(size=len(r), route="direct", candidates=len(grid) ** n)
            return attrs
        return describe

    patch(harness, "enumerate_fuzzy_h_ideals", "ideals.enumerate", describe_enum("fuzzy"))
    patch(harness, "enumerate_h_ideals", "ideals.enumerate", describe_enum("crisp"))
    patch(harness, "enumerate_fuzzy_h_bi_ideals", "ideals.enumerate", describe_enum("bi"))
    patch(harness, "enumerate_fuzzy_h_quasi_ideals", "ideals.enumerate", describe_enum("quasi"))
    # The chain route's crisp lattice, as called inside gammah.ideals.
    patch(ideals, "enumerate_h_ideals", "ideals.chain_lattice",
          lambda a, k, r: {"size": len(r)})
    for name in IDEAL_CHECKS:
        patch(harness, name, "ideals.check", _describe_check(name))

    # fuzzy: h-products (a cache miss shows as a child of the cached call),
    # cartesian products and lattice operations.
    patch(harness, "simple_h_product_cached", "ideals.simple_h_product_cached")
    patch(harness, "generalized_h_product", "fuzzy.h_product", fn_attr("generalized_h_product"))
    patch(ideals, "simple_h_product", "fuzzy.h_product", fn_attr("simple_h_product"))
    patch(harness, "cartesian", "fuzzy.cartesian")
    for name in LATTICE_OPS:
        patch(harness, name, "fuzzy.lattice", fn_attr(name))

    # harness: each catalog check, and each family as its own span.
    patch(harness, "run_check", "harness.check", lambda a, k, r: {"check": r.check_id})
    families = getattr(harness, "_Families", None)
    for method in FAMILY_METHODS if families else ():
        patch(families, method, "harness.family",
              lambda a, k, r, m=method: {"family": m, "which": a[1] if len(a) > 1 else "S"})
    if families is None:
        tr.missing.add("gammah.harness._Families")
    return out


def library_calls(tr: Tracer | None):
    """The library functions the benchmark calls itself, wrapped when tracing."""
    from gammah import correspondence, core, fuzzy, ideals, operators

    raw = {
        "validate_gamma_hemiring": (core.validate_gamma_hemiring, "core.validate", None),
        "build_operator": (operators.build_operator, "operators.build", _describe_build),
        "is_fuzzy_h_ideal": (ideals.is_fuzzy_h_ideal, "ideals.check",
                             _describe_check("is_fuzzy_h_ideal")),
        "is_fuzzy_h_bi_ideal": (ideals.is_fuzzy_h_bi_ideal, "ideals.check",
                                _describe_check("is_fuzzy_h_bi_ideal")),
        "is_fuzzy_h_quasi_ideal": (ideals.is_fuzzy_h_quasi_ideal, "ideals.check",
                                   _describe_check("is_fuzzy_h_quasi_ideal")),
        "generalized_h_product": (fuzzy.generalized_h_product, "fuzzy.h_product", None),
        "simple_h_product": (fuzzy.simple_h_product, "fuzzy.h_product", None),
        "fuzzy_sum": (fuzzy.fuzzy_sum, "fuzzy.lattice", None),
        "cartesian": (fuzzy.cartesian, "fuzzy.cartesian", None),
    }
    calls = {name: fn if tr is None else tr.wrap(span, fn, describe)
             for name, (fn, span, describe) in raw.items()}
    # build_context and the transfer maps are module attributes the tracer
    # patches anyway; look them up at call time.
    calls["build_context"] = lambda *a, **k: correspondence.build_context(*a, **k)
    for name in ("plus", "plus_prime", "star", "star_prime"):
        calls[name] = (lambda n: lambda *a: getattr(correspondence, n)(*a))(name)
    return calls


def _describe_build(a, k, op):
    return {"side": op.side, "structure": op.structure, "size": op.n}


def _describe_check(name):
    return lambda a, k, r: {"fn": name, "holds": r.holds}


def _product_cells(g) -> int:
    return len(g.action) * len(g.action[0]) * len(g.action[0][0]) + g.S.n * g.S.n


def _pp_cells(ps) -> int:
    return sum(len(t) for row in ps.pair_products for t in row)


# --- per-layer metrics ---------------------------------------------------------


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-pass means of the per-layer metrics, computed from the spans.

    `_s` metrics are self times (duration minus child spans), with two
    exceptions: `harness.check_s.<id>` subtracts only the family spans the
    check triggered, so it keeps the lower-layer calls the check makes itself,
    and `harness.families_s` and `ideals.enumerate_s.<carrier>` are inclusive.
    """
    n = len(spans)
    child = [0.0] * n
    family_child = [0.0] * n
    has_miss = [False] * n
    for rec in spans:
        p = rec[PARENT]
        if p < 0:
            continue
        d = rec[END] - rec[START]
        child[p] += d
        if rec[NAME] == "harness.family":
            family_child[p] += d
        if rec[NAME] == "fuzzy.h_product":
            has_miss[p] = True

    m: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for i, rec in enumerate(spans):
        name, attrs = rec[NAME], rec[ATTRS] or {}
        dur = rec[END] - rec[START]
        self_s = dur - child[i]
        parent = spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else None
        if name == "core.validate":
            m["core.validate_s"] += self_s
        elif name == "core.product_carrier":
            m["core.product_carrier_s"] += self_s
            m["core.product_carrier_cells"] += attrs.get("cells", 0)
        elif name == "operators.build":
            side = attrs.get("side", "left")
            m[f"operators.build_s.{side}"] += self_s
            m[f"operators.closure_size.{side}"] += attrs.get("size", 0)
        elif name == "operators.post_check":
            m["operators.post_check_s"] += self_s
        elif name == "correspondence.context":
            m["correspondence.context_s"] += self_s
        elif name == "correspondence.transfer":
            m["correspondence.transfer_s"] += self_s
            m["correspondence.transfer_calls"] += 1
        elif name == "ideals.enumerate":
            # A direct route over its cap raises before describing itself; the
            # family span that asked for it names the carrier.
            asker = (spans[rec[PARENT]][ATTRS] if rec[PARENT] >= 0 else None) or {}
            carrier = attrs.get("carrier") or asker.get("which", "other")
            m[f"ideals.enumerate_s.{carrier}"] += dur
            m[f"ideals.family_size.{carrier}"] += attrs.get("size", 0)
            m["ideals.direct_candidates"] += attrs.get("candidates", 0)
        elif name == "ideals.chain_lattice":
            m["ideals.chain_lattice_size"] += attrs.get("size", 0)
        elif name == "ideals.check":
            m["ideals.check_s"] += self_s
            m["ideals.check_calls"] += 1
            counts["holds"] += bool(attrs.get("holds"))
        elif name == "ideals.simple_h_product_cached":
            m["fuzzy.h_product_s"] += self_s
            m["fuzzy.h_product_calls"] += 1
            counts["cached"] += 1
            counts["cache_hits"] += not has_miss[i]
        elif name == "fuzzy.h_product":
            m["fuzzy.h_product_s"] += self_s
            if parent != "ideals.simple_h_product_cached":
                m["fuzzy.h_product_calls"] += 1
        elif name == "fuzzy.cartesian":
            m["fuzzy.cartesian_s"] += self_s
            m["fuzzy.cartesian_calls"] += 1
        elif name == "fuzzy.lattice":
            m["fuzzy.lattice_ops_s"] += self_s
        elif name == "harness.check":
            m[f"harness.check_s.{attrs.get('check')}"] += dur - family_child[i]
        elif name == "harness.family":
            if parent != "harness.family":
                m["harness.families_s"] += dur

    out = {k: v / passes for k, v in m.items()}
    out["ideals.holds_ratio"] = counts["holds"] / m["ideals.check_calls"] if m["ideals.check_calls"] else 0.0
    out["fuzzy.simple_h_cache_hit_ratio"] = (
        counts["cache_hits"] / counts["cached"] if counts["cached"] else 0.0
    )
    return out
