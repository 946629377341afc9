"""The three benchmark workloads.

Each workload is a closed loop with one caller.  ``setup`` builds the inputs
(the package is already imported); ``prepare`` makes one pass's inputs,
untimed; ``execute`` is the timed pass and returns one record per operation,
``(label, seconds, output)``; ``check`` compares a pass's records with the
references outside the timed region and returns the number that failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
from fractions import Fraction

import refs

STRUCTURES = tuple(sorted(refs.VERIFY_REPORTS))


def _load_corpus(root):
    from gammah import cli, core

    out = {}
    for stem in STRUCTURES:
        g = cli.load_structure(str(root / "structures" / f"{stem}.json"))
        if not core.validate_gamma_hemiring(g).valid:
            raise RuntimeError(f"structures/{stem}.json does not validate")
        out[stem] = g
    return out


class VerifyCorpus:
    """`gammah verify --suite all --grid 0,1/2,1` on the six bundled structures.

    The users' main command on the acceptance corpus; it mixes every layer.
    The seed only permutes the order of the six files.
    """

    name = "verify-corpus"

    def __init__(self, root, seed):
        self.root = root
        self.order = list(STRUCTURES)
        random.Random(seed).shuffle(self.order)

    def setup(self):
        # Loading and building the contexts is what set-up means here; each
        # timed `verify` builds its own again, as the command does.
        from gammah import correspondence

        for g in _load_corpus(self.root).values():
            correspondence.build_context(g)

    def prepare(self, k):
        return self.order

    def execute(self, order, calls, tracer):
        from gammah import cli

        out = []
        for stem in order:
            argv = ["verify", str(self.root / "structures" / f"{stem}.json"),
                    "--suite", "all", "--grid", refs.GRID]
            buf = io.StringIO()
            span = tracer.span("cli.verify", {"structure": stem}) if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            with span, contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            out.append((stem, time.perf_counter() - t0, (rc, buf.getvalue())))
        return out

    def check(self, order, records):
        failed = 0
        for stem, _, (rc, report) in records:
            want_rc, want_digest = refs.VERIFY_REPORTS[stem]
            if rc != want_rc or hashlib.sha256(report.encode()).hexdigest() != want_digest:
                failed += 1
        return failed


class ClosureScale:
    """Axiom validation, operator closures and product carriers past the corpus sizes.

    validate + build_context on Z24 and Mat(Z3,2x1) (|L| = 81), and the left
    closure alone on Mat(Z4,2x1) (|L| = 256): build_context's eager LxL
    carrier there would hold |L|^4 ~ 4.3e9 cells.  The seed permutes the order.
    """

    name = "closure-scale"

    def __init__(self, root, seed):
        self.order = ["Z24", "Mat(Z3,2x1)", "Mat(Z4,2x1)"]
        random.Random(seed).shuffle(self.order)
        self.structures = {}

    def setup(self):
        from gammah import corpus, core

        self.structures = {
            "Z24": corpus.zmod(24),
            "Mat(Z3,2x1)": core.matrix_gamma_hemiring(corpus.zmod_hemiring(3), 2, 1),
            "Mat(Z4,2x1)": core.matrix_gamma_hemiring(corpus.zmod_hemiring(4), 2, 1),
        }

    def prepare(self, k):
        return self.order

    def execute(self, order, calls, tracer):
        clock = time.perf_counter
        out = []
        for name in order:
            g = self.structures[name]
            if name == "Mat(Z4,2x1)":
                t0 = clock()
                op = calls["build_operator"](g, "left")
                out.append((f"{name}:closure", clock() - t0, op.n))
                del op
                continue
            t0 = clock()
            valid = calls["validate_gamma_hemiring"](g).valid
            out.append((f"{name}:validate", clock() - t0, valid))
            t0 = clock()
            ctx = calls["build_context"](g)
            summary = (ctx.L.n, ctx.R.n, refs.unity_summary(ctx.left_unity),
                       refs.unity_summary(ctx.right_unity))
            out.append((f"{name}:context", clock() - t0, summary))
            del ctx  # peak memory is the largest single context, not their sum
        return out

    def check(self, order, records):
        return sum(refs.CLOSURE_FACTS[label] != value for label, _, value in records)


# --- query-mix -------------------------------------------------------------------

VALUES = tuple(Fraction(k, 12) for k in range(13))
SIDES = ("two-sided", "left", "right")
FOUR = ("S", "L", "R", "SxS")

# kind -> carriers it is drawn on.  bi/quasi and cartesian stay off the
# 16-element carriers, where one call costs milliseconds (sandwich scan,
# O(n^4) product carrier) and would swamp the mix.
QUERY_KINDS = {
    "h_ideal": FOUR,
    "bi": ("S", "L", "R"),
    "quasi": ("S", "L", "R"),
    "plus": ("L",),
    "plus_prime": ("S",),
    "star": ("R",),
    "star_prime": ("S",),
    "generalized": FOUR,
    "simple": FOUR,
    "fuzzy_sum": FOUR,
    "cartesian": ("S",),
}


class QueryMix:
    """A seeded stream of single library calls on contexts built once in set-up.

    Cold single calls into fuzzy, ideals and correspondence, with no family
    enumeration and no per-run cache: the opposite of verify-corpus's bulk use.
    Inputs are random subsets, or (half the time) h-ideal-shaped chains of
    h-closures, with values k/12.
    """

    name = "query-mix"
    CALLS_PER_COMBINATION = 64  # 162 combinations: 10368 calls a pass
    CHECKS_PER_PASS = 16

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed
        self.contexts = {}
        self.oracles = refs.load_oracles(root)

    def setup(self):
        from gammah import correspondence, fuzzy

        contexts = {}
        for stem, g in _load_corpus(self.root).items():
            ctx = correspondence.build_context(g)
            carriers = {"S": ctx.s_ps, "L": ctx.l_ps, "R": ctx.r_ps, "SxS": ctx.sxs_ps}
            for ps in carriers.values():  # fill the per-carrier lookup tables
                one = fuzzy.constant(ps.carrier, 1)
                fuzzy.generalized_h_product(ps, one, one)
            contexts[stem] = (ctx, carriers)
        self.contexts = contexts

    # inputs

    def _subset(self, rng, mon):
        from gammah.fuzzy import FuzzySubset

        return FuzzySubset(mon, tuple(
            VALUES[rng.randint(1, 12)] if rng.random() < 0.5 else VALUES[0] for _ in range(mon.n)
        ))

    def _ideal_like(self, rng, ps, mon):
        """Nested h-closures with descending values: every level set is an h-ideal."""
        from gammah.fuzzy import FuzzySubset
        from gammah.ideals import h_closure

        vals = [VALUES[0]] * mon.n
        members: set[int] = set()
        for k in sorted(rng.sample(range(1, 13), rng.randint(1, 3)), reverse=True):
            members |= {rng.randrange(mon.n)}
            members = set(h_closure(ps, members).indices())
            for x in members:
                if vals[x] == 0:
                    vals[x] = VALUES[k]
        return FuzzySubset(mon, tuple(vals))

    def _fuzzy(self, rng, ps, mon=None):
        mon = ps.carrier if mon is None else mon
        return self._ideal_like(rng, ps, mon) if rng.random() < 0.5 else self._subset(rng, mon)

    def prepare(self, k):
        # Every pass makes the same number of calls on each (structure, kind,
        # carrier) combination, in a seeded order with seeded inputs, so the
        # passes differ in their values, not in their mix.
        rng = random.Random(f"{self.seed}:{k}")
        schedule = [(stem, kind, where) for stem in sorted(self.contexts)
                    for kind in sorted(QUERY_KINDS) for where in QUERY_KINDS[kind]]
        schedule *= self.CALLS_PER_COMBINATION
        rng.shuffle(schedule)
        items = []
        for stem, kind, where in schedule:
            ctx, carriers = self.contexts[stem]
            ps = carriers[where]
            if kind == "h_ideal":
                args = (ps, self._fuzzy(rng, ps), rng.choice(SIDES))
                fn = "is_fuzzy_h_ideal"
            elif kind in ("bi", "quasi"):
                args = (ps, self._fuzzy(rng, ps))
                fn = f"is_fuzzy_h_{kind}_ideal"
            elif kind in ("plus", "star"):
                mon = ctx.l_monoid if kind == "plus" else ctx.r_monoid
                args = (ctx, self._fuzzy(rng, ps, mon))
                fn = kind
            elif kind in ("plus_prime", "star_prime"):
                args = (ctx, self._fuzzy(rng, ps, ctx.s_monoid))
                fn = kind
            elif kind in ("generalized", "simple"):
                args = (ps, self._fuzzy(rng, ps), self._fuzzy(rng, ps))
                fn = f"{kind}_h_product"
            else:
                args = (self._fuzzy(rng, ps), self._fuzzy(rng, ps))
                fn = kind
            items.append((kind, fn, stem, args))
        sample = rng.sample(range(len(items)), self.CHECKS_PER_PASS)
        return items, sample

    def execute(self, work, calls, tracer):
        items, _ = work
        clock = time.perf_counter
        out = []
        for kind, fn, _, args in items:
            f = calls[fn]
            t0 = clock()
            try:
                result = f(*args)
            except Exception as exc:  # counted as a failed operation
                result = exc
            out.append((kind, clock() - t0, result))
        return out

    def check(self, work, records):
        items, sample = work
        failed = sum(isinstance(r, Exception) for _, _, r in records)
        for i in sample:
            kind, _, stem, args = items[i]
            result = records[i][2]
            if isinstance(result, Exception):
                continue
            want = self._reference(kind, stem, args)
            if want is not None and want != self._observed(kind, result):
                failed += 1
        return failed

    def _observed(self, kind, result):
        if kind in ("h_ideal", "bi", "quasi"):
            return result.holds
        if kind == "cartesian":
            return result.carrier.n, result.values
        return result.values

    def _reference(self, kind, stem, args):
        """The definitional result, or None when the oracle would take too long."""
        o = self.oracles
        ctx, _ = self.contexts[stem]
        if kind == "h_ideal":
            ps, mu, side = args
            return o.naive_is_fuzzy_h_ideal(ps, mu.values, side, require_top=False)
        if kind == "bi":
            return refs.naive_is_bi(args[0], args[1].values)
        if kind == "quasi":
            if refs.generalized_oracle_cost(args[0]) > refs.ORACLE_BUDGET:
                return None
            return refs.naive_is_quasi(o, *args)
        if kind in ("plus", "star", "plus_prime", "star_prime"):
            return refs.naive_transfer(ctx, kind, args[1])
        if kind == "generalized":
            if refs.generalized_oracle_cost(args[0]) > refs.ORACLE_BUDGET:
                return None
            return o.naive_generalized_h_product(*args).values
        if kind == "simple":
            if refs.simple_oracle_cost(args[0]) > refs.ORACLE_BUDGET:
                return None
            return o.naive_simple_h_product(*args).values
        if kind == "fuzzy_sum":
            return refs.naive_fuzzy_sum(*args)
        return refs.naive_cartesian(*args)


WORKLOADS = {w.name: w for w in (VerifyCorpus, ClosureScale, QueryMix)}
