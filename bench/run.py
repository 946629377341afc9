"""Benchmark for the gammah workbench: end-to-end metrics and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload verify-corpus --seed 1 --seconds 36 --trace 0
    python3 bench/run.py                  # every workload, untraced then traced

One run sets up its workload several times (import, inputs, contexts) and
reports the median as ``setup_s``, then runs timed passes, at least two,
until the next pass would overrun ``--seconds``.  Every pass's outputs are
checked against the references in ``refs.py`` outside the timed region.
With ``--trace 1`` the passes alternate untraced and traced; the traced ones
record spans around the layer entry points (``tracing.py``), which are
written to ``.bench_out/`` and reduced to the per-layer metrics.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics named in
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1).  The exit
code is 1 when any output disagreed with its reference and 2 when the
program or its inputs cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPANS_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
# A median needs more than one pass; a traced run needs an untraced and a
# traced one.  A workload whose pass exceeds half the window overruns it.
MIN_PASSES = 2
SPEC = ROOT / "BENCHMARK.json"


def _missing_inputs() -> list[str]:
    needed = [ROOT / "src" / "gammah" / "__init__.py", ROOT / "tests" / "oracles.py", SPEC]
    needed += [ROOT / "structures" / f"{stem}.json"
               for stem in ("b", "mat_b_2x1", "z2", "z2xz2", "z3", "z4")]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them; a single value repeats."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """One run: set-up, timed passes, checks.  Returns (result object, report lines)."""
    lines: list[str] = []
    wl = WORKLOADS[workload_name](ROOT, seed)
    clock = time.perf_counter

    # Set-up is measured SETUP_REPEATS times: the package import in fresh
    # interpreters (each reports its own import time, not its start-up), then
    # the workload's inputs and contexts in this process.
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
             "import gammah.cli; print(time.perf_counter() - t)")
    imports = [float(subprocess.run([sys.executable, "-c", probe, str(ROOT / "src")],
                                    capture_output=True, text=True, check=True).stdout)
               for _ in range(SETUP_REPEATS)]
    import gammah.cli  # noqa: F401
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        wl.setup()
        setups.append(clock() - t0)
    import_s = statistics.median(imports)
    setup_s = import_s + statistics.median(setups)

    tracer = tracing.Tracer() if trace else None
    plain_calls = tracing.library_calls(None)
    traced_calls = tracing.library_calls(tracer) if trace else None
    passes = []  # (traced, wall, ops)
    per_kind: dict[str, list[float]] = {}
    attempted = failed = 0
    window = clock()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        if not traced:  # a traced pass replays the untraced pass before it
            work = wl.prepare(k)
        gc.collect()  # no pass pays for the garbage of the one before
        if traced:
            with tracer.installed(k), tracer.span("bench.pass", {"workload": workload_name}):
                t0 = clock()
                records = wl.execute(work, traced_calls, tracer)
                wall = clock() - t0
        else:
            t0 = clock()
            records = wl.execute(work, plain_calls, None)
            wall = clock() - t0
            for rec in records:
                per_kind.setdefault(rec[0], []).append(rec[1])
        failed += wl.check(work, records)
        attempted += len(records)
        passes.append((traced, wall, len(records)))
        del records
        k += 1
        enough = k >= MIN_PASSES
        next_pass = max(w for _, w, _ in passes[-2:])
        if enough and clock() - window + next_pass > seconds:
            break

    plain = [w for t, w, _ in passes if not t]
    ops = [n / w for t, w, n in passes if not t]
    q1, wall_med, q3 = quartiles(plain)
    lines.append(f"{workload_name}: seed {seed}, {len(passes)} passes "
                 f"({len(plain)} untraced), {attempted} operations, {failed} failed")
    lines.append(f"  wall_s       median {wall_med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(plain)}  s")
    lines.append("  pass walls   " + " ".join(f"{w:.3f}{'t' if t else ''}" for t, w, _ in passes))
    o1, ops_med, o3 = quartiles(ops)
    lines.append(f"  ops_per_s    median {ops_med:.2f}  q1 {o1:.2f}  q3 {o3:.2f}  n={len(ops)}  1/s")
    s1, s_med, s3 = quartiles(setups)
    lines.append(f"  setup_s      {setup_s:.4f} = median import {import_s:.4f} + median set-up "
                 f"{s_med:.4f} (q1 {s1:.4f} q3 {s3:.4f} n={len(setups)})  s")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines.append(f"  peak_rss_mb  {peak_mb:.1f}  MB")
    lines.append(f"  failed_ratio {failed / attempted:.6f}  ({failed}/{attempted})")

    spec = json.loads(SPEC.read_text())
    if not trace:
        values = {"wall_s": wall_med, "setup_s": setup_s, "peak_rss_mb": peak_mb,
                  "ops_per_s": ops_med}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    else:
        traced_walls = [w for t, w, _ in passes if t]
        layer = tracing.layer_metrics(tracer.spans, len(traced_walls))
        layer["trace.overhead_s"] = statistics.median(traced_walls) - wall_med
        for kind, lat in per_kind.items():
            if workload_name == "verify-corpus":
                layer[f"cli.verify_s.{kind}"] = statistics.median(lat)
            elif workload_name == "query-mix":
                layer[f"query.{kind}.p50_us"] = statistics.median(lat) * 1e6
                layer[f"query.{kind}.p99_us"] = _percentile(lat, 0.99) * 1e6
                layer[f"query.{kind}.samples"] = len(lat)
        metrics = {m["name"]: {"value": layer.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        lines += _layer_report(workload_name, metrics, tracer.spans, traced_walls, wall_med)
        path = SPANS_DIR / f"spans-{workload_name}-seed{seed}.jsonl"
        tracer.write_spans(path)
        lines.append(f"  spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        if tracer.missing:
            lines.append(f"  entry points not found: {', '.join(sorted(tracer.missing))}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def _layer_report(workload_name, metrics, spans, traced_walls, plain_wall) -> list[str]:
    """Human-readable per-layer lines plus the baseline summary for this workload."""
    lines = [f"  traced passes: {len(traced_walls)}, median {statistics.median(traced_walls):.4f} s"
             f" vs untraced {plain_wall:.4f} s"]
    per_pass = statistics.mean(traced_walls)
    for name, m in metrics.items():
        if m["value"]:
            lines.append(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    if workload_name == "verify-corpus":
        for check in ("S2-mul-law", "S4-coprod"):
            share = metrics[f"harness.check_s.{check}"]["value"] / per_pass
            lines.append(f"  baseline: {check} share of a traced verify-corpus pass {share:.1%}")
    if workload_name == "closure-scale":
        build = post = 0.0
        for name, start, end, parent, _, attrs in spans:
            if name == "operators.build" and (attrs or {}).get("structure") == "Mat(Z4,2x1)":
                build += end - start
            if name == "operators.post_check" and parent >= 0:
                if (spans[parent][tracing.ATTRS] or {}).get("structure") == "Mat(Z4,2x1)":
                    post += end - start
        if build:
            lines.append(f"  baseline: post-check share of the Mat(Z4,2x1) left closure {post / build:.1%}")
    return lines


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, untraced then traced, with a summary."""
    spec = json.loads(SPEC.read_text())
    status = 0
    summary = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", w["name"],
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            out = proc.stdout.strip().splitlines()
            print("\n".join(out[:-1]))
            if proc.returncode != 0 or not out:
                sys.stderr.write(proc.stderr)
                status = 1
                continue
            res = json.loads(out[-1])
            if not trace:
                summary.append((w["name"], res))
    print("\nsummary (medians over each run's passes)")
    for name, res in summary:
        cells = "  ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items())
        ratio = res["failed"] / res["attempted"]
        print(f"  {name:14s} {cells}  failed_ratio {ratio:.6f}")
    ok = status == 0 and all(r["correct"] for _, r in summary)
    print(json.dumps({"correct": ok, "workloads": dict(summary)}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = _missing_inputs()
    if missing:
        print(f"bench: run from a gammah checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
