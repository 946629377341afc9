"""Self-test for the benchmark.  Run from the repository root:

    python3 bench/selftest.py

1. A short run of every workload, untraced and traced, emits exactly the
   metrics BENCHMARK.json names, each with its unit, and passes its gate.
2. A deliberately altered reference digest makes the verify-corpus gate fail
   and the command exit non-zero.
3. In a directory holding only BENCHMARK.json and bench/, the command exits
   non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_out" / "selftest"


def _run(args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def smoke(spec) -> list[str]:
    problems = []
    for w in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(["--workload", w["name"], "--seed", "0", "--seconds", "1",
                         "--trace", str(trace)])
            where = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{where}: gate did not pass: {res['attempted']} attempted, "
                                f"{res['failed']} failed")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json "
                                f"(missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))})")
            if trace == 0 and not all(v["value"] > 0 for v in res["metrics"].values()):
                problems.append(f"{where}: an end-to-end metric is not positive")
            print(f"  smoke {where}: {len(got)} metrics, {res['attempted']} operations")
    return problems


def tampered_digest() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import refs
    import run

    rc, digest = refs.VERIFY_REPORTS["z2"]
    refs.VERIFY_REPORTS["z2"] = (rc, "0" * 64)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "verify-corpus", "--seconds", "1"])
    finally:
        refs.VERIFY_REPORTS["z2"] = (rc, digest)
    res = json.loads(out.getvalue().strip().splitlines()[-1])
    print(f"  tampered digest: exit {code}, {res['failed']} of {res['attempted']} failed")
    if code == 0 or res["correct"] or res["failed"] < 1:
        return ["an altered verify digest did not fail the gate"]
    return []


def bare_directory() -> list[str]:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _run(["--workload", "verify-corpus", "--seed", "0", "--seconds", "1"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    print(f"  bare directory: exit {proc.returncode}, {len(proc.stdout)} bytes on stdout")
    if proc.returncode == 0 or proc.stdout.strip():
        return ["the benchmark ran without the program beside it"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = smoke(spec) + tampered_digest() + bare_directory()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
