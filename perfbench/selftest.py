#!/usr/bin/env python3
"""Quick self-test of the benchmark harness at a tiny size (about a minute).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs ``run.py --tiny`` untraced and
traced and checks that the last line is the result object, that every
metric BENCHMARK.json names is printed with its unit, and that no operation
failed.  It also checks that the per-layer call counts repeat exactly for
one seed, and that the runner refuses to run without the gielab sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(proc, expected: dict[str, str]) -> tuple[list[str], dict]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"], {}
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result.get("correct") is True and result.get("failed") == 0 and result.get("attempted", 0) >= 1):
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if len(line.split()) == 3}
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None or got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {name}: {got}, want unit {unit!r}")
        if printed.get(name) != unit:
            problems.append(f"metric {name} not printed with unit {unit!r}")
    extra = sorted(set(metrics) - set(expected))
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {extra}")
    return problems, metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found, metrics = check_result(run(ROOT, workload, trace), expected[trace])
            problems += [f"{workload} trace={trace}: {p}" for p in found]
            if trace and not found:
                _, again = check_result(run(ROOT, workload, trace), expected[trace])
                for name in (n for n in metrics if n.endswith(".calls")):
                    if again.get(name, {}).get("value") != metrics[name]["value"]:
                        problems.append(f"{workload}: {name} differs between runs with one seed")

    bare = HERE / "out" / "bare"  # only BENCHMARK.json and the benchmark's own files
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout:
        problems.append(f"runner without gielab sources: exit {proc.returncode}, stdout {proc.stdout!r}")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
