"""Self-test of the benchmark at tiny horizons (about half a minute).

From the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload untraced and traced in this process and asserts that
the result line has the contract's keys, that every metric BENCHMARK.json
declares is reported with its declared unit (and printed with it), that a
wrapped name missing from the package is reported as absent without
failing the run, and that the command fails without printing a result in
a directory that holds only the benchmark's own files.
"""
import contextlib
import dataclasses
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, import_checkout_package

TINY_HORIZONS = {"learn_pds": 40, "learn_q": 200, "replan": 150, "plan": 0}


def run_bench(bench, workloads, tracer_factory, workload: str, trace: int):
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        rc = bench.main(argv, ROOT, workloads, tracer_factory)
    assert rc == 0, f"{workload}: exit code {rc}"
    return out.getvalue().splitlines()


def check_output(lines, declared, workload: str, trace: int) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    metrics = result["metrics"]
    assert set(metrics) == set(declared), (workload, trace, set(metrics) ^ set(declared))
    for name, unit in declared.items():
        entry = metrics[name]
        assert entry["unit"] == unit, (name, entry)
        assert isinstance(entry["value"], (int, float)), (name, entry)
        printed = re.compile(rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}$")
        assert any(printed.match(ln) for ln in lines), f"{workload}: {name} not printed with {unit}"
    return json.loads(next(ln for ln in lines if ln.startswith("info "))[5:])


def check_empty_checkout() -> None:
    """Without the package sources the command must fail and print no result."""
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
        proc = subprocess.run(
            [sys.executable, *cmd[1:], "--workload", "plan", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0, proc
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()


def main() -> None:
    import_checkout_package()
    import bench
    import tracer

    bench.MIN_REPS = 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = {
        name: dataclasses.replace(w, horizon=TINY_HORIZONS[name])
        for name, w in bench.WORKLOADS.items()
    }
    assert {w["name"] for w in spec["workloads"]} == set(workloads)

    missing = (
        tracer.Target("selftest.missing", "greentx.pds", "no_such_function"),
        tracer.Target("selftest.missing", "greentx.no_such_module", "f"),
    )

    def factory():
        return tracer.Tracer(tracer.TARGETS + missing)

    for name in workloads:
        check_output(run_bench(bench, workloads, factory, name, 0), end_to_end, name, 0)
        info = check_output(run_bench(bench, workloads, factory, name, 1), per_layer, name, 1)
        absent = {"greentx.pds:no_such_function", "greentx.no_such_module:f"}
        assert set(info["absent"]) == absent, info["absent"]
        print(f"ok {name}")
    check_empty_checkout()
    print("ok bare checkout fails without a result")


if __name__ == "__main__":
    main()
