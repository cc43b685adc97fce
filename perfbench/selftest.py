"""Self-test of the benchmark at tiny sizes (about a minute on two cores).

    python3 perfbench/selftest.py

Checks that every workload runs and passes its output checks, that each run
prints every metric BENCHMARK.json names (with its unit) plus the nine
workload metrics of the printed summary, that a deliberately wrong reference
value is reported as a failed iteration, and that the benchmark refuses to
run without the relmp sources. Exits 1 on the first problem.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = BENCH_DIR / "out" / "selftest"
NAMED = ("setup_s", "peak_rss_mb", "failed_ratio", "epoch_s", "queries_per_s",
         "fwd_s", "bwd_s", "residues_per_s")
WRONG = {  # workload -> (reference key path, wrong value)
    "kg_train": (("history", 0, 3), 0.9),
    "kg_eval": (("metrics", "mrr"), 0.5),
    "image_step": (("forward_flops",), 784385),
}


def run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(lines):
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def expect_metrics(result, specs, what):
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in specs}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise AssertionError(f"{what}: metrics differ from BENCHMARK.json "
                             f"(missing {missing}, extra {extra}, or units)")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    SCRATCH.mkdir(parents=True, exist_ok=True)

    proc, lines = run("--workload", "all", "--smoke", "--seconds", "0.5")
    assert proc.returncode == 0, proc.stderr
    summary = lines[lines.index("summary:") + 1:-1]
    for name in NAMED:
        assert any(row.split()[1] == name for row in summary), \
            f"summary lacks {name}"
    assert result_of(lines)["failed"] == 0, "smoke runs failed their checks"
    for w in bench["workloads"]:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc, lines = run("--workload", w["name"], "--smoke", "--seconds",
                              "0.5", "--trace", str(trace), "--seed", "3")
            assert proc.returncode == 0, proc.stderr
            result = result_of(lines)
            assert result["correct"] and result["failed"] == 0, lines[-1]
            assert result["attempted"] >= 1 + trace
            expect_metrics(result, specs, f"{w['name']} trace {trace}")
        print(f"ok   {w['name']}: metrics and checks, traced and untraced")

    reference = json.loads((BENCH_DIR / "reference.json").read_text(
        encoding="utf-8"))
    for name, (path, value) in WRONG.items():
        wrong = json.loads(json.dumps(reference))
        node = wrong["smoke"][name]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        ref_file = SCRATCH / f"wrong-{name}.json"
        ref_file.write_text(json.dumps(wrong), encoding="utf-8")
        proc, lines = run("--workload", name, "--smoke", "--seconds", "0.5",
                          "--reference", str(ref_file))
        assert proc.returncode == 0, proc.stderr
        result = result_of(lines)
        assert not result["correct"], f"{name}: wrong reference passed"
        assert result["failed"] == result["attempted"] >= 1, lines[-1]
        print(f"ok   {name}: a wrong reference value fails every iteration")

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH_DIR.glob("*.*"):
        shutil.copy(f, bare / "perfbench")
    proc, lines = run("--workload", "kg_train", "--seed", "0", "--seconds",
                      "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0 and not any(
        line.startswith("{") for line in lines), "ran without relmp sources"
    print("ok   without the relmp sources the benchmark exits "
          f"{proc.returncode} and prints no result")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"FAIL {e}")
        sys.exit(1)
