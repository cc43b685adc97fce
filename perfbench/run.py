"""Wall-clock benchmark for relmp.

    python3 perfbench/run.py --workload kg_train --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all            # the four, one process each

Each workload runs in its own process with the BLAS pools pinned to one
thread (the same environment `relmp --threads 1` sets) before NumPy loads.
The process sets up several times and keeps the last set-up, runs one warm-up
iteration, then timed iterations until `--seconds` of timed work is done.
Outputs are checked after each iteration, outside the timed calls.

With `--trace 0` the last stdout line is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json; with `--trace 1` timed iterations
alternate untraced and traced, and the metrics are the per-layer ones. A full
report (and the spans, when traced) goes to perfbench/out/.
"""

import time

# setup_s counts from here, before any other import
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("kg_train", "kg_eval", "image_step", "protein_encode")
SETUP_REPEATS = 3
THREADS = 1

# The functions with a time on every workload's timed iterations; the others
# report counts here and their times in the printed table and the out file.
TIMED_EVERYWHERE = ("graph.rel_aggregate", "layers.grmp_forward",
                    "layers.layer_norm")
SELF_FLOPS = ("layers.ffn_forward", "layers.context_stack_features",
              "layers.patch_merging", "models.image_forward",
              "models.protein_forward", "models.kg_encode", "models.kg_score",
              "training.train_kg", "training.kg_evaluate")


def per_layer_spec():
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    from instrument import FLOP_KINDS, OPS, TRACED

    spec = []
    for module, qualname in TRACED:
        name = f"{module}.{qualname}"
        if name in TIMED_EVERYWHERE:
            spec += [(f"{name}.calls", "count"), (f"{name}.s", "s"),
                     (f"{name}.self_s", "s"), (f"{name}.flops", "flop"),
                     (f"{name}.gflops_per_s", "GFLOP/s")]
            continue
        spec.append((f"{name}.calls", "count"))
        if name in SELF_FLOPS:
            spec.append((f"{name}.flops", "flop"))
    spec += [(f"tensor.flops.{kind}", "flop") for kind in FLOP_KINDS]
    spec += [(f"{module}.{op}.out_bytes", "bytes") for module, op in OPS]
    spec.append(("trace.overhead_pct", "%"))
    return spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="timed work per run, warm-up excluded")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test")
    parser.add_argument("--reference", default=str(BENCH_DIR / "reference.json"),
                        help="reference values checked on the default seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "relmp" / "__init__.py").is_file():
        print(f"error: relmp sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(ROOT / "src"))
    if "numpy" in sys.modules:
        print("error: numpy loaded before the BLAS pin", file=sys.stderr)
        return 2
    from relmp.cli import _apply_threads   # the pin `relmp --threads` applies
    _apply_threads(THREADS)
    return run_one(args)


# -- one workload ----------------------------------------------------------------------


def run_one(args) -> int:
    import numpy as np
    import scipy

    from instrument import GrmpProbe, Scopes, Tracer
    from workloads import WORKLOADS, check_grmp_calls

    import_s = time.perf_counter() - _T0
    with open(args.reference, encoding="utf-8") as f:
        reference = json.load(f)["smoke" if args.smoke else "full"][args.workload]
    wl = WORKLOADS[args.workload](args.smoke)

    setups = []
    for _ in range(SETUP_REPEATS):
        state = None   # drop the previous set-up before building the next
        start = time.perf_counter()
        state = wl.setup(args.seed)
        setups.append(time.perf_counter() - start)

    scopes = Scopes()
    probe = GrmpProbe(scopes)
    tracer = Tracer(scopes)
    with probe.install():
        start = time.perf_counter()
        wl.warmup(state)
        warmup_s = time.perf_counter() - start
        probe.calls.clear()
        its, traced_flags, flops, traced_stats = [], [], [], []
        failed = 0
        spent = 0.0
        while True:
            traced = bool(args.trace) and len(its) % 2 == 1
            if traced:
                tracer.reset(len(its))
            with tracer.install() if traced else nullcontext(), \
                    scopes.root() as root:
                it = wl.iterate(state, root)
            snapshot = root.snapshot()
            failures = it.failures + wl.check(state, it, reference)
            failures += check_grmp_calls(probe.calls)
            probe.calls.clear()
            if flops and snapshot != flops[0]:
                failures.append("per-kind FLOPs differ from the first timed "
                                f"iteration: {snapshot} vs {flops[0]}")
            if traced and traced_stats and \
                    _counts(tracer.stats) != _counts(traced_stats[0][0]):
                failures.append("per-function counts differ between traced "
                                "iterations")
            if failures:
                failed += 1
                for msg in failures:
                    print(f"check failed (iteration {len(its)}): {msg}")
            it.output = None   # release outputs before the next iteration
            its.append(it)
            traced_flags.append(traced)
            flops.append(snapshot)
            if traced:
                traced_stats.append((tracer.stats, tracer.op_bytes))
            spent += it.seconds
            typical = statistics.median(i.seconds for i in its)
            enough = len(its) >= (2 if args.trace else 1)
            if enough and spent + typical > args.seconds:
                break

    plain = [it for it, t in zip(its, traced_flags) if not t]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {
        "setup_s": ("s", [import_s + s + warmup_s for s in setups]),
        "peak_rss_mb": ("MB", [peak_rss_mb]),
        "iter_s": ("s", [it.seconds for it in plain]),
    }
    named = wl.named(plain)
    attempted = len(its)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds,
        "run": {
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": _openblas_version(np),
            "blas_threads": THREADS,
        },
        "setup": {"import_s": import_s, "setup_repeats_s": setups,
                  "warmup_s": warmup_s},
        "iterations": [{"traced": t, "phases": it.phases, "items": it.items}
                       for it, t in zip(its, traced_flags)],
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": _summaries({**e2e, **named}),
        "flops_per_iteration": flops[0],
    }
    print(f"relmp benchmark: {args.workload}  seed {args.seed}  trace {args.trace}"
          f"{'  smoke' if args.smoke else ''}")
    for key, value in report["run"].items():
        print(f"  {key:<14} {value}")
    print(f"  iterations     {attempted} timed after 1 warm-up, "
          f"{sum(it.items for it in its)} {wl.item_unit}")
    print("end-to-end metrics (untraced iterations):")
    for name, m in report["metrics"].items():
        print(f"  {name:<16} {m['value']:>14.6g} {m['unit']:<4} "
              f"median of n={m['n']}")
    print(f"  {'failed_ratio':<16} {failed / attempted:>14.6g} "
          f"     {failed} failed of {attempted} attempted")
    print(f"metered FLOPs per iteration (exact), total {sum(flops[0].values())}:")
    for kind, n in sorted(flops[0].items(), key=lambda kv: -kv[1]):
        print(f"  {kind:<18} {n:>16}")

    if args.trace:
        timings = {}
        for kind, group in (("untraced", plain), ("traced", [
                it for it, t in zip(its, traced_flags) if t])):
            timings[kind] = _summaries({
                "iter_s": ("s", [it.seconds for it in group]),
                **wl.named(group)})
        per_layer = _per_layer(traced_stats, flops[0], timings)
        report["per_layer"] = per_layer
        report["spans"] = [s for s in tracer.spans if s is not None]
        _print_trace(per_layer, traced_stats)
        values = {name: {"value": per_layer["metrics"][name], "unit": unit}
                  for name, unit in per_layer_spec()}
    else:
        values = {name: {"value": m["value"], "unit": m["unit"]}
                  for name, m in report["metrics"].items() if name in e2e}

    OUT_DIR.mkdir(exist_ok=True)
    out = _report_path(args, args.workload)
    out.write_text(json.dumps(report), encoding="utf-8")
    print(f"report written to {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": values}))
    return 0


def _report_path(args, workload) -> Path:
    return OUT_DIR / (f"{workload}-seed{args.seed}-trace{args.trace}"
                      f"{'-smoke' if args.smoke else ''}.json")


def _summaries(samples: dict) -> dict:
    return {name: {"value": statistics.median(vals), "unit": unit,
                   "n": len(vals)}
            for name, (unit, vals) in samples.items()}


def _openblas_version(np) -> str:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return str(deps.get("blas", {}).get("version", "unknown"))


def _counts(stats) -> dict:
    return {name: {q: st.get(q, 0) for q in ("calls", "flops", "edges")}
            for name, st in stats.items()}


def _per_layer(traced_stats, flops, timings) -> dict:
    """Per traced iteration: counts (equal in every traced iteration), median
    times, and the tracing overhead on each end-to-end timing."""
    table = {}
    for name, entry in _counts(traced_stats[0][0]).items():
        for q in ("s", "self_s"):
            entry[q] = statistics.median(stats[name][q]
                                         for stats, _ in traced_stats)
        entry["gflops_per_s"] = (entry["flops"] / entry["self_s"] / 1e9
                                 if entry["flops"] and entry["self_s"] else 0.0)
        table[name] = entry
    op_bytes = traced_stats[0][1]
    overhead = {name: (timings["traced"][name]["value"] - m["value"], m["unit"])
                for name, m in timings["untraced"].items()}
    metrics = {}
    for name, unit in per_layer_spec():
        if name.startswith("tensor.flops."):
            metrics[name] = flops.get(name.rsplit(".", 1)[1], 0)
        elif name.endswith(".out_bytes"):
            metrics[name] = op_bytes.get(name[:-len(".out_bytes")], 0)
        elif name == "trace.overhead_pct":
            metrics[name] = (100.0 * overhead["iter_s"][0]
                             / timings["untraced"]["iter_s"]["value"])
        else:
            func, quantity = name.rsplit(".", 1)
            metrics[name] = table.get(func, {}).get(quantity, 0)
    return {"functions": table, "metrics": metrics,
            "traced_minus_untraced": overhead}


def _print_trace(per_layer, traced_stats) -> None:
    print(f"per-layer, median over {len(traced_stats)} traced iteration(s), "
          "per iteration (flops: metered in the function's own code):")
    print(f"  {'function':<34} {'calls':>7} {'s':>10} {'self_s':>10} "
          f"{'flops':>14} {'GFLOP/s':>8} {'edges':>9}")
    for name, e in sorted(per_layer["functions"].items(),
                          key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<34} {e['calls']:>7} {e['s']:>10.4f} "
              f"{e['self_s']:>10.4f} {e['flops']:>14} "
              f"{e['gflops_per_s']:>8.3f} {e['edges'] or '':>9}")
    print("op output bytes per iteration (computed from result array sizes):")
    for name, value in per_layer["metrics"].items():
        if name.endswith(".out_bytes") and value:
            print(f"  {name[:-len('.out_bytes')]:<34} {value:>16.0f}")
    print("tracing overhead, traced minus untraced median "
          f"({per_layer['metrics']['trace.overhead_pct']:+.2f}% on iter_s):")
    for name, (diff, unit) in per_layer["traced_minus_untraced"].items():
        print(f"  {name:<16} {diff:>+14.6g} {unit}")
    print("  setup_s and peak_rss_mb: shared by both kinds of iteration")


# -- all workloads -------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in a fresh process, one after another, then a summary."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--reference", args.reference]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            totals["metrics"][f"{name}.{metric}"] = value
        report = json.loads(_report_path(args, name).read_text(encoding="utf-8"))
        for metric, m in report["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"], f"n={m['n']}"))
        rows.append((name, "failed_ratio", report["failed_ratio"], "",
                     f"{report['failed']} of {report['attempted']}"))
    print("summary:")
    for name, metric, value, unit, n in rows:
        print(f"  {name:<15} {metric:<15} {value:>14.6g} {unit:<4} {n}")
    print(json.dumps(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
