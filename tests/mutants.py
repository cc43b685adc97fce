"""A catalogue of source mutants, each of which named tests must kill.

Run from anywhere: `python3 tests/mutants.py [name ...]` (all mutants when
no name is given). pytest does not collect this file.

Each mutant replaces one exact source fragment of one file with a
replacement and names the test ids that must fail once it is applied. Each
is applied alone, in a fresh temporary copy of `src/`, `tests/` and
`pyproject.toml`; the working tree is never written. The report gives each
mutant's outcome (killed when every named test fails, survived otherwise)
and its seconds.

The run fails (exit 1) when a fragment does not occur exactly once in its
file, when a named test is not collected or fails on the unmutated copy,
when a mutant survives, or when a mutant listed as equivalent (with its
reason: it cannot change what any test observes) is killed.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TENSOR = "src/relmp/tensor.py"
GRAPH = "src/relmp/graph.py"


class Mutant(NamedTuple):
    name: str
    file: str
    fragment: str
    replacement: str
    kills: tuple        # test ids, as pytest prints them, that must fail
    equivalent: str = ""   # why no test can tell it apart, if none can


def _cases(test, *cases):
    return tuple(f"tests/test_tensor.py::{test}[{case}]" for case in cases)


def _grads(*cases):
    return _cases("test_gradients_match_finite_differences", *cases)


def _raw_formulas(*cases):
    return _cases("TestCopyFreeBackward::"
                  "test_weighted_aggregate_matches_its_raw_formulas", *cases)


MUTANTS = [
    Mutant("binary-drops-row-sum", TENSOR,
           "nb._accumulate(gb.sum(axis=0).reshape(b_shape) if row else gb)",
           "nb._accumulate(gb)",
           _grads("add-row", "hadamard-row", "div-row")),
    Mutant("binary-swaps-gradients", TENSOR,
           "na._accumulate(grad_a(g))", "na._accumulate(grad_b(g))",
           _grads("hadamard", "div")),
    Mutant("binary-refuses-2d-rows", TENSOR,
           "(a.shape[1],), (1, a.shape[1]))):", "(a.shape[1],),)):",
           # the relational convolution adds its [1, C] per-relation bias sum
           ("tests/test_layers.py::TestRGConv::"
            "test_against_loop_oracle_float64",
            "tests/test_layers.py::TestLayerGradients::"
            "test_both_layers_full_finite_difference")),
    Mutant("binary-charges-input-size", TENSOR,
           "_charge(op, out_data.size)", "_charge(op, a.size)", (),
           equivalent="b is a's shape or a row of it, so the output has "
           "a's size"),
    Mutant("sub-term-is-g", TENSOR,
           '"sub", np.subtract, lambda g: g, lambda g: -g)',
           '"sub", np.subtract, lambda g: g, lambda g: g)',
           _grads("sub", "sub-row")),
    Mutant("unary-skips-the-formula", TENSOR,
           "node._accumulate(grad(g))", "node._accumulate(g)",
           _grads("relu", "gelu", "mul_scalar")),
    Mutant("unary-keeps-g-uncopied", TENSOR,
           "node._accumulate(grad(g))", "node._accumulate_owned(grad(g))",
           _cases("TestBackward::test_unary_leaf_gradient_owns_its_buffer",
                  "add_scalar", "reshape")),
    Mutant("mean-gradient-is-g", TENSOR,
           "lambda g: np.repeat(g / k, k, axis=axis)",
           "lambda g: np.repeat(g, k, axis=axis)",
           _grads("mean_rows", "mean_cols")),
    Mutant("mean-charges-its-output", TENSOR,
           '_charge("mean", a.size)', '_charge("mean", out_data.size)',
           _cases("test_charge_equals_the_formula", "mean_rows",
                  "mean_cols")),
    Mutant("concat-drops-offset-step", TENSOR,
           "            at += n\n", "",
           _grads("concat_rows", "concat_cols")),
    Mutant("slice-gradient-at-offset-0", TENSOR,
           "full[span] = g", "full[_span(axis, 0, stop - start)] = g",
           _grads("slice_rows", "slice_cols")),
    Mutant("tile-gradient-is-a-mean", TENSOR,
           "lambda g: g.sum(axis=axis).reshape(shape)",
           "lambda g: g.mean(axis=axis).reshape(shape)",
           _grads("tile_rows", "tile_cols")),
    Mutant("mean-cols-calls-reshape", TENSOR,
           'return _mean(a, 1, "mean_cols")',
           'return reshape(_mean(a, 1, "mean_cols"), (a.shape[0], 1))',
           _cases("test_each_case_makes_one_public_op_call", "mean_cols")),
    # constant unit channel weights hid this one from model-level checks
    # until every tensor got jitter
    Mutant("score-gradient-drops-channel-weights", GRAPH,
           "np.multiply(means_rv, channel_k, out=work)",
           "work[...] = means_rv",
           tuple(f"tests/test_models.py::test_{model}_directional_gradients_"
                 "match_central_differences"
                 for model in ("image", "protein_encoder", "kg"))),
    # the raw-formula test splits its 9 relations into groups of 1, 2 and 4
    Mutant("group-sums-drop-row-offset", GRAPH,
           "adj.indptr[r0 * v_dst:r1 * v_dst + 1]",
           "adj.indptr[:(r1 - r0) * v_dst + 1]",
           _raw_formulas("groups-of-1-4-scored-z+scores+channel-float32",
                         "groups-of-2-1-uniform-z-float64",
                         "groups-of-4-4-scored-channel-float32")),
    Mutant("group-sums-not-zeroed", GRAPH, "    sums[...] = 0\n", "",
           _raw_formulas("groups-of-2-4-scored-z+scores+channel-float32",
                         "groups-of-4-1-scored-scores-float64")),
    Mutant("feature-gradient-groups-reversed", GRAPH,
           "        for r0, r1 in groups:\n",
           "        for r0, r1 in groups[::-1]:\n",
           _raw_formulas("groups-of-1-4-scored-z-float32",
                         "groups-of-2-4-uniform-z+scores+channel-float32")),
    Mutant("channel-gradient-sums-one-column-pairwise", GRAPH,
           "if x.shape[1] != 1 or not x.shape[0]:", "if True:",
           _raw_formulas("groups-of-1-1-scored-channel-float32",
                         "groups-of-4-1-uniform-z+scores+channel-float32")),
    Mutant("weighted-aggregate-halves-tile-charge", GRAPH,
           '_charge("tile", 2 * r_count * v_count * c)',
           '_charge("tile", r_count * v_count * c)',
           ("tests/test_tensor.py::test_charge_equals_the_formula["
            "weighted_aggregate-scored-channel]",
            "tests/test_acceptance.py::"
            "test_criterion_02_grmp_flop_model_and_step_breakdown_exact")),
    Mutant("checkpoint-keeps-duplicates", TENSOR,
           "            if name in out:\n", "            if False:\n",
           ("tests/test_tensor.py::TestCheckpoint::"
            "test_header_naming_an_entry_twice_is_a_data_error",)),
]


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                  ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tree: Path, ids) -> tuple[int, set, str]:
    """Exit code, failed ids and output of pytest on `ids` in `tree`."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--tb=no", "-rf", *ids],
        cwd=tree, env=env, capture_output=True, text=True)
    failed = set(re.findall(r"^FAILED (\S+)", proc.stdout, re.MULTILINE))
    return proc.returncode, failed, proc.stdout + proc.stderr


def _fragments_match(mutants) -> list[str]:
    errors = []
    for m in mutants:
        count = (ROOT / m.file).read_text(encoding="utf-8").count(m.fragment)
        if count != 1:
            errors.append(f"{m.name}: fragment occurs {count} times in "
                          f"{m.file}: {m.fragment!r}")
    return errors


def _run(mutant: Mutant) -> tuple[str, float]:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        path = tree / mutant.file
        source = path.read_text(encoding="utf-8")
        path.write_text(source.replace(mutant.fragment, mutant.replacement),
                        encoding="utf-8")
        # an equivalent mutant runs the module's own tests, which it must pass
        ids = mutant.kills or (f"tests/test_{Path(mutant.file).stem}.py",)
        code, failed, _ = _pytest(tree, ids)
    if code not in (0, 1):
        outcome = f"error (pytest exit {code})"
    elif mutant.kills and failed >= set(mutant.kills):
        outcome = "killed"
    else:
        outcome = "survived"
    return outcome, time.perf_counter() - start


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    errors = [f"no mutant named {name!r}" for name in sorted(unknown)]
    errors += _fragments_match(chosen)
    if errors:
        print("\n".join(errors))
        return 1
    ids = sorted({i for m in chosen for i in m.kills})
    with tempfile.TemporaryDirectory() as tmp:
        _copy_tree(Path(tmp))
        code, _, output = _pytest(Path(tmp), ids)
    if code != 0:
        print("the named tests do not all pass on the unmutated copy:")
        print(output)
        return 1
    bad = 0
    for m in chosen:
        outcome, seconds = _run(m)
        want = "survived" if m.equivalent else "killed"
        note = f"  (equivalent: {m.equivalent})" if m.equivalent else ""
        print(f"{outcome:<10} {seconds:6.1f}s  {m.name}{note}", flush=True)
        bad += outcome != want
    print(f"{len(chosen) - bad} of {len(chosen)} mutants as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
