"""Command-line contract tests: artifacts, exit codes, precedence, determinism.

Fast paths call main() in-process; one fault-injection check and the
bit-identical-rerun check run fresh interpreters, because the first is about
the exit code of the installed entry point and the second is a statement
about whole runs.
"""

import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from relmp import cli, verify
from relmp.builders import (LONG_RELATIONS, PatchGrid, ProteinChain,
                            build_image_graph, load_patch_grid,
                            save_patch_grid, save_protein_chain)
from relmp.cli import main
from relmp.costmodel import grmp_flops
from relmp.errors import DataError, RelmpError
from relmp.models import KGModelConfig
from relmp.tensor import load_checkpoint, save_checkpoint

TINY_TRAIN = ["--people", "30", "--num-layers", "2", "--channels", "8",
              "--scorer-hidden", "16", "--negatives", "4"]


@pytest.fixture
def chain_file(tmp_path):
    coords = np.array([[0.0, 0.0, 0.0], [3.8, 0.0, 0.0], [7.6, 0.0, 0.0]])
    path = tmp_path / "chain.txt"
    save_protein_chain(path, ProteinChain("ACD", coords))
    return path


@pytest.fixture
def grid_file(tmp_path):
    grid = PatchGrid(4, 4, np.arange(48, dtype=np.float32).reshape(16, 3))
    path = tmp_path / "grid.pgrd"
    save_patch_grid(path, grid)
    return path


def _data_rows(path):
    with open(path, encoding="utf-8") as f:
        return [line for line in f if line.strip() and not line.startswith("#")]


# -- build-graph ---------------------------------------------------------------------------


def test_protein_fixture_writes_eighteen_edges_plus_virtual_row(tmp_path, chain_file):
    out = tmp_path / "out"
    assert main(["build-graph", "--domain", "protein", "--input",
                 str(chain_file), "--out", str(out)]) == 0
    rows = _data_rows(out / "edges.tsv")
    registry = json.loads((out / "registry.json").read_text())
    assert len(rows) == 18
    assert registry["virtual_nodes"] == [3]
    assert len(rows) + len(registry["virtual_nodes"]) == 19
    assert registry["relations"] == ["seq-2", "seq-1", "seq+0", "seq+1",
                                     "seq+2", "radius", "medium_near",
                                     "medium_far", "virtual"]
    assert registry["num_nodes"] == 4
    assert (out / "resolved_config.ini").exists()


def test_image_grid_without_medium_writes_short_edges_and_long_spec(tmp_path, grid_file):
    out = tmp_path / "out"
    assert main(["build-graph", "--domain", "image", "--input",
                 str(grid_file), "--out", str(out)]) == 0
    assert len(_data_rows(out / "edges.tsv")) == 48
    registry = json.loads((out / "registry.json").read_text())
    assert registry["relations"] == ["up", "down", "left", "right"]
    long_range = registry["long_range"]
    assert long_range["relations"] == ["long_global", "long_context"]
    assert long_range["global_node"] == 16
    assert long_range["context_nodes"] == list(range(17, 33))
    assert long_range["num_virtual_nodes"] == 17


def test_image_medium_flag_adds_k_edges_per_patch(tmp_path, grid_file):
    out = tmp_path / "out"
    assert main(["build-graph", "--domain", "image", "--input",
                 str(grid_file), "--k-medium", "2", "--out", str(out)]) == 0
    assert len(_data_rows(out / "edges.tsv")) == 48 + 2 * 16
    registry = json.loads((out / "registry.json").read_text())
    assert registry["relations"] == ["up", "down", "left", "right", "medium"]


def test_image_medium_edges_are_appended_not_added(tmp_path, grid_file):
    # with K=3 on a 4x4 grid the short and medium edge arrays have equal
    # shapes, so adding them elementwise would go unnoticed by a count alone
    out = tmp_path / "out"
    assert main(["build-graph", "--domain", "image", "--input",
                 str(grid_file), "--k-medium", "3", "--out", str(out)]) == 0
    rows = [tuple(map(int, line.split("\t"))) for line in _data_rows(out / "edges.tsv")]
    assert len(rows) == 96
    medium = [(s, d) for s, d, r in rows if r == 4]
    assert len(medium) == 48
    assert len([r for _, _, r in rows if r < 4]) == 48
    for v in range(16):
        assert len([s for s, d in medium if d == v]) == 3


@pytest.mark.parametrize("k", [0, 3])
def test_image_build_graph_writes_the_patch_part_of_the_model_graph(
        tmp_path, grid_file, k):
    out = tmp_path / "out"
    assert main(["build-graph", "--domain", "image", "--input",
                 str(grid_file), "--k-medium", str(k), "--out", str(out)]) == 0
    graph, names = build_image_graph(load_patch_grid(grid_file), k,
                                     include_medium=k > 0)
    patches = 16
    patch_names = names[:-len(LONG_RELATIONS)]
    want = [(s, d, r) for s, d, r in graph.edge_list()
            if s < patches and d < patches]
    rows = [tuple(map(int, line.split("\t")))
            for line in _data_rows(out / "edges.tsv")]
    assert sorted(rows) == sorted(want)
    assert {r for _, _, r in want} == set(range(len(patch_names)))
    registry = json.loads((out / "registry.json").read_text())
    assert registry["relations"] == patch_names


def test_kg_file_builds_doubled_fact_graph(tmp_path):
    kg = tmp_path / "kg.tsv"
    kg.write_text("a\tlikes\tb\nb\tlikes\tc\nc\tknows\ta\n")
    out = tmp_path / "out"
    assert main(["build-graph", "--domain", "kg", "--input", str(kg),
                 "--out", str(out)]) == 0
    assert len(_data_rows(out / "edges.tsv")) == 6
    registry = json.loads((out / "registry.json").read_text())
    assert registry["entities"] == ["a", "b", "c"]
    assert registry["relations"] == ["likes", "knows"]
    assert registry["num_relations_with_inverses"] == 4
    assert registry["inverse_offset"] == 2


def test_empty_kg_file_is_a_data_error(tmp_path):
    kg = tmp_path / "kg.tsv"
    kg.write_text("# no rows\n")
    assert main(["build-graph", "--domain", "kg", "--input", str(kg),
                 "--out", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()


def test_missing_input_file_is_a_data_error(tmp_path):
    assert main(["build-graph", "--domain", "protein", "--input",
                 str(tmp_path / "absent.txt"), "--out",
                 str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()


def test_chain_whose_distances_overflow_is_a_data_error(tmp_path, capsys):
    chain = tmp_path / "far.txt"
    chain.write_text("0 A 1e200 0 0\n1 G 0 0 0\n2 A 0 3 0\n")
    out = tmp_path / "out"
    assert main(["build-graph", "--domain", "protein", "--input", str(chain),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert str(chain) in err and "overflow float64" in err
    assert not out.exists()


def test_negative_k_medium_is_a_usage_error(tmp_path, grid_file, capsys):
    out = tmp_path / "out"
    assert main(["build-graph", "--domain", "image", "--input", str(grid_file),
                 "--k-medium", "-1", "--out", str(out)]) == 2
    assert "--k-medium" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("shape", [(0, 4, 3), (4, 0, 3), (4, 4, 0)])
def test_patch_grid_with_a_zero_size_is_a_data_error(tmp_path, capsys, shape):
    h, w, c = shape
    path = tmp_path / "flat.pgrd"
    save_patch_grid(path, PatchGrid(h, w, np.zeros((h * w, c), dtype=np.float32)))
    out = tmp_path / "out"
    assert main(["build-graph", "--domain", "image", "--input", str(path),
                 "--out", str(out)]) == 3
    assert (f"{path}: patch-grid sides and channels must be positive, "
            f"not {h}x{w}x{c}") in capsys.readouterr().err
    assert not out.exists()


def test_missing_required_option_is_a_usage_error(tmp_path):
    assert main(["build-graph", "--input", "x", "--out",
                 str(tmp_path / "out")]) == 2


def test_unknown_flag_value_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["build-graph", "--domain", "movie", "--input", "x",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# -- bench-flops ---------------------------------------------------------------------------


def test_bench_emits_one_row_per_relation_count(tmp_path):
    out = tmp_path / "out"
    assert main(["bench-flops", "--k-max", "6", "--out", str(out)]) == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0] == "K,rgconv_flops,grmp_flops"
    assert len(lines) == 7
    rows = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
    assert [r[0] for r in rows] == list(range(1, 7))
    rg_steps = {rows[i + 1][1] - rows[i][1] for i in range(len(rows) - 1)}
    gm_steps = {rows[i + 1][2] - rows[i][2] for i in range(len(rows) - 1)}
    assert len(rg_steps) == 1 and len(gm_steps) == 1  # marginals are constant
    assert min(gm_steps) < min(rg_steps)


def test_bench_without_a_relation_count_is_a_usage_error(tmp_path):
    # the sweep is checked before the output directory is made
    out = tmp_path / "out"
    assert main(["bench-flops", "--k-max", "0", "--out", str(out)]) == 2
    assert not out.exists()


def test_bench_runs_are_deterministic(tmp_path):
    for name in ("a", "b"):
        assert main(["bench-flops", "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "a" / "bench.csv").read_bytes() == \
        (tmp_path / "b" / "bench.csv").read_bytes()


# -- verify --------------------------------------------------------------------------------


def test_verify_suite_reports_json_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verify", "--suite", "flops-exact", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    report = json.loads(printed)
    assert report["passed"] is True
    assert [s["suite"] for s in report["suites"]] == ["flops-exact"]
    stored = json.loads((out / "verify_report.json").read_text())
    assert stored == report


def test_verify_all_suites_serialize_and_pass(capsys):
    # every suite's checks must survive the JSON boundary (numpy booleans
    # from array comparisons once broke this) and all must pass
    assert main(["verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert [s["suite"] for s in report["suites"]] == \
        ["flops-exact", "gradcheck", "e3", "oracles"]
    assert all(isinstance(c["passed"], bool)
               for s in report["suites"] for c in s["checks"])


def test_verify_fault_injection_fails_flops_exact():
    proc = subprocess.run(
        [sys.executable, "-m", "relmp", "verify", "--suite", "flops-exact",
         "--inject-fault"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["passed"] is False
    assert report["inject_fault"] is True
    failing = {c["name"] for s in report["suites"] for c in s["checks"]
               if not c["passed"]}
    assert failing == {"grmp-instrumented-count-grid",
                       "per-step-formulas-sum-to-totals", "frozen-worked-values"}


@pytest.mark.parametrize("count", ["0", "-3"])
def test_fewer_than_one_transform_is_a_usage_error(tmp_path, capsys, count):
    # refused before any suite runs, so no report is printed or written
    out = tmp_path / "out"
    assert main(["verify", "--suite", "e3", "--transforms", count,
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--transforms must be positive, not {count}" in captured.err
    assert not out.exists()


def test_fault_injection_is_undone_when_verify_returns(capsys):
    assert main(["verify", "--suite", "flops-exact", "--inject-fault"]) == 1
    capsys.readouterr()
    assert grmp_flops(2, 3, 10, 4) == 2000


# -- train-kg / eval -----------------------------------------------------------------------


def test_zero_epochs_writes_baseline_metrics_only(tmp_path):
    out = tmp_path / "out"
    assert main(["train-kg", "--epochs", "0", *TINY_TRAIN,
                 "--out", str(out)]) == 0
    with open(out / "metrics.csv", newline="") as f:
        rows = list(csv.reader(f))[1:]
    assert [r[0] for r in rows] == ["0"] * 5
    assert {r[1] for r in rows} == {"test"}
    assert [r[2] for r in rows] == ["mr", "mrr", "hits@1", "hits@3", "hits@10"]


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_non_finite_learning_rate_is_a_usage_error(tmp_path, capsys, rate):
    # rejected before the output directory is made
    out = tmp_path / "out"
    assert main(["train-kg", "--epochs", "1", *TINY_TRAIN, "--lr", rate,
                 "--out", str(out)]) == 2
    assert f"learning rate must be finite and non-negative, not {rate}" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--epochs", "-1", "--epochs must be non-negative, not -1"),
    ("--batch-size", "0", "--batch-size must be positive, not 0"),
    ("--num-layers", "0", "--num-layers must be positive, not 0"),
    ("--channels", "0", "--channels must be positive, not 0"),
    ("--scorer-hidden", "0", "--scorer-hidden must be positive, not 0"),
    ("--negatives", "0", "--negatives must be positive, not 0"),
    ("--people", "3", "need at least 8 people")])
def test_train_kg_with_a_bad_number_writes_nothing(tmp_path, capsys, flag,
                                                   value, message):
    out = tmp_path / "out"
    assert main(["train-kg", "--epochs", "1", *TINY_TRAIN, flag, value,
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_empty_training_split_writes_nothing(tmp_path, capsys):
    train = tmp_path / "empty.tsv"
    train.write_text("# no rows\n")
    out = tmp_path / "out"
    assert main(["train-kg", "--train", str(train), "--epochs", "0",
                 *TINY_TRAIN, "--out", str(out)]) == 3
    assert "error: empty training split" in capsys.readouterr().err
    assert not out.exists()


def test_eval_of_an_empty_split_writes_nothing(tmp_path, capsys):
    # a run trained with --train only has no validation triplets
    train = tmp_path / "train.tsv"
    train.write_text("a\tlikes\tb\nb\tlikes\tc\nc\tknows\ta\n")
    run = tmp_path / "run"
    assert main(["train-kg", "--train", str(train), "--epochs", "0",
                 *TINY_TRAIN, "--out", str(run)]) == 0
    out = tmp_path / "out"
    assert main(["eval", "--model-dir", str(run), "--split", "valid",
                 "--out", str(out)]) == 3
    assert "error: empty evaluation split" in capsys.readouterr().err
    assert not out.exists()


def test_train_kg_that_fails_part_way_writes_nothing(tmp_path, capsys):
    # the results are computed before the output directory is made
    out = tmp_path / "out"
    with np.errstate(over="ignore"):
        assert main(["train-kg", "--epochs", "2", "--lr", "1e30",
                     "--people", "20", "--num-layers", "1", "--channels", "4",
                     "--out", str(out)]) == 2
    assert "non-finite value produced by linear" in capsys.readouterr().err
    assert not out.exists()


_SEEDED = {"build-graph": ["--domain", "kg", "--input", "absent.tsv"],
           "bench-flops": [], "verify": ["--suite", "flops-exact"],
           "train-kg": ["--epochs", "0", *TINY_TRAIN],
           "eval": ["--model-dir", "absent"]}


@pytest.mark.parametrize("command,flag", [
    *((command, "--seed") for command in _SEEDED),
    ("train-kg", "--data-seed"), ("eval", "--data-seed")])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command, flag):
    # refused before the command body runs: nothing is read, run or written
    out = tmp_path / "out"
    assert main([command, *_SEEDED[command], flag, "-1",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"{flag} must be non-negative, not -1" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err
    assert not out.exists()


def test_scorer_features_is_not_an_option(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train-kg", "--epochs", "0", *TINY_TRAIN, "--scorer-features",
              "concat_product", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


def test_train_then_eval_reproduces_the_test_metrics(tmp_path):
    run = tmp_path / "run"
    assert main(["train-kg", "--epochs", "1", *TINY_TRAIN,
                 "--out", str(run)]) == 0
    assert (run / "model.ckpt").exists()
    evaluation = tmp_path / "eval"
    assert main(["eval", "--model-dir", str(run), "--people", "30",
                 "--out", str(evaluation)]) == 0
    with open(run / "metrics.csv", newline="") as f:
        trained = {(r[2], r[3]) for r in list(csv.reader(f))[1:]
                   if r[1] == "test"}
    with open(evaluation / "metrics.csv", newline="") as f:
        evaluated = {(r[2], r[3]) for r in list(csv.reader(f))[1:]}
    assert evaluated == trained


def test_eval_defaults_to_the_recorded_training_dataset(tmp_path):
    # no data flags at all: eval reuses the dataset description stored next
    # to the checkpoint (here, the bundled dataset at a non-default size)
    run = tmp_path / "run"
    assert main(["train-kg", "--epochs", "1", *TINY_TRAIN,
                 "--out", str(run)]) == 0
    evaluation = tmp_path / "eval"
    assert main(["eval", "--model-dir", str(run),
                 "--out", str(evaluation)]) == 0
    with open(run / "metrics.csv", newline="") as f:
        trained = {(r[2], r[3]) for r in list(csv.reader(f))[1:]
                   if r[1] == "test"}
    with open(evaluation / "metrics.csv", newline="") as f:
        evaluated = {(r[2], r[3]) for r in list(csv.reader(f))[1:]}
    assert evaluated == trained
    # and the echoed configuration reflects the recorded dataset
    echoed = (evaluation / "resolved_config.ini").read_text(encoding="utf-8")
    assert "people = 30" in echoed


def test_eval_needs_a_model_dir(tmp_path):
    assert main(["eval", "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("people,code", [("3", 2), ("40", 3)])
def test_eval_of_a_dataset_it_cannot_use_writes_nothing(trained_run, tmp_path,
                                                        people, code):
    # 3 people cannot make the toy dataset; 40 make one that the 30-entity
    # checkpoint was not trained on
    out = tmp_path / "out"
    assert main(["eval", "--model-dir", str(trained_run), "--people", people,
                 "--out", str(out)]) == code
    assert not out.exists()


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    run = tmp_path_factory.mktemp("trained")
    assert main(["train-kg", "--epochs", "0", *TINY_TRAIN,
                 "--out", str(run)]) == 0
    return run


def _damaged_copy(run, tmp_path):
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    return copy


def test_eval_of_a_checkpoint_cut_in_half_is_a_data_error(trained_run, tmp_path):
    run = _damaged_copy(trained_run, tmp_path)
    blob = (run / "model.ckpt").read_bytes()
    (run / "model.ckpt").write_bytes(blob[:len(blob) // 2])
    assert main(["eval", "--model-dir", str(run),
                 "--out", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()


def test_eval_of_a_checkpoint_cut_inside_its_header_is_a_data_error(
        trained_run, tmp_path):
    run = _damaged_copy(trained_run, tmp_path)
    blob = (run / "model.ckpt").read_bytes()
    (run / "model.ckpt").write_bytes(blob[:6])
    assert main(["eval", "--model-dir", str(run),
                 "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39],
                         ids=["nan", "inf", "-inf", "float64-overflow"])
def test_eval_of_a_checkpoint_with_a_non_finite_weight_is_a_data_error(
        trained_run, tmp_path, capsys, bad):
    # 1e39 is finite in a float64 entry and overflows the float32 parameter
    run = _damaged_copy(trained_run, tmp_path)
    path = run / "model.ckpt"
    weights = load_checkpoint(path)
    name = next(iter(weights))
    entry = weights[name].astype(np.float64 if bad == 1e39 else np.float32)
    entry.reshape(-1)[0] = bad
    save_checkpoint(path, {**weights, name: entry})
    assert main(["eval", "--model-dir", str(run),
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and name in err and "not finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(KGModelConfig)])
def test_eval_with_a_model_config_key_missing_is_a_data_error(
        trained_run, tmp_path, capsys, key):
    run = _damaged_copy(trained_run, tmp_path)
    stored = json.loads((run / "model_config.json").read_text())
    del stored[key]
    (run / "model_config.json").write_text(json.dumps(stored))
    assert main(["eval", "--model-dir", str(run),
                 "--out", str(tmp_path / "out")]) == 3
    assert repr(key) in capsys.readouterr().err


def test_eval_reads_a_model_config_that_names_the_scorer_features(
        trained_run, tmp_path):
    # train-kg once wrote the scorer's feature map, always "concat_product"
    # unless asked otherwise; such a run still evaluates the same
    run = _damaged_copy(trained_run, tmp_path)
    stored = json.loads((run / "model_config.json").read_text())
    assert "scorer_features" not in stored
    stored["scorer_features"] = "concat_product"
    (run / "model_config.json").write_text(json.dumps(stored))
    for source, out in ((trained_run, "plain"), (run, "named")):
        assert main(["eval", "--model-dir", str(source),
                     "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "plain" / "metrics.csv").read_bytes() == \
        (tmp_path / "named" / "metrics.csv").read_bytes()


@pytest.mark.parametrize("key,value", [
    ("channels", "abc"), ("num_layers", True), ("negatives", 2.5),
    ("scorer_features", 4), ("scorer_features", "concat"),
    ("num_entities", "30"), ("channels", 0)])
def test_eval_with_a_model_config_value_of_the_wrong_kind_is_a_data_error(
        trained_run, tmp_path, capsys, key, value):
    run = _damaged_copy(trained_run, tmp_path)
    stored = json.loads((run / "model_config.json").read_text())
    stored[key] = value
    (run / "model_config.json").write_text(json.dumps(stored))
    assert main(["eval", "--model-dir", str(run),
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "model_config.json" in err
    if value != 0:
        assert repr(key) in err


@pytest.mark.parametrize("content", [
    [], [{"channels": 32}], "32", {"data": []},
    {"data": {"bundled_toy": {"people": 30}}},
    {"data": {"bundled_toy": {"people": "abc", "seed": 0}}},
    {"data": {"bundled_toy": {"people": 30, "seed": -1}}},
    {"data": {"bundled_toy": [30, 0]}}, {"data": {"train": 5}}])
def test_eval_of_a_model_config_of_the_wrong_structure_is_a_data_error(
        trained_run, tmp_path, capsys, content):
    run = _damaged_copy(trained_run, tmp_path)
    if isinstance(content, dict):
        content = {**json.loads((run / "model_config.json").read_text()),
                   **content}
    (run / "model_config.json").write_text(json.dumps(content))
    assert main(["eval", "--model-dir", str(run),
                 "--out", str(tmp_path / "out")]) == 3
    assert "model_config.json" in capsys.readouterr().err


def test_same_seed_same_threads_gives_byte_identical_runs(tmp_path):
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "relmp", "train-kg", "--epochs", "2",
             *TINY_TRAIN, "--seed", "5", "--threads", "1", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out)
    first, second = outputs
    assert (first / "metrics.csv").read_bytes() == \
        (second / "metrics.csv").read_bytes()
    assert (first / "model.ckpt").read_bytes() == \
        (second / "model.ckpt").read_bytes()


def test_threads_warns_in_process_once_numpy_is_loaded(tmp_path, chain_file,
                                                      capsys):
    assert "numpy" in sys.modules
    assert main(["build-graph", "--domain", "protein", "--input",
                 str(chain_file), "--threads", "1",
                 "--out", str(tmp_path / "out")]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert len(warnings) == 1 and "--threads 1" in warnings[0]
    # a fresh process pins the pools before numpy loads: no warning
    proc = subprocess.run(
        [sys.executable, "-m", "relmp", "build-graph", "--domain", "protein",
         "--input", str(chain_file), "--threads", "1",
         "--out", str(tmp_path / "fresh")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "warning" not in proc.stderr


def test_apply_threads_pins_the_pools_before_numpy_loads():
    # the benchmark harness calls the private `_apply_threads` with one
    # positional argument in a fresh interpreter before NumPy is imported
    code = "\n".join([
        "import json, os, sys",
        "from relmp.cli import _THREAD_ENV, _apply_threads",
        "assert 'numpy' not in sys.modules, 'numpy loaded by relmp.cli'",
        "_apply_threads(1)",
        "print(json.dumps({var: os.environ.get(var) for var in _THREAD_ENV}))"])
    env = {k: v for k, v in os.environ.items() if k not in cli._THREAD_ENV}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == {var: "1" for var in cli._THREAD_ENV}


def test_kg_commands_pin_one_thread_without_a_warning(tmp_path, capsys):
    # the default is not a request the user made: in-process it runs with the
    # pools as they are and says nothing
    assert main(["train-kg", "--epochs", "0", *TINY_TRAIN,
                 "--out", str(tmp_path / "run")]) == 0
    assert main(["eval", "--model-dir", str(tmp_path / "run"), "--people", "30",
                 "--out", str(tmp_path / "eval")]) == 0
    assert "warning" not in capsys.readouterr().err
    for run in ("run", "eval"):
        assert "threads = 1" in (tmp_path / run / "resolved_config.ini").read_text()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
def test_default_threads_train_as_one_thread_does(tmp_path):
    # with the BLAS pools free to use every core, the scorer's float32
    # products round differently on this run from the second epoch on
    env = {k: v for k, v in os.environ.items() if k not in cli._THREAD_ENV}
    outputs = []
    for threads in ([], ["--threads", "1"]):
        out = tmp_path / ("one" if threads else "default")
        proc = subprocess.run(
            [sys.executable, "-m", "relmp", "train-kg", "--epochs", "2",
             "--people", "60", "--num-layers", "2", *threads, "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out)
    default, one = outputs
    for name in ("metrics.csv", "model.ckpt"):
        assert (default / name).read_bytes() == (one / name).read_bytes(), name


# -- configuration -------------------------------------------------------------------------


def test_flags_override_config_file_which_overrides_defaults(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[train-kg]\nepochs = 7\npeople = 30\nnum_layers = 2\n"
                   "channels = 8\nscorer_hidden = 16\nnegatives = 4\n")
    out = tmp_path / "out"
    assert main(["train-kg", "--config", str(ini), "--epochs", "0",
                 "--out", str(out)]) == 0
    resolved = (out / "resolved_config.ini").read_text()
    assert "epochs = 0" in resolved        # flag beat the file
    assert "people = 30" in resolved       # file beat the default
    assert "batch_size = 16" in resolved   # default survived


@pytest.mark.parametrize("command,args,section", [
    ("train-kg", ["--epochs", "0", *TINY_TRAIN], "out = {out}"),
    ("bench-flops", ["--k-max", "2", "--out", "{out}"], None)],
    ids=["config-file", "flag"])
def test_a_percent_sign_in_a_value_is_read_as_written(tmp_path, command, args,
                                                      section):
    out = tmp_path / "run%1"
    argv = [command] + [a.format(out=out) for a in args]
    if section is not None:
        ini = tmp_path / "run.ini"
        ini.write_text(f"[{command}]\n{section.format(out=out)}\n")
        argv += ["--config", str(ini)]
    assert main(argv) == 0
    assert f"out = {out}\n" in (out / "resolved_config.ini").read_text()


def test_a_config_value_outside_the_choices_is_a_usage_error(tmp_path,
                                                             trained_run,
                                                             capsys):
    kg = tmp_path / "kg.tsv"
    kg.write_text("a\tlikes\tb\n")
    for command, section, argv in [
            ("verify", "suite = %(x)s", []),
            ("build-graph", "domain = foo", ["--input", str(kg)]),
            ("eval", "split = train", ["--model-dir", str(trained_run)])]:
        ini = tmp_path / f"{command}.ini"
        ini.write_text(f"[{command}]\n{section}\n")
        out = tmp_path / "out"
        assert main([command, *argv, "--config", str(ini),
                     "--out", str(out)]) == 2, command
        value = section.split(" = ")[1]
        assert f"config key {section.split()[0]}: {value!r} is not one of" in \
            capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command,args", [
    ("build-graph", ["--domain", "kg", "--input", "{kg}", "--f64"]),
    ("bench-flops", ["--k-max", "3", "--seed", "4"]),
    ("verify", ["--suite", "flops-exact", "--transforms", "2"]),
    ("train-kg", ["--epochs", "0", *TINY_TRAIN, "--no-anneal"])])
def test_an_echoed_config_resolves_to_the_same_values(tmp_path, command, args):
    kg = tmp_path / "kg.tsv"
    kg.write_text("a\tlikes\tb\nb\tknows\tc\n")
    out = tmp_path / "run%"
    assert main([command, *(a.format(kg=kg) for a in args),
                 "--out", str(out)]) == 0
    echoed = (out / "resolved_config.ini").read_text()
    (tmp_path / "echoed.ini").write_text(echoed)
    # rerun from the echo alone: it writes the same echo again
    assert main([command, "--config", str(tmp_path / "echoed.ini")]) == 0
    assert (out / "resolved_config.ini").read_text() == echoed


def test_unknown_config_key_is_a_usage_error(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[train-kg]\nlearning_rate = 0.1\n")
    assert main(["train-kg", "--config", str(ini),
                 "--out", str(tmp_path / "out")]) == 2


def test_missing_config_file_is_a_data_error(tmp_path):
    assert main(["train-kg", "--config", str(tmp_path / "absent.ini"),
                 "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("case", ["kg_not_utf8", "chain_not_utf8",
                                  "config_without_section", "config_not_utf8",
                                  "input_is_a_directory", "out_is_a_file"])
def test_unreadable_file_is_a_data_error(case, tmp_path, capsys):
    tsv = tmp_path / "facts.tsv"
    tsv.write_bytes(b"alice\tparent\tbob\n")
    args = {"domain": "kg", "input": tsv, "out": tmp_path / "out"}
    if case == "kg_not_utf8":
        tsv.write_bytes(b"alice\tparent\tbob\r\nbob\tparent\t\xff\xfe\n")
    elif case == "chain_not_utf8":
        chain = tmp_path / "chain.txt"
        chain.write_bytes(b"# chain\n0 A 0.0 0.0 \xff\n")
        args.update(domain="protein", input=chain)
    elif case.startswith("config"):
        ini = tmp_path / "run.ini"
        ini.write_bytes(b"seed = 3\n" if case == "config_without_section"
                        else b"[build-graph]\nseed = \xff\n")
        args["config"] = ini
    elif case == "input_is_a_directory":
        args["input"] = tmp_path
    else:
        args["out"] = tsv
    argv = ["build-graph"] + [x for k, v in args.items()
                              for x in (f"--{k}", str(v))]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if case in ("kg_not_utf8", "chain_not_utf8"):
        # the second line holds the byte that is not UTF-8
        assert err.startswith(f"error: {args['input']}:2: not UTF-8 text")
    if case != "out_is_a_file":
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("error", RelmpError.__subclasses__(),
                         ids=lambda error: error.__name__)
def test_every_deliberate_failure_maps_to_an_exit_code(error, tmp_path, capsys,
                                                       monkeypatch):
    # a data error exits 3 and every other subclass, a new one included, 2,
    # with one line on stderr and no traceback
    def body(resolved):
        raise error("injected")

    monkeypatch.setitem(cli._COMMANDS, "bench-flops", body)
    out = tmp_path / "out"
    assert main(["bench-flops", "--out", str(out)]) == (3 if error is DataError
                                                         else 2)
    assert capsys.readouterr().err == "error: injected\n"
    assert not out.exists()


# -- the option table ----------------------------------------------------------------------


@pytest.mark.parametrize("command", sorted(cli._SPECS))
def test_help_lists_every_option_of_the_command(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
    for key in cli._SPECS[command]:
        name = key.replace("_", "-")
        assert {f"--{name}", f"--no-{name}"} & flags, key


def test_suite_choices_follow_the_verify_module():
    assert cli._SPECS["verify"]["suite"].choices == ("all",) + verify.SUITES
