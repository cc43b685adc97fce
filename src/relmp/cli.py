"""Command-line surface: graph building, FLOPs sweeps, verification, training.

Five subcommands over the library — ``build-graph``, ``bench-flops``,
``verify``, ``train-kg``, ``eval``. Every command is deterministic given
identical inputs, flags, and seed; outputs are plain text (TSV/CSV/JSON) and
land only inside the directory named by ``--out``.

Configuration precedence is flags > config file > defaults. The config file
is INI-style with one section per command (``[train-kg]``), keys matching the
flag names with underscores. Values are read as written (a ``%`` is just a
character) and must be one of the flag's choices where it has them; an
empty value stands for None, the unset value of an option without a default.
Whatever wins is echoed into the output directory as ``resolved_config.ini``
so a run can be reproduced from its artifacts alone: passed back through
``--config`` it resolves to the same values.

Every command computes its results before it makes ``--out``, so a run that
fails leaves no output directory behind; an unwritable ``--out`` is reported
only after the work is done.

Exit codes: 0 success, 1 verification failure, 2 usage error or any other
deliberate failure (a `RelmpError`), 3 data error (a malformed or unreadable
input file, or an output path that cannot be written).

``--threads N`` pins the BLAS pool size through environment variables. They
must be set before numpy first loads, so this module imports the numeric
stack lazily inside the command bodies; the pin is only effective for a fresh
process (the normal CLI case). Called in-process after numpy is loaded, `main`
runs with the pools as they are, with a warning on stderr if ``--threads`` was
given. ``--threads 1`` makes reruns bit-identical; ``train-kg`` and ``eval``,
whose metrics would otherwise depend on the core count, default to it.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import asdict, fields
from typing import NamedTuple

from .errors import ConfigError, DataError, RelmpError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_DATA = 3

_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

class _Opt(NamedTuple):
    """One option: its INI/`resolved` key is the `_SPECS` key, its flag the
    key with dashes. `kind` is int, float, str, bool, or "path" (a string
    that may stay None). A bool option is a store-const flag that flips its
    default: `--key` when the default is False, `--no-key` when it is True."""
    kind: object
    default: object
    help: str
    choices: tuple | None = None


_COMMON = {
    "seed": _Opt(int, 0, "random seed"),
    "threads": _Opt(int, None,
                    "BLAS thread cap; 1 guarantees bit-identical reruns"),
    "f64": _Opt(bool, False, "run tensors in float64"),
    "out": _Opt("path", None, "output directory"),
}

_ONE_THREAD = _Opt(int, 1, "BLAS thread cap; 1 makes reruns bit-identical on "
                           "any core count")

_KG_DATA = {
    "train": _Opt("path", None,
                  "training triplet TSV (default: bundled toy dataset)"),
    "valid": _Opt("path", None, "validation triplet TSV"),
    "test": _Opt("path", None, "test triplet TSV"),
    "people": _Opt(int, 100, "bundled toy dataset size"),
    "data_seed": _Opt(int, 0, "bundled toy dataset seed"),
}

# Per-command option registry, the single declaration of every option: the
# parser below is generated from it. Flags parse with default None so a
# missing flag falls through to the config file and then to these defaults.
# The suite names repeat `verify.SUITES` because importing `verify` here
# would load numpy before `--threads` can take effect.
_SPECS = {
    "build-graph": {
        "domain": _Opt(str, None, "input domain", ("image", "protein", "kg")),
        "input": _Opt("path", None, "input file for the domain"),
        "k_medium": _Opt(int, 0,
                         "K for image medium-range neighbors; 0 adds none"),
        "threads": _COMMON["threads"], "out": _COMMON["out"],
    },
    "bench-flops": {
        "k_max": _Opt(int, 24, "sweep K = 1..k_max"),
        "out": _COMMON["out"],
    },
    "verify": {
        "suite": _Opt(str, "all", "suite to run",
                      ("all", "flops-exact", "gradcheck", "e3", "oracles")),
        "transforms": _Opt(int, 100, "rigid motions for the e3 suite"),
        "inject_fault": _Opt(bool, False,
                             "test hook: perturb the per-relation linear "
                             "cost constant so flops-exact must fail"),
        **_COMMON,
    },
    "train-kg": {
        "epochs": _Opt(int, 30, "training epochs"),
        "lr": _Opt(float, 5e-3, "base learning rate"),
        "batch_size": _Opt(int, 16, "positive triplets per step"),
        "num_layers": _Opt(int, 6, "message-passing layers"),
        "channels": _Opt(int, 32, "hidden channels"),
        "scorer_hidden": _Opt(int, 64, "scorer hidden width"),
        "negatives": _Opt(int, 32, "corrupted triplets per positive"),
        "anneal": _Opt(bool, True, "hold the learning rate constant instead "
                                   "of annealing"),
        **_KG_DATA,
        **_COMMON,
        "threads": _ONE_THREAD,
    },
    "eval": {
        "model_dir": _Opt("path", None,
                          "directory holding model.ckpt + model_config.json"),
        "split": _Opt(str, "test", "split to evaluate", ("valid", "test")),
        **_KG_DATA,
        "f64": _COMMON["f64"], "out": _COMMON["out"], "threads": _ONE_THREAD,
    },
}

# Least values of integer options, checked in `main` before the command runs
_AT_LEAST = {"seed": 0, "data_seed": 0, "k_medium": 0, "transforms": 1,
             "epochs": 0, "batch_size": 1, "num_layers": 1, "channels": 1,
             "scorer_hidden": 1, "negatives": 1}

_COMMAND_HELP = {
    "build-graph": "build an edge list + relation registry from an input file",
    "bench-flops": "sweep analytic layer costs over relation counts",
    "verify": "run verification suites",
    "train-kg": "train link prediction on a KG",
    "eval": "evaluate a trained KG model checkpoint",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relmp",
        description="Multi-relational graphs, gated message passing, and an "
                    "exact FLOPs cost model.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _SPECS.items():
        p = sub.add_parser(command, help=_COMMAND_HELP[command])
        for key, opt in spec.items():
            flag = key.replace("_", "-")
            if opt.kind is bool:
                p.add_argument(f"--no-{flag}" if opt.default else f"--{flag}",
                               dest=key, action="store_const",
                               const=not opt.default, default=None,
                               help=opt.help)
                continue
            text = opt.help
            if opt.default is not None:
                text += f" (default {opt.default})"
            p.add_argument(f"--{flag}", dest=key, default=None,
                           type=opt.kind if opt.kind in (int, float) else None,
                           choices=opt.choices, help=text)
        p.add_argument("--config", default=None,
                       help="INI config file; flags override its values")
    return parser


def _coerce(key, opt: _Opt, raw):
    kind = opt.kind
    if raw == "" and opt.default is None:  # how `_prepare_out` echoes None
        return None
    if opt.choices is not None and raw not in opt.choices:
        raise ConfigError(f"config key {key}: {raw!r} is not one of "
                          f"{', '.join(opt.choices)}")
    if kind is bool:
        state = configparser.ConfigParser.BOOLEAN_STATES.get(
            str(raw).strip().lower())
        if state is None:
            raise ConfigError(f"config key {key}: not a boolean: {raw!r}")
        return state
    if kind == "path":
        return str(raw)
    try:
        return kind(raw)
    except ValueError as e:
        raise ConfigError(f"config key {key}: bad value {raw!r}") from e


def _resolve_config(command: str, args) -> dict:
    """flags > config-file section [command] > registry defaults."""
    spec = _SPECS[command]
    from_file = {}
    if args.config is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            found = parser.read(args.config, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as e:
            raise DataError(f"{args.config}: not a readable INI file: {e}") from e
        if not found:
            raise DataError(f"{args.config}: cannot read config file")
        if parser.has_section(command):
            from_file = dict(parser[command])
        unknown = set(from_file) - set(spec)
        if unknown:
            raise ConfigError(
                f"{args.config}: unknown keys in [{command}]: {sorted(unknown)}")
    resolved = {}
    explicit = set()
    for key, opt in spec.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
            explicit.add(key)
        elif key in from_file:
            resolved[key] = _coerce(key, opt, from_file[key])
            explicit.add(key)
        else:
            resolved[key] = opt.default
    resolved["_explicit"] = explicit
    return resolved


def _require(resolved: dict, command: str, *keys):
    for key in keys:
        if resolved[key] is None:
            raise ConfigError(
                f"{command} requires --{key.replace('_', '-')}")


def _prepare_out(resolved: dict, command: str) -> str:
    _require(resolved, command, "out")
    out = resolved["out"]
    os.makedirs(out, exist_ok=True)
    echo = configparser.ConfigParser(interpolation=None)
    echo[command] = {k: "" if v is None else str(v)
                     for k, v in sorted(resolved.items())
                     if not k.startswith("_")}
    with open(os.path.join(out, "resolved_config.ini"), "w",
              encoding="utf-8") as f:
        echo.write(f)
    return out


def _apply_threads(count, explicit: bool = True) -> None:
    if count is None:
        return
    if count < 1:
        raise ConfigError("--threads must be a positive integer")
    if explicit and "numpy" in sys.modules:
        print(f"warning: --threads {count} cannot take effect: numpy is already "
              "loaded in this process", file=sys.stderr)
    for var in _THREAD_ENV:
        os.environ[var] = str(count)


# -- commands ------------------------------------------------------------------------------


def cmd_build_graph(resolved: dict) -> int:
    _require(resolved, "build-graph", "domain", "input", "out")
    from .builders import (LONG_RELATIONS, fact_graph, image_patch_edges,
                           load_patch_grid, load_protein_chain, load_triplets,
                           protein_edges)
    from .graph import RelGraph, save_edge_list

    domain, path = resolved["domain"], resolved["input"]
    k = resolved["k_medium"]
    if domain == "image":
        grid = load_patch_grid(path)
        rows, names = image_patch_edges(grid, k, include_medium=k > 0)
        patches = grid.height * grid.width
        graph = RelGraph(patches, len(names), rows)
        registry = {
            "domain": "image", "height": grid.height, "width": grid.width,
            "channels": grid.channels, "relations": names,
            "long_range": {
                "relations": list(LONG_RELATIONS),
                "global_node": patches,
                "context_nodes": list(range(patches + 1, 2 * patches + 1)),
                "num_virtual_nodes": patches + 1,
            },
        }
        comments = [f"domain=image height={grid.height} width={grid.width}"]
    elif domain == "protein":
        chain = load_protein_chain(path)
        graph, names = protein_edges(chain)
        registry = {
            "domain": "protein", "num_residues": chain.length,
            "num_nodes": chain.length + 1, "relations": list(names),
            "virtual_nodes": [chain.length],
        }
        comments = [f"domain=protein residues={chain.length}"]
    else:
        data = load_triplets(path)
        if not len(data.train.triplets):
            raise DataError(f"{path}: no triplets")
        graph = fact_graph(data.train)
        registry = {
            "domain": "kg", "entities": data.entities,
            "relations": data.relations,
            "num_relations_with_inverses": data.num_relations,
            "inverse_offset": len(data.relations),
        }
        comments = [f"domain=kg entities={data.num_entities} "
                    f"triplets={len(data.train.triplets)}"]

    # only a graph that was built gets an output directory
    out = _prepare_out(resolved, "build-graph")
    edges_path = os.path.join(out, "edges.tsv")
    registry_path = os.path.join(out, "registry.json")
    save_edge_list(edges_path, graph, comments=comments)
    with open(registry_path, "w", encoding="utf-8") as f:
        json.dump(registry, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {edges_path} ({graph.num_edges} edges)")
    print(f"wrote {registry_path}")
    return EXIT_OK


def cmd_bench_flops(resolved: dict) -> int:
    from .costmodel import sweep_csv, sweep_relation_counts

    rows = sweep_relation_counts(resolved["k_max"])
    # only a sweep that ran gets an output directory
    out = _prepare_out(resolved, "bench-flops")
    csv_path = os.path.join(out, "bench.csv")
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write(sweep_csv(rows))
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_verify(resolved: dict) -> int:
    from . import verify

    names = verify.SUITES if resolved["suite"] == "all" else (resolved["suite"],)
    report = verify.run_suites(names, resolved["seed"], resolved["transforms"],
                               resolved["inject_fault"])
    report["inject_fault"] = bool(resolved["inject_fault"])
    text = json.dumps(report, indent=2)
    print(text)
    if resolved["out"] is not None:
        out = _prepare_out(resolved, "verify")
        report_path = os.path.join(out, "verify_report.json")
        with open(report_path, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def _load_kg_data(resolved: dict):
    """(dataset, its description) for train-kg or eval."""
    from .builders import load_triplets
    from .training import toy_kinship_kg

    if resolved["train"] is not None:
        data = load_triplets(resolved["train"], resolved["valid"],
                             resolved["test"])
        desc = {"train": resolved["train"], "valid": resolved["valid"],
                "test": resolved["test"]}
    elif resolved["valid"] is not None or resolved["test"] is not None:
        raise ConfigError("--valid/--test need --train as well")
    else:
        data = toy_kinship_kg(resolved["people"], resolved["data_seed"])
        desc = {"bundled_toy": {"people": resolved["people"],
                                "seed": resolved["data_seed"]}}
    return data, desc


def cmd_train_kg(resolved: dict) -> int:
    _require(resolved, "train-kg", "out")
    from .models import KGModelConfig
    from .tensor import save_checkpoint
    from .training import save_metric_history, train_kg

    data, data_desc = _load_kg_data(resolved)
    cfg = KGModelConfig(**{f.name: resolved[f.name] for f in fields(KGModelConfig)})
    params, history = train_kg(data, cfg, epochs=resolved["epochs"],
                               seed=resolved["seed"], lr=resolved["lr"],
                               batch_size=resolved["batch_size"],
                               anneal=resolved["anneal"])
    # only a run that trained gets an output directory
    out = _prepare_out(resolved, "train-kg")
    metrics_path = os.path.join(out, "metrics.csv")
    save_metric_history(metrics_path, history)
    ckpt_path = os.path.join(out, "model.ckpt")
    save_checkpoint(ckpt_path, params.tensors())
    model_cfg = {"num_entities": data.num_entities,
                 "num_relations": data.num_relations,
                 **asdict(cfg), "data": data_desc}
    config_path = os.path.join(out, "model_config.json")
    with open(config_path, "w", encoding="utf-8") as f:
        json.dump(model_cfg, f, indent=2, sort_keys=True)
        f.write("\n")
    for epoch, split, metric, value in history:
        if split == "test":
            print(f"test {metric} = {value}")
    print(f"wrote {metrics_path}")
    print(f"wrote {ckpt_path}")
    print(f"wrote {config_path}")
    return EXIT_OK


def _read_model_config(config_path: str):
    """(KGModelConfig, (entities, relations) trained on, the resolved data
    keys of the recorded training dataset) from a `model_config.json`
    written by train-kg. Any content train-kg would not write is a
    DataError naming the key."""
    from .models import KGModelConfig

    try:
        with open(config_path, "r", encoding="utf-8") as f:
            stored = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise DataError(f"{config_path}: cannot read model config ({e})")
    if not isinstance(stored, dict) or not isinstance(stored.get("data", {}), dict):
        raise DataError(f"{config_path}: model config is not a JSON object "
                        "with an object under 'data'")
    # each key must hold its field's type (a JSON bool is not an int here)
    kinds = {f.name: type(f.default) for f in fields(KGModelConfig)}
    kinds.update(num_entities=int, num_relations=int)
    for key, kind in kinds.items():
        if key not in stored:
            raise DataError(f"{config_path}: model config lacks key {key!r}")
        if type(stored[key]) is not kind:
            raise DataError(f"{config_path}: model config key {key!r} holds "
                            f"{stored[key]!r}, not a {kind.__name__}")
    # older runs record the scorer's feature map, which must be the one left
    features = stored.get("scorer_features", "concat_product")
    if features != "concat_product":
        raise DataError(f"{config_path}: model config key 'scorer_features' "
                        f"holds {features!r}; only 'concat_product' is supported")
    try:
        cfg = KGModelConfig(**{f.name: stored[f.name]
                               for f in fields(KGModelConfig)}).validate()
    except ConfigError as e:
        raise DataError(f"{config_path}: {e}") from e
    recorded = stored.get("data", {})
    if "bundled_toy" in recorded:
        toy = recorded["bundled_toy"]
        found = ({"people": toy.get("people"), "data_seed": toy.get("seed")}
                 if isinstance(toy, dict) else {})
        usable = bool(found) and all(type(v) is int and v >= 0
                                     for v in found.values())
    elif "train" in recorded:
        found = {key: recorded.get(key) for key in ("train", "valid", "test")}
        usable = all(v is None or isinstance(v, str) for v in found.values())
    else:
        found, usable = {}, True
    if not usable:
        raise DataError(f"{config_path}: model config key 'data' holds "
                        f"{recorded!r}, not a dataset description")
    return cfg, (stored["num_entities"], stored["num_relations"]), found


def cmd_eval(resolved: dict) -> int:
    _require(resolved, "eval", "model_dir", "out")
    import numpy as np

    from .builders import fact_graph
    from .models import KGModelParams
    from .tensor import load_checkpoint
    from .training import kg_evaluate, known_tails, save_metric_history

    config_path = os.path.join(resolved["model_dir"], "model_config.json")
    ckpt_path = os.path.join(resolved["model_dir"], "model.ckpt")
    cfg, trained_on, recorded = _read_model_config(config_path)
    # when no data source is named, evaluate against the dataset the
    # checkpoint was trained on, as recorded next to it
    data_keys = ("train", "valid", "test", "people", "data_seed")
    if not (resolved["_explicit"] & set(data_keys)):
        resolved.update(recorded)
    data, _ = _load_kg_data(resolved)
    if (data.num_entities, data.num_relations) != trained_on:
        raise DataError(
            f"dataset has {data.num_entities} entities / "
            f"{data.num_relations} relations but the checkpoint was trained "
            f"on {trained_on[0]} / {trained_on[1]}")
    params = KGModelParams.init(np.random.default_rng(0), data.num_entities,
                                data.num_relations, cfg)
    weights = load_checkpoint(ckpt_path)
    tensors = params.tensors()
    if set(weights) != set(tensors):
        raise DataError(f"{ckpt_path}: checkpoint tensors do not match the model")
    for name, tensor in tensors.items():
        if tuple(weights[name].shape) != tensor.shape:
            raise DataError(f"{ckpt_path}: shape mismatch for {name}")
        # NaN, Inf or a float64 value past the parameter dtype's range
        with np.errstate(over="ignore"):
            value = weights[name].astype(tensor.data.dtype)
        if not np.isfinite(value).all():
            raise DataError(f"{ckpt_path}: {name} holds a value that is not "
                            f"finite as {value.dtype}")
        tensor.data = value

    store = getattr(data, resolved["split"])
    graph = fact_graph(data.train)
    known = known_tails([data.train, data.valid, data.test])
    metrics = kg_evaluate(params, graph, store, known)
    rows = [(0, resolved["split"], key, metrics[key])
            for key in ("mr", "mrr", "hits@1", "hits@3", "hits@10")]
    # only an evaluation that ran gets an output directory
    out = _prepare_out(resolved, "eval")
    metrics_path = os.path.join(out, "metrics.csv")
    save_metric_history(metrics_path, rows)
    for _, split, metric, value in rows:
        print(f"{split} {metric} = {value}")
    print(f"wrote {metrics_path}")
    return EXIT_OK


_COMMANDS = {
    "build-graph": cmd_build_graph,
    "bench-flops": cmd_bench_flops,
    "verify": cmd_verify,
    "train-kg": cmd_train_kg,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        resolved = _resolve_config(args.command, args)
        for key, least in _AT_LEAST.items():
            if resolved.get(key, least) < least:
                raise ConfigError(f"--{key.replace('_', '-')} must be "
                                  f"{'positive' if least else 'non-negative'}"
                                  f", not {resolved[key]}")
        _apply_threads(resolved.get("threads"),
                       "threads" in resolved["_explicit"])
        if resolved.get("f64"):
            import numpy as np

            from .tensor import default_dtype
            with default_dtype(np.float64):
                return _COMMANDS[args.command](resolved)
        return _COMMANDS[args.command](resolved)
    except (DataError, OSError, UnicodeDecodeError) as e:
        # an unreadable or unwritable file is bad data, not a failed check
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except RelmpError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
