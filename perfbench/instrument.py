"""Instrumentation applied from outside relmp: FLOP scopes, spans, op bytes.

Nothing here edits relmp. Functions are replaced at every place relmp code
looks them up (the defining module and each `from .x import y` name in the
importing modules; methods on their class) and restored afterwards.

Every wrapped call meters its own FLOPs into a fresh `OpCounter` and folds the
charges back into the enclosing scope's counter, so the iteration's root
counter ends with exactly the totals an unwrapped run meters. None of the
wrapped functions is called inside `counting_paused()` in relmp today; if one
ever were, its charges would be counted here and the traced-equals-untraced
FLOP check in run.py would report it.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

from relmp.tensor import OpCounter, count_flops

# (module, qualified name) of every function the traced run times.
TRACED = (
    ("graph", "rel_aggregate"), ("graph", "RelGraph.__init__"),
    ("layers", "grmp_forward"), ("layers", "layer_norm"),
    ("layers", "ffn_forward"), ("layers", "context_stack_features"),
    ("layers", "patch_merging"),
    ("builders", "build_image_graph"), ("builders", "image_medium_edges"),
    ("builders", "image_short_edges"), ("builders", "protein_edges"),
    ("builders", "fact_graph"),
    ("models", "image_forward"), ("models", "protein_forward"),
    ("models", "kg_encode"), ("models", "kg_score"),
    ("tensor", "Tensor.backward"),
    ("training", "train_kg"), ("training", "kg_evaluate"),
    ("training", "AdamW.step"), ("training", "known_tails"),
    ("metrics", "ranking_metrics"),
)

# Recorded ops whose output bytes the traced run sums (each returns a Tensor).
OPS = (
    ("tensor", "add"), ("tensor", "sub"), ("tensor", "hadamard"),
    ("tensor", "div"), ("tensor", "add_scalar"), ("tensor", "mul_scalar"),
    ("tensor", "matmul"), ("tensor", "tile_rows"), ("tensor", "tile_cols"),
    ("tensor", "sum_all"), ("tensor", "mean_rows"), ("tensor", "mean_cols"),
    ("tensor", "relu"), ("tensor", "gelu"), ("tensor", "sigmoid"),
    ("tensor", "exp"), ("tensor", "log"), ("tensor", "sqrt"),
    ("tensor", "reshape"), ("tensor", "slice_rows"), ("tensor", "slice_cols"),
    ("tensor", "gather_rows"), ("tensor", "concat_rows"),
    ("tensor", "concat_cols"), ("tensor", "depthwise_conv2d"),
    ("tensor", "cross_entropy_with_logits"), ("tensor", "bce_with_logits"),
    ("graph", "rel_aggregate"),
)

# FLOP kinds relmp charges (`OpCounter` keys); the traced run reports each.
FLOP_KINDS = ("add", "sub", "hadamard", "div", "matmul", "tile", "sum",
              "mean", "relu", "gelu", "sigmoid", "exp", "log", "sqrt",
              "depthwise_conv2d", "cross_entropy", "bce", "rel_aggregate")


def _relmp_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "relmp" or name.startswith("relmp."))]


@contextmanager
def patched(targets, make_wrapper):
    """Replace each (module, qualname) target by make_wrapper(name, current).

    A function is replaced in every relmp module that binds the current
    object, so callers that imported it by name see the wrapper too.
    """
    undo = []
    try:
        for module, qualname in targets:
            name = f"{module}.{qualname}"
            owner = sys.modules[f"relmp.{module}"]
            *classes, attr = qualname.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            current = getattr(owner, attr)
            wrapper = make_wrapper(name, current)
            if classes:
                places = [(owner, attr)]
            else:
                places = [(m, a) for m in _relmp_modules()
                          for a, v in vars(m).items() if v is current]
            for obj, a in places:
                setattr(obj, a, wrapper)
                undo.append((obj, a, current))
        yield
    finally:
        for obj, a, current in reversed(undo):
            setattr(obj, a, current)


class Scopes:
    """Per-call FLOP scopes that fold into the enclosing scope."""

    def __init__(self):
        self._counters: list[OpCounter] = []

    @contextmanager
    def root(self):
        counter = OpCounter()
        self._counters = [counter]
        try:
            with count_flops(counter):
                yield counter
        finally:
            self._counters = []

    def run(self, fn, args, kwargs):
        """Call fn under its own counter; return (result, that counter)."""
        counter = OpCounter()
        self._counters.append(counter)
        try:
            with count_flops(counter):
                out = fn(*args, **kwargs)
        finally:
            self._counters.pop()
            if self._counters:
                parent = self._counters[-1]
                for kind, flops in counter.per_op.items():
                    parent.add(kind, flops)
        return out, counter


class GrmpProbe:
    """Records (V, R, |E|, C, metered FLOPs) of every `grmp_forward` call.

    Installed for the whole run, traced or not: one extra counter per layer
    call. The comparison with the cost model happens after the timed region.
    """

    def __init__(self, scopes: Scopes):
        self.scopes = scopes
        self.calls: list[tuple] = []

    def install(self):
        def make(name, fn):
            def probe(*args, **kwargs):
                out, counter = self.scopes.run(fn, args, kwargs)
                graph, z = args[0], args[1]
                self.calls.append((graph.num_nodes, graph.num_relations,
                                   graph.num_edges, z.shape[1], counter.total))
                return out
            return probe
        return patched([("layers", "grmp_forward")], make)


class Tracer:
    """Spans (iteration, name, start, end, parent) and per-function totals,
    kept in memory.

    `stats[name]` holds calls, inclusive seconds `s`, `self_s` (minus traced
    children), `flops` metered in the function's own code (charges inside
    traced children excluded) and, for graph-building functions, `edges`.
    `op_bytes[name]` sums the output bytes of each recorded op, computed from
    the result array sizes.
    """

    def __init__(self, scopes: Scopes):
        self.scopes = scopes
        self.spans: list[tuple] = []
        self.stats: dict[str, dict] = {}
        self.op_bytes: dict[str, int] = {}
        self._frames: list[list] = []
        self._trace_id = 0

    def reset(self, trace_id: int) -> None:
        """Start a new iteration: per-iteration totals restart, spans accumulate."""
        self.stats = {}
        self.op_bytes = {}
        self._trace_id = trace_id

    def _wrap_function(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._frames[-1] if self._frames else None
            frame = [0.0, 0, len(self.spans)]   # child seconds, child FLOPs, span id
            self.spans.append(None)
            self._frames.append(frame)
            start = time.perf_counter()
            try:
                out, counter = self.scopes.run(fn, args, kwargs)
            finally:
                end = time.perf_counter()
                self._frames.pop()
            duration = end - start
            flops = counter.total
            self.spans[frame[2]] = (self._trace_id, name, start, end,
                                    parent[2] if parent else None)
            if parent is not None:
                parent[0] += duration
                parent[1] += flops
            st = self.stats.setdefault(
                name, {"calls": 0, "s": 0.0, "self_s": 0.0, "flops": 0})
            st["calls"] += 1
            st["s"] += duration
            st["self_s"] += duration - frame[0]
            st["flops"] += flops - frame[1]
            if name == "graph.RelGraph.__init__":
                st["edges"] = st.get("edges", 0) + args[0].num_edges
            elif name == "builders.fact_graph":
                st["edges"] = st.get("edges", 0) + out.num_edges
            return out
        return traced

    def _wrap_op(self, name, fn):
        def op(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.op_bytes[name] = self.op_bytes.get(name, 0) + out.data.nbytes
            return out
        return op

    @contextmanager
    def install(self):
        with patched(OPS, self._wrap_op), patched(TRACED, self._wrap_function):
            yield
