"""Per-layer tracing from outside the program.

``LayerTracer.install()`` wraps public functions of each module with
timers (and, for ``repro.tensor``, installs the program's own op
profiler); ``uninstall()`` restores every original.  Nothing inside
``src/`` is edited: the wrappers sit on the classes and module
attributes the program looks up at call time.

Times accumulate as seconds under the names below; the workload turns
them into the per-layer metrics with its own denominators (steps,
batches, epochs) in :func:`layer_metrics`.
"""

from __future__ import annotations

import threading
import time


class LayerTracer:
    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.pad_real = 0.0
        self.pad_slots = 0.0
        #: monotonic time the service started its latest batch
        self.batch_started = 0.0
        self.profiler = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- bookkeeping -----------------------------------------------------

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self.seconds[name] = self.seconds.get(name, 0.0) + seconds
            self.calls[name] = self.calls.get(name, 0) + 1

    def total(self, name: str) -> float:
        return self.seconds.get(name, 0.0)

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _timed(self, name: str):
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.add(name, time.perf_counter() - start)

            return wrapper

        return make

    def _embedder(self):
        return getattr(self._local, "embedder", None)

    def _level_timed(self, prefix: str, pick):
        """Time a per-level module call; the level is the module's
        position in the hierarchical embedder currently running."""
        tracer = self

        def make(original):
            def wrapper(module, *args, **kwargs):
                level = "x"
                embedder = tracer._embedder()
                if embedder is not None:
                    for i, candidate in enumerate(pick(embedder)):
                        if candidate is module:
                            level = str(i)
                            break
                start = time.perf_counter()
                try:
                    return original(module, *args, **kwargs)
                finally:
                    tracer.add(f"{prefix}.l{level}", time.perf_counter() - start)

            return wrapper

        return make

    # -- install / uninstall ---------------------------------------------

    def install(self) -> "LayerTracer":
        import repro.evaluation.harness as harness
        import repro.models.classifier as classifier
        import repro.serve.service as service
        from repro.core.coarsen import GraphCoarsening
        from repro.core.hap import HierarchicalEmbedder
        from repro.core.moa import MOA
        from repro.data.streaming import StreamingDataset
        from repro.gnn.encoder import GNNEncoder
        from repro.models.classifier import GraphClassifier
        from repro.nn.optim import Adam
        from repro.observe.profiler import OpProfiler
        from repro.serve.index import EmbeddingIndex
        from repro.tensor.tensor import Tensor

        tracer = self

        def pad_wrapper(original):
            def wrapper(graphs, *args, **kwargs):
                start = time.perf_counter()
                batch = original(graphs, *args, **kwargs)
                tracer.add("data.pad", time.perf_counter() - start)
                with tracer._lock:
                    tracer.pad_real += float(batch.mask.sum())
                    tracer.pad_slots += float(batch.mask.size)
                return batch

            return wrapper

        def embed_levels_wrapper(original):
            def wrapper(embedder, *args, **kwargs):
                outer = tracer._embedder()
                tracer._local.embedder = embedder
                try:
                    return original(embedder, *args, **kwargs)
                finally:
                    tracer._local.embedder = outer

            return wrapper

        def fingerprint_wrapper(original):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                tracer.batch_started = time.monotonic()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.add("nn.fingerprint", time.perf_counter() - start)

            return wrapper

        self._patch(classifier, "pad_graphs", pad_wrapper)
        self._patch(StreamingDataset, "__getitem__", self._timed("data.fetch"))
        self._patch(harness, "prepare_dataset", self._timed("data.generate"))
        self._patch(HierarchicalEmbedder, "embed_levels", embed_levels_wrapper)
        self._patch(
            GNNEncoder, "forward", self._level_timed("gnn", lambda e: e.encoders)
        )
        self._patch(
            GraphCoarsening,
            "coarsen",
            self._level_timed(
                "core",
                lambda e: [getattr(c, "coarsening", c) for c in e.coarsenings],
            ),
        )
        self._patch(MOA, "forward", self._timed("core.moa"))
        self._patch(GraphClassifier, "loss", self._timed("models.fwd"))
        self._patch(GraphClassifier, "batch_loss", self._timed("models.fwd"))
        self._patch(GraphClassifier, "predict", self._timed("models.predict"))
        self._patch(GraphClassifier, "embed", self._timed("models.embed"))
        self._patch(Tensor, "backward", self._timed("tensor.bwd"))
        self._patch(Adam, "step", self._timed("nn.adam"))
        self._patch(service, "module_fingerprint", fingerprint_wrapper)
        self._patch(service, "graph_hash", self._timed("serve.hash"))
        self._patch(EmbeddingIndex, "top_k", self._timed("serve.topk"))
        self.profiler = OpProfiler().install()
        return self

    def uninstall(self) -> None:
        if self.profiler is not None:
            self.profiler.uninstall()
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- op profiler views -----------------------------------------------

    def op_seconds(self, name: str) -> float:
        """Forward plus backward seconds of one ``repro.tensor`` op."""
        stat = self.profiler.stats.get(name) if self.profiler else None
        return 0.0 if stat is None else stat.forward_s + stat.backward_s

    def op_calls(self) -> int:
        return self.profiler.total_forward_calls() if self.profiler else 0


#: the per-layer metrics every traced run reports, with their units
PER_LAYER = {
    "data.pad_ms": "ms",
    "data.pad_fill": "ratio",
    "data.fetch_ms": "ms",
    "data.shard_loads": "count",
    "data.generate_s": "s",
    "gnn.l0_fwd_ms": "ms",
    "gnn.l1_fwd_ms": "ms",
    "core.l0_fwd_ms": "ms",
    "core.l1_fwd_ms": "ms",
    "core.moa_ms": "ms",
    "models.fwd_ms": "ms",
    "models.predict_ms": "ms",
    "models.embed_ms": "ms",
    "tensor.bwd_ms": "ms",
    "tensor.op_calls_per_graph": "count",
    "tensor.spmm_ms": "ms",
    "tensor.segment_sum_ms": "ms",
    "tensor.coarsen_chain_ms": "ms",
    "tensor.masked_softmax_mean_ms": "ms",
    "tensor.matmul_ms": "ms",
    "nn.adam_ms": "ms",
    "nn.fingerprint_ms": "ms",
    "training.loop_ms": "ms",
    "training.validate_ms": "ms",
    "serve.batch_size": "count",
    "serve.cache_hit": "ratio",
    "serve.wait_ms": "ms",
    "serve.hash_ms": "ms",
    "serve.topk_ms": "ms",
    "trace.overhead": "ratio",
}


def layer_metrics(tracer: LayerTracer, seg) -> dict[str, float]:
    """Per-layer values for the traced segment ``seg``.

    Step-normalised times divide by ``seg.steps`` (optimizer steps; on
    serve-mixed, executed batches).  Per-call times divide by the
    function's own call count.  A layer the workload never calls reads 0.
    """
    steps = max(seg.steps, 1)

    def per_step(seconds: float) -> float:
        return 1e3 * seconds / steps

    def per_call(name: str) -> float:
        calls = tracer.count(name)
        return 1e3 * tracer.total(name) / calls if calls else 0.0

    fwd = tracer.total("models.fwd")
    bwd = tracer.total("tensor.bwd")
    adam = tracer.total("nn.adam")
    step_s = sum(seg.step_s)
    return {
        "data.pad_ms": per_call("data.pad"),
        "data.pad_fill": (
            tracer.pad_real / tracer.pad_slots if tracer.pad_slots else 0.0
        ),
        "data.fetch_ms": per_step(tracer.total("data.fetch")),
        "data.shard_loads": seg.shard_loads / seg.epochs if seg.epochs else 0.0,
        "data.generate_s": seg.generate_s,
        "gnn.l0_fwd_ms": per_step(tracer.total("gnn.l0")),
        "gnn.l1_fwd_ms": per_step(tracer.total("gnn.l1")),
        "core.l0_fwd_ms": per_step(tracer.total("core.l0")),
        "core.l1_fwd_ms": per_step(tracer.total("core.l1")),
        "core.moa_ms": per_step(tracer.total("core.moa")),
        "models.fwd_ms": per_step(fwd),
        "models.predict_ms": per_call("models.predict"),
        "models.embed_ms": per_call("models.embed"),
        "tensor.bwd_ms": per_step(bwd),
        "tensor.op_calls_per_graph": tracer.op_calls() / max(seg.work, 1),
        "tensor.spmm_ms": per_step(tracer.op_seconds("spmm")),
        "tensor.segment_sum_ms": per_step(tracer.op_seconds("segment_sum")),
        "tensor.coarsen_chain_ms": per_step(tracer.op_seconds("coarsen_chain")),
        "tensor.masked_softmax_mean_ms": per_step(
            tracer.op_seconds("masked_softmax_mean")
        ),
        "tensor.matmul_ms": per_step(tracer.op_seconds("matmul")),
        "nn.adam_ms": per_step(adam),
        "nn.fingerprint_ms": per_call("nn.fingerprint"),
        "training.loop_ms": (
            1e3 * (step_s - fwd - bwd - adam) / len(seg.step_s) if seg.step_s else 0.0
        ),
        "training.validate_ms": (
            1e3 * sum(seg.validate_s) / len(seg.validate_s) if seg.validate_s else 0.0
        ),
        "serve.batch_size": (
            seg.work / tracer.count("nn.fingerprint")
            if tracer.count("nn.fingerprint")
            else 0.0
        ),
        "serve.cache_hit": seg.cache_hits / seg.cache_lookups if seg.cache_lookups else 0.0,
        "serve.wait_ms": 1e3 * sum(seg.wait_s) / len(seg.wait_s) if seg.wait_s else 0.0,
        "serve.hash_ms": per_call("serve.hash"),
        "serve.topk_ms": per_call("serve.topk"),
    }
