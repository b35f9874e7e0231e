"""The five benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup` (all lazy
preparation and warm-up included), then :meth:`run` repeats whole
rounds of fixed work until the :class:`Budget` says the run is over,
and :meth:`check` verifies the outputs.  A round is one training epoch
(train-*), one whole Table-3 cell (table3-cell) or one pass over the
seeded request schedule (serve-mixed).
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from reference import hap_logits
from repro.data.batching import pad_graphs
from repro.data.cache import attach_dataset_features
from repro.data.datasets import make_collab_like
from repro.data.sharding import write_shards
from repro.data.streaming import StreamingDataset
from repro.evaluation.harness import run_classification
from repro.graph.hashing import graph_hash
from repro.models.zoo import make_classifier
from repro.observe.callbacks import Callback
from repro.observe.metrics import get_registry
from repro.serve import InferenceService, build_index
from repro.tensor import no_grad
from repro.training import TrainConfig, fit

#: the paper-scale configuration every workload shares
DATASET = "COLLAB"
HIDDEN = 16
CLUSTERS = (6, 1)
BATCH = 32
#: graphs in the training corpus of train-padded/-sparse/-stream
TRAIN_GRAPHS = 512
#: streamed corpus: the first 256 of those graphs in 16 shards of 16,
#: against a 2-shard LRU window
STREAM_GRAPHS = 256
SHARD_SIZE = 16
WINDOW = 2
#: serve-mixed: requests per round, distinct graphs indexed for top-k,
#: requests kept in flight, neighbours per top-k query
ROUND_REQUESTS = 1024
INDEX_GRAPHS = 256
IN_FLIGHT = 8
TOP_K = 5
#: request mix of serve-mixed, and the share that repeats a graph.  The
#: 50/30/20 split is a synthetic choice with no measured traffic behind
#: it: the repo's load generator runs one request kind at a time.
MIX = {"classify": 0.5, "embed": 0.3, "top_k": 0.2}
REPEAT = 0.5
#: Table-3 accuracy a cell must reach: chance is 1/3 on three classes
MIN_ACCURACY = 0.5


@dataclass
class Segment:
    """Counts and samples of one measured stretch of a run."""

    started: float = 0.0
    wall_s: float = 0.0
    work: int = 0  # graphs trained, or requests served
    op_s: list = field(default_factory=list)  # per-op durations
    steps: int = 0  # optimizer steps (serve: executed batches)
    step_s: list = field(default_factory=list)
    epochs: int = 0
    validate_s: list = field(default_factory=list)
    shard_loads: float = 0.0
    generate_s: float = 0.0
    cache_hits: int = 0
    cache_lookups: int = 0
    wait_s: list = field(default_factory=list)


class Budget:
    """Splits a run into measured segments of whole rounds.

    The plain run is one segment of ``seconds``.  The traced run is two
    halves: untraced, then traced (``tracer`` installed at the round
    boundary), so the first half is the baseline for the overhead.
    """

    def __init__(self, seconds: float, tracer=None):
        self.plan = [seconds] if tracer is None else [seconds / 2, seconds / 2]
        self.tracer = tracer
        self.segments: list[Segment] = []

    @property
    def current(self) -> Segment:
        return self.segments[-1]

    @property
    def traced(self) -> bool:
        return self.tracer is not None and len(self.segments) == 2

    def start(self) -> None:
        self.segments = [Segment(started=time.perf_counter())]

    def round_end(self) -> bool:
        """Close a round; False once the last segment has run its time."""
        now = time.perf_counter()
        seg = self.current
        if now - seg.started < self.plan[len(self.segments) - 1]:
            return True
        seg.wall_s = now - seg.started
        if len(self.segments) < len(self.plan):
            self.tracer.install()
            self.segments.append(Segment(started=time.perf_counter()))
            return True
        if self.tracer is not None:
            self.tracer.uninstall()
        return False


class _Stop(Exception):
    """Raised from the training callback to end the timed phase."""


class StepTimer(Callback):
    """Times steps batch end to batch end through the public
    callback API, and ends rounds at epoch boundaries."""

    def __init__(self, budget: Budget, stop_at_epoch_end: bool):
        self.budget = budget
        self.stop_at_epoch_end = stop_at_epoch_end
        self.losses: list[float] = []
        self.mark = 0.0

    def on_epoch_start(self, epoch):
        self.mark = time.perf_counter()

    def on_batch_end(self, epoch, step, loss, batch_size):
        now = time.perf_counter()
        seg = self.budget.current
        seg.step_s.append(now - self.mark)
        seg.steps += 1
        seg.work += batch_size
        self.mark = now

    def on_epoch_end(self, epoch, logs):
        seg = self.budget.current
        seg.validate_s.append(time.perf_counter() - self.mark)
        seg.epochs += 1
        self.losses.append(logs["loss"])
        if self.stop_at_epoch_end and not self.budget.round_end():
            raise _Stop


def _counter(name: str) -> float:
    return float(get_registry().counter(name).value)


def _build_model(dim: int, num_classes: int, seed: int):
    return make_classifier(
        "HAP", dim, num_classes, np.random.default_rng([seed, 2]),
        hidden=HIDDEN, cluster_sizes=CLUSTERS,
    )


def _generate(count: int, rng: np.random.Generator):
    """Raw COLLAB-like graphs and their degree-featured copies."""
    raw = make_collab_like(count, rng)
    featured, dim = attach_dataset_features(raw, "degree")
    return raw, featured, dim


def _reference_checks(model, graphs) -> list[tuple[str, bool]]:
    """Eval-mode logits against the plain-numpy forward (1e-8)."""
    backend, model.backend = model.backend, "dense"
    model.eval()
    try:
        return [
            (
                "reference_logits",
                float(np.abs(model.logits(g).data - hap_logits(model, g)).max())
                <= 1e-8,
            )
            for g in graphs
        ]
    finally:
        model.backend = backend


class TrainWorkload:
    """HAP-GCN training on COLLAB-like graphs in padded batches of 32.

    ``backend="sparse"`` runs the same batches as the per-graph CSR
    loop; ``streaming=True`` feeds the padded trainer from shards.
    """

    checks_are_ops = False

    def __init__(self, seed: int, backend: str = "dense", streaming: bool = False):
        self.seed = seed
        self.backend = backend
        self.streaming = streaming
        self.workdir: Path | None = None
        self.stream = None
        self.losses: list[float] = []
        self.visits: list[list[int]] = []

    def setup(self, root: Path) -> float:
        start = time.perf_counter()
        raw, self.graphs, dim = _generate(
            TRAIN_GRAPHS, np.random.default_rng([self.seed, 1])
        )
        generate_s = time.perf_counter() - start
        self.model = _build_model(dim, 3, self.seed)
        warm_rng = np.random.default_rng([self.seed, 5])
        if self.backend == "sparse":
            # CSR conversion and the cached normalised adjacencies are
            # lazy; build them for every graph before timing starts.
            self.model.backend = "sparse"
            self.model.eval()
            self.model.predict(self.graphs)
        data = self.graphs
        if self.streaming:
            visits = self.visits

            class RecordingStream(StreamingDataset):
                def __getitem__(self, index):
                    if visits:
                        visits[-1].append(int(index))
                    return super().__getitem__(index)

            tmp_root = root / ".perfbench_tmp"
            tmp_root.mkdir(exist_ok=True)
            self.workdir = Path(tempfile.mkdtemp(prefix="stream-", dir=tmp_root))
            write_shards(
                raw[:STREAM_GRAPHS], self.workdir, SHARD_SIZE,
                name=DATASET, encoding="degree", num_classes=3,
            )
            self.stream = RecordingStream(
                self.workdir, max_cached_shards=WINDOW, prefetch_mode="thread"
            )
            data = self.stream
        self.data = data
        warm = data.subset(range(2 * BATCH)) if self.streaming else data[: 2 * BATCH]
        fit(self.model, warm, warm_rng, self._config(epochs=1))
        return generate_s

    def _config(self, epochs: int):
        return TrainConfig(
            epochs=epochs, batch_size=BATCH, batched=True, backend=self.backend,
            data="streaming" if self.streaming else "memory",
        )

    def run(self, budget: Budget) -> None:
        workload = self

        class Timer(StepTimer):
            def on_epoch_start(self, epoch):
                workload.visits.append([])
                super().on_epoch_start(epoch)

            def on_epoch_end(self, epoch, logs):
                seg = self.budget.current
                seg.shard_loads += _counter("streaming/shard_loads") - workload.loads
                workload.loads = _counter("streaming/shard_loads")
                super().on_epoch_end(epoch, logs)

        timer = Timer(budget, stop_at_epoch_end=True)
        self.loads = _counter("streaming/shard_loads")
        self.visits.clear()
        budget.start()
        try:
            fit(
                self.model, self.data, np.random.default_rng([self.seed, 3]),
                self._config(epochs=10**9), callbacks=[timer],
            )
        except _Stop:
            pass
        for seg in budget.segments:
            seg.op_s = list(seg.step_s)
        self.losses = timer.losses

    def check(self) -> list[tuple[str, bool]]:
        model = self.model
        sample = self.graphs[:8]
        results = _reference_checks(model, sample)
        results.append(
            ("loss_falls", len(self.losses) >= 2 and self.losses[-1] < self.losses[0])
        )
        backend = model.backend
        model.eval()
        with no_grad():
            model.backend = "dense"
            chunk = self.graphs[:BATCH]
            batch = float(model.batch_loss(pad_graphs(chunk)).data)
            loop = float(np.mean([model.loss(g).data for g in chunk]))
            results.append(("padded_loss_eq_mean", abs(batch - loop) <= 1e-6))
            dense = [model.logits(g).data for g in sample]
            model.backend = "sparse"
            sparse = [model.logits(g).data for g in sample]
            model.backend = backend
        results += [
            ("sparse_eq_dense", float(np.abs(d - s).max()) <= 1e-6)
            for d, s in zip(dense, sparse)
        ]
        if self.streaming:
            with StreamingDataset(self.workdir, prefetch_mode="off") as fresh:
                streamed = [graph_hash(fresh[i]) for i in range(len(fresh))]
            results.append(
                (
                    "stream_eq_memory",
                    streamed
                    == [graph_hash(g) for g in self.graphs[:STREAM_GRAPHS]],
                )
            )
            results += [
                ("visited_once", sorted(v) == list(range(STREAM_GRAPHS)))
                for v in self.visits
            ]
        return results

    def close(self) -> None:
        if self.stream is not None:
            self.stream.close()
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            try:
                self.workdir.parent.rmdir()
            except OSError:  # another run's shards are still there
                pass


class Table3Workload:
    """One Table-3 cell exactly as ``run_classification`` runs it."""

    checks_are_ops = False

    def __init__(self, seed: int):
        self.seed = seed
        self.accuracies: list[float] = []
        self.last = None

    def setup(self, root: Path) -> float:
        # A cell generates its own data; the traced run reports that
        # time per cell, so there is no set-up generation to report.
        run_classification(
            "HAP", DATASET, seed=self.seed, num_graphs=16, epochs=1, test_size=4
        )
        return 0.0

    def run(self, budget: Budget) -> None:
        timer = StepTimer(budget, stop_at_epoch_end=False)
        budget.start()
        while True:
            seg = budget.current
            generate = budget.tracer.total("data.generate") if budget.traced else 0.0
            start = time.perf_counter()
            result = run_classification("HAP", DATASET, seed=self.seed, callbacks=[timer])
            seg.op_s.append(time.perf_counter() - start)
            if budget.traced:
                seg.generate_s += budget.tracer.total("data.generate") - generate
            self.accuracies.append(result.accuracy)
            self.last = result
            if not budget.round_end():
                break
        for seg in budget.segments:
            if seg.op_s and seg.generate_s:
                seg.generate_s /= len(seg.op_s)

    def check(self) -> list[tuple[str, bool]]:
        results = [("accuracy_beats_chance", acc >= MIN_ACCURACY) for acc in self.accuracies]
        return results + _reference_checks(self.last.model, self.last.test_graphs[:4])

    def close(self) -> None:
        pass


class ServeWorkload:
    """A seeded classify/embed/top-k mix against ``InferenceService``,
    closed loop with ``IN_FLIGHT`` requests outstanding.  Every served
    answer is checked, so each request is one checked operation."""

    checks_are_ops = True

    def __init__(self, seed: int):
        self.seed = seed
        #: each distinct tuple of answers a round gave, with its count;
        #: normally one entry, so memory does not grow with the rounds
        self.rounds: dict[tuple, int] = {}

    def setup(self, root: Path) -> float:
        start = time.perf_counter()
        distinct = ROUND_REQUESTS - int(ROUND_REQUESTS * REPEAT)
        _, graphs, dim = _generate(
            distinct + INDEX_GRAPHS, np.random.default_rng([self.seed, 1])
        )
        generate_s = time.perf_counter() - start
        self.index_graphs = graphs[:INDEX_GRAPHS]
        self.pool = graphs[INDEX_GRAPHS:]
        self.model = _build_model(dim, 3, self.seed)
        fit(
            self.model, self.index_graphs, np.random.default_rng([self.seed, 5]),
            TrainConfig(epochs=2, batch_size=BATCH, batched=True),
        )
        self.model.eval()
        self.index = build_index(self.model, self.index_graphs)
        self.schedule = self._schedule(np.random.default_rng([self.seed, 4]))
        self._round(self.schedule[:64], None)  # warm-up
        return generate_s

    @staticmethod
    def _schedule(rng) -> list[tuple[str, int]]:
        """Exact shares of each kind and of repeats, in seeded order, so
        every seed asks for the same amount of work."""
        counts = [round(ROUND_REQUESTS * share) for share in MIX.values()]
        counts[0] += ROUND_REQUESTS - sum(counts)
        kinds = np.repeat(list(MIX), counts)
        rng.shuffle(kinds)
        repeat = np.zeros(ROUND_REQUESTS, dtype=bool)
        repeat[1 + rng.permutation(ROUND_REQUESTS - 1)[: int(ROUND_REQUESTS * REPEAT)]] = True
        schedule, seen = [], 0
        for kind, again in zip(kinds, repeat):
            if again:
                graph = int(rng.integers(seen))
            else:
                graph, seen = seen, seen + 1
            schedule.append((str(kind), graph))
        return schedule

    def _round(self, schedule, budget: Budget | None):
        tracer = budget.tracer if budget is not None and budget.traced else None
        count = len(schedule)
        latency = [0.0] * count
        waits = [0.0] * count
        answers = [None] * count
        slots = threading.Semaphore(IN_FLIGHT)
        finished = threading.Event()
        remaining = [count]
        lock = threading.Lock()

        def done(i, submitted, future):
            now = time.monotonic()
            latency[i] = now - submitted
            if tracer is not None:
                waits[i] = tracer.batch_started - submitted
            try:
                answers[i] = _comparable(future.result())
            except Exception as exc:  # a failed request is counted, not raised
                answers[i] = ("error", repr(exc))
            slots.release()
            with lock:
                remaining[0] -= 1
                if remaining[0] == 0:
                    finished.set()

        service = InferenceService(
            self.model, max_batch_size=16, max_wait_s=0.002, index=self.index
        )
        with service:
            for i, (kind, graph) in enumerate(schedule):
                slots.acquire()
                submitted = time.monotonic()
                future = service.submit(
                    kind, self.pool[graph], k=TOP_K if kind == "top_k" else None
                )
                future.add_done_callback(
                    lambda f, i=i, s=submitted: done(i, s, f)
                )
            finished.wait(120)
        stats = service.stats()
        return latency, waits, answers, stats

    def run(self, budget: Budget) -> None:
        budget.start()
        while True:
            seg = budget.current
            traced = budget.traced
            latency, waits, answers, stats = self._round(self.schedule, budget)
            seg.op_s += latency
            seg.work += len(self.schedule)
            seg.steps += stats["batches"]
            seg.cache_hits += stats["cache"]["hits"]
            seg.cache_lookups += stats["cache"]["hits"] + stats["cache"]["misses"]
            if traced:
                seg.wait_s += waits
            key = tuple(answers)
            self.rounds[key] = self.rounds.get(key, 0) + 1
            if not budget.round_end():
                break

    def check(self) -> list[tuple[str, bool]]:
        model = self.model
        vectors = np.stack([model.embed(g).vector for g in self.index_graphs])
        expected = {}
        for kind, graph in self.schedule:
            if (kind, graph) in expected:
                continue
            g = self.pool[graph]
            if kind == "classify":
                expected[kind, graph] = int(model.predict(g))
            else:
                vector = model.embed(g).vector
                if kind == "embed":
                    expected[kind, graph] = vector
                else:
                    distances = np.linalg.norm(vectors - vector[None, :], axis=1)
                    expected[kind, graph] = distances
        results = []
        for answers, count in self.rounds.items():
            for (kind, graph), answer in zip(self.schedule, answers):
                want = expected[kind, graph]
                if isinstance(answer, tuple) and answer[:1] == ("error",):
                    ok = False
                elif kind == "classify":
                    ok = answer == want
                elif kind == "embed":
                    ok = answer == want.tobytes()
                else:
                    ok = _same_neighbours(answer, want)
                results += [(f"serve_{kind}", ok)] * count
        return results

    def close(self) -> None:
        pass


def _comparable(answer):
    """A served answer in hashable form: the class, the embedding's
    bytes, or the top-k keys."""
    if isinstance(answer, list):
        return tuple(n.key for n in answer)
    if hasattr(answer, "vector"):
        return np.asarray(answer.vector).tobytes()
    return int(answer)


def _same_neighbours(keys: tuple, distances: np.ndarray) -> bool:
    """Top-k keys equal a brute-force nearest-neighbour search; keys may
    swap only where their distances tie to float round-off."""
    best = np.argsort(distances, kind="stable")[: len(keys)]
    if list(keys) == [int(i) for i in best]:
        return True
    got = np.array([distances[key] for key in keys])
    return bool(np.allclose(got, distances[best], rtol=0, atol=1e-12))


WORKLOADS = {
    "train-padded": lambda seed: TrainWorkload(seed),
    "train-sparse": lambda seed: TrainWorkload(seed, backend="sparse"),
    "train-stream": lambda seed: TrainWorkload(seed, streaming=True),
    "table3-cell": Table3Workload,
    "serve-mixed": ServeWorkload,
}
