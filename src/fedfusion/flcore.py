"""Federated rounds: client updates, aggregation strategies, distillation fusion.

Strategies
----------
fedavg   sample clients, local SGD, shard-size weighted parameter average.
fedprox  fedavg whose local gradients add mu * (x - x_start), pulling each
         client toward the round's start model; mu = 0 takes the exact
         fedavg code path.
fedavgm  fedavg plus server momentum: v' = beta * v + (x_prev - avg),
         x' = avg - beta * v. beta = 0 reduces to fedavg bit for bit.
feddf    fedavg's average, then refined by distilling the ensemble of
         received client models into it on unlabeled inputs.

All four strategies share one round loop, run_round, and run on one prototype
or on several: clients go to prototypes round-robin unless a map is given, and
the strategy applies to each prototype's average of surviving clients (feddf's
student distills against every surviving model). run_training stamps each
RoundRecord with the round's wall time (wall_ms); per-prototype accuracies are
recorded for several prototypes. Each sampled model's validation logits are
computed once per round; the drop filter and the ensemble accuracy read them.

Local SGD (client_local_update, and through it the centralized reference)
and distillation (feddf_fuse) check their fixed data once, then feed
inputs and target rows to one training step (numerics._trainer). Local SGD
gathers a shard's inputs and one-hot label rows once per epoch, so each
batch is a contiguous slice.

The teachers are fixed while one fusion runs, so feddf_fuse computes their
softmax targets once, over the whole pool, and gathers each batch's rows from
them into buffers. A noise pool's rows are drawn once per fusion
(data.sample_noise_rows) and distilled as a heldout pool's. One epoch cursor
batches every pool kind's rows; it is run state, not pool state, carried by
ServerState.pool_cursor from fusion to fusion, through each round's prototypes
in sorted id order, so a noise fusion continues the previous fusion's epoch.

Determinism: every random stream is derived from (seed, stream tag, round,
client), never from call order, so the order in which a round's clients are
trained cannot change its result. run_round hands them to _Workers.map as
keyed jobs whose work is their local steps (epochs * ceil(shard / batch)).
Under run_training, two or more jobs of _POOL_MIN_STEPS summed work run in a
fork-context pool; results come back in client-id order, so results and the
first error are the serial loop's. A dead worker fails the round, named for
the job it ran: each job writes its worker's pid into a cell of its own, and
_Workers.close, the one way the pool ends, SIGTERMs each worker where it is,
so any other exit code marks the dead; no error or Ctrl-C awaits a running job.

feddf_fuse asks _Workers.scorer for its scorer. From a student whose score
costs _SCORE_MIN_WORK (len(val) * sum(fan_in * fan_out)), a job in the same
pool, handed the student's prototype and val, scores each step on a CPU the
run is not on, while the fusion trains the next step if that step runs
whatever the score is; smaller students score in-process. Both give the
serial loop's steps, results and errors; a dead scorer fails the round, named
for its prototype. The pool shares only a block (the scorer's mailbox and the
job cells) and two semaphores. While it runs, OpenBLAS keeps one thread; on
Linux its workers die with the run. One CPU, no fork, a daemonic process, or
run_round or feddf_fuse alone fork nothing.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from dataclasses import dataclass, field

import numpy as np

from ._errors import ConfigError, ShapeError
from . import numerics
from .data import Dataset, DistillPool, sample_distill_rows, sample_noise_rows
from .models import (
    ParamVector,
    Prototype,
    _forward,
    average_params,
    binarize_values,
    init_params,
    predict_logits,
    unflatten,
)

STRATEGIES = ("fedavg", "fedprox", "fedavgm", "feddf")

# stream tags keep derived RNG streams disjoint from each other
_SAMPLE_STREAM = 1
_CLIENT_STREAM = 2
_POOL_STREAM = 3
_INIT_STREAM = 4
_POOL_MIN_STEPS = 256  # a round's local SGD steps that pay for forking workers
_SCORE_MIN_WORK = 50_000  # len(val) * sum(fan_in * fan_out) of a student that pays for a forked scorer
_SHARED: list = []  # in a forked worker: the run's [block, ready, done], set by _join_run
_COMMAND, _SCORE, _SNAPSHOT = 0, 1, 2  # the block: scorer command and score, the snapshot, then a cell per job


def sampling_rng(seed: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _SAMPLE_STREAM, round_index]))


def client_rng(seed: int, round_index: int, client_id: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed, _CLIENT_STREAM, round_index, client_id])
    )


def pool_rng(seed: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _POOL_STREAM, round_index]))


@dataclass
class DistillConfig:
    """Server-side distillation settings.

    max_steps bounds the Adam steps per fusion; patience stops early once
    validation accuracy has not improved for that many steps. init_mode
    picks the student start: the fresh average or the previous round's
    server model.
    """

    max_steps: int
    patience: int
    pool: DistillPool
    base_lr: float = 1e-3
    init_mode: str = "from_average"

    def __post_init__(self) -> None:
        if self.max_steps < 0:
            raise ConfigError("distill max_steps must be >= 0")
        if self.max_steps > 0 and not 1 <= self.patience <= self.max_steps:
            raise ConfigError(
                f"patience must lie in [1, max_steps], got {self.patience} with max_steps {self.max_steps}"
            )
        if not 0 < self.base_lr < np.inf:
            raise ConfigError("distill base_lr must be finite and positive")
        if self.init_mode not in ("from_average", "from_previous"):
            raise ConfigError(f"unknown init_mode {self.init_mode!r}")


@dataclass
class FLConfig:
    """One experiment arm: population, participation, local schedule, strategy."""

    rounds: int
    client_count: int
    participation: float
    local_epochs: int
    local_lr: float
    local_batch: int
    strategy: str
    seed: int = 0
    prox_mu: float = 0.0
    server_momentum: float = 0.0
    drop_threshold: float | None = None
    distill: DistillConfig | None = None

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")
        if self.client_count < 1:
            raise ConfigError("client_count must be >= 1")
        if not 0.0 < self.participation <= 1.0:
            raise ConfigError("participation must lie in (0, 1]")
        if self.local_epochs < 0:
            raise ConfigError("local_epochs must be >= 0")
        if not 0 < self.local_lr < np.inf:
            raise ConfigError("local_lr must be finite and positive")
        if self.local_batch < 1:
            raise ConfigError("local_batch must be >= 1")
        self.strategy = "feddf" if self.strategy == "feddf_hetero" else self.strategy  # bench/workloads.py's fusion-hetero
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not 0 <= self.prox_mu < np.inf:
            raise ConfigError("prox_mu must be finite and >= 0")
        if self.prox_mu != 0.0 and self.strategy != "fedprox":
            raise ConfigError("prox_mu is only meaningful for strategy 'fedprox'")
        if not 0.0 <= self.server_momentum < 1.0:
            raise ConfigError("server_momentum must lie in [0, 1)")
        if self.server_momentum != 0.0 and self.strategy != "fedavgm":
            raise ConfigError("server_momentum is only meaningful for strategy 'fedavgm'")
        needs_distill = self.strategy == "feddf"
        if needs_distill and self.distill is None:
            raise ConfigError(f"strategy {self.strategy!r} requires a distill config")
        if not needs_distill and self.distill is not None:
            raise ConfigError(f"strategy {self.strategy!r} does not take a distill config")
        if self.drop_threshold is not None and not 0.0 <= self.drop_threshold < 1.0:
            raise ConfigError("drop_threshold must lie in [0, 1)")


@dataclass
class ServerState:
    """Server model(s) keyed by prototype id, momentum buffers and the run's distillation cursor, for any pool kind."""

    params: dict[str, ParamVector]
    velocity: dict[str, np.ndarray]
    round_index: int
    seed: int
    pool_cursor: tuple = (None, 0)  # sample_distill_rows's (epoch order, position), from fusion to fusion

    @staticmethod
    def initialize(prototypes: list[Prototype], seed: int) -> "ServerState":
        if not prototypes:
            raise ConfigError("need at least one prototype")
        ids = [p.id for p in prototypes]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate prototype ids in {ids}")
        classes = {p.n_classes for p in prototypes}
        inputs = {p.n_inputs for p in prototypes}
        if len(classes) != 1 or len(inputs) != 1:
            raise ConfigError("all prototypes must share input width and class count")
        if seed < 0:
            raise ConfigError("seed must be non-negative")
        params = {}
        for i, p in enumerate(prototypes):
            s = int(np.random.SeedSequence([seed, _INIT_STREAM, i]).generate_state(1, np.uint64)[0])
            params[p.id] = init_params(p, s)
        velocity = {p.id: np.zeros(p.n_params, dtype=np.float64) for p in prototypes}
        return ServerState(params, velocity, 0, seed)


@dataclass
class RoundRecord:
    """Per-round metrics.

    per_prototype is filled when the run has several prototypes and is empty
    for one.
    wall_ms is the round's wall time, stamped by run_training; it is left out
    of as_dict() and of equality, since it differs between identical runs.
    """

    round_index: int
    sampled: list[int]
    dropped: list[int]
    acc_averaged: float
    acc_fused: float
    acc_ensemble: float
    distill_steps: int
    per_prototype: dict[str, dict[str, float]] = field(default_factory=dict)
    wall_ms: float = field(default=0.0, compare=False)

    def as_dict(self) -> dict:
        return {
            "round": self.round_index,
            "sampled": self.sampled,
            "dropped": self.dropped,
            "acc_averaged": self.acc_averaged,
            "acc_fused": self.acc_fused,
            "acc_ensemble": self.acc_ensemble,
            "distill_steps": self.distill_steps,
            "acc_per_prototype": self.per_prototype,
        }


def sample_clients(client_count: int, participation: float, rng: np.random.Generator) -> np.ndarray:
    """ceil(participation * client_count) distinct client ids, sorted; at least one.

    The product is rounded to 9 decimals first, so float error cannot add a
    client (0.55 * 100 is 55.00000000000001).
    """
    if client_count < 1:
        raise ConfigError("client_count must be >= 1")
    if not 0.0 < participation <= 1.0:
        raise ConfigError("participation must lie in (0, 1]")
    count = max(1, int(np.ceil(round(participation * client_count, 9))))
    return np.sort(rng.choice(client_count, size=count, replace=False))


def _check_fits(proto: Prototype, ds: Dataset, name: str) -> None:
    """Raise unless ds fits proto, has finite inputs and labels in range."""
    if ds.dim != proto.n_inputs or ds.class_count != proto.n_classes:
        raise ShapeError(
            f"{name} ({ds.dim} dims, {ds.class_count} classes) does not fit "
            f"prototype {proto.id!r}"
        )
    if not np.isfinite(ds.inputs).all():
        raise ValueError("inputs contain non-finite values")
    if ds.labels.min() < 0 or ds.labels.max() >= proto.n_classes:
        raise IndexError(f"labels must lie in [0, {proto.n_classes})")


def top1_accuracy(params: ParamVector, dataset: Dataset) -> float:
    """Fraction of argmax predictions matching labels; ties pick the lowest class."""
    _check_fits(params.prototype, dataset, "dataset")
    return _accuracy(predict_logits(params, dataset.inputs), dataset)


def _accuracy(logits: np.ndarray, dataset: Dataset, out=(None, None)) -> float:  # out: argmax, hit buffers
    hits = np.equal(np.argmax(logits, axis=1, out=out[0]), dataset.labels, out=out[1])
    return np.count_nonzero(hits) / len(dataset)


def client_local_update(
    start: ParamVector,
    shard: Dataset,
    epochs: int,
    lr: float,
    batch_size: int,
    rng: np.random.Generator,
    prox_mu: float = 0.0,
) -> ParamVector:
    """Epochs of shuffled mini-batch SGD on cross-entropy; constant lr.

    prox_mu > 0 adds mu * (x - start) to every gradient, FedProx's pull toward
    the round's start model; mu = 0 takes the untouched SGD path. Binary
    prototypes train through the straight-through estimator. epochs = 0
    returns start's values unchanged.

    Checked once per call: the arguments, that the shard fits the prototype,
    and that the shard's inputs are finite and its labels in range. Checked
    every step, by numerics._trainer's step: the logits (ValueError "softmax
    input contains non-finite values") and the gradient (ValueError
    "gradient contains non-finite values"), so a diverging client fails at
    the step numerics.grad and numerics.opt_step would fail at. The steps
    update one working copy of start's values in place; the result equals a
    loop of numerics.grad and numerics.opt_step bitwise.
    """
    if epochs < 0:
        raise ConfigError("epochs must be >= 0")
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    proto = start.prototype
    _check_fits(proto, shard, "shard")
    values = start.values.copy()
    step = numerics._trainer(proto, values, numerics.OptimizerState.sgd(lr), prox_mu, start.values)
    n = len(shard)
    eye = np.eye(proto.n_classes)
    xs, ts = np.empty_like(shard.inputs), np.empty((n, proto.n_classes))
    for _ in range(epochs):
        order = rng.permutation(n)  # in range, so "clip" clips nothing; "raise" would copy via a temporary
        np.take(shard.inputs, order, axis=0, out=xs, mode="clip")
        np.take(eye, shard.labels[order], axis=0, out=ts, mode="clip")  # one-hot label rows
        for lo in range(0, n, batch_size):
            step(xs[lo : lo + batch_size], ts[lo : lo + batch_size])
    return ParamVector(proto, values)


def _train_client(k: int, start: ParamVector, t: int, cfg: FLConfig, shard: Dataset) -> np.ndarray:
    """Values client k sends in round t from start after training on shard; errors stay raw."""
    model = client_local_update(  # FLConfig keeps prox_mu 0 outside fedprox
        start, shard, cfg.local_epochs, cfg.local_lr, cfg.local_batch, client_rng(cfg.seed, t, k), cfg.prox_mu
    )
    if start.prototype.precision == "binary_ste":  # clients transmit the binarized copy, not the master values
        return binarize_values(start.prototype, model.values)
    return model.values


def _scorer(proto: Prototype, val: Dataset, snapshot: np.ndarray):
    """score(): top-1 accuracy on val of proto with the values in snapshot, through buffers made once."""
    layers = unflatten(proto, snapshot)
    out = [(np.empty((len(val), w)), np.empty((len(val), w))) for w in proto.layer_widths[1:]]
    hits = (np.empty(len(val), dtype=np.intp), np.empty(len(val), dtype=bool))
    return lambda: _accuracy(_forward(proto, layers, val.inputs, out)[0], val, hits)


def _blas_threads(n: int) -> int:
    """Set numpy's OpenBLAS thread count to n and return the old one; 0 if the BLAS has no such call."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        old = lib.scipy_openblas_get_num_threads64_()
        lib.scipy_openblas_set_num_threads64_(n)
        return old
    except (ImportError, OSError, AttributeError):
        return 0


def _join_run(parent: int, shared: list) -> None:
    """Pool initializer: keep the run's shared state, let SIGTERM kill; on Linux, die with parent (the run)."""
    _SHARED.extend(shared)
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # a Ctrl-C reaches the whole process group; the run ends its workers
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # not a handler it inherited: map reads exit codes
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})  # a SIGTERM held since the fork kills here
    getattr(ctypes.CDLL(None), "prctl", lambda *args: 0)(1, ctypes.c_ulong(9))  # PR_SET_PDEATHSIG, SIGKILL
    if os.getppid() != parent:  # the run died before the call
        os._exit(1)


def _held_job(cell: int, fn, args: tuple):
    """fn(*args) in a forked worker, its pid in the job's cell of the shared block: map names the job if it dies."""
    _SHARED[0][cell] = os.getpid()
    return fn(*args)


def _score_job(proto: Prototype, val: Dataset) -> None:
    """A forked scorer: each post scores the shared snapshot on val into block[_SCORE]; a post of -1 ends the job. Where
    the OS allows, it runs off the run's CPU (field 39 of /proc/<pid>/stat) and gives the worker its CPUs back."""
    block, ready, done = _SHARED
    score, parent, cpus = _scorer(proto, val, block[_SNAPSHOT:][: proto.n_params]), os.getppid(), None
    try:  # on the run's CPU, the scorer and the training step can queue behind each other while the other CPU idles
        with open(f"/proc/{parent}/stat") as fh:
            cpus, on = os.sched_getaffinity(0), int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, cpus - {on} or cpus)
    except (OSError, AttributeError):  # no /proc or sched_setaffinity; a CPU set the OS refuses
        cpus = None
    while True:
        while not ready.acquire(False):  # polled: waking from a blocking wait costs what the overlap saves
            if os.getppid() != parent:  # the run died unsignalled (no prctl); on Linux the syscall paces the poll
                os._exit(1)
        if block[_COMMAND] < 0:
            if cpus:  # the set the OS took a subset of: later client jobs in this worker use every CPU
                os.sched_setaffinity(0, cpus)
            return
        block[_SCORE] = score()
        done.release()


class _Workers:
    """run_training's fork pool, made at the first jobs or fusion worth a fork; one without prototypes never forks."""
    pool = None

    def __init__(self, prototypes: list[Prototype] = (), clients: int = 0) -> None:
        self.size = max((p.n_params for p in prototypes), default=0)  # the largest snapshot a scorer reads
        self.clients = clients  # the most jobs a pooled map takes: the block has a cell for each

    def _fork(self, n: int) -> bool:
        """Whether the pool runs; forks it with min(cpus, n) workers given prototypes, 2+ CPUs, fork and no daemon."""
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        if self.pool is None and self.size and cpus >= 2:
            import multiprocessing
            if "fork" in multiprocessing.get_all_start_methods() and not multiprocessing.current_process().daemon:
                import mmap
                from concurrent.futures import ProcessPoolExecutor
                fork, n = multiprocessing.get_context("fork"), min(cpus, n)  # a dead worker fails the pending jobs
                self.block = np.frombuffer(mmap.mmap(-1, 8 * (_SNAPSHOT + self.size + self.clients)))
                self.ready, self.done = fork.Semaphore(0), fork.Semaphore(0)
                self.threads = _blas_threads(1)  # a second BLAS thread would fight the workers for their core
                mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})  # not for a handler a worker inherits
                try:  # the first submit forks every worker, which holds any SIGTERM until _join_run
                    self.pool = ProcessPoolExecutor(n, fork, _join_run, (os.getpid(), [self.block, self.ready, self.done]))
                    self.pool.submit(int)
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        return self.pool is not None

    def map(self, fn, jobs: list[tuple], label: str) -> list:
        """fn(*args) for each (key, args, work) job, given and returned in key order; the lowest failing key's error
        is raised as "<label> <key>: <error>". Two or more jobs of _POOL_MIN_STEPS summed work run in the pool, if
        it forks, most work first. A dead worker's BrokenProcessPool names the job it ran; close ends the rest."""
        forked = len(jobs) > 1 and sum(job[2] for job in jobs) >= _POOL_MIN_STEPS and self._fork(len(jobs))
        if forked:
            cells = self.block[_SNAPSHOT + self.size :]  # cells[i]: pid of the worker that started job i; 0, none yet
            cells[:] = 0
        results, pending = [], {}
        try:  # a worker that dies at once breaks the pool while later jobs are still being submitted
            for i in sorted(range(len(jobs)), key=lambda i: -jobs[i][2]) if forked else ():
                pending[i] = self.pool.submit(_held_job, _SNAPSHOT + self.size + i, fn, jobs[i][1])
            for i, (_, args, _) in enumerate(jobs):
                results.append(pending[i].result() if forked else fn(*args))
        except (ValueError, RuntimeError) as e:  # a failing job, such as a diverging client; BrokenProcessPool
            from concurrent.futures.process import BrokenProcessPool
            held = [len(results)]  # the lowest failing key, as the serial loop meets it
            if isinstance(e, BrokenProcessPool):  # the pool and close end live workers with SIGTERM; others died
                workers = list(self.pool._processes.values())  # before close() drops them; reaped ones too
                self.close()
                dead = {p.pid for p in workers if p.exitcode != -signal.SIGTERM}
                held = [i for i, job in pending.items() if job.exception() and int(cells[i]) in dead]
                if not held:  # the dead worker was running no job of this map
                    raise
            raise type(e)(f"{label} {jobs[min(held)][0]}: {e}") from e
        return results

    def scorer(self, proto: Prototype, val: Dataset) -> tuple:
        """(snapshot, post, wait, end) for a fusion of proto: post() scores the values in snapshot, wait() returns that
        score and end() ends the scorer. A forked job, handed val, scores when proto's validation pass pays and the pool
        forks; a dead one fails wait with BrokenProcessPool. Otherwise wait scores in-process."""
        w = proto.layer_widths
        if not (len(val) * sum(a * b for a, b in zip(w, w[1:])) >= _SCORE_MIN_WORK and self._fork(2)):
            snapshot = np.empty(proto.n_params)
            return snapshot, lambda: None, _scorer(proto, val, snapshot), lambda: None
        self.job = self.pool.submit(_score_job, proto, val)

        def post(command: float = 1.0) -> None:  # 1 scores the snapshot; -1 ends the job
            self.block[_COMMAND] = command
            self.ready.release()

        def wait() -> float:  # blocks, so the pool's threads get the GIL to start the job; checks it each ms
            while not self.done.acquire(True, 0.001):
                if self.job.done():
                    raise self.job.exception() or RuntimeError("the scorer job ended early")
            return float(self.block[_SCORE])
        return self.block[_SNAPSHOT:][: proto.n_params], post, wait, lambda: post(-1.0) or self.job.result()

    def close(self) -> None:
        """The one way the pool ends: SIGTERM its workers wherever they are, reap them, give BLAS its threads back."""
        if self.pool is not None:
            for worker in self.pool._processes.values():
                worker.terminate()  # a running job ends here, not at its return; a reaped worker is left alone
            self.pool.shutdown(cancel_futures=True)
            self.pool = None
            _blas_threads(self.threads)


def _kept_indices(accs: list[float], threshold: float | None) -> list[int]:
    kept = [i for i, a in enumerate(accs) if threshold is None or a > threshold]
    return kept or [int(np.argmax(accs))]  # all at or below the threshold: the best one


def ensemble_logits(teachers: list[ParamVector], inputs: np.ndarray) -> np.ndarray:
    """Mean of the teachers' logits; teachers may differ in architecture."""
    if not teachers:
        raise ValueError("ensemble needs at least one teacher")
    classes = {t.prototype.n_classes for t in teachers}
    if len(classes) != 1:
        raise ShapeError(f"teachers disagree on class count: {sorted(classes)}")
    return np.stack([predict_logits(t, inputs) for t in teachers]).mean(axis=0)


def ensemble_accuracy(teachers: list[ParamVector], dataset: Dataset) -> float:
    return _accuracy(ensemble_logits(teachers, dataset.inputs), dataset)


def feddf_fuse(
    teachers: list[ParamVector],
    init: ParamVector,
    cfg: DistillConfig,
    val: Dataset,
    rng: np.random.Generator,
    cursor: tuple = (None, 0),
    _workers: _Workers | None = None,
) -> tuple[ParamVector, int, tuple]:
    """Distill the teachers' averaged logits into a student started at init.

    Adam with cosine-annealed lr over max_steps; after each step the student
    is scored on val, the best snapshot is tracked (seeded with init itself),
    and the loop stops early once patience steps pass without improvement.
    Returns (best snapshot, steps actually taken, cursor after the last
    batch). The rows distilled are a heldout pool's inputs, or a noise pool's
    rows drawn from rng once, before the first step (sample_noise_rows); for
    either kind the batches continue from cursor, as sample_distill_rows
    threads it, and a cursor over another row count is its ValueError. Equal
    arguments and equally seeded rngs give equal results. A binary_ste
    student trains through its clients' straight-through step and is scored
    binarized, as it is deployed; the returned values are its master values.

    The targets come from one ensemble pass over all the pool's rows, made
    before the first step; each step gathers its batch's rows from them.

    Checked once per fusion, before any draw from rng: the teachers' class
    count is the student's; val fits the student and has finite inputs. Each
    teacher's checked forward checks the pool's rows once; targets are their
    softmax, not re-checked. Every step checks the student's logits and
    gradient (numerics._trainer). The student trains in place; a copy of each
    step is scored through models._forward by the scorer of _workers, or of
    an in-process _Workers() (see the module docstring). The steps trained,
    result, cursor, rng state and errors equal a loop of numerics.grad,
    numerics.opt_step and top1_accuracy.
    """
    if not teachers:
        raise ValueError("feddf_fuse needs at least one teacher")
    proto = init.prototype
    if cfg.pool.dim != proto.n_inputs:
        raise ShapeError(f"pool dim {cfg.pool.dim} != model input width {proto.n_inputs}")
    if any(t.prototype.n_classes != proto.n_classes for t in teachers):
        raise ShapeError(f"teachers' class counts differ from the student's {proto.n_classes}")
    if cfg.max_steps == 0:
        return init.copy(), 0, cursor
    _check_fits(proto, val, "val")
    opt = numerics.OptimizerState.adam(cfg.base_lr, proto.n_params, schedule="cosine", total_steps=cfg.max_steps)
    values = init.values.copy()
    step = numerics._trainer(proto, values, opt)

    size = cfg.pool.batch_size
    rows = cfg.pool.inputs if cfg.pool.kind == "heldout" else sample_noise_rows(cfg.pool, rng)
    pool_targets = numerics.softmax(ensemble_logits(teachers, rows))
    batch, targets = np.empty((size, proto.n_inputs)), np.empty((size, proto.n_classes))

    def advance() -> None:  # draw the next batch and train one step on it
        nonlocal cursor
        picked, cursor = sample_distill_rows(len(rows), size, rng, cursor)  # in range, as a local-SGD epoch's order
        np.take(rows, picked, axis=0, out=batch, mode="clip")
        np.take(pool_targets, picked, axis=0, out=targets, mode="clip")
        step(batch, targets)

    snapshot, post, wait, end = (_workers or _Workers()).scorer(proto, val)  # after the targets: a scorer spins
    try:  # step 0 scores init itself, which seeds the best snapshot
        best_acc, best_step, ahead = -1.0, 0, True
        for s in range(cfg.max_steps + 1):
            if not ahead:  # step s was not trained while step s-1 was scored
                advance()
            snapshot[:] = values
            post()
            ahead = s < cfg.max_steps and s - best_step < cfg.patience  # step s+1 runs whatever s scores
            try:
                if ahead:
                    advance()
            finally:  # an error waits for the pending score: the scorer never ends while a post is in flight
                acc = wait()
            if acc > best_acc:
                best_acc, best_values, best_step = acc, snapshot.copy(), s
            if s - best_step >= cfg.patience:
                break
    finally:
        end()
    return ParamVector(proto, best_values), s, cursor


def run_round(
    state: ServerState,
    cfg: FLConfig,
    shards: list[Dataset],
    val: Dataset,
    client_prototypes: list[str] | None = None,
    capture: dict | None = None,
    _workers: _Workers | None = None,
) -> tuple[ServerState, RoundRecord]:
    """One round of any strategy; returns (new state, record).

    client_prototypes maps client id -> prototype id (None: client k gets the
    (k % len)-th prototype of state.params, round-robin). Surviving clients
    are averaged per prototype group, weighted by shard size; the strategy then
    keeps each average (fedavg, fedprox), applies the group's server momentum
    (fedavgm), or distills the ensemble of every surviving model into a student
    started from it (feddf). Prototypes without a surviving client keep their
    parameters. capture receives "client_models" and the group average
    "averaged" (the last group's when there are several).
    """
    if state.seed != cfg.seed:
        raise ConfigError(f"state seed {state.seed} != config seed {cfg.seed}")
    if len(shards) != cfg.client_count:
        raise ConfigError(f"{cfg.client_count} clients but {len(shards)} shards")
    if client_prototypes is None:
        pids = list(state.params)
        client_prototypes = [pids[k % len(pids)] for k in range(cfg.client_count)]
    if len(client_prototypes) != cfg.client_count:
        raise ConfigError(f"client_prototypes maps {len(client_prototypes)} clients, expected {cfg.client_count}")
    unknown = sorted(set(client_prototypes) - set(state.params))
    if unknown:
        raise ConfigError(f"client_prototypes references undeclared prototypes {unknown}")
    t = state.round_index + 1
    ids = sample_clients(cfg.client_count, cfg.participation, sampling_rng(cfg.seed, t))
    starts = {k: state.params[client_prototypes[k]] for k in ids.tolist()}
    steps = {k: cfg.local_epochs * -(-len(shards[k]) // cfg.local_batch) for k in starts}  # a client job's work
    jobs = [(k, (k, x, t, cfg, shards[k]), steps[k]) for k, x in starts.items()]
    values = (_workers or _Workers()).map(_train_client, jobs, f"round {t}, client")
    trained = [ParamVector(x.prototype, v) for x, v in zip(starts.values(), values)]
    val_logits = [predict_logits(m, val.inputs) for m in trained]
    kept_idx = _kept_indices([_accuracy(z, val) for z in val_logits], cfg.drop_threshold)
    kept_ids = [int(ids[i]) for i in kept_idx]
    kept_models = [trained[i] for i in kept_idx]
    dropped = [int(k) for k in ids if int(k) not in set(kept_ids)]
    acc_ens = _accuracy(np.stack([val_logits[i] for i in kept_idx]).mean(axis=0), val)
    prng, cursor = pool_rng(cfg.seed, t), state.pool_cursor
    new_params = dict(state.params)
    velocity = dict(state.velocity)
    per_proto: dict[str, dict[str, float]] = {}
    distill_steps = 0
    for pid in sorted(state.params):
        members = [i for i, k in enumerate(kept_ids) if client_prototypes[k] == pid]
        if not members:
            continue
        x_prev = state.params[pid]
        weights = [len(shards[kept_ids[i]]) for i in members]
        avg = average_params([kept_models[i] for i in members], weights)
        if cfg.strategy == "fedavgm":
            beta = cfg.server_momentum
            v_prev = state.velocity[pid]
            new_values = avg.values if beta == 0.0 else avg.values - beta * v_prev
            new = ParamVector(x_prev.prototype, new_values)
            velocity[pid] = beta * v_prev + (x_prev.values - avg.values)
        elif cfg.distill is not None:  # feddf
            init = avg if cfg.distill.init_mode == "from_average" else x_prev
            try:
                new, steps, cursor = feddf_fuse(kept_models, init, cfg.distill, val, prng, cursor, _workers)
            except (ValueError, RuntimeError) as e:  # a diverging student; BrokenProcessPool
                raise type(e)(f"round {t}, prototype {pid}: {e}") from e
            distill_steps = max(distill_steps, steps)
        else:  # fedavg, fedprox
            new = avg
        new_params[pid] = new
        acc_avg_p = top1_accuracy(avg, val)
        per_proto[pid] = {
            "acc_averaged": acc_avg_p,
            "acc_fused": acc_avg_p if new is avg else top1_accuracy(new, val),
        }
        if capture is not None:
            capture["averaged"] = avg
    if capture is not None:
        capture["client_models"] = {int(k): m for k, m in zip(ids, trained)}
    record = RoundRecord(
        round_index=t,
        sampled=[int(k) for k in ids],
        dropped=dropped,
        acc_averaged=float(np.mean([d["acc_averaged"] for d in per_proto.values()])),
        acc_fused=float(np.mean([d["acc_fused"] for d in per_proto.values()])),
        acc_ensemble=acc_ens,
        distill_steps=distill_steps,
        per_prototype=per_proto if len(state.params) > 1 else {},
    )
    return ServerState(new_params, velocity, t, state.seed, cursor), record


def run_training(
    cfg: FLConfig,
    shards: list[Dataset],
    val: Dataset,
    prototypes: list[Prototype],
    client_prototypes: list[str] | None = None,
    capture_final: dict | None = None,
) -> tuple[ServerState, list[RoundRecord]]:
    """Full T-round run from a fresh server state; pure function of cfg + data.

    The one exception is each record's wall_ms, the wall time of its
    run_round call. capture_final is the last round's capture. No forked
    worker outlives the call.
    """
    state = ServerState.initialize(prototypes, cfg.seed)
    records: list[RoundRecord] = []
    workers = _Workers(prototypes, len(shards))
    try:
        for r in range(cfg.rounds):
            cap = capture_final if r == cfg.rounds - 1 else None
            tic = time.perf_counter()
            state, rec = run_round(state, cfg, shards, val, client_prototypes, cap, workers)
            rec.wall_ms = (time.perf_counter() - tic) * 1000.0
            records.append(rec)
    finally:
        workers.close()
    return state, records
