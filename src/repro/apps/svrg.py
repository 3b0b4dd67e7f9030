"""SVRG logistic regression: the host/NDA collaboration case study (Section IV).

The algorithm (Johnson & Zhang) alternates two tasks per outer iteration:

1. **Summarization** — the full-data average gradient ``g`` (the correction
   term), a streaming, low-arithmetic-intensity pass over the entire input
   matrix.  This is the part offloaded to the NDAs (Figure 8).
2. **Inner loop** — one epoch of stochastic updates of the model ``w``
   (``epoch_fraction`` × N of them) using the variance-reduced gradient, a
   cache-friendly tight loop that stays on the host.

Three execution variants are modelled, exactly as evaluated in Figure 15:

* ``HOST_ONLY`` — both tasks on the host, serialized.
* ``ACCELERATED`` — summarization on the NDAs, still serialized with the
  host's inner loop.
* ``DELAYED_UPDATE`` — summarization and inner loop run in parallel
  (enabled by Chopim's concurrent access); the inner loop uses the
  correction term of the *previous* epoch (staleness), trading per-iteration
  convergence for wall-clock overlap.

Convergence is computed functionally with numpy; wall-clock time comes from a
:class:`SvrgTimingModel` whose bandwidth/latency inputs are measured on the
simulator (:func:`measure_svrg_timing`) or supplied analytically.  The two
never mix: :meth:`SvrgTrainer.train` computes a timing-free *trajectory*
(losses plus the delayed variant's segment schedule) and then sums its
*timeline* from the timing model, so trainers that differ only in timing
share one trajectory (:data:`_TRAJECTORY_MEMO`).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.apps import require_numpy
from repro.apps.datasets import SyntheticClassificationDataset, make_dataset
from repro.config import SystemConfig, default_config, scaled_config

np = require_numpy()

#: Reference optima solved in this process, keyed by what the solve depends
#: on: dataset content, ``l2_lambda`` and the solver's iterations and step.
#: Every fig15 point retrains the same dataset at another NDA count, so a
#: worker (or the serial path) solves once and the later trainers reuse it.
_OPTIMUM_MEMO: Dict[Tuple[bytes, int, float, int, float], float] = {}

#: Training trajectories computed in this process, keyed by what the numerics
#: depend on: dataset content and ``classes``, ``l2_lambda``, ``momentum``,
#: the learning rate, the epoch length, the outer iterations, the delayed
#: variant's segment length (0 for the serialized variants) and the RNG
#: state at entry.  Timing is not in the key: fig15b's points differ only in
#: their NDA count, so the later points re-time the first point's
#: trajectories instead of retraining them.
_TRAJECTORY_MEMO: Dict[tuple, _Trajectory] = {}


class _Trajectory(NamedTuple):
    """A memoised training run: what :meth:`SvrgTrainer._trajectory` returns
    plus the generator state the run left behind."""

    losses: Tuple[float, ...]
    segments: Tuple[int, ...]
    rng_state: dict


def _frozen(value):
    """A hashable copy of a ``bit_generator.state`` dict (nested dicts of
    names and integers for the trainer's PCG64)."""
    if isinstance(value, dict):
        return tuple((k, _frozen(v)) for k, v in sorted(value.items()))
    return value


class SvrgVariant(enum.Enum):
    HOST_ONLY = "host_only"
    ACCELERATED = "accelerated"
    DELAYED_UPDATE = "delayed_update"


@dataclass
class SvrgConfig:
    """Hyper-parameters (Table II machine-learning configuration)."""

    learning_rate: float = 4e-3
    l2_lambda: float = 1e-3
    momentum: float = 0.9
    #: Inner-loop length as a fraction of N (the paper sweeps N, N/2, N/4).
    epoch_fraction: float = 1.0
    outer_iterations: int = 20
    seed: int = 11


@dataclass
class SvrgTimingModel:
    """Wall-clock cost model of the SVRG tasks.

    fig15 builds it with :meth:`analytic` from peak bandwidths unless
    ``measure=True``, which feeds it :func:`measure_svrg_timing`'s simulator
    runs instead (ROADMAP item 3).

    ``host_stream_gbs`` is the host's effective streaming bandwidth over the
    input matrix (used for host-only summarization), ``nda_stream_gbs`` the
    aggregate NDA bandwidth achieved *while the host keeps running*
    (concurrent access), and ``host_inner_iter_us`` the host time per inner
    stochastic update of a ``d``-dimensional model.
    """

    host_stream_gbs: float
    nda_stream_gbs: float
    #: Host time per inner stochastic update, per 1024 model features.  The
    #: default makes one full inner epoch cost about as much as one host
    #: summarization pass, which is the regime the paper's Figure 15 sits in
    #: (its best host-only epoch is N and the accelerated optimum moves to
    #: N/4 once summarization gets cheap).
    host_inner_iter_us_per_kfeature: float = 0.35
    exchange_us: float = 2.0
    num_ndas: int = 4

    @classmethod
    def analytic(cls, num_ndas: int = 4,
                 config: Optional[SystemConfig] = None) -> "SvrgTimingModel":
        """A model derived from peak bandwidths (no simulation required).

        The host streams at roughly two-thirds of its peak channel bandwidth;
        each NDA contributes roughly two-thirds of one rank's internal
        bandwidth when sharing the rank with the host.  Bandwidths come from
        the active configuration's organization (the paper baseline's
        19.2 GB/s per rank when no config is given), so retargeting the
        platform retimes the model automatically.
        """
        org = (config or default_config()).org
        per_rank_gbs = org.peak_rank_internal_bandwidth_gbs
        return cls(
            host_stream_gbs=org.channels * per_rank_gbs * 0.66,
            nda_stream_gbs=num_ndas * per_rank_gbs * 0.6,
            num_ndas=num_ndas,
        )

    def summarize_seconds(self, dataset_bytes: int, on_nda: bool) -> float:
        """Time for one full-data average-gradient pass."""
        bandwidth = self.nda_stream_gbs if on_nda else self.host_stream_gbs
        bandwidth = max(bandwidth, 1e-3)
        # The summarization streams the matrix once for the GEMV and once for
        # the per-sample AXPY accumulation (Figure 8).
        return 2.0 * dataset_bytes / (bandwidth * 1e9)

    def inner_loop_seconds(self, iterations: int, num_features: int) -> float:
        per_iter = self.host_inner_iter_us_per_kfeature * (num_features / 1024.0)
        return iterations * per_iter * 1e-6

    def exchange_seconds(self) -> float:
        """Host/NDA exchange of the small s and g vectors (cache-bypassed)."""
        return self.exchange_us * 1e-6


@dataclass
class SvrgHistoryPoint:
    """One outer-iteration sample of the training trajectory."""

    outer_iteration: int
    wall_clock_seconds: float
    training_loss: float
    loss_gap: float


class SvrgTrainer:
    """Multi-class ℓ2-regularized logistic regression trained with SVRG."""

    def __init__(self, dataset: Optional[SyntheticClassificationDataset] = None,
                 config: Optional[SvrgConfig] = None,
                 timing: Optional[SvrgTimingModel] = None) -> None:
        self.dataset = dataset or make_dataset()
        self.config = config or SvrgConfig()
        self.timing = timing or SvrgTimingModel.analytic()
        self.rng = np.random.default_rng(self.config.seed)
        self._labels_one_hot = self.dataset.one_hot()
        #: The design matrix in the precision the model math runs in,
        #: converted once; every method below reads this one array.
        self._x = self.dataset.features.astype(np.float64)
        self._dataset_digest: Optional[bytes] = None

    # ------------------------------------------------------------------ #
    # Model math
    # ------------------------------------------------------------------ #

    @property
    def num_features(self) -> int:
        return self.dataset.num_features

    @property
    def num_classes(self) -> int:
        return self.dataset.classes

    def _init_weights(self) -> np.ndarray:
        return np.zeros((self.num_features, self.num_classes), dtype=np.float64)

    @staticmethod
    def _softmax(z: np.ndarray) -> np.ndarray:
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)

    def _forward(self, w: np.ndarray) -> np.ndarray:
        """Class probabilities of every sample: the full-data forward pass
        that :meth:`loss` and :meth:`full_gradient` share."""
        return self._softmax(self._x @ w)

    def _loss_of(self, w: np.ndarray, probs: np.ndarray) -> float:
        n = self.dataset.num_samples
        nll = -np.log(probs[np.arange(n), self.dataset.labels] + 1e-30).mean()
        reg = 0.5 * self.config.l2_lambda * float((w * w).sum())
        return float(nll + reg)

    def _gradient_of(self, w: np.ndarray, probs: np.ndarray) -> np.ndarray:
        diff = probs - self._labels_one_hot
        grad = self._x.T @ diff / self.dataset.num_samples
        return grad + self.config.l2_lambda * w

    def loss(self, w: np.ndarray) -> float:
        """Mean cross-entropy plus the ℓ2 penalty."""
        return self._loss_of(w, self._forward(w))

    def full_gradient(self, w: np.ndarray) -> np.ndarray:
        """The summarization task: average gradient over the whole dataset."""
        return self._gradient_of(w, self._forward(w))

    def sample_gradient(self, w: np.ndarray, index: int) -> np.ndarray:
        x = self._x[index]
        probs = self._softmax(x @ w)
        diff = probs - self._labels_one_hot[index]
        return np.outer(x, diff) + self.config.l2_lambda * w

    def optimum_loss(self, iterations: int = 300, lr: float = 0.5) -> float:
        """Reference optimum used for the "loss - optimum" axis of Figure 15a.

        Full-batch gradient descent with Nesterov-style momentum is cheap at
        these problem sizes and monotone enough for a reference value.  It
        depends only on the dataset, ``l2_lambda`` and the solver arguments,
        so it is solved once per process (:data:`_OPTIMUM_MEMO`).
        """
        key = (self._content_digest(), self.dataset.classes,
               self.config.l2_lambda, iterations, lr)
        optimum = _OPTIMUM_MEMO.get(key)
        if optimum is None:
            w = self._init_weights()
            velocity = np.zeros_like(w)
            for _ in range(iterations):
                grad = self.full_gradient(w)
                velocity = 0.9 * velocity - lr * grad
                w = w + velocity
            optimum = _OPTIMUM_MEMO[key] = self.loss(w)
        return optimum

    def _content_digest(self) -> bytes:
        """Hash of the dataset's features and labels (dtype, shape, bytes)."""
        if self._dataset_digest is None:
            digest = hashlib.blake2b(digest_size=16)
            for array in (self.dataset.features, self.dataset.labels):
                digest.update(f"{array.dtype.str}{array.shape}".encode())
                digest.update(np.ascontiguousarray(array))
            self._dataset_digest = digest.digest()
        return self._dataset_digest

    # ------------------------------------------------------------------ #
    # Training variants
    # ------------------------------------------------------------------ #

    def _inner_loop(self, w: np.ndarray, snapshot: np.ndarray,
                    correction: np.ndarray, iterations: int,
                    learning_rate: float,
                    velocity: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
        """``iterations`` variance-reduced stochastic updates (vectorized in
        mini-batches for speed; semantics are per-sample SVRG).  The momentum
        ``velocity`` persists across calls within one training run."""
        batch = 32
        velocity = np.zeros_like(w) if velocity is None else velocity
        x_all = self._x
        done = 0
        while done < iterations:
            take = min(batch, iterations - done)
            idx = self.rng.integers(0, self.dataset.num_samples, size=take)
            x = x_all[idx]
            probs_w = self._softmax(x @ w)
            probs_s = self._softmax(x @ snapshot)
            targets = self._labels_one_hot[idx]
            grad_w = x.T @ (probs_w - targets) / take + self.config.l2_lambda * w
            grad_s = x.T @ (probs_s - targets) / take + self.config.l2_lambda * snapshot
            update = grad_w - grad_s + correction
            velocity = self.config.momentum * velocity - learning_rate * update
            w = w + velocity
            done += take
        return w, velocity

    def train(self, variant: SvrgVariant,
              learning_rate: Optional[float] = None,
              epoch_fraction: Optional[float] = None,
              outer_iterations: Optional[int] = None) -> List[SvrgHistoryPoint]:
        """Run SVRG under one execution variant; returns the loss trajectory
        on the timing model's wall clock."""
        lr = learning_rate if learning_rate is not None else self.config.learning_rate
        fraction = epoch_fraction if epoch_fraction is not None else self.config.epoch_fraction
        outer = outer_iterations if outer_iterations is not None else self.config.outer_iterations
        epoch_len = max(1, int(self.dataset.num_samples * fraction))

        optimum = self.optimum_loss()
        timing = self.timing
        summarize_on_nda = variant is not SvrgVariant.HOST_ONLY
        summarize_time = timing.summarize_seconds(self.dataset.nbytes, summarize_on_nda)
        segment_len = 0
        if variant is SvrgVariant.DELAYED_UPDATE:
            # Delayed update exchanges whenever the NDAs finish a correction
            # term, so the host runs one *segment* of inner iterations per
            # exchange; more NDAs mean shorter segments and a fresher (less
            # stale) term.
            per_iter_time = timing.inner_loop_seconds(1, self.num_features)
            segment_len = max(1, min(epoch_len, int(round(
                summarize_time / max(per_iter_time, 1e-12)))))
        losses, segments = self._trajectory(lr, epoch_len, outer, segment_len)

        # The timeline: each task's time goes into the wall clock in the
        # order the tasks run.
        exchange_time = timing.exchange_seconds()
        if segments:
            segment_times = [max(summarize_time,
                                 timing.inner_loop_seconds(segment, self.num_features))
                             for segment in segments]
        else:
            inner_time = timing.inner_loop_seconds(epoch_len, self.num_features)
        wall_clock = 0.0
        history = [SvrgHistoryPoint(0, 0.0, losses[0],
                                    max(losses[0] - optimum, 1e-16))]
        for outer_it, current_loss in enumerate(losses[1:], start=1):
            if segments:
                for segment_time in segment_times:
                    wall_clock += segment_time
                    wall_clock += exchange_time
            else:
                wall_clock += summarize_time
                wall_clock += inner_time
                if variant is SvrgVariant.ACCELERATED:
                    wall_clock += exchange_time
            history.append(SvrgHistoryPoint(
                outer_it, wall_clock, current_loss,
                max(current_loss - optimum, 1e-16),
            ))
        return history

    def _trajectory(self, lr: float, epoch_len: int, outer: int,
                    segment_len: int) -> Tuple[Tuple[float, ...], Tuple[int, ...]]:
        """The loss after each outer iteration (initial loss first) and the
        segment lengths of one delayed-update epoch (empty when serialized).

        Depends on the numerics and the RNG stream only, so it is memoised
        per process (:data:`_TRAJECTORY_MEMO`).  A hit moves the generator
        to where the cold run left it, so later calls draw the same stream.
        """
        key = (self._content_digest(), self.dataset.classes,
               self.config.l2_lambda, self.config.momentum, lr, epoch_len,
               outer, segment_len, _frozen(self.rng.bit_generator.state))
        trajectory = _TRAJECTORY_MEMO.get(key)
        if trajectory is None:
            segments: Tuple[int, ...] = ()
            if segment_len:
                whole, rest = divmod(epoch_len, segment_len)
                segments = (segment_len,) * whole + ((rest,) if rest else ())
                losses = self._delayed_losses(lr, outer, segments)
            else:
                losses = self._serialized_losses(lr, epoch_len, outer)
            trajectory = _TRAJECTORY_MEMO[key] = _Trajectory(
                tuple(losses), segments, self.rng.bit_generator.state)
        else:
            self.rng.bit_generator.state = trajectory.rng_state
        return trajectory.losses, trajectory.segments

    def _serialized_losses(self, lr: float, epoch_len: int,
                           outer: int) -> List[float]:
        """Summarize, then run the inner loop; the forward pass that scores
        one outer iteration is the next iteration's summarization."""
        w = self._init_weights()
        velocity = np.zeros_like(w)
        probs = self._forward(w)
        losses = [self._loss_of(w, probs)]
        for _ in range(outer):
            snapshot = w
            correction = self._gradient_of(snapshot, probs)
            # Free the N x classes matrix before the next pass allocates
            # its own, so sharing it does not raise the peak footprint.
            del probs
            w, velocity = self._inner_loop(w, snapshot, correction,
                                           epoch_len, lr, velocity)
            probs = self._forward(w)
            losses.append(self._loss_of(w, probs))
        return losses

    def _delayed_losses(self, lr: float, outer: int,
                        segments: Tuple[int, ...]) -> List[float]:
        """Parallel execution: the host's inner loop overlaps the NDA
        summarization and uses the correction term of the previous exchange
        (one NDA pass stale).  An outer iteration ends on an exchange, so
        its loss reuses the last summarization's forward pass."""
        w = self._init_weights()
        velocity = np.zeros_like(w)
        probs = self._forward(w)
        losses = [self._loss_of(w, probs)]
        snapshot = stale_snapshot = w
        correction = stale_correction = self._gradient_of(snapshot, probs)
        for _ in range(outer):
            for segment in segments:
                del probs  # dead from here on; see _serialized_losses
                w, velocity = self._inner_loop(w, stale_snapshot, stale_correction,
                                               segment, lr, velocity)
                stale_snapshot, stale_correction = snapshot, correction
                snapshot = w
                probs = self._forward(snapshot)
                correction = self._gradient_of(snapshot, probs)
            losses.append(self._loss_of(w, probs))
        return losses

    def train_until(self, variant: SvrgVariant, gap_threshold: float,
                    learning_rate: Optional[float] = None,
                    epoch_fraction: Optional[float] = None,
                    max_outer_iterations: int = 100) -> List[SvrgHistoryPoint]:
        """Train until the loss gap drops below ``gap_threshold``.

        This mirrors the paper's Figure 15b methodology: performance is the
        wall-clock time until training loss reaches a fixed distance from the
        optimum, so variants are compared at equal solution quality.
        """
        lr = learning_rate if learning_rate is not None else self.config.learning_rate
        fraction = epoch_fraction if epoch_fraction is not None else self.config.epoch_fraction
        history: List[SvrgHistoryPoint] = []
        for budget in self._growing_budgets(max_outer_iterations):
            history = self.train(variant, learning_rate=lr,
                                 epoch_fraction=fraction,
                                 outer_iterations=budget)
            if history[-1].loss_gap <= gap_threshold:
                break
        return history

    @staticmethod
    def _growing_budgets(max_outer: int) -> List[int]:
        budgets = []
        budget = max(1, max_outer // 8)
        while budget < max_outer:
            budgets.append(budget)
            budget *= 2
        budgets.append(max_outer)
        return budgets

    # ------------------------------------------------------------------ #
    # Derived metrics
    # ------------------------------------------------------------------ #

    @staticmethod
    def time_to_converge(history: Sequence[SvrgHistoryPoint],
                         gap_threshold: float) -> Optional[float]:
        """Wall-clock seconds until the loss gap first drops below the threshold."""
        for point in history:
            if point.loss_gap <= gap_threshold:
                return point.wall_clock_seconds
        return None


def measure_svrg_timing(channels: int = 2, ranks_per_channel: int = 2,
                        mix: Optional[str] = "mix1",
                        cycles: int = 6000,
                        config: Optional[SystemConfig] = None) -> SvrgTimingModel:
    """Measure the SVRG timing-model inputs on the simulator.

    Two short runs: a host-only run measures the host's effective streaming
    bandwidth; a concurrent run with the SVRG summarization kernels on the
    NDAs measures the aggregate NDA bandwidth achieved alongside host
    traffic.  The result feeds :class:`SvrgTrainer` exactly as gem5+Ramulator
    measurements feed the paper's Figure 15.  The simulator is imported
    here, its only use in this module: analytic timing never loads it.
    """
    from repro.apps.workloads import svrg_kernel_sequence
    from repro.core.modes import AccessMode
    from repro.core.system import ChopimSystem

    cfg = config or scaled_config(channels, ranks_per_channel)
    num_ndas = cfg.org.total_ranks

    host_system = ChopimSystem(config=cfg, mode=AccessMode.HOST_ONLY, mix=mix)
    host_result = host_system.run(cycles=cycles)
    seconds = cycles / (cfg.org.dram_clock_ghz * 1e9)
    host_bytes = (host_result.host_reads + host_result.host_writes) * cfg.org.cacheline_bytes
    host_gbs = max(host_bytes / seconds / 1e9, 1.0)

    nda_system = ChopimSystem(config=cfg, mode=AccessMode.BANK_PARTITIONED, mix=mix)
    nda_system.set_nda_workload_sequence(svrg_kernel_sequence())
    nda_result = nda_system.run(cycles=cycles)
    nda_gbs = max(nda_result.nda_bandwidth_gbs, 1.0)

    return SvrgTimingModel(
        host_stream_gbs=host_gbs,
        nda_stream_gbs=nda_gbs,
        num_ndas=num_ndas,
    )
