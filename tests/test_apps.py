"""Tests for the application workloads: datasets, SVRG and the kernel sequences."""

import numpy as np
import pytest

from repro.apps import svrg as svrg_module
from repro.apps.datasets import make_dataset
from repro.apps.svrg import SvrgConfig, SvrgTimingModel, SvrgTrainer, SvrgVariant
from repro.apps.workloads import (
    application_kernel_sequence,
    cg_kernel_sequence,
    streamcluster_kernel_sequence,
    svrg_kernel_sequence,
)
from repro.nda.isa import NdaOpcode, OPCODE_TRAITS


class TestDatasets:
    def test_shapes_and_types(self):
        ds = make_dataset(256, 32, classes=5)
        assert ds.features.shape == (256, 32)
        assert ds.labels.shape == (256,)
        assert ds.features.dtype == np.float32
        assert ds.classes == 5
        assert set(np.unique(ds.labels)) <= set(range(5))

    def test_one_hot(self):
        ds = make_dataset(64, 8, classes=3)
        oh = ds.one_hot()
        assert oh.shape == (64, 3)
        assert np.all(oh.sum(axis=1) == 1)

    def test_deterministic_given_seed(self):
        a = make_dataset(64, 8, seed=3)
        b = make_dataset(64, 8, seed=3)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_split(self):
        ds = make_dataset(100, 8)
        train, val = ds.split(0.8)
        assert train.num_samples == 80 and val.num_samples == 20
        with pytest.raises(ValueError):
            ds.split(1.5)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            make_dataset(0, 8)
        with pytest.raises(ValueError):
            make_dataset(8, 8, classes=1)


@pytest.fixture(scope="module")
def small_trainer():
    dataset = make_dataset(512, 64, classes=4, seed=3)
    config = SvrgConfig(learning_rate=0.05, epoch_fraction=0.5, outer_iterations=6)
    return SvrgTrainer(dataset, config, SvrgTimingModel.analytic(4))


class TestSvrgMath:
    def test_full_gradient_matches_numerical_gradient(self, small_trainer):
        trainer = small_trainer
        w = np.zeros((trainer.num_features, trainer.num_classes))
        w[0, 0] = 0.1
        grad = trainer.full_gradient(w)
        eps = 1e-5
        for idx in [(0, 0), (3, 1), (10, 2)]:
            w_plus = w.copy()
            w_plus[idx] += eps
            w_minus = w.copy()
            w_minus[idx] -= eps
            numeric = (trainer.loss(w_plus) - trainer.loss(w_minus)) / (2 * eps)
            assert grad[idx] == pytest.approx(numeric, rel=1e-3, abs=1e-5)

    def test_sample_gradient_averages_to_full_gradient(self, small_trainer):
        trainer = small_trainer
        w = np.zeros((trainer.num_features, trainer.num_classes))
        sampled = np.mean([trainer.sample_gradient(w, i)
                           for i in range(trainer.dataset.num_samples)], axis=0)
        # The l2 term appears once per sample in sample_gradient and once in
        # full_gradient, so the averages agree exactly at any w.
        assert np.allclose(sampled, trainer.full_gradient(w), atol=1e-8)

    def test_loss_decreases_under_training(self, small_trainer):
        history = small_trainer.train(SvrgVariant.HOST_ONLY)
        assert history[-1].training_loss < history[0].training_loss
        assert history[-1].loss_gap < history[0].loss_gap

    def test_optimum_loss_below_initial_loss(self, small_trainer):
        w0 = np.zeros((small_trainer.num_features, small_trainer.num_classes))
        assert small_trainer.optimum_loss() < small_trainer.loss(w0)

    def test_wall_clock_monotonic(self, small_trainer):
        history = small_trainer.train(SvrgVariant.ACCELERATED)
        times = [p.wall_clock_seconds for p in history]
        assert all(b > a for a, b in zip(times, times[1:]))


class _CountingFeatures(np.ndarray):
    """A feature matrix that counts its conversions to float64."""

    conversions = 0

    def astype(self, dtype, *args, **kwargs):
        if np.dtype(dtype) == np.float64:
            _CountingFeatures.conversions += 1
        return np.asarray(super().astype(dtype, *args, **kwargs))


def _count_calls(monkeypatch, name):
    """Count calls of ``SvrgTrainer.<name>``; returns the one-element tally."""
    original = getattr(SvrgTrainer, name)
    tally = [0]

    def counted(self, *args, **kwargs):
        tally[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SvrgTrainer, name, counted)
    return tally


class TestSvrgComputeOnce:
    """The float64 design matrix and the reference optimum are invariants of
    the dataset: one conversion per trainer, one solve per process.  A
    training trajectory is an invariant of the numerics and the RNG state:
    one run per process, whatever the timing model."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self, monkeypatch):
        monkeypatch.setattr(svrg_module, "_OPTIMUM_MEMO", {})
        monkeypatch.setattr(svrg_module, "_TRAJECTORY_MEMO", {})

    def test_one_float64_conversion_per_trainer(self, monkeypatch):
        dataset = make_dataset(256, 32, classes=4, seed=3)
        dataset.features = dataset.features.view(_CountingFeatures)
        monkeypatch.setattr(_CountingFeatures, "conversions", 0)
        trainer = SvrgTrainer(dataset, SvrgConfig(learning_rate=0.05),
                              SvrgTimingModel.analytic(4))
        trainer.train(SvrgVariant.HOST_ONLY, outer_iterations=2)
        trainer.train(SvrgVariant.DELAYED_UPDATE, outer_iterations=2)
        trainer.sample_gradient(trainer._init_weights(), 5)
        assert _CountingFeatures.conversions == 1

    def test_methods_match_per_call_conversion(self, small_trainer):
        """The shared matrix gives the floats the per-call copies gave."""
        trainer = small_trainer
        rng = np.random.default_rng(0)
        w = rng.standard_normal((trainer.num_features, trainer.num_classes))
        x = trainer.dataset.features.astype(np.float64)
        probs = trainer._softmax(x @ w)
        grad = x.T @ (probs - trainer.dataset.one_hot()) / trainer.dataset.num_samples
        assert np.array_equal(trainer.full_gradient(w),
                              grad + trainer.config.l2_lambda * w)
        row = trainer.dataset.features[7].astype(np.float64)
        diff = trainer._softmax(row @ w) - trainer.dataset.one_hot()[7]
        assert np.array_equal(trainer.sample_gradient(w, 7),
                              np.outer(row, diff) + trainer.config.l2_lambda * w)

    def test_optimum_solved_once_per_process(self, monkeypatch):
        gradients = _count_calls(monkeypatch, "full_gradient")
        losses = _count_calls(monkeypatch, "loss")
        config = SvrgConfig(learning_rate=0.05)
        first = SvrgTrainer(make_dataset(256, 32, classes=4, seed=3), config,
                            SvrgTimingModel.analytic(4))
        optimum = first.optimum_loss(iterations=40)
        assert (gradients[0], losses[0]) == (40, 1)
        # Same content in another trainer (another NDA count): no new solve.
        second = SvrgTrainer(make_dataset(256, 32, classes=4, seed=3), config,
                             SvrgTimingModel.analytic(16))
        assert second.optimum_loss(iterations=40) == optimum
        assert first.optimum_loss(iterations=40) == optimum
        assert (gradients[0], losses[0]) == (40, 1)

    def test_memo_key_covers_what_the_solve_depends_on(self, monkeypatch):
        gradients = _count_calls(monkeypatch, "full_gradient")
        timing = SvrgTimingModel.analytic(4)
        base = SvrgTrainer(make_dataset(256, 32, classes=4, seed=3),
                           SvrgConfig(), timing)
        base.optimum_loss(iterations=20)
        # Datasets that differ only in seed do not share an entry ...
        other_seed = SvrgTrainer(make_dataset(256, 32, classes=4, seed=4),
                                 SvrgConfig(), timing)
        assert other_seed.optimum_loss(iterations=20) != base.optimum_loss(iterations=20)
        assert gradients[0] == 40
        # ... nor do another l2_lambda, iteration count or step.
        SvrgTrainer(base.dataset, SvrgConfig(l2_lambda=1e-2),
                    timing).optimum_loss(iterations=20)
        base.optimum_loss(iterations=21)
        base.optimum_loss(iterations=20, lr=0.25)
        assert gradients[0] == 40 + 20 + 21 + 20
        assert len(svrg_module._OPTIMUM_MEMO) == 5
        # The learning rate and the seed of the training runs do not enter.
        SvrgTrainer(base.dataset, SvrgConfig(learning_rate=0.5, seed=1),
                    timing).optimum_loss(iterations=20)
        assert gradients[0] == 101


    def test_trajectory_memo_key_covers_what_training_depends_on(self):
        dataset = make_dataset(256, 32, classes=4, seed=3)

        def trainer(nda_count=4, **config):
            return SvrgTrainer(dataset, SvrgConfig(learning_rate=0.05,
                                                   outer_iterations=2, **config),
                               SvrgTimingModel.analytic(nda_count))

        def trained():
            return len(svrg_module._TRAJECTORY_MEMO)

        base = trainer()
        host = base.train(SvrgVariant.HOST_ONLY)
        assert trained() == 1
        # Timing is not in the key: another variant with the same numerics,
        # or another NDA count, re-times the same trajectory.
        acc = trainer().train(SvrgVariant.ACCELERATED)
        acc_16 = trainer(16).train(SvrgVariant.ACCELERATED)
        assert trained() == 1
        assert [p.training_loss for p in acc] == [p.training_loss for p in host]
        assert acc_16[-1].wall_clock_seconds < acc[-1].wall_clock_seconds
        # Everything the numerics depend on misses: the RNG state, the
        # learning rate, the epoch fraction, the outer count, l2_lambda,
        # momentum and the dataset ...
        base.train(SvrgVariant.HOST_ONLY)
        trainer().train(SvrgVariant.HOST_ONLY, learning_rate=0.1)
        trainer().train(SvrgVariant.HOST_ONLY, epoch_fraction=0.5)
        trainer().train(SvrgVariant.HOST_ONLY, outer_iterations=3)
        trainer(l2_lambda=1e-2).train(SvrgVariant.HOST_ONLY)
        trainer(momentum=0.5).train(SvrgVariant.HOST_ONLY)
        SvrgTrainer(make_dataset(256, 32, classes=4, seed=4),
                    SvrgConfig(learning_rate=0.05, outer_iterations=2),
                    SvrgTimingModel.analytic(4)).train(SvrgVariant.HOST_ONLY)
        assert trained() == 8
        # ... and so does the delayed variant's segment length, which the
        # NDA count sets.
        trainer(4).train(SvrgVariant.DELAYED_UPDATE)
        trainer(16).train(SvrgVariant.DELAYED_UPDATE)
        trainer(16).train(SvrgVariant.DELAYED_UPDATE)
        assert trained() == 10

    def test_hit_leaves_the_rng_where_a_cold_run_does(self, monkeypatch):
        def two_runs():
            trainer = SvrgTrainer(make_dataset(256, 32, classes=4, seed=3),
                                  SvrgConfig(learning_rate=0.05, outer_iterations=2),
                                  SvrgTimingModel.analytic(4))
            trainer.train(SvrgVariant.HOST_ONLY)
            return trainer.train(SvrgVariant.DELAYED_UPDATE)

        cold = two_runs()
        monkeypatch.setattr(svrg_module, "_TRAJECTORY_MEMO", {
            key: value for key, value in svrg_module._TRAJECTORY_MEMO.items()
            if not value.segments})
        after_hit = two_runs()
        assert len(svrg_module._TRAJECTORY_MEMO) == 2
        assert after_hit == cold


class TestSvrgVariants:
    def test_accelerated_is_faster_per_epoch_than_host_only(self, small_trainer):
        host = small_trainer.train(SvrgVariant.HOST_ONLY, outer_iterations=4)
        acc = small_trainer.train(SvrgVariant.ACCELERATED, outer_iterations=4)
        assert acc[-1].wall_clock_seconds < host[-1].wall_clock_seconds

    def test_delayed_update_overlaps_and_is_fastest_per_epoch(self, small_trainer):
        acc = small_trainer.train(SvrgVariant.ACCELERATED, outer_iterations=4)
        delayed = small_trainer.train(SvrgVariant.DELAYED_UPDATE, outer_iterations=4)
        assert delayed[-1].wall_clock_seconds < acc[-1].wall_clock_seconds

    def test_more_ndas_speed_up_summarization(self):
        dataset = make_dataset(512, 64, classes=4, seed=3)
        config = SvrgConfig(learning_rate=0.05, outer_iterations=3)
        few = SvrgTrainer(dataset, config, SvrgTimingModel.analytic(4))
        many = SvrgTrainer(dataset, config, SvrgTimingModel.analytic(16))
        t_few = few.train(SvrgVariant.ACCELERATED)[-1].wall_clock_seconds
        t_many = many.train(SvrgVariant.ACCELERATED)[-1].wall_clock_seconds
        assert t_many < t_few

    def test_train_until_reaches_threshold(self, small_trainer):
        target = 0.2
        history = small_trainer.train_until(SvrgVariant.HOST_ONLY, target,
                                            max_outer_iterations=40)
        assert history[-1].loss_gap <= target
        assert SvrgTrainer.time_to_converge(history, target) is not None

    def test_time_to_converge_none_when_unreached(self, small_trainer):
        history = small_trainer.train(SvrgVariant.HOST_ONLY, outer_iterations=1)
        assert SvrgTrainer.time_to_converge(history, 1e-12) is None

    def test_measured_timing_rejects_a_zero_bandwidth(self):
        # One cycle moves no data: the host-only run, measured first, is
        # named instead of being floored to a made-up bandwidth.
        with pytest.raises(ValueError, match="host-only run measured 0 GB/s"):
            svrg_module.measure_svrg_timing(cycles=1)

    def test_timing_model_summarize_scales_with_bandwidth(self):
        model = SvrgTimingModel(host_stream_gbs=10.0, nda_stream_gbs=40.0)
        host = model.summarize_seconds(1 << 20, on_nda=False)
        nda = model.summarize_seconds(1 << 20, on_nda=True)
        assert nda == pytest.approx(host / 4)


class TestWorkloadSequences:
    def test_sequences_nonempty_and_typed(self):
        for seq in (svrg_kernel_sequence(), cg_kernel_sequence(),
                    streamcluster_kernel_sequence()):
            assert seq
            assert all(spec.elements_per_rank > 0 for spec in seq)

    def test_svrg_sequence_contains_gemv_and_axpy(self):
        opcodes = {spec.opcode for spec in svrg_kernel_sequence()}
        assert NdaOpcode.GEMV in opcodes and NdaOpcode.AXPY in opcodes

    @staticmethod
    def _reads_and_writes(seq):
        reads = sum(OPCODE_TRAITS[s.opcode].input_vectors * s.elements_per_rank for s in seq)
        writes = sum(OPCODE_TRAITS[s.opcode].output_vectors * s.elements_per_rank for s in seq)
        return reads, writes

    def test_streamcluster_is_read_heavy(self):
        reads, writes = self._reads_and_writes(streamcluster_kernel_sequence())
        assert writes < reads * 0.3

    def test_cg_sequence_write_intensity_between_dot_and_copy(self):
        reads, writes = self._reads_and_writes(cg_kernel_sequence())
        wi = writes / (reads + writes)
        assert wi == pytest.approx(0.229, abs=5e-4)
        assert OPCODE_TRAITS[NdaOpcode.DOT].write_intensity < wi
        assert wi < OPCODE_TRAITS[NdaOpcode.COPY].write_intensity

    def test_lookup_by_name(self):
        assert application_kernel_sequence("svrg")
        assert application_kernel_sequence("CG")
        assert application_kernel_sequence("sc")
        with pytest.raises(KeyError):
            application_kernel_sequence("unknown")
