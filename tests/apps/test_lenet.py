"""Tests for the LeNet application (§6.1): data, reference net, trainer."""

import numpy as np
import pytest

from repro.apps.lenet import (
    LeNetParams,
    MapsLeNetTrainer,
    reference_backward,
    reference_forward,
    reference_loss,
    reference_step,
    synthetic_mnist,
)
from repro.apps.lenet.network import FC1, FLAT, PARAM_NAMES, softmax
from repro.core import Scheduler
from repro.hardware import GTX_780
from repro.serving.models import LeNetEngine
from repro.sim import SimNode


class TestSyntheticData:
    def test_shapes_and_ranges(self):
        x, y = synthetic_mnist(100, seed=1)
        assert x.shape == (100, 1, 28, 28)
        assert y.shape == (100,)
        assert x.dtype == np.float32 and y.dtype == np.int32
        assert 0.0 <= x.min() and x.max() <= 1.0
        assert set(np.unique(y)) <= set(range(10))

    def test_deterministic(self):
        a = synthetic_mnist(32, seed=7)
        b = synthetic_mnist(32, seed=7)
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()

    def test_different_seeds_differ(self):
        a, _ = synthetic_mnist(32, seed=1)
        b, _ = synthetic_mnist(32, seed=2)
        assert not (a == b).all()

    def test_classes_distinguishable(self):
        """Even a nearest-centroid classifier beats chance by far (the
        random glyph shifts blur centroids; a CNN does much better)."""
        x, y = synthetic_mnist(500, seed=3)
        flat = x.reshape(500, -1)
        centroids = np.stack([flat[y == d].mean(0) for d in range(10)])
        pred = ((flat[:, None, :] - centroids[None]) ** 2).sum(-1).argmin(1)
        assert (pred == y).mean() > 0.35  # chance is 0.10


class TestReferenceNetwork:
    def test_forward_shapes(self):
        p = LeNetParams.initialize(0)
        x, _ = synthetic_mnist(4, seed=0)
        s = reference_forward(p, x)
        assert s.a1.shape == (4, 20, 24, 24)
        assert s.p2.shape == (4, 50, 4, 4)
        assert s.f.shape == (4, FLAT)
        assert s.logits.shape == (4, 10)

    def test_param_count_matches_paper_scale(self):
        """LeNet has ~431K parameters."""
        assert LeNetParams.initialize(0).count() == 431_080

    def test_loss_at_init_is_log10(self):
        p = LeNetParams.initialize(0)
        x, y = synthetic_mnist(64, seed=0)
        loss = reference_loss(reference_forward(p, x).logits, y)
        assert loss == pytest.approx(np.log(10), rel=0.25)

    def test_gradient_numerical_check(self):
        rng = np.random.default_rng(0)
        p = LeNetParams.initialize(0)
        x, y = synthetic_mnist(8, seed=0)
        s = reference_forward(p, x)
        grads = reference_backward(p, s, y)
        eps = 1e-3
        for name in ("W4", "b3", "W2"):
            arr = getattr(p, name)
            idx = tuple(rng.integers(0, d) for d in arr.shape)
            arr[idx] += eps
            lp = reference_loss(reference_forward(p, x).logits, y)
            arr[idx] -= 2 * eps
            lm = reference_loss(reference_forward(p, x).logits, y)
            arr[idx] += eps
            num = (lp - lm) / (2 * eps)
            assert num == pytest.approx(grads[name][idx], rel=0.05, abs=1e-4), name

    def test_softmax_rows_sum_to_one(self):
        z = np.random.default_rng(1).standard_normal((5, 10)).astype(np.float32)
        assert np.allclose(softmax(z).sum(1), 1.0, atol=1e-6)

    def test_training_reduces_loss(self):
        p = LeNetParams.initialize(0)
        x, y = synthetic_mnist(128, seed=0)
        losses = [reference_step(p, x, y, lr=0.1) for _ in range(6)]
        assert losses[-1] < losses[0]


class TestMapsTrainer:
    @pytest.mark.parametrize("mode", ["data", "hybrid"])
    @pytest.mark.parametrize("num_gpus", [1, 2, 4])
    def test_one_step_matches_reference(self, mode, num_gpus):
        batch = 16
        x, y = synthetic_mnist(batch, seed=2)
        node = SimNode(GTX_780, num_gpus, functional=True)
        params = LeNetParams.initialize(0)
        trainer = MapsLeNetTrainer(Scheduler(node), params, batch, mode=mode, lr=0.05)
        loss = trainer.train_batch(x, y)
        trainer.gather_params()
        ref = LeNetParams.initialize(0)
        ref_loss = reference_step(ref, x, y, lr=0.05)
        assert loss == pytest.approx(ref_loss, rel=1e-4)
        for name in PARAM_NAMES:
            assert np.allclose(
                getattr(params, name), getattr(ref, name), atol=1e-5
            ), name

    def test_multiple_steps_match_reference(self):
        batch, steps = 16, 3
        x, y = synthetic_mnist(batch * steps, seed=4)
        node = SimNode(GTX_780, 2, functional=True)
        params = LeNetParams.initialize(1)
        trainer = MapsLeNetTrainer(Scheduler(node), params, batch, mode="data", lr=0.1)
        ref = LeNetParams.initialize(1)
        for s in range(steps):
            sl = slice(s * batch, (s + 1) * batch)
            loss = trainer.train_batch(x[sl], y[sl])
            ref_loss = reference_step(ref, x[sl], y[sl], lr=0.1)
            assert loss == pytest.approx(ref_loss, rel=1e-3)
        trainer.gather_params()
        assert np.allclose(params.W1, ref.W1, atol=1e-4)

    def test_hybrid_weights_are_striped(self):
        """The hybrid scheme's fc1 weights are partitioned: each device
        allocates only its row stripe of W3 (§6.1: 'allowing to train
        large networks that do not fit in a single GPU')."""
        node = SimNode(GTX_780, 4, functional=False)
        trainer = MapsLeNetTrainer(
            Scheduler(node), LeNetParams.initialize(0), 64, mode="hybrid"
        )
        trainer.run_iteration()
        trainer.sched.wait_all()
        report = trainer.sched.analyzer.allocation_report()
        w3_full = FC1 * FLAT * 4
        for d in range(4):
            assert report["W3"][d] == w3_full // 4

    def test_data_mode_weights_replicated(self):
        node = SimNode(GTX_780, 4, functional=False)
        trainer = MapsLeNetTrainer(
            Scheduler(node), LeNetParams.initialize(0), 64, mode="data"
        )
        trainer.run_iteration()
        trainer.sched.wait_all()
        report = trainer.sched.analyzer.allocation_report()
        assert all(v == FC1 * FLAT * 4 for v in report["W3"].values())

    def test_hybrid_mode_exchanges_activations_not_fc1_grads(self):
        node = SimNode(GTX_780, 4, functional=False)
        trainer = MapsLeNetTrainer(
            Scheduler(node), LeNetParams.initialize(0), 256, mode="hybrid"
        )
        trainer.run_iteration()
        trainer.sched.wait_all()
        node.trace.clear()
        trainer.run_iteration()
        trainer.sched.wait_all()
        labels = [r.label for r in node.trace.memcpys()]
        # Activations move between devices...
        assert any("fT" in l for l in labels)
        # ...but the fc1 weight gradients never do.
        assert not any("dW3" in l for l in labels)

    def test_invalid_mode(self):
        node = SimNode(GTX_780, 1, functional=False)
        with pytest.raises(ValueError):
            MapsLeNetTrainer(Scheduler(node), LeNetParams.initialize(0), 16, mode="model")

    def test_train_batch_requires_functional(self):
        node = SimNode(GTX_780, 1, functional=False)
        trainer = MapsLeNetTrainer(Scheduler(node), LeNetParams.initialize(0), 16)
        with pytest.raises(RuntimeError):
            trainer.train_batch(*synthetic_mnist(16))

    def test_loss_decreases_over_steps(self):
        batch = 32
        x, y = synthetic_mnist(batch * 6, seed=9)
        node = SimNode(GTX_780, 2, functional=True)
        trainer = MapsLeNetTrainer(
            Scheduler(node), LeNetParams.initialize(3), batch, mode="data", lr=0.1
        )
        losses = []
        for s in range(6):
            sl = slice(s * batch, (s + 1) * batch)
            losses.append(trainer.train_batch(x[sl], y[sl]))
        assert losses[-1] < losses[0]


class TestInference:
    @pytest.mark.parametrize("mode", ["data", "hybrid"])
    def test_forward_batch_matches_reference(self, mode):
        batch = 32
        x, y = synthetic_mnist(batch, seed=6)
        node = SimNode(GTX_780, 4, functional=True)
        p = LeNetParams.initialize(0)
        trainer = MapsLeNetTrainer(Scheduler(node), p, batch, mode=mode)
        logits = trainer.forward_batch(x)
        ref = reference_forward(p, x).logits
        assert np.allclose(logits, ref, atol=1e-4)

    def test_evaluate_improves_with_training(self):
        batch = 64
        x, y = synthetic_mnist(batch * 10, seed=7)
        test_x, test_y = synthetic_mnist(128, seed=42)
        node = SimNode(GTX_780, 2, functional=True)
        trainer = MapsLeNetTrainer(
            Scheduler(node), LeNetParams.initialize(2), batch, mode="data", lr=0.1
        )
        # Pad/trim test batch to the trainer's batch size for inference.
        acc_before = trainer.evaluate(test_x[:batch], test_y[:batch])
        for s in range(10):
            sl = slice(s * batch, (s + 1) * batch)
            trainer.train_batch(x[sl], y[sl])
        acc_after = trainer.evaluate(test_x[:batch], test_y[:batch])
        assert acc_after > acc_before

    @pytest.mark.parametrize("gpus", [1, 2])
    def test_trainer_and_serving_engine_agree(self, gpus):
        """The trainer's forward pass and the serving engine run one
        declaration of it: their logits are bit-identical."""
        x, _ = synthetic_mnist(16, seed=5)
        trainer = MapsLeNetTrainer(
            Scheduler(SimNode(GTX_780, gpus, functional=True)),
            LeNetParams.initialize(0), 16, mode="data",
        )
        engine = LeNetEngine(
            Scheduler(SimNode(GTX_780, gpus, functional=True)), 16,
            model_seed=0,
        )
        assert np.array_equal(trainer.forward_batch(x), engine.infer(x))

    def test_forward_requires_functional(self):
        node = SimNode(GTX_780, 1, functional=False)
        trainer = MapsLeNetTrainer(Scheduler(node), LeNetParams.initialize(0), 16)
        with pytest.raises(RuntimeError):
            trainer.forward_batch(np.zeros((16, 1, 28, 28), np.float32))
