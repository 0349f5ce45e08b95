"""Tests for optimizers, schedules, training loops and the pretrain cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import DatasetConfig, SyntheticImageDataset
from repro.nn.layers import Linear
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, functional as F
from repro.train.loop import TrainingConfig, evaluate_accuracy, train_classifier
from repro.train.optim import SGD, StepLR


class Quadratic(Module):
    """f(w) = ||w - target||^2, a deterministic optimization test problem."""

    def __init__(self, target):
        super().__init__()
        self.w = Parameter(np.zeros_like(target, dtype=np.float32))
        self.target = np.asarray(target, dtype=np.float32)

    def loss(self) -> Tensor:
        diff = self.w - Tensor(self.target)
        return (diff * diff).sum()


class TestSGD:
    def test_plain_sgd_step(self):
        model = Quadratic(np.array([1.0, -2.0]))
        opt = SGD(model.parameters(), lr=0.1, momentum=0.0)
        loss = model.loss()
        loss.backward()
        opt.step()
        # grad = 2(w - target) = [-2, 4]; w -= 0.1 * grad
        np.testing.assert_allclose(model.w.data, [0.2, -0.4], atol=1e-6)

    def test_convergence_to_target(self):
        model = Quadratic(np.array([0.5, 1.5, -1.0]))
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
        for _ in range(200):
            opt.zero_grad()
            model.loss().backward()
            opt.step()
        np.testing.assert_allclose(model.w.data, model.target, atol=1e-2)

    def test_momentum_accelerates(self):
        def loss_after(momentum, steps=10):
            model = Quadratic(np.array([1.0]))
            opt = SGD(model.parameters(), lr=0.01, momentum=momentum)
            for _ in range(steps):
                opt.zero_grad()
                model.loss().backward()
                opt.step()
            return model.loss().item()

        assert loss_after(0.9) < loss_after(0.0)

    def test_weight_decay_shrinks_weights(self):
        model = Quadratic(np.array([0.0]))
        model.w.data[:] = 1.0
        opt = SGD(model.parameters(), lr=0.1, momentum=0.0, weight_decay=0.5)
        opt.zero_grad()
        model.loss().backward()
        opt.step()
        # grad = 2*1 + 0.5*1 = 2.5 -> w = 1 - 0.25
        np.testing.assert_allclose(model.w.data, [0.75], atol=1e-6)

    def test_skips_parameters_without_grad(self):
        model = Quadratic(np.array([1.0]))
        opt = SGD(model.parameters(), lr=0.1)
        opt.step()  # no backward called; must not crash
        np.testing.assert_allclose(model.w.data, [0.0])

    def test_empty_parameters_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestSchedulers:
    def test_step_lr(self):
        model = Quadratic(np.array([1.0]))
        opt = SGD(model.parameters(), lr=1.0)
        sched = StepLR(opt, step_size=2, gamma=0.1)
        lrs = []
        for _ in range(4):
            sched.step()
            lrs.append(opt.lr)
        np.testing.assert_allclose(lrs, [1.0, 0.1, 0.1, 0.01])
        assert opt.lr == pytest.approx(0.01)


@pytest.fixture(scope="module")
def easy_dataset():
    return SyntheticImageDataset(
        DatasetConfig(name="easy", num_classes=3, image_size=4, train_size=96,
                      test_size=48, noise_scale=0.2, seed=11)
    )


class FlatClassifier(Module):
    def __init__(self, classes=3):
        super().__init__()
        self.fc = Linear(48, classes, rng=np.random.default_rng(0))

    def forward(self, x):
        return self.fc(x.reshape(x.shape[0], -1))


class TestTrainingLoop:
    def test_training_improves_accuracy(self, easy_dataset):
        model = FlatClassifier()
        before = evaluate_accuracy(model, easy_dataset)
        losses = train_classifier(
            model, easy_dataset, TrainingConfig(epochs=5, learning_rate=0.05)
        )
        after = evaluate_accuracy(model, easy_dataset)
        assert after > before
        assert after > 60.0
        assert losses[-1] < losses[0]

    def test_training_is_deterministic(self, easy_dataset):
        def run():
            model = FlatClassifier()
            train_classifier(model, easy_dataset, TrainingConfig(epochs=2, seed=7))
            return model.fc.weight.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_evaluate_does_not_update_params(self, easy_dataset):
        model = FlatClassifier()
        before = model.fc.weight.data.copy()
        evaluate_accuracy(model, easy_dataset)
        np.testing.assert_array_equal(before, model.fc.weight.data)

    def test_model_left_in_eval_mode(self, easy_dataset):
        model = FlatClassifier()
        train_classifier(model, easy_dataset, TrainingConfig(epochs=1))
        assert not model.training


class TestPretrainCache:
    def test_pretrain_caches_to_disk(self, tmp_path):
        from repro.train.pretrain import pretrain_model

        model_a = pretrain_model("resnet20", epochs=1, cache_dir=tmp_path, force=True)
        files = list(tmp_path.glob("*.npz"))
        assert len(files) == 1
        model_b = pretrain_model("resnet20", epochs=1, cache_dir=tmp_path)
        for (_, pa), (_, pb) in zip(model_a.named_parameters(), model_b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_default_epochs_by_family(self):
        from repro.nn.registry import get_spec
        from repro.train.pretrain import default_epochs

        assert default_epochs(get_spec("resnet18")) == 8
        assert default_epochs(get_spec("vit_base")) == 14
        assert default_epochs(get_spec("tiny_lm")) == 6

    def test_get_dataset_for_rejects_llm(self):
        from repro.train.pretrain import get_dataset_for

        with pytest.raises(ValueError):
            get_dataset_for("tiny_lm")
