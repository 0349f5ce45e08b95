"""Tests for the Module/Parameter container machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import Conv2d, Linear, ReLU
from repro.nn.module import Module, ModuleList, Parameter, Sequential
from repro.tensor import Tensor


# Every zoo model's array path runs through this code: a numpy
# invalid/overflow/divide warning fails.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class Block(Module):
    def __init__(self):
        super().__init__()
        self.fc = Linear(4, 4, rng=np.random.default_rng(0))
        self.act = ReLU()

    def forward(self, x):
        return self.act(self.fc(x))


class Net(Module):
    def __init__(self):
        super().__init__()
        self.blocks = ModuleList([Block(), Block()])
        self.head = Linear(4, 2, rng=np.random.default_rng(1))
        self.scale = Parameter(np.ones(1, dtype=np.float32))

    def forward(self, x):
        for block in self.blocks:
            x = block(x)
        return self.head(x) * self.scale


class TestRegistration:
    def test_named_parameters_collects_nested(self):
        net = Net()
        names = dict(net.named_parameters())
        assert "blocks.0.fc.weight" in names
        assert "head.bias" in names
        assert "scale" in names

    def test_parameter_count(self):
        net = Net()
        expected = 2 * (4 * 4 + 4) + (4 * 2 + 2) + 1
        assert sum(p.size for p in net.parameters()) == expected

    def test_named_modules_paths(self):
        net = Net()
        names = [name for name, _ in net.named_modules()]
        assert "" in names
        assert "blocks.1.fc" in names

    def test_reassigning_attribute_clears_registration(self):
        net = Net()
        net.head = Linear(4, 3, rng=np.random.default_rng(2))
        assert net.get_submodule("head").out_features == 3
        net.head = None
        assert "head" not in dict(net.named_children())


class TestSubmoduleAccess:
    def test_get_submodule(self):
        net = Net()
        assert isinstance(net.get_submodule("blocks.0.fc"), Linear)

    def test_get_submodule_missing_raises(self):
        with pytest.raises(KeyError):
            Net().get_submodule("blocks.7")

    def test_set_submodule_replaces_and_forward_uses_it(self):
        net = Net()
        replacement = Linear(4, 4, rng=np.random.default_rng(3))
        replacement.weight.data[:] = 0.0
        replacement.bias.data[:] = 1.0
        net.set_submodule("blocks.1.fc", replacement)
        out = net(Tensor(np.ones((1, 4), dtype=np.float32)))
        assert net.get_submodule("blocks.1.fc") is replacement
        assert out.shape == (1, 2)

    def test_set_submodule_inside_module_list(self):
        net = Net()
        new_block = Block()
        net.set_submodule("blocks.0", new_block)
        assert net.blocks[0] is new_block
        assert list(net.blocks)[0] is new_block

    def test_set_submodule_missing_raises(self):
        with pytest.raises(KeyError):
            Net().set_submodule("does.not.exist", Block())


class TestStateDict:
    def test_roundtrip(self):
        net = Net()
        state = net.state_dict()
        other = Net()
        for param in other.parameters():
            param.data = param.data + 1.0
        other.load_state_dict(state)
        x = Tensor(np.ones((2, 4), dtype=np.float32))
        np.testing.assert_allclose(net(x).data, other(x).data, atol=1e-6)

    def test_includes_buffers(self):
        conv = Sequential(Conv2d(3, 4, 3, rng=np.random.default_rng(0)))
        from repro.nn.layers import BatchNorm2d

        model = Sequential(Conv2d(3, 4, 3, rng=np.random.default_rng(0)), BatchNorm2d(4))
        state = model.state_dict()
        assert any("running_mean" in key for key in state)

    def test_shape_mismatch_raises(self):
        net = Net()
        state = net.state_dict()
        state["head.weight"] = np.zeros((5, 5), dtype=np.float32)
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_unknown_key_raises(self):
        net = Net()
        state = net.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError):
            net.load_state_dict(state)


class TestModesAndGrad:
    def test_train_eval_propagates(self):
        net = Net()
        net.eval()
        assert all(not module.training for _, module in net.named_modules())
        net.train()
        assert all(module.training for _, module in net.named_modules())

    def test_zero_grad(self):
        net = Net()
        out = net(Tensor(np.ones((1, 4), dtype=np.float32)))
        out.sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())


class TestContainers:
    def test_sequential_applies_in_order(self):
        seq = Sequential(Linear(3, 5, rng=np.random.default_rng(0)), ReLU())
        out = seq(Tensor(np.ones((2, 3), dtype=np.float32)))
        assert out.shape == (2, 5)
        assert (out.data >= 0).all()

    def test_sequential_len_and_getitem(self):
        seq = Sequential(ReLU(), ReLU(), ReLU())
        assert len(seq) == 3
        assert isinstance(seq[1], ReLU)

    def test_module_list_append_and_iterate(self):
        items = ModuleList()
        items.append(ReLU())
        items.append(ReLU())
        assert len(items) == 2
        assert all(isinstance(m, ReLU) for m in items)

    def test_module_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)
