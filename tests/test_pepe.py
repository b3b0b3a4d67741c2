import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import assert_close_grad, numeric_grad
from vacnet import kernels as K
from vacnet.kernels import ConfigError, IntegrityError, ShapeError
from vacnet.pepe import PepeConfig, pepe_backward, pepe_forward


def make(c_in=32, p1=8, e1=16, p2=8, e2=32, stride=1, seed=0):
    cfg = PepeConfig(c_in=c_in, p1=p1, e1=e1, p2=p2, e2=e2, stride=stride)
    return cfg, cfg.init_params(np.random.default_rng(seed))


class TestConfig:
    def test_channel_trajectory_enforced(self):
        with pytest.raises(ConfigError):
            PepeConfig(c_in=16, p1=32, e1=32, p2=8, e2=32)   # p1 not a reduction
        with pytest.raises(ConfigError):
            PepeConfig(c_in=32, p1=8, e1=16, p2=16, e2=32)   # p2 not a reduction
        with pytest.raises(ConfigError):
            PepeConfig(c_in=32, p1=8, e1=4, p2=2, e2=32)     # e1 shrinks
        with pytest.raises(ConfigError):
            PepeConfig(c_in=32, p1=8, e1=12, p2=8, e2=32)    # non-integer multiplier

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-1, 5), min_size=7, max_size=7))
    def test_small_ints_raise_only_config_error(self, ints):
        try:
            PepeConfig(*ints)
        except ConfigError:
            pass


class TestForward:
    def test_shape_identity_stride1(self):
        cfg, params = make()
        x = np.random.default_rng(1).standard_normal((1, 32, 8, 8))
        out, _ = pepe_forward(x, params, cfg)
        assert out.shape == (1, 32, 8, 8)

    def test_stride2_halves_spatial(self):
        cfg, params = make(stride=2)
        x = np.random.default_rng(2).standard_normal((1, 32, 8, 8))
        out, _ = pepe_forward(x, params, cfg)
        assert out.shape == (1, 32, 4, 4)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_compositional_oracle(self, stride):
        cfg, params = make(c_in=8, p1=4, e1=8, p2=4, e2=8, stride=stride, seed=3)
        x = np.random.default_rng(30).standard_normal((2, 8, 6, 6))
        out, _ = pepe_forward(x, params, cfg)
        y = x
        for name, spec in cfg.convs.items():
            y = K.relu_forward(K.conv2d_forward(y, params[f"{name}_w"],
                                                params[f"{name}_b"], spec))
        np.testing.assert_allclose(out, y, atol=1e-12)

    def test_wrong_channels_rejected(self):
        cfg, params = make()
        with pytest.raises(ShapeError):
            pepe_forward(np.zeros((1, 16, 8, 8)), params, cfg)

    def test_rank_3_input_rejected(self):
        cfg, params = make()
        with pytest.raises(ShapeError):
            pepe_forward(np.zeros((32, 8, 8)), params, cfg)


class TestBackward:
    @pytest.mark.parametrize("stride", [1, 2])
    def test_finite_differences(self, stride):
        cfg, params = make(c_in=6, p1=3, e1=6, p2=3, e2=6, stride=stride, seed=5)
        r = np.random.default_rng(51)
        x = r.standard_normal((1, 6, 5, 5))
        out, cache = pepe_forward(x, params, cfg)
        gout = r.standard_normal(out.shape)

        def loss():
            return float((pepe_forward(x, params, cfg)[0] * gout).sum())

        gx, gp = pepe_backward(gout, cache, params, cfg)
        assert_close_grad(gx, numeric_grad(loss, x), 1e-5)
        for name, arr in params.items():
            assert_close_grad(gp[name], numeric_grad(loss, arr), 1e-5)

    def test_grad_shape_mismatch_rejected(self):
        cfg, params = make(c_in=6, p1=3, e1=6, p2=3, e2=6)
        x = np.random.default_rng(0).standard_normal((1, 6, 5, 5))
        _, cache = pepe_forward(x, params, cfg)
        with pytest.raises(IntegrityError):
            pepe_backward(np.zeros((1, 6, 3, 3)), cache, params, cfg)


class TestParamCount:
    def test_reference_sum(self):
        cfg, params = make()
        count = cfg.param_count()
        assert count == sum(a.size for a in params.values())
        assert count == 848  # (32*8+8)+(9*16+16)+(16*8+8)+(8*32+32)

    def test_invariant_to_spatial_and_stride(self):
        assert make(stride=1)[0].param_count() == make(stride=2)[0].param_count()

    def test_degenerate_configs_rejected_before_counting(self):
        with pytest.raises(ConfigError):
            PepeConfig(c_in=1, p1=0, e1=0, p2=0, e2=0)
