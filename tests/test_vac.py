import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import assert_close_grad, naive_unpool, numeric_grad
from vacnet import kernels as K
from vacnet.kernels import ConfigError, IntegrityError, ShapeError
from vacnet.vac import VacConfig, gating_map, vac_backward, vac_forward


def make(c_in=16, c_down=4, e1=4, e2=4, pool=2, ek=3, groups=4, seed=0, **kw):
    cfg = VacConfig(c_in=c_in, c_down=c_down, e1=e1, e2=e2, c_up=c_in,
                    pool=pool, embed_kernel=ek, embed_groups=groups, **kw)
    params = cfg.init_params(np.random.default_rng(seed))
    return cfg, params


def expanded_attention(cache, cfg, params):
    """The full-grid attention map, unpooled from the cached condensed one."""
    return K.unpool2d_forward(cache["k_sig"], cache["pool_idx"],
                              gating_map(cache, params).shape)


def down_mixed(x, params, cfg):
    return K.conv2d_forward(x, params["down_w"], params["down_b"], cfg.down_spec())


class TestConfig:
    def test_invariants_enforced(self):
        with pytest.raises(ConfigError):
            VacConfig(c_in=4, c_down=8, e1=4, e2=8, c_up=4)   # no down-mix reduction
        with pytest.raises(ConfigError):
            VacConfig(c_in=8, c_down=4, e1=4, e2=4, c_up=6)   # c_up != c_in
        with pytest.raises(ConfigError):
            VacConfig(c_in=8, c_down=4, e1=4, e2=2, c_up=8)   # e2 != c_down
        with pytest.raises(ConfigError):
            VacConfig(c_in=8, c_down=4, e1=4, e2=4, c_up=8, embed_groups=3)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-1, 4), min_size=6, max_size=6))
    def test_small_ints_raise_only_config_error(self, ints):
        # e2 and c_up take the one value each may have, so that most draws
        # reach the conv checks
        c_in, c_down, e1, pk, ek, groups = ints
        try:
            VacConfig(c_in, c_down, e1, c_down, c_in, pool=pk, embed_kernel=ek,
                      embed_groups=groups)
        except ConfigError:
            pass

    def test_even_embed_kernel_rejected(self):
        with pytest.raises(ConfigError, match="must be odd"):
            VacConfig(c_in=4, c_down=2, e1=4, e2=2, c_up=4, embed_kernel=2)


class TestForward:
    def test_pipeline_shapes(self):
        cfg, params = make()
        x = np.random.default_rng(1).standard_normal((1, 16, 8, 8))
        out, cache = vac_forward(x, params, cfg)
        assert down_mixed(x, params, cfg).shape == (1, 4, 8, 8)
        assert cache["q"].shape == (1, 4, 4, 4)
        assert cache["k_sig"].shape == (1, 4, 4, 4)
        assert expanded_attention(cache, cfg, params).shape == (1, 4, 8, 8)
        assert gating_map(cache, params).shape == (1, 4, 8, 8)
        assert out.shape == (1, 16, 8, 8)
        # backward rebuilds what it needs of all three from the condensed grid
        assert not {"attn", "v_down", "gated"} & set(cache)

    def test_zero_scale_annihilates(self):
        cfg, params = make()
        params["scale"] = np.zeros(())
        params["up_b"][:] = np.arange(16, dtype=np.float64)
        x = np.random.default_rng(2).standard_normal((2, 16, 8, 8))
        out, cache = vac_forward(x, params, cfg)
        assert not gating_map(cache, params).any()
        np.testing.assert_array_equal(
            out, np.broadcast_to(params["up_b"][None, :, None, None], out.shape))

    # a 1x1 pool picks every pixel; a 3x3 pool leaves the last two rows and
    # columns of the 8x8 map unpicked
    @pytest.mark.parametrize("pool", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_compositional_oracle(self, seed, pool):
        cfg, params = make(seed=seed, pool=pool)
        x = np.random.default_rng(seed + 50).standard_normal((2, 16, 8, 8))
        out, _ = vac_forward(x, params, cfg)

        vd = K.conv2d_forward(x, params["down_w"], params["down_b"], cfg.down_spec())
        q, idx = K.maxpool2d_forward(vd, (pool, pool), (pool, pool))
        assert np.unique(idx).size == idx.size  # windows tile, so no pixel is picked twice
        e = K.relu_forward(K.conv2d_forward(q, params["embed_grouped_w"],
                                            params["embed_grouped_b"],
                                            cfg.embed_grouped_spec()))
        k = K.conv2d_forward(e, params["embed_pointwise_w"], params["embed_pointwise_b"],
                             cfg.embed_pointwise_spec())
        attn = naive_unpool(K.sigmoid_forward(k), idx, vd.shape)
        gated = vd * attn * params["scale"]
        want = K.conv2d_forward(gated, params["up_w"], params["up_b"], cfg.up_spec())
        np.testing.assert_allclose(out, want, atol=1e-12)

    # pool 1 keeps the full grid; pool 8 condenses the 8x8 map to one pixel
    @pytest.mark.parametrize("kwargs", [
        {}, {"per_channel_scale": True}, {"pool": 1}, {"pool": 3},
        {"pool": 3, "per_channel_scale": True}, {"pool": 8}])
    def test_up_mix_of_rebuilt_gating_map_is_the_output(self, kwargs):
        # backward rebuilds the up-mix's input from the cache: it must be the
        # map the forward mixed, to the bit
        cfg, params = make(seed=3, **kwargs)
        params["scale"] += np.random.default_rng(31).normal(0.0, 0.5, params["scale"].shape)
        x = np.random.default_rng(30).standard_normal((3, 16, 8, 8))
        out, cache = vac_forward(x, params, cfg)
        again = K.conv2d_forward(gating_map(cache, params), params["up_w"], params["up_b"],
                                 cfg.up_spec())
        assert again.tobytes() == out.tobytes()

    def test_output_shape_equals_input_for_random_configs(self):
        r = np.random.default_rng(99)
        for _ in range(50):
            c_in = int(r.integers(2, 12))
            c_down = int(r.integers(1, c_in + 1))
            g = int(r.choice([d for d in (1, 2, 4) if c_down % d == 0]))
            e1 = g * int(r.integers(1, 5))
            pk = int(r.integers(2, 4))
            h = int(r.integers(pk, 10))
            w = int(r.integers(pk, 10))
            cfg = VacConfig(c_in=c_in, c_down=c_down, e1=e1, e2=c_down, c_up=c_in,
                            pool=pk, embed_kernel=int(r.choice([1, 3])),
                            embed_groups=g)
            params = cfg.init_params(r)
            x = r.standard_normal((1, c_in, h, w))
            out, _ = vac_forward(x, params, cfg)
            assert out.shape == x.shape

    def test_attention_sparsity_bound(self):
        r = np.random.default_rng(5)
        cfg, params = make(c_in=8, c_down=4, e1=8, e2=4, groups=2)
        for _ in range(10):
            x = r.standard_normal((2, 8, 7, 7))
            _, cache = vac_forward(x, params, cfg)
            attn = expanded_attention(cache, cfg, params)
            windows = cache["q"].shape[2] * cache["q"].shape[3]
            for b in range(attn.shape[0]):
                nz = np.count_nonzero(attn[b])
                assert nz <= windows * cfg.c_down
            assert (attn >= 0).all() and (attn < 1).all()

    def test_identity_mixing_degrades_to_core(self):
        # With square identity mixing layers the block equals the pipeline
        # that skips down- and up-mixing entirely.
        c = 4
        cfg, params = make(c_in=c, c_down=c, e1=4, e2=c, groups=2, seed=3)
        params["down_w"] = np.eye(c).reshape(c, c, 1, 1)
        params["down_b"] = np.zeros(c)
        params["up_w"] = np.eye(c).reshape(c, c, 1, 1)
        params["up_b"] = np.zeros(c)
        x = np.random.default_rng(8).standard_normal((1, c, 6, 6))
        out, _ = vac_forward(x, params, cfg)

        q, idx = K.maxpool2d_forward(x, (2, 2), (2, 2))
        e = K.relu_forward(K.conv2d_forward(q, params["embed_grouped_w"],
                                            params["embed_grouped_b"],
                                            cfg.embed_grouped_spec()))
        k = K.conv2d_forward(e, params["embed_pointwise_w"], params["embed_pointwise_b"],
                             cfg.embed_pointwise_spec())
        attn = K.unpool2d_forward(K.sigmoid_forward(k), idx, x.shape)
        np.testing.assert_allclose(out, x * attn * params["scale"], atol=1e-12)

    def test_channel_mismatch_rejected(self):
        cfg, params = make()
        with pytest.raises(ShapeError):
            vac_forward(np.zeros((1, 8, 8, 8)), params, cfg)

    def test_rank_3_input_rejected(self):
        cfg, params = make()
        with pytest.raises(ShapeError):
            vac_forward(np.zeros((16, 8, 8)), params, cfg)


class TestBackward:
    def test_zero_upstream(self):
        cfg, params = make()
        x = np.random.default_rng(0).standard_normal((1, 16, 8, 8))
        out, cache = vac_forward(x, params, cfg)
        gx, gp = vac_backward(np.zeros_like(out), cache, params, cfg)
        assert not gx.any()
        assert all(not arr.any() for _, arr in gp.items())

    def test_stale_cache_rejected(self):
        cfg, params = make()
        x = np.random.default_rng(0).standard_normal((1, 16, 8, 8))
        _, cache = vac_forward(x, params, cfg)
        with pytest.raises(IntegrityError):
            vac_backward(np.zeros((1, 16, 4, 4)), cache, params, cfg)

    @pytest.mark.parametrize("kwargs", [
        {},
        {"per_channel_scale": True},
        # one 3x3 window on the 5x5 map, which leaves pixels outside every window
        {"pool": 3},
        {"pool": 3, "per_channel_scale": True},
        # every pixel its own window
        {"pool": 1},
        # one window over the whole map, so the embedding sees one pixel
        {"pool": 5},
    ])
    def test_finite_differences(self, kwargs):
        cfg, params = make(c_in=6, c_down=3, e1=3, e2=3, groups=3, seed=7, **kwargs)
        r = np.random.default_rng(70)
        x = r.standard_normal((1, 6, 5, 5))
        gout = r.standard_normal((1, 6, 5, 5))

        def loss():
            return float((vac_forward(x, params, cfg)[0] * gout).sum())

        _, cache = vac_forward(x, params, cfg)
        gx, gp = vac_backward(gout, cache, params, cfg)
        assert_close_grad(gx, numeric_grad(loss, x), 1e-5)
        for (name, analytic), (_, arr) in zip(gp.items(), params.items()):
            assert_close_grad(analytic, numeric_grad(loss, arr), 1e-5)

    @pytest.mark.parametrize("pool", [2, 3])
    @pytest.mark.parametrize("c_down", [1, 3])
    @pytest.mark.parametrize("per_channel_scale", [False, True])
    def test_gradients_shaped_like_parameters(self, c_down, per_channel_scale, pool):
        # a per-channel scale over one channel has one element but keeps shape (1,)
        cfg, params = make(c_in=6, c_down=c_down, e1=3, e2=c_down, groups=1, seed=8,
                           per_channel_scale=per_channel_scale, pool=pool)
        x = np.random.default_rng(80).standard_normal((2, 6, 5, 5))
        _, cache = vac_forward(x, params, cfg)
        _, gp = vac_backward(np.ones(x.shape), cache, params, cfg)
        assert {n: (g.shape, g.dtype) for n, g in gp.items()} == \
            {n: (p.shape, p.dtype) for n, p in params.items()}

    def test_scale_gradient_formula(self):
        cfg, params = make(seed=2)
        r = np.random.default_rng(21)
        x = r.standard_normal((1, 16, 8, 8))
        gout = r.standard_normal((1, 16, 8, 8))
        out, cache = vac_forward(x, params, cfg)
        _, gp = vac_backward(gout, cache, params, cfg)

        def loss():
            return float((vac_forward(x, params, cfg)[0] * gout).sum())

        assert_close_grad(gp["scale"], numeric_grad(loss, params["scale"]), 1e-5)
        # analytic form: sum of (upstream through up-mix) * V' * A
        g_gated, _, _ = K.conv2d_backward(gout, gating_map(cache, params), params["up_w"],
                                          cfg.up_spec())
        attn = expanded_attention(cache, cfg, params)
        want = (g_gated * down_mixed(x, params, cfg) * attn).sum()
        assert gp["scale"] == pytest.approx(want, rel=1e-12)


class TestParamCount:
    def test_reference_config(self):
        cfg, params = make()  # c_in=16, c_down=4, e1=4, e2=4, k3, groups=4
        count = cfg.param_count()
        enumerated = sum(arr.size for _, arr in params.items())
        assert count == enumerated
        # per-layer sum: (64+4) + (36+4) + (16+4) + (64+16) + 1
        assert count == 209

    def test_groups_one_matches_general_formula(self):
        cfg, params = make(groups=1)
        assert cfg.param_count() == sum(a.size for _, a in params.items())

    def test_doubling_c_in_delta(self):
        cfg1, _ = make(c_in=16)
        cfg2, _ = make(c_in=32)
        delta = cfg2.param_count() - cfg1.param_count()
        c_down = 4
        assert delta == c_down * 16 + 16 + c_down * 16  # down weights, up bias, up weights

    def test_per_channel_scale_counts(self):
        cfg, params = make(per_channel_scale=True)
        assert cfg.param_count() == sum(a.size for _, a in params.items())
        assert cfg.param_count() == 209 - 1 + 4
