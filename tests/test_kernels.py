import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (assert_close_grad, naive_conv2d, naive_conv2d_backward,
                     naive_maxpool, naive_unpool, numeric_grad)
from vacnet import kernels as K
from vacnet.kernels import ConfigError, ConvSpec, IntegrityError, ShapeError


def rng(seed=0):
    return np.random.default_rng(seed)


class TestConvForward:
    def test_pointwise_identity(self):
        x = np.array([3.0, 5.0]).reshape(1, 2, 1, 1)
        w = np.eye(2).reshape(2, 2, 1, 1)
        out = K.conv2d_forward(x, w, np.zeros(2), ConvSpec(2, 2))
        np.testing.assert_array_equal(out, x)

    def test_ones_kernel_counts_coverage(self):
        x = np.ones((1, 1, 2, 2))
        w = np.ones((1, 1, 3, 3))
        spec = ConvSpec(1, 1, kernel=(3, 3), padding=(1, 1))
        out = K.conv2d_forward(x, w, np.zeros(1), spec)
        np.testing.assert_array_equal(out[0, 0], [[4, 4], [4, 4]])

    def test_matches_naive_oracle(self):
        r = rng(1)
        x = r.standard_normal((1, 3, 5, 5))
        w = r.standard_normal((4, 3, 3, 3))
        b = r.standard_normal(4)
        spec = ConvSpec(3, 4, kernel=(3, 3))
        got = K.conv2d_forward(x, w, b, spec)
        want = naive_conv2d(x, w, b)
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_configs_match_naive(self, seed):
        r = rng(seed)
        g = int(r.choice([1, 2, 4]))
        c_in = g * int(r.integers(1, 3))
        c_out = g * int(r.integers(1, 3))
        kh, kw = int(r.integers(1, 4)), int(r.integers(1, 4))
        sh, sw = int(r.integers(1, 3)), int(r.integers(1, 3))
        ph, pw = int(r.integers(0, 2)), int(r.integers(0, 2))
        h = int(r.integers(kh, 8))
        w = int(r.integers(kw, 8))
        spec = ConvSpec(c_in, c_out, (kh, kw), (sh, sw), (ph, pw), g)
        x = r.standard_normal((2, c_in, h, w))
        wt = r.standard_normal(spec.weight_shape())
        b = r.standard_normal(c_out)
        got = K.conv2d_forward(x, wt, b, spec)
        want = naive_conv2d(x, wt, b, (sh, sw), (ph, pw), g)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_groups_equal_independent_slices(self):
        r = rng(7)
        spec = ConvSpec(4, 6, kernel=(3, 3), padding=(1, 1), groups=2)
        x = r.standard_normal((2, 4, 5, 5))
        w = r.standard_normal(spec.weight_shape())
        b = r.standard_normal(6)
        got = K.conv2d_forward(x, w, b, spec)
        parts = []
        for g in range(2):
            sub = ConvSpec(2, 3, kernel=(3, 3), padding=(1, 1))
            parts.append(K.conv2d_forward(x[:, 2 * g:2 * g + 2], w[3 * g:3 * g + 3],
                                          b[3 * g:3 * g + 3], sub))
        np.testing.assert_allclose(got, np.concatenate(parts, axis=1), atol=1e-12)

    def test_shape_errors(self):
        spec = ConvSpec(3, 4, kernel=(3, 3))
        with pytest.raises(ShapeError):
            K.conv2d_forward(np.zeros((1, 2, 5, 5)), np.zeros((4, 3, 3, 3)),
                             np.zeros(4), spec)
        with pytest.raises(ShapeError):
            K.conv2d_forward(np.zeros((1, 3, 5, 5)), np.zeros((4, 3, 2, 2)),
                             np.zeros(4), spec)
        with pytest.raises(ConfigError):
            ConvSpec(3, 4, groups=2)

    def test_deterministic(self):
        r = rng(3)
        x = r.standard_normal((2, 3, 6, 6))
        w = r.standard_normal((5, 3, 3, 3))
        b = r.standard_normal(5)
        spec = ConvSpec(3, 5, kernel=(3, 3), padding=(1, 1))
        a = K.conv2d_forward(x, w, b, spec)
        bb = K.conv2d_forward(x, w, b, spec)
        assert a.tobytes() == bb.tobytes()


class TestConvBackward:
    def test_zero_grad_out(self):
        r = rng(0)
        spec = ConvSpec(2, 3, kernel=(3, 3), padding=(1, 1))
        x = r.standard_normal((1, 2, 4, 4))
        w = r.standard_normal(spec.weight_shape())
        gx, gw, gb = K.conv2d_backward(np.zeros((1, 3, 4, 4)), x, w, spec)
        assert not gx.any() and not gw.any() and not gb.any()

    def test_pointwise_identity_jacobian(self):
        spec = ConvSpec(2, 2)
        x = rng(1).standard_normal((2, 2, 3, 3))
        w = np.eye(2).reshape(2, 2, 1, 1)
        g = rng(2).standard_normal((2, 2, 3, 3))
        gx, _, _ = K.conv2d_backward(g, x, w, spec)
        np.testing.assert_allclose(gx, g, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_finite_differences(self, seed):
        r = rng(seed + 10)
        g = int(r.choice([1, 2]))
        spec = ConvSpec(2 * g, 2 * g, kernel=(2, 2), stride=(int(r.integers(1, 3)),) * 2,
                        padding=(int(r.integers(0, 2)),) * 2, groups=g)
        x = r.standard_normal((1, spec.c_in, 5, 5))
        w = r.standard_normal(spec.weight_shape())
        b = r.standard_normal(spec.c_out)
        gout = r.standard_normal(K.conv2d_forward(x, w, b, spec).shape)

        def loss():
            return float((K.conv2d_forward(x, w, b, spec) * gout).sum())

        gx, gw, gb = K.conv2d_backward(gout, x, w, spec)
        assert_close_grad(gx, numeric_grad(loss, x), 1e-5)
        assert_close_grad(gw, numeric_grad(loss, w), 1e-5)
        assert_close_grad(gb, numeric_grad(loss, b), 1e-5)


class TestConvWorkspace:
    """conv2d_backward keeps its patches and column gradient in one per-thread
    scratch array; nothing it returns may alias that array or its input."""

    @staticmethod
    def case(spec, shape, seed):
        r = rng(seed)
        x = r.standard_normal(shape)
        w = r.standard_normal(spec.weight_shape())
        gout = r.standard_normal((shape[0], spec.c_out, *spec.out_hw(*shape[2:])))
        return gout, x, w, spec

    @pytest.mark.parametrize("spec, hw", [   # attendnet-micro-b's dense convs
        (ConvSpec(3, 16, (3, 3), padding=(1, 1)), (32, 32)),
        (ConvSpec(16, 32, (3, 3), (2, 2), (1, 1)), (32, 32)),
        (ConvSpec(32, 48, (3, 3), (2, 2), (1, 1)), (16, 16)),
    ])
    def test_peak_below_one_chunk_plus_outputs(self, spec, hw):
        # A fresh thread starts with no workspace, so the peak counts the
        # patches: one chunk's, at most PATCH_BYTES, where unfolding all 32
        # images at once takes 7.1, 9.4 and 4.7 MB. The per-image weight-
        # gradient products are summed once all images are done.
        args = self.case(spec, (32, spec.c_in, *hw), 0)
        oh, ow = spec.out_hw(*hw)
        image = spec.c_in * 9 * oh * ow * 8  # one image's float64 patches
        products = 32 * math.prod(spec.weight_shape()) * 8
        got = {}

        def run():
            tracemalloc.start()
            try:
                outs = K.conv2d_backward(*args)
                got["peak"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            got["outputs"] = sum(o.nbytes for o in outs)
            got["workspace"] = K._scratch.buf.nbytes

        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
        assert got["workspace"] <= K.PATCH_BYTES
        bound = K.PATCH_BYTES + image + products + got["outputs"]
        assert got["peak"] < bound, f"peak {got['peak']} B, bound {bound} B"

    @pytest.mark.parametrize("spec", [
        ConvSpec(4, 6, kernel=(3, 3), padding=(1, 1)),
        ConvSpec(4, 4, kernel=(3, 3), stride=(2, 2), groups=4),
        ConvSpec(4, 6),
    ])
    def test_outputs_survive_next_call(self, spec):
        first = self.case(spec, (2, 4, 7, 7), 1)
        x_before = first[1].copy()
        outs = K.conv2d_backward(*first)
        kept = [o.copy() for o in outs]
        K.conv2d_backward(*self.case(spec, (2, 4, 7, 7), 2))
        for o, k in zip(outs, kept):
            np.testing.assert_array_equal(o, k)
        np.testing.assert_array_equal(first[1], x_before)

    def test_threads_match_serial_run(self):
        # more threads than cores, each with its own conv shape, so a buffer
        # shared between threads would be overwritten mid-call
        specs = [(ConvSpec(4, 8, kernel=(3, 3), padding=(1, 1)), (4, 4, 12, 12)),
                 (ConvSpec(6, 6, kernel=(3, 3), stride=(2, 2), groups=3), (3, 6, 9, 9)),
                 (ConvSpec(3, 3, kernel=(3, 3), padding=(1, 1), groups=3), (5, 3, 10, 10)),
                 (ConvSpec(2, 4, kernel=(2, 2), stride=(2, 2)), (6, 2, 8, 8))]
        cases = [[self.case(spec, shape, 3 * t + s) for s in range(3)]
                 for t, (spec, shape) in enumerate(specs)]
        serial = [[K.conv2d_backward(*c) for c in cs] for cs in cases]
        start = threading.Barrier(len(specs))
        done = [0] * len(specs)

        def run(t):
            start.wait()
            for i in range(200):
                got = K.conv2d_backward(*cases[t][i % 3])
                if not all(np.array_equal(g, w) for g, w in zip(got, serial[t][i % 3])):
                    return
                done[t] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(t,)) for t in range(len(specs))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert done == [200] * len(specs)


def check_conv_oracles(x, spec, seed):
    """conv2d_forward and conv2d_backward against the naive loops at 1e-12."""
    r = rng(seed)
    w = r.standard_normal(spec.weight_shape())
    b = r.standard_normal(spec.c_out)
    out = K.conv2d_forward(x, w, b, spec)
    want = naive_conv2d(x, w, b, spec.stride, spec.padding, spec.groups)
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)
    gout = r.standard_normal(out.shape)
    got = K.conv2d_backward(gout, x, w, spec)
    want = naive_conv2d_backward(gout, x, w, spec.stride, spec.padding, spec.groups)
    for name, g, wg in zip(("input", "weights", "bias"), got, want):
        assert g.shape == wg.shape, name
        np.testing.assert_allclose(g, wg, rtol=0, atol=1e-12, err_msg=name)


class TestConvChunks:
    """A small PATCH_BYTES splits a batch into 1- and 2-image chunks; the
    results match the naive loops and, byte for byte, an unchunked run."""

    @pytest.mark.parametrize("budget, per_chunk", [
        (0.5, 1),   # a budget below one image's patches still takes one image
        (2.5, 2),
    ])
    @pytest.mark.parametrize("batch", [1, 2, 3, 5])
    @pytest.mark.parametrize("spec, hw", [
        (ConvSpec(3, 4, (3, 3), (2, 2), (1, 1)), (7, 8)),             # dense 3x3 s2 p1
        (ConvSpec(4, 6, (3, 2), (1, 2), (0, 1), groups=2), (5, 5)),   # grouped
        (ConvSpec(3, 6, (3, 3), padding=(1, 1), groups=3), (5, 6)),   # depthwise x2
        (ConvSpec(4, 3, padding=(1, 1)), (4, 3)),                     # 1x1 p1
        (ConvSpec(4, 6, groups=2), (4, 3)),                           # pointwise: a view
    ])
    def test_matches_naive_and_unchunked(self, monkeypatch, spec, hw, batch, budget,
                                         per_chunk):
        r = rng(batch)
        x = r.standard_normal((batch, spec.c_in, *hw))
        w = r.standard_normal(spec.weight_shape())
        b = r.standard_normal(spec.c_out)
        oh, ow = spec.out_hw(*hw)
        gout = r.standard_normal((batch, spec.c_out, oh, ow))

        def run():
            return (K.conv2d_forward(x, w, b, spec), *K.conv2d_backward(gout, x, w, spec))

        monkeypatch.setattr(K, "PATCH_BYTES", 2**40)
        whole = run()
        image = spec.c_in * spec.kernel[0] * spec.kernel[1] * oh * ow * 8
        monkeypatch.setattr(K, "PATCH_BYTES", int(budget * image))
        seen = []
        im2col = K._im2col

        def spy(xc, *args, **kwargs):
            seen.append(len(xc))
            return im2col(xc, *args, **kwargs)

        monkeypatch.setattr(K, "_im2col", spy)
        chunked = run()
        if spec.kernel == (1, 1) and spec.padding == (0, 0):
            sizes = [batch]
        else:
            sizes = [min(per_chunk, batch - lo) for lo in range(0, batch, per_chunk)]
        assert seen == sizes * 2   # forward, then backward

        for name, got, want in zip(("output", "input", "weights", "bias"), chunked, whole):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        np.testing.assert_allclose(
            chunked[0], naive_conv2d(x, w, b, spec.stride, spec.padding, spec.groups),
            rtol=0, atol=1e-12)
        want = naive_conv2d_backward(gout, x, w, spec.stride, spec.padding, spec.groups)
        for name, got, wg in zip(("input", "weights", "bias"), chunked[1:], want):
            np.testing.assert_allclose(got, wg, rtol=0, atol=1e-12, err_msg=name)


class TestConvGeometry:
    """A one-image forward gathers its patches through the spec's cached
    index; a batch copies them tap by tap. Both give the same bits."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_single_images_equal_batch_rows(self, data):
        def draw(lo, hi):
            return data.draw(st.integers(lo, hi))
        # g == c_in is depthwise; padding up to the kernel size and strides
        # above it leave some taps wholly in the padding
        g = data.draw(st.sampled_from([1, 2, 3]))
        kh, kw = draw(1, 5), draw(1, 5)
        ph, pw = draw(0, kh), draw(0, kw)
        spec = ConvSpec(g * draw(1, 2), g * draw(1, 2), (kh, kw), (draw(1, 3), draw(1, 3)),
                        (ph, pw), g)
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        r = rng(draw(0, 2**16))
        x = r.standard_normal((draw(2, 3), spec.c_in, draw(max(1, kh - 2 * ph), 8),
                               draw(max(1, kw - 2 * pw), 8))).astype(dtype)
        w = r.standard_normal(spec.weight_shape()).astype(dtype)
        b = r.standard_normal(spec.c_out).astype(dtype)
        batch = K.conv2d_forward(x, w, b, spec)
        for i in range(len(x)):
            one = K.conv2d_forward(x[i:i + 1], w, b, spec)
            assert one.dtype == batch.dtype and one.shape == batch[i:i + 1].shape
            assert one.tobytes() == batch[i:i + 1].tobytes()
        np.testing.assert_allclose(
            one, naive_conv2d(x[-1:], w, b, spec.stride, spec.padding, spec.groups),
            rtol=0, atol=1e-4 if dtype == np.float32 else 1e-12)

    def test_one_record_per_input_size(self):
        spec = ConvSpec(2, 3, (3, 3), (2, 2), (1, 1))
        w, b = np.ones(spec.weight_shape()), np.zeros(3)
        for hw in ((5, 6), (8, 8), (5, 6)):
            K.conv2d_forward(np.ones((1, 2, *hw)), w, b, spec)
        small, large = spec.geometry(5, 6), spec.geometry(8, 8)
        assert small is not large and spec.geometry(5, 6) is small
        assert (small.oh, small.ow, large.oh, large.ow) == (3, 3, 4, 4)
        assert sorted(spec._geometries) == [(5, 6), (8, 8)]

    def test_patch_bytes_set_after_a_warm_call_still_chunks(self, monkeypatch):
        spec = ConvSpec(3, 4, (3, 3), padding=(1, 1))
        x = rng(0).standard_normal((3, 3, 6, 6))
        w, b = rng(1).standard_normal(spec.weight_shape()), np.zeros(4)
        whole = K.conv2d_forward(x, w, b, spec)   # makes the record
        seen = []
        im2col = K._im2col

        def spy(xc, *args, **kwargs):
            seen.append(len(xc))
            return im2col(xc, *args, **kwargs)

        monkeypatch.setattr(K, "_im2col", spy)
        monkeypatch.setattr(K, "PATCH_BYTES", spec.geometry(6, 6).elems * 8)
        chunked = K.conv2d_forward(x, w, b, spec)
        assert seen == [1, 1, 1]
        assert chunked.tobytes() == whole.tobytes()


class TestConvWithoutInputGrad:
    """``input_grad=False`` returns None for the input gradient and the
    weight and bias gradients of the full backward, byte for byte."""

    @pytest.mark.parametrize("per_chunk", [None, 1, 2])  # None: one chunk
    @pytest.mark.parametrize("spec, hw", [
        (ConvSpec(3, 4, (3, 3), (2, 2), (1, 1)), (7, 8)),             # dense 3x3 s2 p1
        (ConvSpec(4, 6, (3, 2), (1, 2), (0, 1), groups=2), (5, 5)),   # grouped
        (ConvSpec(3, 6, (3, 3), padding=(1, 1), groups=3), (5, 6)),   # depthwise x2
        (ConvSpec(4, 6), (4, 3)),                                     # pointwise
    ])
    def test_parameter_grads_bitwise(self, monkeypatch, spec, hw, per_chunk):
        r = rng(per_chunk or 0)
        x = r.standard_normal((5, spec.c_in, *hw))
        w = r.standard_normal(spec.weight_shape())
        oh, ow = spec.out_hw(*hw)
        gout = r.standard_normal((5, spec.c_out, oh, ow))
        if per_chunk:
            image = spec.c_in * spec.kernel[0] * spec.kernel[1] * oh * ow * 8
            monkeypatch.setattr(K, "PATCH_BYTES", per_chunk * image)
        _, gw, gb = K.conv2d_backward(gout, x, w, spec)
        got = K.conv2d_backward(gout, x, w, spec, input_grad=False)
        assert got[0] is None
        assert got[1].tobytes() == gw.tobytes() and got[2].tobytes() == gb.tobytes()

    def test_forms_no_input_gradient(self):
        # attendnet-micro-b's first conv: the 0.8 MB input gradient and the
        # column gradient are never formed
        spec = ConvSpec(3, 16, (3, 3), padding=(1, 1))
        gout, x, w, _ = TestConvWorkspace.case(spec, (32, 3, 32, 32), 0)
        peaks = []
        for input_grad in (True, False):
            K.conv2d_backward(gout, x, w, spec, input_grad=input_grad)  # warm up
            tracemalloc.start()
            try:
                K.conv2d_backward(gout, x, w, spec, input_grad=input_grad)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] - x.nbytes, f"peaks {peaks} B"


class TestConvOracles:
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("spec, hw", [
        (ConvSpec(3, 6, (3, 3), padding=(1, 1), groups=3), (5, 6)),   # depthwise x2
        (ConvSpec(4, 3, stride=(2, 2)), (5, 5)),                      # 1x1 s2
        (ConvSpec(4, 3, padding=(1, 1)), (4, 3)),                     # 1x1 p1
        (ConvSpec(3, 4, (3, 3), (2, 2), (1, 1)), (7, 8)),             # dense 3x3 s2 p1
        (ConvSpec(4, 6, (3, 2), (1, 2), (0, 1), groups=2), (5, 5)),   # grouped
        (ConvSpec(3, 5), (4, 4)),                                     # pointwise
    ])
    def test_matches_naive(self, spec, hw, batch):
        x = rng(batch).standard_normal((batch, spec.c_in, *hw))
        check_conv_oracles(x, spec, seed=batch + 1)

    def test_pointwise_patches_are_a_view(self):
        x = rng(0).standard_normal((2, 4, 3, 5))
        spec = ConvSpec(4, 6, groups=2)
        cols = K._im2col(x, spec.geometry(3, 5))
        assert cols.shape == (2, 2, 2, 15)
        assert np.shares_memory(cols, x)

    def test_strided_spatial_input(self):
        x = rng(1).standard_normal((2, 3, 10, 9))[:, :, ::2, ::2]
        check_conv_oracles(x, ConvSpec(3, 4, kernel=(3, 3), padding=(1, 1)), seed=2)
        check_conv_oracles(x, ConvSpec(3, 4), seed=3)

    def test_channel_slice_input(self):
        x = rng(4).standard_normal((2, 7, 5, 5))[:, 2:6]
        check_conv_oracles(x, ConvSpec(4, 4, groups=2), seed=5)
        check_conv_oracles(x, ConvSpec(4, 8, kernel=(3, 3), stride=(2, 2),
                                       padding=(1, 1), groups=4), seed=6)

    def test_backward_grad_input_view_as_input(self):
        # The interior of a padded array: row-strided, not C-contiguous, and
        # offset from its base, as a gradient cropped from a padded one is.
        gx = rng(7).standard_normal((2, 3, 8, 8))[:, :, 1:7, 1:7]
        assert not gx.flags.c_contiguous
        check_conv_oracles(gx, ConvSpec(3, 4), seed=8)
        check_conv_oracles(gx, ConvSpec(3, 3, kernel=(3, 3), stride=(2, 2),
                                        padding=(1, 1), groups=3), seed=9)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_specs_property(self, data):
        def draw(lo, hi):
            return data.draw(st.integers(lo, hi))
        g = data.draw(st.sampled_from([1, 2, 3]))
        kh, kw = draw(1, 3), draw(1, 3)
        # padding up to the kernel size and strides up to 3 leave some taps
        # with no in-bounds output at all
        ph, pw = draw(0, kh), draw(0, kw)
        spec = ConvSpec(g * draw(1, 2), g * draw(1, 2), (kh, kw), (draw(1, 3), draw(1, 3)),
                        (ph, pw), g)
        shape = (draw(1, 2), spec.c_in, draw(max(1, kh - 2 * ph), 6),
                 draw(max(1, kw - 2 * pw), 6))
        check_conv_oracles(rng(draw(0, 2**16)).standard_normal(shape), spec, draw(0, 2**16))

    def test_taps_wholly_in_padding_are_skipped(self):
        # 1x1 input, 3x3 kernel, padding 3, stride 3: output row (col) 0 reads
        # rows (cols) -3..-1 and output 1 reads 0..2, so only tap (0, 0) of
        # output (1, 1) reaches the single pixel.
        spec = ConvSpec(1, 1, (3, 3), (3, 3), (3, 3))
        assert [t[:2] for t in spec.geometry(1, 1).taps] == [(0, 0)]
        check_conv_oracles(rng(0).standard_normal((2, 1, 1, 1)), spec, seed=1)


POOL_SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0, 0.5])


class TestMaxPool:
    def test_single_window(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        out, idx = K.maxpool2d_forward(x, (2, 2), (2, 2))
        assert out[0, 0, 0, 0] == 4.0
        assert idx[0, 0, 0, 0] == 3

    def test_constant_input(self):
        x = np.full((1, 2, 4, 4), 5.0)
        out, idx = K.maxpool2d_forward(x, (2, 2), (2, 2))
        assert (out == 5.0).all()
        # ties break to the lowest flat offset: top-left of each window
        want, _ = naive_maxpool(x, (2, 2), (2, 2))
        _, want_idx = naive_maxpool(x, (2, 2), (2, 2))
        np.testing.assert_array_equal(idx, want_idx)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bruteforce(self, seed):
        x = rng(seed).standard_normal((1, 2, 6, 6))
        out, idx = K.maxpool2d_forward(x, (2, 2), (2, 2))
        want, want_idx = naive_maxpool(x, (2, 2), (2, 2))
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(idx, want_idx)

    def test_overlapping_windows(self):
        x = rng(9).standard_normal((2, 3, 7, 5))
        out, idx = K.maxpool2d_forward(x, (3, 2), (2, 1))
        want, want_idx = naive_maxpool(x, (3, 2), (2, 1))
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(idx, want_idx)

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError):
            K.maxpool2d_forward(np.zeros((1, 1, 2, 2)), (3, 3), (1, 1))

    @pytest.mark.parametrize("kernel", [(0, 2), (2, 0), (0, 0)])
    def test_kernel_side_below_one(self, kernel):
        with pytest.raises(ConfigError, match="must be >= 1"):
            K.maxpool2d_forward(np.zeros((1, 1, 4, 4)), kernel, (1, 1))

    def test_backward_fd(self):
        x = rng(4).standard_normal((1, 2, 4, 4))
        gout = rng(5).standard_normal((1, 2, 2, 2))

        def loss():
            return float((K.maxpool2d_forward(x, (2, 2), (2, 2))[0] * gout).sum())

        _, idx = K.maxpool2d_forward(x, (2, 2), (2, 2))
        gx = K.maxpool2d_backward(gout, idx, x.shape)
        assert_close_grad(gx, numeric_grad(loss, x), 1e-5)

    @pytest.mark.parametrize("idx", [[[[[-1]]]], [[[[4]]]], np.zeros((1, 1, 2, 2), int)])
    def test_backward_rejects_bad_indices(self, idx):
        # negative, past the end of the 2x2 input, or not the gradient's shape
        with pytest.raises(IntegrityError):
            K.maxpool2d_backward(np.ones((1, 1, 1, 1)), np.asarray(idx), (1, 1, 2, 2))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_pools_property(self, data):
        # Small integers make ties common; the tie rule must match the oracle's
        # first-in-window-order maximum. NaN wins only as its window's first
        # tap, -0.0 and 0.0 tie (the first wins, with its sign), and float32
        # stays float32. Windows may overlap (stride < kernel) or skip pixels
        # (stride > kernel), and the input may be a strided view.
        def draw(lo, hi):
            return data.draw(st.integers(lo, hi))
        kernel, stride = (draw(1, 3), draw(1, 3)), (draw(1, 3), draw(1, 3))
        n, c, h, w = draw(1, 2), draw(1, 3), draw(kernel[0], 7), draw(kernel[1], 7)
        step = draw(1, 2)
        values = data.draw(st.sampled_from([np.arange(-2.0, 3.0), POOL_SPECIALS]))
        dtype = data.draw(st.sampled_from([np.float64, np.float32]))
        base = rng(draw(0, 2**16)).choice(values, size=(n, c + 1, h * step, w * step))
        x = base.astype(dtype)[:, 1:, ::step, ::step]
        if data.draw(st.booleans()):  # column-major planes
            x = np.ascontiguousarray(x.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
        out, idx = K.maxpool2d_forward(x, kernel, stride)
        want, want_idx = naive_maxpool(x, kernel, stride)
        assert out.dtype == want.dtype == dtype and idx.dtype == want_idx.dtype
        assert out.tobytes() == want.tobytes()
        np.testing.assert_array_equal(idx, want_idx)

    def test_nan_wins_only_as_first_tap(self):
        x = np.array([[np.nan, 1.0], [2.0, 3.0],
                      [0.0, np.nan], [-1.0, -2.0]]).reshape(1, 1, 4, 2)
        out, idx = K.maxpool2d_forward(x, (2, 2), (2, 2))
        assert np.isnan(out[0, 0, 0, 0]) and idx[0, 0, 0, 0] == 0
        assert out[0, 0, 1, 0] == 0.0 and idx[0, 0, 1, 0] == 4

    def test_returned_indices_and_batch_size_do_not_leak_into_next_call(self):
        x = rng(3).standard_normal((3, 2, 6, 6))
        want, want_idx = naive_maxpool(x[:1], (2, 2), (2, 2))
        pooled, idx = K.maxpool2d_forward(x[:1], (2, 2), (2, 2))
        idx[...] = -1
        for consumer in (K.maxpool2d_backward, K.unpool2d_forward):
            with pytest.raises(IntegrityError):
                consumer(pooled, idx, x[:1].shape)
        K.maxpool2d_forward(x, (2, 2), (2, 2))  # same plane shape, larger batch
        out, idx = K.maxpool2d_forward(x[:1], (2, 2), (2, 2))
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(idx, want_idx)

    def test_cached_window_starts_are_read_only(self):
        K.maxpool2d_forward(np.zeros((2, 3, 6, 6)), (2, 2), (2, 2))
        *_, window_starts, plane_starts = K._pool_geometry(2, 3, 6, 6, 2, 2, 2, 2)
        for starts in (window_starts, plane_starts):
            with pytest.raises(ValueError):
                starts[0, 0] = 1


class TestUnpool:
    def test_inverse_placement(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        pooled, idx = K.maxpool2d_forward(x, (2, 2), (2, 2))
        out = K.unpool2d_forward(pooled, idx, x.shape)
        np.testing.assert_array_equal(out[0, 0], [[0, 0], [0, 4]])

    def test_zero_input(self):
        idx = np.zeros((1, 1, 1, 1), dtype=np.int64)
        out = K.unpool2d_forward(np.zeros((1, 1, 1, 1)), idx, (1, 1, 2, 2))
        assert not out.any()

    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip_positions(self, seed):
        x = rng(seed + 20).standard_normal((1, 2, 6, 6))
        pooled, idx = K.maxpool2d_forward(x, (2, 2), (2, 2))
        got = K.unpool2d_forward(pooled, idx, x.shape)
        want = naive_unpool(pooled, idx, x.shape)
        np.testing.assert_array_equal(got, want)

    def test_pool_unpool_pool_idempotent(self):
        # Holds for non-negative inputs; a negative window max would lose to
        # the zero fill introduced by unpooling.
        x = np.abs(rng(31).standard_normal((2, 3, 8, 8)))
        pooled, idx = K.maxpool2d_forward(x, (2, 2), (2, 2))
        expanded = K.unpool2d_forward(pooled, idx, x.shape)
        again, _ = K.maxpool2d_forward(expanded, (2, 2), (2, 2))
        np.testing.assert_array_equal(pooled, again)

    def test_out_of_bounds_index(self):
        idx = np.array([[[[99]]]], dtype=np.int64)
        with pytest.raises(IntegrityError):
            K.unpool2d_forward(np.ones((1, 1, 1, 1)), idx, (1, 1, 2, 2))

    def test_backward_is_gather(self):
        x = rng(6).standard_normal((1, 1, 4, 4))
        pooled, idx = K.maxpool2d_forward(x, (2, 2), (2, 2))
        gout = rng(7).standard_normal(x.shape)

        def loss():
            return float((K.unpool2d_forward(pooled, idx, x.shape) * gout).sum())

        g = K.unpool2d_backward(gout, idx)
        assert_close_grad(g, numeric_grad(loss, pooled), 1e-6)


class TestRelu:
    def test_examples(self):
        np.testing.assert_array_equal(
            K.relu_forward(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])
        x = np.abs(rng(0).standard_normal(5)) + 0.1
        np.testing.assert_array_equal(K.relu_forward(x), x)

    def test_backward_fd_away_from_kink(self):
        x = rng(1).standard_normal((1, 2, 3, 3))
        x[np.abs(x) < 1e-4] = 0.5
        gout = rng(2).standard_normal(x.shape)

        def loss():
            return float((K.relu_forward(x) * gout).sum())

        assert_close_grad(K.relu_backward(gout, x), numeric_grad(loss, x), 1e-5)


class TestSigmoid:
    @staticmethod
    def split_by_sign(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    def test_bitwise_equal_to_split_by_sign(self):
        x = np.concatenate([rng(0).standard_normal(500) * 40, [0.0, -0.0, 1e-300, -1e-300,
                                                                 36.7, -36.7, 745.2, -745.2]])
        got = K.sigmoid_forward(x.reshape(2, 1, 2, -1))
        assert got.dtype == np.float64
        assert got.tobytes() == self.split_by_sign(x).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_equal_to_where_formula_on_special_values(self, dtype):
        # NaN is checked here, not above: the split gives it the other sign bit.
        tiny = np.finfo(dtype).smallest_subnormal
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 800.0, -800.0,
                      88.7, -88.7, 104.0, -104.0, tiny, -tiny], dtype=dtype)
        x = np.concatenate([x, (rng(2).standard_normal(1000) * 40).astype(dtype)])
        e = np.exp(-np.abs(x))
        want = np.where(x >= 0, dtype(1.0), e) / (dtype(1.0) + e)
        got = K.sigmoid_forward(x)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()

    def test_no_overflow_at_extremes(self):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = K.sigmoid_forward(np.array([-1000.0, 1000.0]))
        np.testing.assert_array_equal(got, [0.0, 1.0])

    def test_float32_stays_float32(self):
        x = (rng(1).standard_normal((2, 1, 3, 50)) * 10).astype(np.float32)
        got = K.sigmoid_forward(x)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, self.split_by_sign(x.astype(np.float64)),
                                   rtol=1e-6, atol=0)


class TestGap:
    def test_constant(self):
        assert K.global_avg_pool_forward(np.full((1, 1, 3, 3), 7.0))[0, 0, 0, 0] == 7.0

    def test_mean(self):
        x = np.array([[1.0, 3.0], [5.0, 7.0]]).reshape(1, 1, 2, 2)
        assert K.global_avg_pool_forward(x)[0, 0, 0, 0] == 4.0

    def test_matches_direct_sum(self):
        x = rng(3).standard_normal((2, 3, 5, 4))
        want = x.sum(axis=(2, 3)) / 20.0
        np.testing.assert_allclose(
            K.global_avg_pool_forward(x)[:, :, 0, 0], want, atol=1e-14)

    def test_backward_fd(self):
        x = rng(4).standard_normal((1, 2, 3, 3))
        gout = rng(5).standard_normal((1, 2, 1, 1))

        def loss():
            return float((K.global_avg_pool_forward(x) * gout).sum())

        gx = K.global_avg_pool_backward(gout, x.shape)
        assert_close_grad(gx, numeric_grad(loss, x), 1e-6)


class TestFc:
    def test_identity_passthrough(self):
        x = rng(0).standard_normal((2, 3))
        np.testing.assert_array_equal(K.fc_forward(x, np.eye(3), np.zeros(3)), x)

    def test_zero_weights_give_bias(self):
        b = np.array([1.0, -2.0])
        out = K.fc_forward(np.ones((3, 4)), np.zeros((2, 4)), b)
        np.testing.assert_array_equal(out, np.tile(b, (3, 1)))

    def test_backward_fd(self):
        r = rng(11)
        x = r.standard_normal((3, 4))
        w = r.standard_normal((2, 4))
        b = r.standard_normal(2)
        gout = r.standard_normal((3, 2))

        def loss():
            return float((K.fc_forward(x, w, b) * gout).sum())

        gx, gw, gb = K.fc_backward(gout, x, w)
        assert_close_grad(gx, numeric_grad(loss, x), 1e-5)
        assert_close_grad(gw, numeric_grad(loss, w), 1e-5)
        assert_close_grad(gb, numeric_grad(loss, b), 1e-5)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            K.fc_forward(np.zeros((1, 3)), np.zeros((2, 4)), np.zeros(2))


class TestSoftmaxXent:
    def test_uniform_and_ln10(self):
        p = K.softmax(np.zeros((1, 10)))
        np.testing.assert_allclose(p, np.full((1, 10), 0.1), atol=1e-15)
        assert K.cross_entropy(p, np.array([3])) == pytest.approx(np.log(10), abs=1e-12)

    def test_large_logits_stable(self):
        p = K.softmax(np.array([[1000.0, 0.0]]))
        np.testing.assert_allclose(p, [[1.0, 0.0]], atol=1e-300)
        assert np.isfinite(p).all()

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            K.softmax(np.zeros((0, 10)))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_simplex_property(self, logits):
        p = K.softmax(np.array([logits]))
        assert (p >= 0).all()
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_fused_gradient_fd(self):
        z = rng(13).standard_normal((2, 5))
        labels = np.array([1, 4])

        def loss():
            return K.cross_entropy(K.softmax(z), labels)

        g = K.softmax_xent_backward(K.softmax(z), labels)
        assert_close_grad(g, numeric_grad(loss, z), 1e-5)
