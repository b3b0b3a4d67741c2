import functools
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacnet import netbuilder as nb
from vacnet import quant, trainer
from vacnet.kernels import ConfigError
from vacnet.quant import (PER_CHANNEL, PER_TENSOR, load_quantized,
                          quantize_array, quantize_weights,
                          save_quantized, weight_memory_bytes)

SPEC = """\
input 1 8 8
conv k3 s1 p1 c4
vac dm2 e1:4 e2:2 um4 g2
pepe p1:2 e1:4 p2:2 e2:4
gap
fc 3
softmax
"""


def make_net(seed=0):
    return nb.compile_spec(nb.parse_dsl(SPEC), seed=seed)


class TestQuantizeArray:
    def test_symmetric_endpoints(self):
        blob = quantize_array(np.array([-1.0, 0.0, 1.0]), PER_TENSOR)
        assert blob.scales[0] == pytest.approx(1 / 127)
        np.testing.assert_array_equal(blob.values, [-127, 0, 127])

    def test_all_zero_tensor(self):
        blob = quantize_array(np.zeros((3, 4)), PER_TENSOR)
        assert blob.scales[0] == 1.0
        assert not blob.values.any()
        blob = quantize_array(np.zeros((3, 4)), PER_CHANNEL)
        assert (blob.scales == 1.0).all()

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_dequantization_error_bound(self, values):
        arr = np.array(values)
        blob = quantize_array(arr, PER_TENSOR)
        err = np.abs(blob.dequantize() - arr)
        assert (err <= blob.scales[0] / 2 + 1e-12).all()

    def test_per_channel_never_worse_than_per_tensor(self):
        r = np.random.default_rng(0)
        for _ in range(20):
            arr = r.standard_normal((4, 6)) * r.random(4)[:, None]
            e_t = np.abs(quantize_array(arr, PER_TENSOR).dequantize() - arr).max()
            e_c = np.abs(quantize_array(arr, PER_CHANNEL).dequantize() - arr).max()
            assert e_c <= e_t + 1e-15

    @pytest.mark.parametrize("mode", [PER_TENSOR, PER_CHANNEL])
    def test_subnormal_groups_get_positive_scales(self, mode):
        # max|w|/127 underflows to 0 for the first group, not for the third
        arr = np.array([[1e-322, 0.0], [0.0, 0.0], [1e-315, -3e-316], [1.0, -0.5]])
        with np.errstate(all="raise"):
            blobs = [quantize_array(arr, mode), quantize_array(arr[0], mode)]
        for blob in blobs:
            assert (np.isfinite(blob.scales) & (blob.scales > 0)).all(), blob.scales
        np.testing.assert_array_equal(blobs[1].values, [0, 0])
        if mode == PER_CHANNEL:
            np.testing.assert_array_equal(blobs[0].scales[:2], [1.0, 1.0])
            np.testing.assert_array_equal(blobs[0].values[:2], 0)

    def test_round_half_away_from_zero(self):
        # max 2.54 -> scale 0.02, so 0.05/scale = 2.5 exactly
        arr = np.array([0.05, -0.05, 2.54])
        blob = quantize_array(arr, PER_TENSOR)
        np.testing.assert_array_equal(blob.values[:2], [3, -3])


def dequantized_reference(net, qnet):
    """A fresh float network holding ``qnet``'s dequantized blobs and ``net``'s
    other parameters."""
    ref = nb.compile_spec(net.spec, seed=0)
    ref_params = dict(ref.parameters())
    for name, arr in net.parameters():
        if name in qnet.blobs:
            ref_params[name][...] = qnet.blobs[name].dequantize()
        else:
            ref_params[name][...] = arr
    return ref


class TestQuantizeNetwork:
    @pytest.mark.parametrize("mode", [PER_TENSOR, PER_CHANNEL])
    def test_forward_equals_dequantized_reference(self, mode):
        net = make_net()
        qnet = quantize_weights(net, mode)
        x = np.random.default_rng(1).random((3, 1, 8, 8))
        np.testing.assert_allclose(qnet.forward(x),
                                   dequantized_reference(net, qnet).forward(x), atol=1e-12)

    def test_zero_input_case(self):
        net = make_net(seed=3)
        qnet = quantize_weights(net, PER_CHANNEL)
        x = np.zeros((1, 1, 8, 8))
        np.testing.assert_allclose(qnet.forward(x),
                                   dequantized_reference(net, qnet).forward(x), atol=0)

    def test_biases_not_quantized(self):
        net = make_net()
        qnet = quantize_weights(net, PER_CHANNEL)
        for name, arr in net.parameters():
            if quant.is_bias(name):
                assert name not in qnet.blobs
                np.testing.assert_array_equal(dict(qnet.parameters())[name], arr)
            else:
                assert name in qnet.blobs

    def test_idempotent_bitwise(self):
        net = make_net(seed=5)
        q1 = quantize_weights(net, PER_CHANNEL)
        q2 = quantize_weights(q1, PER_CHANNEL)
        for name, blob in q1.blobs.items():
            again = q2.blobs[name]
            assert blob.values.tobytes() == again.values.tobytes()
            assert blob.scales.tobytes() == again.scales.tobytes()

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            quantize_weights(make_net(), "int4")

    def test_draws_no_weights(self, monkeypatch):
        net = make_net(seed=5)
        want = quantize_weights(net, PER_CHANNEL)

        def no_generator(*args):
            raise AssertionError("quantize_weights drew weights it overwrites")
        monkeypatch.setattr(np.random, "PCG64", no_generator)
        got = quantize_weights(net, PER_CHANNEL)
        for (_, a), (_, b) in zip(want.parameters(), got.parameters()):
            assert a.tobytes() == b.tobytes()


class TestWeightMemory:
    def test_exact_4x_reduction(self):
        net = make_net()
        assert weight_memory_bytes(net, 32) == 4 * weight_memory_bytes(net, 8)

    def test_published_scale_ratios(self):
        # 782K params at 8-bit vs 3260K at 32-bit
        small = 782_000 * 8 / 8
        big = 3_260_000 * 32 / 8
        assert big / small == pytest.approx(16.68, abs=0.005)
        assert 1_870_000 * 32 / (782_000 * 8) == pytest.approx(9.57, abs=0.005)

    def test_bits_validated(self):
        with pytest.raises(ConfigError):
            weight_memory_bytes(make_net(), 16)


class TestQuantizedFile:
    def test_roundtrip(self, tmp_path):
        qnet = quantize_weights(make_net(seed=7), PER_CHANNEL)
        path = tmp_path / "m.acnk8"
        save_quantized(qnet, path)
        loaded = load_quantized(path)
        ranked = [b for b in loaded.blobs.values() if b.values.ndim >= 2]
        assert ranked and all(b.per_channel for b in ranked)
        for name, blob in qnet.blobs.items():
            assert loaded.blobs[name].values.tobytes() == blob.values.tobytes()
            assert loaded.blobs[name].scales.tobytes() == blob.scales.tobytes()
        x = np.random.default_rng(2).random((2, 1, 8, 8))
        np.testing.assert_array_equal(qnet.forward(x), loaded.forward(x))

    @pytest.mark.parametrize("mode", [PER_CHANNEL, PER_TENSOR])
    def test_plain_loader_dequantizes_int8_blobs(self, tmp_path, mode):
        path = tmp_path / "m.acnk8"
        qnet = quantize_weights(make_net(seed=4), mode)
        save_quantized(qnet, path)
        loaded = nb.load(path)
        assert loaded.blobs.keys() == qnet.blobs.keys()
        for name, blob in qnet.blobs.items():
            got = loaded.blobs[name]
            assert got.values.dtype == np.int8
            assert got.values.tobytes() == blob.values.tobytes(), name
            assert got.scales.tobytes() == blob.scales.tobytes(), name
            assert got.per_channel == blob.per_channel, name
        for (name, a), (_, b) in zip(loaded.parameters(), qnet.parameters()):
            assert a.tobytes() == b.tobytes(), name
        x = np.random.default_rng(5).random((3, 1, 8, 8))
        assert loaded.forward(x).tobytes() == qnet.forward(x).tobytes()

    def test_training_drops_stale_int8_blobs(self, tmp_path):
        path = tmp_path / "m.acnk8"
        save_quantized(quantize_weights(make_net(seed=6), PER_CHANNEL), path)
        net = load_quantized(path)
        r = np.random.default_rng(8)
        data = trainer.Dataset(r.random((4, 1, 8, 8)), r.integers(0, 3, size=4))
        trainer.train(net, data, trainer.TrainConfig(lr=0.1, batch_size=4, epochs=1))
        assert net.blobs == {}
        again = tmp_path / "trained.acnk8"
        save_quantized(net, again)
        loaded = load_quantized(again)
        assert loaded.blobs == {}  # every blob in the file has tag 0
        for (name, a), (_, b) in zip(loaded.parameters(), net.parameters()):
            assert a.tobytes() == b.tobytes(), name

    @staticmethod
    def patch_blob_header(path, tag, fmt, field, delta):
        """Add delta to one header field of the first blob with this tag. Field
        offsets count from the tag byte: float64 blobs are (tag B, nbytes Q),
        int8 blobs are (tag B, per_channel B, n_scales I, nbytes Q)."""
        raw = bytearray(path.read_bytes())
        (text_len,) = struct.unpack_from("<I", raw, 8)
        pos = 12 + text_len + 4
        while raw[pos] != tag:
            if raw[pos] == 0:
                pos += 9 + struct.unpack_from("<Q", raw, pos + 1)[0]
            else:
                _, n_scales, nbytes = struct.unpack_from("<BIQ", raw, pos + 1)
                pos += 14 + 8 * n_scales + nbytes
        (value,) = struct.unpack_from(fmt, raw, pos + field)
        struct.pack_into(fmt, raw, pos + field, value + delta)
        path.write_bytes(bytes(raw))

    @pytest.mark.parametrize("tag, fmt, field, delta, match", [
        (1, "<I", 2, 1, "scales"),   # one scale too many: per-channel broadcast fails
        (1, "<Q", 6, -1, "values"),  # one int8 value short: reshape fails
        (0, "<Q", 1, -8, "bytes"),   # one float64 bias value short
    ])
    def test_wrong_blob_header_is_format_error(self, tmp_path, tag, fmt, field, delta,
                                                match):
        path = tmp_path / "m.acnk8"
        save_quantized(quantize_weights(make_net(), PER_CHANNEL), path)
        self.patch_blob_header(path, tag, fmt, field, delta)
        with pytest.raises(nb.FormatError, match=f"blob .* {match}"):
            load_quantized(path)


@functools.lru_cache(maxsize=None)
def saved_model(kind):
    """Bytes of a saved .acnk ("float") or .acnk8 (quantization mode) file."""
    net = make_net(seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m")
        if kind == "float":
            nb.save(net, path)
        else:
            save_quantized(quantize_weights(net, kind), path)
        with open(path, "rb") as fh:
            return fh.read()


def load_both(data):
    """Load ``data`` with both loaders; each must return or raise FormatError.
    Returns how many raised."""
    raised = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m")
        with open(path, "wb") as fh:
            fh.write(data)
        for loader in (nb.load, load_quantized):
            try:
                loader(path)
            except nb.FormatError:
                raised += 1
    return raised


KINDS = st.sampled_from(["float", PER_CHANNEL, PER_TENSOR])


class TestReaderFuzz:
    @settings(max_examples=150, deadline=None)
    @given(kind=KINDS, data=st.data())
    def test_any_truncation_is_format_error(self, kind, data):
        raw = saved_model(kind)
        cut = data.draw(st.integers(0, len(raw) - 1))
        assert load_both(raw[:cut]) == 2

    @settings(max_examples=300, deadline=None)
    @given(kind=KINDS, data=st.data())
    def test_any_byte_flip_returns_or_is_format_error(self, kind, data):
        raw = bytearray(saved_model(kind))
        pos = data.draw(st.integers(0, len(raw) - 1))
        raw[pos] ^= data.draw(st.integers(1, 255))
        load_both(bytes(raw))
