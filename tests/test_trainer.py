import math
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest

from test_netbuilder import use_threads
from vacnet import kernels as K
from vacnet import netbuilder as nb
from vacnet import trainer
from vacnet.kernels import ConfigError
from vacnet.trainer import (DataFormatError, Dataset, DivergenceError, TrainConfig,
                            evaluate, load_cifar10, load_idx, train)

FC_ONLY = """\
input 1 4 4
conv k1 c4
gap
fc 2
softmax
"""

RES_SPEC = """\
input 2 8 8
conv k3 p1 c8
res{
vac dm4 e1:4 e2:4 um8
conv k1 c8
}res
gap
fc 3
softmax
"""

CONV3 = """\
input 1 4 4
conv k3 p1 c4
conv k3 s2 c3
gap
fc 2
softmax
"""


def write_idx(tmp_path, images, labels, name="t"):
    n, h, w = images.shape
    img_path = tmp_path / f"{name}-images"
    lab_path = tmp_path / f"{name}-labels"
    img_path.write_bytes(struct.pack(">IIII", 0x803, n, h, w) + images.tobytes())
    lab_path.write_bytes(struct.pack(">II", 0x801, len(labels)) + labels.tobytes())
    return img_path, lab_path


def toy_dataset(n=20, classes=2, seed=0):
    r = np.random.default_rng(seed)
    labels = r.integers(0, classes, size=n)
    images = np.zeros((n, 1, 4, 4))
    # class-dependent mean so the problem is linearly separable
    images += labels[:, None, None, None] * 0.8
    images += r.random((n, 1, 4, 4)) * 0.1
    return Dataset(images, labels)


class TestLoadIdx:
    def test_roundtrip(self, tmp_path):
        r = np.random.default_rng(0)
        images = r.integers(0, 256, size=(7, 5, 5), dtype=np.uint8)
        labels = r.integers(0, 10, size=7, dtype=np.uint8)
        ds = load_idx(*write_idx(tmp_path, images, labels))
        assert ds.images.shape == (7, 1, 5, 5)
        assert ds.images.max() <= 1.0 and ds.images.min() >= 0.0
        np.testing.assert_allclose(ds.images[:, 0] * 255.0, images, atol=1e-12)
        np.testing.assert_array_equal(ds.labels, labels)

    def test_byte_length_contract(self, tmp_path):
        images = np.zeros((3, 28, 28), dtype=np.uint8)
        labels = np.zeros(3, dtype=np.uint8)
        img_path, lab_path = write_idx(tmp_path, images, labels)
        assert img_path.stat().st_size == 16 + 3 * 784
        load_idx(img_path, lab_path)

    def test_bad_magic(self, tmp_path):
        img, lab = write_idx(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8),
                             np.zeros(1, dtype=np.uint8))
        img.write_bytes(b"\x00\x00\x08\x99" + img.read_bytes()[4:])
        with pytest.raises(DataFormatError, match="magic"):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        img, _ = write_idx(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8),
                           np.zeros(2, dtype=np.uint8))
        _, lab = write_idx(tmp_path, np.zeros((3, 2, 2), dtype=np.uint8),
                           np.zeros(3, dtype=np.uint8), name="u")
        with pytest.raises(DataFormatError, match="mismatch"):
            load_idx(img, lab)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty"
        p.write_bytes(b"")
        with pytest.raises(DataFormatError, match="truncated"):
            load_idx(p, p)

    def test_truncated_pixels(self, tmp_path):
        img, lab = write_idx(tmp_path, np.zeros((2, 3, 3), dtype=np.uint8),
                             np.zeros(2, dtype=np.uint8))
        img.write_bytes(img.read_bytes()[:-4])
        with pytest.raises(DataFormatError, match="pixel"):
            load_idx(img, lab)


class TestLoadCifar:
    def test_record_parsing(self, tmp_path):
        r = np.random.default_rng(1)
        recs = r.integers(0, 256, size=(4, 3073), dtype=np.uint8)
        recs[:, 0] = [0, 1, 2, 3]
        p = tmp_path / "batch.bin"
        p.write_bytes(recs.tobytes())
        ds = load_cifar10(p)
        assert ds.images.shape == (4, 3, 32, 32)
        np.testing.assert_array_equal(ds.labels, [0, 1, 2, 3])

    def test_partial_record_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\x00" * 3072)
        with pytest.raises(DataFormatError, match="records"):
            load_cifar10(p)


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [{"lr": math.nan}, {"lr": math.inf},
                                        {"momentum": math.nan}, {"momentum": -math.inf}])
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(ConfigError, match="must be finite"):
            TrainConfig(**kwargs)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            TrainConfig(seed=-1)


class TestTrain:
    def test_zero_lr_leaves_params_unchanged(self):
        net = nb.compile_spec(nb.parse_dsl(FC_ONLY), seed=0)
        before = [arr.copy() for _, arr in net.parameters()]
        train(net, toy_dataset(), TrainConfig(lr=0.0, epochs=3, batch_size=4))
        for (_, arr), prev in zip(net.parameters(), before):
            assert arr.tobytes() == prev.tobytes()

    def test_single_sample_memorization(self):
        net = nb.compile_spec(nb.parse_dsl(FC_ONLY), seed=1)
        ds = toy_dataset(n=1)
        cfg = TrainConfig(lr=0.1, epochs=200, batch_size=1)
        report = train(net, ds, cfg)
        assert report.epochs[-1][1] < 0.01

    def test_fixed_seed_reproducible(self):
        reports = []
        for _ in range(2):
            net = nb.compile_spec(nb.parse_dsl(FC_ONLY), seed=7)
            reports.append(train(net, toy_dataset(), TrainConfig(epochs=2, seed=3)))
        assert reports[0].to_csv() == reports[1].to_csv()
        assert reports[0].epochs == reports[1].epochs

    def test_linearly_separable_reaches_full_accuracy(self):
        net = nb.compile_spec(nb.parse_dsl(FC_ONLY), seed=2)
        ds = toy_dataset(n=40, seed=5)
        train(net, ds, TrainConfig(lr=0.2, epochs=40, batch_size=8, seed=1))
        top1, _ = evaluate(net, ds)
        assert top1 == 1.0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_micro_b_epoch_peak(self, threads, monkeypatch):
        # A warmed-up b32 attendnet-micro-b epoch: forward caches, gradients
        # and one conv chunk's patches at a time, per sub-batch. Unfolding
        # each conv's whole batch at once peaked at 50.8 MiB. The network
        # comes back without forward state: keeping its caches left 25.0 MiB
        # allocated.
        use_threads(monkeypatch, threads)
        spec = nb.reference_spec("attendnet-micro-b")
        r = np.random.default_rng(0)
        ds = Dataset(r.random((64, *spec.input_shape)), r.integers(0, 10, 64))
        net = nb.compile_spec(spec, seed=1)
        config = TrainConfig(lr=0.01, batch_size=32)
        train(net, ds, config)
        tracemalloc.start()
        try:
            train(net, ds, config)
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 45 * 2**20, f"{peak / 2**20:.2f} MiB peak"
        assert left < 2**20, f"{left / 2**20:.2f} MiB left by train"

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("diverge", [False, True])
    def test_returns_network_without_forward_state(self, diverge, threads, monkeypatch):
        # the last step's caches belong to weights that step has since moved,
        # in the network and in the replica that ran each step's second half
        use_threads(monkeypatch, threads)
        replicas = []
        make_replica = nb.Network.replica

        def recorded(net):
            replicas.append(make_replica(net))
            return replicas[-1]

        monkeypatch.setattr(nb.Network, "replica", recorded)
        net = nb.compile_spec(nb.parse_dsl("input 1 4 4\nconv k1 c4\nres{\nconv k1 c4\n}res\n"
                                           "vac dm2 e1:2 e2:2 um4\ngap\nfc 2\nsoftmax\n"),
                              seed=0)
        ds = toy_dataset(n=8)
        if diverge:
            ds.images[3, 0, 1, 1] = np.nan
            with pytest.raises(DivergenceError):
                train(net, ds, TrainConfig(batch_size=4))
        else:
            train(net, ds, TrainConfig(batch_size=4))
        assert len(replicas) == 1
        for n in (net, *replicas):
            blocks = [c for b in n.blocks for c in getattr(b, "children", [b])]
            assert len(blocks) == 6
            assert all(b._cache is None for b in blocks)
        # the replica's blocks hold the network's parameter arrays, not copies
        assert all(a is b for (_, a), (_, b) in zip(net.parameters(),
                                                     replicas[0].parameters()))

    def test_empty_dataset_raises_config_error(self):
        net = nb.compile_spec(nb.parse_dsl(FC_ONLY), seed=0)
        with pytest.raises(ConfigError):
            train(net, Dataset(np.zeros((0, 1, 4, 4)), np.zeros(0, dtype=int)),
                  TrainConfig())

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("row", [1, 3])  # in the first and in the second sub-batch
    def test_non_finite_activation_is_divergence_at_its_step(self, row, threads,
                                                              monkeypatch):
        use_threads(monkeypatch, threads)
        net = nb.compile_spec(nb.parse_dsl("input 1 4 4\nconv k1 c4\nvac dm2 e1:2 e2:2 um4\n"
                                           "gap\nfc 2\nsoftmax\n"), seed=0)
        ds = toy_dataset(n=8)
        order = np.random.Generator(np.random.PCG64(0)).permutation(8)  # epoch 0, seed 0
        ds.images[order[4 + row], 0, 1, 1] = np.nan  # in the second batch of four
        with pytest.raises(DivergenceError, match=r"step 1: block 1 \(vac\)") as info:
            train(net, ds, TrainConfig(batch_size=4, seed=0))
        assert info.value.step == 1


def _trained_bytes(text, batch_size, threads, monkeypatch):
    use_threads(monkeypatch, threads)
    spec = nb.parse_dsl(text)
    r = np.random.default_rng(4)
    ds = Dataset(r.random((34, *spec.input_shape)), r.integers(0, spec.class_count, 34))
    net = nb.compile_spec(spec, seed=2)
    report = train(net, ds, TrainConfig(lr=0.05, batch_size=batch_size, epochs=1, seed=5))
    return report.to_csv(), [arr.tobytes() for _, arr in net.parameters()]


class TestSubBatches:
    """A batch of n >= 2 trains as two sub-batches, the first ceil(n/2)
    images and the last floor(n/2), split by n alone."""

    # 34 images: a b32 and a b33 epoch end in a partial batch of 2 and of 1,
    # and a b3 epoch in a batch of 1, which is not split
    @pytest.mark.parametrize("batch_size", [1, 3, 32, 33])
    @pytest.mark.parametrize("text", [nb.REFERENCE_SPECS["attendnet-micro-a"],
                                      nb.REFERENCE_SPECS["attendnet-micro-b"], RES_SPEC],
                             ids=["micro-a", "micro-b", "res"])
    def test_bits_do_not_depend_on_threads(self, text, batch_size, monkeypatch):
        serial = _trained_bytes(text, batch_size, 1, monkeypatch)
        assert _trained_bytes(text, batch_size, 2, monkeypatch) == serial

    def test_both_threads_run_sub_batches(self, monkeypatch):
        # with a helper, the second half can run beside the first
        use_threads(monkeypatch, 2)
        threads = set()
        training_pass = nb.Network.loss_and_backward

        def recorded(net, x, labels, batch=None):
            threads.add(threading.get_ident())
            time.sleep(0.02)  # keeps this thread busy while the other one claims
            return training_pass(net, x, labels, batch)

        monkeypatch.setattr(nb.Network, "loss_and_backward", recorded)
        net = nb.compile_spec(nb.parse_dsl(FC_ONLY), seed=0)
        train(net, toy_dataset(n=32), TrainConfig(batch_size=4))
        assert len(threads) == 2

    @pytest.mark.parametrize("name", sorted(nb.REFERENCE_SPECS))
    def test_summed_gradient_matches_whole_batch(self, name):
        spec = nb.reference_spec(name)
        r = np.random.default_rng(0)
        x, labels = r.random((32, *spec.input_shape)), r.integers(0, 10, 32)
        whole = nb.compile_spec(spec, seed=1)
        probs = whole.loss_and_backward(x, labels)
        split = nb.compile_spec(spec, seed=1)
        split_probs = trainer._batch_gradients([split, split.replica()], x, labels)
        # float64 forward is batch-invariant, so the loss keeps its bits
        assert split_probs.tobytes() == probs.tobytes()
        # each gradient is the same sum of per-image terms, rounded in another
        # order: within 16 float64 ulps of the gradient's largest entry (the
        # reference specs' worst entry is off by 3.6)
        for (key, g), (_, want) in zip(split.gradients(), whole.gradients()):
            bound = 16 * np.finfo(np.float64).eps * max(np.abs(want).max(), 1e-300)
            assert np.abs(g - want).max() <= bound, key

    @pytest.mark.parametrize("name", sorted(nb.REFERENCE_SPECS))
    def test_step_one_loss_is_the_whole_batch_loss(self, name):
        spec = nb.reference_spec(name)
        r = np.random.default_rng(0)
        ds = Dataset(r.random((32, *spec.input_shape)), r.integers(0, 10, 32))
        whole = nb.compile_spec(spec, seed=1)
        order = np.random.Generator(np.random.PCG64(3)).permutation(32)
        loss = K.cross_entropy(whole.loss_and_backward(ds.images[order], ds.labels[order]),
                               ds.labels[order])
        report = train(nb.compile_spec(spec, seed=1), ds,
                       TrainConfig(lr=0.02, batch_size=32, seed=3))
        assert report.epochs[0][1] == loss * 32 / 32

    def test_loss_gradient_rows_divide_by_the_whole_batch(self):
        probs = K.softmax(np.random.default_rng(0).standard_normal((5, 3)))
        labels = np.array([0, 2, 1, 1, 0])
        whole = K.softmax_xent_backward(probs, labels)
        parts = [K.softmax_xent_backward(probs[s], labels[s], 5)
                 for s in (slice(0, 3), slice(3, 5))]
        assert np.concatenate(parts).tobytes() == whole.tobytes()


class TestEvaluate:
    def test_uniform_tie_breaks_to_lowest_class(self):
        net = nb.compile_spec(nb.parse_dsl(FC_ONLY), seed=0)
        # zero weights everywhere -> uniform softmax output
        for _, arr in net.parameters():
            arr[...] = 0.0
        ds = Dataset(np.random.default_rng(0).random((6, 1, 4, 4)),
                     np.zeros(6, dtype=int))
        top1, _ = evaluate(net, ds)
        assert top1 == 1.0

    def test_perfect_predictor(self):
        net = nb.compile_spec(nb.parse_dsl(FC_ONLY), seed=2)
        ds = toy_dataset(n=30, seed=9)
        train(net, ds, TrainConfig(lr=0.3, epochs=60, batch_size=5))
        top1, loss = evaluate(net, ds)
        assert top1 == 1.0
        assert loss < 0.1

    def test_random_net_near_chance_on_balanced_data(self):
        text = "input 1 4 4\nconv k1 c8\ngap\nfc 10\nsoftmax\n"
        net = nb.compile_spec(nb.parse_dsl(text), seed=11)
        r = np.random.default_rng(4)
        ds = Dataset(r.random((1000, 1, 4, 4)), np.tile(np.arange(10), 100))
        top1, _ = evaluate(net, ds)
        assert 0.05 <= top1 <= 0.20  # binomial 3-sigma band around 0.1

    # 75 images span three predict chunks (32, 32, 11), and the permutation
    # moves images between them
    @pytest.mark.parametrize("text, n", [(FC_ONLY, 25), (CONV3, 75)], ids=["fc_only", "conv3"])
    def test_permutation_invariant(self, text, n):
        net = nb.compile_spec(nb.parse_dsl(text), seed=3)
        ds = toy_dataset(n=n, seed=2)
        perm = np.random.default_rng(0).permutation(n)
        shuffled = Dataset(ds.images[perm], ds.labels[perm])
        assert evaluate(net, ds) == evaluate(net, shuffled)

    def test_runs_cache_free_predict(self):
        net = nb.compile_spec(nb.parse_dsl(FC_ONLY), seed=3)
        evaluate(net, toy_dataset(n=25, seed=2))
        assert all(b._cache is None for b in net.blocks)

    def test_empty_rejected(self):
        net = nb.compile_spec(nb.parse_dsl(FC_ONLY), seed=0)
        with pytest.raises(ConfigError):
            evaluate(net, Dataset(np.zeros((0, 1, 4, 4)), np.zeros(0, dtype=int)))
