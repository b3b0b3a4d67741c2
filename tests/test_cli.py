import dataclasses
import json
import re
import struct

import numpy as np
import pytest

from vacnet import cli, complexity, explore, trainer
from vacnet import netbuilder as nb

SPEC_TEXT = """\
input 1 8 8
conv k3 s1 p1 c4
vac dm2 e1:2 e2:2 um4
gap
fc 3
softmax
"""

TABLE_CSV = """\
name,params,mult_adds,bits
mobilenet-v1,3260000,567500000,32
attendnet-b,782000,191300000,8
"""


def write_idx_pair(tmp_path, n=30, hw=8, classes=3, seed=0):
    r = np.random.default_rng(seed)
    labels = r.integers(0, classes, size=n).astype(np.uint8)
    images = (labels[:, None, None] * 60 + r.integers(0, 40, size=(n, hw, hw))
              ).astype(np.uint8)
    img = tmp_path / "images-idx3"
    lab = tmp_path / "labels-idx1"
    img.write_bytes(struct.pack(">IIII", 0x803, n, hw, hw) + images.tobytes())
    lab.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())
    return str(img), str(lab)


@pytest.fixture
def spec_file(tmp_path):
    p = tmp_path / "net.dsl"
    p.write_text(SPEC_TEXT)
    return str(p)


def run_train(tmp_path, spec_file, out_name, seed=0, epochs=2):
    img, lab = write_idx_pair(tmp_path)
    out = tmp_path / out_name
    code = cli.main(["train", "--spec", spec_file, "--data", img,
                     "--labels", lab, "--epochs", str(epochs), "--lr", "0.05",
                     "--batch", "8", "--seed", str(seed), "--out", str(out)])
    return code, out


class TestExitCodes:
    def test_bad_dsl_exit_2_names_line(self, tmp_path, capsys):
        p = tmp_path / "bad.dsl"
        p.write_text("input 1 8 8\nfrobnicate\ngap\nfc 2\nsoftmax\n")
        img, lab = write_idx_pair(tmp_path)
        code = cli.main(["train", "--spec", str(p), "--data", img,
                         "--labels", lab, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_spec_file_exit_2(self, tmp_path, capsys):
        img, lab = write_idx_pair(tmp_path)
        code = cli.main(["train", "--spec", str(tmp_path / "nope.dsl"),
                         "--data", img, "--labels", lab,
                         "--out", str(tmp_path / "o")])
        assert code == 2

    # "vac dm2 e1:2 e2:2 um4" is line 3 of SPEC_TEXT; an option after it is at column 23
    DELETED_VAC_OPTIONS = {"expand:nearest": "unknown option 'expand'",
                           "ps1": "cannot parse option 'ps1'"}

    @pytest.mark.parametrize("option", DELETED_VAC_OPTIONS)
    def test_spec_with_deleted_vac_option_exit_2(self, tmp_path, capsys, option):
        p = tmp_path / "old.dsl"
        p.write_text(SPEC_TEXT.replace("um4", f"um4 {option}"))
        assert cli.main(["count", "--spec", str(p)]) == 2
        message = self.DELETED_VAC_OPTIONS[option]
        assert capsys.readouterr().err == f"error: line 3, col 23: {message}\n"

    @pytest.mark.parametrize("option", DELETED_VAC_OPTIONS)
    def test_model_with_deleted_vac_option_exit_3(self, tmp_path, capsys, option):
        # a file written when the VAC took the option, which added no parameter
        net = nb.compile_spec(nb.parse_dsl(SPEC_TEXT), seed=0)
        net.spec = dataclasses.replace(net.spec, text=SPEC_TEXT.replace("um4", f"um4 {option}"))
        path = tmp_path / "old.acnk"
        nb.save(net, path)
        img, lab = write_idx_pair(tmp_path)
        code = cli.main(["eval", "--model", str(path), "--data", img, "--labels", lab])
        assert code == 3
        message = self.DELETED_VAC_OPTIONS[option]
        assert capsys.readouterr().err == \
            f"error: model file holds a bad spec: line 3, col 23: {message}\n"

    def test_corrupt_model_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.acnk"
        bad.write_bytes(b"ACNK" + b"\xff" * 40)
        img, lab = write_idx_pair(tmp_path)
        code = cli.main(["eval", "--model", str(bad), "--data", img,
                         "--labels", lab])
        assert code == 3

    @staticmethod
    def saved_model(tmp_path):
        path = tmp_path / "m.acnk"
        nb.save(nb.compile_spec(nb.parse_dsl(SPEC_TEXT), seed=0), path)
        return path, bytearray(path.read_bytes())

    def eval_exit_code(self, tmp_path, path, capsys):
        img, lab = write_idx_pair(tmp_path)
        capsys.readouterr()
        code = cli.main(["eval", "--model", str(path), "--data", img, "--labels", lab])
        assert "error:" in capsys.readouterr().err
        return code

    @pytest.mark.parametrize("nbytes", [2**64 - 1, 7])
    def test_bad_blob_size_exit_3(self, tmp_path, capsys, nbytes):
        path, raw = self.saved_model(tmp_path)
        # magic, version, text length, spec text, blob count, then the blobs
        first_blob = 12 + len(SPEC_TEXT) + 4
        assert raw[first_blob] == 0  # a tag-0 (float64) blob
        struct.pack_into("<Q", raw, first_blob + 1, nbytes)
        path.write_bytes(bytes(raw))
        assert self.eval_exit_code(tmp_path, path, capsys) == 3

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
    def test_bad_int8_scale_exit_3(self, tmp_path, capsys, scale):
        from vacnet import quant
        path = tmp_path / "m.acnk8"
        net = nb.compile_spec(nb.parse_dsl(SPEC_TEXT), seed=0)
        quant.save_quantized(quant.quantize_weights(net), path)
        raw = bytearray(path.read_bytes())
        first_blob = 12 + len(SPEC_TEXT) + 4
        assert raw[first_blob] == 1  # int8: tag B, flag B, scale count I, value count Q
        struct.pack_into("<d", raw, first_blob + 14, scale)
        path.write_bytes(bytes(raw))
        with pytest.raises(nb.FormatError, match="blob 0.conv.w has a scale"):
            nb.load(path)
        assert self.eval_exit_code(tmp_path, path, capsys) == 3

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float64_value_exit_3(self, tmp_path, capsys, value):
        path, raw = self.saved_model(tmp_path)
        first_blob = 12 + len(SPEC_TEXT) + 4
        assert raw[first_blob] == 0  # tag B, byte count Q, then float64 values
        struct.pack_into("<d", raw, first_blob + 9, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(nb.FormatError, match="blob 0.conv.w has a value that is not finite"):
            nb.load(path)
        assert self.eval_exit_code(tmp_path, path, capsys) == 3
        out_dir = tmp_path / "q"
        code = cli.main(["quantize", "--model", str(path), "--out", str(out_dir / "m.acnk8")])
        assert code == 3
        assert "error:" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_output_exit_3(self, tmp_path, capsys):
        # 1e300 is finite, so the model loads; eval's float32 cast of it is
        # not, and the first non-finite value appears after the last block
        path = tmp_path / "m.acnk"
        net = nb.compile_spec(nb.parse_dsl(SPEC_TEXT), seed=0)
        net.blocks[3].p["w"][...] = 1e300  # fc
        nb.save(net, path)
        img, lab = write_idx_pair(tmp_path)
        code = cli.main(["eval", "--model", str(path), "--data", img, "--labels", lab])
        assert code == 3
        assert capsys.readouterr().err == "error: network output contains non-finite values\n"

    @pytest.mark.parametrize("word", [b"\xff\xfe\xfd\xfc", b"cnov"])  # not UTF-8; no parse
    def test_bad_spec_text_exit_3(self, tmp_path, capsys, word):
        path, raw = self.saved_model(tmp_path)
        path.write_bytes(bytes(raw).replace(b"conv", word, 1))
        assert self.eval_exit_code(tmp_path, path, capsys) == 3

    def test_label_beyond_class_count_exit_2(self, tmp_path, spec_file, capsys):
        _, out = run_train(tmp_path, spec_file, "run", epochs=1)
        img, lab = write_idx_pair(tmp_path, classes=13)   # SPEC_TEXT has 3 classes
        for argv in (["train", "--spec", spec_file, "--out", str(tmp_path / "o")],
                     ["eval", "--model", str(out / "model.acnk")]):
            capsys.readouterr()
            assert cli.main(argv + ["--data", img, "--labels", lab]) == 2
            assert "error: label 12 is out of range for a network with 3 classes" \
                in capsys.readouterr().err

    def test_bad_train_config_writes_no_manifest(self, tmp_path, spec_file, capsys):
        img, lab = write_idx_pair(tmp_path)
        out = tmp_path / "o"
        code = cli.main(["train", "--spec", spec_file, "--data", img, "--labels", lab,
                         "--batch", "0", "--out", str(out)])
        assert code == 2
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--lr", "inf"),
                                             ("--momentum", "nan")])
    def test_non_finite_train_setting_exit_2(self, tmp_path, spec_file, capsys, flag, value):
        img, lab = write_idx_pair(tmp_path)
        out = tmp_path / "o"
        code = cli.main(["train", "--spec", spec_file, "--data", img, "--labels", lab,
                         flag, value, "--out", str(out)])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_negative_train_seed_exit_2_writes_nothing(self, tmp_path, spec_file, capsys):
        img, lab = write_idx_pair(tmp_path)
        out = tmp_path / "o"
        code = cli.main(["train", "--spec", spec_file, "--data", img, "--labels", lab,
                         "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_negative_search_seed_exit_2_writes_nothing(self, tmp_path, capsys):
        text = "input 1 4 4\nconv k1 c2\ngap\nfc 2\nsoftmax\n"
        p = tmp_path / "space.json"
        p.write_text(json.dumps({"candidates": [text],
                                 "metrics": {explore.spec_hash(text): {"top1": 0.9, "bits": 8}}}))
        out = tmp_path / "srch"
        code = cli.main(["search", "--space", str(p), "--budget", "1", "--tau", "0.5",
                         "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_unallocatable_weights_exit_3_writes_nothing(self, tmp_path, capsys):
        # numpy rejects a 2**62-channel weight array by its size, before it
        # allocates anything
        img, lab = write_idx_pair(tmp_path)
        spec = tmp_path / "huge.dsl"
        spec.write_text("input 1 8 8\nconv k3 s1 p1 c4611686018427387904\n"
                        "gap\nfc 3\nsoftmax\n")
        out = tmp_path / "o"
        code = cli.main(["train", "--spec", str(spec), "--data", img, "--labels", lab,
                         "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "search"])
    def test_memory_error_exit_3_writes_nothing(self, tmp_path, spec_file, capsys,
                                                monkeypatch, command):
        def no_memory(*args, **kwargs):
            raise MemoryError("unable to allocate the network's weights")
        monkeypatch.setattr(nb, "compile_spec", no_memory)
        img, lab = write_idx_pair(tmp_path)
        out = tmp_path / "o"
        if command == "train":
            argv = ["train", "--spec", spec_file]
        else:
            p = tmp_path / "space.json"
            p.write_text(json.dumps({"stem": ["input 1 8 8"],
                                     "slots": [["conv k3 s1 p1 c4"]],
                                     "tail": ["gap", "fc 3", "softmax"]}))
            argv = ["search", "--space", str(p), "--budget", "1", "--tau", "0.01"]
        code = cli.main(argv + ["--data", img, "--labels", lab, "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == "error: unable to allocate the network's weights\n"
        assert not out.exists()

    def test_unexpected_exception_exit_3_one_line(self, tmp_path, spec_file, capsys,
                                                  monkeypatch):
        _, out = run_train(tmp_path, spec_file, "run", epochs=1)
        capsys.readouterr()

        def broken(net, dataset):
            raise RuntimeError("an unexpected failure")
        monkeypatch.setattr(trainer, "evaluate", broken)
        img, lab = write_idx_pair(tmp_path)
        code = cli.main(["eval", "--model", str(out / "model.acnk"),
                         "--data", img, "--labels", lab])
        assert code == 3
        assert capsys.readouterr().err == "error: an unexpected failure\n"

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_diverging_train_exit_3_names_block(self, tmp_path, capsys):
        # saturated images at lr 1000: activations overflow within a few steps
        n = 256
        img, lab = tmp_path / "images-idx3", tmp_path / "labels-idx1"
        img.write_bytes(struct.pack(">IIII", 0x803, n, 28, 28) + b"\xff" * (n * 28 * 28))
        lab.write_bytes(struct.pack(">II", 0x801, n) + bytes(i % 10 for i in range(n)))
        code = cli.main(["train", "--spec", "attendnet-micro-a", "--data", str(img),
                         "--labels", str(lab), "--lr", "1000", "--epochs", "2",
                         "--out", str(tmp_path / "o")])
        assert code == 3
        assert re.search(r"error: diverged at step \d+: block \d+ \((vac|pepe|res)\): "
                         r"\w+ input contains non-finite values", capsys.readouterr().err)

    def test_infeasible_search_exit_4(self, tmp_path, capsys):
        text = "input 1 4 4\nconv k1 c2\ngap\nfc 2\nsoftmax\n"
        space = {"candidates": [text],
                 "metrics": {explore.spec_hash(text):
                             {"top1": 0.10, "bits": 32}}}
        p = tmp_path / "space.json"
        p.write_text(json.dumps(space))
        code = cli.main(["search", "--space", str(p), "--budget", "1",
                         "--tau", "0.9"])
        assert code == 4
        assert "no feasible candidate" in capsys.readouterr().out

    @pytest.mark.parametrize("entry", [
        {"top1": "0.9", "bits": 8}, {"top1": 0.9, "bits": "8"}, {"top1": None, "bits": 8},
        {"top1": True, "bits": 8}, {"top1": 0.9, "bits": 8, "params": "100"},
        {"top1": 0.9, "bits": 8, "mult_adds": float("nan")}, 5, [["top1", 0.9]],
    ])
    def test_bad_cached_metrics_exit_2(self, tmp_path, capsys, entry):
        text = "input 1 4 4\nconv k1 c2\ngap\nfc 2\nsoftmax\n"
        p = tmp_path / "space.json"
        p.write_text(json.dumps({"candidates": [text],
                                 "metrics": {explore.spec_hash(text): entry}}))
        code = cli.main(["search", "--space", str(p), "--budget", "1", "--tau", "0.5"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("space", [
        [1],
        {"candidates": [5], "metrics": {"a": {}}},
        {"stem": ["input 1 4 4"], "slots": [[]], "tail": [], "metrics": {"x": {}}},
    ])
    def test_malformed_space_exit_2(self, tmp_path, capsys, space):
        p = tmp_path / "space.json"
        p.write_text(json.dumps(space))
        code = cli.main(["search", "--space", str(p), "--budget", "1", "--tau", "0.5"])
        assert code == 2
        assert "error: search space" in capsys.readouterr().err


class TestTrain:
    def test_writes_model_metrics_manifest(self, tmp_path, spec_file, capsys):
        code, out = run_train(tmp_path, spec_file, "run")
        assert code == 0
        assert (out / "model.acnk").exists()
        assert (out / "manifest.json").exists()
        metrics = (out / "metrics.csv").read_text().strip().split("\n")
        assert len(metrics) == 3  # header + one row per epoch
        nb.load(out / "model.acnk")  # model file parses

    def test_rerun_byte_identical(self, tmp_path, spec_file, capsys):
        _, a = run_train(tmp_path, spec_file, "a", seed=11)
        _, b = run_train(tmp_path, spec_file, "b", seed=11)
        assert (a / "model.acnk").read_bytes() == (b / "model.acnk").read_bytes()
        assert (a / "metrics.csv").read_text() == (b / "metrics.csv").read_text()

    def test_different_seed_different_model(self, tmp_path, spec_file, capsys):
        _, a = run_train(tmp_path, spec_file, "a", seed=1)
        _, b = run_train(tmp_path, spec_file, "b", seed=2)
        assert (a / "model.acnk").read_bytes() != (b / "model.acnk").read_bytes()

    def test_reference_spec_name_accepted(self, tmp_path, capsys):
        img, lab = write_idx_pair(tmp_path, hw=28, classes=10)
        out = tmp_path / "ref"
        code = cli.main(["train", "--spec", "attendnet-micro-a", "--data", img,
                         "--labels", lab, "--epochs", "1", "--batch", "16",
                         "--out", str(out)])
        assert code == 0
        assert (out / "model.acnk").exists()


class TestEvalQuantize:
    def test_eval_reports_accuracy(self, tmp_path, spec_file, capsys):
        _, out = run_train(tmp_path, spec_file, "run", epochs=5)
        img, lab = write_idx_pair(tmp_path)
        capsys.readouterr()
        code = cli.main(["eval", "--model", str(out / "model.acnk"),
                         "--data", img, "--labels", lab])
        assert code == 0
        text = capsys.readouterr().out
        assert "top-1 accuracy:" in text

    @pytest.mark.parametrize("mode", ["per_channel", "per_tensor"])
    def test_eval_accepts_quantized_model(self, tmp_path, spec_file, capsys, mode):
        from vacnet import quant, trainer
        _, out = run_train(tmp_path, spec_file, "run", epochs=3)
        qpath = tmp_path / "model.acnk8"
        assert cli.main(["quantize", "--model", str(out / "model.acnk"),
                         "--mode", mode, "--out", str(qpath)]) == 0
        img, lab = write_idx_pair(tmp_path)
        capsys.readouterr()
        assert cli.main(["eval", "--model", str(qpath), "--data", img, "--labels", lab]) == 0
        lines = capsys.readouterr().out.splitlines()
        top1, loss = trainer.evaluate(quant.load_quantized(qpath), trainer.load_idx(img, lab))
        assert lines[:2] == [f"top1,{top1!r}", f"loss,{loss!r}"]

    def test_quantize_roundtrip(self, tmp_path, spec_file, capsys):
        _, out = run_train(tmp_path, spec_file, "run")
        qpath = tmp_path / "model.acnk8"
        code = cli.main(["quantize", "--model", str(out / "model.acnk"),
                         "--mode", "per_channel", "--out", str(qpath)])
        assert code == 0
        from vacnet.quant import load_quantized
        qnet = load_quantized(qpath)
        ranked = [b for b in qnet.blobs.values() if b.values.ndim >= 2]
        assert ranked and all(b.per_channel for b in ranked)
        assert "4.00x reduction" in capsys.readouterr().out


# `vacnet count` CSV for each reference spec at the default 32 bits, every row.
COUNT_CSV = {
    "attendnet-micro-a": """\
name,params,mult_adds,bits,bytes
0.conv,160,28224,32,640
1.vac,1009,87808,32,4036
2.vac,1009,87808,32,4036
3.conv,4640,225792,32,18560
4.pepe,1920,89376,32,7680
5.res.0.pepe,1920,89376,32,7680
6.gap,0,0,32,0
7.fc,330,320,32,1320
8.softmax,0,0,32,0
total,10988,608704,32,43952
""",
    "attendnet-micro-b": """\
name,params,mult_adds,bits,bytes
0.conv,448,442368,32,1792
1.vac,1009,458752,32,4036
2.conv,4640,1179648,32,18560
3.vac,2785,376832,32,11140
4.conv,13872,884736,32,55488
5.pepe,4032,248832,32,16128
6.res.0.pepe,4032,248832,32,16128
7.gap,0,0,32,0
8.fc,490,480,32,1960
9.softmax,0,0,32,0
total,31308,3840480,32,125232
""",
}


class TestCountCompare:
    @pytest.mark.parametrize("name", sorted(COUNT_CSV))
    def test_count_csv_pinned(self, capsys, name):
        assert cli.main(["count", "--spec", name]) == 0
        assert capsys.readouterr().out.endswith("\n\n" + COUNT_CSV[name])

    def test_count_matches_module_report(self, tmp_path, capsys):
        code = cli.main(["count", "--spec", "attendnet-micro-a"])
        assert code == 0
        out = capsys.readouterr().out
        report = complexity.count_mult_adds(nb.reference_spec("attendnet-micro-a"))
        assert report.to_csv() in out
        # stdout table and CSV agree on the totals
        assert str(report.total_params) in out
        assert str(report.total_mult_adds) in out

    def test_count_bad_input_shape_exit_2(self, tmp_path, capsys):
        code = cli.main(["count", "--spec", "attendnet-micro-a",
                         "--input-shape", "1,28"])
        assert code == 2

    @pytest.mark.parametrize("shape,hw", [("1,2,2", "1x1"), ("1,100000,1", "50000x1")])
    def test_count_map_too_small_for_pool_names_the_pool(self, capsys, shape, hw):
        # The stem conv maps the input to hw, where the first VAC's 2x2 pool
        # does not fit; the pool, not a later conv, reports it.
        code = cli.main(["count", "--spec", "attendnet-micro-a", "--input-shape", shape])
        assert code == 2
        assert capsys.readouterr().err == f"error: pool kernel 2 larger than {hw} input\n"

    def test_count_non_integer_input_shape_exit_2(self, capsys):
        code = cli.main(["count", "--spec", "attendnet-micro-a",
                         "--input-shape", "a,b,c"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --input-shape")

    @pytest.mark.parametrize("bits", ["-8", "0"])
    def test_count_bits_below_one_exit_2(self, capsys, bits):
        code = cli.main(["count", "--spec", "attendnet-micro-a", "--bits", bits])
        assert code == 2
        assert capsys.readouterr().err == f"error: bits must be >= 1, got {bits}\n"

    @pytest.mark.parametrize("row", ["b,1,2,0", "b,nan,2,8", "b,1,inf,8"])
    def test_compare_impossible_row_exit_2(self, tmp_path, capsys, row):
        p = tmp_path / "rows.csv"
        p.write_text(f"name,params,mult_adds,bits\na,1,2,32\n{row}\n")
        code = cli.main(["compare", "--csv", str(p)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: b: params and mult-adds")

    def test_compare_prints_published_pairs(self, tmp_path, capsys):
        p = tmp_path / "rows.csv"
        p.write_text(TABLE_CSV)
        code = cli.main(["compare", "--csv", str(p)])
        assert code == 0
        out = capsys.readouterr().out
        assert "4.17" in out    # params ratio
        assert "16.68" in out   # weight-memory ratio, ~16.7x
        assert "2.97" in out    # mult-add ratio, ~3x

    def test_compare_repeated_name_exit_2(self, tmp_path, capsys):
        p = tmp_path / "rows.csv"
        p.write_text("name,params,mult_adds,bits\na,1,2,32\na,1,2,32\n")
        code = cli.main(["compare", "--csv", str(p)])
        assert code == 2
        assert capsys.readouterr().err == "error: model 'a' is named more than once\n"

    def test_compare_missing_file_exit_2(self, tmp_path, capsys):
        code = cli.main(["compare", "--csv", str(tmp_path / "none.csv")])
        assert code == 2

    def test_compare_non_numeric_cell_exit_2(self, tmp_path, capsys):
        p = tmp_path / "rows.csv"
        p.write_text("name,params,mult_adds,bits\na,1x,2,32\nb,1,2,8\n")
        code = cli.main(["compare", "--csv", str(p)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_count_spec_not_utf8_exit_2(self, tmp_path, capsys):
        p = tmp_path / "net.dsl"
        p.write_bytes(b"\xff\xfe" + SPEC_TEXT.encode())
        code = cli.main(["count", "--spec", str(p)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSearchCommand:
    def make_space(self, tmp_path):
        texts, metrics = [], {}
        for i, top1 in enumerate([0.60, 0.75, 0.80, 0.95]):
            text = f"input 1 4 4\nconv k1 c{i + 2}\ngap\nfc 2\nsoftmax\n"
            texts.append(text)
            metrics[explore.spec_hash(text)] = {"top1": top1, "bits": 8}
        p = tmp_path / "space.json"
        p.write_text(json.dumps({"candidates": texts, "metrics": metrics}))
        return p, texts, metrics

    def test_matches_enumeration_oracle(self, tmp_path, capsys):
        p, texts, metrics = self.make_space(tmp_path)
        code = cli.main(["search", "--space", str(p), "--budget", "4",
                         "--tau", "0.7", "--seed", "3",
                         "--out", str(tmp_path / "srch")])
        assert code == 0
        out_lines = [l for l in capsys.readouterr().out.split("\n")
                     if l and l[0].isdigit()]
        expected = explore.search(
            explore.SearchSpace(candidates=texts, metrics=metrics), 4,
            explore.IndicatorConfig(tau=0.7, bits=8),
            explore.PerformanceFunction(),
            explore.cached_eval_fn(metrics), seed=3)
        assert len(out_lines) == len(expected.feasible) == 3
        for line, cand in zip(out_lines, expected.feasible):
            assert cand.spec_hash in line
        audit = (tmp_path / "srch" / "audit.jsonl").read_text()
        assert audit == expected.audit_jsonl()

    def test_audit_is_strict_json(self, tmp_path, capsys):
        p, texts, metrics = self.make_space(tmp_path)
        metrics[explore.spec_hash(texts[0])]["top1"] = 0.0  # scores U = -inf
        p.write_text(json.dumps({"candidates": texts, "metrics": metrics}))
        code = cli.main(["search", "--space", str(p), "--budget", "4", "--tau", "0.7",
                         "--out", str(tmp_path / "srch")])
        assert code == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")
        lines = (tmp_path / "srch" / "audit.jsonl").read_text().splitlines()
        records = [json.loads(line, parse_constant=reject) for line in lines]
        assert [r["U"] for r in records if r["top1"] == 0.0] == [None]
        assert all(isinstance(r["U"], float) for r in records if r["top1"] > 0)

    def test_training_search_feasible_at_default_bits(self, tmp_path, capsys):
        # trained candidates are scored as int8 networks, so they meet the
        # default 8-bit precision constraint
        img, lab = write_idx_pair(tmp_path)
        space = {"stem": ["input 1 8 8"], "slots": [["conv k3 s1 p1 c4"]],
                 "tail": ["gap", "fc 3", "softmax"]}
        p = tmp_path / "space.json"
        p.write_text(json.dumps(space))
        code = cli.main(["search", "--space", str(p), "--budget", "1",
                         "--tau", "0.01", "--data", img, "--labels", lab,
                         "--batch", "8", "--lr", "0.05"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert re.search(r"^1\s+[0-9a-f]{12}\s", out, re.M)

    def test_search_deterministic(self, tmp_path, capsys):
        p, _, _ = self.make_space(tmp_path)
        outs = []
        for _ in range(2):
            cli.main(["search", "--space", str(p), "--budget", "2",
                      "--tau", "0.7", "--seed", "8"])
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
