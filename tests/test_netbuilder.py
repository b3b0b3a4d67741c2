import math
import re
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import MulCounter, assert_close_grad, naive_network_forward, numeric_grad
from vacnet import netbuilder as nb
from vacnet.complexity import count_mult_adds
from vacnet.kernels import NonFiniteError
from vacnet.netbuilder import FormatError, ParseError
from vacnet.pepe import PepeConfig
from vacnet.vac import VacConfig

TINY = """\
input 1 28 28
conv k3 s1 p1 c8
vac dm2 e1:2 e2:2 um8
gap
fc 10
softmax
"""

RES = """\
input 2 8 8
conv k1 c8
res{
pepe p1:4 e1:8 p2:4 e2:8
}res
gap
fc 3
softmax
"""


class TestParse:
    def test_six_directive_chain(self):
        # six directives: input plus five processing layers, chain 1->8->8->10
        spec = nb.parse_dsl(TINY)
        assert len(spec.layers) == 5
        assert spec.input_shape == (1, 28, 28)
        assert spec.class_count == 10
        conv = spec.layers[0]
        assert conv.spec.c_in == 1 and conv.spec.c_out == 8
        vac = spec.layers[1]
        assert isinstance(vac, VacConfig)
        assert vac.c_in == 8 and vac.c_down == 2 and vac.c_up == 8
        fc = spec.layers[3]
        assert fc.c_in == 8 and fc.out == 10

    def test_missing_tail_named(self):
        with pytest.raises(ParseError, match="softmax"):
            nb.parse_dsl("input 1 4 4\nconv k1 c2\ngap\nfc 2\n")

    def test_pepe_projection_validation(self):
        base = "input 1 8 8\nconv k1 c{c}\npepe p1:{p1} e1:16 p2:8 e2:32\ngap\nfc 2\nsoftmax\n"
        spec = nb.parse_dsl(base.format(c=32, p1=8))
        assert isinstance(spec.layers[1], PepeConfig)
        nb.parse_dsl(base.format(c=16, p1=8))
        with pytest.raises(ParseError, match="reduce"):
            nb.parse_dsl(base.format(c=16, p1=32))

    def test_unknown_directive_location(self):
        with pytest.raises(ParseError, match="line 2"):
            nb.parse_dsl("input 1 4 4\nfrobnicate 3\ngap\nfc 2\nsoftmax\n")

    def test_malformed_number(self):
        with pytest.raises(ParseError, match="integer"):
            nb.parse_dsl("input 1 4 4\nconv k1 cX\ngap\nfc 2\nsoftmax\n")

    def test_channel_mismatch_in_vac(self):
        with pytest.raises(ParseError, match="c_up"):
            nb.parse_dsl("input 1 8 8\nconv k1 c8\nvac dm2 e1:2 e2:2 um4\n"
                         "gap\nfc 2\nsoftmax\n")

    def test_residual_must_preserve_shape(self):
        with pytest.raises(ParseError, match="preserve"):
            nb.parse_dsl("input 2 8 8\nconv k1 c8\nres{\nconv k1 c4\n}res\n"
                         "gap\nfc 2\nsoftmax\n")

    def test_unclosed_residual(self):
        with pytest.raises(ParseError, match="unclosed"):
            nb.parse_dsl("input 2 8 8\nconv k1 c2\nres{\nconv k1 c2\n")

    @pytest.mark.parametrize("line", [
        "vac dm2 e1:4 e2:2 um4 g0",     # zero embedding groups
        "vac dm0 e1:0 e2:0 um4",        # zero-channel convolutions
        "vac dm2 e1:4 e2:2 um4 ek0",    # zero-size embedding kernel
        "pepe p1:0 e1:4 p2:2 e2:4",     # zero-channel first projection
    ])
    def test_degenerate_block_rejected_at_parse(self, line):
        with pytest.raises(ParseError, match="line 2"):
            nb.parse_dsl(f"input 4 8 8\n{line}\ngap\nfc 2\nsoftmax\n")

    @pytest.mark.parametrize("expand", ["", " expand:nearest"])
    def test_even_embedding_kernel_rejected_at_parse(self, expand):
        # a padded even kernel grows the pooled grid, which count and unpool assume kept
        with pytest.raises(ParseError, match=r"line 2, col 1: embed_kernel=2 must be odd"):
            nb.parse_dsl(f"input 4 8 8\nvac dm2 e1:4 e2:2 um4 ek2{expand}\n"
                         "gap\nfc 2\nsoftmax\n")

    def test_comments_and_blank_lines(self):
        spec = nb.parse_dsl("# header\n\n" + TINY)
        assert len(spec.layers) == 5

    def test_reference_specs_parse(self):
        for name in nb.REFERENCE_SPECS:
            spec = nb.reference_spec(name)
            assert spec.class_count == 10


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def _block_line(draw, c, keep_shape=False):
    """One conv, vac or pepe directive reading ``c`` channels; with keep_shape
    it maps a c x h x w input to the same shape."""
    kinds = ["conv", "vac"] + (["pepe"] if c >= 2 else [])
    kind = draw(st.sampled_from(kinds))
    # an even kernel with symmetric padding grows the map, so it cannot keep the shape
    kernels = [1, 3] if keep_shape else [1, 2, 3]
    if kind == "conv":
        c_out = c if keep_shape else draw(st.integers(1, 6))
        k = draw(st.sampled_from(kernels))
        s, p = (1, k // 2) if keep_shape else (draw(st.integers(1, 2)), draw(st.integers(0, 1)))
        g = draw(st.sampled_from(_divisors(math.gcd(c, c_out))))
        return f"conv k{k} s{s} p{p} c{c_out} g{g}", c_out
    if kind == "vac":
        dm = draw(st.integers(1, c))
        g = draw(st.sampled_from(_divisors(dm)))
        e1 = g * draw(st.integers(1, 3))
        pool, ps = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        ek = draw(st.sampled_from([1, 2, 3]))  # even ek is a parse error
        extra = draw(st.sampled_from(["", "spc1", "expand:nearest", "spc1 expand:nearest"]))
        return f"vac dm{dm} e1:{e1} e2:{dm} um{c} pool{pool} ps{ps} ek{ek} g{g} {extra}", c
    p1 = draw(st.integers(1, c - 1))
    e1 = p1 * draw(st.integers(2 if p1 == 1 else 1, 3))
    p2 = draw(st.integers(1, e1 - 1))
    e2 = c if keep_shape else draw(st.integers(p2, p2 + 3))
    k, s = draw(st.sampled_from(kernels)), 1 if keep_shape else draw(st.integers(1, 2))
    return f"pepe p1:{p1} e1:{e1} p2:{p2} e2:{e2} k{k} s{s}", e2


@st.composite
def dsl_texts(draw):
    c = draw(st.integers(1, 4))
    lines = [f"input {c} {draw(st.integers(3, 10))} {draw(st.integers(3, 10))}"]
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            line, c = draw(_block_line(c))
            lines.append(line)
        else:
            lines += ["res{", draw(_block_line(c, keep_shape=True))[0], "}res"]
    lines += ["gap", f"fc {draw(st.integers(1, 5))}", "softmax"]
    return "\n".join(lines) + "\n"


class TestLayerProtocol:
    @settings(max_examples=60, deadline=None)
    @given(text=dsl_texts())
    def test_out_shape_and_param_count_match_compiled_blocks(self, text):
        try:
            spec = nb.parse_dsl(text)
        except ParseError:
            assume(False)  # a kernel or pool that does not fit the shrinking map
        net = nb.compile_spec(spec, seed=0)
        x = np.random.default_rng(0).random((2, *spec.input_shape))
        shape = spec.input_shape
        for layer, block in zip(spec.layers, net.blocks):
            shape = layer.out_shape(*shape)
            x = block.forward(x)
            # fc and softmax give (n, classes): the (classes, 1, 1) map flattened
            assert x.shape == (2, *shape)[:x.ndim] and x.size == 2 * math.prod(shape)
            assert layer.param_count() == sum(a.size for a in block.p.values())
        assert shape == (spec.class_count, 1, 1)


class TestOracleAgreement:
    @settings(max_examples=100, deadline=None)
    @given(text=dsl_texts())
    def test_forward_and_mult_adds_match_naive_oracle(self, text):
        try:
            spec = nb.parse_dsl(text)
        except ParseError:
            assume(False)
        net = nb.compile_spec(spec, seed=0)
        x = np.random.default_rng(0).random((1, *spec.input_shape))
        counter = MulCounter()
        want = naive_network_forward(spec, dict(net.parameters()), x, counter)
        np.testing.assert_allclose(net.forward(x), want, atol=1e-9)
        assert counter.n == count_mult_adds(spec).total_mult_adds


@st.composite
def mutated_specs(draw):
    """A reference spec after token drops, duplications, swaps and byte
    substitutions; digits are drawn more often, so that numbers change."""
    text = nb.REFERENCE_SPECS[draw(st.sampled_from(sorted(nb.REFERENCE_SPECS)))]
    toks = re.findall(r"\S+|\n", text)  # words and line breaks
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["drop", "dup", "swap", "byte"]))
        i, j = (draw(st.integers(0, len(toks) - 1)) for _ in range(2))
        if op == "drop" and len(toks) > 1:
            del toks[i]
        elif op == "dup":
            toks.insert(i, toks[i])
        elif op == "swap":
            toks[i], toks[j] = toks[j], toks[i]
        elif op == "byte":
            k = draw(st.integers(0, len(toks[i]) - 1))
            byte = draw(st.one_of(st.sampled_from("0123456789:"),
                                  st.integers(0, 255).map(chr)))
            toks[i] = toks[i][:k] + byte + toks[i][k + 1:]
    return " ".join(toks)


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(text=mutated_specs())
    def test_mutated_reference_specs_raise_only_parse_error(self, text):
        try:
            nb.parse_dsl(text)
        except ParseError:
            pass


class TestCompile:
    def test_same_seed_bitwise_equal(self):
        spec = nb.parse_dsl(TINY)
        a = nb.compile_spec(spec, seed=5)
        b = nb.compile_spec(spec, seed=5)
        for (na, pa), (nbname, pb) in zip(a.parameters(), b.parameters()):
            assert na == nbname
            assert pa.tobytes() == pb.tobytes()

    def test_different_seeds_differ(self):
        spec = nb.parse_dsl(TINY)
        a = nb.compile_spec(spec, seed=1)
        b = nb.compile_spec(spec, seed=2)
        assert any(not np.array_equal(pa, pb)
                   for (_, pa), (_, pb) in zip(a.parameters(), b.parameters()))

    def test_zero_input_equals_hand_composition(self):
        spec = nb.parse_dsl(TINY)
        net = nb.compile_spec(spec, seed=3)
        x = np.zeros((2, 1, 28, 28))
        got = net.forward(x)
        y = x
        for block in net.blocks:
            y = block.forward(y)
        np.testing.assert_allclose(got, y, atol=0)


class TestForwardBackward:
    def test_rows_sum_to_one(self):
        net = nb.compile_spec(nb.parse_dsl(TINY), seed=0)
        x = np.random.default_rng(0).random((4, 1, 28, 28))
        probs = net.forward(x)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(4), atol=1e-12)

    def test_batch_permutation_equivariance(self):
        net = nb.compile_spec(nb.parse_dsl(RES), seed=1)
        x = np.random.default_rng(1).random((5, 2, 8, 8))
        perm = np.array([3, 0, 4, 1, 2])
        np.testing.assert_array_equal(net.forward(x)[perm], net.forward(x[perm]))

    def test_residual_output_shape_and_effect(self):
        net = nb.compile_spec(nb.parse_dsl(RES), seed=2)
        x = np.random.default_rng(2).random((2, 2, 8, 8))
        probs = net.forward(x)
        assert probs.shape == (2, 3)
        res_block = net.blocks[1]
        y_in = net.blocks[0].forward(x)
        with_shortcut = res_block.forward(y_in)
        body_only = y_in
        for child in res_block.children:
            body_only = child.forward(body_only)
        assert with_shortcut.shape == body_only.shape
        assert not np.allclose(with_shortcut, body_only)

    def test_whole_network_finite_difference_spot_checks(self):
        text = ("input 1 8 8\nconv k3 s1 p1 c4\nvac dm2 e1:2 e2:2 um4\n"
                "res{\npepe p1:2 e1:4 p2:2 e2:4\n}res\ngap\nfc 3\nsoftmax\n")
        net = nb.compile_spec(nb.parse_dsl(text), seed=4)
        r = np.random.default_rng(40)
        # nudge biases off zero so no pooling window holds exact ties
        for _, arr in net.parameters():
            arr += r.normal(0.0, 0.05, size=arr.shape)
        x = r.random((2, 1, 8, 8))
        labels = np.array([0, 2])

        def loss():
            net.forward(x)
            probs = net._probs
            from vacnet.kernels import cross_entropy
            return cross_entropy(probs, labels)

        net.forward(x)
        net.loss_and_backward(labels)
        grads = dict(net.gradients())
        for name, arr in net.parameters():
            flat_idx = r.choice(arr.size, size=min(3, arr.size), replace=False)
            analytic = grads[name].ravel()[flat_idx]
            numeric = np.empty(len(flat_idx))
            for j, i in enumerate(flat_idx):
                old = arr.ravel()[i]
                arr.ravel()[i] = old + 1e-6
                fp = loss()
                arr.ravel()[i] = old - 1e-6
                fm = loss()
                arr.ravel()[i] = old
                numeric[j] = (fp - fm) / 2e-6
            assert_close_grad(analytic, numeric, 1e-4)

    def test_non_finite_activation_names_block(self):
        net = nb.compile_spec(nb.parse_dsl(TINY), seed=0)
        x = np.zeros((1, 1, 28, 28))
        x[0, 0, 3, 3] = np.nan
        with pytest.raises(NonFiniteError, match=r"block 1 \(vac\): vac input"):
            net.forward(x)

    def test_bad_batch_shape(self):
        net = nb.compile_spec(nb.parse_dsl(TINY), seed=0)
        from vacnet.kernels import ShapeError
        with pytest.raises(ShapeError):
            net.forward(np.zeros((1, 3, 28, 28)))


class TestSaveLoad:
    def test_roundtrip_bitwise(self, tmp_path):
        net = nb.compile_spec(nb.parse_dsl(RES), seed=9)
        path = tmp_path / "m.acnk"
        nb.save(net, path)
        loaded = nb.load(path)
        for (na, pa), (nl, pl) in zip(net.parameters(), loaded.parameters()):
            assert na == nl
            assert pa.tobytes() == pl.tobytes()
        x = np.random.default_rng(3).random((2, 2, 8, 8))
        np.testing.assert_array_equal(net.forward(x), loaded.forward(x))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.acnk"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(FormatError, match="magic"):
            nb.load(path)

    def test_truncated_file(self, tmp_path):
        net = nb.compile_spec(nb.parse_dsl(TINY), seed=0)
        path = tmp_path / "m.acnk"
        nb.save(net, path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 17])
        with pytest.raises(FormatError, match="truncated"):
            nb.load(path)

    def test_spec_larger_than_file_rejected_before_compile(self, tmp_path):
        # 2.4 million parameters declared, none stored: no weights get allocated
        text = b"input 64 8 8\nconv k3 p1 c4096\ngap\nfc 2\nsoftmax\n"
        path = tmp_path / "big.acnk"
        path.write_bytes(b"ACNK" + struct.pack("<II", 1, len(text)) + text
                         + struct.pack("<I", 4))
        with pytest.raises(FormatError, match="spec needs 2371586 values"):
            nb.load(path)

    def test_bad_version(self, tmp_path):
        net = nb.compile_spec(nb.parse_dsl(TINY), seed=0)
        path = tmp_path / "m.acnk"
        nb.save(net, path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            nb.load(path)
