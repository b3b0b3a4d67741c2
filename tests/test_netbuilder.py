import dataclasses
import math
import multiprocessing
import os
import queue
import re
import struct
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import MulCounter, assert_close_grad, naive_network_forward, numeric_grad
from vacnet import kernels as K
from vacnet import netbuilder as nb
from vacnet import quant
from vacnet.complexity import count_mult_adds
from vacnet.kernels import ConvSpec, NonFiniteError, ShapeError
from vacnet.netbuilder import FormatError, ParseError
from vacnet.pepe import PepeConfig
from vacnet.trainer import Dataset, TrainConfig, train
from vacnet.vac import VacConfig

TINY = """\
input 1 28 28
conv k3 s1 p1 c8
vac dm2 e1:2 e2:2 um8
gap
fc 10
softmax
"""

# VAC options the DSL no longer has, each with the parse error it now raises
# at column 23 of a "vac dm2 e1:. e2:2 um. <option>" line
DELETED_VAC_OPTIONS = {
    "expand:nearest": "unknown option 'expand'",
    "expand:unpool": "unknown option 'expand'",
    "ps1": "cannot parse option 'ps1'",
    "ps:2": "unknown option 'ps'",
}



def use_threads(monkeypatch, n):
    """Share multi-chunk predicts among n threads: the caller and a fresh
    pool of n - 1 helpers, as the first multi-chunk predict would make it."""
    monkeypatch.setattr(nb, "PREDICT_THREADS", n)
    monkeypatch.setattr(nb, "_helpers", ThreadPoolExecutor(n - 1) if n > 1 else None)


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
        "vac dm2 e1:4 e2:2 um4 spc7",   # the scale flag is 0 or 1
        "vac dm2 e1:4 e2:2 um4 spc:-1",
        "vac dm2 e1:4 e2:2 um4 spc-3",
    ])
    def test_degenerate_block_rejected_at_parse(self, line):
        with pytest.raises(ParseError, match="line 2"):
            nb.parse_dsl(f"input 4 8 8\n{line}\ngap\nfc 2\nsoftmax\n")

    def test_even_embedding_kernel_rejected_at_parse(self):
        # a padded even kernel grows the pooled grid, which count and unpool assume kept
        with pytest.raises(ParseError, match=r"line 2, col 1: embed_kernel=2 must be odd"):
            nb.parse_dsl("input 4 8 8\nvac dm2 e1:4 e2:2 um4 ek2\ngap\nfc 2\nsoftmax\n")

    @pytest.mark.parametrize("option", DELETED_VAC_OPTIONS)
    def test_deleted_vac_option_rejected(self, option):
        message = DELETED_VAC_OPTIONS[option]
        with pytest.raises(ParseError, match=f"^line 2, col 23: {message}$"):
            nb.parse_dsl(f"input 4 8 8\nvac dm2 e1:4 e2:2 um4 {option}\ngap\nfc 2\nsoftmax\n")

    def test_comments_and_blank_lines(self):
        spec = nb.parse_dsl("# header\n\n" + TINY)
        assert len(spec.layers) == 5

    def test_trailing_comments_keep_columns(self):
        commented = "\n".join(line + "  # note: c9 k5" for line in TINY.splitlines())
        assert nb.parse_dsl(commented).layers == nb.parse_dsl(TINY).layers
        with pytest.raises(ParseError, match=r"line 2, col 12: unknown option 'q'"):
            nb.parse_dsl(TINY.replace("s1 p1", "s1 q:1", 1).replace("\n", " # c\n"))

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## Network DSL\n.*?```\n(.*?)```", readme, re.S).group(1)
        assert "#" in block
        spec = nb.parse_dsl(block)
        assert spec.class_count == 10
        assert count_mult_adds(spec).total_mult_adds > 0

    def test_reference_specs_parse(self):
        for name in nb.REFERENCE_SPECS:
            spec = nb.reference_spec(name)
            assert spec.class_count == 10

    @pytest.mark.parametrize("line, stray", [
        ("res{", "res{ pepe p1:16 e1:32 p2:16 e2:32"),  # the body keeps line 8's pepe
        ("res{", "res{ res{"),
        ("}res", "}res junk"),
        ("gap", "gap 7"),
        ("softmax", "softmax 10"),
    ])
    def test_stray_tokens_rejected_at_directive(self, line, stray):
        lines = nb.REFERENCE_SPECS["attendnet-micro-a"].splitlines()
        line_no = lines.index(line) + 1
        lines[line_no - 1] = "  " + stray
        with pytest.raises(ParseError, match=rf"line {line_no}, col 3: '{re.escape(line)}' "
                                             rf"takes 0 argument\(s\), got [1-5]"):
            nb.parse_dsl("\n".join(lines))

    @pytest.mark.parametrize("text, line", [
        ("input 2 8 8\nres{\ngap\n}res\nfc 2\nsoftmax\n", 3),  # not at top level
        ("input 2 8 8\nfc 2\ngap\nsoftmax\n", 2),              # out of order
        ("input 2 8 8\ngap\nconv k1 c2\nfc 2\nsoftmax\n", 3),    # not last
        ("input 2 8 8\ngap\nfc 2\nsoftmax\nsoftmax\n", 5),       # twice
        ("input 2 8 8\ngap\nfc 2\n# end\n", 4),                  # missing, at the last line
    ])
    def test_tail_rule_located(self, text, line):
        with pytest.raises(ParseError, match=rf"line {line}, col 1: network must end with "
                                             "gap, fc, softmax"):
            nb.parse_dsl(text)

    def test_readme_option_table_matches_parser(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| ([^|]+?) \|", readme, re.M)
        documented = {(word, key): default.strip("`") for word, key, default in rows}
        parser = {(word, key): "required" if default is nb.REQUIRED else str(default)
                  for word, table in nb.OPTIONS.items() for key, default in table.items()}
        assert documented == parser

    # The DSL keys differ from the field names, so each default is written in
    # OPTIONS and again in the dataclass; a directive with only its required
    # options must build the layer the dataclass defaults describe.
    @pytest.mark.parametrize("line, layer", [
        ("conv c4", nb.ConvLayer(ConvSpec(2, 4))),
        ("vac dm2 e1:2 e2:2 um2", VacConfig(c_in=2, c_down=2, e1=2, e2=2, c_up=2)),
        ("pepe p1:1 e1:2 p2:1 e2:2", PepeConfig(c_in=2, p1=1, e1=2, p2=1, e2=2)),
    ])
    def test_option_defaults_equal_dataclass_defaults(self, line, layer):
        assert nb.parse_dsl(f"input 2 8 8\n{line}\ngap\nfc 2\nsoftmax\n").layers[0] == layer


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
        pool = draw(st.integers(1, 3))
        ek = draw(st.sampled_from([1, 2, 3]))  # even ek is a parse error
        spc = draw(st.integers(0, 1))
        return f"vac dm{dm} e1:{e1} e2:{dm} um{c} pool{pool} ek{ek} g{g} spc{spc}", c
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


def _respelled(text):
    """``text`` with every option spelled the other way (``key:value`` and
    ``keyvalue`` swapped), the options of each line in reverse order, and a
    comment repeating the line after it."""
    lines = []
    for line in text.splitlines():
        word, *opts = line.split()
        if word in nb.OPTIONS:
            respelled = []
            for opt in opts:
                key = max((k for k in nb.OPTIONS[word] if opt.startswith(k)), key=len)
                value = opt[len(key):].lstrip(":")
                respelled.append(key + value if ":" in opt else f"{key}:{value}")
            opts = respelled[::-1]
        lines.append(" ".join([word, *opts]) + f"  # was: {line}")
    return "\n".join(lines) + "\n"


class TestSpellings:
    @settings(max_examples=100, deadline=None)
    @given(text=dsl_texts())
    def test_respelled_reordered_commented_text_parses_the_same(self, text):
        def outcome(t):
            try:
                return nb.parse_dsl(t).layers
            except ParseError as e:  # a kernel or pool that does not fit the map
                return str(e)
        assert outcome(_respelled(text)) == outcome(text)


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


def _explicit_draw(seed, table):
    """The initialisation law, drawn by hand in table order: a weight of rank
    >= 2 is U(-b, b) with b = sqrt(6 / fan_in), fan_in the product of its
    trailing axes; ``scale`` is 1 and every other parameter 0."""
    rng = np.random.Generator(np.random.PCG64(seed))
    want = {}
    for name, shape in table:
        if len(shape) >= 2:
            b = np.sqrt(6.0 / math.prod(shape[1:]))
            want[name] = rng.uniform(-b, b, shape)
        else:
            want[name] = np.ones(shape) if name == "scale" else np.zeros(shape)
    return want


def _conv_table(*convs):
    return [(f"{name}_{k}", shape) for name, w in convs
            for k, shape in (("w", w), ("b", w[:1]))]


_VAC_CONVS = (("down", (8, 16, 1, 1)), ("embed_grouped", (16, 4, 3, 3)),
              ("embed_pointwise", (8, 16, 1, 1)), ("up", (16, 8, 1, 1)))
INIT_CASES = [
    (nb.ConvLayer(ConvSpec(3, 8, kernel=(3, 3), padding=(1, 1))),
     [("w", (8, 3, 3, 3)), ("b", (8,))]),
    (nb.ConvLayer(ConvSpec(8, 8, kernel=(5, 3), groups=4)), [("w", (8, 2, 5, 3)), ("b", (8,))]),
    (nb.FcLayer(c_in=12, out=5), [("w", (5, 12)), ("b", (5,))]),
    (VacConfig(c_in=16, c_down=8, e1=16, e2=8, c_up=16, embed_groups=2),
     _conv_table(*_VAC_CONVS) + [("scale", ())]),
    (VacConfig(c_in=16, c_down=8, e1=16, e2=8, c_up=16, embed_groups=2,
               per_channel_scale=True),
     _conv_table(*_VAC_CONVS) + [("scale", (8,))]),
    (PepeConfig(c_in=16, p1=8, e1=16, p2=8, e2=32, dw_kernel=5, stride=2),
     _conv_table(("proj1", (8, 16, 1, 1)), ("dwexp", (16, 1, 5, 5)),
                 ("proj2", (8, 16, 1, 1)), ("pwexp", (32, 8, 1, 1)))),
    (nb.GapLayer(), []),
]


class TestInitialisation:
    @pytest.mark.parametrize("seed", [0, 1, 97])
    @pytest.mark.parametrize("layer, table", INIT_CASES)
    def test_init_params_follows_the_law_in_table_order(self, layer, table, seed):
        got = layer.init_params(np.random.Generator(np.random.PCG64(seed)))
        want = _explicit_draw(seed, table)
        assert list(got) == list(want)
        for name in want:
            assert got[name].shape == want[name].shape
            assert got[name].tobytes() == want[name].tobytes(), name
        assert layer.param_count() == sum(a.size for a in want.values())

    @pytest.mark.parametrize("layer, table", INIT_CASES)
    def test_no_rng_leaves_weights_at_zero_and_scale_at_one(self, layer, table):
        got = layer.init_params(None)
        assert [(name, arr.shape) for name, arr in got.items()] == table
        for name, arr in got.items():
            assert (arr == (name == "scale")).all(), name


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
            return K.cross_entropy(net.forward(x), labels)

        net.loss_and_backward(x, labels)
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

    def test_non_finite_inside_residual_group_names_both_blocks(self):
        # a NaN inner-conv weight trips the scan of the inner VAC's input
        net = nb.compile_spec(nb.parse_dsl(
            "input 1 8 8\nconv k3 p1 c4\nres{\nconv k1 c4\nvac dm2 e1:2 e2:2 um4\n}res\n"
            "gap\nfc 3\nsoftmax\n"), seed=0)
        net.blocks[1].children[0].p["w"][0, 0, 0, 0] = np.nan
        x = np.random.default_rng(0).random((2, 1, 8, 8))
        for run in (net.forward, net.predict):
            with pytest.raises(NonFiniteError, match=r"^block 1 \(res\): block 1 \(vac\): "
                                                     "vac input contains non-finite values$"):
                run(x)

    def test_bad_batch_shape(self):
        net = nb.compile_spec(nb.parse_dsl(TINY), seed=0)
        with pytest.raises(ShapeError):
            net.forward(np.zeros((1, 3, 28, 28)))
        with pytest.raises(ShapeError):
            net.loss_and_backward(np.zeros((1, 3, 28, 28)), np.array([0]))

    def test_empty_batch_rejected(self):
        net = nb.compile_spec(nb.parse_dsl(TINY), seed=0)
        for run in (net.forward, net.predict):
            with pytest.raises(ShapeError):
                run(np.zeros((0, 1, 28, 28)))

    @pytest.mark.parametrize("name", sorted(nb.REFERENCE_SPECS))
    def test_training_pass_probabilities_equal_forward(self, name):
        # 40 images: forward runs them as chunks of 32 and 8, the training
        # pass as one batch
        spec = nb.reference_spec(name)
        r = np.random.default_rng(6)
        x, labels = r.random((40, *spec.input_shape)), r.integers(0, 10, 40)
        net = nb.compile_spec(spec, seed=6)
        assert net.loss_and_backward(x, labels).tobytes() == net.forward(x).tobytes()

    def test_forward_keeps_no_state(self):
        spec = nb.reference_spec("attendnet-micro-a")
        x = np.random.default_rng(0).random((70, *spec.input_shape))
        net = nb.compile_spec(spec)
        net.forward(x)  # warm up the tap tables and conv specs
        tracemalloc.start()
        try:
            net.forward(x)
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # numpy's own small-object caches may keep about 1 KiB
        assert left <= 2**16, f"{left} bytes left by forward"
        assert all(b._cache is None for b in leaf_blocks(net))
        assert not any(b.grads for b in leaf_blocks(net))

    def test_forward_caches_only_relu_outputs(self):
        # each conv+ReLU keeps the tensor it returns and no pre-activation:
        # a batch-32 micro-a forward left 12.1 MiB allocated with both kept;
        # the training pass leaves 6.04 MiB of caches and grads without
        spec = nb.reference_spec("attendnet-micro-a")
        r = np.random.default_rng(0)
        x, labels = r.random((32, *spec.input_shape)), r.integers(0, 10, 32)
        # warm up the tap tables and conv specs
        nb.compile_spec(spec).loss_and_backward(x, labels)
        net = nb.compile_spec(spec)
        tracemalloc.start()
        try:
            net.loss_and_backward(x, labels)
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert left <= 9 * 2**20, f"{left / 2**20:.2f} MiB left by the training pass"
        blocks = [c for b in net.blocks for c in getattr(b, "children", [b])]
        for b in blocks:
            if b.kind == "conv":
                assert (b._cache[1] >= 0).all()  # the ReLU output, not `pre`
            elif b.kind in ("vac", "pepe"):
                assert not {"pre", "pres", "e_pre"} & b._cache.keys()
        assert {"conv", "vac", "pepe"} <= {b.kind for b in blocks}

    def test_micro_b_forward_keeps_no_gating_map(self):
        # a VAC's cache holds no up-mix input, which backward rebuilds: with
        # it kept, a batch-32 micro-b forward left 24.02 MiB allocated; 21.02
        # MiB without, and the training pass 21.27 MiB of caches and grads
        spec = nb.reference_spec("attendnet-micro-b")
        r = np.random.default_rng(0)
        x, labels = r.random((32, *spec.input_shape)), r.integers(0, 10, 32)
        # warm up the tap tables and conv specs
        nb.compile_spec(spec).loss_and_backward(x, labels)
        net = nb.compile_spec(spec)
        tracemalloc.start()
        try:
            net.loss_and_backward(x, labels)
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert left <= 22 * 2**20, f"{left / 2**20:.2f} MiB left by the training pass"


FIRST_BLOCKS = {
    "conv": "conv k3 s2 p1 c4",
    "vac": "vac dm2 e1:4 e2:2 um3",
    "vac-pool3-spc": "vac dm2 e1:4 e2:2 um3 pool3 spc1",
    "pepe": "pepe p1:2 e1:4 p2:2 e2:4 s2",
    "res": "res{\nvac dm2 e1:2 e2:2 um3\nconv k3 p1 c3\n}res",
}


@pytest.mark.parametrize("first", sorted(FIRST_BLOCKS))
def test_first_block_skips_input_gradient_keeping_parameter_grads(first):
    # nothing reads the network's input gradient, so loss_and_backward asks
    # the first block for none; every parameter gradient keeps its bits
    text = f"input 3 8 8\n{FIRST_BLOCKS[first]}\nconv k3 p1 c6\ngap\nfc 4\nsoftmax\n"
    net = nb.compile_spec(nb.parse_dsl(text), seed=2)
    r = np.random.default_rng(2)
    x, labels = r.random((5, 3, 8, 8)), r.integers(0, 4, 5)
    probs = net.loss_and_backward(x, labels)
    got = dict(net.gradients())
    grad = K.softmax_xent_backward(probs, labels)
    for b in reversed(net.blocks[1:-1]):
        grad = b.backward(grad)
    first_block = net.blocks[0]
    assert first_block.backward(grad, input_grad=False) is None
    assert first_block.backward(grad).shape == x.shape
    want = dict(net.gradients())
    assert got.keys() == want.keys()
    for name, g in got.items():
        assert g.tobytes() == want[name].tobytes(), name


def leaf_blocks(net):
    return [c for b in net.blocks for c in getattr(b, "children", [b])]


def assert_batch_invariant(net, n):
    """``net.predict`` and ``net.forward`` of an n-image batch each equal,
    byte for byte, the rows they give each image alone, whose convs gather
    their patches where a batch's copy them tap by tap."""
    x = np.random.default_rng(n).random((n, *net.spec.input_shape))
    for run in (net.predict, net.forward):
        rows = np.concatenate([run(x[i:i + 1]) for i in range(n)])
        assert run(x).tobytes() == rows.tobytes(), run.__name__


class TestPredict:
    @settings(max_examples=60, deadline=None)
    @given(text=dsl_texts())
    def test_matches_naive_oracle_in_float32(self, text):
        try:
            spec = nb.parse_dsl(text)
        except ParseError:
            assume(False)
        net = nb.compile_spec(spec, seed=0)
        x = np.random.default_rng(0).random((4, *spec.input_shape))
        want = naive_network_forward(spec, dict(net.parameters()), x, MulCounter())
        np.testing.assert_allclose(net.predict(x), want, rtol=0, atol=1e-5)

    def test_float64_rows_and_forward_state_untouched(self):
        # neither inference pass touches the training pass's caches or grads
        net = nb.compile_spec(nb.parse_dsl(RES), seed=5)
        r = np.random.default_rng(5)
        net.loss_and_backward(r.random((3, 2, 8, 8)), np.array([0, 2, 1]))
        blocks = leaf_blocks(net)
        caches, grads = [b._cache for b in blocks], dict(net.gradients())
        for run in (net.forward, net.predict):
            got = run(r.random((4, 2, 8, 8)))
            assert got.dtype == np.float64 and got.shape == (4, 3)
            np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            assert all(b._cache is c for b, c in zip(blocks, caches))
            assert all(a is b for (_, a), b in zip(net.gradients(), grads.values()))

    def test_every_block_pass_sees_float32(self, monkeypatch):
        seen = []
        for kind in ("conv", "vac", "pepe", "gap", "fc", "softmax"):
            def spy(x, p, layer, run=getattr(nb, f"{kind}_forward"), kind=kind):
                out, cache = run(x, p, layer)
                seen.append((kind, x.dtype, {a.dtype for a in p.values()}, out.dtype))
                return out, cache
            monkeypatch.setattr(nb, f"{kind}_forward", spy)
        spec = nb.reference_spec("attendnet-micro-a")
        net = nb.compile_spec(spec)
        net.predict(np.random.default_rng(0).random((2, *spec.input_shape)))
        assert {kind for kind, *_ in seen} == {"conv", "vac", "pepe", "gap", "fc", "softmax"}
        f32 = np.dtype(np.float32)
        for kind, x_dtype, p_dtypes, out_dtype in seen:
            assert x_dtype == f32 and p_dtypes <= {f32}, kind
            assert out_dtype == (np.float64 if kind == "softmax" else f32), kind

    # row 40 of 70 lies in the second PREDICT_CHUNK, after a clean first
    # one, and row 69 in the last
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("n, row", [(1, 0), (70, 40), (70, 69)])
    def test_non_finite_input_names_block(self, n, row, threads, monkeypatch):
        use_threads(monkeypatch, threads)
        net = nb.compile_spec(nb.parse_dsl(TINY), seed=0)
        x = np.zeros((n, 1, 28, 28))
        x[row, 0, 3, 3] = np.nan
        with pytest.raises(NonFiniteError, match=r"block 1 \(vac\): vac input"):
            net.predict(x)

    @pytest.mark.parametrize("shape", [
        (), (28,), (28, 28), (1, 28, 28), (1, 1, 1, 28, 28),  # rank 0-3 and 5
        (1, 3, 28, 28), (70, 3, 28, 28), (1, 1, 27, 28), (70, 1, 28, 27),
        (0, 1, 28, 28)])
    def test_bad_batch_shape(self, shape, monkeypatch):
        # rejected whole, before any chunk reaches the first block
        def no_chunk(*args):
            raise AssertionError("a chunk ran")
        monkeypatch.setattr(nb, "conv_forward", no_chunk)
        net = nb.compile_spec(nb.parse_dsl(TINY), seed=0)
        with pytest.raises(ShapeError):
            net.predict(np.zeros(shape))

    # 31-33 straddle one PREDICT_CHUNK and 70 spans three. The float32 pass
    # rectifies in place (np.maximum(y, 0.0, out=y)) and forms each fc row
    # on its own (matmul over an (n, 1, k) stack); both must hold under
    # numpy 1.x's value-based casting too.
    @pytest.mark.parametrize("int8", [False, True])
    @pytest.mark.parametrize("name", sorted(nb.REFERENCE_SPECS))
    def test_reference_rows_equal_batch_rows(self, name, int8):
        net = nb.compile_spec(nb.reference_spec(name))
        if int8:
            net = quant.quantize_weights(net)
        for n in (1, 31, 32, 33, 70):
            assert_batch_invariant(net, n)

    @settings(max_examples=40, deadline=None)
    @given(text=dsl_texts(), int8=st.booleans(), n=st.sampled_from([1, 31, 32, 33, 70]))
    def test_generated_rows_equal_batch_rows(self, text, int8, n):
        try:
            spec = nb.parse_dsl(text)
        except ParseError:
            assume(False)
        net = nb.compile_spec(spec, seed=0)
        if int8:
            net = quant.quantize_weights(net)
        assert_batch_invariant(net, n)

    @pytest.mark.parametrize("int8", [False, True])
    def test_one_image_passes_see_trained_weights(self, int8):
        # A network warmed at one image, then trained, infers as a fresh
        # network holding the trained parameters: no weight cache outlives
        # the in-place SGD step.
        spec = nb.reference_spec("attendnet-micro-a")
        net = nb.compile_spec(spec, seed=1)
        if int8:
            net = quant.quantize_weights(net)
        r = np.random.default_rng(2)
        x = r.random((1, *spec.input_shape))
        warm = net.forward(x), net.predict(x)
        data = Dataset(r.random((4, *spec.input_shape)), r.integers(0, 10, 4))
        train(net, data, TrainConfig(lr=0.5, batch_size=4, epochs=1, seed=3))
        fresh = nb.compile_spec(spec, seed=None)
        for (_, arr), (_, trained) in zip(fresh.parameters(), net.parameters()):
            arr[...] = trained
        for run, before in zip(("forward", "predict"), warm):
            got = getattr(net, run)(x)
            assert got.tobytes() == getattr(fresh, run)(x).tobytes(), run
            assert got.tobytes() != before.tobytes(), run

    # 1 and 2 are every thread count _predict_threads chooses
    @pytest.mark.parametrize("threads", [1, 2])
    def test_int8_batch_256_peaks_at_a_chunk(self, threads, monkeypatch):
        # run whole, this batch peaked at 13.05 MiB of float32 transients; two
        # threads hold two chunks' at once
        use_threads(monkeypatch, threads)
        spec = nb.reference_spec("attendnet-micro-a")
        net = quant.quantize_weights(nb.compile_spec(spec))
        x = np.random.default_rng(0).random((256, *spec.input_shape))
        net.predict(x)  # warm up the tap tables and conv specs
        tracemalloc.start()
        try:
            net.predict(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, f"{peak / 2**20:.2f} MiB peak"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_int8_batch_256_keeps_no_cache(self, threads, monkeypatch):
        # the training pass, which keeps every cache, peaks at 73 MiB here
        use_threads(monkeypatch, threads)
        spec = nb.reference_spec("attendnet-micro-a")
        net = quant.quantize_weights(nb.compile_spec(spec))
        x = np.random.default_rng(0).random((256, *spec.input_shape))
        net.predict(x)  # warm up the tap tables and conv specs
        tracemalloc.start()
        try:
            net.predict(x)
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2**20, f"{peak / 2**20:.2f} MiB peak"
        # numpy's own small-object caches may keep about 1 KiB
        assert left <= 2**16, f"{left} bytes left by predict"


def _predict_into(results, net, x):
    results.put(net.predict(x).tobytes())


class TestSharedPredict:
    """A multi-chunk predict shared by the calling thread and pool helpers
    gives the bits of one thread, and fails as one thread would."""

    @pytest.mark.parametrize("cpus, env, want", [
        (2, {}, 1),  # a BLAS thread per CPU
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
        (8, {"OMP_NUM_THREADS": "1"}, 2),  # never more than one helper
        (1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
        (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
        (2, {"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, 2),
    ])
    def test_thread_count_follows_cpus_and_blas_pin(self, cpus, env, want, monkeypatch):
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert nb._predict_threads() == want

    @pytest.mark.parametrize("int8", [False, True])
    @pytest.mark.parametrize("name", sorted(nb.REFERENCE_SPECS))
    def test_bytes_equal_at_any_thread_count(self, name, int8, monkeypatch):
        net = nb.compile_spec(nb.reference_spec(name))
        if int8:
            net = quant.quantize_weights(net)
        for n in (1, 31, 32, 33, 256):
            x = np.random.default_rng(n).random((n, *net.spec.input_shape))
            for run in (net.forward, net.predict):
                use_threads(monkeypatch, 1)
                want = run(x).tobytes()
                for threads in (2, 3):
                    use_threads(monkeypatch, threads)
                    assert run(x).tobytes() == want, (n, run.__name__, threads)

    def test_concurrent_callers_match_serial(self, monkeypatch):
        # two threads call forward on one network, then two call predict
        net = quant.quantize_weights(nb.compile_spec(nb.reference_spec("attendnet-micro-a")))
        xs = [np.random.default_rng(s).random((100, 1, 28, 28)) for s in (1, 2)]
        for run in (net.forward, net.predict):
            use_threads(monkeypatch, 1)
            want = [run(x).tobytes() for x in xs]
            use_threads(monkeypatch, 3)
            got = [[], []]

            def call(k):
                for _ in range(5):
                    got[k].append(run(xs[k]).tobytes())

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                callers = [threading.Thread(target=call, args=(k,)) for k in (0, 1)]
                for t in callers:
                    t.start()
                for t in callers:
                    t.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in callers)
            assert got == [[want[0]] * 5, [want[1]] * 5], run.__name__

    def test_lowest_failing_chunk_raises_after_every_helper_stops(self, monkeypatch):
        # chunks 1 and 6 of 8 fail; chunk 1 fails last in time, while the
        # other threads are still inside chunks of their own
        net = nb.compile_spec(nb.parse_dsl(TINY), seed=0)
        x = np.zeros((256, 1, 28, 28))
        x[:, 0, 0, 0] = np.arange(256) // nb.PREDICT_CHUNK  # each image's chunk
        active, lock, run = [0], threading.Lock(), nb.conv_forward

        def spy(xc, p, layer):
            chunk = int(xc[0, 0, 0, 0])
            with lock:
                active[0] += 1
            try:
                time.sleep(0.2 if chunk == 1 else 0.02)
                if chunk in (1, 6):
                    raise NonFiniteError(f"chunk {chunk}")
                return run(xc, p, layer)
            finally:
                with lock:
                    active[0] -= 1

        monkeypatch.setattr(nb, "conv_forward", spy)
        for threads in (1, 2, 3):
            use_threads(monkeypatch, threads)
            with pytest.raises(NonFiniteError, match=r"^block 0 \(conv\): chunk 1$"):
                net.predict(x)
            assert active[0] == 0, threads

    @pytest.mark.parametrize("interrupt", [False, True])
    def test_no_chunk_is_claimed_after_a_failure(self, interrupt, monkeypatch):
        # chunk 1 fails at once, or the calling thread is interrupted in
        # its first chunk; each other chunk takes 5 ms, so 40 of them would
        # run to the end if claiming went on
        started, error = [], KeyboardInterrupt if interrupt else NonFiniteError

        def run(i):
            started.append(i)
            on_caller = threading.current_thread() is threading.main_thread()
            if on_caller if interrupt else i == 1:
                raise error("stop")
            time.sleep(0.005)
            return i

        use_threads(monkeypatch, 3)
        with pytest.raises(error):
            nb._map_chunks(run, range(40))
        assert len(started) < 10, sorted(started)

    def test_forked_child_makes_its_own_helpers(self, monkeypatch):
        use_threads(monkeypatch, 2)
        net = quant.quantize_weights(nb.compile_spec(nb.reference_spec("attendnet-micro-a")))
        x = np.random.default_rng(0).random((70, 1, 28, 28))
        want = net.predict(x).tobytes()  # the parent's helper is running now
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=_predict_into, args=(results, net, x))
        child.start()
        try:
            got = results.get(timeout=60)
        except queue.Empty:
            got = None
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
                child.join()
        assert got == want
        assert child.exitcode == 0


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

    def test_load_draws_no_weights(self, tmp_path, monkeypatch):
        net = nb.compile_spec(nb.parse_dsl(RES), seed=9)
        nb.save(net, tmp_path / "m.acnk")

        def no_generator(*args):
            raise AssertionError("load drew weights it overwrites")
        monkeypatch.setattr(np.random, "PCG64", no_generator)
        loaded = nb.load(tmp_path / "m.acnk")
        for (_, pa), (_, pl) in zip(net.parameters(), loaded.parameters()):
            assert pa.tobytes() == pl.tobytes()

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

    @pytest.mark.parametrize("option", DELETED_VAC_OPTIONS)
    def test_spec_with_deleted_vac_option_rejected(self, tmp_path, option):
        # as written when the VAC took the option, which added no parameter
        net = nb.compile_spec(nb.parse_dsl(TINY), seed=0)
        net.spec = dataclasses.replace(net.spec, text=TINY.replace("um8", f"um8 {option}"))
        nb.save(net, tmp_path / "m.acnk")
        message = DELETED_VAC_OPTIONS[option]
        with pytest.raises(FormatError, match=f"bad spec: line 3, col 23: {message}$"):
            nb.load(tmp_path / "m.acnk")

    def test_bad_version(self, tmp_path):
        net = nb.compile_spec(nb.parse_dsl(TINY), seed=0)
        path = tmp_path / "m.acnk"
        nb.save(net, path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            nb.load(path)
