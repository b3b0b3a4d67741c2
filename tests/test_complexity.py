import numpy as np
import pytest

from oracles import MulCounter, naive_conv2d, naive_network_forward
from vacnet import complexity as cx
from vacnet import netbuilder as nb
from vacnet.kernels import ConfigError

# Published model rows: name, params, mult-adds, weight bits.
TABLE_ROWS = [cx.ModelRow(*row) for row in [
    ("mobilenet-v1", 3_260_000, 567_500_000, 32),
    ("mobilenet-v2", 2_290_000, 299_700_000, 32),
    ("attonet-a", 2_970_000, 424_800_000, 32),
    ("attonet-b", 1_870_000, 277_500_000, 32),
    ("attendnet-a", 1_386_000, 276_800_000, 8),
    ("attendnet-b", 782_000, 191_300_000, 8),
]]


def one_conv_spec(input_line, conv_line):
    return nb.parse_dsl(f"{input_line}\n{conv_line}\ngap\nfc 2\nsoftmax\n")


class TestCountMultAdds:
    def test_pointwise_conv_example(self):
        # c_in=3, c_out=8 pointwise on 4x4 -> 3*8*16 multiplications
        spec = one_conv_spec("input 3 4 4", "conv k1 c8")
        report = cx.count_mult_adds(spec)
        assert report.rows[0].mult_adds == 384
        net = nb.compile_spec(spec, seed=0)
        params = dict(net.parameters())
        counter = MulCounter()
        naive_conv2d(np.random.default_rng(0).random((1, 3, 4, 4)),
                     params["0.conv.w"], params["0.conv.b"], counter=counter)
        assert counter.n == 384

    def test_depthwise_conv_example(self):
        # 3x3 depthwise, 8 channels, multiplier 1, same-pad on 4x4 -> 9*8*16
        spec = one_conv_spec("input 8 4 4", "conv k3 s1 p1 c8 g8")
        report = cx.count_mult_adds(spec)
        assert report.rows[0].mult_adds == 1152
        net = nb.compile_spec(spec, seed=0)
        params = dict(net.parameters())
        counter = MulCounter()
        naive_conv2d(np.random.default_rng(1).random((1, 8, 4, 4)),
                     params["0.conv.w"], params["0.conv.b"],
                     padding=(1, 1), groups=8, counter=counter)
        assert counter.n == 1152

    def test_gap_and_softmax_cost_zero(self):
        spec = one_conv_spec("input 2 4 4", "conv k1 c4")
        report = cx.count_mult_adds(spec)
        by_name = {r.name.rsplit(".", 1)[-1]: r for r in report.rows}
        assert by_name["gap"].mult_adds == 0
        assert by_name["softmax"].mult_adds == 0
        assert by_name["gap"].params == 0

    @pytest.mark.parametrize("name", sorted(nb.REFERENCE_SPECS))
    def test_matches_instrumented_counter_on_reference_specs(self, name):
        spec = nb.reference_spec(name)
        net = nb.compile_spec(spec, seed=0)
        params = dict(net.parameters())
        x = np.random.default_rng(7).random((1,) + spec.input_shape)
        counter = MulCounter()
        probs = naive_network_forward(spec, params, x, counter)
        report = cx.count_mult_adds(spec)
        assert counter.n == report.total_mult_adds
        # same execution doubles as a whole-network value oracle
        np.testing.assert_allclose(probs, net.forward(x), atol=1e-9)

    def test_totals_equal_row_sums(self):
        report = cx.count_mult_adds(nb.reference_spec("attendnet-micro-a"))
        assert report.total_params == sum(r.params for r in report.rows)
        assert report.total_mult_adds == sum(r.mult_adds for r in report.rows)
        assert all(r.params >= 0 and r.mult_adds >= 0 for r in report.rows)

    def test_bytes_at_bits(self):
        spec = one_conv_spec("input 3 4 4", "conv k1 c8")
        r32 = cx.count_mult_adds(spec, bits=32)
        r8 = cx.count_mult_adds(spec, bits=8)
        assert r32.total_bytes == 4 * r32.total_params
        assert r8.total_bytes == r8.total_params

    def test_input_shape_channel_mismatch_rejected(self):
        spec = one_conv_spec("input 3 4 4", "conv k1 c8")
        with pytest.raises(ConfigError):
            cx.count_mult_adds(spec, input_shape=(4, 4, 4))

    def test_rejects_non_spec(self):
        with pytest.raises(ConfigError):
            cx.count_mult_adds("input 1 4 4")


class TestCountParams:
    @pytest.mark.parametrize("name", sorted(nb.REFERENCE_SPECS))
    def test_equals_compiled_allocation(self, name):
        spec = nb.reference_spec(name)
        net = nb.compile_spec(spec, seed=0)
        allocated = sum(arr.size for _, arr in net.parameters())
        assert cx.count_mult_adds(spec).total_params == allocated == net.param_count()

    def test_fc_only_tail(self):
        spec = nb.parse_dsl("input 4 3 3\ngap\nfc 2\nsoftmax\n")
        assert cx.count_mult_adds(spec).total_params == 10  # 4*2 weights + 2 biases


class TestCompare:
    def test_published_row_ratios(self):
        entries = {(e.a, e.b): e for e in cx.compare(TABLE_ROWS)}
        e = entries[("mobilenet-v1", "attendnet-b")]
        assert e.params_ratio == pytest.approx(4.17, abs=0.005)
        assert e.memory_ratio == pytest.approx(16.68, abs=0.005)
        assert e.mult_adds_ratio == pytest.approx(2.97, abs=0.005)
        e = entries[("attonet-b", "attendnet-b")]
        assert e.params_ratio == pytest.approx(2.39, abs=0.005)
        assert e.memory_ratio == pytest.approx(9.57, abs=0.005)
        assert e.mult_adds_ratio == pytest.approx(1.45, abs=0.005)

    def test_identical_rows_give_unit_ratios(self):
        rows = [cx.ModelRow("a", 100, 200, 32), cx.ModelRow("b", 100, 200, 32)]
        for e in cx.compare(rows):
            assert e.params_ratio == e.mult_adds_ratio == e.memory_ratio == 1.0

    def test_antisymmetry(self):
        entries = {(e.a, e.b): e for e in cx.compare(TABLE_ROWS)}
        for (a, b), e in entries.items():
            back = entries[(b, a)]
            assert abs(e.params_ratio * back.params_ratio - 1.0) < 1e-12
            assert abs(e.mult_adds_ratio * back.mult_adds_ratio - 1.0) < 1e-12
            assert abs(e.memory_ratio * back.memory_ratio - 1.0) < 1e-12

    def test_pair_count(self):
        assert len(cx.compare(TABLE_ROWS)) == 6 * 5

    def test_needs_two_rows(self):
        with pytest.raises(ConfigError):
            cx.compare([cx.ModelRow("a", 1, 1, 32)])

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigError):
            cx.compare([cx.ModelRow("a", 0, 1, 32), cx.ModelRow("b", 1, 1, 32)])


class TestReports:
    def test_csv_shape_and_total_row(self):
        report = cx.count_mult_adds(one_conv_spec("input 3 4 4", "conv k1 c8"))
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "name,params,mult_adds,bits,bytes"
        assert lines[-1].startswith("total,")
        assert len(lines) == 2 + len(report.rows)

    def test_compare_csv_rounding(self):
        entries = cx.compare(TABLE_ROWS)
        text = cx.compare_to_csv(entries)
        assert "mobilenet-v1,attendnet-b,4.17,2.97,16.68" in text

    def test_text_and_csv_agree(self):
        entries = cx.compare(TABLE_ROWS[:2])
        text = cx.compare_to_text(entries)
        for e in entries:
            assert f"{e.params_ratio:.2f}x" in text
