import json
import math

import pytest

from vacnet import explore
from vacnet.explore import (Candidate, IndicatorConfig, PerformanceFunction,
                            SearchSpace, cached_eval_fn, indicator, score,
                            search, spec_hash)
from vacnet.kernels import ConfigError

PF = PerformanceFunction()
ICFG = IndicatorConfig(tau=0.71, bits=8)


def tiny_candidates(n=8):
    """n distinct valid spec texts plus a synthetic metrics table."""
    texts, metrics = [], {}
    top1s = [0.50, 0.68, 0.71, 0.74, 0.77, 0.80, 0.83, 0.90][:n]
    for i, top1 in enumerate(top1s):
        text = f"input 1 8 8\nconv k1 c{i + 2}\ngap\nfc 2\nsoftmax\n"
        texts.append(text)
        metrics[spec_hash(text)] = {
            "top1": top1, "bits": 8 if i % 2 == 0 else 32,
            "params": 1000 * (i + 1), "mult_adds": 50_000 * (i + 1)}
    return texts, metrics


class TestIndicator:
    def test_meets_both_constraints(self):
        assert indicator({"top1": 0.72, "bits": 8}, ICFG) == 1

    def test_precision_violation(self):
        assert indicator({"top1": 0.71, "bits": 32}, ICFG) == 0

    def test_threshold_boundary(self):
        assert indicator({"top1": 0.71, "bits": 8}, ICFG) == 1
        for eps in (1e-12, 1e-6, 0.01):
            assert indicator({"top1": 0.71 - eps, "bits": 8}, ICFG) == 0

    def test_invalid_top1(self):
        with pytest.raises(ConfigError):
            indicator({"top1": 1.5, "bits": 8}, ICFG)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            IndicatorConfig(tau=0.0)
        with pytest.raises(ConfigError):
            IndicatorConfig(tau=0.5, bits=16)


class TestScore:
    def test_reference_value(self):
        # 20*log10(71.7^2 / sqrt(0.782 * 191.3)) with counts in millions
        u = score(0.717, 782_000, 191_300_000, PF)
        expect = 20 * math.log10(71.7 ** 2 / math.sqrt(0.782 * 191.3))
        assert u == pytest.approx(expect, abs=1e-12)
        assert u == pytest.approx(52.5, abs=0.05)

    def test_doubling_params_costs_20_beta_log2(self):
        u1 = score(0.8, 1_000_000, 5_000_000, PF)
        u2 = score(0.8, 2_000_000, 5_000_000, PF)
        assert u1 - u2 == pytest.approx(20 * PF.beta * math.log10(2), abs=1e-12)

    def test_zero_exponents_zero_score(self):
        pf = PerformanceFunction(kappa=0, beta=0, gamma=0)
        assert score(0.3, 123, 456_789, pf) == 0.0

    def test_monotonicity(self):
        assert score(0.9, 1e6, 1e6, PF) > score(0.8, 1e6, 1e6, PF)
        assert score(0.8, 1e6, 1e6, PF) > score(0.8, 2e6, 1e6, PF)
        assert score(0.8, 1e6, 1e6, PF) > score(0.8, 1e6, 2e6, PF)

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            score(0.0, 1e6, 1e6, PF)
        with pytest.raises(ConfigError):
            score(0.5, 0, 1e6, PF)
        with pytest.raises(ConfigError):
            PerformanceFunction(kappa=-1)

    @pytest.mark.parametrize("kwargs", [{"kappa": math.nan}, {"beta": math.nan},
                                        {"gamma": math.inf}])
    def test_non_finite_exponent_rejected(self, kwargs):
        with pytest.raises(ConfigError, match="finite"):
            PerformanceFunction(**kwargs)


class TestSearchSpace:
    def test_from_json_roundtrip(self):
        texts, metrics = tiny_candidates()
        space = SearchSpace.from_json(json.dumps(
            {"candidates": texts, "metrics": metrics}))
        assert space.candidates == texts
        assert space.metrics == metrics

    def test_full_budget_is_exhaustive(self):
        texts, _ = tiny_candidates()
        space = SearchSpace(candidates=texts)
        import numpy as np
        drawn = space.draw(8, np.random.default_rng(0))
        assert sorted(drawn) == sorted(texts)

    def test_slot_sampling_chains_channels(self):
        space = SearchSpace(
            stem=["input 1 8 8", "conv k3 s1 p1 c8"],
            slots=[["vac dm4 e1:4 e2:4 um8", "pepe p1:4 e1:8 p2:4 e2:8"]],
            tail=["gap", "fc 10", "softmax"])
        import numpy as np
        from vacnet import netbuilder as nb
        rng = np.random.default_rng(3)
        seen = {space.sample(rng) for _ in range(20)}
        assert len(seen) == 2
        for text in seen:
            nb.parse_dsl(text)  # every realizable sample is valid

    def test_empty_space_rejected(self):
        import numpy as np
        with pytest.raises(ConfigError):
            SearchSpace().draw(1, np.random.default_rng(0))


class TestSearch:
    def test_matches_exhaustive_enumeration(self):
        texts, metrics = tiny_candidates()
        space = SearchSpace(candidates=texts, metrics=metrics)
        result = search(space, 8, ICFG, PF, cached_eval_fn(metrics), seed=1)
        # brute force: filter by indicator, sort by U desc / params / text
        expected = []
        for text in texts:
            m = metrics[spec_hash(text)]
            if indicator({"top1": m["top1"], "bits": m["bits"]}, ICFG):
                u = score(m["top1"], m["params"], m["mult_adds"], PF)
                expected.append((-u, m["params"], text))
        expected.sort()
        assert [c.spec_text for c in result.feasible] == [t for _, _, t in expected]

    def test_constraint_filtering_two_candidates(self):
        texts, metrics = tiny_candidates(2)  # top1 0.50 and 0.68, both < tau
        metrics[spec_hash(texts[0])]["top1"] = 0.90
        space = SearchSpace(candidates=texts, metrics=metrics)
        result = search(space, 2, ICFG, PF, cached_eval_fn(metrics), seed=0)
        assert [c.spec_text for c in result.feasible] == [texts[0]]

    def test_never_returns_infeasible_across_seeds(self):
        texts, metrics = tiny_candidates()
        space = SearchSpace(candidates=texts, metrics=metrics)
        fn = cached_eval_fn(metrics)
        for seed in range(100):
            result = search(space, 5, ICFG, PF, fn, seed=seed)
            assert all(c.feasible for c in result.feasible)
            for c in result.feasible:
                assert indicator({"top1": c.top1, "bits": c.bits}, ICFG) == 1

    def test_deterministic_given_seed(self):
        texts, metrics = tiny_candidates()
        space = SearchSpace(candidates=texts, metrics=metrics)
        fn = cached_eval_fn(metrics)
        a = search(space, 4, ICFG, PF, fn, seed=9)
        b = search(space, 4, ICFG, PF, fn, seed=9)
        assert [c.spec_hash for c in a.audit] == [c.spec_hash for c in b.audit]
        assert [c.u for c in a.feasible] == [c.u for c in b.feasible]

    def test_budget_one_single_candidate(self):
        texts, metrics = tiny_candidates()
        space = SearchSpace(candidates=texts, metrics=metrics)
        fn = cached_eval_fn(metrics)
        first = search(space, 1, ICFG, PF, fn, seed=5)
        again = search(space, 1, ICFG, PF, fn, seed=5)
        assert len(first.audit) == 1
        assert first.audit[0].spec_hash == again.audit[0].spec_hash

    def test_empty_feasible_set_is_result_not_error(self):
        texts, metrics = tiny_candidates(2)
        space = SearchSpace(candidates=texts, metrics=metrics)
        result = search(space, 2, ICFG, PF, cached_eval_fn(metrics), seed=0)
        assert result.empty
        assert len(result.audit) == 2

    def test_ranking_invariant_under_uniform_params_rescaling(self):
        texts, metrics = tiny_candidates()
        space = SearchSpace(candidates=texts, metrics=metrics)
        base = search(space, 8, ICFG, PF, cached_eval_fn(metrics), seed=2)
        for factor in (0.1, 3.0, 40.0):
            scaled = {k: dict(m, params=m["params"] * factor)
                      for k, m in metrics.items()}
            got = search(SearchSpace(candidates=texts, metrics=scaled),
                         8, ICFG, PF, cached_eval_fn(scaled), seed=2)
            assert ([c.spec_hash for c in got.feasible]
                    == [c.spec_hash for c in base.feasible])

    def test_tie_break_fewer_params_then_text(self):
        texts = ["input 1 4 4\nconv k1 c2\ngap\nfc 2\nsoftmax\n",
                 "input 1 4 4\nconv k1 c3\ngap\nfc 2\nsoftmax\n",
                 "input 1 4 4\nconv k1 c4\ngap\nfc 2\nsoftmax\n"]
        # identical U for the first pair (same metrics), third has fewer params
        metrics = {
            spec_hash(texts[0]): {"top1": 0.8, "bits": 8, "params": 200,
                                  "mult_adds": 1000},
            spec_hash(texts[1]): {"top1": 0.8, "bits": 8, "params": 200,
                                  "mult_adds": 1000},
            spec_hash(texts[2]): {"top1": 0.8, "bits": 8, "params": 50,
                                  "mult_adds": 4000},
        }
        space = SearchSpace(candidates=texts, metrics=metrics)
        result = search(space, 3, ICFG, PF, cached_eval_fn(metrics), seed=0)
        us = [c.u for c in result.feasible]
        assert us[0] == us[1] == us[2]  # 200*1000 == 50*4000 under beta==gamma
        # fewer params outranks at equal U; remaining tie falls to spec text
        assert result.feasible[0].params == 50
        assert [c.spec_text for c in result.feasible[1:]] == sorted(texts[:2])

    def test_params_computed_from_spec_when_not_cached(self):
        text = "input 1 4 4\nconv k1 c2\ngap\nfc 2\nsoftmax\n"
        metrics = {spec_hash(text): {"top1": 0.9, "bits": 8}}
        space = SearchSpace(candidates=[text], metrics=metrics)
        result = search(space, 1, ICFG, PF, cached_eval_fn(metrics), seed=0)
        from vacnet import complexity, netbuilder
        report = complexity.count_mult_adds(netbuilder.parse_dsl(text))
        assert result.feasible[0].params == report.total_params
        assert result.feasible[0].mult_adds == report.total_mult_adds

    def test_audit_log_records_every_candidate(self):
        texts, metrics = tiny_candidates()
        space = SearchSpace(candidates=texts, metrics=metrics)
        result = search(space, 8, ICFG, PF, cached_eval_fn(metrics), seed=4)
        lines = result.audit_jsonl().strip().split("\n")
        assert len(lines) == 8
        rec = json.loads(lines[0])
        assert set(rec) == {"candidate_id", "spec_hash", "top1", "params",
                            "mult_adds", "feasible", "U"}

    def test_repeated_draws_evaluated_once(self):
        text = "input 1 4 4\nconv k1 c2\ngap\nfc 2\nsoftmax\n"
        space = SearchSpace(stem=["input 1 4 4"], slots=[["conv k1 c2"]],
                            tail=["gap", "fc 2", "softmax"])
        calls = []

        def eval_fn(spec_text):
            calls.append(spec_text)
            return {"top1": 0.9, "bits": 8}

        result = search(space, 3, ICFG, PF, eval_fn, seed=0)
        assert calls == [text]
        assert [c.candidate_id for c in result.audit] == [0, 1, 2]
        assert {c.spec_hash for c in result.audit} == {spec_hash(text)}

    def test_bad_budget(self):
        texts, metrics = tiny_candidates()
        with pytest.raises(ConfigError):
            search(SearchSpace(candidates=texts, metrics=metrics), 0, ICFG, PF,
                   cached_eval_fn(metrics))
