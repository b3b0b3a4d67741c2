"""Constrained design exploration: filtered random search over a spec space.

Candidates are sampled from a SearchSpace (fixed stem/tail plus per-slot
choice lists, or an explicit candidate list), evaluated by an injected
``eval_fn``, filtered by a feasibility indicator (accuracy threshold and
weight precision), and ranked by a logarithmic performance score that trades
accuracy against parameter and compute cost. This is a transparent desk-scale
stand-in for an iterative generator-construction search, not a reproduction
of one.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import complexity, netbuilder
from .kernels import ConfigError


@dataclass(frozen=True)
class IndicatorConfig:
    tau: float           # top-1 accuracy threshold, fraction
    bits: int = 8        # required weight precision

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ConfigError(f"tau must lie in (0,1), got {self.tau}")
        if self.bits not in (8, 32):
            raise ConfigError(f"bits must be 8 or 32, got {self.bits}")


def indicator(candidate_result, config):
    """1 iff top-1 accuracy meets the threshold and weight precision fits."""
    top1 = candidate_result["top1"]
    bits = candidate_result["bits"]
    if not 0.0 <= top1 <= 1.0:
        raise ConfigError(f"top1 must lie in [0,1], got {top1}")
    return 1 if (top1 >= config.tau and bits <= config.bits) else 0


@dataclass(frozen=True)
class PerformanceFunction:
    kappa: float = 2.0   # accuracy exponent
    beta: float = 0.5    # parameter-count exponent
    gamma: float = 0.5   # mult-add exponent

    def __post_init__(self):
        if not all(0 <= e < math.inf for e in (self.kappa, self.beta, self.gamma)):
            raise ConfigError("performance exponents must be finite and >= 0")


def score(top1, params, mult_adds, pf):
    """20*log10( (100*top1)^kappa / (params_M^beta * mult_adds_M^gamma) ),
    with params and mult-adds expressed in millions."""
    if not 0.0 < top1 <= 1.0 or params <= 0 or mult_adds <= 0:
        raise ConfigError("score needs top1 in (0,1] and positive params/mult-adds")
    params_m = params / 1e6
    ma_m = mult_adds / 1e6
    return 20.0 * (pf.kappa * math.log10(100.0 * top1)
                   - pf.beta * math.log10(params_m)
                   - pf.gamma * math.log10(ma_m))


def _strings(value):
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


@dataclass
class SearchSpace:
    """Either an explicit candidate list, or stem + slot choices + tail."""
    stem: list = field(default_factory=list)       # DSL lines
    slots: list = field(default_factory=list)      # list of lists of DSL lines
    tail: list = field(default_factory=list)       # DSL lines
    candidates: list = field(default_factory=list) # full DSL texts (cached mode)
    metrics: dict = field(default_factory=dict)    # spec_hash -> metric dict

    @classmethod
    def from_json(cls, text):
        """A space from a JSON object whose stem, tail and candidates are lists
        of strings, slots a list of non-empty lists of strings and metrics an
        object; any other shape raises ConfigError."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigError("search space must be a JSON object")
        space = cls(stem=data.get("stem", []), slots=data.get("slots", []),
                    tail=data.get("tail", []), candidates=data.get("candidates", []),
                    metrics=data.get("metrics", {}))
        for name in ("stem", "tail", "candidates"):
            if not _strings(getattr(space, name)):
                raise ConfigError(f"search space {name!r} must be a list of strings")
        if not isinstance(space.slots, list) or not all(s and _strings(s) for s in space.slots):
            raise ConfigError("search space 'slots' must be a list of non-empty "
                              "lists of strings")
        if not isinstance(space.metrics, dict):
            raise ConfigError("search space 'metrics' must be an object")
        return space

    def sample(self, rng):
        lines = list(self.stem)
        for choices in self.slots:
            lines.append(choices[rng.integers(len(choices))])
        lines.extend(self.tail)
        return "\n".join(lines) + "\n"

    def draw(self, budget, rng):
        """Candidate spec texts for one run. Explicit candidate lists are
        enumerated in seeded shuffled order without replacement, so a budget
        covering the whole list is an exhaustive sweep."""
        if self.candidates:
            order = rng.permutation(len(self.candidates))[:budget]
            return [self.candidates[i] for i in order]
        if not self.slots and not self.stem:
            raise ConfigError("search space has neither candidates nor slots")
        return [self.sample(rng) for _ in range(budget)]


def spec_hash(spec_text):
    return hashlib.sha256(spec_text.encode("utf-8")).hexdigest()[:12]


def cached_eval_fn(metrics):
    """eval_fn that looks candidates up by spec hash in a metrics table."""
    def eval_fn(spec_text):
        key = spec_hash(spec_text)
        if key not in metrics:
            raise KeyError(f"no cached metrics for candidate {key}")
        if not isinstance(metrics[key], dict):
            raise ConfigError(f"cached metrics for candidate {key} must be an object")
        return dict(metrics[key])
    return eval_fn


def _metric(result, name, text):
    """A metric of one candidate's result: a finite real number (bools are
    not numbers here), or None for a count left out of the result."""
    value = result.get(name)
    if value is None and name in ("params", "mult_adds"):
        return None
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise ConfigError(f"candidate {spec_hash(text)}: {name} must be a finite "
                          f"number, got {value!r}")
    return value


@dataclass
class Candidate:
    candidate_id: int
    spec_text: str
    spec_hash: str
    top1: float
    bits: int
    params: int
    mult_adds: int
    feasible: bool
    u: float

    def audit_record(self):
        return {"candidate_id": self.candidate_id, "spec_hash": self.spec_hash,
                "top1": self.top1, "params": self.params,
                "mult_adds": self.mult_adds, "feasible": self.feasible,
                "U": self.u}


@dataclass
class SearchResult:
    feasible: list   # Candidates, best first
    audit: list      # every evaluated Candidate, in evaluation order

    @property
    def empty(self):
        return not self.feasible

    def audit_jsonl(self):
        return "\n".join(json.dumps(c.audit_record()) for c in self.audit) + "\n"


def search(space, budget, indicator_cfg, pf, eval_fn, seed=0):
    """Evaluate ``budget`` sampled candidates, keep the feasible ones, and rank
    them by descending score (ties: fewer params, then spec text). A spec text
    drawn again reuses its first result but still gets its own audit record."""
    if budget < 1:
        raise ConfigError(f"budget must be >= 1, got {budget}")
    rng = np.random.Generator(np.random.PCG64(seed))
    audit = []
    results = {}
    for cid, text in enumerate(space.draw(budget, rng)):
        if text not in results:
            results[text] = eval_fn(text)
        top1, bits, params, mult_adds = (_metric(results[text], name, text)
                                         for name in ("top1", "bits", "params", "mult_adds"))
        if params is None or mult_adds is None:
            report = complexity.count_mult_adds(netbuilder.parse_dsl(text))
            params = params if params is not None else report.total_params
            mult_adds = (mult_adds if mult_adds is not None
                         else report.total_mult_adds)
        feasible = bool(indicator({"top1": top1, "bits": bits}, indicator_cfg))
        u = score(top1, params, mult_adds, pf) if top1 > 0 else float("-inf")
        audit.append(Candidate(cid, text, spec_hash(text), top1, bits, params,
                               mult_adds, feasible, u))
    ranked = sorted((c for c in audit if c.feasible),
                    key=lambda c: (-c.u, c.params, c.spec_text))
    return SearchResult(feasible=ranked, audit=audit)
