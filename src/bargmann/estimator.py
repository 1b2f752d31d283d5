"""Shot-noise simulation of interferometric estimation of invariants.

An ideal cycle-test circuit encodes Re or Im of an invariant in the bias of
a two-outcome ancilla measurement, so its statistics are fully determined by
the exact invariant value.  We therefore sample Bernoulli outcomes from the
exact expectations directly instead of simulating gates: same distribution,
no cost exponential in the word length.

Generator streams are derived from (seed, word, setting), making every call
independent and bit-reproducible.  The generator family is numpy's PCG64
(``numpy.random.default_rng``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .criteria import commutator_gap
from .invariants import Word, bargmann_invariant, check_word, word_text
from .states import PositiveOperator, require_normalized

__all__ = [
    "SETTINGS",
    "EstimatorConfig",
    "EstimateResult",
    "GapEstimate",
    "estimate_invariant",
    "estimate_gap",
]

SETTINGS = ("real_only", "real_and_imag")

# Imaginary-part convention: success probability p = (1 + Im)/2, mirroring
# the real setting.  Internal and self-consistent, since we also generate
# the samples.
_RE_SETTING = 0
_IM_SETTING = 1


@dataclass(frozen=True)
class EstimatorConfig:
    """Shots per measurement setting, seed, and which settings to run."""

    shots_per_setting: int
    seed: int = 0
    settings: str = "real_and_imag"

    def __post_init__(self):
        # numpy's binomial sampler takes a signed 64-bit count.
        if not 1 <= self.shots_per_setting < 2**63:
            raise ValueError(
                f"shots_per_setting must be in [1, 2**63), got {self.shots_per_setting}"
            )
        if self.settings not in SETTINGS:
            raise ValueError(
                f"settings must be one of {SETTINGS}, got {self.settings!r}"
            )
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class EstimateResult:
    """Estimated invariant with per-component standard errors."""

    word: Word
    estimate: complex
    stderr_re: float
    stderr_im: float
    shots_used: int

    def to_dict(self) -> dict:
        return {
            "word": word_text(self.word),
            "re": self.estimate.real,
            "im": self.estimate.imag,
            "stderr_re": self.stderr_re,
            "stderr_im": self.stderr_im,
            "shots": self.shots_used,
        }


def _component_stream(config: EstimatorConfig, word: Word, setting: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=int(config.seed), spawn_key=(setting, *word))
    return np.random.default_rng(seq)


def _sample_component(
    exact: float, shots: int, rng: np.random.Generator
) -> tuple[float, float]:
    # p may poke out of [0, 1] by rounding for |Delta| at the boundary.
    p = min(max((1.0 + exact) / 2.0, 0.0), 1.0)
    successes = int(rng.binomial(shots, p))
    x = 2.0 * successes / shots - 1.0
    stderr = max(np.sqrt(max(1.0 - x * x, 0.0) / shots), 1e-3 / np.sqrt(shots))
    return x, float(stderr)


_NORMALIZED_REASON = "estimation requires normalized states so expectations stay in [-1, 1]"


def estimate_invariant(
    states: list[PositiveOperator], word: Word, config: EstimatorConfig
) -> EstimateResult:
    """Estimate one invariant from simulated cycle-test shots.

    Each requested component (real, and imaginary unless ``real_only``)
    consumes ``shots_per_setting`` Bernoulli draws with success probability
    ``(1 + component)/2`` at the exact invariant value; the estimate is the
    unbiased ``2 * successes/shots - 1``.  Only the states the word uses must
    have unit trace.
    """
    w = check_word(word, n_states=len(states))
    require_normalized(states, _NORMALIZED_REASON, labels=sorted(set(w)))
    return _sample(w, bargmann_invariant(states, w), config)


def _sample(word: Word, exact: complex, config: EstimatorConfig) -> EstimateResult:
    """Shots for the exact value of ``word``, from its (seed, word, setting) streams."""
    shots = config.shots_per_setting
    re_est, re_err = _sample_component(
        exact.real, shots, _component_stream(config, word, _RE_SETTING)
    )
    im_est, im_err, used = 0.0, 0.0, shots
    if config.settings != "real_only":
        im_est, im_err = _sample_component(
            exact.imag, shots, _component_stream(config, word, _IM_SETTING)
        )
        used = 2 * shots
    return EstimateResult(
        word=word,
        estimate=complex(re_est, im_est),
        stderr_re=re_err,
        stderr_im=im_err,
        shots_used=used,
    )


@dataclass(frozen=True)
class GapEstimate:
    """Estimated fourth-order gap of a pair, with propagated standard error."""

    gap_estimate: float
    standard_error: float
    est_1122: EstimateResult
    est_1212: EstimateResult

    def to_dict(self) -> dict:
        return {
            "gap_estimate": self.gap_estimate,
            "standard_error": self.standard_error,
            "delta_1122": self.est_1122.to_dict(),
            "delta_1212": self.est_1212.to_dict(),
        }


def estimate_gap(
    states: list[PositiveOperator], config: EstimatorConfig
) -> GapEstimate:
    """Estimate the commutativity gap of a normalized pair.

    The two fourth-order invariants are real and both come from one
    ``commutator_gap`` call; only real settings are sampled, independently
    per word (1,1,2,2) and (1,2,1,2).  The standard error of the difference
    is the root-sum-square of the component errors.
    """
    if len(states) != 2:
        raise ValueError(f"estimate_gap needs exactly 2 states, got {len(states)}")
    require_normalized(states, _NORMALIZED_REASON)
    pair = commutator_gap(*states)
    real_cfg = replace(config, settings="real_only")
    est_1122 = _sample((1, 1, 2, 2), pair.delta_llkk, real_cfg)
    est_1212 = _sample((1, 2, 1, 2), pair.delta_lklk, real_cfg)
    gap = est_1122.estimate.real - est_1212.estimate.real
    err = float(np.hypot(est_1122.stderr_re, est_1212.stderr_re))
    return GapEstimate(
        gap_estimate=gap,
        standard_error=err,
        est_1122=est_1122,
        est_1212=est_1212,
    )
