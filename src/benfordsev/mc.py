"""Monte Carlo validation of the MAD's limiting distribution.

Samples digit counts from the exact digit law and compares the empirical
behaviour of the MAD and its standardized form against the theoretical
moments.  Replications use one independent PCG64 stream per replication
index (spawned from a single seed), so a run is reproducible bit for bit
and can be split across workers without changing any replication's draw.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .asymptotics import build_constants, mad_moments
from .benford import benford_probs, mad, proportions
from .digits import DigitCounts, DigitSystem
from .severity import run_test_from_proportions


@dataclass(frozen=True)
class SimulationSpec:
    system: DigitSystem
    n: int
    reps: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")


@dataclass(frozen=True)
class SimulationReport:
    spec: SimulationSpec
    empirical_mad_mean: float
    empirical_mad_sd: float
    theoretical_mad_mean: float
    theoretical_mad_sd: float
    tilde_delta_mean: float
    tilde_delta_sd: float
    digit_folded_means: tuple[float, ...]
    expected_folded_mean: float
    mad_mean_se: float          # MC standard error of empirical_mad_mean
    tilde_delta_mean_se: float
    folded_mean_se: tuple[float, ...]

    def to_dict(self) -> dict:
        """The report's fields in JSON order, with the spec flattened in front."""
        data = asdict(self)
        del data["spec"]
        spec = self.spec
        return {
            "digits": 1 if spec.system.k == 9 else 2,
            "k": spec.system.k,
            "n": spec.n,
            "reps": spec.reps,
            "seed": spec.seed,
            **data,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def replication_rng(seed: int, rep: int) -> np.random.Generator:
    """The generator of replication `rep` in a run seeded `seed`."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep,)))


def sample_benford_counts(system: DigitSystem, n: int, rng: np.random.Generator) -> DigitCounts:
    """One multinomial draw of n records from the exact digit law."""
    if n < 1:
        raise ValueError("n must be at least 1")
    b = benford_probs(system).b
    draw = rng.multinomial(n, b)
    return DigitCounts(system=system, counts=tuple(int(c) for c in draw), n=n)


def simulate(spec: SimulationSpec) -> SimulationReport:
    """Run the replications and report empirical vs theoretical moments."""
    system = spec.system
    b = benford_probs(system).b
    c = build_constants(system)
    sqrt_n = math.sqrt(spec.n)

    mads = np.empty(spec.reps)
    tildes = np.empty(spec.reps)
    folded = np.empty((spec.reps, system.k))

    for r in range(spec.reps):
        counts = sample_benford_counts(system, spec.n, replication_rng(spec.seed, r))
        p = proportions(counts)
        outcome = run_test_from_proportions(p, system)
        mads[r] = outcome.mad
        tildes[r] = outcome.tilde_delta
        folded[r] = sqrt_n * np.abs(p.p - b) / c.d_vec

    moments = mad_moments(system, spec.n)
    folded_means = folded.mean(axis=0)
    folded_se = folded.std(axis=0, ddof=1) / math.sqrt(spec.reps)
    return SimulationReport(
        spec=spec,
        empirical_mad_mean=float(mads.mean()),
        empirical_mad_sd=float(mads.std(ddof=1)),
        theoretical_mad_mean=moments.mean,
        theoretical_mad_sd=moments.sd,
        tilde_delta_mean=float(tildes.mean()),
        tilde_delta_sd=float(tildes.std(ddof=1)),
        digit_folded_means=tuple(float(v) for v in folded_means),
        expected_folded_mean=math.sqrt(2.0 / math.pi),
        mad_mean_se=float(mads.std(ddof=1) / math.sqrt(spec.reps)),
        tilde_delta_mean_se=float(tildes.std(ddof=1) / math.sqrt(spec.reps)),
        folded_mean_se=tuple(float(v) for v in folded_se),
    )
