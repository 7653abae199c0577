"""Monte Carlo validation of the MAD's limiting distribution.

Samples digit counts from the exact digit law and compares the empirical
behaviour of the MAD and its standardized form against the theoretical
moments.  Each replication draws from its own PCG64 stream, derived from the
seed and the replication index, so a run is reproducible bit for bit; the
statistics are then computed over all replications at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .asymptotics import build_constants, mad_moments
from .benford import benford_probs
from .digits import DigitCounts, DigitSystem
from .severity import _standardized


@dataclass(frozen=True)
class SimulationSpec:
    system: DigitSystem
    n: int
    reps: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.reps < 2:
            raise ValueError("reps must be at least 2: the standard deviations need two samples")


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
    system, n, reps = spec.system, spec.n, spec.reps
    b = benford_probs(system).b
    # One array is reused in place: counts, then |p - b|, then the folded
    # deviations sqrt(n)|p - b|/d, in the same operation order as a single test.
    folded = np.empty((reps, system.k))
    for r in range(reps):
        folded[r] = replication_rng(spec.seed, r).multinomial(n, b)
    folded /= n
    folded -= b
    np.abs(folded, out=folded)
    mads = folded.mean(axis=1)
    folded *= math.sqrt(n)
    folded /= build_constants(system).d_vec
    folded_means = folded.mean(axis=0)
    folded_se = folded.std(axis=0, ddof=1) / math.sqrt(reps)
    # Formed after the std above has freed its (reps, k) temporary, so these
    # small temporaries do not raise the peak memory.
    moments = mad_moments(system, n)
    tildes = _standardized(mads - moments.mean, n, system)
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
        mad_mean_se=float(mads.std(ddof=1) / math.sqrt(reps)),
        tilde_delta_mean_se=float(tildes.std(ddof=1) / math.sqrt(reps)),
        folded_mean_se=tuple(float(v) for v in folded_se),
    )
