"""Monte Carlo validation of the MAD's limiting distribution.

Samples digit counts from the exact digit law and compares the empirical
behaviour of the MAD and its standardized form against the theoretical
moments.  Each replication draws from its own PCG64 stream, derived from the
seed and the replication index, so a run is reproducible bit for bit; the
statistics are then computed over all replications at once.  numpy is
imported inside the functions that use it, so no other command loads it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from .asymptotics import build_constants, mad_moments
from .benford import benford_probs
from .digits import DigitCounts, DigitSystem
from .severity import _standardized

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SimulationSpec:
    system: DigitSystem
    n: int
    reps: int
    seed: int

    def __post_init__(self):
        if not 1 <= self.n < 2**63:
            raise ValueError(f"n must be at least 1 and below 2**63, got {self.n}")
        if self.reps < 2:
            raise ValueError("reps must be at least 2: the standard deviations need two samples")


@dataclass(frozen=True)
class SimulationReport:
    digits: int
    k: int
    n: int
    reps: int
    seed: int
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

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def replication_rng(seed: int, rep: int) -> np.random.Generator:
    """The generator of replication `rep` in a run seeded `seed`."""
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep,)))


def sample_benford_counts(system: DigitSystem, n: int, rng: np.random.Generator) -> DigitCounts:
    """One multinomial draw of n records from the exact digit law."""
    if n < 1:
        raise ValueError("n must be at least 1")
    b = benford_probs(system)
    draw = rng.multinomial(n, b)
    return DigitCounts(system=system, counts=tuple(int(c) for c in draw))


def simulate(spec: SimulationSpec) -> SimulationReport:
    """Run the replications and report empirical vs theoretical moments."""
    import numpy as np

    system, n, reps = spec.system, spec.n, spec.reps
    b = np.asarray(benford_probs(system))
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
        digits=system.digits,
        k=system.k,
        n=n,
        reps=reps,
        seed=spec.seed,
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
