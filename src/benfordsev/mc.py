"""Monte Carlo validation of the MAD's limiting distribution.

Samples digit counts from the exact digit law and compares the empirical
behaviour of the MAD and its standardized form against the theoretical
moments.  The replications are successive draws from one
`default_rng(seed)` stream, so a run is reproducible bit for bit and a run of
R replications is the first R of any longer run with the same seed.  The
counts are kept in the narrowest unsigned integer type that holds n, and the
statistics are computed from them in two passes over blocks of replications,
so no float64 array of every replication's k cells is ever held.  numpy is
imported inside the functions that use it, so no other command loads it.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, NamedTuple

from .asymptotics import build_constants, mad_moments, standardized
from .benford import benford_probs
from .digits import DigitCounts, DigitSystem

if TYPE_CHECKING:
    import numpy as np

# Replications drawn, and whose statistics are formed, together; larger
# blocks only raise peak memory.
_BLOCK = 512


class SimulationReport(NamedTuple):
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
        return json.dumps(self._asdict(), indent=2)


def sample_benford_counts(system: DigitSystem, n: int, rng: np.random.Generator) -> DigitCounts:
    """One multinomial draw of n records from the exact digit law."""
    if n < 1:
        raise ValueError("n must be at least 1")
    b = benford_probs(system)
    draw = rng.multinomial(n, b)
    return DigitCounts(system=system, counts=tuple(int(c) for c in draw))


def simulate(system: DigitSystem, n: int, reps: int, seed: int) -> SimulationReport:
    """Run the replications and report empirical vs theoretical moments."""
    if not 1 <= n < 2**63:
        raise ValueError(f"n must be at least 1 and below 2**63, got {n}")
    if reps < 2:
        raise ValueError("reps must be at least 2: the standard deviations need two samples")
    if reps > 2**32:
        raise ValueError(f"reps must be at most 2**32, got {reps}")
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    import numpy as np

    b = np.asarray(benford_probs(system))
    # The counts, in the narrowest unsigned type that holds n.  Allocated
    # before the first draw, so a run that cannot fit fails at once.
    counts = np.empty((reps, system.k), dtype=np.min_scalar_type(n))
    # A block of draws gives the rows that as many single draws would, so the
    # stream does not depend on _BLOCK.  The int64 block is the only temporary.
    rng = np.random.default_rng(seed)
    for start in range(0, reps, _BLOCK):
        m = min(_BLOCK, reps - start)
        counts[start : start + m] = rng.multinomial(n, b, size=m)
    d = build_constants(system).d_vec
    mads = np.empty(reps)
    # Row 0 is a running column sum; rows 1.. take one block of replications.
    # numpy's axis-0 sum of a C-contiguous matrix adds its rows strictly in
    # order, so adding each block after the running sum reproduces the mean
    # and std of the whole (reps, k) matrix bit for bit.
    buf = np.empty((_BLOCK + 1, system.k))

    def column_sums(means: np.ndarray | None) -> np.ndarray:
        """Column sums of the folded deviations sqrt(n)|p - b|/d, or of their
        squared deviations from `means`.

        The deviations are formed in the same operation order as a single
        test, and the pass without `means` also sets the MADs.
        """
        buf[0] = 0.0
        for start in range(0, reps, _BLOCK):
            block = buf[1 : 1 + min(_BLOCK, reps - start)]
            np.copyto(block, counts[start : start + len(block)])
            block /= n
            block -= b
            np.abs(block, out=block)
            if means is None:
                block.mean(axis=1, out=mads[start : start + len(block)])
            block *= math.sqrt(n)
            block /= d
            if means is not None:
                block -= means
                np.square(block, out=block)
            buf[0] = np.add.reduce(buf[: 1 + len(block)], axis=0)
        return buf[0]

    folded_means = column_sums(None) / reps
    folded_se = np.sqrt(column_sums(folded_means) / (reps - 1)) / math.sqrt(reps)
    moments = mad_moments(system, n)
    tildes = standardized(mads - moments.mean, n, system)
    return SimulationReport(
        digits=system.digits,
        k=system.k,
        n=n,
        reps=reps,
        seed=seed,
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
