"""Monte Carlo validation of the MAD's limiting distribution.

Samples digit counts from the exact digit law and compares the empirical
behaviour of the MAD and its standardized form against the theoretical
moments.  Each replication draws from its own PCG64 stream, derived from the
seed and the replication index, so a run is reproducible bit for bit.  The
counts are kept in the narrowest unsigned integer type that holds n, and the
statistics are computed from them in two passes over blocks of replications,
so no float64 array of every replication's k cells is ever held.  numpy is
imported inside the functions that use it, so no other command loads it.

The streams are numpy's `SeedSequence(seed, spawn_key=(r,))` -> `PCG64`
(O'Neill 2014), but building those objects per replication costs more than
the draw itself.  `replication_states` instead computes the PCG64 states of
replications 0 ... reps - 1 directly, a block at a time, following numpy's
SeedSequence mixing and PCG64 seeding.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .asymptotics import build_constants, mad_moments, standardized
from .benford import benford_probs
from .digits import DigitCounts, DigitSystem

if TYPE_CHECKING:
    import numpy as np

# numpy's SeedSequence hash and mix constants, and PCG64's 128-bit LCG multiplier.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Replications whose states are derived, and whose statistics are formed,
# together; larger blocks only raise peak memory.
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


def replication_states(seed: int, reps: int) -> Iterator[tuple[int, int]]:
    """The PCG64 `(state, inc)` of each replication r in 0 ... reps - 1.

    Replication r of a run seeded `seed` draws from
    `PCG64(SeedSequence(seed, spawn_key=(r,)))`, for r below 2**32.  Every
    replication shares the entropy pool of `SeedSequence(seed)`; only r, a
    single 32-bit spawn-key word, is mixed into it, across a block at once in
    uint32 arithmetic.  The pool's hash constant has by then been stepped once per
    pool word, once per ordered pair of pool words, and four times per seed
    word beyond the pool's four.
    """
    import numpy as np

    pool = np.random.SeedSequence(seed).pool.tolist()
    seed_words = max(1, -(-seed.bit_length() // 32))
    steps = 4 + 12 + 4 * max(seed_words - 4, 0)
    key_hash_const = _INIT_A * pow(_MULT_A, steps, 1 << 32) & _MASK32
    for start in range(0, reps, _BLOCK):
        key = np.arange(start, min(start + _BLOCK, reps), dtype=np.uint32)
        mixer = [np.full(len(key), word, dtype=np.uint32) for word in pool]
        hash_const = key_hash_const
        for i in range(len(mixer)):
            value = key ^ hash_const
            hash_const = hash_const * _MULT_A & _MASK32
            value *= hash_const
            value ^= value >> 16
            mixed = _MIX_MULT_L * mixer[i] - _MIX_MULT_R * value
            mixer[i] = mixed ^ (mixed >> 16)
        # generate_state(4, uint64): eight uint32 outputs, low word first.
        out = []
        hash_const = _INIT_B
        for i in range(8):
            value = mixer[i % 4] ^ hash_const
            hash_const = hash_const * _MULT_B & _MASK32
            value *= hash_const
            value ^= value >> 16
            out.append(value.astype(np.uint64))
        words = [(out[2 * j + 1] << np.uint64(32) | out[2 * j]).tolist() for j in range(4)]
        for s_hi, s_lo, q_hi, q_lo in zip(*words):
            inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
            yield (((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc) & _MASK128, inc


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
        raise ValueError(f"reps must be at most 2**32, one 32-bit spawn key each, got {reps}")
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    import numpy as np

    b = np.asarray(benford_probs(system))
    # The counts, in the narrowest unsigned type that holds n.  Allocated
    # before the first draw, so a run that cannot fit fails at once.
    counts = np.empty((reps, system.k), dtype=np.min_scalar_type(n))
    # One generator, reset to each replication's state before its draw.
    bit_generator = np.random.PCG64()
    rng = np.random.Generator(bit_generator)
    for r, (state, inc) in enumerate(replication_states(seed, reps)):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        counts[r] = rng.multinomial(n, b)
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
