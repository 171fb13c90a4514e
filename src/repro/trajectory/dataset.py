"""Recovery dataset: aligned (low-sample input, ε_ρ-grid target) samples.

Each sample couples

* the low-sample raw input trajectory (every ``keep_every``-th point of the
  high-sample trace, plus the final point),
* the full ε_ρ-interval matched target (segment id + moving ratio per
  step), and
* the **constraint mask** of Eq. 16: for target steps that are observed in
  the input, a sparse weight vector ω(e, p) = exp(-d²/β²) over segments
  within the device's maximum error radius; unobserved steps are
  unconstrained (all ones).

Batches stack same-shape samples (the simulator emits fixed-length
trajectories, so bucketing is trivial) and collect their observed steps'
Eq. 16 entries (:meth:`Batch.observed_entries`), from which
``repro.core.decoder.decode_constraint`` builds the sparse mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..geo.distance import gaussian_weight
from ..roadnet.network import RoadNetwork
from .resample import downsample_indices
from .trajectory import MatchedTrajectory, RawTrajectory

SparseMask = Optional[Tuple[np.ndarray, np.ndarray]]  # (segment ids, weights)


def constraint_for_fix(network: RoadNetwork, x: float, y: float,
                       beta: float, max_gps_error: float) -> Tuple[np.ndarray, np.ndarray]:
    """The Eq. 16 sparse constraint entry for one observed GPS fix.

    Shared by the offline dataset builder and the online serving ingest so
    the two paths can never diverge: segments within ``max_gps_error``
    meters weighted by ω(e, p) = exp(-d²/β²), falling back to the single
    nearest segment when none are in range.  Works on the network's
    array-native query (one vectorized distance pass over all candidates).
    """
    ids, dists = network.segments_within_arrays(float(x), float(y), max_gps_error)
    if not len(ids):
        sid, dist, _ = network.nearest_segment(float(x), float(y))
        ids = np.array([sid], dtype=np.int64)
        dists = np.array([dist])
    weights = gaussian_weight(dists, beta)
    return ids, np.maximum(weights, 1e-8)


@dataclass(frozen=True)
class RecoverySample:
    """One training/evaluation example of the trajectory recovery task."""

    raw_low: RawTrajectory
    target: MatchedTrajectory
    observed_steps: np.ndarray          # indices into target for each input point
    constraints: Tuple[SparseMask, ...]  # per target step
    hour: int                            # environmental context (hour of day)
    holiday: bool

    @property
    def input_length(self) -> int:
        return len(self.raw_low)

    @property
    def target_length(self) -> int:
        return len(self.target)


@dataclass(frozen=True)
class DatasetConfig:
    """Sample-construction parameters (paper §V / §VI-A3)."""

    keep_every: int = 8          # ε_τ / ε_ρ ratio (8 or 16 in the paper)
    beta: float = 15.0           # constraint-mask kernel scale
    max_gps_error: float = 100.0  # constraint-mask search radius
    seed: int = 0


def sample_from_fixes(
    network: RoadNetwork,
    low: RawTrajectory,
    target: MatchedTrajectory,
    observed_steps: np.ndarray,
    config: "DatasetConfig",
    hour: int,
    holiday: bool,
) -> RecoverySample:
    """Assemble one recovery sample from an observed fix subset.

    The single construction path shared by :func:`build_samples` (fixed
    ``keep_every`` downsampling) and :mod:`repro.scenarios` (degraded
    observation patterns): ``observed_steps[i]`` is the target grid step
    of input fix ``i``, and each observed step gets its Eq. 16 constraint
    entry from the fix's (possibly noise-perturbed) position.  Sharing
    this keeps the scenario suite's identity transform bit-identical to
    the clean pipeline.
    """
    observed_steps = np.asarray(observed_steps, dtype=np.int64)
    if len(low) != len(observed_steps):
        raise ValueError("one observed step per input fix required")
    constraints: List[SparseMask] = [None] * len(target)
    for input_pos, target_step in enumerate(observed_steps):
        x, y = low.xy[input_pos]
        constraints[int(target_step)] = constraint_for_fix(
            network, x, y, config.beta, config.max_gps_error
        )
    return RecoverySample(
        raw_low=low,
        target=target,
        observed_steps=observed_steps,
        constraints=tuple(constraints),
        hour=int(hour),
        holiday=bool(holiday),
    )


def build_samples(
    pairs: Sequence[Tuple[RawTrajectory, MatchedTrajectory]],
    network: RoadNetwork,
    config: DatasetConfig | None = None,
) -> List[RecoverySample]:
    """Convert simulator output into aligned recovery samples."""
    config = config or DatasetConfig()
    rng = np.random.default_rng(config.seed)
    samples: List[RecoverySample] = []
    for raw, matched in pairs:
        if len(raw) != len(matched):
            raise ValueError("raw and matched trajectories must align 1:1")
        keep = downsample_indices(len(raw), config.keep_every)
        samples.append(
            sample_from_fixes(
                network, raw.slice(keep), matched, keep, config,
                hour=int(rng.integers(0, 24)),
                holiday=bool(rng.random() < 0.1),
            )
        )
    return samples


def train_val_test_split(
    samples: Sequence[RecoverySample],
    ratios: Tuple[float, float, float] = (0.7, 0.2, 0.1),
    seed: int = 0,
) -> Tuple[List[RecoverySample], List[RecoverySample], List[RecoverySample]]:
    """The paper's 7:2:1 split, shuffled deterministically."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("split ratios must sum to 1")
    order = np.random.default_rng(seed).permutation(len(samples))
    n_train = int(round(ratios[0] * len(samples)))
    n_val = int(round(ratios[1] * len(samples)))
    shuffled = [samples[i] for i in order]
    return (
        shuffled[:n_train],
        shuffled[n_train : n_train + n_val],
        shuffled[n_train + n_val :],
    )


@dataclass
class Batch:
    """A stacked mini-batch of same-shape recovery samples."""

    samples: List[RecoverySample]
    input_xy: np.ndarray          # (b, l_τ, 2)
    input_times: np.ndarray       # (b, l_τ) seconds from trajectory start
    target_segments: np.ndarray   # (b, l_ρ)
    target_ratios: np.ndarray     # (b, l_ρ)
    target_times: np.ndarray      # (b, l_ρ)
    observed_steps: np.ndarray    # (b, l_τ) target indices of the inputs
    hours: np.ndarray             # (b,)
    holidays: np.ndarray          # (b,)

    @property
    def size(self) -> int:
        return len(self.samples)

    @property
    def input_length(self) -> int:
        return self.input_xy.shape[1]

    @property
    def target_length(self) -> int:
        return self.target_segments.shape[1]

    def observed_entries(self, start: int = 0):
        """The Eq. 16 entries of grid steps ``[start:]``: per observed step
        its (sample index, step, entry length), and every entry's segment
        ids and weights concatenated in that order; ``None`` if there are
        no observed steps."""
        found = [(i, j, *entry) for i, sample in enumerate(self.samples)
                 for j, entry in enumerate(sample.constraints[start:])
                 if entry is not None]
        if not found:
            return None
        rows_i, rows_j, ids, weights = zip(*found)
        return (np.array(rows_i), np.array(rows_j),
                np.array([len(block) for block in ids]),
                np.concatenate(ids), np.concatenate(weights))


def make_batch(samples: Sequence[RecoverySample]) -> Batch:
    """Stack samples; all must share input and target lengths."""
    lengths = {(s.input_length, s.target_length) for s in samples}
    if len(lengths) != 1:
        raise ValueError(f"cannot stack heterogeneous shapes: {sorted(lengths)}")
    return Batch(
        samples=list(samples),
        input_xy=np.stack([s.raw_low.xy for s in samples]),
        input_times=np.stack([s.raw_low.times - s.raw_low.times[0] for s in samples]),
        target_segments=np.stack([s.target.segments for s in samples]),
        target_ratios=np.stack([s.target.ratios for s in samples]),
        target_times=np.stack([s.target.times for s in samples]),
        observed_steps=np.stack([s.observed_steps for s in samples]),
        hours=np.asarray([s.hour for s in samples], dtype=np.int64),
        holidays=np.asarray([s.holiday for s in samples], dtype=bool),
    )


def pad_sample_target(sample: RecoverySample, target_length: int) -> RecoverySample:
    """Extend a sample's target grid to ``target_length`` with dummy steps.

    Padded steps carry segment 0 / ratio 0, continue the ε_ρ time grid, and
    are unconstrained (mask of all ones).  Batched decoding uses this to
    put samples of different output lengths into one decoder call:
    greedy decoding is stepwise-causal, so truncating the padded output at
    each sample's true length reproduces the unpadded decode exactly.
    """
    current = sample.target_length
    if target_length < current:
        raise ValueError(f"cannot shrink target from {current} to {target_length}")
    if target_length == current:
        return sample
    extra = target_length - current
    interval = sample.target.interval or 1.0
    times = np.concatenate(
        [sample.target.times, sample.target.times[-1] + interval * np.arange(1, extra + 1)]
    )
    target = MatchedTrajectory(
        np.concatenate([sample.target.segments, np.zeros(extra, dtype=np.int64)]),
        np.concatenate([sample.target.ratios, np.zeros(extra)]),
        times,
    )
    return RecoverySample(
        raw_low=sample.raw_low,
        target=target,
        observed_steps=sample.observed_steps,
        constraints=sample.constraints + (None,) * extra,
        hour=sample.hour,
        holiday=sample.holiday,
    )


def make_padded_batch(samples: Sequence[RecoverySample]) -> Tuple[Batch, List[int]]:
    """Stack samples sharing one input length, padding targets to the max.

    Returns the padded batch plus each sample's true target length (the
    decode results must be truncated back with these).
    """
    input_lengths = {s.input_length for s in samples}
    if len(input_lengths) != 1:
        raise ValueError(f"cannot stack heterogeneous input lengths: {sorted(input_lengths)}")
    lengths = [s.target_length for s in samples]
    longest = max(lengths)
    return make_batch([pad_sample_target(s, longest) for s in samples]), lengths


def iterate_batch_indices(
    samples: Sequence[RecoverySample],
    batch_size: int,
    shuffle: bool = False,
    seed: int = 0,
    drop_last: bool = False,
) -> Iterator[List[int]]:
    """Yield index lists into ``samples``, bucketing by (input length,
    target length).

    This is the batch *schedule* without the batch materialization: the
    trainer draws a per-batch seed for each index list before stacking
    it, while :func:`iterate_batches` materializes them directly.  Both
    therefore consume bit-identical schedules for a given (shuffle, seed).
    """
    buckets: dict[Tuple[int, int], List[int]] = {}
    for index, sample in enumerate(samples):
        buckets.setdefault((sample.input_length, sample.target_length), []).append(index)

    rng = np.random.default_rng(seed)
    keys = sorted(buckets)
    if shuffle:
        rng.shuffle(keys)
    for key in keys:
        bucket = buckets[key]
        order = rng.permutation(len(bucket)) if shuffle else np.arange(len(bucket))
        for start in range(0, len(bucket), batch_size):
            chunk = [bucket[i] for i in order[start : start + batch_size]]
            if drop_last and len(chunk) < batch_size:
                continue
            yield chunk


def iterate_batches(
    samples: Sequence[RecoverySample],
    batch_size: int,
    shuffle: bool = False,
    seed: int = 0,
    drop_last: bool = False,
) -> Iterator[Batch]:
    """Yield batches, bucketing by (input length, target length)."""
    for indices in iterate_batch_indices(samples, batch_size, shuffle=shuffle,
                                         seed=seed, drop_last=drop_last):
        yield make_batch([samples[i] for i in indices])
