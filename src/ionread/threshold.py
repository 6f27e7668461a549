"""Count-threshold discriminators, fixed and neighbour-adaptive.

The fixed discriminator reads each ion independently: a total count strictly
above the ion's threshold means bright.  The adaptive variant refines this
with one threshold per neighbour-state context, applied iteratively until
the register's bit assignment reaches a fixed point.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

from .evaluate import bits_to_labels, bits_to_states, labels_to_bits, state_labels

# Shots a neighbour context needs before it gets a threshold of its own.
MIN_CONTEXT_SAMPLES = 100
# Synchronous update rounds the adaptive classifier runs at most.
MAX_ITERATIONS = 10


class ThresholdError(ValueError):
    pass


def neighbour_indices(num_ions: int, ion: int) -> tuple[int, ...]:
    """Adjacent ions in the chain, in index order."""
    return tuple(j for j in (ion - 1, ion + 1) if 0 <= j < num_ions)


def _as_count_matrix(counts, num_ions: int | None = None) -> np.ndarray:
    """``counts`` as an int64 (shots, ions) matrix; ``num_ions`` columns if given."""
    counts = np.asarray(counts)
    if counts.ndim != 2:
        raise ThresholdError(f"counts must be 2-d (shots, ions), got {counts.shape}")
    if counts.dtype.kind not in "iu":
        raise ThresholdError(f"counts must have an integer dtype, got {counts.dtype}")
    if np.any(counts < 0):
        raise ThresholdError("counts must be >= 0")
    if num_ions is not None and counts.shape[1] != num_ions:
        raise ThresholdError(f"expected {num_ions} ion columns, got {counts.shape[1]}")
    return counts.astype(np.int64, copy=False)


def _best_threshold(counts: np.ndarray, bits: np.ndarray) -> int:
    """Integer threshold minimising training misclassifications.

    Scans 0..max(count); ties go to the smaller threshold.
    """
    bright = counts[bits == 1]
    dark = counts[bits == 0]
    if bright.size == 0 or dark.size == 0:
        raise ThresholdError("channel saw only one class; cannot fit a threshold")
    top = int(counts.max())
    # bright errors: count <= theta; dark errors: count > theta
    bright_cdf = np.cumsum(np.bincount(bright, minlength=top + 1))
    dark_cdf = np.cumsum(np.bincount(dark, minlength=top + 1))
    total = bright_cdf + (dark.size - dark_cdf)
    return int(np.argmin(total))


@dataclass(frozen=True)
class FixedThresholdModel:
    thresholds: tuple[int, ...]

    FORMAT = "ionread.threshold_fixed"

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", _thresholds(self.thresholds, "thresholds"))

    @property
    def num_ions(self) -> int:
        return len(self.thresholds)

    def to_dict(self) -> dict:
        return {"thresholds": list(self.thresholds)}

    @classmethod
    def from_dict(cls, data: dict) -> "FixedThresholdModel":
        return cls(data["thresholds"])


def _thresholds(values, name: str) -> tuple[int, ...]:
    """A non-empty list or tuple of integers >= 0, as a tuple of Python ints."""
    if (
        not isinstance(values, (list, tuple))
        or not values
        or not all(isinstance(v, Integral) and not isinstance(v, bool) for v in values)
    ):
        raise ThresholdError(f"{name} must be a non-empty list of integers: {values!r}")
    # a count is never negative, so a negative threshold reads every shot bright
    if min(values) < 0:
        raise ThresholdError(f"{name} must be >= 0: {values!r}")
    return tuple(int(v) for v in values)


def fit_fixed(counts, labels: Sequence[str]) -> FixedThresholdModel:
    """Fit one integer threshold per ion from labelled per-ion totals."""
    mat = _as_count_matrix(counts)
    bits = labels_to_bits(labels)
    if bits.shape != mat.shape:
        raise ThresholdError(
            f"counts shape {mat.shape} does not match labels shape {bits.shape}"
        )
    thresholds = tuple(
        _best_threshold(mat[:, i], bits[:, i]) for i in range(mat.shape[1])
    )
    return FixedThresholdModel(thresholds)


def classify_fixed(model: FixedThresholdModel, counts) -> list[str]:
    """Bit i is 1 exactly when the ion's count strictly exceeds its threshold."""
    mat = _as_count_matrix(counts, model.num_ions)
    bits = mat > np.asarray(model.thresholds)
    return bits_to_labels(bits)


def _context_keys(num_ions: int, ion: int) -> list[str]:
    """Neighbour bit patterns, left neighbour first, by context code; "0" if none."""
    return state_labels(len(neighbour_indices(num_ions, ion))).tolist()


@dataclass(frozen=True)
class AdaptiveThresholdModel:
    """Per-ion thresholds conditioned on the neighbouring ions' bits.

    ``context_thresholds[i]`` maps a neighbour bit pattern (as a string,
    left neighbour first) to the threshold used for ion ``i`` in that
    context.  Contexts that were too rare to fit inherit the fixed
    threshold and are listed in ``starved_contexts``.
    """

    fixed: FixedThresholdModel
    context_thresholds: tuple[dict, ...]
    starved_contexts: tuple[tuple[int, str], ...] = ()

    FORMAT = "ionread.threshold_adaptive"

    def __post_init__(self) -> None:
        num_ions = self.num_ions
        tables = self.context_thresholds
        if not isinstance(tables, (list, tuple)) or len(tables) != num_ions:
            raise ThresholdError(f"context_thresholds must hold {num_ions} tables")
        contexts = []
        for i, table in enumerate(tables):
            keys = _context_keys(num_ions, i)
            if not isinstance(table, dict) or sorted(table) != keys:
                raise ThresholdError(f"context_thresholds[{i}] must have keys {keys}")
            values = _thresholds(list(table.values()), f"context_thresholds[{i}]")
            contexts.append(dict(zip(table, values)))
        starved = self.starved_contexts
        pairs = [(i, key) for i in range(num_ions) for key in _context_keys(num_ions, i)]
        if not isinstance(starved, (list, tuple)) or any(
            not isinstance(s, (list, tuple)) or tuple(s) not in pairs for s in starved
        ):
            raise ThresholdError("starved_contexts must list (ion, context) pairs")
        object.__setattr__(self, "context_thresholds", tuple(contexts))
        object.__setattr__(self, "starved_contexts", tuple((int(i), str(c)) for i, c in starved))

    @property
    def num_ions(self) -> int:
        return self.fixed.num_ions

    def to_dict(self) -> dict:
        return {
            "fixed_thresholds": list(self.fixed.thresholds),
            "context_thresholds": [dict(c) for c in self.context_thresholds],
            "starved_contexts": [list(s) for s in self.starved_contexts],
            "max_iterations": MAX_ITERATIONS,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AdaptiveThresholdModel":
        model = cls(
            FixedThresholdModel(data["fixed_thresholds"]),
            data["context_thresholds"],
            data["starved_contexts"],
        )
        # the one cap that classify_adaptive runs
        cap = data["max_iterations"]
        if type(cap) is not int or cap != MAX_ITERATIONS:
            raise ThresholdError(f"max_iterations must be {MAX_ITERATIONS}, got {cap!r}")
        return model


def fit_adaptive(counts, labels: Sequence[str]) -> AdaptiveThresholdModel:
    """Fit neighbour-conditioned thresholds from labelled per-ion totals.

    Conditioning uses the true neighbour bits of the training labels.  A
    context with fewer than ``MIN_CONTEXT_SAMPLES`` shots, or missing one of
    the two classes, inherits the unconditioned threshold.
    """
    mat = _as_count_matrix(counts)
    bits = labels_to_bits(labels)
    fixed = fit_fixed(mat, labels)
    num_ions = mat.shape[1]
    tables: list[dict] = []
    starved: list[tuple[int, str]] = []
    for i in range(num_ions):
        codes = bits_to_states(bits[:, neighbour_indices(num_ions, i)])
        table: dict[str, int] = {}
        for code, key in enumerate(_context_keys(num_ions, i)):
            mask = codes == code
            column = mat[mask, i]
            column_bits = bits[mask, i]
            if mask.sum() < MIN_CONTEXT_SAMPLES or column_bits.min() == column_bits.max():
                table[key] = fixed.thresholds[i]
                starved.append((i, key))
            else:
                table[key] = _best_threshold(column, column_bits)
        tables.append(table)
    return AdaptiveThresholdModel(
        fixed=fixed,
        context_thresholds=tuple(tables),
        starved_contexts=tuple(starved),
    )


def classify_adaptive(
    model: AdaptiveThresholdModel, counts
) -> tuple[list[str], np.ndarray]:
    """Iterate neighbour-conditioned thresholding to a fixed point.

    Starts from the unconditioned assignment and updates all ions
    synchronously.  Returns the final labels plus a per-shot flag that is
    false when the assignment was still changing at the iteration cap.
    """
    num_ions = model.num_ions
    mat = _as_count_matrix(counts, num_ions)
    # context-indexed threshold lookup tables, one per ion
    lookup = []
    for i in range(num_ions):
        keys = _context_keys(num_ions, i)
        table = np.array([model.context_thresholds[i][k] for k in keys], dtype=np.int64)
        lookup.append((neighbour_indices(num_ions, i), table))
    bits = (mat > np.asarray(model.fixed.thresholds)).astype(np.int8)
    converged = np.zeros(mat.shape[0], dtype=bool)
    for _ in range(MAX_ITERATIONS):
        new_bits = np.empty_like(bits)
        for i in range(num_ions):
            neighbours, table = lookup[i]
            thresholds = table[bits_to_states(bits[:, neighbours])]
            new_bits[:, i] = mat[:, i] > thresholds
        stable = np.all(new_bits == bits, axis=1)
        converged |= stable
        if stable.all():
            bits = new_bits
            break
        bits = new_bits
    return bits_to_labels(bits), converged

