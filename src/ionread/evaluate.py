"""Detection-fidelity accounting over multi-ion basis states.

The average detection fidelity of a register is the unweighted mean over
prepared basis states of the probability of reading back exactly the
prepared state.  Per-state uncertainties are binomial standard errors and
combine into the average as independent errors.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple, Sequence

import numpy as np


class EvaluationError(ValueError):
    pass


def labels_to_bits(labels: Sequence[str]) -> np.ndarray:
    """Validated (shots, ions) bit matrix from labels of one 0/1 per ion.

    ``labels`` is a list of strings or a numpy ``U`` array; ion 0 is the
    leftmost character and column 0.  Only this module knows the encoding.
    """
    text = np.ascontiguousarray(labels)
    if text.ndim != 1 or text.size == 0:
        raise EvaluationError(f"labels must be a non-empty list, got shape {text.shape}")
    if text.dtype.kind != "U":
        raise EvaluationError(f"labels must be strings of 0 and 1, got {text.dtype}")
    width = text.dtype.itemsize // 4
    # one code point per character; a shorter label is padded with code 0
    bits = text.view(np.uint32).reshape(text.size, width) - np.uint32(ord("0"))
    bad = (bits > 1).any(axis=1)
    if bad.any():
        label = str(text[np.argmax(bad)])
        raise EvaluationError(f"bad label {label!r} among {width}-ion labels")
    return bits.astype(np.int8)


def bits_to_states(bits: np.ndarray) -> np.ndarray:
    """State index per row of a bit matrix; column 0 is the most significant bit."""
    return bits @ (1 << np.arange(bits.shape[1] - 1, -1, -1, dtype=np.int64))


def labels_to_states(labels: Sequence[str]) -> tuple[np.ndarray, int]:
    """Validated labels as (int64 state indices, number of ions)."""
    bits = labels_to_bits(labels)
    return bits_to_states(bits), bits.shape[1]


@cache
def state_labels(num_ions: int) -> np.ndarray:
    """Every register label as a read-only numpy ``U`` array, indexed by state."""
    labels = np.array([format(i, f"0{num_ions}b") for i in range(2**num_ions)])
    labels.flags.writeable = False
    return labels


def bits_to_labels(bits: np.ndarray) -> list[str]:
    return state_labels(bits.shape[1])[bits_to_states(bits)].tolist()


def confusion(predicted: Sequence[str], prepared: Sequence[str]) -> np.ndarray:
    """int64 counts, shape (2**N, 2**N): [i, j] is the shots prepared in
    state i and measured as state j."""
    if len(predicted) != len(prepared):
        raise EvaluationError(
            f"{len(predicted)} predictions for {len(prepared)} prepared labels"
        )
    if len(prepared) == 0:
        raise EvaluationError("empty evaluation set")
    # one parse of both sides also rejects predictions of another width
    states, num_ions = labels_to_states(np.concatenate([prepared, predicted]))
    prep, pred = np.split(states, 2)
    size = 2**num_ions
    return np.bincount(prep * size + pred, minlength=size * size).reshape(size, size)


@dataclass
class FidelityReport:
    strategy: str
    per_state: np.ndarray
    per_state_stderr: np.ndarray
    shots_per_state: np.ndarray
    average: float
    average_stderr: float


def fidelity(counts: np.ndarray, strategy: str = "") -> FidelityReport:
    """Per-state and average detection fidelity, with binomial uncertainties,
    of a :func:`confusion` count matrix."""
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise EvaluationError(f"confusion matrix must be square, got {counts.shape}")
    shots = counts.sum(axis=1)
    if np.any(shots == 0):
        missing = [int(i) for i in np.flatnonzero(shots == 0)]
        raise EvaluationError(f"prepared states with no shots: {missing}")
    per_state = np.diag(counts) / shots
    stderr = np.sqrt(per_state * (1.0 - per_state) / shots)
    n_states = counts.shape[0]
    average = float(per_state.mean())
    average_stderr = float(np.sqrt(np.sum(stderr**2)) / n_states)
    return FidelityReport(
        strategy=strategy,
        per_state=per_state,
        per_state_stderr=stderr,
        shots_per_state=shots.astype(np.int64),
        average=average,
        average_stderr=average_stderr,
    )


class ImprovementResult(NamedTuple):
    value: float
    stderr: float


def improvement(
    baseline: FidelityReport | float, candidate: FidelityReport | float
) -> ImprovementResult:
    """Relative reduction of the average detection error.

    Accepts fidelity reports (uncertainty propagated) or bare averages
    (uncertainty zero).  Undefined when the baseline error is zero.
    """

    def unpack(x) -> tuple[float, float]:
        if isinstance(x, FidelityReport):
            return x.average, x.average_stderr
        return float(x), 0.0

    fid_base, se_base = unpack(baseline)
    fid_cand, se_cand = unpack(candidate)
    err_base = 1.0 - fid_base
    err_cand = 1.0 - fid_cand
    if err_base <= 0.0:
        raise EvaluationError("improvement undefined: baseline error is zero")
    value = (err_base - err_cand) / err_base
    variance = (se_cand / err_base) ** 2 + (err_cand * se_base / err_base**2) ** 2
    return ImprovementResult(value, math.sqrt(variance))


def train_count(n: int, fraction: float) -> int:
    """How many of a label's ``n`` shots :func:`split` puts on the train side.

    That is ``round(fraction * n)``; unless it leaves at least one shot on
    each side, ``EvaluationError``.
    """
    n_train = int(round(fraction * n))
    if not 0 < n_train < n:
        raise EvaluationError(f"{n} shots cannot be split at {fraction}")
    return n_train


def split(
    labels: Sequence[str], fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic stratified split into (train, test) index arrays.

    Each distinct label, in sorted order, is permuted independently and cut
    at ``round(fraction * n)``.  The two sides are disjoint, exhaustive, and
    both non-empty for every label.
    """
    if not 0.0 < fraction < 1.0:
        raise EvaluationError(f"fraction must be inside (0, 1), got {fraction}")
    states, num_ions = labels_to_states(labels)
    rng = np.random.default_rng(np.random.SeedSequence((seed, states.size)))
    # a stable sort keeps each label's shots in their original order
    order = np.argsort(states, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(states[order])) + 1)
    train, test = [], []
    for indices in groups:
        shuffled = indices[rng.permutation(indices.size)]
        try:
            n_train = train_count(indices.size, fraction)
        except EvaluationError as exc:
            label = str(state_labels(num_ions)[states[indices[0]]])
            raise EvaluationError(f"label {label!r}: {exc}") from None
        train.append(shuffled[:n_train])
        test.append(shuffled[n_train:])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(test))


def write_fidelity_csv(reports: Sequence[FidelityReport], path: str) -> None:
    """One row per (strategy, prepared state) plus an average row each."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "state", "fidelity", "stderr", "shots"])
        for report in reports:
            labels = state_labels(int(np.log2(len(report.per_state)))).tolist()
            for label, fid, se, n in zip(
                labels, report.per_state, report.per_state_stderr, report.shots_per_state
            ):
                writer.writerow([report.strategy, label, f"{fid:.6f}", f"{se:.6f}", int(n)])
            writer.writerow(
                [report.strategy, "average", f"{report.average:.6f}",
                 f"{report.average_stderr:.6f}", int(report.shots_per_state.sum())]
            )


def report_to_dict(report: FidelityReport) -> dict:
    labels = state_labels(int(np.log2(len(report.per_state)))).tolist()
    return {
        "strategy": report.strategy,
        "average": report.average,
        "average_stderr": report.average_stderr,
        "per_state": {
            label: {"fidelity": float(f), "stderr": float(s), "shots": int(n)}
            for label, f, s, n in zip(
                labels, report.per_state, report.per_state_stderr, report.shots_per_state
            )
        },
    }
