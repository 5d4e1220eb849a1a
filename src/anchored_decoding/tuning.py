"""Grid search for the anchoring strength with the k-fold protocol: tune on
one fold, evaluate on the complement, repeat across folds. A unimodal early
exit stops ascending the grid after two consecutive strict decreases."""

from __future__ import annotations

import json
import random
import statistics
from collections import Counter
from dataclasses import asdict, dataclass

from .anchoring import is_int, is_real


DEFAULT_GRID = tuple(round(1.0 + 0.05 * i, 2) for i in range(21))  # 1.00 to 2.00 in 0.05 steps


@dataclass(frozen=True)
class TuneSpec:
    grid: tuple[float, ...] = DEFAULT_GRID
    folds: int = 5
    seed: int = 0
    early_exit: bool = True
    # Paper protocol tunes on 1 fold and evaluates on the other folds;
    # invert=True flips to conventional CV (tune on k-1, hold out 1).
    invert: bool = False

    def __post_init__(self):
        if not self.grid:
            raise ValueError("grid must be non-empty")
        for omega in self.grid:  # a nan compares false, so it would pass the next check; True would be 1.0
            if not is_real(omega):
                raise ValueError(f"grid values must be finite real numbers, not {omega!r}")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly ascending")
        if 1.0 not in self.grid:
            raise ValueError("grid must contain 1.0")
        if not (is_int(self.folds) and self.folds >= 2):
            raise ValueError("folds must be an int >= 2")
        _check_seed(self.seed)
        for name in ("early_exit", "invert"):  # a truthy "no" is no flag
            if type(getattr(self, name)) is not bool:
                raise ValueError(f"{name} must be a bool, not {getattr(self, name)!r}")


@dataclass(frozen=True)
class FoldResult:
    fold: int
    best_omega: float
    holdout_pass1: float


@dataclass(frozen=True)
class TuneReport:
    folds: tuple[FoldResult, ...]
    recommended: float
    variance: float
    grid: tuple[float, ...]
    seed: int

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _check_seed(seed) -> None:
    # the int rule with a floor of 0: None would seed from the OS, and -3 deal what 3 does
    if not (is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be an int >= 0, not {seed!r}")


def kfold_split(task_ids, folds: int, seed: int) -> list[list]:
    """Deterministic shuffle-then-deal split: disjoint folds covering all ids,
    sizes differing by at most 1."""
    ids = list(task_ids)
    if not (is_int(folds) and 1 <= folds <= len(ids)):
        raise ValueError(f"folds must be an int in 1..{len(ids)} (the task count), not {folds!r}")
    _check_seed(seed)
    random.Random(int(seed)).shuffle(ids)
    out: list[list] = [[] for _ in range(folds)]
    for i, tid in enumerate(ids):
        out[i % folds].append(tid)
    return out


def _best(table) -> float:
    """The omega with the highest value in ``table``, ties to the omega
    closest to 1.0, then the smaller one: a fold's {omega: Pass@1} and the
    vote across folds both break ties this way."""
    return max(table, key=lambda omega: (table[omega], -abs(omega - 1.0), -omega))


def _best_on_grid(evaluator, task_ids, spec: TuneSpec) -> float:
    scores = []
    for omega in spec.grid:
        scores.append(evaluator(omega, task_ids))
        if spec.early_exit and len(scores) >= 3 and scores[-3] > scores[-2] > scores[-1]:
            break
    return _best(dict(zip(spec.grid, scores)))


def grid_search(evaluator, task_ids, spec: TuneSpec) -> TuneReport:
    """Per fold, pick the grid value maximizing Pass@1 on the tune split and
    score it on the complement; recommend the majority best across folds
    (ties to the value closest to 1.0, then smaller).

    evaluator(omega, task_ids) must return Pass@1 on that task subset and be
    deterministic for fixed omega.
    """
    folds = kfold_split(task_ids, spec.folds, spec.seed)
    results = []
    for i, fold in enumerate(folds):
        complement = [t for f in folds for t in f if f is not fold]
        tune_set, eval_set = (complement, fold) if spec.invert else (fold, complement)
        best = _best_on_grid(evaluator, tune_set, spec)
        results.append(FoldResult(i, best, evaluator(best, eval_set)))
    bests = [r.best_omega for r in results]
    return TuneReport(
        folds=tuple(results),
        recommended=_best(Counter(bests)),
        variance=statistics.pvariance(bests),
        grid=spec.grid,
        seed=int(spec.seed),
    )
