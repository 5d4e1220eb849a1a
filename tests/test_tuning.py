import json
import re

import numpy as np
import pytest

from anchored_decoding import TuneSpec, grid_search, kfold_split
from anchored_decoding.tuning import DEFAULT_GRID, FoldResult, TuneReport


def tent_evaluator(peak, grid):
    """Unimodal tent over the grid, independent of the task subset."""

    def evaluator(omega, task_ids):
        return 1.0 - abs(omega - peak)

    return evaluator


def test_kfold_sizes_and_partition():
    folds = kfold_split(list(range(10)), 5, seed=0)
    assert [len(f) for f in folds] == [2] * 5
    assert sorted(t for f in folds for t in f) == list(range(10))


def test_kfold_deterministic():
    a = kfold_split(list(range(20)), 4, seed=9)
    b = kfold_split(list(range(20)), 4, seed=9)
    assert a == b


def test_kfold_uneven_sizes():
    folds = kfold_split(list(range(103)), 5, seed=3)
    sizes = sorted(len(f) for f in folds)
    assert sizes == [20, 20, 21, 21, 21]
    union = [t for f in folds for t in f]
    assert len(union) == len(set(union)) == 103


def test_kfold_too_many_folds():
    with pytest.raises(ValueError):
        kfold_split([1, 2], 3, seed=0)
    # a fold count follows the int rule with a floor of 1
    for folds in (0, -1, True, 1.5, "2"):
        with pytest.raises(ValueError, match="folds must be an int"):
            kfold_split([1, 2], folds, seed=0)


def test_kfold_partition_laws_randomized():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        folds = int(rng.integers(2, n + 1))
        ids = list(range(n))
        split = kfold_split(ids, folds, seed=int(rng.integers(0, 1000)))
        assert len(split) == folds
        assert sorted(t for f in split for t in f) == ids
        sizes = [len(f) for f in split]
        assert max(sizes) - min(sizes) <= 1


def test_constant_evaluator_recommends_one():
    spec = TuneSpec(folds=2, seed=0)
    report = grid_search(lambda omega, ids: 0.5, list(range(10)), spec)
    assert report.recommended == 1.0
    assert report.variance == 0.0
    # a tie moves toward 1.0 from below too
    report = grid_search(lambda omega, ids: 0.5, list(range(10)), TuneSpec(grid=(0.5, 1.0), folds=2))
    assert [f.best_omega for f in report.folds] == [1.0, 1.0]


def test_tent_peak_found_with_and_without_early_exit():
    for early in (True, False):
        spec = TuneSpec(folds=5, seed=0, early_exit=early)
        report = grid_search(tent_evaluator(1.25, spec.grid), list(range(20)), spec)
        assert report.recommended == 1.25


def test_early_exit_matches_exhaustive_on_random_tents():
    rng = np.random.default_rng(7)
    grid = DEFAULT_GRID
    for _ in range(50):
        peak = float(grid[rng.integers(0, len(grid))])
        fast = grid_search(tent_evaluator(peak, grid), list(range(10)), TuneSpec(folds=2, seed=1))
        full = grid_search(
            tent_evaluator(peak, grid), list(range(10)), TuneSpec(folds=2, seed=1, early_exit=False)
        )
        assert fast.recommended == full.recommended == peak


def test_recommended_is_grid_member_and_variance_recomputes():
    rng = np.random.default_rng(3)
    grid = DEFAULT_GRID

    def noisy(omega, task_ids):
        # deterministic per (omega, subset) but irregular
        return (hash((round(omega * 100), tuple(sorted(task_ids)))) % 97) / 97.0

    report = grid_search(noisy, list(range(25)), TuneSpec(folds=5, seed=2, early_exit=False))
    assert report.recommended in grid
    bests = [f.best_omega for f in report.folds]
    assert abs(report.variance - np.var(bests)) < 1e-12


def test_fold_protocol_tunes_on_one_fold():
    # the tune split is the single fold (1/5), the holdout the complement (4/5)
    seen = []

    def spy(omega, task_ids):
        seen.append(tuple(sorted(task_ids)))
        return 1.0

    grid_search(spy, list(range(10)), TuneSpec(grid=(1.0,), folds=5, seed=0))
    tune_sizes = {len(s) for s in seen[::2]}
    holdout_sizes = {len(s) for s in seen[1::2]}
    assert tune_sizes == {2}
    assert holdout_sizes == {8}


def test_inverted_protocol():
    seen = []

    def spy(omega, task_ids):
        seen.append(len(task_ids))
        return 1.0

    grid_search(spy, list(range(10)), TuneSpec(grid=(1.0,), folds=5, seed=0, invert=True))
    assert seen == [8, 2] * 5


def test_report_json_schema():
    report = grid_search(tent_evaluator(1.1, None), list(range(8)), TuneSpec(folds=4, seed=5))
    doc = json.loads(report.to_json())
    assert set(doc) == {"folds", "recommended", "variance", "grid", "seed"}
    assert doc["recommended"] == 1.1
    assert {f["fold"] for f in doc["folds"]} == {0, 1, 2, 3}
    assert all({"fold", "best_omega", "holdout_pass1"} == set(f) for f in doc["folds"])


def test_report_json_bytes():
    # the bytes tune --json and --out write: field order, and grid as a list
    report = TuneReport(
        folds=(FoldResult(0, 1.1, 0.5), FoldResult(1, 1.25, 0.75)),
        recommended=1.1,
        variance=0.005625,
        grid=(1.0, 1.1, 1.25),
        seed=3,
    )
    assert report.to_json() == (
        '{"folds": [{"fold": 0, "best_omega": 1.1, "holdout_pass1": 0.5},'
        ' {"fold": 1, "best_omega": 1.25, "holdout_pass1": 0.75}],'
        ' "recommended": 1.1, "variance": 0.005625, "grid": [1.0, 1.1, 1.25], "seed": 3}'
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        TuneSpec(grid=())
    with pytest.raises(ValueError):
        TuneSpec(grid=(1.2, 1.1))
    with pytest.raises(ValueError):
        TuneSpec(grid=(1.1, 1.2))  # missing 1.0
    for grid in ((1.0, float("nan"), 1.5), (1.0, float("inf"))):  # a nan is neither above nor below its neighbours
        with pytest.raises(ValueError, match="finite"):
            TuneSpec(grid=grid)
    for folds in (1, 2.5, True):  # a count is an int, and a bool is not one
        with pytest.raises(ValueError, match="folds"):
            TuneSpec(folds=folds)
    # a grid value is a finite int or float: True would be taken as 1.0
    cases = ((True, (True, 1.5)), ("1.5", (1.0, "1.5")), (None, (1.0, None)), (np.bool_(True), (np.bool_(True), 2.0)), (10**400, (1.0, 10**400)))
    for bad, grid in cases:
        with pytest.raises(ValueError, match=f"grid values must be finite real numbers, not {re.escape(repr(bad))}"):
            TuneSpec(grid=grid, folds=2)
    assert TuneSpec(grid=(np.float64(1.0), np.float32(1.5), 2), folds=2).grid[2] == 2
    # None would deal other folds on every run, -3 the folds 3 deals, True those of 1
    for seed in (None, -3, True, 1.5, "0"):
        with pytest.raises(ValueError, match="seed must be an int >= 0"):
            TuneSpec(seed=seed)
    # a flag is a bool: "no" is truthy, so it would turn the early exit on
    for field, value in (("early_exit", "no"), ("early_exit", 0), ("early_exit", None), ("invert", 2), ("invert", "yes")):
        with pytest.raises(ValueError, match=f"{field} must be a bool"):
            TuneSpec(**{field: value})


def test_kfold_seed_rule():
    for seed in (None, -3, True, 1.5, "0"):
        with pytest.raises(ValueError, match="seed must be an int >= 0"):
            kfold_split(list(range(6)), 2, seed)
    # a numpy int is an int: it deals what the Python int does, and the report stays JSON
    assert kfold_split(list(range(20)), 4, np.int64(3)) == kfold_split(list(range(20)), 4, 3)
    report = grid_search(lambda omega, ids: 0.5, list(range(4)), TuneSpec(folds=2, seed=np.int64(3)))
    assert json.loads(report.to_json())["seed"] == 3
