"""Similarity-adaptive search parameter selection (Sec. 7).

Fig. 9 of the paper shows that the ef needed for a target recall varies
strongly with a test query's similarity to the historical workload: queries
near fixed regions need small ef; dissimilar queries need much more.  The
proposed strategy — compute the new query's similarity to the history, then
pick ef accordingly — is the autotuner's per-hardness-bin table with the
history as its landmark set:

1. :meth:`AdaptiveSearcher.calibrate` scores a calibration query set by
   distance to the nearest historical query and fits a
   :class:`~repro.tuning.TunedConfig` through the tuner (quantile bins, the
   cheapest grid ef per bin under the tuner's per-bin recall floor).
2. :meth:`AdaptiveSearcher.search` predicts the incoming query's bin with a
   :class:`~repro.tuning.HardnessPlanner` over that config (one brute-force
   pass over the history) and applies the bin's ef.
"""

from __future__ import annotations

import numpy as np

from repro.distances import pairwise_distances
from repro.evalx.ground_truth import GroundTruth
from repro.graphs.search import SearchResult
from repro.tuning.config import TunedConfig
from repro.tuning.planner import HardnessPlanner
from repro.tuning.tuner import _fit_bins, suggest_ef_grid
from repro.utils.validation import check_matrix, check_positive


class AdaptiveSearcher:
    """Per-query ef selection from similarity to the historical workload."""

    def __init__(self, index, history: np.ndarray, n_bins: int = 3):
        check_positive(n_bins, "n_bins")
        self.index = index
        self.history = check_matrix(history, "history")
        self.n_bins = n_bins
        self.config: TunedConfig | None = None
        self.planner: HardnessPlanner | None = None

    @property
    def dc(self):
        return self.index.dc

    def calibrate(
        self,
        queries: np.ndarray,
        gt: GroundTruth,
        k: int,
        target_recall: float = 0.95,
        ef_grid: list[int] | None = None,
    ) -> dict:
        """Learn per-similarity-bin ef values from a calibration set.

        Bins are quantiles of the distance to the nearest historical query.
        Per bin the tuner keeps the cheapest grid ef whose mean recall meets
        ``target_recall`` (capped at the best the grid reaches there) and
        never falls below the recall the flat ``default_ef`` baseline
        measures in that bin; empty bins inherit the nearest fitted bin.
        ``ef_grid`` defaults to :func:`~repro.tuning.suggest_ef_grid`.
        Returns the tuner's ``bin_table`` (string bin keys) for inspection.
        """
        queries = check_matrix(queries, "queries")
        metric = self.index.dc.metric
        # The calibration queries are not in the landmark set, so their
        # history distance is already out-of-fold: no cross-fit needed.
        hardness = pairwise_distances(queries, self.history,
                                      metric).min(axis=1)
        self.config = _fit_bins(
            self.index, queries, k, self.history, hardness,
            target_recall=target_recall,
            ef_grid=suggest_ef_grid(k) if ef_grid is None else ef_grid,
            n_bins=self.n_bins, batch_size=64, gt_ids=gt.top(k).ids,
            metric=metric, refine_routes=False)
        self.planner = HardnessPlanner(self.config, adapt=False)
        return self.config.meta["bin_table"]

    def ef_for(self, query: np.ndarray) -> int:
        """The calibrated ef for one query."""
        if self.planner is None:
            raise RuntimeError(
                "AdaptiveSearcher has no calibrated bins: call calibrate() "
                "with a calibration query set before ef_for()/search()")
        return self.config.setting(int(self.planner.predict(query)[0])).ef

    def search(self, query: np.ndarray, k: int, ef: int | None = None) -> SearchResult:
        """Search with the per-query calibrated ef (explicit ef overrides)."""
        if ef is None:
            ef = self.ef_for(query)
        return self.index.search(query, k=k, ef=ef)
