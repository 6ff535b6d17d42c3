"""warpmatch: order-preserving 2D alignment and self-reinforcing matching.

The library aligns feature matrices (H x W grids of C-dimensional
elements) with a two-level dynamic-programming warp (`dpw`, which is plain
DTW on one-row matrices), learns an element-to-element adapter between
modalities from its own alignments, and grows cross-modality assignments
with a self-reinforcing outer loop.
"""

from .adapter import (
    AdapterParams,
    TrainConfig,
    adapt_matrix,
    init_adapter,
    load_adapter,
    param_delta,
    save_adapter,
    train_on_pairs,
)
from .dpw import (
    DpwTables,
    HiPa,
    PathNode,
    dpw,
    optimal_hipa,
    path_cost,
    validate_hipa,
)
from .dtw import dtw_path
from .errors import DivergenceError, FormatError, ValidationError, WarpmatchError
from .evaluate import (
    ItemMatches,
    MatchReport,
    knn_baseline,
    match_topk,
    rank_report,
    report_csv_lines,
    report_json,
)
from .matrix import (
    Dataset,
    FeatureMatrix,
    load_dataset,
    load_matrix,
    load_matrix_csv,
    save_dataset,
    save_matrix,
)
from .sloma import MatchedPairSet, SlomaStep, run_sloma
from .swim import SwimConfig, SwimStep, dpw_distance_matrix, run_swim
from .synth import SynthConfig, gen_task
from .toy import toy_pair

__version__ = "0.1.0"

__all__ = [
    "AdapterParams",
    "Dataset",
    "DivergenceError",
    "DpwTables",
    "FeatureMatrix",
    "FormatError",
    "HiPa",
    "ItemMatches",
    "MatchReport",
    "MatchedPairSet",
    "PathNode",
    "SlomaStep",
    "SwimConfig",
    "SwimStep",
    "SynthConfig",
    "TrainConfig",
    "ValidationError",
    "WarpmatchError",
    "adapt_matrix",
    "dpw",
    "dpw_distance_matrix",
    "dtw_path",
    "gen_task",
    "init_adapter",
    "knn_baseline",
    "load_adapter",
    "load_dataset",
    "load_matrix",
    "load_matrix_csv",
    "match_topk",
    "optimal_hipa",
    "param_delta",
    "path_cost",
    "rank_report",
    "report_csv_lines",
    "report_json",
    "run_sloma",
    "run_swim",
    "save_adapter",
    "save_dataset",
    "save_matrix",
    "toy_pair",
    "train_on_pairs",
    "validate_hipa",
]
