"""Settings of the library API pass one rule per kind, and each failure is a
ValidationError that names the setting.

- Integers (``matrix._as_index``): integers, numpy's too, are kept as ``int``
  and checked against their minimum; anything else is rejected.
- Reals (``matrix._as_real``): ints and numpy reals are kept as ``float`` and
  checked against their interval; strings, None, arrays and non-finite values
  are rejected.
- Numeric arrays, pairs and typed objects at the public entry points.
"""

import dataclasses
import math
import re
from typing import get_type_hints

import numpy as np
import pytest

from warpmatch import (
    AdapterParams,
    Dataset,
    FeatureMatrix,
    MatchedPairSet,
    SwimConfig,
    SynthConfig,
    TrainConfig,
    ValidationError,
    adapt_matrix,
    dpw,
    dpw_distance_matrix,
    dtw_path,
    gen_task,
    init_adapter,
    knn_baseline,
    match_topk,
    optimal_hipa,
    param_delta,
    rank_report,
    report_csv_lines,
    report_json,
    run_sloma,
    run_swim,
    save_adapter,
    save_dataset,
    train_on_pairs,
    validate_hipa,
)

INT_FIELDS = [(cls, f.name) for cls in (SwimConfig, TrainConfig, SynthConfig, AdapterParams)
              for f in dataclasses.fields(cls) if get_type_hints(cls)[f.name] is int]
FIELD_IDS = [f"{cls.__name__}.{name}" for cls, name in INT_FIELDS]
NOT_INTEGERS = [1.5, 2.0, "2", None, np.array([2]), np.float64(3.0)]


def build(cls, **kwargs):
    if cls is AdapterParams:
        kwargs["layers"] = init_adapter(2, 3).layers
    return cls(**kwargs)


def test_every_integer_field_is_listed():
    assert len(INT_FIELDS) == 15


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("cls, name", INT_FIELDS, ids=FIELD_IDS)
def test_non_integer_field_rejected(cls, name, value):
    with pytest.raises(ValidationError, match=f"^{name} must be an integer, got"):
        build(cls, **{name: value})


@pytest.mark.parametrize("cls, name", INT_FIELDS, ids=FIELD_IDS)
def test_numpy_integer_field_stored_as_int(cls, name):
    value = getattr(build(cls), name) + 2
    for np_int in (np.int64, np.int32, np.uint8):
        got = getattr(build(cls, **{name: np_int(value)}), name)
        assert type(got) is int and got == value


def small_sets():
    rng = np.random.default_rng(0)
    mats = [FeatureMatrix(rng.uniform(0, 1, (2, 3, 2))) for _ in range(2)]
    return mats, Dataset("seen", tuple(enumerate(mats)))


def call_with(name, value):
    """Call the library function that takes integer argument ``name`` with ``value``."""
    mats, ds = small_sets()
    params = init_adapter(2, 3, pass_through=True)
    calls = {
        "channels": lambda: init_adapter(value, 3),
        "hidden": lambda: init_adapter(2, value),
        "seed": lambda: init_adapter(2, 3, seed=value),
        "max_iters": lambda: run_sloma(mats, mats, MatchedPairSet(((0, 0),)), params,
                                       eps=1e-3, cfg=TrainConfig(epochs=1), max_iters=value),
        "rank_report.k": lambda: rank_report(np.ones((2, 2)), ds, ds, k=value),
        "match_topk.k": lambda: match_topk(ds, ds, params, k=value),
        "knn_baseline.k": lambda: knn_baseline(ds, ds, params, k=value),
        "workers": lambda: dpw_distance_matrix(mats, mats, workers=value),
        "run_swim.workers": lambda: run_swim(mats, mats, SwimConfig(max_sloma_iters=0),
                                             workers=value),
    }
    return calls[name]()


ARGUMENTS = ["channels", "hidden", "seed", "max_iters", "rank_report.k", "match_topk.k",
             "knn_baseline.k", "workers", "run_swim.workers"]


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("name", ARGUMENTS)
def test_non_integer_argument_rejected(name, value):
    setting = name.rpartition(".")[2]
    with pytest.raises(ValidationError, match=f"^{setting} must be an integer, got"):
        call_with(name, value)


@pytest.mark.parametrize("name", ARGUMENTS)
def test_numpy_integer_argument_accepted(name):
    assert repr(call_with(name, np.int64(2))) == repr(call_with(name, 2))


def test_numpy_integer_arguments_stored_as_int():
    params = init_adapter(np.int64(2), np.int32(3), seed=np.uint8(4))
    assert type(params.seed) is int and params.layer_sizes == (2, 3, 2)


# ---------------------------------------------------------------------------
# Integer minimums

INT_MINIMUMS = {"SwimConfig.alpha": 1, "SwimConfig.hidden": 1, "SwimConfig.max_sloma_iters": 0,
                "SwimConfig.seed": 0, "TrainConfig.epochs": 1, "TrainConfig.batch_size": 0,
                "SynthConfig.n_classes": 2, "SynthConfig.height": 1, "SynthConfig.width": 1,
                "SynthConfig.channels": 1, "SynthConfig.n_components": 0, "SynthConfig.seed": 0,
                "AdapterParams.seed": 0, "AdapterParams.train_calls": 0,
                "AdapterParams.opt_steps": 0}


@pytest.mark.parametrize("cls, name", INT_FIELDS, ids=FIELD_IDS)
def test_integer_field_minimum(cls, name):
    low = INT_MINIMUMS[f"{cls.__name__}.{name}"]
    assert getattr(build(cls, **{name: low}), name) == low
    with pytest.raises(ValidationError, match=f"^{name} must be >= {low}, got {low - 1}$"):
        build(cls, **{name: low - 1})


# ``workers`` is left out: test_swim and test_cli pin its message already.
ARGUMENT_MINIMUMS = {"channels": 1, "hidden": 1, "seed": 0, "max_iters": 0, "rank_report.k": 1,
                     "match_topk.k": 1, "knn_baseline.k": 1}


@pytest.mark.parametrize("name", ARGUMENT_MINIMUMS)
def test_integer_argument_minimum(name):
    low = ARGUMENT_MINIMUMS[name]
    setting = name.rpartition(".")[2]
    call_with(name, low)
    with pytest.raises(ValidationError, match=f"^{setting} must be >= {low}, got {low - 1}$"):
        call_with(name, low - 1)


# ---------------------------------------------------------------------------
# Real intervals

REAL_FIELDS = [(cls, f.name) for cls in (SwimConfig, TrainConfig, SynthConfig)
               for f in dataclasses.fields(cls) if get_type_hints(cls)[f.name] is float]
REAL_IDS = [f"{cls.__name__}.{name}" for cls, name in REAL_FIELDS]
INTERVALS = {"SwimConfig.eps": "(0, inf)", "TrainConfig.learning_rate": "(0, inf)",
             "TrainConfig.dropout_p": "[0, 1)", "TrainConfig.lr_decay": "[0, inf)",
             "SynthConfig.warp": "[0, 1]", "SynthConfig.map_gain": "(-inf, inf)",
             "SynthConfig.noise_std": "[0, inf)", "SynthConfig.component_mix": "[0, 1]"}
NOT_REALS = ["0.5", b"0.5", None, np.array(0.5), np.array([0.5]), [0.5], 0.5j]
NON_FINITE = [math.nan, math.inf, -math.inf]


def message(name, interval, value, wrong_type=False):
    """The full real-rule error, as a regex."""
    kind = "a real number " if wrong_type else ""
    return f"^{re.escape(f'{name} must be {kind}in {interval}, got {value!r}')}$"


@pytest.mark.parametrize("value", NOT_REALS, ids=repr)
@pytest.mark.parametrize("cls, name", REAL_FIELDS, ids=REAL_IDS)
def test_non_real_field_rejected(cls, name, value):
    interval = INTERVALS[f"{cls.__name__}.{name}"]
    with pytest.raises(ValidationError, match=message(name, interval, value, wrong_type=True)):
        cls(**{name: value})


@pytest.mark.parametrize("value", NON_FINITE + [10 ** 400], ids=["nan", "inf", "-inf", "huge"])
@pytest.mark.parametrize("cls, name", REAL_FIELDS, ids=REAL_IDS)
def test_non_finite_field_rejected(cls, name, value):
    interval = INTERVALS[f"{cls.__name__}.{name}"]
    with pytest.raises(ValidationError, match=message(name, interval, value)):
        cls(**{name: value})


# (field, edge, accepted): an edge is accepted only where its bracket is closed.
EDGES = [("SwimConfig.eps", 0, False), ("TrainConfig.learning_rate", 0, False),
         ("TrainConfig.dropout_p", 0, True), ("TrainConfig.dropout_p", 1, False),
         ("TrainConfig.lr_decay", 0, True), ("SynthConfig.warp", 0, True),
         ("SynthConfig.warp", 1, True), ("SynthConfig.noise_std", 0, True),
         ("SynthConfig.component_mix", 0, True), ("SynthConfig.component_mix", 1, True)]
CLASSES = {cls.__name__: cls for cls in (SwimConfig, TrainConfig, SynthConfig)}


@pytest.mark.parametrize("field, edge, accepted", EDGES,
                         ids=[f"{f}={e}" for f, e, _ in EDGES])
def test_interval_edges(field, edge, accepted):
    cls_name, _, name = field.partition(".")
    cls = CLASSES[cls_name]
    outside = math.nextafter(edge, -math.inf if edge == 0 else math.inf)
    for value in ((outside,) if accepted else (edge, outside)):
        with pytest.raises(ValidationError, match=message(name, INTERVALS[field], value)):
            cls(**{name: value})
    if accepted:
        got = getattr(cls(**{name: edge}), name)
        assert type(got) is float and got == edge


@pytest.mark.parametrize("cls, name", REAL_FIELDS, ids=REAL_IDS)
def test_numpy_real_field_stored_as_float(cls, name):
    for value in (np.float64(0.25), np.float32(0.25), np.int64(0)):
        if cls is SwimConfig or name == "learning_rate":
            value = value + 1  # eps and learning_rate must be positive
        got = getattr(cls(**{name: value}), name)
        assert type(got) is float and got == float(value)


def sloma_with_eps(eps):
    mats, _ = small_sets()
    return run_sloma(mats, mats, MatchedPairSet(((0, 0),)), init_adapter(2, 3, pass_through=True),
                     eps=eps, cfg=TrainConfig(epochs=1), max_iters=1)


@pytest.mark.parametrize("value", NOT_REALS, ids=repr)
def test_run_sloma_non_real_eps_rejected(value):
    with pytest.raises(ValidationError, match=message("eps", "(0, inf)", value, wrong_type=True)):
        sloma_with_eps(value)


@pytest.mark.parametrize("value", NON_FINITE + [0, -1.0], ids=repr)
def test_run_sloma_eps_outside_interval_rejected(value):
    with pytest.raises(ValidationError, match=message("eps", "(0, inf)", value)):
        sloma_with_eps(value)


# ---------------------------------------------------------------------------
# Numeric arrays

ARRAY_SITES = {
    "FeatureMatrix": (FeatureMatrix, "feature matrix"),
    "dpw": (lambda value: dpw(value, np.ones((2, 2))), "feature matrix"),
    "dtw_path": (dtw_path, "table"),
    "AdapterParams": (lambda value: AdapterParams(((value, np.zeros(2)),)), "adapter weights"),
}


@pytest.mark.parametrize("value, dtype", [(np.ones((2, 2)) * 1j, "complex128"),
                                          ([["a", "b"], ["c", "d"]], "<U1")],
                         ids=["complex", "strings"])
@pytest.mark.parametrize("site", ARRAY_SITES)
def test_non_numeric_array_rejected(site, value, dtype):
    call, what = ARRAY_SITES[site]
    with pytest.raises(ValidationError, match=f"^{what} must be numeric, got dtype {dtype}$"):
        call(value)


@pytest.mark.parametrize("site", ARRAY_SITES)
def test_ragged_array_rejected(site):
    call, what = ARRAY_SITES[site]
    with pytest.raises(ValidationError, match=f"^{what} must be a numeric array$"):
        call([[1.0, 2.0], [3.0]])


# ---------------------------------------------------------------------------
# Objects at the public entry points

def wrong_object_calls(tmp_path):
    mats, ds = small_sets()
    params = init_adapter(2, 3)
    xy = (np.ones((2, 2)), np.ones((2, 2)))
    hipa = optimal_hipa(*mats)

    def sloma(pairs, seen=mats, params0=params, cfg=TrainConfig(), max_iters=1):
        return run_sloma(seen, mats, pairs, params0, eps=1e-3, cfg=cfg, max_iters=max_iters)

    def swim(class_ids):
        return run_swim(mats, mats, SwimConfig(max_sloma_iters=0), class_ids=class_ids)

    return {
        "SwimConfig.train": lambda: SwimConfig(train=5),
        "train_on_pairs.cfg": lambda: train_on_pairs(params, xy, None),
        "train_on_pairs.params": lambda: train_on_pairs(None, xy, TrainConfig()),
        "optimal_hipa.tables": lambda: optimal_hipa(*mats, tables="x"),
        "run_swim.class_ids=5": lambda: swim(5),
        "run_swim.class_ids=(1, 2)": lambda: swim((1, 2)),
        "Dataset.entries": lambda: Dataset("x", (5,)),
        "AdapterParams.layers": lambda: AdapterParams(5),
        "run_sloma.pairs=5": lambda: sloma(5),
        "run_sloma.pairs=((0,),)": lambda: sloma(((0,),)),
        "validate_hipa.shapes": lambda: validate_hipa(hipa, 3, 3),
        "run_sloma.params0": lambda: sloma(((0, 0),), params0=None),
        "adapt_matrix.params": lambda: adapt_matrix(None, mats[0]),
        "param_delta.a": lambda: param_delta(None, params),
        "param_delta.b": lambda: param_delta(params, None),
        "save_adapter.params": lambda: save_adapter(None, tmp_path / "a.lfa"),
        "match_topk.params": lambda: match_topk(ds, ds, None),
        "knn_baseline.params": lambda: knn_baseline(ds, ds, None),
        "rank_report.seen": lambda: rank_report(np.ones((2, 2)), 5, 5),
        "match_topk.seen": lambda: match_topk(5, 5, params),
        "dpw_distance_matrix.seen": lambda: dpw_distance_matrix(5, mats),
        "run_sloma.seen": lambda: sloma(((0, 0),), seen=5),
        "run_swim.seen": lambda: run_swim(5, mats, SwimConfig(max_sloma_iters=0)),
        "run_swim.cfg": lambda: run_swim(mats, mats, None),
        "run_sloma.cfg": lambda: sloma(((0, 0),), cfg=None, max_iters=0),
        "gen_task.cfg": lambda: gen_task(None),
        "save_dataset.dataset": lambda: save_dataset(None, tmp_path / "out"),
        "report_json.report": lambda: report_json(None),
        "report_csv_lines.report": lambda: report_csv_lines(None),
    }


WRONG_OBJECTS = {
    "SwimConfig.train": "train must be of type TrainConfig, got int",
    "train_on_pairs.cfg": "cfg must be of type TrainConfig, got NoneType",
    "train_on_pairs.params": "params must be of type AdapterParams, got NoneType",
    "optimal_hipa.tables": "tables must be of type DpwTables, got str",
    "run_swim.class_ids=5": "class_ids must be the same 2 unique ids on both sides",
    "run_swim.class_ids=(1, 2)": "class_ids must be the same 2 unique ids on both sides",
    "Dataset.entries": "dataset entries must be (class_id, FeatureMatrix) pairs",
    "AdapterParams.layers": "layers must be a sequence of (weight, bias) pairs",
    "run_sloma.pairs=5": "pairs must be a sequence of (seen, emerging) index pairs",
    "run_sloma.pairs=((0,),)": "pairs must be a sequence of (seen, emerging) index pairs",
    "validate_hipa.shapes": "shape_s and shape_e must be (rows, columns) pairs",
    "run_sloma.params0": "params0 must be of type AdapterParams, got NoneType",
    "adapt_matrix.params": "params must be of type AdapterParams, got NoneType",
    "param_delta.a": "a must be of type AdapterParams, got NoneType",
    "param_delta.b": "b must be of type AdapterParams, got NoneType",
    "save_adapter.params": "params must be of type AdapterParams, got NoneType",
    "match_topk.params": "params must be of type AdapterParams, got NoneType",
    "knn_baseline.params": "params must be of type AdapterParams, got NoneType",
    "rank_report.seen": "seen must be of type Dataset, got int",
    "match_topk.seen": "seen must be of type Dataset, got int",
    "dpw_distance_matrix.seen": "seen must be a sequence of feature matrices, got int",
    "run_sloma.seen": "seen must be a sequence of feature matrices, got int",
    "run_swim.seen": "seen must be a sequence of feature matrices, got int",
    "run_swim.cfg": "cfg must be of type SwimConfig, got NoneType",
    "run_sloma.cfg": "cfg must be of type TrainConfig, got NoneType",
    "gen_task.cfg": "cfg must be of type SynthConfig, got NoneType",
    "save_dataset.dataset": "dataset must be of type Dataset, got NoneType",
    "report_json.report": "report must be of type MatchReport, got NoneType",
    "report_csv_lines.report": "report must be of type MatchReport, got NoneType",
}


@pytest.mark.parametrize("case", WRONG_OBJECTS)
def test_wrong_object_rejected(case, tmp_path):
    with pytest.raises(ValidationError, match=f"^{re.escape(WRONG_OBJECTS[case])}$"):
        wrong_object_calls(tmp_path)[case]()
    assert list(tmp_path.iterdir()) == []  # rejected before writing anything
