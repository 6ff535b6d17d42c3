"""Integer settings of the library API all pass one rule, ``matrix._as_index``:
integers (numpy's too) are kept as ``int``, anything else raises a
ValidationError that names the setting."""

import dataclasses
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
    dpw_distance_matrix,
    init_adapter,
    knn_baseline,
    match_topk,
    rank_report,
    run_sloma,
    run_swim,
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
