from importlib import import_module

import pytest

import warpmatch


def test_all_names_resolve():
    missing = [name for name in warpmatch.__all__ if not hasattr(warpmatch, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(warpmatch.__all__) == len(set(warpmatch.__all__))


# The names that the benchmark's workloads and tracer call or patch.
BENCHMARK_NAMES = {
    "warpmatch.dpw": ("dpw", "optimal_hipa", "validate_hipa", "path_cost"),
    "warpmatch.swim": ("cdist", "dpw_distance_matrix"),
    "warpmatch.cli": ("main",),
    "warpmatch.evaluate": ("match_topk", "knn_baseline"),
    "warpmatch.synth": ("gen_task",),
    "warpmatch.matrix": ("save_dataset",),
}


@pytest.mark.parametrize("module", BENCHMARK_NAMES)
def test_benchmark_names_exist(module):
    mod = import_module(module)
    missing = [name for name in BENCHMARK_NAMES[module] if not callable(getattr(mod, name, None))]
    assert missing == []
