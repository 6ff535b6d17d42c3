import ast
from importlib import import_module
from pathlib import Path

import pytest

import warpmatch


def test_all_names_resolve():
    missing = [name for name in warpmatch.__all__ if not hasattr(warpmatch, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(warpmatch.__all__) == len(set(warpmatch.__all__))


# The names that the benchmark's workloads and tracer call or patch.
BENCHMARK_NAMES = {
    "warpmatch": ("init_adapter", "load_adapter", "FormatError", "ValidationError"),
    "warpmatch.dpw": ("dpw", "optimal_hipa", "validate_hipa", "path_cost"),
    "warpmatch.swim": ("cdist", "dpw_distance_matrix"),
    "warpmatch.cli": ("main",),
    "warpmatch.evaluate": ("match_topk", "knn_baseline"),
    "warpmatch.synth": ("gen_task", "SynthConfig"),
    "warpmatch.matrix": ("Dataset", "save_dataset"),
}


@pytest.mark.parametrize("module", BENCHMARK_NAMES)
def test_benchmark_names_exist(module):
    mod = import_module(module)
    missing = [name for name in BENCHMARK_NAMES[module] if not callable(getattr(mod, name, None))]
    assert missing == []


ROOT = Path(__file__).resolve().parents[1]

# Defaulted parameters that only tests pass, kept on purpose: `on_epoch` is the
# hook that ROADMAP direction 2 builds its event stream on.
TEST_ONLY_PARAMETERS = {("train_on_pairs", "on_epoch")}


def _defaulted_parameters(tree):
    """(function, parameter, position or None) for every parameter with a
    default; a method's position does not count ``self``."""
    methods = {f for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for f in ast.walk(tree):
        if isinstance(f, ast.FunctionDef):
            positional = f.args.posonlyargs + f.args.args
            first = len(positional) - len(f.args.defaults)
            for i, arg in enumerate(positional[first:], first - (f in methods)):
                yield f.name, arg.arg, i
            for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
                if default is not None:
                    yield f.name, arg.arg, None


def _passes(call, parameter, position):
    """Whether ``call`` passes ``parameter``: by keyword, by position, or
    through ``*args``/``**kwargs`` that may hold it."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_has_a_caller():
    calls = {}
    for path in sorted(p for d in ("src", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = {
        (function, parameter)
        for path in sorted((ROOT / "src" / "warpmatch").glob("*.py"))
        for function, parameter, position in _defaulted_parameters(
            ast.parse(path.read_text(encoding="utf-8")))
        if not any(_passes(call, parameter, position) for call in calls.get(function, ()))
    }
    assert unpassed == TEST_ONLY_PARAMETERS
