"""Command-line front end.

Subcommands: `dpw dist`, `dpw align`, `synth gen`, `match run`, `eval topk`.
Runs are configured by a plain `key = value` text file plus `--set key=value`
overrides.  The keys are the fields of `SwimConfig` (but its nested `train`),
`TrainConfig` and `SynthConfig`, with their defaults, plus the CLI's own
`topk` (default 5), the k of `match run`'s and `eval topk`'s reports.
Unknown keys are rejected; every configured run logs the fully resolved
configuration, then checks all of it.  All randomness flows from `seed`.

Exit codes: 0 success, 1 I/O or format error, 2 validation error,
3 numerical divergence.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

from .adapter import TrainConfig, load_adapter, save_adapter
from .dpw import _flatten, _pair_costs, _walk, dpw
from .errors import DivergenceError, FormatError, ValidationError
from .evaluate import (_check_datasets, knn_baseline, match_topk, rank_report,
                       report_csv_lines, report_json)
from .matrix import (_as_index, _csv_lines, _write_lines, load_dataset, load_matrix,
                     load_matrix_csv, save_dataset, text_lines)
from .swim import SwimConfig, run_swim
from .synth import SynthConfig, gen_task


def _parse_float(value: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(value)
    return x


_PARSERS = {float: _parse_float, int: int, str: str}


def _fields(cls):
    """``cls``'s scalar fields: all but SwimConfig's nested ``train``."""
    return [f for f in fields(cls) if f.name != "train"]


# key -> (parser, default): each config field's type and default, plus the CLI's own.
_SCHEMA = {f.name: (_PARSERS[get_type_hints(cls)[f.name]], f.default)
           for cls in (SwimConfig, TrainConfig, SynthConfig)
           for f in _fields(cls)} | {"topk": (int, 5)}


def _parse_config_line(s, source):
    """``(key, value)`` of the stripped content line ``s``, checked and parsed."""
    key, sep, value = s.partition("=")
    if not sep:
        raise ValidationError(f"{source}: expected 'key = value', got {s!r}")
    key = key.strip()
    value = value.strip()
    if key not in _SCHEMA:
        raise ValidationError(f"{source}: unknown config key {key!r}")
    parser, _ = _SCHEMA[key]
    try:
        return key, parser(value)
    except ValueError:
        raise ValidationError(f"{source}: bad value {value!r} for key {key!r}") from None


def load_run_config(path=None, overrides=()) -> dict:
    """Resolve defaults, then file values, then --set overrides."""
    cfg = {k: d for k, (_, d) in _SCHEMA.items()}
    if path is not None:
        cfg.update(_parse_config_line(s, f"{path}:{n}") for n, s in text_lines(path))
    for ov in overrides:
        s = ov.strip()
        if not s or s.startswith("#"):
            raise ValidationError(f"--set {ov!r}: expected 'key=value'")
        cfg.update([_parse_config_line(s, f"--set {ov!r}")])
    return cfg


def resolved_config_lines(cfg: dict) -> list[str]:
    return [f"{k} = {cfg[k]}" for k in sorted(cfg)]


def _build(cls, cfg: dict, **extra):
    return cls(**{f.name: cfg[f.name] for f in _fields(cls)}, **extra)


def _run_configs(cfg: dict) -> tuple[SwimConfig, SynthConfig]:
    """Build the config dataclasses from ``cfg``; each checks its own keys."""
    return _build(SwimConfig, cfg, train=_build(TrainConfig, cfg)), _build(SynthConfig, cfg)


def _load_any_matrix(path):
    if str(path).lower().endswith(".csv"):
        return load_matrix_csv(path)
    return load_matrix(path)


def _configured(args) -> tuple[int, SwimConfig, SynthConfig, Path]:
    """Resolve the run config, create the output directory, log the resolved
    config to ``<outdir>/config.resolved`` and stderr, and check every key it
    logs before any work.  Returns topk, SwimConfig, SynthConfig and outdir."""
    cfg = load_run_config(args.config, args.set or ())
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    lines = resolved_config_lines(cfg)
    _write_lines(outdir / "config.resolved", lines)
    for line in lines:
        print(f"# {line}", file=sys.stderr)
    return (_as_index(cfg["topk"], "k", 1), *_run_configs(cfg), outdir)


def _load_datasets(args, k: int):
    """Load both datasets and check them before any work: the report's ``k``
    (a large one clamps, warning once) and, with ``--baseline knn``, one shape."""
    seen, emerging = load_dataset(args.seen), load_dataset(args.emerging)
    return seen, emerging, _check_datasets(seen, emerging, k, args.baseline == "knn")


def _write_traces(outdir: Path, steps) -> None:
    """Write trace.csv (one line per outer iteration) and sloma_trace.csv
    (one line per inner iteration, tagged with its outer iteration T)."""
    _write_lines(outdir / "trace.csv", _csv_lines(
        "T,n,top1,top5", [(t.iteration, t.n_pairs, t.top1, t.top5) for t in steps]))
    _write_lines(outdir / "sloma_trace.csv", _csv_lines(
        "T,t,match_cost,train_loss,param_delta",
        [(t.iteration, s.iteration, s.match_cost, s.train_loss, s.weight_delta)
         for t in steps for s in t.inner]))


def _write_reports(args, outdir: Path, seen, emerging, params, report) -> None:
    """Write the alignment ``report`` to report.{json,csv}, plus
    baseline_report.{json,csv} with ``--baseline knn``."""
    def write(stem, report):
        _write_lines(outdir / f"{stem}.json", [report_json(report)])
        _write_lines(outdir / f"{stem}.csv", report_csv_lines(report))

    write("report", report)
    if args.baseline == "knn":
        # report.k is already clamped to the dataset size, so the clamp warns once.
        write("baseline_report", knn_baseline(seen, emerging, params, k=report.k))


# ---------------------------------------------------------------------------
# Commands

def cmd_dpw_dist(args) -> int:
    a = _load_any_matrix(args.matrix_a)
    b = _load_any_matrix(args.matrix_b)
    distance, _ = dpw(a, b)
    print(f"{distance:.12g}")
    return 0


def cmd_dpw_align(args) -> int:
    a = _load_any_matrix(args.matrix_a)
    b = _load_any_matrix(args.matrix_b)
    idx = _flatten(_walk(dpw(a, b)[1]))
    lines = _csv_lines("hs,ws,he,we,cost", zip(*((i + 1).tolist() for i in idx),
                                               _pair_costs(a.data, b.data, *idx).tolist()))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_lines(out, lines)
    print(f"wrote {len(lines) - 1} aligned pairs to {out}")
    return 0


def cmd_synth_gen(args) -> int:
    _, _, synth_cfg, outdir = _configured(args)
    seen, emerging, truth = gen_task(synth_cfg)
    seen_manifest = save_dataset(seen, outdir)
    emerging_manifest = save_dataset(emerging, outdir)
    _write_lines(outdir / "truth.csv",
                 _csv_lines("emerging_class_id,seen_class_id", sorted(truth.items())))
    print(f"wrote {seen.size} classes to {seen_manifest} and {emerging_manifest}")
    return 0


def cmd_match_run(args) -> int:
    topk, swim_cfg, _, outdir = _configured(args)
    seen, emerging, topk = _load_datasets(args, topk)
    assignment, params, steps, dist = run_swim(
        seen.matrices, emerging.matrices, swim_cfg,
        class_ids=(seen.class_ids, emerging.class_ids), workers=args.workers)

    final = steps[-1]
    _write_lines(outdir / "assignment.csv", _csv_lines(
        "emerging_id,seen_id,rank1_distance",
        [(emerging.class_ids[l], seen.class_ids[k], d)
         for (k, l), d in zip(final.pairs, final.pair_distances)]))
    _write_traces(outdir, steps)
    if not params.pass_through:  # never trained: LFA1 cannot hold a pass-through adapter
        save_adapter(params, outdir / "adapter.lfa")

    # The report ranks the matrix the last trace row was ranked from.
    report = rank_report(dist, seen, emerging, topk)
    _write_reports(args, outdir, seen, emerging, params, report)
    print(f"top1 {report.top1!r} top5 {report.top5!r} ({len(steps)} outer iterations)")
    return 0


def cmd_eval_topk(args) -> int:
    topk, _, _, outdir = _configured(args)
    seen, emerging, k = _load_datasets(args, topk)
    params = load_adapter(args.adapter)
    report = match_topk(seen, emerging, params, k=k, workers=args.workers)
    _write_reports(args, outdir, seen, emerging, params, report)
    print(f"top1 {report.top1!r} top5 {report.top5!r}")
    return 0


# ---------------------------------------------------------------------------
# Argument wiring

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="warpmatch",
        description="Order-preserving 2D alignment and self-reinforcing matching.")
    sub = p.add_subparsers(dest="group", required=True)

    dpw_p = sub.add_parser("dpw", help="alignment distance and paths")
    dpw_sub = dpw_p.add_subparsers(dest="command", required=True)
    dist = dpw_sub.add_parser("dist", help="print the alignment distance of two matrices")
    dist.add_argument("matrix_a")
    dist.add_argument("matrix_b")
    dist.set_defaults(func=cmd_dpw_dist)
    align = dpw_sub.add_parser("align", help="dump the optimal alignment as CSV lines")
    align.add_argument("matrix_a")
    align.add_argument("matrix_b")
    align.add_argument("-o", "--out", required=True)
    align.set_defaults(func=cmd_dpw_align)

    # Flags shared between subcommands, each declared once.
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config")
    configured.add_argument("--set", action="append", metavar="KEY=VALUE")
    configured.add_argument("--outdir", required=True)
    datasets = argparse.ArgumentParser(add_help=False, parents=[configured])
    datasets.add_argument("--seen", required=True, help="seen-modality manifest")
    datasets.add_argument("--emerging", required=True, help="emerging-modality manifest")
    datasets.add_argument("--baseline", choices=["knn"])
    datasets.add_argument("--workers", type=int, default=1,
                          help="distance-matrix threads, >= 1 (default 1)")

    synth_p = sub.add_parser("synth", help="synthetic task generation")
    synth_sub = synth_p.add_subparsers(dest="command", required=True)
    gen = synth_sub.add_parser("gen", parents=[configured],
                               help="generate a paired task with ground truth")
    gen.set_defaults(func=cmd_synth_gen)

    match_p = sub.add_parser("match", help="full matching runs")
    match_sub = match_p.add_subparsers(dest="command", required=True)
    run = match_sub.add_parser("run", parents=[datasets],
                               help="run the full self-reinforcing matcher")
    run.set_defaults(func=cmd_match_run)

    eval_p = sub.add_parser("eval", help="evaluation reports")
    eval_sub = eval_p.add_subparsers(dest="command", required=True)
    topk = eval_sub.add_parser("topk", parents=[datasets],
                               help="rank and score with a saved adapter")
    topk.add_argument("--adapter", required=True)
    topk.set_defaults(func=cmd_eval_topk)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
