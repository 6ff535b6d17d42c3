"""The three benchmark workloads: inputs from a seed, one timed solve, checks.

Each workload has `setup()` (build the inputs; timed as set-up),
`solve(index, workers)` (the timed unit of work, repeated for the run's
seconds) and `check(out)` (correctness, outside the timed phase), and reports
`quality(out)` as (top1, top5) and `pairs(out)`, the alignment distances one
solve delivers.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import time
from importlib import import_module

import numpy as np

import warpmatch
from warpmatch import cli, evaluate, matrix, synth

# By import path: the package's `dpw` attribute is the function, not the module.
dpw_module = import_module("warpmatch.dpw")

# The acceptance task (tests/test_acceptance.py TASK_CFG) and training config.
SWIM_TASK = dict(n_classes=20, height=10, width=10, channels=8, warp=0.95,
                 map_kind="affine_sigmoid", map_gain=3.0, noise_std=0.015,
                 n_components=4, component_mix=0.75, seed=13)
SWIM_ALPHA = 10
SWIM_SETTINGS = ("seed=3", f"alpha={SWIM_ALPHA}", "eps=1e-3", "hidden=64", "learning_rate=1e-2",
                 "lr_decay=1.5e-3", "epochs=200", "max_sloma_iters=30", "topk=5")

RANK_N = 300
RANK_SAMPLES = 64               # matrix entries re-checked against dpw per run
ALIGN_SIZES = range(6, 15)      # H and W of every align matrix
ALIGN_CHANNELS = 160
ALIGN_CANDIDATES = 8            # candidates per align query, the true one included
PATH_RTOL = 1e-9


def _relabel(dataset, ids, order):
    """Same matrices under new class ids, entries in a new order."""
    entries = dataset.entries
    return matrix.Dataset(dataset.name, tuple((ids[entries[i][0]], entries[i][1])
                                              for i in order))


class Swim:
    """`warpmatch match run` in-process on the acceptance task.

    The task content is pinned (seed 13): alignment beating the kNN baseline
    is only established for it.  The run's seed relabels the class ids and
    shuffles both manifests, so the files the CLI reads differ per seed.
    """

    name = "swim"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.n = SWIM_TASK["n_classes"]

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        seen, emerging, _ = synth.gen_task(synth.SynthConfig(**SWIM_TASK))
        ids = rng.permutation(1000)[:self.n]
        task = self.workdir / "task"
        shutil.rmtree(task, ignore_errors=True)
        self.seen_manifest = matrix.save_dataset(
            _relabel(seen, ids, rng.permutation(self.n)), task)
        self.emerging_manifest = matrix.save_dataset(
            _relabel(emerging, ids, rng.permutation(self.n)), task)

    def solve(self, index, workers):
        outdir = self.workdir / f"run{index}"
        shutil.rmtree(outdir, ignore_errors=True)
        argv = ["match", "run", "--seen", str(self.seen_manifest),
                "--emerging", str(self.emerging_manifest), "--outdir", str(outdir),
                "--baseline", "knn", "--workers", str(workers)]
        for setting in SWIM_SETTINGS:
            argv += ["--set", setting]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return {"code": code, "outdir": outdir}

    @staticmethod
    def _csv(path):
        lines = path.read_text(encoding="utf-8").splitlines()
        return [line.split(",") for line in lines[1:]]

    @staticmethod
    def _metric(path, key):
        return float(dict(Swim._csv(path))[key])

    def quality(self, out):
        if out["code"] != 0:        # no report; the exit-code check fails
            return 0.0, 0.0
        report = out["outdir"] / "report.csv"
        return self._metric(report, "top1"), self._metric(report, "top5")

    def pairs(self, out):
        # run_swim computes one distance matrix before and one after each of
        # its ceil(N/alpha) outer iterations; the final report adds one more.
        return (math.ceil(self.n / SWIM_ALPHA) + 2) * self.n * self.n

    def check(self, out):
        outdir = out["outdir"]
        checks = [("exit code 0", out["code"] == 0)]
        if out["code"] != 0:
            return checks
        assignment = self._csv(outdir / "assignment.csv")
        emerging_ids = {row[0] for row in assignment}
        checks.append(("assignment has N distinct emerging ids",
                       len(assignment) == self.n and len(emerging_ids) == self.n))
        checks.append(("trace has ceil(N/alpha) rows",
                       len(self._csv(outdir / "trace.csv")) == math.ceil(self.n / SWIM_ALPHA)))
        try:
            warpmatch.load_adapter(outdir / "adapter.lfa")
            reloads = True
        except (warpmatch.FormatError, warpmatch.ValidationError, OSError):
            reloads = False
        checks.append(("adapter.lfa reloads", reloads))
        top1 = self._metric(outdir / "report.csv", "top1")
        knn_top1 = self._metric(outdir / "baseline_report.csv", "top1")
        checks.append(("alignment top1 above kNN top1", top1 > knn_top1))
        return checks


class Rank:
    """`eval topk --baseline knn` in-process: `evaluate.match_topk` and
    `evaluate.knn_baseline` over an N=300 synth task with a pass-through
    adapter.  Batched distance-matrix traffic and no training."""

    name = "rank"

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        cfg = synth.SynthConfig(**dict(SWIM_TASK, n_classes=RANK_N, map_kind="identity",
                                       seed=self.seed))
        self.seen, self.emerging, _ = synth.gen_task(cfg)
        self.params = warpmatch.init_adapter(cfg.channels, 64, seed=0, pass_through=True)

    def solve(self, index, workers):
        report = evaluate.match_topk(self.seen, self.emerging, self.params, k=5,
                                     workers=workers)
        knn = evaluate.knn_baseline(self.seen, self.emerging, self.params, k=5)
        return report, knn

    def quality(self, out):
        return out[0].top1, out[0].top5

    def pairs(self, out):
        return self.seen.size * self.emerging.size

    def check(self, out):
        report, knn = out
        rng = np.random.default_rng([self.seed, 2])
        seen_by_id = dict(self.seen.entries)
        emerging = self.emerging.matrices
        checks = []
        for j in rng.choice(len(report.items), size=RANK_SAMPLES, replace=False):
            item = report.items[j]
            cid, distance = item.ranked[int(rng.integers(len(item.ranked)))]
            exact = dpw_module.dpw(seen_by_id[cid], emerging[j])[0]
            checks.append((f"entry ({cid}, {item.emerging_class}) equals dpw",
                           exact == distance))
        checks.append(("top1 at least kNN top1", report.top1 >= knn.top1))
        return checks


class Align:
    """`dpw` then `optimal_hipa`, one pair at a time, as a retrieval task.

    Every H x W shape with H, W in 6..14 gets two synth classes at C=160.
    Each emerging matrix is a query, aligned against its true seen matrix
    (same shape) and ALIGN_CANDIDATES-1 others of any shape.
    """

    name = "align"

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        rng = np.random.default_rng([self.seed, 3])
        seen, emerging = [], []
        for h in ALIGN_SIZES:
            for w in ALIGN_SIZES:
                cfg = synth.SynthConfig(n_classes=2, height=h, width=w,
                                        channels=ALIGN_CHANNELS, warp=0.95,
                                        map_kind="identity", noise_std=0.015,
                                        seed=int(rng.integers(2**31)))
                s, e, _ = synth.gen_task(cfg)
                seen += s.matrices
                emerging += e.matrices
        n = len(seen)
        self.seen, self.emerging = seen, emerging
        # Distractors by distinct nonzero offsets along a random cycle: each
        # is distinct and never the query itself, and every seen matrix is a
        # distractor equally often, so the pass cost barely depends on the seed.
        cycle = rng.permutation(n)
        position = np.argsort(cycle)
        offsets = rng.choice(np.arange(1, n), ALIGN_CANDIDATES - 1, replace=False)
        self.pair_list = []
        for q in rng.permutation(n):
            others = cycle[(position[q] + offsets) % n]
            for s in rng.permutation(np.append(others, q)):
                self.pair_list.append((int(s), int(q)))

    def solve(self, index, workers):
        dists = np.empty(len(self.pair_list))
        latency = np.empty(len(self.pair_list))
        hipas = []
        clock = time.perf_counter
        for p, (s, q) in enumerate(self.pair_list):
            t0 = clock()
            d, tables = dpw_module.dpw(self.seen[s], self.emerging[q])
            hipa = dpw_module.optimal_hipa(self.seen[s], self.emerging[q], tables)
            latency[p] = clock() - t0
            dists[p] = d
            hipas.append(hipa)
        return {"dists": dists, "latency": latency, "hipas": hipas}

    def _ranks(self, dists):
        true = {}
        for p, (s, q) in enumerate(self.pair_list):
            if s == q:
                true[q] = dists[p]
        ranks = dict.fromkeys(true, 0)
        for p, (s, q) in enumerate(self.pair_list):
            if s != q and dists[p] < true[q]:
                ranks[q] += 1
        return list(ranks.values())

    def quality(self, out):
        ranks = self._ranks(out["dists"])
        return (sum(r < 1 for r in ranks) / len(ranks),
                sum(r < 5 for r in ranks) / len(ranks))

    def pairs(self, out):
        return len(self.pair_list)

    def check(self, out):
        checks = []
        for (s, q), d, hipa in zip(self.pair_list, out["dists"], out["hipas"]):
            a, b = self.seen[s], self.emerging[q]
            violations = dpw_module.validate_hipa(hipa, a.shape[:2], b.shape[:2])
            cost = dpw_module.path_cost(a, b, hipa) if not violations else math.inf
            checks.append((f"pair ({s}, {q}) path valid, cost equals distance",
                           abs(cost - d) <= PATH_RTOL * abs(d)))
        return checks


WORKLOADS = {cls.name: cls for cls in (Swim, Rank, Align)}
