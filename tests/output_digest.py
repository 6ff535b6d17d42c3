"""One SHA-256 over the files a fixed set of CLI runs writes.

    python tests/output_digest.py [--files] [--src DIR]

Runs, through ``warpmatch.cli.main`` in a temporary directory:

- ``synth gen`` for the acceptance task (the ``perfbench`` ``swim`` task) and
  for a 6-class task;
- ``match run --baseline knn --workers 2`` on the acceptance task under the
  ``perfbench`` ``swim`` settings;
- ``eval topk --baseline knn --set topk=3`` with that run's adapter;
- a dropout-on minibatch ``match run`` (``dropout_p=0.3 batch_size=7``) on
  the 6-class task;
- ``dpw align`` on two of the 6-class task's matrices.

It prints one SHA-256 over the sorted (path, SHA-256) lines of every file
written except ``config.resolved``, which lists every config key and so
changes whenever a key is added or removed.  ``--src DIR`` imports
``warpmatch`` from ``DIR`` instead of this checkout's ``src/``, so
``--src <other checkout>/src`` digests another checkout's outputs; it runs on
any checkout that accepts its config keys and flags.  With ``--files`` it
also prints the per-file lines.  Takes about 15 s on 2 cores.

BLAS is pinned to one thread before numpy loads, as in ``perfbench/run.py``:
training's matmuls split differently at other BLAS thread counts, so the
adapter, the inner-loop trace and the reports would depend on the shell's
environment.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SWIM_TASK = ("n_classes=20", "height=10", "width=10", "channels=8", "warp=0.95",
             "map_kind=affine_sigmoid", "map_gain=3.0", "noise_std=0.015",
             "n_components=4", "component_mix=0.75", "seed=13")
SWIM_SETTINGS = ("seed=3", "alpha=10", "eps=1e-3", "hidden=64", "learning_rate=1e-2",
                 "lr_decay=1.5e-3", "epochs=200", "max_sloma_iters=30", "topk=5")
SMALL_TASK = ("n_classes=6", "height=6", "width=7", "channels=3", "warp=0.5",
              "map_kind=affine_sigmoid", "noise_std=0.01", "seed=4")
DROPOUT_SETTINGS = ("seed=2", "alpha=3", "hidden=16", "learning_rate=1e-2",
                    "lr_decay=1.5e-3", "epochs=40", "max_sloma_iters=5",
                    "dropout_p=0.3", "batch_size=7")


def _sets(settings):
    return [arg for s in settings for arg in ("--set", s)]


def import_cli(src: Path):
    """``warpmatch.cli`` imported from ``src``, never from an installed copy."""
    if not (src / "warpmatch" / "__init__.py").is_file():
        sys.exit(f"error: no warpmatch package under {src}")
    sys.path.insert(0, str(src))
    from warpmatch import cli
    if Path(cli.__file__).resolve().parent != src / "warpmatch":
        sys.exit(f"error: imported warpmatch from {cli.__file__}, not {src}")
    return cli


def run_all(root: Path, cli) -> None:
    """Write every output under ``root`` with ``cli``; exit on the first nonzero code."""
    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(list(argv))
        if code != 0:
            sys.exit(f"{' '.join(argv[:2])} exited {code}: {err.getvalue().strip()}")

    def datasets(task):
        return "--seen", str(task / "seen.manifest"), "--emerging", str(task / "emerging.manifest")

    swim, small = root / "swim_task", root / "small_task"
    run("synth", "gen", "--outdir", str(swim), *_sets(SWIM_TASK))
    run("synth", "gen", "--outdir", str(small), *_sets(SMALL_TASK))
    run("match", "run", *datasets(swim), "--outdir", str(root / "swim_run"),
         "--baseline", "knn", "--workers", "2", *_sets(SWIM_SETTINGS))
    run("eval", "topk", *datasets(swim), "--adapter", str(root / "swim_run" / "adapter.lfa"),
         "--outdir", str(root / "swim_eval"), "--baseline", "knn", "--set", "topk=3")
    run("match", "run", *datasets(small), "--outdir", str(root / "dropout_run"),
         *_sets(DROPOUT_SETTINGS))
    a, b = sorted(small.glob("*.fmx"))[:2]
    run("dpw", "align", str(a), str(b), "-o", str(root / "align.csv"))


def file_lines(root: Path) -> list[str]:
    return sorted(f"{p.relative_to(root).as_posix()}  {hashlib.sha256(p.read_bytes()).hexdigest()}"
                  for p in root.rglob("*") if p.is_file() and p.name != "config.resolved")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--files", action="store_true", help="also print per-file hashes")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory to import warpmatch from (default: this checkout's src/)")
    args = parser.parse_args()
    cli = import_cli(args.src.resolve())
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        run_all(root, cli)
        lines = file_lines(root)
    if args.files:
        print("\n".join(lines))
    print(hashlib.sha256("\n".join(lines).encode()).hexdigest())


if __name__ == "__main__":
    main()
