"""Benchmark of the rnnsent command line: one workload per run, in process.

    python3 perfbench/run.py --workload train-tweets --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from ./src
and every file goes under ./.perfbench_work. The run sets the inputs up
at least SETUP_REPEATS times (the median is `setup_s`), then repeats whole rounds of
the workload's subcommands, one after another in this one process, for
about --seconds, and checks the last round's outputs. A stage rate is the
stage's total work over its total time in all rounds, in seconds corrected
for the machine's speed (speed.py). With --trace 1 every other round runs
with wrappers around the package's public functions, and the per-layer
figures are medians over the traced rounds. The last line of stdout is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# Set-up runs at least SETUP_REPEATS times and for at least SETUP_SECONDS,
# so that a short set-up is timed often enough for a steady median.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "loadavg": os.getloadavg(),
    }


def make_workload(name: str, work: Path, seed: int):
    import gen
    from workloads import ClassifierWorkload, EmbedWorkload

    if name == "train-tweets":
        return ClassifierWorkload(gen.labeled_tweets, n_per_class=200, n_stream=3000,
                                  epochs=3, batch=64, lr=0.05, work=work, seed=seed)
    if name == "train-long":
        return ClassifierWorkload(gen.long_tweets, n_per_class=120, n_stream=900,
                                  epochs=3, batch=16, lr=0.05, work=work, seed=seed)
    return EmbedWorkload(n_tweets=10000, work=work, seed=seed)


def fresh_import() -> None:
    """Drop and re-import the package, so every set-up pays for its import."""
    for name in [n for n in sys.modules if n == "rnnsent" or n.startswith("rnnsent.")]:
        del sys.modules[name]
    import rnnsent.cli  # noqa: F401


def program_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "rnnsent").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def earlier_run(store: Path, key: str, hashes: dict) -> dict:
    """The artifact digests first recorded under `key` (workload, seed,
    program sources and inputs), recording `hashes` if there are none."""
    known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    recorded = known.setdefault(key, hashes)
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return recorded


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train-tweets", "train-long", "text-embed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "rnnsent" / "cli.py").is_file():
        print(f"error: no rnnsent sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from speed import SpeedClock
    from tracing import Tracer, layer_metrics, metric_units
    from workloads import Ledger, check_identical, digests

    print("env " + json.dumps(environment(), sort_keys=True))
    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    workload = make_workload(args.workload, work, args.seed)
    ledger = Ledger()
    # Every time reported, down to a traced span's, is corrected for the
    # machine's speed.
    clock = SpeedClock()
    tracer = Tracer() if args.trace else None

    setup_windows, rounds, traced_rounds, round_hashes = [], [], [], []
    with clock:
        first = time.perf_counter()
        while len(setup_windows) < SETUP_REPEATS or time.perf_counter() - first < SETUP_SECONDS:
            started = time.perf_counter()
            fresh_import()
            workload.setup()
            setup_windows.append((started, time.perf_counter()))
        deadline = time.perf_counter() + args.seconds
        while True:
            started = time.perf_counter()
            if tracer is not None and (len(rounds) + len(traced_rounds)) % 2 == 1:
                tracer.install()
                lo = len(tracer.spans)
                try:
                    windows = workload.round(ledger)
                finally:
                    tracer.uninstall()
                traced_rounds.append((windows, lo, len(tracer.spans)))
            else:
                windows = workload.round(ledger)
                rounds.append(windows)
            wall = time.perf_counter() - started
            round_hashes.append(digests(workload.artifacts(), workload.out))
            # stop once less than half a round is left, so runs end near --seconds
            if time.perf_counter() + wall / 2 >= deadline and (tracer is None or traced_rounds):
                break
    # before the checks, whose reference computations are not the program's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    workload.check(ledger)
    check_identical(ledger, "artifacts identical in every round", round_hashes)
    input_hashes = digests(sorted(workload.inputs.iterdir()), workload.inputs)
    inputs_digest = hashlib.sha256(json.dumps(input_hashes, sort_keys=True).encode()).hexdigest()
    key = f"{args.workload}/{args.seed}/{program_digest(src)[:16]}/{inputs_digest[:16]}"
    recorded = earlier_run(root / ".perfbench_work" / "hashes.json", key, round_hashes[0])
    check_identical(ledger, "artifacts identical to an earlier run", [recorded, round_hashes[0]])

    def seconds(windows) -> float:
        return sum(clock.seconds(*w) for w in windows)

    def figures(windows) -> dict[str, float]:
        stages = list(windows)
        out = {"round_s": sum(seconds(windows[k]) for k in stages),
               "wall_s": sum(e - s for k in stages for s, e in windows[k])}
        out.update({k: seconds(windows[k]) for k in ("stage1", "stage2", "stage3")})
        return out

    untraced = [figures(r) for r in rounds]
    traced = [figures(r) for r, _, _ in traced_rounds]
    for j, r in enumerate(untraced + traced):
        print(f"  round {j}{' traced' if j >= len(untraced) else ''}: " + " ".join(f"{k} {v:.6g}" for k, v in r.items()))
    rates = [len(untraced) * workload.work[k] / sum(r[k] for r in untraced) for k in ("stage1", "stage2", "stage3")]
    loss1, loss2 = workload.losses()
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} untraced and {len(traced_rounds)} traced rounds")
    print("speed " + json.dumps(clock.summary()))
    for name, value, unit in zip(workload.stage_names + workload.loss_names, rates + [loss1, loss2],
                                 workload.stage_units + ("nats", "nats")):
        print(f"  {name} = {value:.6g} {unit}")

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(seconds([w]) for w in setup_windows), "s"),
            "round_s": (statistics.fmean(r["round_s"] for r in untraced), "s"),
            "stage1_per_s": (rates[0], "1/s"),
            "stage2_per_s": (rates[1], "1/s"),
            "stage3_per_s": (rates[2], "1/s"),
            "loss1_nats": (loss1, "nats"),
            "loss2_nats": (loss2, "nats"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    else:
        per_round = [layer_metrics(tracer.spans, lo, hi, clock.seconds) for _, lo, hi in traced_rounds]
        layers = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
        untraced_s = statistics.median(r["round_s"] for r in untraced)
        layers["trace.overhead_s"] = statistics.median(r["round_s"] for r in traced) - untraced_s
        metrics = {name: (layers[name], unit) for name, unit in metric_units().items()}
        tracer.write(work / "spans.tsv")
        print(f"  tracing overhead {layers['trace.overhead_s']:.4f} s per round "
              f"on {untraced_s:.4f} s untraced; spans in {work / 'spans.tsv'}")

    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
