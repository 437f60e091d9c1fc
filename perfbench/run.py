"""The repository benchmark: ``python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1``, run from the root of a checkout.

Measures the checkout's own ``src/repro`` (nothing is installed), in
fresh interpreters started by :mod:`worker`, and prints one JSON object
as the last line of standard output::

    {"correct": true, "attempted": 104, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (set-up time, batch wall,
per-job latency, peak memory); ``--trace 1`` runs the same pass once
untraced and once with every layer wrapped, and reports the per-layer
metrics.  Each run does a fixed amount of work: every limit is a
Karp–Miller expansion count, so verdicts and counts do not depend on
machine speed, and ``--seconds`` is accepted but does not stretch or
cut the work.  Workloads, metrics and their expected interactions are
described in ``perfbench/README.md``.

Exit status 0 means a result was printed (``correct`` may still be
false); anything else means no result (no program to measure, a worker
crashed, or the run overran its time limit).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from speed import REFERENCE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: per-run store copies, worker
#: results, span files and the exact-count guard's fingerprints.
WORK = ROOT / ".perfbench-work"

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
#: Whole-run time limit (seconds), kept under the 180 s a run may take.
RUN_LIMIT = 170.0


class BenchError(Exception):
    """The run cannot produce a result."""


def _worker(spec: dict, deadline: float) -> tuple[dict, float]:
    """Run one fresh worker interpreter; returns its result and the
    ``time.monotonic`` instant it was launched (comparable with the
    worker's own ``time.monotonic`` readings: one system-wide clock)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(Path(spec["out"]).parent)
    launched = time.monotonic()
    try:
        completed = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            env=env,
            cwd=ROOT,
            stdout=sys.stderr,
            timeout=max(1.0, deadline - launched),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['mode']} worker overran the run's time limit") from None
    if completed.returncode != 0:
        raise BenchError(f"{spec['mode']} worker exited {completed.returncode}")
    with open(spec["out"]) as handle:
        result = json.load(handle)
    if not Path(result["repro_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"measured {result['repro_file']}, not this checkout's src/")
    return result, launched


def _source_hash() -> str:
    """Content hash of the code under test and of the benchmark."""
    digest = hashlib.sha256()
    files = [*SRC.rglob("*.py"), *SRC.rglob("*.has"), *HERE.glob("*.py")]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:20]


def quantile(samples: list[float], p: float) -> float:
    """Harrell–Davis estimate of the ``p`` quantile: every order
    statistic weighted by the Beta((n+1)p, (n+1)(1-p)) mass of its slot.
    Job times are sparse around their percentiles (neighbouring jobs
    differ by several percent), so a single order statistic jumps
    between jobs run to run; this weighted one moves smoothly."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = p * (n + 1) - 1, (1 - p) * (n + 1) - 1
    steps = 32  # midpoint rule inside each slot; the density is smooth
    weights = []
    for slot in range(n):
        weights.append(
            sum(
                math.exp(a * math.log(x) + b * math.log1p(-x))
                for x in ((slot + (k + 0.5) / steps) / n for k in range(steps))
            )
        )
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def _ratio(part: float, whole: float) -> float:
    """A ratio whose base was never consulted reads 0."""
    return part / whole if whole else 0.0


def _hit_ratio(counters: dict, cache: str) -> float:
    hits = counters[f"{cache}_hits"]
    return _ratio(hits, hits + counters[f"{cache}_misses"])


class Run:
    """One benchmark invocation: its passes, checks and metrics."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.deadline = time.monotonic() + RUN_LIMIT
        self.dir = WORK / f"run-{os.getpid()}"
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def spec(self, mode: str, name: str, **extra) -> dict:
        return {
            "mode": mode,
            "workload": self.workload,
            "seed": self.seed,
            "out": str(self.dir / f"{name}.json"),
            **extra,
        }

    # ------------------------------------------------------------------
    # passes
    # ------------------------------------------------------------------
    def fill(self) -> Path:
        """edit-rerun's stores, filled from the unedited jobs by the code
        under test; every pass gets a fresh copy of them."""
        master = self.dir / "fill"
        result, _ = _worker(
            self.spec(
                "fill",
                "fill",
                cache=str(master / "cache"),
                store=str(master / "store"),
            ),
            self.deadline,
        )
        self.check_jobs("fill", result["jobs"])
        if result["stored_verdicts"] != workloads.FILL_VERDICTS:
            self.problems.append(
                f"fill stored {result['stored_verdicts']} verdicts, "
                f"expected {workloads.FILL_VERDICTS}"
            )
        if not result["stored_summaries"]:
            self.problems.append("fill left the summary store empty")
        return master

    def setup_samples(self) -> list[float]:
        samples = []
        for probe in range(SETUP_PROBES):
            result, launched = _worker(
                self.spec("setup", f"setup-{probe}"), self.deadline
            )
            raw = result["ready"] - launched - result["probe_s"]
            samples.append(raw * REFERENCE / result["pace"])
        return samples

    def measured_pass(self, name: str, master: Path | None, trace: bool) -> dict:
        stores = self.dir / name
        extra = {"cache": None, "store": None}
        if master is not None:
            shutil.copytree(master, stores)
            extra = {"cache": str(stores / "cache"), "store": str(stores / "store")}
        elif self.workload == "suite-cold":
            extra["cache"] = str(stores / "cache")
        if trace:
            extra["trace"] = True
            extra["spans"] = str(self.dir / "spans.bin")
        result, _ = _worker(self.spec("run", name, **extra), self.deadline)
        self.check_jobs(name, result["jobs"])
        self.problems.extend(
            f"{name}: {problem}"
            for problem in workloads.pass_failures(self.workload, self.seed, result)
        )
        return result

    def check_jobs(self, name: str, records: list[dict]) -> None:
        for record in records:
            self.attempted += 1
            failure = workloads.job_failure(self.workload, self.seed, record)
            if failure is not None:
                self.failed += 1
                print(f"{name}: {record['name']}: {failure}", file=sys.stderr)

    # ------------------------------------------------------------------
    # exact-count guard
    # ------------------------------------------------------------------
    def guard(self, fingerprints: dict) -> None:
        """Counts must repeat exactly between runs of one seed on one
        commit: a mismatch invalidates the run."""
        path = WORK / "guard" / f"{_source_hash()}-{self.workload}-{self.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        seen = json.loads(path.read_text()) if path.exists() else {}
        for kind, fingerprint in fingerprints.items():
            if kind in seen and seen[kind] != fingerprint:
                self.problems.append(f"{kind} counts differ from an earlier run of this seed")
            seen.setdefault(kind, fingerprint)
        staged = path.with_suffix(f".{os.getpid()}")
        staged.write_text(json.dumps(seen, sort_keys=True))
        os.replace(staged, path)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def end_to_end(self, result: dict, setup: list[float]) -> dict:
        jobs = result["job_s"]
        return {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (result["wall_s"], "s"),
            "job_p50_ms": (quantile(jobs, 0.5) * 1000, "ms"),
            "job_p90_ms": (quantile(jobs, 0.9) * 1000, "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }

    def per_layer(self, plain: dict, traced: dict) -> dict:
        """The traced pass's layer metrics.  Span times are raw seconds;
        they are rescaled by the traced batch's own rescaled-to-raw wall
        ratio, which also takes out the speed probes' share of them."""
        trace = traced["trace"]
        counters = traced["counters"]
        rescale = traced["wall_s"] / traced["raw_wall_s"]
        calls = trace["calls"]
        self_s = {name: value * rescale for name, value in trace["self_s"].items()}
        metrics = {"import.self_s": (self_s["import"], "s")}
        for name in calls:
            if name not in ("import", "bench.excluded"):
                metrics[f"{name}.calls"] = (calls[name], "count")
                metrics[f"{name}.self_s"] = (self_s[name], "s")
        executed = [job for job in traced["jobs"] if not job["cache_hit"]]
        km = trace["km"]
        root, summary = km["root"], km["summary"]
        metrics.update(
            {
                "service.result_cache.hit_ratio": (
                    _ratio(trace["result_cache_hits"], calls["service.result_cache.get"]),
                    "ratio",
                ),
                "service.summary_store.hit_ratio": (
                    _hit_ratio(counters, "summary_store"),
                    "ratio",
                ),
                "service.km_nodes_reused_ratio": (
                    _ratio(
                        sum(job["km_nodes_reused"] for job in executed),
                        sum(job["km_nodes"] for job in executed),
                    ),
                    "ratio",
                ),
                "service.lock_waits": (traced["lock_waits"], "count"),
                "verifier.summary.computed": (summary[2], "count"),
                "verifier.summary.incl_s": (trace["summary_incl_s"] * rescale, "s"),
                "verifier.summary.hit_ratio": (_hit_ratio(counters, "summary"), "ratio"),
                "verifier.succ_memo.hit_ratio": (_hit_ratio(counters, "succ_memo"), "ratio"),
                "verifier.child_input.hit_ratio": (
                    _hit_ratio(counters, "child_input"),
                    "ratio",
                ),
                "vass.km_nodes": (root[0] + summary[0], "count"),
                "vass.km_nodes.root": (root[0], "count"),
                "vass.dominated_ratio.root": (_ratio(root[1], root[0]), "ratio"),
                "vass.dominated_ratio.summary": (_ratio(summary[1], summary[0]), "ratio"),
                "symbolic.apply_condition.yield_ratio": (
                    _ratio(
                        trace["yields"]["symbolic.apply_condition"],
                        calls["symbolic.apply_condition"],
                    ),
                    "ratio",
                ),
                "symbolic.store_key.hit_ratio": (_hit_ratio(counters, "store_key"), "ratio"),
                "symbolic.constraint_canon.hit_ratio": (
                    _hit_ratio(counters, "constraint_canon"),
                    "ratio",
                ),
                "arith.is_satisfiable.true_ratio": (
                    _ratio(trace["sat_true"], calls["arith.is_satisfiable"]),
                    "ratio",
                ),
                "arith.fm_sat.hit_ratio": (_hit_ratio(counters, "fm_sat"), "ratio"),
                "arith.fm_proj.hit_ratio": (_hit_ratio(counters, "fm_proj"), "ratio"),
                "witness.confirmed_ratio": (
                    _ratio(trace["witness_confirmed"], calls["witness.concretize"]),
                    "ratio",
                ),
            }
        )
        excluded = self_s["bench.excluded"]
        attributed = sum(self_s.values()) - excluded
        traced_wall = trace["traced_wall_s"] * rescale - excluded
        metrics["unattributed_s"] = (traced_wall - attributed, "s")
        metrics["trace_overhead"] = (
            (traced["wall_s"] - excluded) / plain["wall_s"],
            "ratio",
        )
        return metrics

    @staticmethod
    def fingerprint(result: dict) -> dict:
        jobs = [
            [job["name"], job["status"], job["km_nodes"], job["cache_hit"]]
            for job in result["jobs"]
        ]
        return {"jobs": jobs, "counters": result["counters"]}

    # ------------------------------------------------------------------
    def execute(self) -> dict:
        master = self.fill() if self.workload == "edit-rerun" else None
        if self.trace:
            plain = self.measured_pass("plain", master, trace=False)
            traced = self.measured_pass("traced", master, trace=True)
            if self.fingerprint(traced) != self.fingerprint(plain):
                self.problems.append("tracing changed a verdict, a KM count or a counter")
            trace = traced["trace"]
            self.guard(
                {
                    "plain": self.fingerprint(plain),
                    "traced": {
                        "calls": trace["calls"],
                        "km": trace["km"],
                    },
                }
            )
            metrics = self.per_layer(plain, traced)
            spans = WORK / "spans" / f"{self.workload}-{self.seed}.bin"
            spans.parent.mkdir(parents=True, exist_ok=True)
            os.replace(self.dir / "spans.bin", spans)
        else:
            setup = self.setup_samples()
            plain = self.measured_pass("plain", master, trace=False)
            self.guard({"plain": self.fingerprint(plain)})
            metrics = self.end_to_end(plain, setup)
        for problem in self.problems:
            print(problem, file=sys.stderr)
        return {
            "correct": not self.problems and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds",
        type=int,
        default=20,
        help="accepted for the benchmark protocol; every run does a fixed amount of work",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, bool(args.trace))
    run.dir.mkdir(parents=True, exist_ok=True)
    try:
        result = run.execute()
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    print(
        f"{args.workload} seed {args.seed}: {result['attempted']} job outcomes "
        f"checked, {result['failed']} failed"
        + ("" if result["correct"] else " — INVALID, see standard error")
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
