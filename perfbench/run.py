#!/usr/bin/env python3
"""Benchmark of the spinaep CLI: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep-tfim11 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from
``src/`` with no install step. Each sample is one fresh process running one
``spinaep`` command through ``child.py``. Samples run one after another
(closed loop, one client) with ``min(2, nproc)`` BLAS threads, for as long
as another one fits in ``--seconds`` (at least one). ``--seed`` becomes the
CLI's ``--seed``.

A run starts with an untimed warm-up sample at volumes 1..2. ``--trace 0``
reports the end-to-end metrics, medians over the run's samples; every sample
also gives one set-up time. ``--trace 1`` cycles through an untraced sample,
a traced one and a traced one at a single BLAS thread, and reports the
per-layer metrics of the traced samples.

Every sample's CSVs are checked against ``reference/`` (see ``validate.py``);
a nonzero exit or a failed check makes the sample fail. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. The full record, with the environment, every sample and
the spans of the last traced sample, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import validate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
OUT = HERE / "out"

VOLUMES = (1, 2, 3, 4, 5)  # chains of 3, 5, 7, 9 and 11 sites
SMOKE_VOLUMES = (1, 2)  # also the warm-up sample of every run
SAMPLE_LIMIT_S = 150.0  # a sample still running after this is killed and fails


@dataclass(frozen=True)
class Workload:
    command: str  # spinaep subcommand
    config: str  # file under configs/, without volume lines


# Why each workload exists is stated in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    "sweep-tfim11": Workload("sweep", "tfim.cfg"),
    "sweep-dm11": Workload("sweep", "dm.cfg"),
    "spectrum-tfim11": Workload("spectrum", "tfim.cfg"),
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}

# Self time of each span name of child.py, as "<span>_s".
STAGES = (
    "config.parse", "interaction.model_checks", "lattice.build", "hamiltonian.assemble",
    "gibbs.eigh", "gibbs.check", "gibbs.ensemble", "gibbs.densities", "typicality.windows",
    "codec.decomposition", "codec.qr", "codec.projector", "codec.fidelity", "cli.emit",
)
LAYERS = ("config", "interaction", "lattice", "hamiltonian", "gibbs", "typicality", "codec", "cli")

PER_LAYER = {
    **{f"{stage}_s": "s" for stage in STAGES},
    "hamiltonian.calls": "count",
    "hamiltonian.h_bytes": "B",
    "gibbs.eigh_flops": "flop",
    "gibbs.vectors_used_ratio": "ratio",
    "codec.decomposition_bytes": "B",
    "codec.fidelity_calls": "count",
    "codec.projector_rank_ratio": "ratio",
    "cli.bytes_written": "B",
    **{f"{layer}.rss_step_mb": "MiB" for layer in LAYERS},
    "gibbs.eigh_1thread_s": "s",
    "codec.qr_1thread_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


@dataclass
class Sample:
    """One CLI process: what the parent measured and what the child recorded."""

    mode: str  # plain or trace (see child.py)
    threads: int
    wall_s: float = 0.0
    setup_s: float | None = None
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    record: dict | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def tally(samples: list[Sample]) -> tuple[int, int]:
    """Attempted and failed processes; their ratio is the error rate."""
    return len(samples), sum(1 for s in samples if not s.ok)


def error_rate(samples: list[Sample]) -> float:
    attempted, failed = tally(samples)
    return failed / attempted


def blas_threads() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def config_text(workload: Workload, volumes: tuple[int, ...]) -> str:
    text = (HERE / "configs" / workload.config).read_text(encoding="utf-8")
    return text + "".join(f"volume = {n}\n" for n in volumes)


def _wait(proc: subprocess.Popen, limit: float):
    """Reap the child with its resource usage; kill it past ``limit`` seconds."""
    reaped = threading.Event()

    def kill() -> None:
        if not reaped.is_set():
            proc.kill()

    timer = threading.Timer(limit, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        reaped.set()
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_sample(name: str, seed: int, volumes: tuple[int, ...], mode: str,
               threads: int, work_root: Path) -> Sample:
    workload = WORKLOADS[name]
    sample = Sample(mode=mode, threads=threads)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        cfg = work / "experiment.cfg"
        cfg.write_text(config_text(workload, volumes), encoding="utf-8")
        record_path = work / "record.json"
        out_dir = work / "out"
        args = [
            sys.executable, str(HERE / "child.py"), str(record_path), mode, "--",
            workload.command, "--config", str(cfg), "--out", str(out_dir),
            "--seed", str(seed), "--quiet",
        ]
        with open(work / "stderr.txt", "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(args, stdout=subprocess.DEVNULL, stderr=err,
                                    env=child_env(threads), cwd=ROOT)
            try:
                usage = _wait(proc, SAMPLE_LIMIT_S)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            sample.wall_s = time.monotonic() - start
        sample.cpu_s = usage.ru_utime + usage.ru_stime
        sample.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        if proc.returncode != 0:
            tail = (work / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-400:]
            sample.problems.append(f"exit code {proc.returncode}: {tail.strip()}")
            return sample
        try:
            sample.record = json.loads(record_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            sample.problems.append(f"no child record: {exc}")
            return sample
        mark = sample.record.get("setup_mark")
        if mark is None:
            sample.problems.append("the command started no volume (no set-up mark)")
        else:
            sample.setup_s = mark - start
        sample.problems += validate.check_outputs(
            workload.command, REFERENCE / name, out_dir, volumes
        )
        return sample
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summary(values: list[float]) -> dict:
    """Median with its sample count, quartiles, and any tail with ten samples beyond it."""
    values = sorted(values)
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


def layer_metrics(sample: Sample) -> dict[str, float]:
    """Per-layer metrics of one traced sample: self times, counts, RSS steps."""
    spans = sample.record["spans"]
    child_time = [0.0] * len(spans)
    child_rss = [0] * len(spans)
    for _, start, end, parent, rss0, rss1 in spans:
        if parent is not None:
            child_time[parent] += end - start
            child_rss[parent] += rss1 - rss0
    self_s: dict[str, float] = defaultdict(float)
    rss_kib: dict[str, float] = defaultdict(float)
    covered = 0.0
    for i, (name, start, end, parent, rss0, rss1) in enumerate(spans):
        self_s[name] += end - start - child_time[i]
        rss_kib[name.split(".")[0]] += rss1 - rss0 - child_rss[i]
        if parent is None:
            covered += end - start
    c = sample.record["counters"]
    metrics = {f"{stage}_s": self_s[stage] for stage in STAGES}
    metrics.update({
        "hamiltonian.calls": c["hamiltonian.calls"],
        "hamiltonian.h_bytes": c["hamiltonian.h_bytes"],
        "gibbs.eigh_flops": c["gibbs.eigh_flops"],
        "gibbs.vectors_used_ratio": (
            c["gibbs.vectors_used"] / c["gibbs.vectors_computed"]
            if c["gibbs.vectors_computed"] else 0.0
        ),
        "codec.decomposition_bytes": c["codec.decomposition_bytes"],
        "codec.fidelity_calls": c["codec.fidelity_calls"],
        "codec.projector_rank_ratio": (
            c["codec.projector_rank"] / c["codec.projector_dim"] if c["codec.projector_dim"] else 0.0
        ),
        "cli.bytes_written": c["cli.bytes_written"],
        "trace.coverage": covered / sample.wall_s,
    })
    metrics.update({f"{layer}.rss_step_mb": rss_kib[layer] / 1024.0 for layer in LAYERS})
    return metrics


def _median_of(samples: list[Sample], key) -> dict | None:
    values = [key(s) for s in samples]
    return summary(values) if values else None


def end_to_end(samples: list[Sample]) -> dict[str, dict | None]:
    full = [s for s in samples if s.ok and s.mode == "plain"]
    return {
        "wall_s": _median_of(full, lambda s: s.wall_s),
        "setup_s": _median_of(full, lambda s: s.setup_s),
        "cpu_s": _median_of(full, lambda s: s.cpu_s),
        "peak_rss_mb": _median_of(full, lambda s: s.peak_rss_mb),
    }


def per_layer(cycles: list[list[Sample]]) -> dict[str, dict | None]:
    """Per-layer metrics of trace cycles: [untraced, traced, traced at 1 thread]."""
    traced = [c[1] for c in cycles if c[1].ok]
    single = [c[2] for c in cycles if c[2].ok]
    # Tracing cost: CPU time of the traced sample minus that of the untraced
    # one run just before it, paired within a cycle.
    overheads = [t.cpu_s - p.cpu_s for p, t, _ in cycles if p.ok and t.ok]
    per_sample = [layer_metrics(s) for s in traced]
    out: dict[str, dict | None] = {
        name: summary([m[name] for m in per_sample]) if per_sample else None
        for name in PER_LAYER
        if name not in ("gibbs.eigh_1thread_s", "codec.qr_1thread_s", "trace.overhead_s")
    }
    single_metrics = [layer_metrics(s) for s in single]
    out["gibbs.eigh_1thread_s"] = (
        summary([m["gibbs.eigh_s"] for m in single_metrics]) if single_metrics else None
    )
    out["codec.qr_1thread_s"] = (
        summary([m["codec.qr_s"] for m in single_metrics]) if single_metrics else None
    )
    out["trace.overhead_s"] = summary(overheads) if overheads else None
    return out


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def mem_available_kib() -> int | None:
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return None


def environment(threads: int) -> dict:
    """Provenance of a result: machine, BLAS build and thread setting, versions, commit."""
    os.environ.update({k: v for k, v in child_env(threads).items() if k.endswith("_NUM_THREADS")})
    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = {
        key: {k: deps.get(key, {}).get(k) for k in ("name", "version", "openblas configuration")}
        for key in ("blas", "lapack")
    }
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_build": blas,
        "blas_threads": threads,
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "python": platform.python_version(),
        "mem_available_kib": mem_available_kib(),
        "git_commit": git_commit(),
    }


def repeat(step, start: float, seconds: float) -> list[Sample]:
    """Run ``step`` once, then again while another step fits before ``start + seconds``."""
    samples: list[Sample] = []
    while True:
        step_start = time.monotonic()
        samples += step()
        now = time.monotonic()
        if now + (now - step_start) > start + seconds:
            return samples


def measure(name: str, seed: int, seconds: float, trace: bool,
            volumes: tuple[int, ...] = VOLUMES) -> tuple[dict, dict]:
    """One benchmark run: the result object and the full record."""
    threads = blas_threads()
    work_root = OUT / "work"
    work_root.mkdir(parents=True, exist_ok=True)
    seed %= 2**64

    def sample(mode: str, sample_threads: int = threads) -> Sample:
        return run_sample(name, seed, volumes, mode, sample_threads, work_root)

    # Fills the bytecode and page caches; checked, but not timed.
    warmup = run_sample(name, seed, SMOKE_VOLUMES, "plain", threads, work_root)
    samples = [warmup]
    start = time.monotonic()
    if trace:
        cycle = [("plain", threads), ("trace", threads), ("trace", 1)]
        timed = repeat(lambda: [sample(mode, t) for mode, t in cycle], start, seconds)
        cycles = [timed[i:i + len(cycle)] for i in range(0, len(timed), len(cycle))]
        metrics, units = per_layer(cycles), PER_LAYER
    else:
        timed = repeat(lambda: [sample("plain")], start, seconds)
        metrics, units = end_to_end(timed), END_TO_END
    samples += timed
    attempted, failed = tally(samples)
    traced = [s for s in samples if s.mode == "trace" and s.ok]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "volumes": list(volumes),
        "environment": environment(threads),
        "attempted": attempted,
        "failed": failed,
        "error_rate": error_rate(samples),
        "metrics": {k: dict(v, unit=units[k]) if v else None for k, v in metrics.items()},
        "samples": [
            {k: v for k, v in vars(s).items() if k != "record"} for s in samples
        ],
        "spans": traced[-1].record["spans"] if traced else [],
        "untraced_functions": sorted({f for s in traced for f in s.record["missing"]}),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v["median"], "unit": units[k]} for k, v in metrics.items() if v
        },
    }
    return result, record


def write_record(record: dict) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{record['workload']}_seed{record['seed']}_trace{int(record['trace'])}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return path


def print_record(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} trace {int(record['trace'])}: "
          f"{record['failed']} of {record['attempted']} processes failed "
          f"(error_rate {record['error_rate']:g})")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, m in record["metrics"].items():
        if m is None:
            print(f"  {name:32s} (no sample)")
            continue
        spread = f" q1 {m['q1']:.6g} q3 {m['q3']:.6g}" if "q1" in m else ""
        print(f"  {name:32s} {m['median']:.6g} {m['unit']} (median of {m['n']}{spread})")
    if record["untraced_functions"]:
        print("  not found, so not traced: " + ", ".join(record["untraced_functions"]))
    for s in record["samples"]:
        for problem in s["problems"]:
            print(f"  failed {s['mode']} sample: {problem}")


def smoke() -> int:
    """Every workload at volumes 1..2, both trace settings; check the metric names."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        print(f"BENCHMARK.json workloads differ from run.py: {list(WORKLOADS)}")
        ok = False
    for trace, key, units in ((False, "end_to_end", END_TO_END), (True, "per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in declared[key]}
        if listed != units:
            print(f"BENCHMARK.json {key} differs from run.py: {listed} != {units}")
            ok = False
        for name in WORKLOADS:
            result, record = measure(name, seed=1, seconds=0, trace=trace, volumes=SMOKE_VOLUMES)
            write_record(record)
            print(f"{name} trace={int(trace)} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, unit in units.items():
                value = result["metrics"].get(metric, {}).get("value")
                print(f"  {metric:32s} {unit:6s} {value!r}")
                ok &= value is not None
            ok &= result["correct"]
    print("smoke " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at volumes 1..2 and list every metric")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spinaep" / "cli.py").is_file():
        print(f"no spinaep source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")

    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_record(record)
    print(f"record: {write_record(record).relative_to(ROOT)}")
    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        # The result line still carries the attempted and failed counts.
        print(f"no successful sample measured {', '.join(missing)}", file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
