"""bookhopf benchmark: closed-loop CLI workloads behind a correctness oracle.

Run from the repository root:

    python3 perfbench/run.py --workload classify-p7 --seed 1 --seconds 20 --trace 0

One client runs a closed loop: each operation is a fresh ``bookhopf``
process built from ``src/`` (``python3 -m bookhopf.cli ... --format json``),
and the next starts only after it exits and the oracle has judged its output.
Operations start until ``--seconds`` have passed.  ``--trace 0`` reports the
end-to-end metrics, with times corrected for the core speed measured while
each child runs; ``--trace 1`` runs the traced per-layer suite in this
process instead (see layers.py).  ``--workload all`` runs every workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``.  Each run is also appended to
``perfbench/out/results.jsonl`` with its provenance, and traced runs write
their spans to ``perfbench/out/``.  See perfbench/README.md.
"""

import argparse
import itertools
import json
import os
import platform
import random
import resource
import select
import signal
import subprocess
import sys
from pathlib import Path
from statistics import fmean, median
from time import perf_counter

from oracle import Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SPAWNS = 7
# The host's per-core speed changes by up to 1.8x within seconds (a neighbour
# on the same physical core), so every child runs on this process's core and
# this process times a short probe loop there every PROBE_EVERY_S.  Times are
# reported at the speed where the probe takes PROBE_REF_S, about a quiet core
# of a 2-core Intel Xeon virtual machine; raw times go to results.jsonl.
PROBE_LOOPS = 3000
PROBE_EVERY_S = 0.1
PROBE_REF_S = 0.0009


def _s_cycle(rng, s_values, make_op):
    """Every s once per round, in a seeded order, so each run sees a balanced mix."""
    while True:
        order = list(s_values)
        rng.shuffle(order)
        for s in order:
            yield make_op(s)


WORKLOADS = {
    # mpi: enumerate_characters dominates; axioms does no work.
    "classify-p7": lambda rng: _s_cycle(rng, range(1, 7), lambda s: Op("classify", 7, s)),
    # axioms pass path: exhaustive bialgebra check and sampled associativity.
    "verify-p7": lambda rng: _s_cycle(
        rng, range(1, 7), lambda s: Op("verify", 7, s, seed=rng.randrange(1 << 31))
    ),
    # axioms failure path: 3 751 violations recorded, rendered and parsed back.
    "negctl-p5": lambda rng: itertools.repeat(Op("verify", 5, 0, permissive=True)),
    # hopf table fills and large memory; fails today (false violations at p >= 11).
    "verify-p11": lambda rng: _s_cycle(
        rng, range(1, 11), lambda s: Op("verify", 11, s, seed=rng.randrange(1 << 31), sample_size=300)
    ),
}


class BenchFault(Exception):
    """The benchmark itself misbehaved (not the program under test)."""


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def probe():
    """Seconds one fixed loop of tuple-keyed dict updates takes, the kind of work bookhopf does."""
    start = perf_counter()
    acc = {}
    for i in range(PROBE_LOOPS):
        key = (i * 31) % 97, i & 7
        acc[key] = acc.get(key, 0) + i * i % 65537
    return perf_counter() - start


def slowdown(samples):
    """How much slower than reference the core ran while the samples were taken.

    The samples are evenly spaced in time, so the mean of the probe's speed
    (PROBE_REF_S over each sample) is the core's mean speed over that time.
    """
    return 1.0 / fmean(PROBE_REF_S / t for t in samples)


def run_child(argv, stdout):
    """Run one child on this process's core, probing the core while it runs.

    Returns (wall_s, rusage, exit code, probe samples).  The first sample is
    taken just before the spawn, so a child shorter than PROBE_EVERY_S still
    has one.
    """
    samples = [probe()]
    with open(OUT / "stderr.txt", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=err, env=child_env(), cwd=ROOT)
        exited = os.pidfd_open(proc.pid)
        try:
            while not select.select([exited], [], [], PROBE_EVERY_S)[0]:
                samples.append(probe())
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(exited)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode, samples


def run_op(op):
    """Spawn one ``bookhopf`` process and judge its output; return its per-operation record."""
    argv = [sys.executable, "-m", "bookhopf.cli", *op.argv()]
    with open(OUT / "stdout.json", "w+b") as out:
        wall, usage, code, samples = run_child(argv, out)
        out.seek(0)
        # The oracle parses the output in a process of its own: a child's
        # ru_maxrss starts at its parent's peak, so this process stays small.
        judged = subprocess.run([sys.executable, str(HERE / "oracle.py"), json.dumps(op), str(code)],
                                stdin=out, capture_output=True, check=True)
    cpu = usage.ru_utime + usage.ru_stime
    factor = slowdown(samples)
    return {"argv": op.argv(), "wall_s": wall / factor, "cpu_s": cpu / factor,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "raw_wall_s": wall, "raw_cpu_s": cpu,
            "slowdown": factor, "probes": len(samples), "exit": code, "samples": samples,
            "problems": json.loads(judged.stdout)[:5]}


def setup_seconds(op):
    """Set-up time for ``op`` at reference core speed: the median of SETUP_SPAWNS spawns.

    Each spawn imports bookhopf and builds the operation's algebra.  A spawn
    is too short for more than a probe or two, so the slowdown is taken
    over the samples of all of them.
    """
    code = f"import bookhopf; bookhopf.BookAlgebra({op.p}, {op.s}, permissive={op.permissive})"
    walls, samples = [], []
    for _ in range(SETUP_SPAWNS):
        wall, _, exit_code, probes = run_child([sys.executable, "-c", code], subprocess.DEVNULL)
        if exit_code != 0:
            raise BenchFault(f"set-up child exited with {exit_code}; see {OUT / 'stderr.txt'}")
        walls.append(wall)
        samples += probes
    return median(walls) / slowdown(samples)


def tail(values):
    """(label, value) of the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    for q in (99, 90, 75, 50):
        beyond = len(ordered) * (100 - q) // 100
        if beyond >= 10:
            return f"p{q}", ordered[len(ordered) - beyond - 1]
    return None


def measure(workload, seed, seconds):
    """Closed loop of CLI operations; return (metrics, attempted, failed, per-op records)."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit the core
    ops = WORKLOADS[workload](random.Random(seed))
    first = next(ops)
    run_child([sys.executable, "-c", "import bookhopf.cli"], subprocess.DEVNULL)  # byte-compiles a fresh checkout
    setup = setup_seconds(first)
    records = []
    deadline = perf_counter() + seconds
    for op in itertools.chain([first], ops):
        record = run_op(op)
        records.append(record)
        for msg in record["problems"]:
            print(f"  oracle rejects {' '.join(op.argv())}: {msg}", file=sys.stderr)
        if perf_counter() >= deadline:
            break
    own_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if own_peak >= min(r["peak_rss_mb"] for r in records):
        raise BenchFault(f"this process peaked at {own_peak:.1f} MB, so a child's ru_maxrss may be ours")
    failed = sum(bool(r["problems"]) for r in records)
    metrics = {name: median(r[name] for r in records) for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = setup
    return metrics, len(records), failed, records


def trace(workload, seed):
    """Traced per-layer suite; return (metrics, attempted sections, failed sections)."""
    import layers  # imports bookhopf, so only after SRC is on sys.path

    tracer = layers.Tracer()
    rng = random.Random(seed)
    op = next(WORKLOADS[workload](rng))
    metrics, counts, problems, failed = layers.run_suite(tracer, rng, op)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    for msg in problems:
        print(f"  layer check fails: {msg}", file=sys.stderr)
    check_counts_repeat(OUT / f"counts-{workload}-seed{seed}.json", counts)
    metrics.update(counts)
    return metrics, len(layers.SECTIONS), failed


def check_counts_repeat(path, counts):
    """Work counts are deterministic: a differing earlier run with this seed is a fault."""
    if path.exists():
        before = json.loads(path.read_text())
        if before != counts:
            diff = sorted(k for k in before.keys() | counts.keys() if before.get(k) != counts.get(k))
            raise BenchFault(f"work counts differ from an earlier run with this seed: {diff}")
    else:
        path.write_text(json.dumps(counts, sort_keys=True))


def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def declared_metrics(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def run_workload(workload, seed, seconds, traced, provenance):
    if traced:
        values, attempted, failed = trace(workload, seed)
        records = None
    else:
        values, attempted, failed, records = measure(workload, seed, seconds)
    units = declared_metrics(traced)
    if values.keys() != units.keys():
        raise BenchFault(f"metrics {sorted(values.keys() ^ units.keys())} differ from BENCHMARK.json")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(OUT / "results.jsonl", "a") as fh:
        row = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
               "provenance": provenance, "ops": records, **result}
        fh.write(json.dumps(row) + "\n")
    if not traced:
        walls = [r["wall_s"] for r in records]
        extra = tail(walls)
        extra = f", {extra[0]} {extra[1]:.3f} s" if extra else ""
        raw_wall = median(r["raw_wall_s"] for r in records)
        factor = median(r["slowdown"] for r in records)
        print(f"{workload} seed={seed}: {attempted} ops, failed_frac {failed / attempted:.3f} ratio, "
              f"wall_s {values['wall_s']:.3f} s (median{extra}), cpu_s {values['cpu_s']:.3f} s, "
              f"setup_s {values['setup_s']:.4f} s, peak_rss_mb {values['peak_rss_mb']:.1f} MB; "
              f"raw wall {raw_wall:.3f} s at slowdown {factor:.3f}")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "bookhopf" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: run from a bookhopf checkout; {SRC / 'bookhopf'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))  # so children are killed
    provenance = {"revision": git_revision(), "python": platform.python_version(),
                  "nproc": len(os.sched_getaffinity(0))}
    print(f"provenance: {json.dumps(provenance)}")
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace), provenance)
            print(json.dumps(result))
    except BenchFault as exc:
        print(f"benchmark fault: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
