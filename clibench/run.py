"""End-to-end benchmark of the sgeo CLI, run in-process.

    python3 clibench/run.py --workload exact_family --seed 1 --seconds 30 --trace 0

Each workload is a fixed list of ``sgeo`` commands (jobs).  One client
runs them one after another in this process through ``sgeo.cli.main``
with stdout captured, so no interpreter start-up is timed.  A run repeats
whole rounds of the list within ``--seconds`` (always at least one round).
Every job's exit code and output are checked against ``reference.py``,
which does not use sgeo.  Reported times are scaled to a reference
processor speed by speed probes timed around and during every job
(see README.md).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` sgeo's functions are wrapped and the
per-layer metrics of ``layers.py`` are reported instead.  See README.md.
"""

from __future__ import annotations

import sys

# Modules loaded by the interpreter's own start-up.  Every set-up drops all
# others, so importing sgeo costs what it costs in a new process.
STARTUP_MODULES = frozenset(sys.modules)

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import layers
import reference as ref

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"
SETUPS = 21

# Seconds the speed probe takes at the reference speed all timings are
# scaled to (about its median on the 2-core host the README describes).
PROBE_NOMINAL_S = 0.004
# How often a running job is interrupted for a short speed probe.
TICK_S = 0.1
PROBE_CUBE = ref.rows_from_edges(64, ref.hypercube_edges(6))
# A fixed connected 18-vertex graph of diameter 3.
PROBE_GRAPH = ref.rows_from_edges(18, [(u, v) for u in range(18) for v in range(u + 1, 18)
                                       if (u * 7 + v * 11) % 5 < 2])


def probe(reps: int = 2) -> tuple[float, float]:
    """Wall and CPU time of a fixed piece of graph work from reference.py.

    It is timed between consecutive set-ups and jobs, and on a timer
    signal during jobs, to measure how fast the processor runs this kind
    of interpreted code at that moment.  Times are per two repetitions.
    """
    w0, c0 = time.perf_counter(), time.process_time()
    for _ in range(reps):
        for s in range(64):
            ref.distance_table(PROBE_CUBE, s)
        dist = [ref.distance_table(PROBE_GRAPH, s) for s in range(18)]
        for v in range(1, 18):
            ref.geodesic_masks(PROBE_GRAPH, dist, 0, v)
    return (time.perf_counter() - w0) * 2 / reps, (time.process_time() - c0) * 2 / reps


class InJobProbes:
    """Speed probes taken while a job runs, each on a timer signal.

    The host's speed changes within a job of seconds, which the probes
    just before and after it do not see.  The time the probes take here is
    not counted to the job.
    """

    def __init__(self):
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.spent_wall = self.spent_cpu = 0.0

    def __call__(self, signum, frame) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        wall, cpu = probe(1)
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.spent_wall += time.perf_counter() - w0
        self.spent_cpu += time.process_time() - c0


@dataclass
class Job:
    argv: list[str]
    check: Callable[[str], Optional[str]]  # stdout -> None, or what is wrong
    save: Optional[Path] = None  # where a user would redirect stdout to


def write_graph(path: Path, n: int, edges, rng: random.Random) -> None:
    edges = list(edges)
    rng.shuffle(edges)
    path.write_text(ref.edge_list_text(n, edges))


def witness_fault(rows, doc) -> Optional[str]:
    try:
        assignment = [(a["u"], a["v"], a["path"]) for a in doc["assignment"]]
        return ref.check_witness(rows, doc["set"], assignment)
    except (KeyError, TypeError) as exc:
        return f"malformed witness: {exc!r}"


def check_exact(n: int, edges, expected: int):
    def check(out: str) -> Optional[str]:
        doc = json.loads(out)
        if doc.get("value") != expected:
            return f"value {doc.get('value')} != reference {expected}"
        if len(doc["witness"]["set"]) != expected:
            return "witness size differs from value"
        return witness_fault(ref.rows_from_edges(n, edges), doc["witness"])
    return check


# --- workloads ---------------------------------------------------------------
# Each workload function writes its input files into ``work`` and returns the jobs.

def exact_family(work: Path, rng: random.Random) -> list[Job]:
    """sgeo exact on every K(n,m) with n+m <= 14, crown(3..8) and Q1..Q4."""
    cases = [(f"K{n}_{m}", n + m, ref.bipartite_edges(n, m), ref.sg_bipartite(n, m))
             for n in range(1, 8) for m in range(n, 15 - n)]
    cases += [(f"crown{n}", 2 * n, ref.crown_edges(n), ref.sg_crown(n)) for n in range(3, 9)]
    cases += [(f"Q{d}", 1 << d, ref.hypercube_edges(d), ref.HYPERCUBE_KNOWN[d])
              for d in range(1, 5)]
    jobs = []
    for name, n, edges, expected in cases:
        path = work / f"{name}.txt"
        write_graph(path, n, edges, rng)
        jobs.append(Job(["exact", str(path)], check_exact(n, edges, expected)))
    rng.shuffle(jobs)
    return jobs


def exact_random(work: Path, rng: random.Random) -> list[Job]:
    """sgeo exact on the stored pool of random connected graphs."""
    jobs = []
    for g in ref.load_pool():
        edges = [tuple(e) for e in g["edges"]]
        path = work / f"{g['id']}.txt"
        write_graph(path, g["n"], edges, rng)
        jobs.append(Job(["exact", str(path)], check_exact(g["n"], edges, g["sg"])))
    rng.shuffle(jobs)
    return jobs


def check_construct(n: int, n0: int, improved: bool, edges):
    if improved:
        low, high = ref.hypercube_lower(n), ref.hypercube_improved(n, n0) + 1
    else:
        low = high = ref.hypercube_basic(n, n0)

    def check(out: str) -> Optional[str]:
        doc = json.loads(out)
        size = len(doc["witness"]["set"])
        if not low <= size <= high:
            return f"witness size {size} outside [{low}, {high}]"
        if doc.get("coverage", {}).get("covered") is not True:
            return "construct --verify did not report covered"
        return witness_fault(ref.rows_from_edges(1 << n, edges), doc["witness"])
    return check


def check_covered(out: str) -> Optional[str]:
    return None if json.loads(out).get("covered") is True else "verify did not report covered"


def check_table(out: str) -> Optional[str]:
    return None if out == ref.table_text(60) else "table differs from the reference rows"


def hypercube_witness(work: Path, rng: random.Random) -> list[Job]:
    """construct + verify hypercube witnesses for n = 8..11, then one table."""
    constructs, verifies = [], []
    for n in range(8, 12):
        n0 = (n + 2) // 2
        edges = ref.hypercube_edges(n)
        graph_file = work / f"Q{n}.txt"
        write_graph(graph_file, 1 << n, edges, rng)
        for improved in (False, True):
            witness_file = work / f"Q{n}-{'improved' if improved else 'basic'}.json"
            argv = ["construct", "hypercube", str(n), "--n0", str(n0), "--verify"]
            argv += ["--improved"] if improved else []
            constructs.append(Job(argv, check_construct(n, n0, improved, edges), witness_file))
            verifies.append(Job(["verify", str(graph_file), str(witness_file)], check_covered))
    verifies.append(Job(["table", "--max-n", "60"], check_table))
    rng.shuffle(constructs)
    rng.shuffle(verifies)
    return constructs + verifies


WORKLOADS = {f.__name__: f for f in (exact_family, exact_random, hypercube_witness)}


# --- measurement ---------------------------------------------------------------

def fresh_import():
    """Import sgeo from this checkout as a new process would.

    Every module loaded since the interpreter's start-up is dropped first,
    the standard-library ones sgeo needs included, so their import is
    timed in every set-up.  Modules already bound keep working.
    """
    for name in [m for m in sys.modules if m not in STARTUP_MODULES]:
        del sys.modules[name]
    import sgeo.cli
    return sgeo.cli


def set_up(work: Path, workload: str, seed: int):
    """Import sgeo afresh and write the workload's inputs; return cli, jobs."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cli = fresh_import()
    jobs = WORKLOADS[workload](work, random.Random(seed))
    return cli, jobs


def run_job(main, argv: list[str], tick: float):
    """Run one job, with a speed probe every ``tick`` seconds (none if 0)."""
    out, err = io.StringIO(), io.StringIO()
    inner = InJobProbes()
    signal.signal(signal.SIGALRM, inner)
    w0, c0 = time.perf_counter(), time.process_time()
    signal.setitimer(signal.ITIMER_REAL, tick, tick)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed job, like a traceback exit
            code = 1
            err.write(repr(exc))
    signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - w0 - inner.spent_wall
    cpu = time.process_time() - c0 - inner.spent_cpu
    signal.signal(signal.SIGALRM, signal.SIG_IGN)
    return code, out.getvalue(), err.getvalue(), wall, cpu, inner


@dataclass
class Run:
    """Timings of one run, each with the speed probes taken around and during it."""

    setups: list[tuple] = field(default_factory=list)  # (wall, [probe times around it])
    walls: list[list[tuple]] = field(default_factory=list)  # [round][job] -> same
    cpus: list[list[tuple]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    out_bytes: int = 0
    peak_rss_mb: float = 0.0


def timed_set_up(run: Run, work: Path, workload: str, seed: int):
    """One set-up between two speed probes; return cli, jobs."""
    gc.collect()
    before = probe()
    t0 = time.perf_counter()
    cli, jobs = set_up(work, workload, seed)
    took = time.perf_counter() - t0
    after = probe()
    run.setups.append((took, [before[0], after[0]]))
    return cli, jobs


def measure(work: Path, workload: str, seed: int, seconds: float, tracer) -> Run:
    """Set up, run whole rounds of the workload, then set up again.

    The jobs of every round come from the first set-up.  Another round
    starts only if it would end within ``seconds``, less the time kept for
    the later set-ups, even if it took as long as the longest round so far.
    Peak memory is read when the rounds end: a set-up's import of logging
    can never be freed (it registers fork and exit hooks), so each later
    set-up adds to the process's memory.  Those set-ups only time set-up.
    """
    run = Run()
    start = time.perf_counter()
    cli, jobs = timed_set_up(run, work, workload, seed)
    later_setups = (SETUPS - 1) * (time.perf_counter() - start)
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"sgeo was imported from {cli.__file__}, not {SRC}")
    if tracer is not None:
        tracer.install({name: sys.modules[f"sgeo.{name}"] for name in layers.LAYERS})
    # The traced run takes no probes in jobs; they would count to its spans.
    tick = 0 if tracer is not None else TICK_S
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        before = probe()
        walls, cpus, results = [], [], []
        for job in jobs:
            # Every job starts from the same collector state, so the order
            # of the jobs does not move garbage-collection cost between them.
            gc.collect()
            code, out, err, dt, dc, inner = run_job(cli.main, job.argv, tick)
            after = probe()
            walls.append((dt, [before[0], *inner.walls, after[0]]))
            cpus.append((dc, [before[1], *inner.cpus, after[1]]))
            before = after
            run.attempted += 1
            run.out_bytes += len(out.encode())
            if job.save is not None:
                job.save.write_text(out)
            results.append((job, code, out, err))
        # Checked after the round, so that only speed probes run between jobs.
        for job, code, out, err in results:
            if code != 0:
                fault = f"exited {code}: {err[-300:]}"
            else:
                try:
                    fault = job.check(out)
                except (ValueError, KeyError, TypeError) as exc:
                    fault = f"unreadable output: {exc!r}"
            if fault is not None:
                run.failed += 1
                print(f"job {job.argv}: {fault}", file=sys.stderr)
        run.walls.append(walls)
        run.cpus.append(cpus)
        elapsed = time.perf_counter() - start
        longest = max(longest, time.perf_counter() - round_start)
        if elapsed + longest + later_setups > seconds:
            break
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for _ in range(SETUPS - 1):
        timed_set_up(run, work, workload, seed)
    return run


def at_reference_speed(sample: tuple) -> float:
    """A time scaled by the speed probes taken just before, during and after it."""
    took, probes = sample
    return took * PROBE_NOMINAL_S / statistics.fmean(probes)


def end_to_end(run: Run) -> dict:
    """Medians over the run's rounds, jobs and set-ups, at reference speed."""
    def rounds(samples):
        return statistics.median(sum(map(at_reference_speed, r)) for r in samples)

    jobs = [at_reference_speed(t) for r in run.walls for t in r]
    return {
        "wall_s": {"value": rounds(run.walls), "unit": "s"},
        "cpu_s": {"value": rounds(run.cpus), "unit": "s"},
        "job_p50_ms": {"value": 1000 * statistics.median(jobs), "unit": "ms"},
        "setup_s": {"value": statistics.median(map(at_reference_speed, run.setups)),
                    "unit": "s"},
        "peak_rss_mb": {"value": run.peak_rss_mb, "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sgeo CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sgeo" / "__init__.py").is_file():
        print(f"no sgeo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tracer = layers.Tracer() if args.trace else None
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        run = measure(work, args.workload, args.seed, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rounds = [round(sum(t for t, _ in r), 3) for r in run.walls]
    probes = [p for r in run.walls for _, ps in r for p in ps]
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(rounds)} rounds "
          f"of {len(run.walls[0])} jobs, measured round wall s {rounds}, "
          f"median probe {statistics.median(probes) * 1000:.3f} ms", file=sys.stderr)
    if tracer is not None:
        metrics = tracer.metrics(len(rounds), run.out_bytes)
        dump = WORK / f"trace-{args.workload}.json"
        dump.write_text(json.dumps({"round_wall_s": rounds, **tracer.dump()}, indent=1))
    else:
        metrics = end_to_end(run)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 1 if run.failed else 0


if __name__ == "__main__":
    sys.exit(main())
