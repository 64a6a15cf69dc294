"""Shared pieces of the benchmark workloads."""

import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


class CheckFailed(Exception):
    """An output of the program is wrong; the run exits non-zero."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


class Context:
    """What every workload gets: seed, scale, scratch directory, child env."""

    def __init__(self, seed, smoke, workdir, sampler):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.sampler = sampler
        self.env = dict(os.environ, PYTHONPATH=SRC)


# Every SAMPLE_INTERVAL_S the sampler runs PROBE_LOOPS steps of integer
# arithmetic, which take REFERENCE_PROBE_S on an uncontended core of the
# 2-vCPU Xeon VM this was calibrated on (about 1% of the process's time).
SAMPLE_INTERVAL_S = 0.02
PROBE_LOOPS = 2000
REFERENCE_PROBE_S = 0.0002
# Samples this close to an interval also describe it.
SAMPLE_PAD_S = 0.1


class SpeedSampler:
    """Measures how fast the process's core runs while the process works.

    On a 2-vCPU VM shared with other tenants the cores' speed
    swings by up to 2x for tens of seconds at a time; identical batches
    differ by as much, in wall and in CPU time alike.  A timer signal
    interrupts the process every ``SAMPLE_INTERVAL_S`` and times a fixed
    probe on the same core, between two bytecodes of whatever runs.  The
    mean probe time over an interval, against ``REFERENCE_PROBE_S``, is
    that interval's slowdown; wall seconds divided by it are reference
    seconds, the time the work would take on the uncontended core.  The
    probe touches a few bytes, so the program's cache footprint barely
    moves it.
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame):
        started = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOPS):
            x = (x * 31 + i) % 1000003
        self.samples.append((started, time.perf_counter() - started))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start=None, end=None):
        """Mean probe time in [start, end] (padded) over the reference."""
        if start is None:
            window = [d for _, d in self.samples]
        else:
            window = [d for t, d in self.samples
                      if start - SAMPLE_PAD_S <= t <= end + SAMPLE_PAD_S]
        if not window:
            raise CheckFailed("no speed samples in an interval of %.3f s" % (end - start))
        return statistics.fmean(window) / REFERENCE_PROBE_S

    def ref_s(self, start, end):
        """Reference seconds of the wall interval [start, end]."""
        return (end - start) / self.slowdown(start, end)


def launch(ctx, cli_args, cwd, spans_path="-"):
    """Run ``semcloud CLI_ARGS`` cold through the launcher.

    Returns (completed process, wall seconds, stats), where stats holds
    the import time and the slowdown the stage's own sampler measured.
    """
    stats_path = os.path.join(cwd, "launcher-stats.json")
    cmd = [sys.executable, os.path.join(HERE, "launcher.py"), stats_path, spans_path,
           "--", *cli_args]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=ctx.env, capture_output=True, text=True,
                          timeout=170)
    wall = time.perf_counter() - started
    with open(stats_path) as fh:
        stats = json.load(fh)
    os.remove(stats_path)
    return proc, wall, stats


def cold_import(ctx):
    """Reference seconds of a cold ``semcloud --help``: interpreter, import, CLI."""
    proc, wall, stats = launch(ctx, ["--help"], ctx.workdir)
    check(proc.returncode == 0, "semcloud --help failed: %s" % proc.stderr[-2000:])
    return wall / stats["slowdown"]


class Workload:
    """One benchmark workload.

    ``setup`` prepares inputs, fills lazy caches and returns the reference
    seconds it took; it is repeated.  ``batch`` runs the workload once,
    end to end, and returns ``batch_s``, ``phase1_s`` and ``phase2_s`` in
    reference seconds, ``batch_wall_s``, ``attempted`` and ``failed``
    (plus ``spans`` when it traced work in other processes).  ``finish``
    runs the checks that need every batch and returns the workload's own
    named metrics and the per-layer figures measured from outside.
    """

    attempted_base = None
    # Loop tracing happens in the stage processes; the others trace here.
    in_process = True

    def __init__(self, ctx):
        self.ctx = ctx

    def peak_rss_mb(self):
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
