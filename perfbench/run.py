"""The repository benchmark: one workload, end to end, over real sockets.

    python3 perfbench/run.py --workload session-distinct --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a checkout.  The server (``server.py``: an
``AuthCluster(node_count=4)`` behind one ``ServeListener``) and the load
generator (``loadgen.py``) run as two processes, each pinned to its own
core.  A run is several trials; each starts a fresh server (one
``setup_s`` sample) and sends it the run's pre-built frames in a
count-sized warm-up and two measured phases, both sized by request
count, never by wall time:

- ``paced``: an open loop at the workload's fixed rate;
- ``capacity``: a closed loop keeping two pipelined windows in flight.

Throughput and server CPU are totals over every trial's capacity phase;
the median latency is that of the trial whose pacer kept its schedule
best; set-up time and RSS are medians over the trials.  The paced
tail (99th and 99.9th percentiles over every trial's requests together)
is in the report, not among the gated metrics: it follows the collector's
pauses, whose length varies more between runs on a shared host than any
bound allows.  With ``--trace 1`` the capacity phase runs half
untraced and half with per-layer timers installed in the server, and
the run reports the per-layer metrics instead of the end-to-end ones.  ``perfbench/DESIGN.md`` says why.

Every reply is checked.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it is the full report: every metric of the run, validity flags,
and a stamp (source revision, cores, Python version, seed).  The exit
code is 1 when any reply differed from the expected decision, 2 when
the checkout holds no library to serve.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time

import world

perf_counter = time.perf_counter

#: Seconds any one step of a run may take before the run gives up.
STEP_TIMEOUT_S = 120.0
#: Share of the generator core's time per operation the generator may
#: use before the capacity figure says more about it than the server.
LOADGEN_BUDGET_SHARE = 0.8
#: 99th-percentile lateness of the pacer beyond which the open loop no
#: longer kept its schedule.
PACER_LATE_LIMIT_MS = 2.0
#: Traced run: per-layer self times plus collector time must explain
#: server CPU to within this share; the rest is ``serve.unaccounted``.
ACCOUNTING_TOLERANCE = 0.35

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "server_cpu_us_per_op": "us",
    "latency_p50_ms": "ms",
    "server_rss_mb": "MB",
}
PER_LAYER = {
    "serve.batch_size_mean": "count",
    "serve.self_us_per_op": "us",
    "serve.unaccounted_us_per_op": "us",
    "codec.decode_us_per_frame": "us",
    "codec.encode_us_per_reply": "us",
    "codec.decode_hit_ratio": "ratio",
    "cluster.self_us_per_op": "us",
    "cluster.guard_calls_per_batch": "count",
    "cluster.write_us_per_rotation": "us",
    "cluster.entries_invalidated_per_rotation": "count",
    "guard.self_us_per_op": "us",
    "guard.fastpath_ratio": "ratio",
    "guard.proof_cache_ratio": "ratio",
    "guard.prover_ratio": "ratio",
    "guard.audit_records_per_op": "count",
    "prover.calls_per_op": "count",
    "prover.us_per_call": "us",
    "verify.us_per_op": "us",
    "gc.pause_ms_per_kop": "ms",
    "gc.gen2_collections": "count",
    "gc.max_pause_ms": "ms",
    "mem.retained_objects_per_op": "count",
    "loadgen.cpu_us_per_op": "us",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """A step of the run failed; the run cannot produce figures."""


class Child:
    """A pinned helper process spoken to in JSON lines."""

    def __init__(self, script, args):
        self.name = script
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(world.HERE, script)] + args,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=world.ROOT,
        )
        self._buffer = b""

    def send(self, message):
        self.proc.stdin.write((json.dumps(message) + "\n").encode())
        self.proc.stdin.flush()

    def read(self, timeout=STEP_TIMEOUT_S):
        deadline = perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            left = deadline - perf_counter()
            if left <= 0:
                raise BenchError("%s: no answer in %.0f s" % (self.name, timeout))
            ready, _, _ = select.select([fd], [], [], left)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise BenchError("%s exited with %s" % (
                    self.name, self.proc.wait()))
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        message = json.loads(line)
        if "error" in message:
            raise BenchError("%s: %s" % (self.name, message["error"]))
        return message

    def call(self, message, timeout=STEP_TIMEOUT_S):
        self.send(message)
        return self.read(timeout)

    def stop(self):
        """Ask the process to quit, then make sure it has ended."""
        if self.proc.poll() is None:
            try:
                self.send({"cmd": "quit"})
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()


def stamp(args, cores):
    def git(*command):
        try:
            done = subprocess.run(
                ["git"] + list(command), cwd=world.ROOT,
                capture_output=True, text=True, timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    digest = hashlib.sha256()
    for directory, dirnames, filenames in sorted(os.walk(world.SRC)):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(directory, filename)
                digest.update(os.path.relpath(path, world.SRC).encode())
                with open(path, "rb") as source:
                    digest.update(source.read())
    revision = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_rev": revision,
        "dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest()[:16],
        "cores": cores,
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def delta(after, before, *path):
    for key in path:
        after, before = after[key], before[key]
    return after - before


def percentile(values, fraction):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = int(math.ceil(fraction * len(ordered))) - 1
    return ordered[max(0, min(len(ordered) - 1, rank))]


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


class Trial:
    """One fresh server process fed the run's frames once."""

    def __init__(self):
        self.setup_s = None
        self.phases = {}
        self.marks = {}
        self.objects = {}

    def traced_totals(self):
        """Additive quantities of a traced trial, for summing over trials."""
        before, after = self.marks["traced"], self.marks["end"]
        untraced = self.marks["capacity"]
        start, end = self.marks["start"], self.marks["end"]
        layers = {
            kind: {name: delta(after, before, "layers", kind, name)
                   for name in after["layers"][kind]}
            for kind in ("self_s", "total_s", "gc_in_s", "calls", "stages")
        }
        listener = {name: delta(after, before, "listener", name)
                    for name in ("batches", "batched_requests",
                                 "decode_hits", "decode_misses")}
        return {
            "layers": layers,
            "listener": listener,
            "ops": self.phases["capacity_traced"]["attempted"],
            "cpu_s": delta(after, before, "cpu_s"),
            "gc_s": delta(after, before, "layers", "gc_s"),
            "untraced_ops": self.phases["capacity"]["attempted"],
            "untraced_cpu_s": delta(before, untraced, "cpu_s")
            - delta(before, untraced, "layers", "gc_s"),
            "rotations": delta(after, before, "rotations"),
            "invalidated": delta(after, before, "invalidated"),
            "audit_records": delta(after, before, "audit_records"),
            "run_ops": sum(phase["attempted"]
                           for phase in self.phases.values()),
            "run_gc_s": delta(end, start, "layers", "gc_s"),
            "gen2": end["gc_collections"][2] - start["gc_collections"][2]
            - delta(end, start, "layers", "settles"),
            "retained": self.objects["end"] - self.objects["start"],
            "loadgen_cpu_s": self.phases["capacity"]["cpu_s"]
            + self.phases["capacity_traced"]["cpu_s"],
        }


def _summed(values):
    """Sum a list of equally shaped nested dicts of numbers."""
    first = values[0]
    if isinstance(first, dict):
        return {key: _summed([value[key] for value in values])
                for key in first}
    return sum(values)


class Run:
    def __init__(self, args):
        self.args = args
        self.workload = world.WORKLOADS[args.workload]
        self.trial_count, self.sizes = self.workload.plan(args.seconds)
        cores = sorted(os.sched_getaffinity(0))
        self.cores = len(cores)
        self.server_core = cores[0]
        self.loadgen_core = cores[-1]
        self.children = []
        self.trials = []
        self.paced_latency = []     # every paced request of every trial
        self.accounting = None

    def spawn(self, script, args):
        child = Child(script, args)
        self.children.append(child)
        return child

    def close(self):
        for child in self.children:
            child.stop()

    def execute(self):
        workload, sizes, args = self.workload, self.sizes, self.args
        total = sizes["warmup"] + sizes["capacity"] + sizes["paced"]
        loadgen = self.spawn("loadgen.py", ["--core", str(self.loadgen_core)])
        job = {"cmd": "build", "workload": workload.name, "seed": args.seed,
               "total": total}
        if not workload.sessions:
            # Nothing to wait for: build while the first server starts.
            loadgen.send(dict(job, sessions=[]))
        sessions = None
        for _ in range(self.trial_count):
            trial = Trial()
            started = perf_counter()
            server = self.spawn("server.py", [
                "--workload", workload.name, "--seed", str(args.seed),
                "--core", str(self.server_core),
            ])
            ready = server.read()
            trial.setup_s = perf_counter() - started
            if sessions is None:
                sessions = ready["sessions"]
                self.server_affinity = ready["affinity"]
                if workload.sessions:
                    loadgen.send(dict(job, sessions=sessions))
                built = loadgen.read()
                self.loadgen_affinity = built["affinity"]
                self.build_s = built["build_s"]
            elif ready["sessions"] != sessions:
                raise BenchError("server start-ups minted different sessions")
            server.call({"cmd": "prepare",
                         "rotations": workload.rotations(total) + 1})
            loadgen.call({"cmd": "connect", "port": ready["port"]})
            self.run_trial(trial, server, loadgen)
            loadgen.call({"cmd": "disconnect"})
            server.stop()
            self.trials.append(trial)

    def run_trial(self, trial, server, loadgen):
        sizes, traced = self.sizes, self.args.trace

        def mark(name, settle=False):
            trial.marks[name] = server.call({"cmd": "mark", "settle": settle})

        def closed(name, count):
            trial.phases[name] = loadgen.call({"cmd": "closed", "count": count})

        if traced:
            trial.objects["start"] = server.call({"cmd": "objects"})["objects"]
        mark("start")
        closed("warmup", sizes["warmup"])
        mark("paced", settle=True)
        paced = loadgen.call({
            "cmd": "paced", "count": sizes["paced"],
            "rate": self.workload.paced_rps,
        })
        latency = paced.pop("latency_ms")
        paced["latency_p50_ms"] = percentile(latency, 0.50)
        paced["latency_p99_ms"] = percentile(latency, 0.99)
        paced["late_p99_ms"] = percentile(paced.pop("late_ms"), 0.99)
        trial.phases["paced"] = paced
        self.paced_latency.extend(latency)
        mark("capacity", settle=True)
        if traced:
            first = sizes["capacity"] // 2
            closed("capacity", first)
            mark("traced")
            server.call({"cmd": "trace", "on": True})
            closed("capacity_traced", sizes["capacity"] - first)
            mark("end")
            server.call({"cmd": "trace", "on": False})
            trial.objects["end"] = server.call({"cmd": "objects"})["objects"]
        else:
            closed("capacity", sizes["capacity"])
            mark("end")

    # -- figures -----------------------------------------------------------

    def counts(self):
        phases = [phase for trial in self.trials
                  for phase in trial.phases.values()]
        attempted = sum(phase["attempted"] for phase in phases)
        failed = sum(phase["failed"] for phase in phases)
        return attempted, failed

    def end_to_end(self):
        """Throughput and CPU over the capacity phases of every trial
        together; latency from the trial whose pacer ran least late;
        set-up time and RSS are medians over the trials."""
        trials = self.trials
        capacity = [trial.phases["capacity"] for trial in trials]
        cpu = sum(delta(trial.marks["end"], trial.marks["capacity"], "cpu_s")
                  for trial in trials)

        def median(figure):
            return statistics.median(figure(trial) for trial in trials)

        # Now and then the host preempts the generator's core; a trial in
        # which the pacer fell behind timed the generator's stalls too.
        steadiest = min(
            trials, key=lambda trial: trial.phases["paced"]["late_p99_ms"])

        return {
            "setup_s": median(lambda trial: trial.setup_s),
            "throughput_rps": sum(phase["ok"] for phase in capacity)
            / sum(phase["elapsed_s"] for phase in capacity),
            "server_cpu_us_per_op": cpu
            / sum(phase["attempted"] for phase in capacity) * 1e6,
            "latency_p50_ms": steadiest.phases["paced"]["latency_p50_ms"],
            "server_rss_mb": median(
                lambda trial: trial.marks["end"]["rss_mb"]),
        }

    def tail(self):
        """The paced tail over every trial's requests together, with the
        sample count: reported, not gated."""
        latency = self.paced_latency
        return {
            "samples": len(latency),
            "latency_p99_ms": percentile(latency, 0.99),
            "latency_p999_ms": percentile(latency, 0.999),
        }

    def per_layer(self):
        """Totals over every trial's traced half, then ratios."""
        totals = _summed([trial.traced_totals() for trial in self.trials])
        layers, listener = totals["layers"], totals["listener"]
        ops, cpu, gc_s = totals["ops"], totals["cpu_s"], totals["gc_s"]
        self_total = sum(layers["self_s"].values())
        rotations = totals["rotations"]

        def layer(kind, name):
            return layers[kind][name]

        def net(name):
            """Inclusive seconds in a layer, less collector pauses."""
            return layer("total_s", name) - layer("gc_in_s", name)

        self.accounting = {
            "cpu_us_per_op": cpu / ops * 1e6,
            "explained_us_per_op": (self_total + gc_s) / ops * 1e6,
        }
        return {
            "serve.batch_size_mean": ratio(
                listener["batched_requests"], listener["batches"]),
            "serve.self_us_per_op": layer("self_s", "serve") / ops * 1e6,
            "serve.unaccounted_us_per_op":
                (cpu - self_total - gc_s) / ops * 1e6,
            "codec.decode_us_per_frame": ratio(
                net("decode"), layer("calls", "decode")) * 1e6,
            "codec.encode_us_per_reply": ratio(
                net("encode"), layer("calls", "encode")) * 1e6,
            "codec.decode_hit_ratio": ratio(
                listener["decode_hits"],
                listener["decode_hits"] + listener["decode_misses"]),
            "cluster.self_us_per_op": layer("self_s", "cluster") / ops * 1e6,
            "cluster.guard_calls_per_batch": ratio(
                layer("calls", "guard"), layer("calls", "cluster")),
            "cluster.write_us_per_rotation": ratio(
                net("cluster_write"), rotations) * 1e6,
            "cluster.entries_invalidated_per_rotation": ratio(
                totals["invalidated"], rotations),
            "guard.self_us_per_op": layer("self_s", "guard") / ops * 1e6,
            "guard.fastpath_ratio": layer("stages", "fastpath") / ops,
            "guard.proof_cache_ratio": layer("stages", "proof_cache") / ops,
            "guard.prover_ratio": layer("stages", "prover") / ops,
            "guard.audit_records_per_op": totals["audit_records"] / ops,
            "prover.calls_per_op": layer("calls", "prover") / ops,
            "prover.us_per_call": ratio(
                net("prover"), layer("calls", "prover")) * 1e6,
            "verify.us_per_op": net("verify") / ops * 1e6,
            "gc.pause_ms_per_kop":
                totals["run_gc_s"] * 1e3 / (totals["run_ops"] / 1e3),
            "gc.gen2_collections": totals["gen2"] / len(self.trials),
            "gc.max_pause_ms": max(
                trial.marks["end"]["layers"]["gc_max_s"]
                for trial in self.trials) * 1e3,
            "mem.retained_objects_per_op":
                totals["retained"] / totals["run_ops"],
            "loadgen.cpu_us_per_op": totals["loadgen_cpu_s"]
            / (ops + totals["untraced_ops"]) * 1e6,
            "loadgen.late_p99_ms": statistics.median(
                trial.phases["paced"]["late_p99_ms"]
                for trial in self.trials),
            "trace.overhead_ratio": ratio(
                (cpu - gc_s) / ops,
                totals["untraced_cpu_s"] / totals["untraced_ops"]),
        }

    def validity(self, figures):
        problems = []
        if self.server_affinity != [self.server_core] \
                or self.loadgen_affinity != [self.loadgen_core] \
                or self.server_core == self.loadgen_core:
            problems.append(
                "not pinned apart: server on %s, generator on %s"
                % (self.server_affinity, self.loadgen_affinity))
        for index, trial in enumerate(self.trials):
            capacity = trial.phases["capacity"]
            loadgen_us = capacity["cpu_s"] / capacity["attempted"] * 1e6
            budget_us = capacity["elapsed_s"] / capacity["attempted"] * 1e6
            if loadgen_us > LOADGEN_BUDGET_SHARE * budget_us:
                problems.append(
                    "trial %d: generator used %.1f of its %.1f us per op"
                    % (index, loadgen_us, budget_us))
            late = trial.phases["paced"]["late_p99_ms"]
            if late > PACER_LATE_LIMIT_MS:
                problems.append(
                    "trial %d: pacer fell behind: p99 lateness %.2f ms"
                    % (index, late))
        if self.args.trace:
            share = abs(figures["serve.unaccounted_us_per_op"]) / \
                self.accounting["cpu_us_per_op"]
            if share > ACCOUNTING_TOLERANCE:
                problems.append(
                    "layers explain only %.1f of %.1f us per op"
                    % (self.accounting["explained_us_per_op"],
                       self.accounting["cpu_us_per_op"]))
        return problems


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(world.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not world.library_present():
        sys.stderr.write(
            "run.py: no library at %s; run from the root of a checkout\n"
            % world.SRC)
        return 2
    run = Run(args)
    os.sched_setaffinity(0, {run.loadgen_core})
    # A terminated run still stops and reaps its helper processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        run.execute()
    except BenchError as exc:
        sys.stderr.write("run.py: %s\n" % exc)
        return 3
    finally:
        run.close()
    attempted, failed = run.counts()
    if args.trace:
        figures, names = run.per_layer(), PER_LAYER
    else:
        figures, names = run.end_to_end(), END_TO_END
    problems = run.validity(figures)
    report = {
        "stamp": stamp(args, run.cores),
        "sizes": run.sizes,
        "build_s": run.build_s,
        "trials": [{"setup_s": trial.setup_s, "phases": trial.phases,
                    "marks": trial.marks} for trial in run.trials],
        "error_rate": failed / attempted,
        "tail": run.tail(),
        "valid": not problems,
        "problems": problems,
        "metrics": figures,
    }
    if args.trace:
        report["accounting"] = dict(run.accounting,
                                    tolerance=ACCOUNTING_TOLERANCE)
    for problem in problems:
        sys.stderr.write("run.py: invalid run: %s\n" % problem)
    for phase in [phase for trial in run.trials
                  for phase in trial.phases.values()]:
        for reason in phase["reasons"]:
            sys.stderr.write("run.py: mismatch: %s\n" % reason)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": figures[name], "unit": unit}
                    for name, unit in names.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
