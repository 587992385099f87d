"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For each workload it makes one
untraced run and two traced runs of one seed at a tiny size, and checks:

- every reply matched its expected decision and the run exited 0;
- every end-to-end and per-layer metric is reported, with its unit;
- the counts the benchmark promises to repeat do repeat exactly across
  the two traced runs of the seed;
- the traced numbers match the workload design (the prover idles on
  session-distinct and works on trust-churn; verification costs most on
  proof-carrying; the decode cache never hits distinct traffic);
- the per-layer self times explain server CPU within the stated share.

Finally it checks that the benchmark refuses to run, without printing a
result, in a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
import world

SEED = 7
SECONDS = 0.5
#: Counts that depend only on the request stream, never on timing.
REPEATING = (
    "gc.gen2_collections",
    "guard.audit_records_per_op",
    "guard.fastpath_ratio",
    "guard.proof_cache_ratio",
    "guard.prover_ratio",
    "cluster.entries_invalidated_per_rotation",
)


def bench(workload, trace, cwd=world.ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join(world.HERE, "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return done


def parse(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main():
    failures = []

    def expect(condition, message):
        if not condition:
            failures.append(message)
            print("FAIL", message)

    traced = {}
    for name in world.WORKLOADS:
        for trace, expected in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            runs = []
            for _ in range(2 if trace else 1):
                done = bench(name, trace)
                expect(done.returncode == 0, "%s trace=%d exited %d: %s"
                       % (name, trace, done.returncode, done.stderr[-400:]))
                if done.returncode != 0:
                    continue
                report, result = parse(done)
                expect(result["correct"] and result["failed"] == 0,
                       "%s trace=%d: %d of %d replies wrong"
                       % (name, trace, result["failed"], result["attempted"]))
                expect(set(result["metrics"]) == set(expected),
                       "%s trace=%d reports %s"
                       % (name, trace, sorted(result["metrics"])))
                for metric, unit in expected.items():
                    got = result["metrics"].get(metric, {}).get("unit")
                    expect(got == unit, "%s %s unit %r" % (name, metric, got))
                runs.append(report)
            if trace and len(runs) == 2:
                first, second = (r["metrics"] for r in runs)
                for metric in REPEATING:
                    expect(first[metric] == second[metric],
                           "%s %s did not repeat: %r then %r"
                           % (name, metric, first[metric], second[metric]))
                for report in runs:
                    expect(report["accounting"]["explained_us_per_op"]
                           >= (1 - run.ACCOUNTING_TOLERANCE)
                           * report["accounting"]["cpu_us_per_op"],
                           "%s accounting %r" % (name, report["accounting"]))
                traced[name] = first
        print("ok" if not failures else "..", name)

    if len(traced) == len(world.WORKLOADS):
        expect(traced["session-distinct"]["prover.calls_per_op"] < 0.01,
               "prover works on session-distinct")
        expect(traced["trust-churn"]["prover.calls_per_op"] > 0,
               "prover idle on trust-churn")
        verify = {name: figures["verify.us_per_op"]
                  for name, figures in traced.items()}
        expect(max(verify, key=verify.get) == "proof-carrying",
               "verification costs most on %s" % max(verify, key=verify.get))
        for name, figures in traced.items():
            expect(figures["codec.decode_hit_ratio"] < 0.01,
                   "%s decode cache hits" % name)
        expect(traced["trust-churn"]["cluster.entries_invalidated_per_rotation"]
               > 0, "rotations invalidate nothing")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(world.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(world.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "session-distinct", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        expect(done.returncode != 0 and not done.stdout.strip(),
               "runs without a program: exit %d, output %r"
               % (done.returncode, done.stdout[-200:]))

    print("self-test: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
