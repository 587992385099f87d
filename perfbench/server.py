"""The benchmark's server process: one listener over a 4-node cluster.

Run by ``run.py``, pinned to its own core.  It builds the authorization
world for one workload, starts a :class:`~repro.serve.ServeListener`
on a loopback port, and prints one ``ready`` line (port, session
secrets, affinity).  After that it answers one-line JSON commands on
stdin, each executed on the listener's own event loop:

- ``prepare``: sign the replacement group certificates trust-churn
  rotates through (input generation, outside every timed phase);
- ``mark``: process CPU, collector counts, listener and audit counters,
  and the per-layer clock; with ``settle``, after a full collection
  that the collector figures leave out;
- ``trace``: install or remove the per-layer timers;
- ``objects``: how many objects the collector tracks;
- ``quit``: shut the listener down and exit.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import random
import sys
import threading
import time

import world
from tracing import LayerClock


class ChurnBackend:
    """The cluster, with a group certificate rotated every
    ``every``-th check.

    Rotation points sit at fixed positions in the check stream — a
    listener batch is split where one falls — so every run of a seed
    interleaves the same reads and writes.  A rotation goes through the
    public cluster API only: digest the replacement, revoke the old
    serial, pump one invalidation round.  The replacement lands first,
    so no check ever falls into a gap.
    """

    def __init__(self, cluster, serials, every):
        self.cluster = cluster
        self.serials = serials          # current serial per group
        self.every = every
        self.replacements = []          # SignedCertificateStep per rotation
        self.layers = None              # the LayerClock, while traced
        self.served = 0
        self.rotations = 0
        self.invalidated = 0

    def __getattr__(self, name):
        return getattr(self.cluster, name)

    def check_many(self, requests):
        requests = list(requests)
        decisions = []
        start = 0
        while start < len(requests):
            room = self.every - self.served % self.every
            chunk = requests[start:start + room]
            decisions.extend(self.cluster.check_many(chunk))
            self.served += len(chunk)
            start += len(chunk)
            if self.served % self.every == 0:
                if self.layers is not None:
                    with self.layers.span("cluster_write"):
                        self.rotate()
                else:
                    self.rotate()
        return decisions

    def rotate(self):
        cluster = self.cluster
        step = self.replacements[self.rotations]
        group = self.rotations % len(self.serials)
        dropped = cluster.bus.stats["dropped_entries"]
        cluster.add_delegation(step)
        removed = cluster.revoke_serial(self.serials[group])
        cluster.deliver_invalidations()
        self.serials[group] = step.certificate.serial
        self.rotations += 1
        self.invalidated += removed + (
            cluster.bus.stats["dropped_entries"] - dropped
        )


class World:
    def __init__(self, workload, seed):
        from repro.cluster import AuthCluster
        from repro.core.principals import KeyPrincipal, MacPrincipal
        from repro.core.proofs import SignedCertificateStep
        from repro.spki import Certificate
        from repro.tags import Tag

        self.cluster = AuthCluster(node_count=world.NODES)
        self.backend = self.cluster
        self.sessions = []
        self.issuer_kp = None
        self.groups = []
        if not workload.sessions:
            return
        rng = random.Random("sessions/%s/%d" % (workload.name, seed))
        self.issuer_kp = world.issuer_keypair()
        self.groups = world.group_keypairs(workload.groups)
        serials = []
        for group in self.groups:
            certificate = Certificate.issue(
                self.issuer_kp, KeyPrincipal(group.public), Tag.all(), rng=rng
            )
            self.cluster.add_delegation(SignedCertificateStep(certificate))
            serials.append(certificate.serial)
        for index in range(workload.sessions):
            mac_id, mac_key = self.cluster.mint_session(rng)
            signer = (
                self.groups[index % len(self.groups)]
                if self.groups else self.issuer_kp
            )
            certificate = Certificate.issue(
                signer, MacPrincipal(mac_key.fingerprint()), Tag.all(),
                rng=rng,
            )
            self.cluster.add_delegation(SignedCertificateStep(certificate))
            self.sessions.append((mac_id, mac_key.secret.hex()))
        if workload.rotate_every:
            self.backend = ChurnBackend(
                self.cluster, serials, workload.rotate_every
            )
        self._rotation_rng = random.Random(
            "rotations/%s/%d" % (workload.name, seed)
        )

    def prepare(self, rotations):
        """Sign the replacement group certificates, in rotation order."""
        if not isinstance(self.backend, ChurnBackend):
            return 0
        from repro.core.principals import KeyPrincipal
        from repro.core.proofs import SignedCertificateStep
        from repro.spki import Certificate
        from repro.tags import Tag

        replacements = self.backend.replacements
        while len(replacements) < rotations:
            group = self.groups[len(replacements) % len(self.groups)]
            certificate = Certificate.issue(
                self.issuer_kp, KeyPrincipal(group.public), Tag.all(),
                rng=self._rotation_rng,
            )
            replacements.append(SignedCertificateStep(certificate))
        return len(replacements)


def rss_mb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Harness:
    def __init__(self, world_, listener, clock):
        self.world = world_
        self.listener = listener
        self.clock = clock
        self.done = asyncio.get_running_loop().create_future()

    def mark(self):
        cluster = self.world.cluster
        backend = self.world.backend
        return {
            "cpu_s": time.process_time(),
            "gc_collections": [
                generation["collections"] for generation in gc.get_stats()
            ],
            "listener": dict(self.listener.stats),
            "audit_records": sum(
                len(node.guard.audit) for node in cluster.nodes()
            ),
            "rotations": getattr(backend, "rotations", 0),
            "invalidated": getattr(backend, "invalidated", 0),
            "rss_mb": rss_mb(),
            "layers": self.clock.snapshot(),
        }

    def handle(self, command):
        name = command["cmd"]
        if name == "mark":
            if command.get("settle"):
                self.clock.settle()
            return self.mark()
        if name == "prepare":
            return {"replacements": self.world.prepare(command["rotations"])}
        if name == "trace":
            on = command["on"]
            if on:
                self.clock.install()
            else:
                self.clock.uninstall()
            if isinstance(self.world.backend, ChurnBackend):
                self.world.backend.layers = self.clock if on else None
            return {}
        if name == "objects":
            return {"objects": len(gc.get_objects())}
        if name == "quit":
            if not self.done.done():
                self.done.set_result(None)
            return {}
        raise ValueError("unknown command %r" % name)

    def answer(self, line):
        try:
            reply = self.handle(json.loads(line))
        except Exception as exc:  # report, keep serving
            reply = {"error": "%s: %s" % (type(exc).__name__, exc)}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


def read_commands(loop, harness):
    for line in sys.stdin:
        if line.strip():
            loop.call_soon_threadsafe(harness.answer, line)
    loop.call_soon_threadsafe(harness.answer, '{"cmd": "quit"}')


async def serve(args, workload):
    from repro.serve import ServeListener

    built = World(workload, args.seed)
    # The collector hook runs in every run (a few hundred callbacks);
    # the layer timers go in only for the traced half of a traced run.
    clock = LayerClock()
    clock.start_gc_hook()
    listener = ServeListener(built.backend)
    _, port = await listener.start()
    harness = Harness(built, listener, clock)
    sys.stdout.write(json.dumps({
        "ready": True,
        "port": port,
        "affinity": sorted(os.sched_getaffinity(0)),
        "sessions": built.sessions,
    }) + "\n")
    sys.stdout.flush()
    reader = threading.Thread(
        target=read_commands, args=(asyncio.get_running_loop(), harness),
        daemon=True,
    )
    reader.start()
    await harness.done
    await listener.shutdown()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(world.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--core", type=int, required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.core})
    if not world.library_present():
        sys.stderr.write("server: no library under %s\n" % world.SRC)
        return 2
    world.use_library()
    asyncio.run(serve(args, world.WORKLOADS[args.workload]))
    # Skip tearing the heap down object by object: it takes a large
    # share of a second, and every answer is already written.
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
