"""The benchmark's load generator process: one socket, pre-built frames.

Run by ``run.py``, pinned to the core the server does not use.  It reads
a ``build`` command on stdin, builds every frame the run will send (all of them,
before any timed phase), then connects to the server and answers phase
commands, one JSON line each:

- ``closed``: send ``count`` frames as pipelined windows of
  ``world.WINDOW``, keeping two windows in flight, so the server never
  waits for the generator; elapsed runs from the first send to the
  last reply;
- ``paced``: send ``count`` frames on an open-loop schedule at ``rate``
  per second; each reply's latency is measured from the time its
  request was due, so a stall delays every request queued behind it.

Every reply is checked against the expected decision — a grant of the
request with that id, admitted by the workload's credential path.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import socket
import struct
import sys
import threading
import time

import world

HEADER = struct.Struct("!I")
perf_counter = time.perf_counter
REPLY_TIMEOUT_S = 60.0


class Checker:
    """Match replies, in order, against the expected decisions."""

    def __init__(self, first_id, count, via, decode_reply):
        self.next_id = first_id
        self.remaining = count
        self.via = via
        self.decode_reply = decode_reply
        self.ok = 0
        self.failed = 0
        self.reasons = []

    def check(self, payload):
        expected = self.next_id
        self.next_id += 1
        self.remaining -= 1
        try:
            reply = self.decode_reply(payload)
        except Exception as exc:  # a bad frame is a failed operation
            self._fail("undecodable reply %r: %s" % (payload[:60], exc))
            return
        if reply.status != "ok":
            self._fail("#%d: %s %s" % (expected, reply.status, reply.message))
        elif reply.request_id != expected:
            self._fail("#%d answered as #%d" % (expected, reply.request_id))
        elif reply.via != self.via:
            self._fail("#%d granted via %s" % (expected, reply.via))
        else:
            self.ok += 1

    def _fail(self, reason):
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)


class Receiver(threading.Thread):
    """Drain reply frames; call ``on_reply(index, received_at)`` per reply."""

    def __init__(self, sock, checker, on_reply):
        super().__init__(daemon=True)
        self.sock = sock
        self.checker = checker
        self.on_reply = on_reply
        self.error = None
        self.finished_at = None

    def run(self):
        sock = self.sock
        checker = self.checker
        buffer = bytearray()
        index = 0
        try:
            while checker.remaining > 0:
                data = sock.recv(1 << 18)
                now = perf_counter()
                if not data:
                    raise ConnectionError("server closed the connection")
                buffer += data
                offset = 0
                end = len(buffer)
                while end - offset >= 4:
                    (length,) = HEADER.unpack_from(buffer, offset)
                    stop = offset + 4 + length
                    if stop > end:
                        break
                    checker.check(bytes(buffer[offset + 4:stop]))
                    self.on_reply(index, now)
                    index += 1
                    offset = stop
                del buffer[:offset]
            self.finished_at = perf_counter()
        except (OSError, ConnectionError) as exc:
            self.error = "%s: %s" % (type(exc).__name__, exc)
            checker.failed += checker.remaining
            checker.remaining = 0
            self.on_reply(None, None)


class Generator:
    def __init__(self, job):
        from repro.serve import decode_reply

        self.job = job
        self.workload = world.WORKLOADS[job["workload"]]
        self.decode_reply = decode_reply
        self.frames = []
        self.cursor = 0
        self.first_id = 1
        self.sock = None

    def build(self, sessions):
        from repro.crypto.mac import MacKey

        keys = [(mac_id, MacKey(bytes.fromhex(secret)))
                for mac_id, secret in sessions]
        self.frames = world.build_frames(
            self.workload, self.job["seed"], self.job["total"],
            self.first_id, keys, world.issuer_keypair(),
        )

    def connect(self, port):
        """Open the run's connection to a fresh server; the frames are
        replayed from the first one."""
        self.cursor = 0
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(REPLY_TIMEOUT_S)

    def disconnect(self):
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def _take(self, count):
        start = self.cursor
        self.cursor += count
        return start, self.frames[start:self.cursor]

    def closed(self, count):
        start, frames = self._take(count)
        window = world.WINDOW
        windows = [b"".join(frames[i:i + window])
                   for i in range(0, len(frames), window)]
        slots = threading.Semaphore(2)
        checker = Checker(self.first_id + start, len(frames),
                          self.workload.via, self.decode_reply)

        def on_reply(index, _at):
            if index is None:
                slots.release(len(windows))
            elif (index + 1) % window == 0 or index + 1 == len(frames):
                slots.release()

        receiver = Receiver(self.sock, checker, on_reply)
        cpu = time.process_time()
        receiver.start()
        started = perf_counter()
        for chunk in windows:
            if not slots.acquire(timeout=REPLY_TIMEOUT_S) or receiver.error:
                break
            self.sock.sendall(chunk)
        receiver.join(REPLY_TIMEOUT_S * 2)
        finished = receiver.finished_at or perf_counter()
        return {
            "attempted": len(frames),
            "ok": checker.ok,
            "failed": checker.failed + checker.remaining,
            "reasons": checker.reasons + ([receiver.error]
                                          if receiver.error else []),
            "elapsed_s": finished - started,
            "cpu_s": time.process_time() - cpu,
        }

    def paced(self, count, rate):
        start, frames = self._take(count)
        interval = 1.0 / rate
        due = [0.0] * len(frames)
        late = [0.0] * len(frames)
        latency = [0.0] * len(frames)
        checker = Checker(self.first_id + start, len(frames),
                          self.workload.via, self.decode_reply)

        def on_reply(index, received_at):
            if index is not None:
                latency[index] = received_at - due[index]

        receiver = Receiver(self.sock, checker, on_reply)
        cpu = time.process_time()
        receiver.start()
        origin = perf_counter() + 0.005
        for index in range(len(frames)):
            due[index] = origin + index * interval
        index = 0
        total = len(frames)
        while index < total and receiver.error is None:
            now = perf_counter()
            if now < due[index]:
                time.sleep(due[index] - now)
                continue
            stop = index + 1
            while stop < total and due[stop] <= now:
                stop += 1
            self.sock.sendall(b"".join(frames[index:stop]))
            sent = perf_counter()
            for position in range(index, stop):
                late[position] = sent - due[position]
            index = stop
        receiver.join(REPLY_TIMEOUT_S * 2)
        finished = receiver.finished_at or perf_counter()
        return {
            "attempted": total,
            "ok": checker.ok,
            "failed": checker.failed + checker.remaining,
            "reasons": checker.reasons + ([receiver.error]
                                          if receiver.error else []),
            "elapsed_s": finished - origin,
            "cpu_s": time.process_time() - cpu,
            "latency_ms": [value * 1000.0 for value in latency],
            "late_ms": [value * 1000.0 for value in late],
        }


def _send(message):
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--core", type=int, required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.core})
    if not world.library_present():
        sys.stderr.write("loadgen: no library under %s\n" % world.SRC)
        return 2
    world.use_library()
    # The pacer thread must get the interpreter back promptly when a
    # send falls due while the receiver is parsing.
    sys.setswitchinterval(0.0005)
    generator = None
    for line in sys.stdin:
        command = json.loads(line)
        name = command["cmd"]
        if name == "build":
            generator = Generator(command)
            started = perf_counter()
            generator.build(command["sessions"])
            # The generator's own collector must not stall the pacer:
            # nothing it allocates from here on forms cycles.
            gc.collect()
            gc.freeze()
            gc.disable()
            _send({"built": len(generator.frames),
                   "build_s": perf_counter() - started,
                   "affinity": sorted(os.sched_getaffinity(0))})
        elif name == "connect":
            generator.connect(command["port"])
            _send({})
        elif name == "disconnect":
            generator.disconnect()
            _send({})
        elif name == "closed":
            _send(generator.closed(command["count"]))
        elif name == "paced":
            _send(generator.paced(command["count"], command["rate"]))
        elif name == "quit":
            break
    if generator is not None:
        generator.disconnect()
    return 0


if __name__ == "__main__":
    sys.exit(main())
