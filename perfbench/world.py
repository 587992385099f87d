"""What the benchmark serves: workloads, key material, and the request stream.

Shared by the server harness (which builds the authorization world) and
the load generator (which builds the request stream).  Everything is
derived deterministically: key material from fixed labels, so set-up
repeats the same work on every run, and everything that varies — session
secrets, request bodies, which session asks, certificate serials — from
the ``--seed`` argument.

This module must import without the library on ``sys.path``:
``run.py`` reads the workload table before it knows whether the checkout
holds a program at all.
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Cluster size of the served world (every other knob: library default).
NODES = 4
#: Frames per pipelined window; the capacity loop keeps two in flight.
WINDOW = 64


class Workload:
    """One traffic mix.

    A run is a number of *trials*, each a fresh server fed the same
    frames: a count-sized warm-up, a count-sized ``paced`` phase and a
    count-sized ``capacity`` phase.  Sizes never depend on how fast a run
    goes, so every trial of a seed does identical work (and the
    collector runs the same number of times).  ``--seconds`` sets the
    number of trials, one per ``trial_seconds`` (one trial's wall time,
    start-up included, on the 2-core host the sizes were chosen on);
    below one trial's worth it shrinks the single trial instead (the
    self-test's tiny size).
    """

    def __init__(self, name, via, sessions, groups, warmup, capacity,
                 paced, paced_rps, trial_seconds, rotate_every=None):
        self.name = name
        self.via = via                  # admission path every grant takes
        self.sessions = sessions        # MAC sessions minted at set-up
        self.groups = groups            # group keys between issuer and sessions
        self.warmup = warmup
        self.capacity = capacity
        self.paced = paced
        self.paced_rps = paced_rps      # open-loop rate, a third of capacity
        self.trial_seconds = trial_seconds
        self.rotate_every = rotate_every

    def plan(self, seconds):
        """``(trials, per-trial phase sizes)`` for a ``--seconds`` budget."""
        trials = max(1, int(round(seconds / self.trial_seconds)))
        scale = min(1.0, seconds / self.trial_seconds)
        sizes = {
            "warmup": max(WINDOW, int(round(self.warmup * scale))),
            "capacity": max(WINDOW * 2, int(round(self.capacity * scale))),
            "paced": max(WINDOW, int(round(self.paced * scale))),
        }
        return trials, sizes

    def rotations(self, total_checks):
        if not self.rotate_every:
            return 0
        return total_checks // self.rotate_every


WORKLOADS = {
    "session-distinct": Workload(
        "session-distinct", via="session", sessions=64, groups=0,
        warmup=1024, capacity=8000, paced=4000, paced_rps=1500,
        trial_seconds=6.0,
    ),
    "proof-carrying": Workload(
        "proof-carrying", via="proof", sessions=0, groups=0,
        warmup=128, capacity=2000, paced=1000, paced_rps=500,
        trial_seconds=5.0,
    ),
    "trust-churn": Workload(
        "trust-churn", via="session", sessions=64, groups=4,
        warmup=512, capacity=4000, paced=2000, paced_rps=700,
        trial_seconds=5.5,
        # A quarter of grants then take the prover path, so the median
        # latency lies inside the fast-path mode (DESIGN.md, "trust-churn
        # rotation rate").
        rotate_every=64,
    ),
}


def library_present():
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def use_library():
    """Put the checkout's ``src`` first on the import path."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# -- key material ------------------------------------------------------------


def _keypair(label):
    from repro.crypto.rsa import generate_keypair

    return generate_keypair(rng=random.Random("perfbench/" + label))


def issuer_keypair():
    """The resource issuer: every grant concludes ``issuer says r``."""
    return _keypair("issuer")


def group_keypairs(count):
    return [_keypair("group-%d" % index) for index in range(count)]


# -- request stream ----------------------------------------------------------


def _logical(rng, index):
    from repro.sexp import sexp

    return sexp([
        "web", ["method", "GET"],
        ["path", "/doc/%08x/%d" % (rng.getrandbits(32), index)],
    ])


def build_frames(workload, seed, count, first_id, sessions, issuer_kp):
    """``count`` framed check commands with ids ``first_id...``.

    Session workloads MAC a fresh logical body under a seeded choice of
    session (``sessions`` is ``[(mac_id, MacKey), ...]`` as handed over by
    the server); ``proof-carrying`` signs a fresh certificate for the
    hash of each fresh body.
    """
    from repro.core.principals import HashPrincipal, KeyPrincipal
    from repro.core.proofs import SignedCertificateStep
    from repro.crypto.hashes import HashValue
    from repro.guard import GuardRequest, ProofCredential, SessionCredential
    from repro.serve import encode_check, encode_frame
    from repro.sexp import to_canonical, to_transport
    from repro.spki import Certificate
    from repro.tags import Tag

    rng = random.Random("%s/%d/%d" % (workload.name, seed, first_id))
    issuer = KeyPrincipal(issuer_kp.public)
    frames = []
    for offset in range(count):
        request_id = first_id + offset
        logical = _logical(rng, request_id)
        message = to_canonical(logical)
        if workload.via == "proof":
            subject = HashPrincipal(HashValue.of_bytes(message))
            certificate = Certificate.issue(
                issuer_kp, subject, Tag.all(), rng=rng
            )
            credential = ProofCredential(
                subject,
                wire=to_transport(SignedCertificateStep(certificate).to_sexp()),
            )
        else:
            mac_id, mac_key = sessions[rng.randrange(len(sessions))]
            credential = SessionCredential(
                mac_id, mac_key.tag(message), message
            )
        request = GuardRequest(
            logical, issuer=issuer, credential=credential, transport="http"
        )
        frames.append(encode_frame(encode_check(request_id, request)))
    return frames
