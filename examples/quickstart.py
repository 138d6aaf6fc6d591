#!/usr/bin/env python3
"""Quickstart: a legacy client talking to a Byzantine fault-tolerant
key-value store — without knowing it.

Builds a Troxy-backed Hybster cluster (f=1, so 3 replicas), connects one
completely ordinary client (single TLS connection, single reply, no
voting), and runs a few operations. Then a replica turns Byzantine and
the client keeps getting correct answers.

Run:  python examples/quickstart.py
"""

from repro.apps.base import Payload
from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_troxy


def main():
    cluster = build_troxy(seed=7, app_factory=KvStore)
    client = cluster.new_client()
    print(f"cluster: {cluster.config.n} replicas, tolerating f={cluster.config.f} faults")
    print(f"client connects to ONE server: {client.contact.replica_id}\n")

    log = []

    def scenario():
        result = yield from client.invoke(put("greeting", b"hello, byzantine world"))
        log.append(("put", result))
        result = yield from client.invoke(get("greeting"))
        log.append(("get (ordered, warms cache)", result))
        result = yield from client.invoke(get("greeting"))
        log.append(("get (fast read from cache)", result))
        # Make one replica lie about every result from now on.
        class Liar(KvStore):
            def execute(self, op):
                super().execute(op)
                return Payload(b"\xffgarbage")

        cluster.replicas[2].app = Liar()
        result = yield from client.invoke(put("greeting", b"still works"))
        log.append(("put (1 Byzantine replica)", result))
        result = yield from client.invoke(get("greeting"))
        log.append(("get (1 Byzantine replica)", result))

    cluster.env.process(scenario())
    cluster.env.run(until=30.0)

    for label, outcome in log:
        print(f"{label:28s} -> {outcome.result.content!r}  ({outcome.latency * 1000:.2f} ms)")

    core = cluster.cores[0]
    print(f"\nfast-read cache at {client.contact.replica_id}: "
          f"{core.stats.fast_read_hits} fast read(s), "
          f"{core.stats.ordered_requests} ordered request(s)")
    print("the client never saw a vote, a replica list, or the garbage reply.")


if __name__ == "__main__":
    main()
