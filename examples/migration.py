#!/usr/bin/env python3
"""Migrating a service to BFT without touching its clients (Section III-E).

The paper walks through moving a crash-tolerant RESTful web service to a
Troxy-backed BFT deployment. This example stages that story:

  1. the service runs standalone; a plain HTTP-over-TLS client uses it;
  2. the *same application code* and the *same client* move to the
     Troxy-backed cluster — only the address changed (as a location
     service would arrange);
  3. a replica starts misbehaving; the client neither notices nor cares.

The point of the exercise: count what had to change. Application: ported
to the (Paxos-like) state-machine interface it already satisfied.
Client: nothing.
"""

from repro.apps.base import Payload
from repro.apps.httpd import HttpPageService, get_operation, parse_response, post_operation
from repro.deploy import build_standalone, build_troxy


def browse(cluster, client, label):
    results = []

    def driver():
        outcome = yield from client.invoke(post_operation("/page/3", b"<edited/>"))
        results.append(("POST /page/3", parse_response(outcome.result.content).status))
        outcome = yield from client.invoke(get_operation("/page/3"))
        response = parse_response(outcome.result.content)
        results.append(("GET  /page/3", response.status))
        results.append(("  body starts", response.body[:9].decode("latin-1")))

    cluster.env.process(driver())
    cluster.env.run(until=cluster.env.now + 30.0)
    print(f"\n--- {label} ---")
    for what, value in results:
        print(f"  {what}: {value}")


def main():
    print("step 1: unreplicated service (what exists today)")
    standalone = build_standalone(seed=5, app_factory=HttpPageService)
    client = standalone.new_client()
    browse(standalone, client, "standalone server, legacy HTTPS client")

    print("\nstep 2: same app + same kind of client, now on Troxy-backed BFT")
    cluster = build_troxy(seed=5, app_factory=HttpPageService)
    client = cluster.new_client()  # identical client code; new address
    browse(cluster, client, f"3 replicas (f=1), client talks to {client.contact.replica_id} only")

    print("\nstep 3: one replica turns Byzantine")

    class Corrupted(HttpPageService):
        def execute(self, op):
            super().execute(op)
            return Payload(b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nEVIL")

    cluster.replicas[2].app = Corrupted()
    browse(cluster, client, "after corrupting replica-2 (client unchanged)")

    print("\nmigration bill of materials:")
    print("  - application: implements execute/snapshot/restore (it already")
    print("    had to, for Paxos/Raft-style crash tolerance)")
    print("  - Troxy: only needed HTTP message boundaries (Content-Length)")
    print("  - client: zero changes, zero extra bandwidth, zero voting")


if __name__ == "__main__":
    main()
