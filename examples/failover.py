#!/usr/bin/env python3
"""Fault tour: Troxy crash, untrusted-host tampering, leader failure.

Shows the fault handling of Section III-D end to end, staged through the
declarative fault plane (:mod:`repro.faults`):

1. the client's contact Troxy crashes -> the client reconnects to the
   next server and retransmits, exactly like against any web service;
2. the untrusted part of a replica corrupts a sealed reply -> the client
   detects a corrupted channel and fails over;
3. the Hybster leader dies -> a view change elects a new leader and the
   service keeps going, invisibly to the client.

Run:  python examples/failover.py
"""

from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_troxy
from repro.faults import FaultPlane, HostTamper, ReplicaCrash


def main():
    cluster = build_troxy(seed=3, app_factory=KvStore)
    plane = FaultPlane(cluster)
    client = cluster.new_client(contact_index=1, request_timeout=1.0)
    events = []

    def scenario():
        outcome = yield from client.invoke(put("account", b"balance=100"))
        events.append(("write through " + client.contact.replica_id, outcome))

        # 1. Crash the contact server (replica + its Troxy).
        crashed = client.contact.replica_id
        plane.inject(ReplicaCrash(crashed))
        outcome = yield from client.invoke(get("account"))
        events.append((f"read after {crashed} crashed (failovers={client.stats.failovers})", outcome))

        # 2. The (new) contact's untrusted host corrupts one sealed reply.
        plane.inject(HostTamper(
            client.contact.replica_id, forged_result=b"balance=1000000", count=1
        ))
        outcome = yield from client.invoke(get("account"))
        events.append(
            (f"read despite reply tampering (invalid replies seen="
             f"{client.stats.invalid_replies})", outcome),
        )

    cluster.env.process(scenario())
    cluster.env.run(until=60.0)

    for label, outcome in events:
        print(f"{label:55s} -> {outcome.result.content!r}")

    print("\nfault plane log:")
    for entry in plane.log:
        print(f"  t={entry['t']:.3f}  {entry['event']:6s} {entry['fault']}")

    # 3. Leader failure on a fresh cluster (only f=1 crashes are covered;
    # the scenario above already used up the budget on replica-1).
    print("\n--- leader crash / view change (fresh cluster) ---")
    cluster2 = build_troxy(seed=4, app_factory=KvStore)
    plane2 = FaultPlane(cluster2)
    client2 = cluster2.new_client(contact_index=1, request_timeout=2.0)
    events2 = []

    def scenario2():
        outcome = yield from client2.invoke(put("account", b"balance=100"))
        events2.append(("write in view 0", outcome))
        plane2.inject(ReplicaCrash("replica-0"))  # the view-0 leader
        outcome = yield from client2.invoke(put("account", b"balance=42"))
        events2.append(("write after leader crash (view change)", outcome))
        outcome = yield from client2.invoke(get("account"))
        events2.append(("final read", outcome))

    cluster2.env.process(scenario2())
    cluster2.env.run(until=120.0)
    for label, outcome in events2:
        print(f"{label:55s} -> {outcome.result.content!r}")
    views = {r.replica_id: r.view for r in cluster2.replicas[1:]}
    print(f"\nsurviving replicas' views: {views} (view change happened: "
          f"{any(v > 0 for v in views.values())})")


if __name__ == "__main__":
    main()
