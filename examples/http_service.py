#!/usr/bin/env python3
"""A replicated HTTP service behind Troxy (the Section VI-D scenario).

The same HTTP page service runs in four deployments — standalone
("Jetty"), baseline Hybster with client-side voting, Prophecy middlebox,
and Troxy — and the same unmodified HTTP client measures GET latency
against each, locally and over a simulated 100 +/- 20 ms WAN.

Run:  python examples/http_service.py
"""

from repro.analysis.metrics import Collector
from repro.apps.httpd import HttpPageService, get_operation, parse_response, post_operation
from repro.deploy import (
    WAN_DELAY,
    build_baseline,
    build_prophecy,
    build_standalone,
    build_troxy,
)


def run_requests(cluster, client, n=30):
    collector = Collector()

    def driver():
        response = None
        for i in range(n):
            outcome = yield from client.invoke(get_operation(f"/page/{i % 8}"))
            response = parse_response(outcome.result.content)
            collector.record(cluster.env.now, outcome.latency)
        assert response is not None and response.status == 200

    cluster.env.process(driver())
    cluster.env.run(until=cluster.env.now + 120.0)
    return collector.summarize(0.0, cluster.env.now)


def main():
    for scenario, wan in (("local network", None), ("WAN 100±20 ms", WAN_DELAY)):
        print(f"\n=== {scenario} ===")
        for name, build in (
            ("standalone (Jetty)", build_standalone),
            ("baseline (client-side voting)", build_baseline),
            ("Prophecy middlebox", build_prophecy),
            ("Troxy", build_troxy),
        ):
            cluster = build(seed=11, app_factory=HttpPageService, wan=wan)
            if name.startswith("baseline"):
                client = cluster.new_client()
            else:
                client = cluster.new_client()
            summary = run_requests(cluster, client)
            print(f"  {name:32s} mean GET latency {summary.mean_latency * 1000:8.2f} ms")
        print("  (Troxy's voter sits next to the replicas: one WAN round trip.)")


if __name__ == "__main__":
    main()
