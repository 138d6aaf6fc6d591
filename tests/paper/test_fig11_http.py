"""Fig. 11: HTTP service latency, local network and WAN.

Paper shape, local network: the standalone server (Jetty) sets the
floor; baseline and Troxy stay within ~2 ms of it; Prophecy's extra
middlebox hop roughly doubles the overhead. With the 100 +/- 20 ms
delay, the baseline's latency rises dramatically (its voter sits on the
client machine: conflicted reads pay extra WAN round trips), while
Prophecy and Troxy — voters next to the replicas — track the standalone
server closely: BFT at one WAN round trip.
"""

from .tables import grid


def test_fig11_http_latency():
    points = grid("fig11")
    local = points["local"]  # {system: mean latency in ms}
    wan = points["wan"]

    # Local: Jetty is the floor; BL and Troxy add small overhead (~ms).
    assert local["jetty"] <= min(local.values()) + 1e-9
    assert local["bl"] - local["jetty"] < 2.0
    assert local["troxy"] - local["jetty"] < 2.0
    # Prophecy's two hops cost roughly another connection's worth.
    assert local["prophecy"] > local["troxy"]

    # WAN: everyone pays the ~200 ms round trip...
    for system, latency in wan.items():
        assert latency > 150.0, (system, latency)
    # ...but the baseline rises clearly above the server-side voters.
    assert wan["bl"] > wan["troxy"] + 10.0
    assert wan["bl"] > wan["prophecy"] + 10.0
    # Troxy (and Prophecy) nearly hide the replication cost.
    assert wan["troxy"] - wan["jetty"] < 25.0
    assert wan["prophecy"] - wan["jetty"] < 25.0
