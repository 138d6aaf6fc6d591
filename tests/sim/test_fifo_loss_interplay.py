"""Packet loss must not wedge in-order streams.

A send filter drops at send time, *before* a stream sequence number is
assigned — so a lost message never leaves a hole in the stream and
later messages still deliver (the model's stand-in for TCP
retransmission keeping the stream moving).
"""

from repro.sim import Environment, Network, RngTree


def test_lossy_link_does_not_stall_fifo_stream():
    env = Environment()
    net = Network(env, rng_tree=RngTree(11))
    net.add_node("a")
    net.add_node("b")
    rng = RngTree(11).derive("loss")
    net.add_send_filter(lambda attempt: setattr(attempt, "drop", rng.random() < 0.5))
    received = []

    def recv():
        while True:
            msg = yield net.node("b").inbox.get()
            received.append(msg.payload)

    env.process(recv())
    for i in range(400):
        net.send("a", "b", payload=i, size=10, stream="s")
    env.run(until=10.0)
    # Roughly half arrive...
    assert 120 < len(received) < 280
    # ...and what arrives is still in send order (no wedged stream).
    assert received == sorted(received)


def test_cut_link_does_not_stall_after_heal():
    env = Environment()
    net = Network(env, rng_tree=RngTree(12))
    net.add_node("a")
    net.add_node("b")
    received = []

    def recv():
        while True:
            msg = yield net.node("b").inbox.get()
            received.append(msg.payload)

    env.process(recv())
    cut = set()
    net.add_send_filter(
        lambda attempt: setattr(attempt, "drop", (attempt.src, attempt.dst) in cut)
    )
    net.send("a", "b", payload="before", size=10, stream="s")
    env.run(until=1.0)
    cut.add(("a", "b"))
    net.send("a", "b", payload="dropped", size=10, stream="s")
    env.run(until=2.0)
    cut.clear()
    net.send("a", "b", payload="after", size=10, stream="s")
    env.run(until=3.0)
    assert received == ["before", "after"]


def test_crashed_receiver_consumes_stream_slots():
    """Messages to a crashed node advance the stream so delivery resumes
    cleanly after recovery + reset_streams."""
    env = Environment()
    net = Network(env, rng_tree=RngTree(13))
    net.add_node("a")
    node_b = net.add_node("b")
    received = []

    def recv():
        while True:
            msg = yield node_b.inbox.get()
            received.append(msg.payload)

    env.process(recv())
    node_b.crash()
    net.send("a", "b", payload="lost1", size=10, stream="s")
    net.send("a", "b", payload="lost2", size=10, stream="s")
    env.run(until=1.0)
    node_b.recover()
    net.reset_streams("b")
    net.send("a", "b", payload="alive", size=10, stream="s")
    env.run(until=2.0)
    assert received == ["alive"]
