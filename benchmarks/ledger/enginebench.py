"""Reference speeds for "scheduler steps per CPU-second".

``floor_events_per_s`` is a bare ``heapq`` pop/push loop — what any
Python discrete-event scheduler pays before it does anything useful;
it imports nothing from ``repro``. ``engine_only_steps_per_s`` drives
the real engine with no protocol on top: timeouts, contended
``Resource.use`` and a two-node ``Network.send`` ping-pong. A workload's
``host_steps_per_s`` divided by the floor is ``sim.engine_efficiency``.

Each function is a generator of speeds (events per CPU-second), one per
slice of equal work, for ``refloop.bracket`` to read against reference
chunks like a workload's window.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush

SLICES = 5
_FLOOR_EVENTS = 150_000  # per slice
_ENGINE_SIM_SECONDS = 0.06  # per slice


def floor_events_per_s():
    pending = 64  # events in flight, the order of a busy benchmark cell
    queue = [(i * 1e-6, 1, i, None) for i in range(pending)]
    heapify(queue)
    counter = pending
    for _ in range(SLICES):
        start = time.process_time()
        for _ in range(_FLOOR_EVENTS):
            now, _priority, _tick, event = heappop(queue)
            counter += 1
            heappush(queue, (now + 5e-5, 1, counter, event))
        yield _FLOOR_EVENTS / (time.process_time() - start)


def engine_only_steps_per_s(seed: int):
    from repro.sim import Environment, Network, RngTree, UniformLatency

    env = Environment()
    net = Network(
        env, rng_tree=RngTree(seed), default_latency=UniformLatency(30e-6, 90e-6)
    )
    nodes = [net.add_node(name, cores=2) for name in ("a", "b")]

    def ticker():
        while True:
            yield env.timeout(10e-6)

    def worker(node):
        while True:
            yield from node.compute(5e-6)

    def player(node, peer, serve):
        if serve:
            net.send(node.name, peer.name, "ball", size=1024)
        while True:
            yield node.inbox.get()
            net.send(node.name, peer.name, "ball", size=1024)

    for _ in range(4):
        env.process(ticker())
    for node in nodes:
        for _ in range(4):  # 4 workers on 2 cores: every use() contends
            env.process(worker(node))
    for ball in range(8):
        env.process(player(nodes[0], nodes[1], serve=True))
        env.process(player(nodes[1], nodes[0], serve=False))
    env.run(until=_ENGINE_SIM_SECONDS)  # fill queues and warm code paths
    for _ in range(SLICES):
        steps, start = env.steps, time.process_time()
        env.run(until=env.now + _ENGINE_SIM_SECONDS)
        yield (env.steps - steps) / (time.process_time() - start)
