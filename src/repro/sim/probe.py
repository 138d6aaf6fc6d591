"""The probe bus: the one way a layer says that something happened.

Every deployment has one :class:`Probe` (``repro.deploy`` creates it and
hands it to the network, the enclaves, the replicas and the Troxies at
construction). A site reports a fact once, with one of three verbs::

    if probe.on:
        probe.event("hybster.commit", node, request, seq=seq)

    token = probe.begin("troxy.vote", node, reply) if probe.on else None
    try:
        ...
    finally:
        if token is not None:
            probe.end(token, outcome=outcome)

``kind`` names the fact, ``node`` is where it happened, ``subject`` is
the object it is about (a message, a request, an ecall's arguments) and
the keywords are plain values, never pre-formatted text. Who consumes
them is not the site's business: the span recorder and its metrics
(:mod:`repro.obs.probes`), the trace log (:mod:`repro.sim.trace`), the
audit ledgers and the fault plane subscribe, and with no subscriber the
bus is ``on == False`` and a site pays that one flag test.

A subscriber is any object with ``event(t, kind, node, subject, attrs)``,
``begin(t, kind, node, subject, attrs)`` or both; a ``begin`` that
returns something other than None gets ``end(t, state, attrs)`` when the
site closes the token. ``t`` is the simulated clock at the call.
Subscribers run synchronously inside the emitting process, schedule
nothing and draw no randomness, so an observed run is event for event
the bare run.
"""

from __future__ import annotations


class Probe:
    """One deployment's bus: subscribers, the ``on`` flag, three verbs."""

    __slots__ = ("on", "_env", "_sinks", "_on_event", "_on_begin")

    def __init__(self, env=None):
        # A component built outside a deployment gets a bus of its own;
        # without a clock (``env``) it can only ever stay off.
        self._env = env
        self._set(())

    def _set(self, sinks: tuple) -> None:
        # Replaced, never mutated: a verb in progress keeps its tuples.
        self._sinks = sinks
        self._on_event = tuple(s.event for s in sinks if hasattr(s, "event"))
        self._on_begin = tuple((s, s.begin) for s in sinks if hasattr(s, "begin"))
        self.on = bool(sinks)

    def subscribe(self, sink) -> None:
        if self._env is None:
            raise ValueError("a probe bus without a clock takes no subscriber")
        if sink not in self._sinks:
            self._set(self._sinks + (sink,))

    def unsubscribe(self, sink) -> None:
        self._set(tuple(s for s in self._sinks if s is not sink))

    def event(self, kind: str, node: str, subject=None, **attrs) -> None:
        """Something happened at one instant."""
        t = self._env.now
        for on_event in self._on_event:
            on_event(t, kind, node, subject, attrs)

    def begin(self, kind: str, node: str, subject=None, **attrs) -> list:
        """Something started; pass the returned token to :meth:`end`."""
        t = self._env.now
        token = []
        for sink, on_begin in self._on_begin:
            state = on_begin(t, kind, node, subject, attrs)
            if state is not None:
                token.append((sink, state))
        return token

    def end(self, token: list, **attrs) -> None:
        """What ``token`` began is over. Only the subscribers that saw
        the ``begin`` and are still subscribed hear of it: ending after
        one left is a no-op for it, never an error."""
        t = self._env.now
        sinks = self._sinks
        for sink, state in token:
            if sink in sinks:
                sink.end(t, state, attrs)
