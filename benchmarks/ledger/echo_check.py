"""Linear-time consistency check for EchoService histories.

EchoService keeps one version counter per key: a write bumps it and is
acknowledged ``ok:<v>``; a read returns ``<key>@<v>``. The history is
the log of client invocations and returns in the order the simulator
executed them, so replaying it once suffices: when an operation is
invoked, every version already returned for its key is its *floor*.

* a read must return a version >= its floor (it started after that
  write was acknowledged, or after a read that saw it completed);
* a write must return a version > its floor, and no two writes of one
  key may be acknowledged with the same version;
* every reply must parse and name the key that was asked for.

This is weaker than full linearizability (it never constructs an
order), which is what makes it O(n) and cheap enough to run on every
benchmark pass; tier-1 owns the exhaustive checker.
"""

from __future__ import annotations

INVOKE = 0
RETURN = 1


def record_invoke(log: list, client: int, key: str, is_read: bool) -> None:
    log.append((INVOKE, client, key, is_read, None))


def record_return(log: list, client: int, key: str, is_read: bool, content: bytes) -> None:
    log.append((RETURN, client, key, is_read, content))


def _version(key: str, is_read: bool, content: bytes):
    """Version carried by a reply, or None when it is malformed."""
    prefix = f"{key}@".encode() if is_read else b"ok:"
    digits = content[len(prefix):]
    if not content.startswith(prefix) or not digits.isdigit():
        return None
    return int(digits)


def check(log: list) -> list:
    """Replay ``log``; return one message per violated operation."""
    seen: dict = {}  # key -> highest version returned so far
    acked: dict = {}  # key -> set of acknowledged write versions
    floors: dict = {}  # client -> floor of its operation in flight
    violations = []
    for kind, client, key, is_read, content in log:
        if kind == INVOKE:
            floors[client] = seen.get(key, 0)
            continue
        floor = floors.pop(client)
        what = f"client {client} {'read' if is_read else 'write'} {key!r}"
        version = _version(key, is_read, content)
        if version is None:
            violations.append(f"{what}: malformed reply {content!r}")
            continue
        if is_read:
            if version < floor:
                violations.append(
                    f"{what}: stale version {version}, {floor} was returned "
                    "before it was invoked"
                )
        else:
            versions = acked.setdefault(key, set())
            if version <= floor or version in versions:
                violations.append(
                    f"{what}: acknowledged as version {version}, not above "
                    f"{floor} or already acknowledged"
                )
            versions.add(version)
        if version > seen.get(key, 0):
            seen[key] = version
    return violations
