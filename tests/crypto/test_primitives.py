"""Unit tests for crypto primitives."""

import hmac

import pytest

from repro.crypto import MacKey, derive_key, digest_of, primitives, sha256
from repro.crypto.primitives import GENERATION, intern_digest


def test_sha256_known_vector():
    assert sha256(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_digest_of_is_unambiguous():
    # Without length prefixes these two would collide.
    assert digest_of(b"ab", b"c") != digest_of(b"a", b"bc")


def test_digest_of_deterministic():
    assert digest_of(b"x", b"y") == digest_of(b"x", b"y")


def test_mac_sign_verify_roundtrip():
    key = MacKey("k1", b"secret-material!")
    tag = key.sign(b"message")
    assert key.verify(b"message", tag)


def test_mac_detects_tamper():
    key = MacKey("k1", b"secret-material!")
    tag = key.sign(b"message")
    assert not key.verify(b"messagX", tag)
    assert not key.verify(b"message", b"\x00" * len(tag))


def test_mac_keys_are_independent():
    k1 = MacKey("k1", derive_key(b"master-secret-00", "a"))
    k2 = MacKey("k2", derive_key(b"master-secret-00", "b"))
    tag = k1.sign(b"m")
    assert not k2.verify(b"m", tag)


def test_derive_key_path_sensitivity():
    master = b"master-secret-00"
    assert derive_key(master, "a", "b") != derive_key(master, "b", "a")
    assert derive_key(master, "a", "b") == derive_key(master, "a", "b")


def test_derive_key_depends_on_master():
    assert derive_key(b"master-secret-00", "a") != derive_key(b"master-secret-01", "a")


# -- the two-generation memos -------------------------------------------------


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty memos, so a test knows where each generation starts."""
    monkeypatch.setattr(primitives, "_tags", primitives._Memo())
    monkeypatch.setattr(primitives, "_digests", primitives._Memo())


def _memo_sizes():
    return tuple(
        len(memo.young) + len(memo.old) for memo in (primitives._tags, primitives._digests)
    )


def _counting(monkeypatch, name):
    """Count the calls of module-level ``name`` in primitives."""
    real = getattr(primitives, name)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(primitives, name, counted)
    return calls


def test_memos_hold_at_most_two_generations(fresh_memos):
    key = MacKey("k", b"bound-secret-000")
    for i in range(10 * GENERATION):
        key.sign(b"bound-%d" % i)
        intern_digest(b"bound", b"%d" % i)
    tags, digests = _memo_sizes()
    assert tags <= 2 * GENERATION
    assert digests <= 2 * GENERATION


@pytest.mark.parametrize("phase", [0, 1, GENERATION // 2, GENERATION - 1])
def test_entry_survives_a_generation_of_other_inserts(fresh_memos, monkeypatch, phase):
    key = MacKey("k", b"survival-secret%d" % phase)
    for i in range(phase):  # put the memos at some point of their cycle
        key.sign(b"before-%d" % i)
        intern_digest(b"before", b"%d-%d" % (phase, i))
    tag = key.sign(b"target")
    digest = intern_digest(b"target", b"%d" % phase)
    for i in range(GENERATION):
        key.sign(b"other-%d" % i)
        intern_digest(b"other", b"%d-%d" % (phase, i))
    hmacs = _counting(monkeypatch, "_hmac_digest")
    digests = _counting(monkeypatch, "digest_of")
    assert key.sign(b"target") is tag
    assert intern_digest(b"target", b"%d" % phase) is digest
    assert hmacs[0] == 0 and digests[0] == 0


def test_a_hit_in_the_old_generation_is_renewed(fresh_memos, monkeypatch):
    key = MacKey("k", b"renewal-secret-0")
    key.sign(b"renewed")
    hmacs = _counting(monkeypatch, "_hmac_digest")
    for round_ in range(4):  # four generations, touched once in each
        for i in range(GENERATION - 1):
            key.sign(b"filler-%d-%d" % (round_, i))
        key.sign(b"renewed")
    assert hmacs[0] == 4 * (GENERATION - 1)


def test_tags_are_real_hmacs_across_generation_flips(fresh_memos):
    keys = [MacKey("a", b"differential-a00"), MacKey("b", b"differential-b00")]
    signed = []
    for i in range(3 * GENERATION):
        key = keys[i % 2]
        data = b"payload-%d" % (i % (GENERATION + 7))  # repeats across flips
        tag = key.sign(data)
        assert tag == hmac.digest(key.secret, data, "sha256")
        signed.append((key, data, tag))
    for index, (key, data, tag) in enumerate(signed[:: GENERATION // 4]):
        other = keys[1] if key is keys[0] else keys[0]
        assert key.verify(data, tag)
        assert not key.verify(data + b"!", tag)
        assert not other.verify(data, tag)
        assert intern_digest(data, b"%d" % index) == digest_of(data, b"%d" % index)
