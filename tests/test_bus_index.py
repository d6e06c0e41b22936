"""Trie-indexed publish path: validation, matching, and equivalence.

The crucial property is that the subject-segment trie is *observationally
identical* to the linear scan: same matched subscriptions, same delivery
order, same statistics — the experiment results must not change by one
bit because the bus matches through the index.  ``LinearScanBus`` keeps
the scan as a test-only oracle.
"""

import random

import pytest

from repro.bus import (
    AttributeFilter,
    EventBus,
    FixedDelay,
    SubjectTrie,
    subject_matches,
    validate_pattern,
)
from repro.bus.bus import Subscription
from repro.sim import Simulator


class LinearScanBus(EventBus):
    """Test-only oracle: tests every subscription against each message."""

    def _matches(self, msg):
        return [sub for sub in list(self._subs.values()) if sub.wants(msg)]


class TestValidatePattern:
    def test_accepts_well_formed(self):
        for p in ("a", "a.b.c", "probe.*.C3", "probe.>", "*", "*.b", "a.*.>"):
            assert validate_pattern(p) == p

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError):
            validate_pattern("")

    def test_rejects_empty_segments(self):
        for p in ("a..b", ".a", "a.", "..", "probe..>"):
            with pytest.raises(ValueError):
                validate_pattern(p)

    def test_rejects_interior_tail_wildcard(self):
        for p in (">.a", "a.>.b", "probe.>.C3"):
            with pytest.raises(ValueError):
                validate_pattern(p)

    def test_rejects_non_string(self):
        with pytest.raises(ValueError):
            validate_pattern(None)

    def test_subscribe_uses_validation(self):
        sim = Simulator()
        bus = EventBus(sim)
        with pytest.raises(ValueError):
            bus.subscribe("a..b", lambda m: None)
        with pytest.raises(ValueError):
            bus.subscribe("a.>.b", lambda m: None)


def _sub(seq: int, pattern: str) -> Subscription:
    return Subscription(f"sub-{seq}", pattern, lambda m: None, seq=seq)


class TestSubjectTrie:
    def test_exact_star_and_tail(self):
        trie = SubjectTrie()
        exact = _sub(1, "a.b.c")
        star = _sub(2, "a.*.c")
        tail = _sub(3, "a.>")
        for s in (exact, star, tail):
            trie.add(s)
        assert trie.match("a.b.c") == [exact, star, tail]
        assert trie.match("a.x.c") == [star, tail]
        assert trie.match("a.b") == [tail]
        assert trie.match("a") == []
        assert trie.match("b.b.c") == []

    def test_tail_requires_at_least_one_more_segment(self):
        trie = SubjectTrie()
        tail = _sub(1, "probe.>")
        trie.add(tail)
        assert trie.match("probe") == []
        assert trie.match("probe.x") == [tail]
        assert trie.match("probe.x.y.z") == [tail]

    def test_match_order_is_subscription_order(self):
        trie = SubjectTrie()
        late_exact = _sub(9, "a.b")
        early_star = _sub(1, "a.*")
        trie.add(late_exact)
        trie.add(early_star)
        assert trie.match("a.b") == [early_star, late_exact]

    def test_remove_prunes(self):
        trie = SubjectTrie()
        s1, s2 = _sub(1, "a.b.c"), _sub(2, "a.*")
        trie.add(s1)
        trie.add(s2)
        assert len(trie) == 2
        trie.remove(s1)
        assert len(trie) == 1
        assert trie.match("a.b.c") == []
        assert trie.match("a.b") == [s2]
        trie.remove(s1)  # idempotent
        assert len(trie) == 1
        trie.remove(s2)
        assert trie.match("a.b") == []
        assert trie._root.is_empty()

    def test_rejects_malformed_pattern(self):
        with pytest.raises(ValueError):
            SubjectTrie().add(_sub(1, "a..b"))


# ---------------------------------------------------------------------------
# Property-style equivalence: trie vs linear scan, and vs subject_matches
# ---------------------------------------------------------------------------

_ALPHABET = ["alpha", "beta", "gamma", "delta"]


def _random_pattern(rng: random.Random) -> str:
    depth = rng.randint(1, 4)
    parts = []
    for i in range(depth):
        roll = rng.random()
        if roll < 0.15 and i == depth - 1:
            parts.append(">")
        elif roll < 0.40:
            parts.append("*")
        else:
            parts.append(rng.choice(_ALPHABET))
    return ".".join(parts)


def _random_subject(rng: random.Random) -> str:
    return ".".join(rng.choice(_ALPHABET) for _ in range(rng.randint(1, 4)))


class TestTrieLinearEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_match_sets_agree_with_subject_matches(self, seed):
        rng = random.Random(seed)
        trie = SubjectTrie()
        subs = [_sub(i, _random_pattern(rng)) for i in range(80)]
        for s in subs:
            trie.add(s)
        for _ in range(300):
            subject = _random_subject(rng)
            expected = [s for s in subs if subject_matches(s.pattern, subject)]
            assert trie.match(subject) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_buses_deliver_identically(self, seed):
        """Same subs + same publishes -> identical deliveries and stats."""
        rng = random.Random(1000 + seed)
        sim = Simulator()
        indexed = EventBus(sim, delivery=FixedDelay(0.01))
        linear = LinearScanBus(sim, delivery=FixedDelay(0.01))
        got_indexed, got_linear = [], []
        subs_indexed, subs_linear = [], []
        for k in range(60):
            pattern = _random_pattern(rng)
            attr = (
                AttributeFilter([("v", ">", 0.5)]) if rng.random() < 0.3 else None
            )
            subs_indexed.append(indexed.subscribe(
                pattern, lambda m, k=k: got_indexed.append((k, m.subject)), attr
            ))
            subs_linear.append(linear.subscribe(
                pattern, lambda m, k=k: got_linear.append((k, m.subject)), attr
            ))
        for idx in rng.sample(range(60), 12):
            indexed.unsubscribe(subs_indexed[idx])
            linear.unsubscribe(subs_linear[idx])
        for _ in range(250):
            subject = _random_subject(rng)
            value = rng.random()
            n_indexed = indexed.publish_subject(subject, v=value)
            n_linear = linear.publish_subject(subject, v=value)
            assert n_indexed == n_linear
        sim.run()
        assert got_indexed == got_linear
        assert indexed.published == linear.published
        assert indexed.delivered == linear.delivered
        assert indexed.total_transit == linear.total_transit

    def test_mid_run_subscribe_matches_linear_semantics(self):
        sim = Simulator()
        indexed = EventBus(sim, delivery=FixedDelay(0.0))
        got = []
        indexed.publish_subject("a.b")  # nobody listening yet
        indexed.subscribe("a.>", lambda m: got.append(m.subject))
        indexed.publish_subject("a.b")
        sim.run()
        assert got == ["a.b"]
