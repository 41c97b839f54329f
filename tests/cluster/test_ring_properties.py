"""Property suite for the consistent-hash ring.

The ring's three load-bearing promises, stated as properties:

1. **Placement determinism** — the ring is a pure function of
   ``(member names, vnodes)``: insertion order, process, and history
   (add/remove round-trips) never change any key's owner — nor does
   any commit: known-answer digests pin the layout, which replicated
   data directories and the topology chaos renders depend on.
2. **Minimal key movement** — a topology change moves roughly the
   joining/leaving node's share of keys (``~1/(N+1)``), where the
   fixed ``mod N`` router remaps almost everything.
3. **Load uniformity** — at >= 128 vnodes every node's share of a large
   key population stays within a stated constant factor of ideal.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    DEFAULT_VNODES,
    HashRing,
    RingRouter,
    fnv1a,
    moved_fraction,
)

pytestmark = pytest.mark.replication

node_names = st.lists(
    st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126),
        min_size=1,
        max_size=12,
    ),
    min_size=1,
    max_size=8,
    unique=True,
)

keys = st.lists(
    st.tuples(
        st.sampled_from(["Review", "Paper", "Assignment"]),
        st.integers(min_value=1, max_value=10**9),
    ),
    min_size=1,
    max_size=40,
)


# -- placement determinism -------------------------------------------------


@given(nodes=node_names, sample=keys, seed=st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_placement_ignores_insertion_order(nodes, sample, seed):
    shuffled = list(nodes)
    seed.shuffle(shuffled)
    ring_a = HashRing(nodes, vnodes=32)
    ring_b = HashRing(shuffled, vnodes=32)
    assert ring_a.nodes == ring_b.nodes
    for entity, record_id in sample:
        key = f"{entity}#{record_id}"
        assert ring_a.owner_of(key) == ring_b.owner_of(key)


@given(nodes=node_names, extra=st.text(min_size=1, max_size=12), sample=keys)
@settings(max_examples=80, deadline=None)
def test_add_remove_round_trip_restores_every_placement(nodes, extra, sample):
    if extra in nodes:
        return
    ring = HashRing(nodes, vnodes=32)
    before = {
        f"{entity}#{record_id}": ring.owner_of(f"{entity}#{record_id}")
        for entity, record_id in sample
    }
    ring.add_node(extra)
    ring.remove_node(extra)
    assert ring.nodes == tuple(sorted(nodes))
    for key, owner in before.items():
        assert ring.owner_of(key) == owner


@given(shard_count=st.integers(min_value=1, max_value=8), sample=keys)
@settings(max_examples=60, deadline=None)
def test_router_placement_is_reproducible_across_instances(
    shard_count, sample
):
    first = RingRouter(shard_count, vnodes=64)
    second = RingRouter(shard_count, vnodes=64)
    for entity, record_id in sample:
        assert first.shard_for(entity, record_id) == second.shard_for(
            entity, record_id
        )
        assert first.shard_for(entity, record_id) in first.all_shards()


@pytest.mark.parametrize("shard_count, vnodes, entity, digest", [
    (4, 128, "Add all data as result of review",
     "476710e10955729f3ed96a6f037755b0dd4260c1cee54e27ab973de28b726367"),
    (4, 128, "Manage order data",
     "2f52ac2fcbb2b97842d0ed9621afc81efdf09cfd98a1d098245042df872bd41b"),
    (3, 64, "Add all data as result of review",
     "c5b82dc58ba18da085384db832a24ce046e760b6f77528e795b004737bfa87e8"),
])
def test_ring_layout_matches_its_known_answer(
    shard_count, vnodes, entity, digest
):
    # the two case-study entities on the default 4x128 fleet, and the
    # topology-chaos geometry; a changed digest means records on disk
    # and in recorded renders would no longer be found where they live
    router = RingRouter(shard_count, vnodes=vnodes)
    placements = [router.shard_for(entity, i) for i in range(1, 1001)]
    assert hashlib.sha256(repr(placements).encode()).hexdigest() == digest


@given(head=st.text(max_size=24), tail=st.text(max_size=24))
@settings(max_examples=200, deadline=None)
def test_fnv1a_streams_from_a_prefix_state(head, tail):
    # the ring hashes every key from its entity's "entity#" state and
    # every vnode point from its node's "node#vnode#" state
    assert fnv1a(head + tail) == fnv1a(tail, fnv1a(head))


def test_overrides_shadow_the_ring_and_clear_cleanly():
    router = RingRouter(4, vnodes=64)
    home = router.shard_for("Review", 7)
    elsewhere = next(i for i in router.all_shards() if i != home)
    router.route_override("Review", 7, elsewhere)
    assert router.shard_for("Review", 7) == elsewhere
    assert router.ring_owner("Review", 7) == home
    assert router.overrides_active() == 1
    router.clear_override("Review", 7)
    assert router.shard_for("Review", 7) == home
    assert router.overrides_active() == 0


def test_retired_indices_are_never_reused():
    router = RingRouter(3, vnodes=32)
    router.remove_shard(1)
    assert router.all_shards() == (0, 2)
    fresh = router.add_shard()
    assert fresh == 3
    assert router.all_shards() == (0, 2, 3)


# -- minimal key movement --------------------------------------------------


@given(shard_count=st.integers(min_value=2, max_value=8))
@settings(max_examples=12, deadline=None)
def test_join_moves_about_one_share_of_keys(shard_count):
    before = RingRouter(shard_count, vnodes=128)
    after = RingRouter(shard_count, vnodes=128)
    after.add_shard()
    moved = moved_fraction(before, after, "Review", 4000)
    # the joining node should take roughly its 1/(N+1) share; 128
    # vnodes keeps the worst case under 1.5x that (measured <= 1.24x
    # across N = 2..8)
    assert 0 < moved <= 1.5 / (shard_count + 1)


@given(shard_count=st.integers(min_value=3, max_value=8))
@settings(max_examples=12, deadline=None)
def test_leave_moves_only_the_leaver_share(shard_count):
    before = RingRouter(shard_count, vnodes=128)
    after = RingRouter(shard_count, vnodes=128)
    after.remove_shard(0)
    moved = moved_fraction(before, after, "Review", 4000)
    assert 0 < moved <= 1.5 / shard_count


class _ModN:
    """The ``fnv1a(entity#id) mod N`` placement the ring is measured
    against."""

    def __init__(self, shard_count: int):
        self.shard_count = shard_count

    def shard_for(self, entity: str, record_id: int) -> int:
        return fnv1a(f"{entity}#{record_id}") % self.shard_count


@given(shard_count=st.integers(min_value=2, max_value=8))
@settings(max_examples=12, deadline=None)
def test_ring_moves_far_fewer_keys_than_mod_n(shard_count):
    ring_moved = moved_fraction(
        RingRouter(shard_count, vnodes=128),
        (lambda r: (r.add_shard(), r)[1])(RingRouter(shard_count, vnodes=128)),
        "Review",
        4000,
    )
    mod_moved = moved_fraction(
        _ModN(shard_count), _ModN(shard_count + 1), "Review", 4000
    )
    # mod N remaps ~(N-1)/N of all keys on a resize; the ring must beat
    # it by a wide margin, not a rounding error
    assert mod_moved > 0.5
    assert ring_moved < mod_moved / 2


# -- load uniformity -------------------------------------------------------


@pytest.mark.parametrize("shard_count", [2, 3, 4, 6, 8])
@pytest.mark.parametrize("vnodes", [128, 256])
def test_load_stays_within_stated_bound_at_128_vnodes(shard_count, vnodes):
    # production node names are deterministic ("shard-i"), so the
    # imbalance for each (N, vnodes) pair is a fixed measurable number;
    # the stated bound: no node above 1.35x or below 0.7x ideal share
    # for a 5000-key population (measured extremes: 1.23x / 0.82x)
    assert vnodes >= DEFAULT_VNODES
    router = RingRouter(shard_count, vnodes=vnodes)
    tally = Counter(
        router.shard_for("Review", record_id) for record_id in range(1, 5001)
    )
    ideal = 5000 / shard_count
    assert len(tally) == shard_count, "some shard owns no keys at all"
    assert max(tally.values()) <= 1.35 * ideal
    assert min(tally.values()) >= 0.7 * ideal


def test_more_vnodes_smooth_the_worst_shard():
    # the reason DEFAULT_VNODES is 128 and not 8: aggregate imbalance
    # over the fleet sizes the gateway runs must improve with vnodes
    def worst_ratio(vnodes: int) -> float:
        worst = 0.0
        for shard_count in (2, 3, 4, 6, 8):
            router = RingRouter(shard_count, vnodes=vnodes)
            tally = Counter(
                router.shard_for("Review", record_id)
                for record_id in range(1, 3001)
            )
            ideal = 3000 / shard_count
            spread = max(tally.values()) - min(
                tally.get(i, 0) for i in router.all_shards()
            )
            worst = max(worst, spread / ideal)
        return worst

    assert worst_ratio(128) < worst_ratio(8)
