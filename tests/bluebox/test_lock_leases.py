"""Lock-manager contract suite: leases, fencing, recovery parity.

Parametrized over both backends (NFS-file-style and coordinator) so the
lease/fencing layer provably behaves identically regardless of where
lock entries are stored — the property the recovery scanner depends on.
"""

import math

import pytest

from repro.bluebox import locks as locks_module
from repro.bluebox.locks import CoordinatorLockManager, FileLockManager
from repro.bluebox.store import SharedStore


class Clock:
    """A settable virtual clock for lease arithmetic."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture(params=["file", "coordinator"])
def manager(request):
    clock = Clock()
    if request.param == "file":
        lm = FileLockManager(SharedStore(), clock_now=clock)
    else:
        lm = CoordinatorLockManager()
    lm.configure_leases(ttl=2.0, clock_now=clock)
    lm.test_clock = clock
    return lm


OWNER_A = "wf@node-1#m-1"
OWNER_B = "wf@node-2#m-2"


class TestLockContract:
    def test_acquire_release_round_trip(self, manager):
        assert manager.try_acquire("k", OWNER_A)
        assert manager.holder("k") == OWNER_A
        assert manager.release("k", OWNER_A)
        assert manager.holder("k") is None
        assert manager.lease_of("k") is None

    def test_reentrant_acquire(self, manager):
        assert manager.try_acquire("k", OWNER_A)
        assert manager.try_acquire("k", OWNER_A)
        # re-entrancy is not a fresh grant: one lease, one token bump
        assert manager.leases_granted == 1
        assert manager.fencing_token("k") == 1

    def test_contender_rejected_while_lease_live(self, manager):
        assert manager.try_acquire("k", OWNER_A)
        assert not manager.try_acquire("k", OWNER_B)
        assert manager.holder("k") == OWNER_A

    def test_release_by_non_owner_refused(self, manager):
        assert manager.try_acquire("k", OWNER_A)
        assert not manager.release("k", OWNER_B)
        assert manager.holder("k") == OWNER_A

    def test_release_of_free_lock_refused(self, manager):
        assert not manager.release("k", OWNER_A)

    def test_reentrant_acquire_renews_lease(self, manager):
        manager.try_acquire("k", OWNER_A)
        manager.test_clock.advance(1.5)
        manager.try_acquire("k", OWNER_A)  # heartbeat via re-entrancy
        manager.test_clock.advance(1.5)
        # 3.0s since grant but only 1.5s since renewal: still live
        assert not manager.lease_expired("k")
        assert not manager.try_acquire("k", OWNER_B)

    def test_explicit_renewal_extends_lease(self, manager):
        manager.try_acquire("k", OWNER_A)
        manager.test_clock.advance(1.9)
        assert manager.renew("k", OWNER_A)
        manager.test_clock.advance(1.9)
        assert not manager.lease_expired("k")
        assert manager.leases_renewed == 1

    def test_renewal_by_non_owner_refused(self, manager):
        manager.try_acquire("k", OWNER_A)
        assert not manager.renew("k", OWNER_B)
        assert not manager.renew("other", OWNER_A)

    def test_renew_owner_heartbeats_every_lock(self, manager):
        manager.try_acquire("k1", OWNER_A)
        manager.try_acquire("k2", OWNER_A)
        manager.try_acquire("k3", OWNER_B)
        manager.test_clock.advance(1.0)
        assert manager.renew_owner(OWNER_A) == 2
        assert manager.locks_of(OWNER_A) == ["k1", "k2"]

    def test_lapsed_lease_is_stolen(self, manager):
        manager.try_acquire("k", OWNER_A)
        manager.test_clock.advance(2.5)  # past the 2.0 TTL
        assert manager.lease_expired("k")
        assert manager.try_acquire("k", OWNER_B)
        assert manager.holder("k") == OWNER_B
        assert manager.leases_stolen == 1

    def test_fencing_token_monotonic_across_grants(self, manager):
        manager.try_acquire("k", OWNER_A)
        token_a = manager.fencing_token("k")
        manager.test_clock.advance(2.5)
        manager.try_acquire("k", OWNER_B)  # steal
        token_b = manager.fencing_token("k")
        manager.release("k", OWNER_B)
        manager.try_acquire("k", OWNER_A)  # fresh grant after release
        token_c = manager.fencing_token("k")
        assert token_a < token_b < token_c

    def test_fence_valid_only_for_current_grant(self, manager):
        manager.try_acquire("k", OWNER_A)
        token = manager.fencing_token("k")
        assert manager.fence_valid("k", OWNER_A, token)
        # a lapsed-but-unstolen lease stays valid: no second runner
        # exists, and failing it would dead-loop long windows
        manager.test_clock.advance(2.5)
        assert manager.fence_valid("k", OWNER_A, token)
        manager.try_acquire("k", OWNER_B)  # steal supersedes the grant
        assert not manager.fence_valid("k", OWNER_A, token)
        assert manager.fence_valid("k", OWNER_B,
                                   manager.fencing_token("k"))

    def test_lease_breaker_fires_before_entry_removal(self, manager):
        observed = []

        def breaker(key, owner, reason):
            # the zombie's window aborts while the entry still exists
            observed.append((key, owner, reason, manager.holder(key)))

        manager.lease_breaker = breaker
        manager.try_acquire("k", OWNER_A)
        manager.test_clock.advance(2.5)
        manager.try_acquire("k", OWNER_B)
        assert observed == [("k", OWNER_A, "lease-lapsed", OWNER_A)]

    def test_expire_lock_returns_evicted_owner(self, manager):
        manager.try_acquire("k", OWNER_A)
        assert manager.expire_lock("k", reason="operator") == OWNER_A
        assert manager.holder("k") is None
        assert manager.expire_lock("k") is None  # already free

    def test_expire_node_crash_parity(self, manager):
        """Node death: coordinator sessions expire instantly (its
        failure detector); file locks stay until the lease lapses —
        but via either path OWNER_B eventually takes the lock."""
        manager.try_acquire("k", OWNER_A)
        released = manager.expire_node("node-1")
        if isinstance(manager, CoordinatorLockManager):
            assert released == ["k"]
            assert manager.holder("k") is None
        else:
            assert released == []  # NFS is opaque: nothing to detect
            assert manager.holder("k") == OWNER_A
            manager.test_clock.advance(2.5)  # ...until the lease lapses
        assert manager.try_acquire("k", OWNER_B)

    def test_abandon_leaves_entry_and_lease(self, manager):
        manager.try_acquire("k", OWNER_A)
        assert manager.abandon("k", OWNER_A)
        assert manager.holder("k") == OWNER_A  # the entry survives
        assert manager.lease_of("k") is not None
        assert manager.locks_abandoned == 1
        assert not manager.abandon("k", OWNER_B)  # not the holder

    def test_outstanding_leases_tracks_held_locks(self, manager):
        manager.try_acquire("k1", OWNER_A)
        manager.try_acquire("k2", OWNER_B)
        assert {lease.key for lease in manager.outstanding_leases()} \
            == {"k1", "k2"}
        manager.release("k1", OWNER_A)
        assert [lease.key for lease in manager.outstanding_leases()] \
            == ["k2"]

    def test_ttl_zero_never_lapses(self, manager):
        manager.configure_leases(ttl=0.0)
        manager.try_acquire("k", OWNER_A)
        manager.test_clock.advance(1e9)
        assert not manager.lease_expired("k")
        assert not manager.try_acquire("k", OWNER_B)
        assert manager.lease_of("k").expires_at == math.inf

    def test_lease_stats_shape(self, manager):
        manager.try_acquire("k", OWNER_A)
        stats = manager.lease_stats()
        assert stats["granted"] == 1
        assert stats["outstanding"] == 1
        for key in ("renewed", "expired", "stolen", "abandoned",
                    "fence_rejections"):
            assert stats[key] == 0


class TestOwnerIdentity:
    def test_owner_node_parses_convention(self):
        assert CoordinatorLockManager.owner_node("wf@node-3#m-17") \
            == "node-3"
        assert FileLockManager.owner_node("svc@n#m") == "n"

    def test_owner_node_tolerates_nonconforming_owners(self):
        assert CoordinatorLockManager.owner_node("test-owner") is None
        assert CoordinatorLockManager.owner_node("svc@") is None
        assert CoordinatorLockManager.owner_node("svc@node") == "node"


class TestFileLockVisibilityFix:
    def test_force_release_clears_stale_visibility(self, monkeypatch):
        monkeypatch.setattr(locks_module, "RELEASE_VISIBILITY_DELAY", 1.0)
        clock = Clock()
        lm = FileLockManager(SharedStore(), clock_now=clock)
        lm.try_acquire("k", OWNER_A)
        lm.release("k", OWNER_A)  # seeds the visibility-cache entry
        lm.try_acquire("k", OWNER_A)
        lm.force_release("k")
        # the operator just force-freed the lock: the next acquire must
        # succeed, not hit a bogus attribute-cache wait
        assert lm.try_acquire("k", OWNER_B)

    def test_lease_steal_clears_stale_visibility(self, monkeypatch):
        monkeypatch.setattr(locks_module, "RELEASE_VISIBILITY_DELAY", 1.0)
        clock = Clock()
        lm = FileLockManager(SharedStore(), clock_now=clock)
        lm.configure_leases(ttl=2.0, clock_now=clock)
        lm.try_acquire("k", OWNER_A)
        lm.release("k", OWNER_A)
        lm.try_acquire("k", OWNER_A)
        clock.advance(2.5)
        assert lm.try_acquire("k", OWNER_B)  # steal, no visibility trap
