"""Lock-manager contract suite: leases, fencing, recovery parity.

Parametrized over both backends (NFS-file-style and coordinator) so the
lease/fencing layer provably behaves identically regardless of where
lock entries are stored — the property the recovery scanner depends on.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bluebox import locks as locks_module
from repro.bluebox.locks import CoordinatorLockManager, FileLockManager
from repro.bluebox.store import SharedStore
from repro.vinz.api import VinzEnvironment


class Clock:
    """A settable virtual clock for lease arithmetic."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


BACKENDS = ["file", "coordinator"]


def make_manager(backend):
    clock = Clock()
    if backend == "file":
        lm = FileLockManager(SharedStore(), clock_now=clock)
    else:
        lm = CoordinatorLockManager()
    lm.configure_leases(ttl=2.0, clock_now=clock)
    lm.test_clock = clock
    return lm


@pytest.fixture(params=BACKENDS)
def manager(request):
    return make_manager(request.param)


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


def chain_beats(start, duration, interval, stop):
    """The reference: the heartbeats a self-rescheduling timer event
    makes for a window sealed at ``start`` for ``duration`` seconds —
    the first ``interval`` after the seal, then one per ``interval``
    while the next falls before the window's end — stopped at ``stop``,
    when the window ended (a beat due at that very instant counts)."""
    beats = []
    if duration <= interval:
        return beats
    deadline = start + duration
    beat = start + interval
    while beat <= stop:
        beats.append(beat)
        beat = beat + interval
        if not beat < deadline:
            break
    return beats


class TestSettledHeartbeats:
    """A window's heartbeats schedule no events: the lock manager
    settles them whenever a lease is read or dropped, to exactly what
    one timer event per beat would have left behind."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=150, deadline=None)
    @given(start=st.floats(0.0, 50.0), duration=st.floats(0.01, 8.0),
           stop=st.sampled_from(["abort", "death", "commit"]),
           stop_at=st.one_of(st.floats(0.0, 1.0), st.integers(0, 20)),
           reads=st.lists(st.floats(0.0, 1.0), max_size=8))
    def test_settled_on_read_equals_the_beat_chain(self, backend, start,
                                                    duration, stop, stop_at,
                                                    reads):
        lm = make_manager(backend)
        clock, ttl = lm.test_clock, lm.lease_ttl
        lapsable = []
        lm.lease_listener = lapsable.append
        clock.now = start
        window = lm.open_window(OWNER_A)
        assert lm.try_acquire("k", OWNER_A)
        lm.keep_alive(window, duration)
        every = chain_beats(start, duration, lm.heartbeat_interval, math.inf)
        if stop == "commit":
            stop_time = start + duration
        elif isinstance(stop_at, int) and every:
            stop_time = every[min(stop_at, len(every) - 1)]  # on a beat
        else:
            stop_time = start + float(stop_at) * duration
        beats = chain_beats(start, duration, lm.heartbeat_interval, stop_time)
        horizon = duration + 3 * ttl
        # reads at the stop instant run before it
        timeline = sorted([(start + f * horizon, "read") for f in reads]
                          + [(stop_time, "stop")], key=lambda e: e[0])
        stopped = False
        for when, what in timeline:
            clock.now = when
            if what == "stop":
                if stop == "death":
                    lm.abandon("k", OWNER_A)  # a dead JVM unlinks nothing
                else:
                    lm.release("k", OWNER_A)
                lm.close_window(window)
                stopped = True
                continue
            made = [beat for beat in beats if beat <= when]
            assert lm.lease_stats()["renewed"] == len(made)
            if stopped and stop != "death":
                assert lm.lease_of("k") is None
                assert not lm.lease_expired("k")
                continue
            last = made[-1] if made else start
            lease = lm.lease_of("k")
            assert (lease.renewed_at, lease.expires_at) == (last, last + ttl)
            assert lm.lease_expired("k") == (when >= last + ttl)
        assert lm.lease_stats()["renewed"] == len(beats)
        # only the dead holder's lease became able to lapse
        assert [lease.key for lease in lapsable] == \
            (["k"] if stop == "death" else [])

    def test_a_stopped_holder_is_stolen_at_expiry_not_a_beat_before(
            self, manager):
        clock = manager.test_clock
        window = manager.open_window(OWNER_A)
        manager.try_acquire("k", OWNER_A)
        manager.keep_alive(window, 60.0)
        clock.now = 1.3  # the node dies after the beats at 0.5 and 1.0
        manager.abandon("k", OWNER_A)
        manager.close_window(window)
        expiry = manager.lease_of("k").expires_at
        assert expiry == 1.0 + manager.lease_ttl
        clock.now = expiry - manager.heartbeat_interval
        assert not manager.try_acquire("k", OWNER_B)
        clock.now = expiry
        assert manager.try_acquire("k", OWNER_B)
        assert manager.leases_stolen == 1
        assert manager.lease_stats()["renewed"] == 2

    def test_a_live_holder_is_never_stolen(self, manager):
        clock = manager.test_clock
        window = manager.open_window(OWNER_A)
        manager.try_acquire("k", OWNER_A)
        manager.keep_alive(window, 60.0)
        for when in (1.9, 2.0, 2.1, 30.0, 59.9):
            clock.now = when
            assert not manager.try_acquire("k", OWNER_B)
        assert manager.lapsable_leases() == []


LONG_WINDOW = "(defun main (p) (compute 60) :done)"


def start_long_window(locks):
    """A task whose one fiber holds its lock for a 60-virtual-second
    window; returns the environment once that window is in flight."""
    env = VinzEnvironment(nodes=2, seed=1, locks=locks)
    env.deploy_workflow("W", LONG_WINDOW)
    env.start("W", None)
    cluster = env.cluster
    cluster.run_until(lambda: any(ctx.message.operation == "RunFiber"
                                  for ctx in cluster._in_flight))
    return env


class TestLiveHoldersCostNoEvents:
    def test_a_long_window_leaves_only_its_completion_pending(self):
        env = start_long_window("file")
        assert env.cluster.kernel.pending() == 1
        lease, = env.locks.outstanding_leases()
        window, = env.cluster._in_flight
        env.cluster.run_until_idle()
        # the run still renewed the lease every beat the chain made
        renewed = env.locks.lease_stats()["renewed"]
        assert renewed == len(chain_beats(
            lease.granted_at, window.charged, env.locks.heartbeat_interval,
            math.inf)) > 100

    def test_a_fault_free_run_never_scans(self):
        env = start_long_window("file")
        env.cluster.run_until_idle()
        assert all(task.status == "completed"
                   for task in env.registry.tasks.values())
        assert env.recovery.scans == 0
        assert env.locks.lease_stats()["renewed"] > 0

    @pytest.mark.parametrize("locks", BACKENDS)
    def test_a_node_killed_on_the_cluster_has_its_lease_reclaimed(self,
                                                                  locks):
        """Killed through ``Cluster.fail_node``, not the environment:
        the window's beats stop, its abandoned lease lapses at the last
        beat plus the TTL, and the scanner reclaims it in time."""
        env = start_long_window(locks)
        cluster, lm = env.cluster, env.locks
        window, = cluster._in_flight
        lease, = lm.outstanding_leases()
        sealed = lease.granted_at  # granted and sealed at one instant
        cluster.kernel.schedule(
            1.3, lambda: cluster.fail_node(window.node.id))
        cluster.run_until(lambda: not window.valid)
        assert lm.lease_of(lease.key) is lease  # abandoned, not released
        last_beat = sealed + lm.heartbeat_interval + lm.heartbeat_interval
        assert lease.renewed_at == last_beat
        assert lease.expires_at == last_beat + lm.lease_ttl
        cluster.run_until_idle()
        assert all(task.status == "completed"
                   for task in env.registry.tasks.values())
        recovery = env.recovery.summary()
        assert recovery["locks_expired"] == 1
        assert 0 < recovery["max_recovery_latency"] \
            <= lm.lease_ttl + env.recovery.interval


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
