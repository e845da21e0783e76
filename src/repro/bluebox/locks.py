"""Distributed locks: the single-runner guarantee for fibers.

Paper Section 4.2: "Another obvious requirement was a way to prevent a
single fiber from being run by different JVMs at the same time ...
distributed locks would be required."  The paper ships NFS file locks
("simple and effective, but completely opaque", with per-NFS-server
quirks) and is replacing them with an Apache-ZooKeeper-based
implementation.  We build both:

* :class:`FileLockManager` — advisory lock entries in the shared store
  (the NFS stand-in), including an optional *release visibility delay*
  to model the NFS attribute-cache quirk the paper complains about;
* :class:`CoordinatorLockManager` — a ZooKeeper-like central
  coordinator: sessions own ephemeral locks, and expiring a session
  (node death) releases everything it held.

Both backends additionally carry **leases with fencing tokens**
(Netherite-style ownership): every grant stamps the lock with a
monotonically increasing per-key token and a TTL on the virtual clock,
renewed by the holder's heartbeats.  A holder that goes silent — a
crashed node cannot run release hooks, which is exactly the paper's
"completely opaque" complaint — loses the lock when the lease lapses,
and any write it attempts afterwards is rejected by the fencing check
(`fence_valid`).  The heartbeats of an operation window in flight on a
live node cost no events: the window registers its schedule once
(:class:`Heartbeats`) and the beats it made are settled by arithmetic
whenever one of its leases is read or dropped, so a live holder's
lease never lapses and only a silent one can.  The public
:meth:`LockManager.expire_lock` /
:meth:`LockManager.expire_node` APIs are the one sanctioned way to
break ownership; both notify the ``lease_breaker`` *before* the lock
changes hands so the zombie's operation window is aborted (and its
state rolled back) before a new owner can read anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

#: the NFS attribute-cache quirk of :class:`FileLockManager`: for this
#: long after a release, other owners still see the lock as held.
#: 0 (the default) turns the quirk off.
RELEASE_VISIBILITY_DELAY = 0.0


@dataclass
class Lease:
    """Ownership of one lock for a bounded (virtual) time.

    ``token`` is the key's fencing token at grant time: a per-key
    counter that only ever increases, so a write stamped with an old
    token can be recognized as coming from a superseded owner.
    """

    key: str
    owner: str
    token: int
    granted_at: float
    expires_at: float
    #: virtual time of the most recent grant or heartbeat renewal
    renewed_at: float = 0.0

    def remaining(self, now: float) -> float:
        return self.expires_at - now


class Heartbeats:
    """One operation window's heartbeat schedule: it renews every lease
    its owner holds at ``next_beat`` and every ``heartbeat_interval``
    after, while the beat falls before ``deadline`` (when the window
    commits).  ``inf`` while no beat is due.  The window stops beating
    when it commits or aborts, or its node dies — which is what lets a
    dead holder's leases lapse."""

    __slots__ = ("owner", "next_beat", "deadline")

    def __init__(self, owner: str):
        self.owner = owner
        self.next_beat = math.inf
        self.deadline = math.inf


class LockManager:
    """Abstract distributed lock manager with lease/fencing support.

    Subclasses implement the storage of lock entries (shared-store
    files, coordinator sessions); the lease bookkeeping lives here so
    both backends expose one recovery surface:

    * :meth:`configure_leases` — enable TTLs on a virtual clock;
    * :meth:`renew_owner` — heartbeat: extend every lease an owner holds;
    * :meth:`open_window` / :meth:`keep_alive` / :meth:`close_window`
      — an operation window's heartbeats, settled on read;
    * :meth:`expire_lock` / :meth:`expire_node` — the public APIs for
      breaking ownership (scanner steals, coordinator failure
      detection);
    * :meth:`fencing_token` / :meth:`fence_valid` — zombie-writer
      rejection;
    * :meth:`abandon` — a dying holder's lock entry survives the crash
      (the "dirty" crash model: dead JVMs do not run unlock hooks).
    """

    def __init__(self):
        self.clock_now: Callable[[], float] = lambda: 0.0
        #: lease TTL in virtual seconds; 0 disables expiry (leases are
        #: still tracked — they are the held-locks registry — but never
        #: lapse)
        self.lease_ttl: float = 0.0
        #: how often holders renew (operation windows longer than this
        #: heartbeat)
        self.heartbeat_interval: float = 0.0
        #: key -> active lease (exactly the currently held locks)
        self._leases: Dict[str, Lease] = {}
        #: owner -> its leases by key (the same objects)
        self._by_owner: Dict[str, Dict[str, Lease]] = {}
        #: owner -> the heartbeat schedules of its operation windows in
        #: flight on live nodes.  A listed owner is alive and renewing:
        #: its leases cannot lapse.
        self._windows: Dict[str, List[Heartbeats]] = {}
        #: key -> last granted fencing token (monotonic, never reset)
        self._tokens: Dict[str, int] = {}
        #: called with each lease that can now lapse — granted outside
        #: any window, or still held when its window ended — so the
        #: recovery scanner sleeps while every holder is alive
        self.lease_listener: Optional[Callable[[Lease], None]] = None
        #: called with (key, owner, reason) *before* an expire/steal
        #: removes the lock, so the cluster can abort the zombie's
        #: in-flight window (rolling its state back) before the new
        #: owner reads anything
        self.lease_breaker: Optional[Callable[[str, str, str], None]] = None
        # statistics
        self.leases_granted = 0
        self.leases_renewed = 0
        self.leases_expired = 0
        self.leases_stolen = 0
        self.locks_abandoned = 0
        self.fence_rejections = 0

    # -- backend interface -------------------------------------------------

    def try_acquire(self, key: str, owner: str) -> bool:
        """Attempt to take the lock; non-blocking."""
        raise NotImplementedError

    def release(self, key: str, owner: str) -> bool:
        """Release a held lock; returns False if not held by ``owner``."""
        raise NotImplementedError

    def holder(self, key: str) -> Optional[str]:
        raise NotImplementedError

    def held(self, key: str) -> bool:
        return self.holder(key) is not None

    def _remove_entry(self, key: str, owner: str) -> None:
        """Forcibly remove the backend's lock entry (expire/steal)."""
        raise NotImplementedError

    # -- lease configuration ----------------------------------------------

    def configure_leases(self, ttl: float,
                         clock_now: Optional[Callable[[], float]] = None
                         ) -> None:
        """Switch on lease expiry: locks lapse ``ttl`` virtual seconds
        after their last grant or heartbeat.  Holders heartbeat every
        ``ttl / 4``, so a healthy one renews with margin.
        """
        self.lease_ttl = max(0.0, ttl)
        if clock_now is not None:
            self.clock_now = clock_now
        if self.lease_ttl > 0:
            self.heartbeat_interval = self.lease_ttl / 4.0

    # -- lease bookkeeping (called by backends) ---------------------------

    def _grant(self, key: str, owner: str) -> Lease:
        """A fresh (non-re-entrant) acquisition: bump the fencing token
        and open a lease."""
        if key in self._leases:
            self._drop_lease(key)  # one the backend's entry no longer backs
        # the owner's earlier beats renewed only what it held then
        self._settle(owner)
        token = self._tokens.get(key, 0) + 1
        self._tokens[key] = token
        now = self.clock_now()
        expires = now + self.lease_ttl if self.lease_ttl > 0 else math.inf
        lease = Lease(key=key, owner=owner, token=token, granted_at=now,
                      expires_at=expires, renewed_at=now)
        self._leases[key] = lease
        held = self._by_owner.get(owner)
        if held is None:
            self._by_owner[owner] = {key: lease}
        else:
            held[key] = lease
        self.leases_granted += 1
        if self.lease_listener is not None and owner not in self._windows:
            self.lease_listener(lease)
        return lease

    def _refresh(self, key: str) -> None:
        """A re-entrant acquisition counts as a heartbeat."""
        lease = self._leases.get(key)
        if lease is not None and self.lease_ttl > 0:
            self._settle(lease.owner)
            now = self.clock_now()
            lease.renewed_at = now
            lease.expires_at = now + self.lease_ttl

    def _drop_lease(self, key: str) -> None:
        lease = self._leases.get(key)
        if lease is None:
            return
        self._settle(lease.owner)
        del self._leases[key]
        held = self._by_owner[lease.owner]
        del held[key]
        if not held:
            del self._by_owner[lease.owner]

    # -- operation windows: heartbeats settled on read ---------------------

    def open_window(self, owner: str) -> Heartbeats:
        """An operation window of ``owner`` starts on a live node: until
        it closes, the leases ``owner`` holds cannot lapse."""
        window = Heartbeats(owner)
        windows = self._windows.get(owner)
        if windows is None:
            self._windows[owner] = [window]
        else:
            windows.append(window)
        return window

    def keep_alive(self, window: Heartbeats, duration: float) -> None:
        """``window`` runs ``duration`` more virtual seconds: from now it
        beats every ``heartbeat_interval`` while the beat falls before
        its end.  Nothing is scheduled — :meth:`_settle` applies the
        beats when a lease is read or dropped."""
        interval = self.heartbeat_interval
        if self.lease_ttl <= 0 or interval <= 0 or duration <= interval:
            return  # the window ends (and releases) before a beat is due
        if window.owner not in self._by_owner:
            return  # this window holds no leases
        now = self.clock_now()
        window.next_beat = now + interval
        window.deadline = now + duration

    def close_window(self, window: Heartbeats) -> None:
        """The window committed or aborted, or its node died: it stops
        beating now.  Leases its owner still holds with no other window
        open can lapse from here, and the listener hears of each."""
        owner = window.owner
        self._settle(owner)
        windows = self._windows[owner]
        windows.remove(window)
        if windows:
            return
        del self._windows[owner]
        held = self._by_owner.get(owner)
        if held and self.lease_listener is not None:
            for lease in list(held.values()):
                self.lease_listener(lease)

    def _settle(self, owner: str) -> None:
        """Apply the heartbeats ``owner``'s windows have made up to now.

        Each beat renews every lease the owner holds.  Beat times come
        from repeated addition of the interval — the same floats a
        timer re-armed at every beat would reach.  A beat due at this
        very instant counts, also when the window stops at it.
        """
        windows = self._windows.get(owner)
        if windows is None:
            return
        now = self.clock_now()
        interval = self.heartbeat_interval
        beats = 0
        last = -math.inf
        for window in windows:
            beat = window.next_beat
            if beat > now:
                continue
            deadline = window.deadline
            while beat <= now:
                beats += 1
                if beat > last:
                    last = beat
                beat += interval
                if not beat < deadline:
                    beat = math.inf
            window.next_beat = beat
        if not beats:
            return
        held = self._by_owner.get(owner)
        if held:
            expires = last + self.lease_ttl
            for lease in held.values():
                lease.renewed_at = last
                lease.expires_at = expires
            self.leases_renewed += beats * len(held)

    def _settle_all(self) -> None:
        for owner in self._windows:
            self._settle(owner)

    # -- lease queries -----------------------------------------------------

    def lease_of(self, key: str) -> Optional[Lease]:
        lease = self._leases.get(key)
        if lease is not None:
            self._settle(lease.owner)
        return lease

    def outstanding_leases(self) -> List[Lease]:
        """Every currently held lock's lease (both backends)."""
        self._settle_all()
        return list(self._leases.values())

    def lapsable_leases(self) -> List[Lease]:
        """The leases that can lapse: their owner is no operation window
        in flight on a live node (a grant outside any window, or a lease
        its window left held — a dead node's, say)."""
        return [lease for lease in self._leases.values()
                if lease.owner not in self._windows]

    def lease_expired(self, key: str) -> bool:
        lease = self.lease_of(key)
        if lease is None or self.lease_ttl <= 0:
            return False
        return self.clock_now() >= lease.expires_at

    def fencing_token(self, key: str) -> int:
        """The key's current fencing token (0 = never granted)."""
        return self._tokens.get(key, 0)

    def fence_valid(self, key: str, owner: str, token: int) -> bool:
        """Is a write stamped ``(owner, token)`` still authorized?

        True only while the lock is held by exactly that owner under
        exactly that grant.  Deliberately *not* a bare-expiry check: a
        lapsed-but-unstolen lease is harmless (no second runner
        exists), and failing it would dead-loop long windows.
        """
        lease = self._leases.get(key)
        if lease is None or lease.owner != owner or lease.token != token:
            return False
        return True

    # -- heartbeats --------------------------------------------------------

    def renew(self, key: str, owner: str) -> bool:
        """Extend one lease; False if ``owner`` no longer holds it."""
        lease = self._leases.get(key)
        if lease is None or lease.owner != owner:
            return False
        self._settle(owner)
        if self.lease_ttl > 0:
            now = self.clock_now()
            lease.renewed_at = now
            lease.expires_at = now + self.lease_ttl
            self.leases_renewed += 1
        return True

    def renew_owner(self, owner: str) -> int:
        """Heartbeat: renew every lease ``owner`` holds; returns how
        many were renewed."""
        return sum(self.renew(key, owner)
                   for key in self._by_owner.get(owner, ()))

    def locks_of(self, owner: str) -> List[str]:
        return sorted(self._by_owner.get(owner, ()))

    # -- owner identity ----------------------------------------------------

    @staticmethod
    def owner_node(owner: str) -> Optional[str]:
        """Parse the node id out of an owner identity.

        Owners are ``"{service}@{node}#{message-id}"`` (one window of
        one service instance).  Returns None for owner strings that do
        not follow the convention (test-local owners).
        """
        at = owner.find("@")
        if at < 0:
            return None
        rest = owner[at + 1:]
        hash_pos = rest.find("#")
        node = rest[:hash_pos] if hash_pos >= 0 else rest
        return node or None

    # -- breaking ownership (the one public recovery surface) --------------

    def expire_lock(self, key: str, reason: str = "expired",
                    stolen_by: Optional[str] = None) -> Optional[str]:
        """Break the lock regardless of holder; returns the evicted
        owner (None when the lock was free).

        The ``lease_breaker`` runs *before* the entry is removed: the
        cluster uses it to abort the zombie's in-flight window, so its
        rollback lands before any new owner can observe state.
        """
        owner = self.holder(key)
        if owner is None:
            self._drop_lease(key)
            return None
        if self.lease_breaker is not None:
            self.lease_breaker(key, owner, reason)
        self._remove_entry(key, owner)
        self._drop_lease(key)
        if stolen_by is not None:
            self.leases_stolen += 1
        else:
            self.leases_expired += 1
        return owner

    def expire_node(self, node_id: str) -> List[str]:
        """Break every lock whose owner ran on ``node_id``.

        This is the failure-detector surface: the coordinator backend
        implements it as session expiry (ZooKeeper notices dead
        clients); the file backend has *no* failure detector — the
        paper's "completely opaque" NFS locks — so there it is a no-op
        and recovery waits for the lease to lapse.
        """
        raise NotImplementedError

    def abandon(self, key: str, owner: str) -> bool:
        """A dying holder walks away from its lock *without* releasing
        it — the entry (and lease) survive, exactly as an NFS lock file
        outlives the JVM that wrote it.  Recovery is the lease's job.
        """
        lease = self._leases.get(key)
        if lease is None or lease.owner != owner:
            return False
        self.locks_abandoned += 1
        return True

    # -- stats -------------------------------------------------------------

    def lease_stats(self) -> Dict[str, int]:
        self._settle_all()
        return {
            "granted": self.leases_granted,
            "renewed": self.leases_renewed,
            "expired": self.leases_expired,
            "stolen": self.leases_stolen,
            "abandoned": self.locks_abandoned,
            "fence_rejections": self.fence_rejections,
            "outstanding": len(self._leases),
        }


class FileLockManager(LockManager):
    """NFS-file-style locks stored as entries in the shared store.

    :data:`RELEASE_VISIBILITY_DELAY` models the NFS quirk: after a
    release, other clients may still *see* the lock as held for a short
    window (attribute caching).  The delay is in the owning clock's
    units; pass ``clock_now`` to enable it.
    """

    LOCK_PREFIX = "locks/"

    def __init__(self, store, clock_now: Optional[Callable[[], float]] = None):
        super().__init__()
        self.store = store
        if clock_now is not None:
            self.clock_now = clock_now
        #: (key -> (release_time, last_owner)) for the visibility quirk
        self._recently_released: Dict[str, Tuple[float, str]] = {}
        # statistics
        self.acquisitions = 0
        self.contentions = 0

    def _key(self, key: str) -> str:
        return self.LOCK_PREFIX + key

    def try_acquire(self, key: str, owner: str) -> bool:
        skey = self._key(key)
        if self.store.exists(skey):
            current = self.store.read(skey).decode()
            if current == owner:
                self._refresh(key)
                return True  # re-entrant
            if self.lease_expired(key):
                # the holder went silent past its TTL: steal.  The
                # breaker aborts any zombie window first, then the
                # entry is overwritten under a fresh fencing token.
                self.expire_lock(key, reason="lease-lapsed",
                                 stolen_by=owner)
            else:
                self.contentions += 1
                return False
        if RELEASE_VISIBILITY_DELAY > 0:
            stale = self._recently_released.get(key)
            if stale is not None:
                release_time, last_owner = stale
                now = self.clock_now()
                if now < release_time + RELEASE_VISIBILITY_DELAY \
                        and last_owner != owner:
                    # the quirk: a just-released lock still looks held
                    self.contentions += 1
                    return False
                del self._recently_released[key]
        self.store.write(skey, owner.encode())
        self.acquisitions += 1
        self._grant(key, owner)
        return True

    def release(self, key: str, owner: str) -> bool:
        skey = self._key(key)
        if not self.store.exists(skey):
            return False
        if self.store.read(skey).decode() != owner:
            return False
        self.store.delete(skey)
        self._drop_lease(key)
        if RELEASE_VISIBILITY_DELAY > 0:
            self._recently_released[key] = (self.clock_now(), owner)
        return True

    def holder(self, key: str) -> Optional[str]:
        skey = self._key(key)
        if not self.store.exists(skey):
            return None
        return self.store.read(skey).decode()

    def _remove_entry(self, key: str, owner: str) -> None:
        skey = self._key(key)
        if self.store.exists(skey):
            self.store.delete(skey)
        # an administratively broken lock must be immediately
        # acquirable: no stale visibility window survives it
        self._recently_released.pop(key, None)

    def expire_node(self, node_id: str) -> List[str]:
        """NFS has no failure detector: a dead node's lock files stay
        on the filer until their leases lapse (the recovery scanner's
        job).  Nothing to do here — which *is* the paper's complaint.
        """
        return []

    def force_release(self, key: str) -> None:
        """Administrative unlock (the opaque NFS escape hatch)."""
        self.store.delete(self._key(key))
        self._drop_lease(key)
        # the stale-visibility entry must go too: an operator who just
        # force-freed a lock expects the very next acquire to succeed,
        # not a bogus attribute-cache wait on a lock that no longer
        # exists
        self._recently_released.pop(key, None)

    def stale_visibility_remaining(self, key: str) -> float:
        """Seconds until a released-but-cached lock looks free.

        Discrete-event clients cannot busy-wait (the virtual clock only
        advances between events), so they *charge* this time and then
        call :meth:`expire_visibility` — modelling a blocking wait for
        the NFS attribute cache to refresh.
        """
        if RELEASE_VISIBILITY_DELAY <= 0:
            return 0.0
        stale = self._recently_released.get(key)
        if stale is None or self.store.exists(self._key(key)):
            return 0.0
        release_time, _owner = stale
        return max(0.0, release_time + RELEASE_VISIBILITY_DELAY
                   - self.clock_now())

    def expire_visibility(self, key: str) -> None:
        """Drop the visibility-cache entry (the wait is over)."""
        self._recently_released.pop(key, None)


class CoordinatorLockManager(LockManager):
    """A ZooKeeper-like coordinator: sessions + ephemeral locks.

    Owners register a *session*; locks are ephemeral nodes owned by a
    session.  Killing a session (the coordinator noticing a dead node)
    atomically releases all of its locks — removing the opaque stale-
    lock problem the paper attributes to NFS file locks.
    """

    def __init__(self):
        super().__init__()
        self._locks: Dict[str, str] = {}  # key -> session owner
        #: owner -> keys held; a session ends with its last lock
        self._sessions: Dict[str, Set[str]] = {}
        # statistics
        self.acquisitions = 0
        self.contentions = 0
        self.expired_sessions = 0

    def try_acquire(self, key: str, owner: str) -> bool:
        current = self._locks.get(key)
        if current is not None and current != owner \
                and self.lease_expired(key):
            # silent holder past its TTL: steal under a fresh token
            self.expire_lock(key, reason="lease-lapsed", stolen_by=owner)
            current = None
        if current is None:
            self._locks[key] = owner
            self._sessions.setdefault(owner, set()).add(key)
            self.acquisitions += 1
            self._grant(key, owner)
            return True
        if current == owner:
            self._refresh(key)
            return True
        self.contentions += 1
        return False

    def release(self, key: str, owner: str) -> bool:
        if self._locks.get(key) != owner:
            return False
        self._remove_entry(key, owner)
        self._drop_lease(key)
        return True

    def holder(self, key: str) -> Optional[str]:
        return self._locks.get(key)

    def _remove_entry(self, key: str, owner: str) -> None:
        if self._locks.get(key) == owner:
            del self._locks[key]
        keys = self._sessions.get(owner)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._sessions[owner]

    def expire_session(self, owner: str) -> List[str]:
        """Session death: release every lock the owner held.

        Goes through :meth:`expire_lock` so the lease breaker fires for
        each key — a session expiry is an ownership change like any
        other and must abort zombie windows before freeing the locks.
        """
        keys = sorted(self._sessions.get(owner, set()))
        for key in keys:
            if self._locks.get(key) == owner:
                self.expire_lock(key, reason="session-expired")
        self._sessions.pop(owner, None)
        if keys:
            self.expired_sessions += 1
        return keys

    def expire_node(self, node_id: str) -> List[str]:
        """The coordinator's failure detector: expire every session
        whose owner identity places it on the dead node."""
        released: List[str] = []
        for owner in sorted(self._sessions):
            if self.owner_node(owner) == node_id:
                released.extend(self.expire_session(owner))
        return released

    def session_locks(self, owner: str) -> List[str]:
        return sorted(self._sessions.get(owner, set()))
