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
(`fence_valid`).  The public :meth:`LockManager.expire_lock` /
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


class LockManager:
    """Abstract distributed lock manager with lease/fencing support.

    Subclasses implement the storage of lock entries (shared-store
    files, coordinator sessions); the lease bookkeeping lives here so
    both backends expose one recovery surface:

    * :meth:`configure_leases` — enable TTLs on a virtual clock;
    * :meth:`renew_owner` — heartbeat: extend every lease an owner holds;
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
        #: how often holders renew (the cluster schedules heartbeats
        #: for operation windows longer than this)
        self.heartbeat_interval: float = 0.0
        #: key -> active lease (exactly the currently held locks)
        self._leases: Dict[str, Lease] = {}
        #: key -> last granted fencing token (monotonic, never reset)
        self._tokens: Dict[str, int] = {}
        #: called with each newly granted Lease (arms the recovery
        #: scanner)
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
        token = self._tokens.get(key, 0) + 1
        self._tokens[key] = token
        now = self.clock_now()
        expires = now + self.lease_ttl if self.lease_ttl > 0 else math.inf
        lease = Lease(key=key, owner=owner, token=token, granted_at=now,
                      expires_at=expires, renewed_at=now)
        self._leases[key] = lease
        self.leases_granted += 1
        if self.lease_listener is not None:
            self.lease_listener(lease)
        return lease

    def _refresh(self, key: str) -> None:
        """A re-entrant acquisition counts as a heartbeat."""
        lease = self._leases.get(key)
        if lease is not None and self.lease_ttl > 0:
            now = self.clock_now()
            lease.renewed_at = now
            lease.expires_at = now + self.lease_ttl

    def _drop_lease(self, key: str) -> None:
        self._leases.pop(key, None)

    # -- lease queries -----------------------------------------------------

    def lease_of(self, key: str) -> Optional[Lease]:
        return self._leases.get(key)

    def outstanding_leases(self) -> List[Lease]:
        """Every currently held lock's lease (both backends)."""
        return list(self._leases.values())

    def lease_expired(self, key: str) -> bool:
        lease = self._leases.get(key)
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
        if self.lease_ttl > 0:
            now = self.clock_now()
            lease.renewed_at = now
            lease.expires_at = now + self.lease_ttl
            self.leases_renewed += 1
        return True

    def renew_owner(self, owner: str) -> int:
        """Heartbeat: renew every lease ``owner`` holds; returns how
        many were renewed."""
        count = 0
        for lease in list(self._leases.values()):
            if lease.owner == owner and self.renew(lease.key, owner):
                count += 1
        return count

    def locks_of(self, owner: str) -> List[str]:
        return sorted(lease.key for lease in self._leases.values()
                      if lease.owner == owner)

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
        self._sessions: Dict[str, Set[str]] = {}  # owner -> keys held
        # statistics
        self.acquisitions = 0
        self.contentions = 0
        self.expired_sessions = 0

    def ensure_session(self, owner: str) -> None:
        self._sessions.setdefault(owner, set())

    def try_acquire(self, key: str, owner: str) -> bool:
        self.ensure_session(owner)
        current = self._locks.get(key)
        if current is not None and current != owner \
                and self.lease_expired(key):
            # silent holder past its TTL: steal under a fresh token
            self.expire_lock(key, reason="lease-lapsed", stolen_by=owner)
            current = None
        if current is None:
            self._locks[key] = owner
            self._sessions[owner].add(key)
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
        del self._locks[key]
        self._sessions.get(owner, set()).discard(key)
        self._drop_lease(key)
        return True

    def holder(self, key: str) -> Optional[str]:
        return self._locks.get(key)

    def _remove_entry(self, key: str, owner: str) -> None:
        if self._locks.get(key) == owner:
            del self._locks[key]
        self._sessions.get(owner, set()).discard(key)

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
