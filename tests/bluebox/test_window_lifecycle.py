"""One operation window, two exits: every way a window can end.

A window (an :class:`~repro.bluebox.services.OperationContext`) ends
through ``commit()`` or through ``abort()``, exactly once.  One table
drives every ending the platform knows — a handler returning, backing
off, faulting; store faults in the handler and in the commit; node
death before and after the handler finished; a stolen lease; a stale
fence; a torn journal append; an inline call; dead-letter handling —
over a journaled store with history and chunked snapshots on, and holds
each to the same contract:

* exactly one of commit/abort ran, once;
* the outbox reached the queue iff the window committed;
* its history events are in the task's history iff it committed, and
  every task's ``seq`` is dense afterwards;
* its store records are on the journal iff it committed, in ONE batch;
* chunk refcounts equal the committed manifests naming each chunk;
* the fiber lock is released — or, when its node died, abandoned.
"""

from collections import Counter

import pytest

from repro.bluebox.cluster import Cluster
from repro.bluebox.services import (
    OperationContext,
    Requeue,
    ServiceFault,
    simple_service,
)
from repro.bluebox.store import StoreWriteError
from repro.durastore import DurableStore
from repro.durastore.journal import WriteAheadJournal
from repro.faults import FaultInjector, RetryPolicy
from repro.faults.plan import (
    FAIL_WRITE,
    FaultPlan,
    JournalFault,
    MessageFault,
    NodeFault,
    StoreFault,
)
from repro.lang.symbols import Keyword
from repro.persistsnap import decode_manifest, is_manifest
from repro.persistsnap.chunkstore import REF_PREFIX
from repro.vinz.api import VinzEnvironment

WORKFLOW = """
(deflink DS :wsdl "urn:window-data")
(deflink CH :wsdl "urn:windowchild-service" :sync t)

(defun main (params)
  (let ((rows (getf params :rows)))
    (when (getf params :inline)
      (CH-Start-Method :params 21))
    (+ (length rows)
       (apply #'+ (for-each (x in (list 1 2 3))
                    (+ x (DS-Lookup-Method :Key x
                                           :Mode (getf params :mode))))))))
"""
CHILD = "(defun main (params) (* 2 params))"
ROWS = [[i, f"row-{i}", i * 1.5] for i in range(120)]
RIGHT = len(ROWS) + sum(x + 10 * x for x in (1, 2, 3))


class Exit:
    """What one context looked like as it left, and how it left."""

    def __init__(self, ctx, how):
        self.ctx = ctx
        self.how = how
        self.sends = [kwargs["body"] for _delay, kwargs in ctx.outbox]
        self.events = [payload for *_rest, payload in ctx.history_buffer]
        self.sealed = list(ctx.batch.records) if ctx.batch else []
        self.appended = []      # journal batches appended during the exit
        self.lock_kept = None   # abort only: owner still holds the lock


class Harness:
    """A Vinz environment with every window exit observed."""

    def __init__(self, monkeypatch, plan=None, retry_policy=None,
                 intervene=None):
        self.exits = []
        self.sent = []          # every body that reached Cluster.send
        self.batches = []       # every batch that reached the journal
        self.doomed = []        # records of store windows dropped open
        self.inline_records = []
        self.intervene = intervene
        self._exiting = None
        self._patch(monkeypatch)
        store = DurableStore(shards=2)
        self.env = env = VinzEnvironment(
            nodes=3, slots=2, seed=9, store=store, history="on",
            retry_policy=retry_policy)
        self.backoffs = 1

        def lookup(ctx, body):
            ctx.charge(0.05)
            if body.get("Mode") == "fault":
                raise ServiceFault("{urn:window-data}Boom", "no data")
            if body.get("Mode") == "requeue" and self.backoffs:
                # a plain handler that wrote, sent and then backed off
                self.backoffs -= 1
                store.write("window-data/backoff", b"once")
                ctx.send("WindowData", "Note", {"from": "backoff"})
                return Requeue(delay=0.01)
            return 10 * body["Key"]

        env.deploy_service(simple_service(
            "WindowData", {"Lookup": lookup, "Note": lambda ctx, body: None},
            namespace="urn:window-data",
            parameters={"Lookup": ["Key", "Mode"]}))
        env.deploy_workflow("WindowChild", CHILD)
        env.deploy_workflow("Window", WORKFLOW, snapshots="v2", cache=False)
        if plan is not None:
            FaultInjector(3, plan).install(env)

    # -- observation ----------------------------------------------------

    def _patch(self, monkeypatch):
        harness = self
        commit, abort = OperationContext.commit, OperationContext.abort
        append = WriteAheadJournal.append_batch
        abort_window = DurableStore.abort_window
        send, process = Cluster.send, Cluster._process
        call_inline = Cluster.call_inline

        def observed_commit(ctx):
            record = Exit(ctx, "commit")
            auto = ctx.cluster.store.auto_commits
            outer, harness._exiting = harness._exiting, record
            try:
                commit(ctx)  # raises when it aborted instead
            finally:
                harness._exiting = outer
            harness.exits.append(record)
            assert ctx.cluster.store.auto_commits == auto
            assert ctx.outbox == []

        def observed_abort(ctx, reason, node_failed=False):
            if not ctx.valid:
                return abort(ctx, reason, node_failed)  # a no-op
            record = Exit(ctx, "abort")
            commits = ctx.cluster.store.journal.commits
            abort(ctx, reason, node_failed)
            assert ctx.cluster.store.journal.commits == commits
            if ctx.fence is not None:
                key, owner, _token = ctx.fence
                record.lock_kept = \
                    ctx.cluster.lock_manager.holder(key) == owner
            harness.exits.append(record)

        def observed_append(journal, batch):
            append(journal, batch)  # a torn append raises: not logged
            harness.batches.append(batch.records)
            if harness._exiting is not None:
                harness._exiting.appended.append(batch.records)

        def observed_abort_window(store):
            harness.doomed.extend(store._window or ())
            abort_window(store)

        def observed_send(cluster, service, operation, body, **kwargs):
            harness.sent.append(body)
            return send(cluster, service, operation, body, **kwargs)

        def observed_process(cluster, instance, message, hop_span=0):
            process(cluster, instance, message, hop_span=hop_span)
            ctx = cluster._in_flight[-1] if cluster._in_flight else None
            if harness.intervene is not None and ctx is not None \
                    and ctx.message is message and ctx.fence is not None:
                act, harness.intervene = harness.intervene, None
                cluster.kernel.schedule(1e-4, lambda: act(harness, ctx))

        def observed_inline(cluster, *args, **kwargs):
            window = cluster.store._window
            before = len(window)
            try:
                return call_inline(cluster, *args, **kwargs)
            finally:
                harness.inline_records.extend(window[before:])

        monkeypatch.setattr(OperationContext, "commit", observed_commit)
        monkeypatch.setattr(OperationContext, "abort", observed_abort)
        monkeypatch.setattr(WriteAheadJournal, "append_batch",
                            observed_append)
        monkeypatch.setattr(DurableStore, "abort_window",
                            observed_abort_window)
        monkeypatch.setattr(Cluster, "send", observed_send)
        monkeypatch.setattr(Cluster, "_process", observed_process)
        monkeypatch.setattr(Cluster, "call_inline", observed_inline)

    # -- driving --------------------------------------------------------

    def run(self, mode=None, inline=False):
        params = [Keyword("rows"), ROWS, Keyword("mode"), mode,
                  Keyword("inline"), inline]
        env = self.env
        task = env.wait_for_task(env.start("Window", params), deadline=120.0)
        env.cluster.run_until_idle()
        return task

    def exits_by(self, how):
        return [e for e in self.exits if e.how == how]

    # -- the contract ---------------------------------------------------

    def in_journal(self, record):
        return sum(any(r is record for r in batch) for batch in self.batches)

    def check_contract(self):
        env, store = self.env, self.env.store
        # exactly one exit per window, once
        per_context = Counter(id(e.ctx) for e in self.exits)
        assert set(per_context.values()) == {1}
        assert not env.cluster._in_flight
        sent = {id(body) for body in self.sent}
        recorded = {id(event.payload)
                    for events in env.history.histories.values()
                    for event in events}
        for exit in self.exits:
            committed = exit.how == "commit"
            # outbox flushed iff committed
            assert all((id(body) in sent) == committed
                       for body in exit.sends), exit.how
            # history present iff committed
            assert all((id(payload) in recorded) == committed
                       for payload in exit.events), exit.how
            # journal records iff committed, in exactly one batch
            if committed:
                assert len(exit.appended) <= 1
                if exit.ctx.owns_window:
                    assert len(exit.appended) == bool(
                        exit.sealed or exit.events)
                for record in exit.sealed:
                    assert any(r is record for r in exit.appended[0])
                if exit.events and exit.ctx.owns_window:
                    assert any(key.startswith("history//")
                               for _op, key, _value in exit.appended[0])
            else:
                assert not exit.appended
                assert not any(self.in_journal(r) for r in exit.sealed)
                # released, or abandoned by a node that died
                if exit.lock_kept is not None:
                    assert exit.lock_kept == exit.ctx.node_failed
        assert not any(self.in_journal(r) for r in self.doomed)
        # the journal is exactly the committed state
        replayed = {key: value for key, value
                    in store.journal.replay()["state"].items()
                    if value is not None}
        assert replayed == {key: store.snapshot_value(key)
                            for key in store.keys()}
        # seq dense, and the durable log agrees with the mirror
        for task_id, events in env.history.histories.items():
            assert [e.seq for e in events] == list(range(len(events)))
            codec = env.workflows[env.registry.tasks[task_id].workflow].codec
            logged = env.history_log.read_task(task_id, codec)
            assert [(e.seq, e.kind) for e in logged] == \
                [(e.seq, e.kind) for e in events]
        # refcounts == committed manifests naming each chunk
        named = Counter()
        for key in store.keys("fiber-state/"):
            blob = store.snapshot_value(key)
            if is_manifest(blob):
                named.update(ref.hex for ref in decode_manifest(blob).chunks)
        chunks = env.workflows["Window"].snapper.chunks
        chunks._refs.clear()  # read the store, not the write-through cache
        digests = [key[len(REF_PREFIX):] for key in store.keys(REF_PREFIX)]
        assert {d: chunks.refcount(d) for d in digests} == dict(named)
        # nothing stays locked, and every window's span was closed
        assert env.locks.outstanding_leases() == []
        assert env.tracer.open_spans() == []
        aborted = [span for span in env.tracer.spans()
                   if "aborted" in span.attrs]
        assert {span.kind for span in aborted} <= {"operation"}
        assert len(aborted) == len(self.exits_by("abort"))


# -- interventions on an in-flight window that holds a fiber lock ----------

def kill_node(harness, ctx):
    env = harness.env
    env.fail_node(ctx.node.id)
    env.cluster.kernel.schedule(0.2, lambda: env.restore_node(ctx.node.id))


def steal_lease(harness, ctx):
    key, _owner, _token = ctx.fence
    harness.env.locks.expire_lock(key, reason="test-steal",
                                  stolen_by="intruder#0")


def expire_behind_the_breaker(harness, ctx):
    """An expiry that bypasses the lease breaker: only the fence check
    at completion stands between the zombie and its commit."""
    locks = harness.env.locks
    breaker, locks.lease_breaker = locks.lease_breaker, None
    locks.expire_lock(ctx.fence[0], reason="test-expiry")
    locks.lease_breaker = breaker
    # the recovery scanner would re-awaken the orphan; here the stale
    # window's own retry does
    assert ctx.valid


TIGHT = RetryPolicy(max_attempts=3, jitter=0.0)

#: name -> (harness kwargs, run kwargs, task status, aborts expected)
ENDINGS = {
    "handler-returns": ({}, {}, "completed", False),
    "handler-returns-requeue": ({}, {"mode": "requeue"}, "completed", False),
    "service-fault": ({}, {"mode": "fault"}, "error", False),
    "store-error-in-handler": (
        {"plan": FaultPlan([StoreFault(FAIL_WRITE, key_prefix="fiber-state/",
                                       nth=2)])}, {}, "completed", True),
    "node-death-mid-window": ({"intervene": kill_node}, {}, "completed",
                              True),
    "crash-on-persist": (
        {"plan": FaultPlan([NodeFault("crash", on_persist=2,
                                      restart_after=0.2)])},
        {}, "completed", True),
    "lease-stolen": ({"intervene": steal_lease}, {}, "completed", True),
    "fence-rejected-at-completion": (
        {"intervene": expire_behind_the_breaker}, {}, "completed", True),
    "torn-journal-commit": (
        {"plan": FaultPlan([JournalFault(nth=4)])}, {}, "completed", True),
    "history-write-fault-in-commit": (
        {"plan": FaultPlan([StoreFault(FAIL_WRITE, key_prefix="history//",
                                       nth=3)])}, {}, "completed", True),
    "inline-call": ({}, {"inline": True}, "completed", False),
    "dead-letter-context": (
        {"plan": FaultPlan([MessageFault("drop", operation="RunFiber",
                                         nth=2, count=50)]),
         "retry_policy": TIGHT}, {}, "error", False),
}


@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_every_ending_is_one_commit_or_one_abort(ending, monkeypatch):
    harness_kwargs, run_kwargs, status, aborts = ENDINGS[ending]
    harness = Harness(monkeypatch, **harness_kwargs)
    task = harness.run(**run_kwargs)
    assert task.status == status, task.error
    if status == "completed":
        assert task.result == RIGHT
    assert harness.intervene is None, "the intervention never fired"
    assert bool(harness.exits_by("abort")) == aborts
    harness.check_contract()
    env = harness.env
    if ending == "handler-returns-requeue":
        assert env.tracer.of_kind("requeue")
        assert harness.backoffs == 0
    if ending == "service-fault":
        assert task.error == "no data"
    if ending == "node-death-mid-window" or ending == "crash-on-persist":
        assert any(e.ctx.node_failed for e in harness.exits_by("abort"))
    if ending == "lease-stolen":
        assert env.metrics.get("lease.window-broken") == 1
    if ending == "fence-rejected-at-completion":
        assert env.metrics.get("lease.fence-rejected") == 1
    if ending == "torn-journal-commit":
        assert env.store.journal.torn_appends == 1
    if ending in ("torn-journal-commit", "history-write-fault-in-commit"):
        # the commit itself refused: the window aborted from inside it
        assert env.metrics.get("operation.faults") == 1
        assert env.metrics.get("fault.injected") == 1
    if ending == "inline-call":
        inline, = [e for e in harness.exits
                   if e.ctx.message is not None and not e.ctx.owns_window]
        assert inline.how == "commit" and inline.events
        # its writes rode the caller's window: one batch holds them all
        assert harness.inline_records
        assert {harness.in_journal(r) for r in harness.inline_records} == {1}
        child, = [t for t in env.registry.tasks.values()
                  if t.workflow == "WindowChild"]
        assert env.history.events_of(child.id)[0].kind == "task-started"
        assert env.replay_task(child.id).fibers_replayed == 1
    if ending == "dead-letter-context":
        out_of_band = [e for e in harness.exits if e.ctx.message is None]
        assert len(out_of_band) == env.cluster.queue.dead_lettered >= 1
        for exit in out_of_band:
            assert exit.how == "commit" and exit.events and exit.sends
            assert len(exit.appended) == 1
    if status == "completed":
        assert env.replay_task(task.id).fibers_replayed >= 4


def test_a_lease_broken_inside_a_handler_frees_its_slot_after_it():
    """A handler on one node breaks the lease of a window running on
    another (an expiry or steal).  The broken window's slot is served
    once the breaking handler has returned: the queued message behind
    it must not start inside that handler's open window."""
    env = VinzEnvironment(nodes=2, seed=1, store=DurableStore(shards=1))
    cluster, locks = env.cluster, env.locks
    holder_node, thief_node = sorted(cluster.nodes)
    started = []

    def hold(ctx, body):
        started.append((body["n"], ctx.now))
        owner = ctx.owner
        assert locks.try_acquire("k", owner)
        ctx.on_complete(lambda: locks.release("k", owner))
        ctx.on_abort(lambda: locks.release("k", owner))
        ctx.charge(1.0)

    def steal(ctx, body):
        locks.expire_lock("k", reason="test-steal")

    cluster.deploy(simple_service("Holder", {"Hold": hold}),
                   node_ids=[holder_node])
    cluster.deploy(simple_service("Thief", {"Steal": steal}),
                   node_ids=[thief_node])
    cluster.send("Holder", "Hold", {"n": 1})
    cluster.send("Holder", "Hold", {"n": 2})  # queued behind the first
    cluster.kernel.schedule(0.1, lambda: cluster.send("Thief", "Steal", {}))
    cluster.run_until_idle()
    assert env.metrics.get("lease.window-broken") == 1
    # the broken window retries; the queued one ran in the freed slot
    assert sorted(n for n, _ in started) == [1, 1, 2]
    assert not cluster._in_flight and not env.store.window_open


def test_a_refused_dead_letter_commit_is_retried(monkeypatch):
    """The store refuses the commit of the window that fails a fiber
    whose message dead-lettered.  Nothing of that window happened — the
    task is not left ``error`` while its history says otherwise — and
    the handling is tried again until the failure is on the log."""
    env = VinzEnvironment(nodes=2, seed=2, store=DurableStore(shards=1),
                          history="on", retry_policy=TIGHT)
    env.deploy_workflow("Lost", CHILD)
    FaultInjector(5, FaultPlan([MessageFault(
        "drop", operation="RunFiber", count=50)])).install(env)
    refusals = []
    commit_batch = DurableStore.commit_batch

    def refuse_once(store, batch):
        if refusals == ["armed"]:
            refusals.append("refused")
            raise StoreWriteError("commit refused by the test")
        return commit_batch(store, batch)

    monkeypatch.setattr(DurableStore, "commit_batch", refuse_once)
    env.cluster.dead_letter_listeners.insert(
        0, lambda message: refusals.append("armed"))
    task_id = env.start("Lost", 4)
    env.cluster.run_until_idle()
    assert refusals == ["armed", "refused"]
    task = env.registry.tasks[task_id]
    assert task.status == "error"
    assert env.metrics.get("recovery.dead-letter-retried") == 1
    kinds = [e.kind for e in env.history_log.read_task(
        task_id, env.workflows["Lost"].codec)]
    assert kinds.count("fiber-failed") == 1
