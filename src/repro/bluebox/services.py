"""Service abstractions: what runs on BlueBox nodes.

"Operations are the only way to interact with a service in BlueBox and
the only way instances of services can interact with each other"
(paper Section 3.1).  A :class:`Service` publishes a WSDL and a set of
operation handlers; the cluster instantiates it on nodes and routes
queue messages to instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from .messagequeue import PRIORITY_NORMAL, Affinity, ReplyTo
from .store import FencedWriteError, StoreError
from .wsdl import WsdlDocument, WsdlOperation, WsdlParameter


class ServiceFault(Exception):
    """An operation-level error, identified by a QName.

    These travel in response messages and are re-signalled as Gozer
    conditions on the requesting side (paper Section 3.7: "the response
    from the service might be an error, conveniently expressed as an
    XML QName").
    """

    def __init__(self, qname: str, message: str = "", data: Any = None):
        super().__init__(f"{qname}: {message}")
        self.qname = qname
        self.message = message
        self.data = data


class OperationContext:
    """One operation window: what a handler may do while processing one
    message, and the window's two exits.

    * ``charge(seconds)`` — consume simulated processing time; the
      instance slot stays busy for the total charged duration.
    * ``send(...)`` — place a new message on the queue.
    * ``now`` — current virtual time.
    * ``node``/``instance`` — where this handler is running (fiber
      cache lookups are per-instance, Section 4.2).
    * :meth:`commit` / :meth:`abort` — every window ends through
      exactly one of them, once: store writes, history and chunk GC
      share one journal append, and the sends and replies go out only
      after it.  An abort runs the undo log each owner of a change
      (store keys, task and fiber records, chunks, locks) wrote to.

    Platform work outside any message (dead-letter handling) runs on a
    context with no ``instance``/``message`` and commits it when done.
    """

    def __init__(self, cluster, instance=None, message=None):
        self.cluster = cluster
        self.instance = instance
        self.message = message
        #: the lock-owner identity of this window's handler (one place:
        #: LockManager.owner_node parses it back)
        self.owner = (f"{instance.id}#{message.id}"
                      if message is not None else None)
        #: the lease heartbeats of a window the cluster dispatched,
        #: closed by whichever exit ends it
        self.heartbeats = None
        self.charged = 0.0
        #: the current causal span (the operation window, or — while a
        #: fiber advances — its fiber-run span).  Sends from this
        #: context parent their queue-hop spans here; 0 when tracing
        #: is disabled.
        self.span_id = 0
        #: the operation window's own span, closed by :meth:`abort`
        self.window_span = 0
        #: the flag to check before building a :meth:`trace` call
        self.tracing = cluster.tracer.enabled
        #: cleared by :meth:`abort`; a dead window never commits
        self.valid = True
        #: a *dirty* abort: a dead JVM unlinks no NFS lock file
        self.node_failed = False
        #: whether the store's open window is this context's to commit;
        #: an inline call runs inside its ``caller``'s and joins it: that
        #: window's commit sends its messages, its abort runs its undo log
        self.owns_window = False
        self.caller = None
        #: the window's store writes, sealed when the handler returned
        self.batch = None
        #: ``(lock key, owner, token)`` of the fiber lock held; a
        #: window whose token was superseded must not commit
        self.fence = None
        #: history events recorded in this window, flushed by commit
        self.history_buffer = []
        #: buffered outgoing messages, (extra_delay, send kwargs): sent
        #: by commit, so a window that dies sends nothing
        self.outbox = []
        #: hooks: store writers inside the commit's journal batch;
        #: store-free work once it is on the log; the undo log otherwise
        self.pre_commit_hooks = []
        self.completion_hooks = []
        self.abort_hooks = []

    def before_commit(self, fn: Callable[[], None]) -> None:
        """Register a store writer for the commit itself (history
        flush, chunk GC): its writes join the window's one journal
        append, and it registers its own undo in case that fails."""
        self.pre_commit_hooks.append(fn)

    def on_complete(self, fn: Callable[[], None]) -> None:
        """Register a hook for after this window committed (e.g.
        releasing a fiber lock held for the whole window).  It must not
        write to the store: the window's one append has happened."""
        self.completion_hooks.append(fn)

    def on_abort(self, fn: Callable[[], None]) -> None:
        """Log a rollback on the window's one undo log, which an abort
        (node death, store fault, broken lease, refused commit) runs
        newest-first."""
        self.abort_hooks.append(fn)

    def check_fence(self, counter: str) -> None:
        """Raise if this window's lock grant was superseded (lease
        expired, lock stolen): a newer owner may already be running,
        so the zombie must neither write fiber state nor commit."""
        locks = self.cluster.lock_manager
        if self.fence is not None and not locks.fence_valid(*self.fence):
            locks.fence_rejections += 1
            self.cluster.metrics.incr(counter)
            key, owner, token = self.fence
            raise FencedWriteError(
                f"stale fencing token {token} for {key} (owner {owner})")

    def commit(self) -> None:
        """The success exit: fence check, pre-commit writers and ONE
        journal append, then the post-commit hooks and buffered sends.
        A window that cannot commit aborts instead and the
        :class:`StoreError` saying why reaches the caller, who owns the
        redelivery policy."""
        store = self.cluster.store
        try:
            # normally the lease breaker aborted a superseded window at
            # steal time; this is the last line of defense for expiries
            # that bypassed it
            self.check_fence("lease.fence-rejected")
            if self.owns_window and not store.window_open:
                store.begin_window()  # sealed when the handler returned
            for hook in self.pre_commit_hooks:
                hook()
            if self.owns_window:
                batch, self.batch = self.batch, None
                store.commit_batch(batch)
        except StoreError as err:
            # stale fence, failed pre-commit write or torn append (the
            # partial record is dropped by the next journal replay)
            if self.owns_window:
                store.abort_window()
            self.abort(f"commit refused: {err}")
            raise
        for hook in self.completion_hooks:
            hook()
        self._close_heartbeats()
        outbox, self.outbox = self.outbox, []
        if self.caller is not None:
            self.caller.abort_hooks += self.abort_hooks
            outbox, self.caller.outbox = [], self.caller.outbox + outbox
        self._drop_hooks()
        for delay, kwargs in outbox:
            if delay > 0:
                self.cluster.kernel.schedule(
                    delay, lambda kw=kwargs: self.cluster.send(**kw))
            else:
                self.cluster.send(**kwargs)

    def abort(self, reason: str, node_failed: bool = False) -> None:
        """The window's failure exit: the sealed batch never reaches
        the journal, every hook rolls its part back, nothing is sent."""
        if not self.valid:
            return  # a window dies once
        self.valid = False
        self.node_failed = node_failed
        self.cluster.store.discard_batch(self.batch)
        for hook in reversed(self.abort_hooks):
            hook()
        self._close_heartbeats()
        self._drop_hooks()
        self.cluster.tracer.end(self.window_span, end=self.now,
                                aborted=True, error=reason)

    def _close_heartbeats(self) -> None:
        """After the hooks released (or abandoned) the window's locks:
        what it still holds can lapse from now."""
        if self.heartbeats is not None:
            self.cluster.lock_manager.close_window(self.heartbeats)
            self.heartbeats = None

    def _drop_hooks(self) -> None:
        """The window is over and its hooks close over this context:
        dropping them lets it be freed without the cycle collector."""
        self.pre_commit_hooks.clear()
        self.completion_hooks.clear()
        self.abort_hooks.clear()

    @property
    def now(self) -> float:
        return self.cluster.kernel.now

    @property
    def node(self):
        return self.instance.node

    def charge(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self.charged += seconds

    def send(self, service: str, operation: str, body: Dict[str, Any],
             priority: int = PRIORITY_NORMAL,
             reply_to: Optional[ReplyTo] = None,
             max_attempts: int = 10,
             affinity: Optional[Affinity] = None,
             parent_span: Optional[int] = None,
             delay: float = 0.0) -> None:
        """Queue a message for when this window commits, or ``delay``
        seconds after (timers like workflow-sleep).  Its causal parent
        is captured *now* (``parent_span``, default the current span),
        so causality survives the deferral."""
        self.outbox.append((delay, dict(service=service, operation=operation,
                                        body=body, priority=priority,
                                        reply_to=reply_to,
                                        max_attempts=max_attempts,
                                        affinity=affinity,
                                        parent_span=(self.span_id
                                                     if parent_span is None
                                                     else parent_span))))

    def defer(self) -> Deferred:
        """Capture this message's reply for later resolution."""
        return Deferred(self.cluster, self.message.reply_to)

    def trace(self, kind: str, **detail: Any) -> None:
        """Record one event on this node, inside this operation's span."""
        where = {"node": self.instance.node.id} if self.instance else {}
        self.cluster.tracer.event(self.now, kind, self.span_id,
                                  **where, **detail)


class Deferred:
    """Returned by a handler to postpone its reply.

    Synchronous workflow operations (Run, Call, JoinProcess) cannot
    answer until the task finishes; the handler captures the message's
    ``reply_to`` in a :class:`Deferred` and resolves it later.
    """

    def __init__(self, cluster, reply_to: Optional[ReplyTo]):
        self._cluster = cluster
        self._reply_to = reply_to
        self.resolved = False

    def resolve(self, value: Any = None) -> None:
        self._send(ResponseEnvelope(value=value))

    def fail(self, qname: str, message: str = "") -> None:
        self._send(ResponseEnvelope(fault_qname=qname, fault_message=message))

    def _send(self, envelope: "ResponseEnvelope") -> None:
        if self.resolved:
            return
        self.resolved = True
        if self._reply_to is not None:
            self._cluster._route_reply(self._reply_to, envelope)


class Requeue:
    """Returned by a handler to put its message back on the queue.

    Used by AwakeFiber when the fiber's lock is held elsewhere: "a
    running AwakeFiber places a strict limit on how long it will wait
    for its turn to execute the fiber before giving up and placing
    itself back on the message queue for later delivery" (paper
    Section 5).  The handler charges the patience time it spent waiting
    before giving up; ``delay`` is the re-delivery delay.
    """

    def __init__(self, delay: float = 0.0):
        self.delay = delay


#: handler signature: (context, body-dict) -> result value
OperationHandler = Callable[[OperationContext, Dict[str, Any]], Any]


class Service:
    """Base class for BlueBox services.

    Subclasses (or instances built with :meth:`add_operation`) register
    handlers per operation name.  ``base_latency`` is the default
    simulated processing cost charged for every operation on top of
    whatever the handler charges.
    """

    def __init__(self, name: str, namespace: Optional[str] = None,
                 doc: str = "", base_latency: float = 0.001):
        self.name = name
        self.namespace = namespace or f"urn:{name.lower()}-service"
        self.base_latency = base_latency
        self._handlers: Dict[str, OperationHandler] = {}
        self.wsdl = WsdlDocument(service=name, namespace=self.namespace,
                                 port=name, doc=doc)

    def add_operation(self, name: str, handler: OperationHandler,
                      doc: str = "", parameters=None, output: str = "any",
                      faults=None, bridgeable: bool = True) -> None:
        """Register an operation and publish it in the WSDL."""
        self._handlers[name] = handler
        self.wsdl.add_operation(WsdlOperation(
            name=name, doc=doc,
            parameters=[p if isinstance(p, WsdlParameter) else WsdlParameter(p)
                        for p in (parameters or [])],
            output=output,
            faults=list(faults or []),
            bridgeable=bridgeable,
        ))

    def handle(self, context: OperationContext, operation: str,
               body: Dict[str, Any]) -> Any:
        handler = self._handlers.get(operation)
        if handler is None:
            raise ServiceFault(self.wsdl.fault_qname("NoSuchOperation"),
                               f"{self.name} has no operation {operation}")
        context.charge(self.base_latency)
        return handler(context, body)

    def on_deployed(self, cluster) -> None:
        """Hook: called once when the service is deployed to a cluster."""

    def __repr__(self) -> str:
        return f"<Service {self.name} ops={sorted(self._handlers)}>"


def simple_service(name: str, operations: Dict[str, OperationHandler],
                   namespace: Optional[str] = None,
                   base_latency: float = 0.001,
                   parameters: Optional[Dict[str, list]] = None) -> Service:
    """Convenience constructor used heavily by tests and workloads.

    ``parameters`` optionally maps operation name -> list of parameter
    names to publish in the WSDL (deflink generates ``&key`` arguments
    from these).
    """
    service = Service(name, namespace=namespace, base_latency=base_latency)
    parameters = parameters or {}
    for op_name, handler in operations.items():
        service.add_operation(op_name, handler,
                              parameters=parameters.get(op_name, []))
    return service


@dataclass
class ResponseEnvelope:
    """What goes back to a requester: a value or a fault.

    ``duration`` (simulated seconds of processing) is local metadata —
    it never travels in the serialized body; the adaptive-migration
    learner reads it from synchronous inline calls.
    """

    value: Any = None
    fault_qname: Optional[str] = None
    fault_message: str = ""
    duration: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.fault_qname is None

    def to_body(self) -> Dict[str, Any]:
        if self.ok:
            return {"result": self.value}
        return {"fault": self.fault_qname, "message": self.fault_message}

    @classmethod
    def from_body(cls, body: Dict[str, Any]) -> "ResponseEnvelope":
        if "fault" in body:
            return cls(fault_qname=body["fault"],
                       fault_message=body.get("message", ""))
        return cls(value=body.get("result"))
