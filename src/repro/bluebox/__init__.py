"""Simulated BlueBox platform: cluster, queue, services, store, locks."""

from .clock import RealClock, SimKernel, VirtualClock
from .cluster import Cluster, Node, ServiceInstance
from .messagequeue import (
    Message,
    MessageQueue,
    PRIORITY_INTERACTIVE,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    ReplyTo,
)
from .services import (
    Deferred,
    OperationContext,
    Requeue,
    ResponseEnvelope,
    Service,
    ServiceFault,
    simple_service,
)
from .store import DirectoryStore, SharedStore, StoreError
from .locks import CoordinatorLockManager, FileLockManager, LockManager
from .wsdl import WsdlDocument, WsdlOperation, WsdlParameter
from .xmlmsg import ServiceMessage, XmlElement, element_to_value, value_to_element
from .executor import LoadBalancingExecutor

__all__ = [
    "RealClock", "SimKernel", "VirtualClock",
    "Cluster", "Node", "ServiceInstance",
    "Message", "MessageQueue", "PRIORITY_INTERACTIVE", "PRIORITY_LOW",
    "PRIORITY_NORMAL", "ReplyTo",
    "Deferred", "OperationContext", "Requeue", "ResponseEnvelope",
    "Service", "ServiceFault", "simple_service",
    "DirectoryStore", "SharedStore", "StoreError",
    "CoordinatorLockManager", "FileLockManager", "LockManager",
    "WsdlDocument", "WsdlOperation", "WsdlParameter",
    "ServiceMessage", "XmlElement", "element_to_value", "value_to_element",
    "LoadBalancingExecutor",
]
