"""Discrete-event network simulator: engine, links, transport, QoS."""

from .engine import EventHandle, PeriodicTask, SimulationError, Simulator
from .faults import FaultAction, FaultInjector, FaultPlan
from .link import GilbertElliott, Link, LinkStats
from .qos import QoSError, QoSManager, QoSSpec, Reservation
from .transport import DatagramChannel, Message, ReliableChannel

__all__ = [
    "DatagramChannel",
    "EventHandle",
    "FaultAction",
    "FaultInjector",
    "FaultPlan",
    "GilbertElliott",
    "Link",
    "LinkStats",
    "Message",
    "PeriodicTask",
    "QoSError",
    "QoSManager",
    "QoSSpec",
    "ReliableChannel",
    "Reservation",
    "SimulationError",
    "Simulator",
]
