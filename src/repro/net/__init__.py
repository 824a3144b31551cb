"""Discrete-event network simulator: engine, links, transport, QoS."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "engine": ("EventHandle", "PeriodicTask", "SimulationError", "Simulator"),
    "faults": ("FaultAction", "FaultInjector", "FaultPlan"),
    "link": ("GilbertElliott", "Link", "LinkStats"),
    "qos": ("QoSError", "QoSManager", "QoSSpec", "Reservation"),
    "transport": ("DatagramChannel", "Message", "ReliableChannel"),
})
