"""Minimal HTTP substrate over the simulated network.

The paper's system is *web-based*: the publishing manager is an HTML form,
and the media server is reached over "the server HTTP port and the URL for
Internet/LAN connections" (§2.5). This module provides just enough HTTP to
reproduce those workflows deterministically:

* :class:`VirtualNetwork` — named hosts with configurable duplex links;
* :class:`HTTPServer` — routes bound to ``(host, port)``;
* :class:`HTTPClient` — ``fetch()`` drives the simulator until the
  response arrives, so calling code reads sequentially.

Requests/responses ride :class:`~repro.net.transport.ReliableChannel`, so
link loss translates into retransmission latency exactly like TCP-borne
HTTP would.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlencode, urlparse

from ..net.engine import SimulationError, Simulator
from ..net.link import GilbertElliott, Link
from ..net.transport import Message, ReliableChannel


class HTTPError(Exception):
    """Request failures (timeouts, unroutable hosts, bad URLs)."""


@dataclass
class HTTPRequest:
    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: Any = None
    query: Dict[str, str] = field(default_factory=dict)
    client_host: str = ""

    def wire_size(self) -> int:
        size = len(self.method) + len(self.path) + 32
        size += sum(len(k) + len(v) + 4 for k, v in self.headers.items())
        if isinstance(self.body, (bytes, bytearray)):
            size += len(self.body)
        elif isinstance(self.body, str):
            size += len(self.body.encode())
        elif self.body is not None:
            size += 256  # structured payloads: rough envelope
        return size


@dataclass
class HTTPResponse:
    status: int
    body: Any = None
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def wire_size(self) -> int:
        size = 64 + sum(len(k) + len(v) + 4 for k, v in self.headers.items())
        if isinstance(self.body, (bytes, bytearray)):
            size += len(self.body)
        elif isinstance(self.body, str):
            size += len(self.body.encode())
        elif self.body is not None:
            size += 256
        return size


Handler = Callable[[HTTPRequest], HTTPResponse]


class VirtualNetwork:
    """Named hosts, lazily created duplex links, and a port table."""

    #: the :class:`Link` shape of every path not :meth:`connect`-ed
    DEFAULT_BANDWIDTH = 10_000_000.0
    DEFAULT_DELAY = 0.01

    def __init__(self) -> None:
        self.simulator = Simulator()
        self._hosts: set = set()
        self._links: Dict[Tuple[str, str], Link] = {}
        self._ports: Dict[Tuple[str, int], "HTTPServer"] = {}
        self._seed = itertools.count(1000)

    def add_host(self, name: str) -> str:
        self._hosts.add(name)
        return name

    def connect(
        self,
        a: str,
        b: str,
        *,
        bandwidth: float = 1_000_000.0,
        delay: float = 0.02,
        jitter: float = 0.0,
        loss_rate: float = 0.0,
        burst_loss: Optional[GilbertElliott] = None,
        queue_limit: int = 64,
    ) -> None:
        """Configure both directions of the a↔b path (:class:`Link`'s
        parameters, one shape each way)."""
        for src, dst in ((a, b), (b, a)):
            self._hosts.add(src)
            self._links[(src, dst)] = Link(
                self.simulator,
                bandwidth=bandwidth,
                delay=delay,
                jitter=jitter,
                loss_rate=loss_rate,
                burst_loss=burst_loss,
                queue_limit=queue_limit,
                seed=next(self._seed),
                name=f"{src}->{dst}",
            )

    def link(self, src: str, dst: str) -> Link:
        if src == dst:
            raise SimulationError("no loopback links; use distinct hosts")
        key = (src, dst)
        if key not in self._links:
            self._hosts.update(key)
            self._links[key] = Link(
                self.simulator,
                seed=next(self._seed),
                name=f"{src}->{dst}",
                bandwidth=self.DEFAULT_BANDWIDTH,
                delay=self.DEFAULT_DELAY,
            )
        return self._links[key]

    def bind(self, host: str, port: int, server: "HTTPServer") -> None:
        key = (host, port)
        if key in self._ports:
            raise HTTPError(f"port {port} on {host!r} already bound")
        self._ports[key] = server

    def lookup(self, host: str, port: int) -> "HTTPServer":
        try:
            return self._ports[(host, port)]
        except KeyError:
            raise HTTPError(f"connection refused: {host}:{port}") from None


class HTTPServer:
    """Routes + handler dispatch at one (host, port)."""

    def __init__(self, network: VirtualNetwork, host: str, port: int = 80) -> None:
        self.network = network
        self.host = network.add_host(host)
        self.port = port
        self._routes: List[Tuple[str, str, Handler]] = []
        network.bind(host, port, self)
        self.requests_served = 0

    def route(self, method: str, prefix: str, handler: Handler) -> None:
        """Register a handler for ``method`` + paths starting with ``prefix``.

        Longest-prefix match wins; method must match exactly.
        """
        self._routes.append((method.upper(), prefix, handler))
        self._routes.sort(key=lambda r: -len(r[1]))

    def handle(self, request: HTTPRequest) -> HTTPResponse:
        self.requests_served += 1
        for method, prefix, handler in self._routes:
            if request.method.upper() == method and request.path.startswith(prefix):
                try:
                    return handler(request)
                except HTTPError as exc:
                    return HTTPResponse(400, body=str(exc))
        return HTTPResponse(404, body=f"no route for {request.method} {request.path}")


class HTTPClient:
    """Issues requests from one host; ``fetch`` is simulation-blocking."""

    #: seconds ``fetch`` waits for a response; a reconnecting player
    #: clamps its own client's :attr:`timeout` while it retries
    TIMEOUT = 10.0

    def __init__(self, network: VirtualNetwork, host: str) -> None:
        self.network = network
        self.host = network.add_host(host)
        self.timeout = self.TIMEOUT

    def fetch(
        self,
        method: str,
        url: str,
        *,
        body: Any = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> HTTPResponse:
        """Send a request and run the simulator until the response lands."""
        parsed = urlparse(url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise HTTPError(f"bad URL {url!r}")
        server_host = parsed.hostname
        port = parsed.port or 80
        server = self.network.lookup(server_host, port)
        request = HTTPRequest(
            method=method,
            path=parsed.path or "/",
            headers=dict(headers or {}),
            body=body,
            query=dict(parse_qsl(parsed.query)),
            client_host=self.host,
        )

        simulator = self.network.simulator
        result: List[HTTPResponse] = []

        # response channel: server -> client
        def deliver_response(message: Message) -> None:
            result.append(message.payload)

        response_channel = ReliableChannel(
            simulator,
            self.network.link(server_host, self.host),
            self.network.link(self.host, server_host),
            deliver_response,
        )

        def handle_request(message: Message) -> None:
            response = server.handle(message.payload)
            response_channel.send(Message(response, response.wire_size()))

        request_channel = ReliableChannel(
            simulator,
            self.network.link(self.host, server_host),
            self.network.link(server_host, self.host),
            handle_request,
        )
        request_channel.send(Message(request, request.wire_size()))

        if not simulator.wait(
            lambda: bool(result), deadline=simulator.now + self.timeout
        ):
            raise HTTPError(f"timeout after {self.timeout}s: {method} {url}")
        return result[0]

    def get(self, url: str, **kwargs: Any) -> HTTPResponse:
        return self.fetch("GET", url, **kwargs)

    def post(self, url: str, **kwargs: Any) -> HTTPResponse:
        return self.fetch("POST", url, **kwargs)


def form_encode(fields: Dict[str, str]) -> str:
    """application/x-www-form-urlencoded body (the Fig. 5 form)."""
    return urlencode(fields)


def form_decode(body: str) -> Dict[str, str]:
    return dict(parse_qsl(body))
