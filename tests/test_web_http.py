"""Unit tests for the HTTP substrate (repro.web)."""

import pytest

from repro.web.http import (
    HTTPClient,
    HTTPError,
    HTTPRequest,
    HTTPResponse,
    HTTPServer,
    VirtualNetwork,
    form_decode,
    form_encode,
)


@pytest.fixture
def net():
    network = VirtualNetwork()
    network.connect("client", "server", bandwidth=10e6, delay=0.005)
    return network


@pytest.fixture
def server(net):
    srv = HTTPServer(net, "server", 8080)
    srv.route("GET", "/hello", lambda r: HTTPResponse(200, body="hi"))
    srv.route("POST", "/echo", lambda r: HTTPResponse(200, body=r.body))
    return srv


@pytest.fixture
def client(net):
    return HTTPClient(net, "client")


class TestRouting:
    def test_basic_get(self, server, client):
        response = client.get("http://server:8080/hello")
        assert response.ok and response.body == "hi"
        assert server.requests_served == 1

    def test_post_echo(self, server, client):
        response = client.post("http://server:8080/echo", body={"a": 1})
        assert response.body == {"a": 1}

    def test_404(self, server, client):
        assert client.get("http://server:8080/missing").status == 404

    def test_method_mismatch_404(self, server, client):
        assert client.post("http://server:8080/hello").status == 404

    def test_longest_prefix_wins(self, net, client):
        srv = HTTPServer(net, "server", 9000)
        srv.route("GET", "/a", lambda r: HTTPResponse(200, body="short"))
        srv.route("GET", "/a/b", lambda r: HTTPResponse(200, body="long"))
        assert client.get("http://server:9000/a/b/c").body == "long"
        assert client.get("http://server:9000/a/x").body == "short"

    def test_query_parsing(self, net, client):
        srv = HTTPServer(net, "server", 9001)
        srv.route("GET", "/q", lambda r: HTTPResponse(200, body=r.query))
        assert client.get("http://server:9001/q?x=1&y=z").body == {"x": "1", "y": "z"}

    def test_client_host_visible(self, net, client):
        srv = HTTPServer(net, "server", 9002)
        srv.route("GET", "/", lambda r: HTTPResponse(200, body=r.client_host))
        assert client.get("http://server:9002/").body == "client"

    def test_handler_http_error_becomes_400(self, net, client):
        srv = HTTPServer(net, "server", 9003)

        def boom(request):
            raise HTTPError("bad form")

        srv.route("GET", "/boom", boom)
        response = client.get("http://server:9003/boom")
        assert response.status == 400 and "bad form" in response.body


class TestNetworkPlumbing:
    def test_connection_refused(self, net, client):
        with pytest.raises(HTTPError):
            client.get("http://server:5999/hello")

    def test_bad_url(self, client):
        with pytest.raises(HTTPError):
            client.get("ftp://server/thing")

    def test_double_bind_rejected(self, net):
        HTTPServer(net, "server", 7000)
        with pytest.raises(HTTPError):
            HTTPServer(net, "server", 7000)

    def test_request_takes_network_time(self, server, client, net):
        before = net.simulator.now
        client.get("http://server:8080/hello")
        assert net.simulator.now > before

    def test_timeout_on_black_hole(self, net, monkeypatch):
        # 100% loss both ways: reliable channel keeps retrying, fetch times out
        net.connect("c2", "server", bandwidth=1e6, delay=0.01, loss_rate=0.999)
        HTTPServer(net, "server", 7100).route(
            "GET", "/", lambda r: HTTPResponse(200)
        )
        monkeypatch.setattr(HTTPClient, "TIMEOUT", 2.0)
        client = HTTPClient(net, "c2")
        with pytest.raises(HTTPError):
            client.get("http://server:7100/")

    def test_lossy_link_still_succeeds(self, net, monkeypatch):
        net.connect("c3", "server", bandwidth=1e6, delay=0.01, loss_rate=0.3)
        srv = HTTPServer(net, "server", 7200)
        srv.route("GET", "/", lambda r: HTTPResponse(200, body="made it"))
        monkeypatch.setattr(HTTPClient, "TIMEOUT", 30.0)
        client = HTTPClient(net, "c3")
        assert client.get("http://server:7200/").body == "made it"

    def test_default_link_created_lazily(self):
        network = VirtualNetwork()
        srv = HTTPServer(network, "s", 80)
        srv.route("GET", "/", lambda r: HTTPResponse(200, body="ok"))
        assert HTTPClient(network, "c").get("http://s:80/").body == "ok"

    def test_loopback_rejected(self):
        network = VirtualNetwork()
        with pytest.raises(Exception):
            network.link("same", "same")


class TestErrorPaths:
    """Timeout/error-path coverage: late responses must stay harmless."""

    def test_timeout_delivers_late_response_exactly_once(self, net, monkeypatch):
        # the link is slow enough that the response lands after the
        # client's deadline: fetch raises, but the in-flight exchange is
        # still on the simulator and must complete exactly once, harmlessly
        net.connect("slowpoke", "server", bandwidth=1e6, delay=3.0)
        srv = HTTPServer(net, "server", 7300)
        served = []
        srv.route("GET", "/", lambda r: served.append(1) or HTTPResponse(200))
        monkeypatch.setattr(HTTPClient, "TIMEOUT", 2.0)
        client = HTTPClient(net, "slowpoke")
        with pytest.raises(HTTPError, match="timeout"):
            client.get("http://server:7300/")
        net.simulator.run()  # drain the abandoned exchange
        assert served == [1]
        assert srv.requests_served == 1

    def test_timed_out_client_can_retry_on_a_healed_link(self, net, monkeypatch):
        net.connect("retrier", "server", bandwidth=1e6, delay=0.01,
                    loss_rate=0.999)
        srv = HTTPServer(net, "server", 7400)
        srv.route("GET", "/", lambda r: HTTPResponse(200, body="ok"))
        monkeypatch.setattr(HTTPClient, "TIMEOUT", 1.0)
        client = HTTPClient(net, "retrier")
        with pytest.raises(HTTPError):
            client.get("http://server:7400/")
        net.link("retrier", "server").set_loss(loss_rate=0.0)
        net.link("server", "retrier").set_loss(loss_rate=0.0)
        net.simulator.run()
        assert client.get("http://server:7400/").body == "ok"

    def test_unknown_route_error_is_well_formed(self, server, client):
        response = client.get("http://server:8080/definitely/not/there")
        assert response.status == 404 and not response.ok
        assert "GET" in response.body and "/definitely/not/there" in response.body
        assert response.wire_size() > 0

    def test_handler_exceptions_other_than_httperror_propagate(self, net, client):
        srv = HTTPServer(net, "server", 7500)

        def broken(request):
            raise ValueError("bug, not a bad request")

        srv.route("GET", "/", broken)
        with pytest.raises(ValueError):
            client.get("http://server:7500/")


class TestForms:
    def test_round_trip(self):
        fields = {"path": "/videos/lec.mpg", "slides": "/slides dir/", "port": "8080"}
        assert form_decode(form_encode(fields)) == fields

    def test_wire_sizes_positive(self):
        request = HTTPRequest("POST", "/publish", body=b"x" * 100)
        assert request.wire_size() > 100
        response = HTTPResponse(200, body="y" * 50)
        assert response.wire_size() > 50
