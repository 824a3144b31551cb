"""Unit tests for the HTML pages of the web publishing manager."""

import pytest

from repro.lod import Lecture, MediaStore, WebPublishingManager
from repro.streaming import MediaServer
from repro.web import HTTPClient, VirtualNetwork, form_encode
from repro.web.pages import render_catalog, render_publish_form


class TestRenderers:
    def test_form_contains_paper_fields(self):
        page = render_publish_form(["dsl-256k", "lan-1m"])
        for field in ("video_path", "slide_dir", "point", "profile", "protect"):
            assert f'name="{field}"' in page
        assert '<option value="dsl-256k">' in page
        assert page.startswith("<!DOCTYPE html>")

    def test_form_escapes_html(self):
        page = render_publish_form(['<script>"x"'])
        assert "<script>" not in page.split("<style>")[1]
        assert "&lt;script&gt;" in page

    def test_catalog_rows_and_links(self):
        page = render_catalog([
            {"point": "p1", "title": "Lecture <1>", "duration": 30.0,
             "url": "http://server:8080/lod/p1"},
        ])
        assert "Lecture &lt;1&gt;" in page
        assert 'href="http://server:8080/lod/p1"' in page
        assert 'href="/publish"' in page


@pytest.fixture
def web_world():
    lecture = Lecture.from_slide_durations(
        "Pages", "Prof", [10.0, 10.0], slide_width=160, slide_height=120
    )
    net = VirtualNetwork()
    net.connect("teacher", "server", bandwidth=10e6, delay=0.005)
    server = MediaServer(net, "server", port=8080)
    store = MediaStore()
    store.register_lecture("/v", "/s", lecture)
    WebPublishingManager(server, store)
    return net, HTTPClient(net, "teacher")


class TestServedPages:
    def test_get_publish_returns_form(self, web_world):
        net, client = web_world
        response = client.get("http://server:8080/publish")
        assert response.ok
        assert response.headers.get("Content-Type") == "text/html"
        assert 'name="video_path"' in response.body

    def test_catalog_page_lists_published(self, web_world):
        net, client = web_world
        client.post(
            "http://server:8080/publish",
            body=form_encode({"video_path": "/v", "slide_dir": "/s",
                              "point": "pg1"}),
        )
        page = client.get("http://server:8080/").body
        assert "pg1" in page and "/lod/pg1" in page

    def test_catalog_page_empty_initially(self, web_world):
        net, client = web_world
        response = client.get("http://server:8080/")
        assert response.ok and "<table>" in response.body

    def test_root_does_not_shadow_other_routes(self, web_world):
        net, client = web_world
        assert client.get("http://server:8080/catalog").body == []
        assert client.get("http://server:8080/lod/none").status == 404
