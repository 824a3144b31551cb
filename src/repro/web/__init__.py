"""Web substrate: minimal HTTP over the simulated network."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "http": (
        "HTTPClient", "HTTPError", "HTTPRequest", "HTTPResponse", "HTTPServer",
        "VirtualNetwork", "form_decode", "form_encode",
    ),
})
