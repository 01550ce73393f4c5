"""A small HTTP/1.1 JSON API over asyncio streams (stdlib only).

Routes::

    GET  /healthz                 service liveness, uptime, version, and
                                  per-worker progress-age/metric summaries
    GET  /metrics                 Prometheus text exposition (worker
                                  liveness/queue gauges + the campaigns'
                                  exactly-once folded registry counters)
    GET  /campaigns               every campaign's status
    POST /campaigns               submit a CampaignSpec body -> {"id": ...}
    GET  /campaigns/<id>          one campaign's live status
    GET  /campaigns/<id>/result   merged summary (streams mid-run: the
                                  shards folded *right now*, plus
                                  "complete" so pollers know when the
                                  numbers are final)
    POST /shutdown                stop the service (drains workers)

The server intentionally speaks just enough HTTP for ``urllib`` and
``curl``: one request per connection, JSON bodies, ``Content-Length``
framing.  It shares the event loop with the scheduler's pump, so every
handler runs between pump ticks and sees consistent campaign state.
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Any, Dict, Optional, Tuple

from .scheduler import CampaignService
from .spec import CampaignSpec

__all__ = ["HttpApi", "PlainText", "serve"]

_LOGGER = logging.getLogger(__name__)

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}


class PlainText:
    """A non-JSON response body (``GET /metrics`` Prometheus text)."""

    def __init__(
        self, body: str, content_type: str = "text/plain; version=0.0.4"
    ) -> None:
        self.body = body
        self.content_type = content_type


class HttpApi:
    """Routes HTTP requests onto a :class:`CampaignService`."""

    def __init__(self, service: CampaignService) -> None:
        self.service = service

    # -- transport -------------------------------------------------------------

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, path = parts[0].upper(), parts[1]
            headers: Dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            body = b""
            length = int(headers.get("content-length") or 0)
            if length:
                body = await reader.readexactly(length)
            try:
                status, payload = self.route(method, path, body)
            except ValueError as exc:
                status, payload = 400, {"error": str(exc)}
            except Exception as exc:  # a handler bug must not kill serve
                _LOGGER.exception("unhandled error for %s %s", method, path)
                status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            if isinstance(payload, PlainText):
                content_type = payload.content_type
                data = payload.body.encode("utf-8")
            else:
                content_type = "application/json"
                data = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
            writer.write(
                (
                    f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(data)}\r\n"
                    f"Connection: close\r\n\r\n"
                ).encode("latin-1")
                + data
            )
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- routing ---------------------------------------------------------------

    def route(
        self, method: str, path: str, body: bytes
    ) -> "Tuple[int, Dict[str, Any] | PlainText]":
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            return 200, self.service.service_health()
        if path == "/metrics" and method == "GET":
            return 200, PlainText(self.service.prometheus_text())
        if path == "/shutdown" and method == "POST":
            self.service.request_stop()
            return 202, {"ok": True, "stopping": True}
        if path == "/campaigns":
            if method == "POST":
                try:
                    payload = json.loads(body.decode("utf-8") or "{}")
                except json.JSONDecodeError as exc:
                    raise ValueError(f"invalid JSON body: {exc}") from None
                spec = CampaignSpec.from_dict(payload)
                state = self.service.submit(spec)
                return 202, {
                    "id": state.id,
                    "total": state.total,
                    "units": len(state.units),
                    "shard_size": state.shard_size,
                }
            if method == "GET":
                return 200, {
                    "campaigns": [
                        self.service.status(campaign_id)
                        for campaign_id in self.service.campaign_ids()
                    ]
                }
            return 405, {"error": f"{method} not allowed on {path}"}
        if path.startswith("/campaigns/"):
            rest = path[len("/campaigns/"):]
            campaign_id, _, tail = rest.partition("/")
            try:
                self.service.campaign(campaign_id)
            except ValueError as exc:
                return 404, {"error": str(exc)}
            if not tail and method == "GET":
                status = self.service.status(campaign_id)
                status["workers"] = self.service.workers_status()
                return 200, status
            if tail == "result" and method == "GET":
                summary, complete = self.service.result(campaign_id)
                return 200, {
                    "id": campaign_id,
                    "complete": complete,
                    "state": self.service.status(campaign_id)["state"],
                    "scenarios": len(summary.rows),
                    "total": self.service.campaign(campaign_id).total,
                    "summary": summary.to_dict(),
                }
            return 405, {"error": f"{method} {path} not supported"}
        return 404, {"error": f"no route for {path}"}


async def serve(
    service: CampaignService,
    host: str = "127.0.0.1",
    port: int = 8642,
    ready: "Optional[asyncio.Future]" = None,
) -> None:
    """Run the service and its HTTP API until shutdown is requested.

    ``ready`` (if given) receives the bound ``(host, port)`` once the
    socket is listening — how tests and ``--port 0`` callers discover
    the actual port.
    """
    api = HttpApi(service)
    server = await asyncio.start_server(api.handle_connection, host, port)
    bound = server.sockets[0].getsockname()[:2]
    if ready is not None and not ready.done():
        ready.set_result(bound)
    _LOGGER.info("repro service listening on http://%s:%d", *bound)
    try:
        await service.run()
    finally:
        server.close()
        await server.wait_closed()
