"""Which public entry point of which layer the traced run wraps.

Span names are ``<layer>.<entry>``; the per-layer metrics in
``BENCHMARK.json`` are computed from them (see ``LAYERS.md``).
"""

from __future__ import annotations

import json
import pickle
import types

from tracer import Tracer


def install(tracer: Tracer) -> None:
    """Wrap every measured layer's entry points; call before building."""
    from repro.core import frontend as frontend_mod
    from repro.core import parser, shard_router
    from repro.core.frontend import Frontend
    from repro.core.moara_node import MoaraNode
    from repro.core.plan_cache import PlanCache
    from repro.serve import cache_service, frontend_server, overlay_service
    from repro.serve import protocol, transport
    from repro.serve.cache_service import RemoteSizeTier
    from repro.serve.frontend_server import FrontendServer
    from repro.serve.overlay_service import OverlayService
    from repro.sim.engine import Engine
    from repro.sim.network import Network
    from repro.standing import manager as standing_mod
    from repro.standing.manager import StandingQueryManager

    # sim.engine / sim.network
    tracer.wrap(Engine, "run", "engine.run")
    tracer.wrap(Engine, "run_until_idle", "engine.run")
    tracer.wrap(Network, "send", "network.send")
    tracer.wrap(Network, "send_many", "network.send")
    # core.moara_node
    tracer.wrap(MoaraNode, "handle_message", "node.handle_message")
    # core.frontend (parser: every module that bound parse_query by name)
    tracer.wrap(Frontend, "submit", "frontend.submit")
    tracer.wrap(Frontend, "handle_message", "frontend.handle_message")
    for module in (parser, frontend_mod, shard_router, standing_mod,
                   frontend_server):
        tracer.wrap(module, "parse_query", "parser.parse_query")
    tracer.wrap(PlanCache, "plan", "plan_cache.plan")
    # standing
    tracer.wrap(StandingQueryManager, "on_update", "standing.on_update")
    # serve: frame codec (encode bound by name in each link module; the
    # decode is protocol's pickle.loads), JSON, HTTP dispatch, backend
    # drain on the overlay thread, blocking cache-service RPCs.
    def count_bytes(frame: bytes) -> None:
        tracer.count("serve.frame_bytes", len(frame))

    for module in (protocol, transport, overlay_service, cache_service):
        if hasattr(module, "encode_frame"):
            tracer.wrap(module, "encode_frame", "serve.frame_encode",
                        on_result=count_bytes)
    codec = types.SimpleNamespace(
        dumps=pickle.dumps, loads=pickle.loads,
        HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
    )
    tracer.wrap(codec, "loads", "serve.frame_decode")
    tracer.replace(protocol, "pickle", codec)
    json_shim = types.SimpleNamespace(
        dumps=json.dumps, loads=json.loads, JSONDecodeError=json.JSONDecodeError
    )
    tracer.wrap(json_shim, "loads", "serve.json_loads")
    tracer.wrap(json_shim, "dumps", "serve.json_dumps")
    tracer.replace(frontend_server, "json", json_shim)
    tracer.wrap_async(FrontendServer, "_dispatch", "serve.dispatch")
    tracer.wrap(OverlayService, "_drain_engine", "serve.backend")
    tracer.wrap(OverlayService, "_sync_clock", "serve.backend")
    tracer.wrap(RemoteSizeTier, "_request", "serve.cache_rpc")
