"""Run the daemon with span-recording wrappers around each layer.

Usage: ``python perfbench/traced_serve.py TRACE_DIR serve [serve flags]``
(with ``src`` on ``PYTHONPATH``).  The wrappers are installed around
public functions of every layer, then ``repro.cli.main`` runs the rest
of the command line unchanged.  Spans of the daemon process are written
to ``TRACE_DIR`` at shutdown; pool workers are forked after the wrappers
are in place, inherit them, and append their spans after every job.
``TRACE_DIR/wrapped.json`` lists the span names installed and the
targets that could not be found, so the reduction can say which layers
it could not split.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Recorder  # noqa: E402

#: Span names of the handlers the benchmark reports, by routing key.
HANDLER_SPANS = {
    "POST /recommend": "handlers.recommend",
    "POST /configure": "handlers.configure",
    "POST /stream/<session>": "handlers.stream_update",
    "GET /stream/<session>/metrics": "handlers.stream_metrics",
}


def _replace_everywhere(original, traced) -> None:
    """Rebind every ``repro`` module global that names ``original``."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, traced)


def install(recorder: Recorder) -> dict:
    """Wrap every layer's entry points; returns the install manifest."""
    # Every module that may hold a wrapped name is imported first, so
    # _replace_everywhere sees all of them.
    import repro.cli  # noqa: F401
    import repro.service  # noqa: F401
    from repro.analysis.cache import AnalysisCache
    from repro.attacks import staypoints
    from repro.engine import EvaluationEngine, backends
    from repro.framework import Configurator, geo_ind_system
    from repro.lppm.base import LPPM, OnlineProtector
    from repro.service import app, middleware, state
    from repro.streaming.session import ProtectionSession, SessionManager
    from repro.synth import generate_commuters, generate_taxi_fleet

    installed, missing = [], []

    def method(name, owner, attr, wrapper=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append({"span": name, "target": f"{owner.__name__}.{attr}"})
            return
        setattr(owner, attr, recorder.wrap(name, wrapper(fn) if wrapper else fn))
        installed.append(name)

    def function(name, original, on_exit=None):
        _replace_everywhere(original, recorder.wrap(name, original, on_exit))
        installed.append(name)

    def dispatch(fn):
        def call(self, request):
            recorder.set_request_id(None)
            return fn(self, request)
        return call

    def request_id(fn):
        # The id is assigned inside the layer; tag spans from the moment
        # the request goes inward with it.
        def call(self, request, call_next):
            def inner(req):
                recorder.set_request_id(req.context.get("request_id"))
                return call_next(req)
            return fn(self, request, inner)
        return call

    def analysis_lookup(fn):
        def call(self, key, kind, compute):
            return fn(self, key, kind, recorder.wrap("analysis.compute", compute))
        return call

    def handlers_of(make):
        def build(*args, **kwargs):
            routes = make(*args, **kwargs)
            for endpoint, name in HANDLER_SPANS.items():
                if endpoint in routes:
                    routes[endpoint] = recorder.wrap(name, routes[endpoint])
            return routes
        return build

    method("app.dispatch", app.ConfigService, "dispatch", dispatch)
    method("app.route", app.ConfigService, "_route")
    for cls in vars(middleware).values():
        if (isinstance(cls, type) and issubclass(cls, middleware.Middleware)
                and cls is not middleware.Middleware and "handle" in vars(cls)):
            method(f"middleware.{cls.name}", cls, "handle",
                   request_id if cls is middleware.RequestIdMiddleware else None)
    app.make_handlers = handlers_of(app.make_handlers)
    installed.extend(HANDLER_SPANS.values())
    method("state.dataset_for", state.ServiceState, "dataset_for")
    method("state.configurator_for", state.ServiceState, "configurator_for")
    function("state.resolve_dataset", state.resolve_dataset_spec)
    function("synth.generate", generate_taxi_fleet)
    function("synth.generate", generate_commuters)
    method("framework.fit", Configurator, "fit")
    method("framework.recommend", Configurator, "recommend")
    method("engine.run", EvaluationEngine, "run")
    function("engine.job", backends._run_job_in_worker, on_exit=recorder.flush)
    method("lppm.protect", LPPM, "protect")
    method("lppm.online_push", OnlineProtector, "push")
    system = geo_ind_system()
    method("metrics.privacy", type(system.privacy_metric), "evaluate")
    method("metrics.utility", type(system.utility_metric), "evaluate")
    function("attacks.stay_points", staypoints.extract_stay_points)
    method("analysis.lookup", AnalysisCache, "get_or_compute", analysis_lookup)
    installed.append("analysis.compute")
    method("streaming.update", SessionManager, "update")
    method("streaming.window_metrics", ProtectionSession, "metrics")
    return {"installed": sorted(set(installed)), "missing": missing}


def main(argv) -> int:
    trace_dir = Path(argv[0])
    trace_dir.mkdir(parents=True, exist_ok=True)
    recorder = Recorder(trace_dir)
    manifest = install(recorder)
    (trace_dir / "wrapped.json").write_text(json.dumps(manifest, indent=1))
    from repro.cli import main as cli_main

    try:
        return cli_main(list(argv[1:]))
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
