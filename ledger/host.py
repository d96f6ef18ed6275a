"""A traced ``pincer serve``: the same session and server, with probes.

Started by ``measure.py`` for the traced serve rounds in place of
``python -m repro.cli serve``.  It loads the basket file, builds a
:class:`~repro.core.session.MiningSession` around a traced kernel
instance, wraps the session's queries, cache facade and engine, and
serves with :class:`~repro.serve.MiningServer` until a ``shutdown``
request.  Then it writes the per-layer totals (``--out``) and every span
(``--spans``, JSONL; query spans carry the wire ``request_id``).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from typing import List, Optional

from probe import TracedKernel, Tracer, trace_session


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input")
    parser.add_argument("--socket", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    from repro.core.session import MiningSession
    from repro.db import io as db_io
    from repro.db.counting import engine_decision
    from repro.serve import MiningServer

    tracer = Tracer()
    db = tracer.wrap("db.load", db_io.load)(args.input)
    tracer.wrap("db.bitmaps", db.item_bitmaps)()
    decision = tracer.wrap("db.decide", engine_decision)(db, "auto")
    with MiningSession(
        db,
        engine=decision.engine,
        kernel=TracedKernel(db.universe, tracer),
        key=args.input,
    ) as session:
        trace_session(session, tracer, threading.RLock())
        server = MiningServer(session, args.socket)
        try:
            server.serve_forever()
        finally:
            server.close()
        cache = session.cache.stats()
    layers = tracer.layers()
    lookups = cache["hits"] + cache["misses"]
    layers["core.supportcache.hit_rate"] = cache["hits"] / lookups if lookups else 0.0
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"layers": layers, "calibration": tracer.calibration}, handle)
    with open(args.spans, "w", encoding="utf-8") as handle:
        tracer.write_jsonl(handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
