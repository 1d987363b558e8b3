"""The ``batch_grid`` program under test: an in-process Engine on a pipe.

``Engine.from_store(db).warm()`` answering one JSON line per request
line — the offline / evaluation user, no HTTP and no micro-batcher:

* ``{"queries": [...]}`` → ``{"results": [QueryResponse.to_dict(), ...]}``
  from one lock-step ``Engine.search_many`` call (see :func:`decode_query`);
* ``{"op": "add_tag", ...}`` → the ``Engine.mutate`` acknowledgement;
* ``{"op": "stats"}`` → ``Engine.stats()``.

A request that raises answers ``{"error": ...}`` and the loop continues.
With ``E2E_TRACE_OUT`` set the layers are wrapped by ``tracer.py`` first.
"""

from __future__ import annotations

import json
import os
import sys


def _jsonable(value: object) -> object:
    item = getattr(value, "item", None)
    return item() if callable(item) else str(value)


def decode_query(query: dict) -> tuple:
    """A wire query as the ``(seeker, keywords, k)`` tuple the engine takes.

    The paper's qsets draw keywords from the whole vocabulary, including
    knowledge-base entities (URIs); a bare JSON string would be coerced
    to a literal, so the pipe marks those as ``{"uri": ...}``.
    """
    from repro.rdf.terms import URI

    keywords = [
        URI(keyword["uri"]) if isinstance(keyword, dict) else keyword
        for keyword in query["keywords"]
    ]
    return query["seeker"], keywords, query["k"]


def main(argv) -> int:
    recorder = None
    if os.environ.get("E2E_TRACE_OUT"):
        import tracer

        recorder = tracer.install()
    from repro.engine import Engine

    engine = Engine.from_store(argv[1]).warm()
    try:
        for line in sys.stdin:
            try:
                message = json.loads(line)
                if "queries" in message:
                    answers = engine.search_many(
                        [decode_query(query) for query in message["queries"]]
                    )
                    reply = {"results": [answer.to_dict() for answer in answers]}
                elif message.get("op") == "stats":
                    reply = engine.stats()
                else:
                    reply = engine.mutate(message).to_dict()
            except Exception as exc:  # noqa: BLE001 - shaped for the client
                reply = {"error": f"{type(exc).__name__}: {exc}"}
            sys.stdout.write(json.dumps(reply, default=_jsonable) + "\n")
            sys.stdout.flush()
    finally:
        engine.close()
        if recorder is not None:
            recorder.dump(os.environ["E2E_TRACE_OUT"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
