"""Self-describing JSON certificates: serialization plus the verification
dispatch used by the CLI.  Every certificate carries "kind" and "version"
fields so files stay checkable without knowing how they were produced."""

from __future__ import annotations

import json

from .errors import PreconditionError
from .graph import Graph
from .kraken import Kraken, verify_kraken
from .pillar import Pillar, verify_pillar
from .primitives import Expansion, Q3Certificate
from .validity import ValidityReport, json_int

KINDS = ("pillar", "kraken", "q3", "expansion")

def dumps_certificate(obj) -> str:
    data = obj.to_json_dict()
    if data.get("kind") not in KINDS:
        raise PreconditionError(f"not a certificate object: {type(obj).__name__}")
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def loads_certificate(text: str) -> dict:
    # ValueError covers bad JSON and ints past Python's digit limit,
    # RecursionError JSON nested too deep to parse
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise PreconditionError(f"malformed certificate JSON: {exc}")
    if not isinstance(data, dict) or "kind" not in data:
        raise PreconditionError("certificate must be a JSON object with a 'kind' field")
    if data["kind"] not in KINDS:
        raise PreconditionError(f"unknown certificate kind {data['kind']!r}")
    if json_int(data.get("version", 0)) != 1:
        raise PreconditionError(f"unsupported certificate version {data.get('version')!r}")
    return data


def verify_certificate(g: Graph, data: dict) -> ValidityReport:
    """Check a parsed certificate against a host graph, whatever its kind."""
    kind = data["kind"]
    if kind == "pillar":
        return verify_pillar(g, Pillar.from_json_dict(data))
    if kind == "kraken":
        return verify_kraken(g, Kraken.from_json_dict(data, g))
    rep = ValidityReport()
    if kind == "q3":
        try:
            cert = Q3Certificate(tuple(map(json_int, data["vertices"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise PreconditionError(f"malformed cube certificate: {exc}")
        for msg in cert.failures(g):
            rep.add("cube-edges", msg)
        return rep
    try:
        exp = Expansion(json_int(data["center"]),
                        frozenset(map(json_int, data["members"])),
                        json_int(data["radius"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise PreconditionError(f"malformed expansion certificate: {exc}")
    for msg in exp.failures(g):
        rep.add("expansion", msg)
    return rep
