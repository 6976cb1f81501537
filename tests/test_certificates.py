import json

import pytest
from hypothesis import given, settings, strategies as st

from pillarkit.certificates import (KINDS, dumps_certificate, loads_certificate,
                                    verify_certificate)
from pillarkit.cli import main
from pillarkit.config import RunConfig
from pillarkit.errors import GraphParseError, PreconditionError
from pillarkit.generators import hypercube
from pillarkit.graph import MAX_VERTICES, load_graph, save_graph
from pillarkit.pillar import find_pillar
from pillarkit.primitives import Expansion, find_q3_bruteforce
from pillarkit.validity import ValidityReport

from util import prism_kraken


def test_every_dumpable_kind_round_trips():
    cube = hypercube(3)
    prism, kr = prism_kraken()
    cases = [(cube, find_pillar(cube, RunConfig())), (prism, kr),
             (cube, find_q3_bruteforce(cube)),
             (cube, Expansion(0, frozenset({0, 1, 2, 4}), 1))]
    assert sorted(obj.to_json_dict()["kind"] for _, obj in cases) == sorted(KINDS)
    for g, obj in cases:
        data = loads_certificate(dumps_certificate(obj))
        assert data == obj.to_json_dict()
        assert verify_certificate(g, data).valid


def test_expansion_report_is_not_a_certificate():
    with pytest.raises(PreconditionError):
        dumps_certificate(ValidityReport())


def _kraken_with_legs(change):
    g, kr = prism_kraken()
    data = json.loads(dumps_certificate(kr))
    change(data["legs"])
    return g, data


@pytest.mark.parametrize("change", [lambda legs: legs.append([9]), lambda legs: legs.pop()],
                         ids=["extra-leg", "missing-leg"])
def test_kraken_leg_count_fails_shape(change, tmp_path, capsys):
    g, data = _kraken_with_legs(change)
    assert [c for c, _ in verify_certificate(g, data).failures] == ["shape"]
    graph_file, cert_file = tmp_path / "prism.el", tmp_path / "kraken.json"
    graph_file.write_text(save_graph(g))
    cert_file.write_text(json.dumps(data))
    assert main(["verify", "kraken", "--graph", str(graph_file), "--cert", str(cert_file)]) == 1
    assert "invalid [shape]" in capsys.readouterr().out


# -- hostile input -----------------------------------------------------------
# Only PreconditionError or GraphParseError may leave the loaders and the
# checker, and no certificate naming an id outside 0..n-1 may pass.

_CUBE = hypercube(3)
_PRISM, _PRISM_KRAKEN = prism_kraken()
_ID_FIELDS = {"pillar": ("cycle1", "cycle2", "paths"), "kraken": ("cycle", "ends", "legs", "paths"),
              "q3": ("vertices",), "expansion": ("center", "members")}
_OTHER_FIELDS = {"pillar": ("s", "ell"), "kraken": ("k", "s", "t"), "q3": ("edges",),
                 "expansion": ("radius",)}

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 15) | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=12)
_IDS = st.integers(-3, 15)
_ID_VALUES = _IDS | st.lists(_IDS, max_size=6) | st.lists(st.lists(_IDS, max_size=5), max_size=5) | _JSON


@st.composite
def hostile_certificate(draw):
    kind = draw(st.sampled_from(KINDS))
    data = {"kind": kind, "version": draw(st.just(1) | _JSON)}
    for key in _ID_FIELDS[kind]:
        if draw(st.integers(0, 9)):
            data[key] = draw(_ID_VALUES)
    for key in _OTHER_FIELDS[kind]:
        if draw(st.integers(0, 9)):
            data[key] = draw(st.integers(-1, 5) | _JSON)
    return data


def _named_ids(data: dict) -> list:
    def flat(x):
        return [v for item in x for v in flat(item)] if isinstance(x, list) else [x]
    return [v for key in _ID_FIELDS[data["kind"]] if key in data for v in flat(data[key])]


_token = (st.integers(-3, 40).map(str) | st.text(max_size=3)
          | st.sampled_from(["#", "# note", "1.5", "+2", "0x3", "1_0", str(MAX_VERTICES), "9" * 5000]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_token, max_size=3).map(" ".join), max_size=8).map("\n".join))
def test_load_graph_fuzz(text):
    try:
        g = load_graph(text)
    except (GraphParseError, PreconditionError):
        return
    assert load_graph(save_graph(g)) == g
    tokens = [t for line in text.splitlines() for t in line.split("#", 1)[0].split()]
    assert all(t.isascii() and t.isdigit() for t in tokens)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40) | hostile_certificate().map(json.dumps))
def test_loads_certificate_fuzz(text):
    try:
        loads_certificate(text)
    except PreconditionError:
        pass


@settings(max_examples=600, deadline=None)
@given(hostile_certificate(), st.sampled_from([_CUBE, _PRISM]))
def test_verify_certificate_fuzz(data, g):
    try:
        rep = verify_certificate(g, loads_certificate(json.dumps(data)))
    except PreconditionError:
        return
    if rep.valid:
        assert all(type(v) is int and 0 <= v < g.n for v in _named_ids(data))


def _as_floats(x):
    return [_as_floats(item) for item in x] if isinstance(x, list) else float(x)


_VALID = [(_CUBE, find_pillar(_CUBE, RunConfig())), (_PRISM, _PRISM_KRAKEN),
          (_CUBE, find_q3_bruteforce(_CUBE)), (_CUBE, Expansion(0, frozenset({0, 1, 2, 4}), 1)),
          (_CUBE, Expansion(3, frozenset({3}), 0))]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_VALID), st.data())
def test_renamed_out_of_range_is_invalid(case, draw):
    """Renaming one vertex of a valid certificate to an id outside the graph,
    everywhere it appears, must make it invalid."""
    g, obj = case
    data = obj.to_json_dict()
    old = draw.draw(st.sampled_from(sorted(set(_named_ids(data)))))
    new = draw.draw(st.integers(-3, -1) | st.integers(g.n, g.n + 3))

    def rename(x):
        return [rename(item) for item in x] if isinstance(x, list) else (new if x == old else x)

    for key in _ID_FIELDS[data["kind"]]:
        data[key] = rename(data[key])
    try:
        rep = verify_certificate(g, loads_certificate(json.dumps(data)))
    except PreconditionError:
        return
    assert not rep.valid


@pytest.mark.parametrize("case", range(len(_VALID)))
def test_float_ids_and_counts_are_malformed(case):
    """Every id field and every count of a valid certificate, given as
    floats one field at a time: int() would read each as the same value."""
    g, obj = _VALID[case]
    valid = obj.to_json_dict()
    for key in _ID_FIELDS[valid["kind"]] + _OTHER_FIELDS[valid["kind"]]:
        if key in ("k", "edges"):  # derived from the other fields, never read
            continue
        data = {**valid, key: _as_floats(valid[key])}
        with pytest.raises(PreconditionError, match="expected an integer"):
            verify_certificate(g, loads_certificate(json.dumps(data)))
