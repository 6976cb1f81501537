import json

import pytest

from pillarkit.certificates import (KINDS, dumps_certificate, loads_certificate,
                                    verify_certificate)
from pillarkit.cli import main
from pillarkit.config import RunConfig
from pillarkit.errors import PreconditionError
from pillarkit.expander import ExpanderParams, check_expansion
from pillarkit.generators import hypercube
from pillarkit.graph import save_graph
from pillarkit.pillar import find_pillar
from pillarkit.primitives import Expansion, find_q3_bruteforce

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
    report = check_expansion(hypercube(3), ExpanderParams(0.1, 0.2, 2), "exact")
    with pytest.raises(PreconditionError):
        dumps_certificate(report)


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
