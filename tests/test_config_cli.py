import ast
import dataclasses
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pillarkit
import pillarkit.cli
from pillarkit.cli import main
from pillarkit.config import (_CONSTANTS, _DEFAULTS, _FLOORS, _KNOBS_INT, ResolvedConfig,
                              RunConfig, load_config, save_config)
from pillarkit.errors import InternalError, PreconditionError
from pillarkit.generators import GENERATORS
from pillarkit.graph import MAX_VERTICES, save_graph

from util import cycle_chain, torus

class TestRunConfig:
    def test_relaxed_defaults_resolve(self):
        rc = RunConfig(d=8).resolve(1000)
        assert rc.ell0 == 3 and rc.leg_size == 2
        assert rc.params.d == 8

    def test_override_wins(self):
        cfg = RunConfig(d=8)
        cfg.overrides["ell0"] = 7
        assert cfg.resolve(10 ** 5).ell0 == 7

    @settings(max_examples=60, deadline=None)
    @given(overrides=st.dictionaries(
               st.sampled_from(sorted(_DEFAULTS)),
               st.integers(min_value=3, max_value=10 ** 9)),
           n=st.integers(min_value=0, max_value=MAX_VERTICES))
    def test_resolve_is_the_same_at_every_n(self, overrides, n):
        cfg = RunConfig(eps1=0.25, d=6, overrides=overrides)
        assert cfg.resolve(n) == cfg.resolve(0)
        assert RunConfig.from_text(cfg.to_text()).resolve(n) == cfg.resolve(0)

    def test_text_round_trip(self):
        cfg = RunConfig(eps1=0.25, eps2=0.1, d=16)
        cfg.overrides["separation"] = 5
        back = RunConfig.from_text(cfg.to_text())
        assert back.eps1 == 0.25 and back.d == 16
        assert back.overrides["separation"] == 5
        assert back.resolve(100) == cfg.resolve(100)

    def test_save_config_round_trip(self, tmp_path):
        """``find --config`` loads the file that save_config writes."""
        cfg = RunConfig(eps1=0.25, eps2=0.1, d=16, overrides={"separation": 5, "seed": 7})
        path = tmp_path / "run.cfg"
        save_config(cfg, str(path))
        back = load_config(str(path))
        assert (back.eps1, back.eps2, back.d) == (0.25, 0.1, 16)
        assert back.resolve(100) == cfg.resolve(100)

    def test_every_constant_named_in_text(self):
        text = RunConfig(d=4).to_text()
        keys = [line.split(" = ")[0] for line in text.splitlines()]
        assert keys == ["eps1", "eps2", "d", *(name for name, _ in _CONSTANTS), "seed"]

    def test_unknown_key_rejected(self):
        with pytest.raises(PreconditionError):
            RunConfig.from_text("nonsense = 3\n")

    @pytest.mark.parametrize("key, value, message", [
        ("separaton", 1, "unknown config key 'separaton'"),
        ("k_max", 0, "config key k_max = 0 is below its floor 3"),
    ])
    def test_override_set_after_construction_checked(self, key, value, message):
        cfg = RunConfig()
        cfg.overrides[key] = value
        with pytest.raises(PreconditionError, match=message):
            cfg.resolve(100)

    @pytest.mark.parametrize("text, message", [
        ("separation = 1\nseparation = 5\n", "config line 2: separation repeats line 1"),
        ("d = 4\n# d = 6\nseparation = 1\nd = 8\n", "config line 4: d repeats line 1"),
    ])
    def test_repeated_key_rejected(self, text, message):
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            RunConfig.from_text(text)

    def test_comments_allowed(self):
        cfg = RunConfig.from_text("# comment\nd = 6\nseparation = 3  # inline\n")
        assert cfg.d == 6 and cfg.overrides["separation"] == 3


def test_readme_threshold_table_matches_the_code():
    """The README's table of thresholds names every ``_CONSTANTS`` key, in
    ``to_text`` order, with its default."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.splitlines()
    start = lines.index("| key | default | the paper's value in n |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, default = (cell.strip() for cell in line.split("|")[1:3])
        rows.append((key.strip("`"), int(default)))
    assert rows == _CONSTANTS


def _config_reads() -> set[str]:
    """Names the package reads off a resolved config: ``rc.x``, ``cfg.x`` or
    ``<...>.cfg.x`` attributes."""
    reads = set()
    for path in Path(pillarkit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owner = node.value
                name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
                if name in ("rc", "cfg"):
                    reads.add(node.attr)
    return reads


def test_every_resolved_config_field_is_read():
    """A knob that nothing reads is dead: settable, documented, and inert."""
    fields = {f.name for f in dataclasses.fields(ResolvedConfig)}
    assert fields - _config_reads() == set()


def test_every_knob_is_set_by_a_caller():
    """A config key other than a threshold that no caller sets is a constant:
    ``_KNOBS_INT`` keys must each be set as ``<...>.overrides["key"] = ...``
    by the package or the benchmark."""
    root = Path(pillarkit.__file__).parent
    paths = [*root.glob("*.py"), *(root.parents[1] / "perfbench").glob("*.py")]
    set_keys = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Subscript)
                            and getattr(target.value, "attr", None) == "overrides"
                            and isinstance(target.slice, ast.Constant)):
                        set_keys.add(target.slice.value)
    assert {name for name, _ in _KNOBS_INT} - set_keys == set()


def test_every_private_default_is_passed():
    """A defaulted parameter of a private function, or of a module-level
    function that ``pillarkit`` does not export, that no call in the
    package passes is a constant: settable only from outside the package,
    which such a function does not serve.  ``cli.main`` is the console
    entry point."""
    exported = set(dir(pillarkit))
    defaulted: dict[str, list[str]] = {}
    positional: dict[str, list[str]] = {}
    passed: dict[str, set[str]] = {}
    calls = []
    for path in Path(pillarkit.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {f for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        unexported = {f for f in tree.body if isinstance(f, ast.FunctionDef)
                      and f.name not in exported and (path.stem, f.name) != ("cli", "main")}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (node in unexported or node.name.startswith("_")
                                                      and not node.name.endswith("__")):
                args = node.args
                pos = [a.arg for a in args.posonlyargs + args.args]
                kw = [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                defaulted[node.name] = pos[len(pos) - len(args.defaults):] + kw
                positional[node.name] = pos[1:] if node in methods else pos
            elif isinstance(node, ast.Call):
                calls.append(node)
    for call in calls:
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        if name not in defaulted:
            continue
        got = passed.setdefault(name, set())
        if any(isinstance(a, ast.Starred) for a in call.args) \
                or any(k.arg is None for k in call.keywords):
            got.update(defaulted[name])  # *args or **kwargs may pass any of them
        got.update(positional[name][:len(call.args)])
        got.update(k.arg for k in call.keywords)
    unset = sorted(f"{name}({p})" for name, params in defaulted.items()
                   for p in params if p not in passed.get(name, ()))
    assert unset == []


# the flags each generator reads; every one of them is required
GENERATOR_FLAGS = {
    "path": ["--n"],
    "cycle": ["--n"],
    "hypercube": ["--dim"],
    "prism": ["--s"],
    "subdivided-prism": ["--s", "--ell"],
    "random-regular": ["--n", "--d", "--seed"],
    "random-bipartite": ["--a", "--b", "--p", "--seed"],
}
FLAG_VALUES = {"--n": "10", "--d": "2", "--s": "4", "--ell": "3", "--a": "3", "--b": "3",
               "--p": "0.5", "--dim": "3", "--seed": "0"}


def test_every_generator_has_its_flags_listed():
    assert set(GENERATOR_FLAGS) == set(GENERATORS)


def test_every_private_function_is_referenced():
    """A private module-level function that no other code in the package
    names is an orphan: its own recursive calls do not count, and neither
    do the tests."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(pillarkit.__file__).parent.glob("*.py")]
    private = {f for tree in trees for f in tree.body if isinstance(f, ast.FunctionDef)
               and f.name.startswith("_") and not f.name.endswith("__")}
    own = {id(node): f.name for f in private for node in ast.walk(f)}
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if own.get(id(node)) != name:
                referenced.add(name)
    assert sorted(f.name for f in private if f.name not in referenced) == []


def test_every_import_is_read():
    """Each name a module imports is read in that module; the package's
    ``__init__`` imports to re-export, so it is left out."""
    unread = []
    for path in sorted(Path(pillarkit.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{path.name}: {name}" for name in sorted(imported - read - {"annotations"})]
    assert unread == []


def test_every_definition_is_read():
    """Each top-level function, class, constant and method of the package,
    dunders aside, is named in the package, its tests or the
    benchmark: as a name read, an attribute, or a string naming it
    (``monkeypatch.setattr``).  Its own definition and recursive calls do
    not count, and neither does ``__init__``'s re-export."""
    root = Path(pillarkit.__file__).parent
    defined = []  # (module, definition node, name)
    for path in sorted(root.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, node, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(path.stem, node, t.id) for t in targets if isinstance(t, ast.Name)]
            if isinstance(node, ast.ClassDef):
                defined += [(path.stem, f, f.name) for f in node.body
                            if isinstance(f, ast.FunctionDef)]
    own = {id(inner): name for _, node, name in defined for inner in ast.walk(node)}
    sources = [p for p in root.glob("*.py") if p.name != "__init__.py"]
    sources += [*(root.parents[1] / "tests").glob("*.py"),
                *(root.parents[1] / "perfbench").glob("**/*.py")]
    named = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if own.get(id(node)) != name:
                named.add(name)
    assert sorted(f"{mod}.{name}" for mod, _, name in defined
                  if name not in named and not name.startswith("__")) == []


@pytest.fixture()
def q3_file(tmp_path):
    path = tmp_path / "q3.el"
    assert main(["generate", "hypercube", "--dim", "3", "--out", str(path)]) == 0
    return path


class TestCli:
    def test_generate_prism(self, tmp_path, capsys):
        out = tmp_path / "p.el"
        assert main(["generate", "prism", "--s", "4", "--out", str(out)]) == 0
        text = out.read_text()
        assert len([l for l in text.splitlines() if l.strip()]) == 12
        assert "8 vertices, 12 edges" in capsys.readouterr().out

    def test_generate_subdivided_prism_counts(self, tmp_path):
        out = tmp_path / "sp.el"
        assert main(["generate", "subdivided-prism", "--s", "6", "--ell", "3",
                     "--out", str(out)]) == 0
        ids = {int(tok) for line in out.read_text().splitlines() for tok in line.split()}
        assert len(ids) == 24

    def test_generate_random_regular_byte_identical(self, tmp_path):
        """The same text on every run, and the text pinned by its sha256."""
        a, b = tmp_path / "a.el", tmp_path / "b.el"
        args = ["generate", "random-regular", "--n", "1000", "--d", "10", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert hashlib.sha256(a.read_bytes()).hexdigest() == \
            "a8f20787f42c02ad532c61efc91b5a0be4fa83ca0547cd92ee8f5d474cc949aa"

    def test_generate_invalid_params_exit_2(self, tmp_path):
        out = tmp_path / "x.el"
        assert main(["generate", "random-regular", "--n", "5", "--d", "3",
                     "--seed", "0", "--out", str(out)]) == 2
        assert not out.exists()

    def test_generate_refused_flags_leave_an_existing_out_alone(self, tmp_path):
        out = tmp_path / "x.el"
        out.write_text("0 1\n")
        assert main(["generate", "random-regular", "--n", "5", "--d", "3",
                     "--seed", "0", "--out", str(out)]) == 2
        assert out.read_text() == "0 1\n"

    def test_unwritable_out_exits_before_generating(self, tmp_path, monkeypatch):
        def spy(n, d, seed):
            pytest.fail("the generator ran though --out cannot be written")

        monkeypatch.setitem(GENERATORS, "random-regular", spy)
        for out in (tmp_path / "missing-dir" / "g.el", tmp_path):  # the second is a directory
            assert main(["generate", "random-regular", "--n", "200000", "--d", "12",
                         "--seed", "0", "--out", str(out)]) == 2

    def test_generate_missing_seed_exit_2(self, tmp_path):
        assert main(["generate", "random-regular", "--n", "10", "--d", "2",
                     "--out", str(tmp_path / "x.el")]) == 2

    @pytest.mark.parametrize("kind, missing", [(kind, flag) for kind, flags in GENERATOR_FLAGS.items()
                                               for flag in flags])
    def test_generate_names_a_missing_flag_exit_2(self, tmp_path, capsys, kind, missing):
        given = [arg for flag in GENERATOR_FLAGS[kind] if flag != missing
                 for arg in (flag, FLAG_VALUES[flag])]
        assert main(["generate", kind, *given, "--out", str(tmp_path / "x.el")]) == 2
        assert capsys.readouterr().err == f"error: {missing} is required for this generator\n"

    @pytest.mark.parametrize("kind", sorted(GENERATOR_FLAGS))
    def test_generate_refuses_a_foreign_flag_exit_2(self, tmp_path, capsys, kind):
        foreign = next(flag for flag in FLAG_VALUES if flag not in GENERATOR_FLAGS[kind])
        given = [arg for flag in GENERATOR_FLAGS[kind] + [foreign]
                 for arg in (flag, FLAG_VALUES[flag])]
        out = tmp_path / "x.el"
        assert main(["generate", kind, *given, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {foreign} is not a flag of the {kind} generator\n"
        assert not out.exists()

    def test_generate_starved_pairing_exit_1(self, tmp_path, capsys, monkeypatch):
        # rr(20, 17) seed 0 needs 3 pairings; with 2 allowed it starves
        monkeypatch.setattr(pillarkit.generators, "_MAX_PAIRINGS", 2)
        out = tmp_path / "x.el"
        assert main(["generate", "random-regular", "--n", "20", "--d", "17",
                     "--seed", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().out.startswith("starved: stage 'pairing'")
        assert not out.exists()

    def test_generate_past_max_vertices_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.el"
        assert main(["generate", "path", "--n", str(MAX_VERTICES + 1), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ") and not out.exists()

    @pytest.mark.parametrize("command", [["generate", "cycle", "--n", "5"], ["find", "q3"]],
                             ids=["generate", "find"])
    def test_unwritable_out_exit_2(self, q3_file, tmp_path, capsys, command):
        graph = ["--graph", str(q3_file)] if command[0] == "find" else []
        out = tmp_path / "missing-dir" / "out"
        assert main(command + graph + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file or directory" in err

    def test_unwritable_out_exits_before_the_search(self, q3_file, tmp_path, monkeypatch):
        def search(*args, **kwargs):
            pytest.fail("the search ran though --out cannot be written")

        monkeypatch.setattr(pillarkit.cli, "find_pillar", search)
        for out in (tmp_path / "missing-dir" / "out", tmp_path):  # the second is a directory
            assert main(["find", "pillar", "--graph", str(q3_file), "--out", str(out)]) == 2

    def test_failed_search_leaves_an_existing_out_file_alone(self, tmp_path, capsys):
        g = tmp_path / "c100.el"
        assert main(["generate", "cycle", "--n", "100", "--out", str(g)]) == 0
        out = tmp_path / "old.json"
        out.write_text("kept")
        assert main(["find", "pillar", "--graph", str(g), "--seed", "0", "--out", str(out)]) == 1
        assert out.read_text() == "kept"

    def test_find_pillar_on_cube(self, q3_file, tmp_path):
        cert = tmp_path / "pillar.json"
        assert main(["find", "pillar", "--graph", str(q3_file), "--seed", "0",
                     "--out", str(cert)]) == 0
        data = json.loads(cert.read_text())
        assert data["kind"] == "pillar" and data["s"] == 4 and data["ell"] == 1
        assert main(["verify", "pillar", "--graph", str(q3_file),
                     "--cert", str(cert)]) == 0

    def test_find_pillar_on_bare_cycle_exit_1(self, tmp_path, capsys):
        g = tmp_path / "c100.el"
        assert main(["generate", "cycle", "--n", "100", "--out", str(g)]) == 0
        assert main(["find", "pillar", "--graph", str(g), "--seed", "0"]) == 1
        assert "not found" in capsys.readouterr().out

    def test_find_pillar_pigeonhole_exit_1(self, tmp_path, capsys):
        # test_pillar.py's pigeonhole starvation, through the CLI's stage report
        g, cfgfile = tmp_path / "chain.el", tmp_path / "chain.cfg"
        g.write_text(save_graph(cycle_chain()))
        cfgfile.write_text(RunConfig(d=4, overrides={"k_max": 18}).to_text())
        assert main(["find", "pillar", "--graph", str(g), "--config", str(cfgfile),
                     "--seed", "0"]) == 1
        out = capsys.readouterr().out
        assert "not found: stage 'pigeonhole'" in out and "\n  carved = 21\n" in out

    def test_find_q3_modes(self, q3_file, tmp_path, capsys):
        cert = tmp_path / "q3.json"
        assert main(["find", "q3", "--graph", str(q3_file), "--seed", "1",
                     "--out", str(cert)]) == 0
        assert main(["verify", "q3", "--graph", str(q3_file), "--cert", str(cert)]) == 0
        g2 = tmp_path / "c8.el"
        main(["generate", "cycle", "--n", "8", "--out", str(g2)])
        assert main(["find", "q3", "--graph", str(g2), "--seed", "1"]) == 1

    def test_find_kraken_roundtrip(self, tmp_path):
        g = tmp_path / "rr.el"
        assert main(["generate", "random-regular", "--n", "10000", "--d", "10",
                     "--seed", "3", "--out", str(g)]) == 0
        cfgfile = tmp_path / "relaxed.cfg"
        cfg = RunConfig(eps1=0.1, eps2=0.2, d=10)
        cfgfile.write_text(cfg.to_text())
        cert = tmp_path / "kraken.json"
        assert main(["find", "kraken", "--graph", str(g), "--config", str(cfgfile),
                     "--seed", "0", "--out", str(cert)]) == 0
        assert main(["verify", "kraken", "--graph", str(g), "--cert", str(cert)]) == 0

    def test_find_kraken_on_cube_exit_2(self, q3_file, capsys):
        assert main(["find", "kraken", "--graph", str(q3_file), "--seed", "0"]) == 2
        assert "graph contains a cube" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["q3", "kraken", "pillar"])
    def test_find_on_empty_graph_exit_1(self, tmp_path, capsys, target):
        g = tmp_path / "empty.el"
        g.write_text("")
        assert main(["find", target, "--graph", str(g), "--seed", "0"]) == 1
        assert "not found" in capsys.readouterr().out

    def test_verify_corrupted_certificate_exit_1(self, q3_file, tmp_path, capsys):
        cert = tmp_path / "pillar.json"
        main(["find", "pillar", "--graph", str(q3_file), "--seed", "0",
              "--out", str(cert)])
        data = json.loads(cert.read_text())
        data["paths"][0][0] = data["paths"][1][0]  # break disjointness
        cert.write_text(json.dumps(data))
        assert main(["verify", "pillar", "--graph", str(q3_file),
                     "--cert", str(cert)]) == 1
        assert "invalid [" in capsys.readouterr().out

    def test_verify_expansion_certificate(self, q3_file, tmp_path):
        cert = tmp_path / "exp.json"
        cert.write_text(json.dumps({"kind": "expansion", "version": 1,
                                    "center": 0, "members": [0, 1, 2, 4],
                                    "radius": 1}))
        assert main(["verify", "expansion", "--graph", str(q3_file),
                     "--cert", str(cert)]) == 0
        cert.write_text(json.dumps({"kind": "expansion", "version": 1,
                                    "center": 0, "members": [0, 1, 2, 7],
                                    "radius": 1}))
        assert main(["verify", "expansion", "--graph", str(q3_file),
                     "--cert", str(cert)]) == 1

    @pytest.mark.parametrize("center", [-1, 999])
    def test_verify_expansion_id_out_of_range_exit_1(self, q3_file, tmp_path, capsys, center):
        cert = tmp_path / "exp.json"
        cert.write_text(json.dumps({"kind": "expansion", "version": 1, "center": center,
                                    "members": [center], "radius": 0}))
        assert main(["verify", "expansion", "--graph", str(q3_file),
                     "--cert", str(cert)]) == 1
        assert "out of range" in capsys.readouterr().out

    def test_verify_bad_version_exit_2(self, q3_file, tmp_path):
        cert = tmp_path / "exp.json"
        cert.write_text(json.dumps({"kind": "expansion", "version": "x", "center": 0,
                                    "members": [0], "radius": 0}))
        assert main(["verify", "expansion", "--graph", str(q3_file),
                     "--cert", str(cert)]) == 2

    @pytest.mark.parametrize("fields", [
        {"vertices": "01234567"},
        {"vertices": [0.9, 1, 2, 3, 4, 5, 6, 7]},
        {"vertices": [0, True, 2, 3, 4, 5, 6, 7]},
        {"vertices": list(range(8)), "version": "1"},
        {"vertices": list(range(8)), "version": True},
        {"vertices": list(range(8)), "version": 1.0},
    ], ids=["string", "float", "bool", "string-version", "bool-version", "float-version"])
    def test_verify_non_integer_ids_exit_2(self, q3_file, tmp_path, capsys, fields):
        # int() reads each of these as the valid cube [0, 1, ..., 7] at version 1
        cert = tmp_path / "q3.json"
        cert.write_text(json.dumps({"kind": "q3", "version": 1, **fields}))
        assert main(["verify", "q3", "--graph", str(q3_file), "--cert", str(cert)]) == 2
        assert "expected an integer" in capsys.readouterr().err
        cert.write_text(json.dumps({"kind": "q3", "version": 1, "vertices": list(range(8))}))
        assert main(["verify", "q3", "--graph", str(q3_file), "--cert", str(cert)]) == 0

    def test_verify_truncated_json_exit_2(self, q3_file, tmp_path):
        cert = tmp_path / "broken.json"
        cert.write_text('{"kind": "pillar", "version"')
        assert main(["verify", "pillar", "--graph", str(q3_file),
                     "--cert", str(cert)]) == 2

    def test_verify_kind_mismatch_exit_2(self, q3_file, tmp_path):
        cert = tmp_path / "pillar.json"
        main(["find", "pillar", "--graph", str(q3_file), "--seed", "0",
              "--out", str(cert)])
        assert main(["verify", "kraken", "--graph", str(q3_file),
                     "--cert", str(cert)]) == 2

    def test_missing_graph_exit_2(self, tmp_path):
        assert main(["find", "pillar", "--graph", str(tmp_path / "nope.el"),
                     "--seed", "0"]) == 2

    def test_vertex_id_at_limit_exit_2(self, tmp_path):
        g = tmp_path / "huge.el"
        g.write_text(f"0 {MAX_VERTICES}\n")
        assert main(["find", "pillar", "--graph", str(g), "--seed", "0"]) == 2

    @pytest.mark.parametrize("text", ["0 1_0\n", "+2 3\n", "\u0661 \u0663\n"],
                             ids=["underscore", "plus", "arabic-indic"])
    def test_non_decimal_id_exit_2(self, tmp_path, capsys, text):
        # int() reads all three ("1_0" as 10, "+2" as 2, Arabic-Indic 1 and 3)
        g = tmp_path / "spelled.el"
        g.write_text(text, encoding="utf-8")
        assert main(["find", "pillar", "--graph", str(g), "--seed", "0"]) == 2
        assert "non-decimal" in capsys.readouterr().err

    # a byte that is not UTF-8 raises UnicodeDecodeError, a ValueError
    _NOT_UTF8 = b"0 1\n1 \xff2\n"

    @pytest.mark.parametrize("command", [["find", "pillar"], ["verify", "pillar"], ["bench"]],
                             ids=["find", "verify", "bench"])
    def test_undecodable_graph_exit_2(self, q3_file, tmp_path, capsys, command):
        cert = tmp_path / "pillar.json"
        assert main(["find", "pillar", "--graph", str(q3_file), "--seed", "0",
                     "--out", str(cert)]) == 0
        g = tmp_path / "bad.el"
        g.write_bytes(self._NOT_UTF8)
        capsys.readouterr()
        extra = ["--cert", str(cert)] if command[0] == "verify" else ["--seed", "0"]
        assert main(command + ["--graph", str(g)] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "can't decode byte 0xff" in err

    def test_undecodable_certificate_exit_2(self, q3_file, tmp_path, capsys):
        cert = tmp_path / "bad.json"
        cert.write_bytes(b'{"kind": "\xff"}')
        assert main(["verify", "pillar", "--graph", str(q3_file), "--cert", str(cert)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "can't decode byte 0xff" in err

    @pytest.mark.parametrize("command", [["find", "pillar"], ["bench"]], ids=["find", "bench"])
    def test_undecodable_config_exit_2(self, q3_file, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 1\n# \xff\n")
        assert main(command + ["--graph", str(q3_file), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "can't decode byte 0xff" in err

    @pytest.mark.parametrize("error, code", [(InternalError, 3), (PreconditionError, 2)])
    def test_internal_error_exit_3(self, q3_file, tmp_path, monkeypatch, capsys, error, code):
        """Every subcommand maps an exception to the same exit code; a
        generator that raises leaves no fresh --out file."""
        def broken(*args, **kwargs):
            raise error("internal: planted")
        cert, out = tmp_path / "q3.json", tmp_path / "c.el"
        assert main(["find", "q3", "--graph", str(q3_file), "--out", str(cert)]) == 0
        for name in ("find_pillar", "verify_certificate", "connect_short"):
            monkeypatch.setattr(pillarkit.cli, name, broken)
        monkeypatch.setitem(GENERATORS, "cycle", lambda n: broken())
        capsys.readouterr()
        for argv in (["find", "pillar", "--graph", str(q3_file), "--seed", "0"],
                     ["generate", "cycle", "--n", "5", "--out", str(out)],
                     ["verify", "q3", "--graph", str(q3_file), "--cert", str(cert)],
                     ["bench", "--graph", str(q3_file), "--seed", "0"]):
            assert main(argv) == code, argv
            assert "planted" in capsys.readouterr().err, argv
        assert not out.exists()

    def test_u_over_its_cap_exit_1(self, tmp_path, capsys):
        """find_pillar's own round 1 grows U past u_cap = 0: a starved
        stage with its report, not bad input."""
        g, cfg = tmp_path / "torus.el", tmp_path / "run.cfg"
        g.write_text(save_graph(torus(30, 30)))
        cfg.write_text("u_cap = 0\n")
        assert main(["find", "pillar", "--graph", str(g), "--config", str(cfg)]) == 1
        assert capsys.readouterr().out == ("not found: stage 'u-bound': |U| = 63 over the cap 0\n"
                                           "  u = 63\n")

    @pytest.mark.parametrize("key", [
        "workers", "expansion_exact_cap", "collective_threshold",
        "connector_exact_cap", "q3_cap", "expansion_trials", "max_krakens", "link_retries",
        "max_link_rounds", "d_target", "ball_candidates", "b", "expansion_sample_cap", "mode",
    ])
    def test_removed_keys_exit_2(self, q3_file, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 1\n")
        assert main(["find", "pillar", "--graph", str(q3_file), "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("value", ["relaxed", "formula"])
    def test_mode_line_is_an_unknown_key(self, q3_file, tmp_path, capsys, value):
        """Every file an older ``to_text`` wrote starts with a ``mode`` line;
        the key is named as unknown, not its value as a bad integer."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"mode = {value}\nd = 4\n")
        assert main(["find", "pillar", "--graph", str(q3_file), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: config line 1: unknown config key 'mode'\n"

    def test_repeated_key_exit_2(self, q3_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(pillarkit.cli, "find_pillar",
                            lambda *args, **kwargs: pytest.fail("the search started"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("separation = 1\nseparation = 5\n")
        assert main(["find", "pillar", "--graph", str(q3_file), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: config line 2: separation repeats line 1\n"

    @pytest.mark.parametrize("key", [name for name, *_ in _CONSTANTS])
    def test_threshold_below_its_floor_exit_2(self, q3_file, tmp_path, monkeypatch, capsys, key):
        """Malformed input, not a starved search: the config is refused
        before the search starts, and the floor itself is accepted."""
        floor = _FLOORS.get(key, 1)
        RunConfig(overrides={key: floor})
        monkeypatch.setattr(pillarkit.cli, "find_pillar",
                            lambda *args, **kwargs: pytest.fail("the search started"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {floor - 1}\n")
        assert main(["find", "pillar", "--graph", str(q3_file), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == \
            f"error: config key {key} = {floor - 1} is below its floor {floor}\n"

    @pytest.mark.parametrize("command", [["find", "pillar"], ["bench"]], ids=["find", "bench"])
    @pytest.mark.parametrize("line, message", [
        ("separation = abc", "config line 2: separation = 'abc' is not an integer"),
        ("eps1 = 5", "need 0 < eps1 < 1"),
        ("d = 0", "need d >= 1"),
    ], ids=["separation", "eps1", "d"])
    def test_malformed_config_value_exit_2(self, q3_file, tmp_path, capsys, command, line,
                                           message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 1\n{line}\n")
        assert main(command + ["--graph", str(q3_file), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_find_kraken_starved_link_loop_exit_1(self, tmp_path, capsys):
        g = tmp_path / "rr.el"
        assert main(["generate", "random-regular", "--n", "300", "--d", "8",
                     "--seed", "0", "--out", str(g)]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("anchor_count = 2\nseparation = 6\n")
        capsys.readouterr()
        assert main(["find", "kraken", "--graph", str(g), "--config", str(cfg),
                     "--seed", "0"]) == 1
        out = capsys.readouterr().out
        assert "stage 'link-rounds'" in out
        for line in ("anchors = 1", "legs = [3, 3, 3]", "linked = [1, 1, 1]"):
            assert f"  {line}\n" in out

    def test_bench_csv_shape(self, tmp_path, capsys):
        g = tmp_path / "g.el"
        main(["generate", "random-regular", "--n", "400", "--d", "6",
              "--seed", "1", "--out", str(g)])
        capsys.readouterr()
        assert main(["bench", "--graph", str(g), "--seed", "5"]) == 0
        lines = [l for l in capsys.readouterr().out.strip().splitlines() if l]
        assert lines[0].startswith("operation,")
        ops = [l.split(",")[0] for l in lines[1:]]
        assert ops == ["ball_growth", "connect_short"]

    def test_bench_empty_graph_zero_rows(self, tmp_path, capsys):
        g = tmp_path / "empty.el"
        g.write_text("")
        assert main(["bench", "--graph", str(g), "--seed", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines[1:]:
            _, runs, units, _ = line.split(",")
            assert runs == "0" and units == "0"

    def test_bench_counts_deterministic(self, tmp_path, capsys):
        g = tmp_path / "g.el"
        main(["generate", "random-regular", "--n", "400", "--d", "6",
              "--seed", "1", "--out", str(g)])
        capsys.readouterr()
        main(["bench", "--graph", str(g), "--seed", "5"])
        first = capsys.readouterr().out
        main(["bench", "--graph", str(g), "--seed", "5"])
        second = capsys.readouterr().out
        strip = lambda text: [l.rsplit(",", 1)[0] for l in text.strip().splitlines()]
        assert strip(first) == strip(second)  # counts equal, wall time may differ
