import ast
import dataclasses
import importlib
import re
import typing
from pathlib import Path

from shmtwin import scenario

ROOT = Path(__file__).resolve().parents[1]


def _defined_names(source: str) -> list[str]:
    """Every function, method and class defined in a module, dunders excluded."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _read_names(source: str) -> set[str]:
    """Names a module's code reads: names, attributes and imported names,
    not the words of its comments, docstrings or strings."""
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names})


# Definitions that wait for their caller: serialize_scenario writes the
# canonical scenario that ROADMAP item 11's manifest.json is to hold.
_AWAITING_A_CALLER = {"serialize_scenario"}


def test_no_definition_is_kept_alive_by_its_tests():
    # the program's code reads a definition, or perfbench names it, since
    # perfbench wraps program functions by their names as strings
    program = sorted((ROOT / "src" / "shmtwin").glob("*.py"))
    sources = [p.read_text(encoding="utf-8") for p in program]
    read = set().union(*map(_read_names, sources))
    named = {word for p in sorted((ROOT / "perfbench").glob("*.py"))
             for word in re.findall(r"\w+", p.read_text(encoding="utf-8"))}
    unread = sorted({name for source in sources for name in _defined_names(source)}
                    - read - named)
    assert unread == sorted(_AWAITING_A_CALLER)


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; ``__future__`` imports excluded."""
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_uses():
    # perfbench is left out: only a change to the benchmark may edit it
    modules = (sorted((ROOT / "src" / "shmtwin").glob("*.py"))
               + sorted((ROOT / "tests").glob("*.py")))
    unused = {p.name: names for p in modules
              if (names := _unused_imports(p.read_text(encoding="utf-8")))}
    assert unused == {}


def _file_writes(source: str) -> list[int]:
    """Lines that call ``open`` with a mode that writes, or numpy's ``save`` family."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            # a mode that is not a literal may write
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and set(str(mode.value)).isdisjoint("wax+")):
                lines.append(node.lineno)
        elif (isinstance(f, ast.Attribute) and f.attr.startswith("save")
              and isinstance(f.value, ast.Name) and f.value.id in ("np", "numpy")):
            lines.append(node.lineno)
    return lines


def test_every_output_file_is_written_by_seriesio():
    # perfbench is left out: only a change to the benchmark may edit it
    writers = {p.name: lines for p in sorted((ROOT / "src" / "shmtwin").glob("*.py"))
               if p.name != "seriesio.py"
               and (lines := _file_writes(p.read_text(encoding="utf-8")))}
    assert writers == {}


def _dataclass_in(hint) -> type | None:
    """The dataclass a field's type names, itself or inside ``X | None`` or ``tuple[X, ...]``."""
    return next((t for t in (hint, *typing.get_args(hint)) if dataclasses.is_dataclass(t)), None)


def test_every_setting_is_a_key_a_derived_rate_or_varied_by_a_preset():
    # A field of a spec that a Scenario holds is a setting.  If no key
    # sets it, the parser does not derive it, and the named presets all
    # give it one value, then one value is all it ever takes: a constant.
    keyed = {path for keys in scenario._TABLE.values() for path in keys.values()}
    derived = {"plan.f_s_hz"}
    named = {path: list(scenario._NAMES[key].values())
             for keys in scenario._TABLE.values() for key, path in keys.items()
             if key in scenario._NAMES}
    constant = set()

    def walk(cls, path, instances):
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            sub = f"{path}.{f.name}"
            values = [getattr(obj, f.name) for obj in instances]
            if sub not in keyed | derived and len(set(values)) < 2:
                constant.add(f"{cls.__name__}.{f.name}")
            if (inner := _dataclass_in(hints[f.name])) is not None:
                walk(inner, sub, [x for v in values
                                  for x in (v if isinstance(v, tuple) else (v,))])

    hints = typing.get_type_hints(scenario.Scenario)
    for f in dataclasses.fields(scenario.Scenario):
        if (cls := _dataclass_in(hints[f.name])) is not None:
            instances = named.get(f.name, [getattr(scenario.Scenario, f.name)])
            walk(cls, f.name, [obj for obj in instances if obj is not None])
    assert constant == set()


def _fields_with_defaults() -> set[str]:
    """"Class.field" for every field with a default of a dataclass defined in ``src/``."""
    found = set()
    for p in sorted((ROOT / "src" / "shmtwin").glob("*.py")):
        if p.stem == "__main__":
            continue
        module = importlib.import_module(f"shmtwin.{p.stem}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                found |= {f"{cls.__name__}.{f.name}" for f in dataclasses.fields(cls)
                          if f.default is not dataclasses.MISSING
                          or f.default_factory is not dataclasses.MISSING}
    return found


def _keyword_names(source: str) -> set[str]:
    """Names a module's calls pass arguments by."""
    return {kw.arg for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
            for kw in node.keywords if kw.arg is not None}


def test_every_field_with_a_default_is_set_by_some_caller():
    # A default that no scenario key sets, the parser does not derive, and
    # no call of the program, its scripts or the benchmark passes by name is
    # a value only a test can change: a constant.
    set_by_key = set()
    for path in [p for keys in scenario._TABLE.values() for p in keys.values()] + ["plan.f_s_hz"]:
        cls = scenario.Scenario
        for name in path.split("."):
            set_by_key.add(f"{cls.__name__}.{name}")
            hint = typing.get_type_hints(cls)[name]
            cls = (typing.get_args(hint) or (hint,))[0]
    passed = set().union(*(_keyword_names(p.read_text(encoding="utf-8"))
                           for d in ("src", "scripts", "perfbench")
                           for p in sorted((ROOT / d).rglob("*.py"))))
    unset = {name for name in _fields_with_defaults() - set_by_key
             if name.partition(".")[2] not in passed}
    assert unset == set()


def _attribute_readers(source: str, attrs: set[str]) -> dict[str, set[str]]:
    """attr -> the innermost functions of a module that read it as an
    attribute ("<module>" for a read outside any function); a definition,
    a field or a property, is not a read."""
    readers: dict[str, set[str]] = {a: set() for a in attrs}

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr in attrs
                    and isinstance(child.ctx, ast.Load)):
                readers[child.attr].add(where)
            inner = (child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                     else where)
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return readers


def test_each_session_constant_has_one_reader():
    # energy.session is the one schedule of a session: it alone reads the
    # block length, and the radio window alone reads the connect and
    # per-packet times
    readers: dict[str, set[str]] = {}
    for p in sorted((ROOT / "src" / "shmtwin").glob("*.py")):
        found = _attribute_readers(p.read_text(encoding="utf-8"),
                                   {"t_connect_s", "t_packet_s", "block_s"})
        for attr, where in found.items():
            readers.setdefault(attr, set()).update(f"{p.stem}.{w}" for w in where)
    assert readers == {"t_connect_s": {"radio.radio_window_s"},
                       "t_packet_s": {"radio.radio_window_s"},
                       "block_s": {"energy.session"}}


def test_one_rule_turns_a_sessions_duration_into_samples():
    # the plan rounds t_acq_s to its sample count once, and a run's record
    # is that count times the decimation; any other reader of the duration
    # in the program only reports it
    readers: set[str] = set()
    for p in sorted((ROOT / "src" / "shmtwin").glob("*.py")):
        found = _attribute_readers(p.read_text(encoding="utf-8"), {"t_acq_s"})
        readers |= {f"{p.stem}.{w}" for w in found["t_acq_s"]}
    assert readers == {"energy.__post_init__", "energy.samples_per_session",
                       "energy.rows", "repro.repro_table3"}


# The published figures that the model reads: the five energy contributions,
# the two coverage multipliers and the two cells' energies.
_MODEL_FIGURES = {52.596, 2.1816, 659.72, 450.83, 616.97, 3.8, 2.8, 226440.0, 71928.0}


def test_each_figure_the_model_reads_is_written_once_in_presets():
    written: dict[float, list[str]] = {f: [] for f in _MODEL_FIGURES}
    for p in sorted((ROOT / "src" / "shmtwin").glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and type(node.value) in (int, float)
                    and node.value in written):
                written[node.value].append(p.name)
    assert written == {f: ["presets.py"] for f in _MODEL_FIGURES}


def test_presets_imports_only_signals():
    # every module that holds a model reads presets, so presets reads none of them
    tree = ast.parse((ROOT / "src" / "shmtwin" / "presets.py").read_text(encoding="utf-8"))
    imported = {(node.level, node.module) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert not any(isinstance(node, ast.Import) for node in ast.walk(tree))
    assert imported == {(0, "__future__"), (1, "signals")}


def _callers(source: str, names: set[str]) -> dict[str, set[str]]:
    """name -> the top-level functions and classes of a module whose bodies,
    nested definitions included, call it ("<module>" for a call outside any)."""
    callers: dict[str, set[str]] = {n: set() for n in names}
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in names:
                    callers[name].add(where)
    return callers


def test_one_front_end_senses_quantizes_and_decimates():
    # scenario._sense is the one sensing front end: runs and the ENOB
    # measurement both go through it
    found: dict[str, set[str]] = {}
    for p in sorted((ROOT / "src" / "shmtwin").glob("*.py")):
        for name, where in _callers(p.read_text(encoding="utf-8"),
                                    {"apply_sensor", "quantize", "run_chain"}).items():
            found.setdefault(name, set()).update(f"{p.stem}.{w}" for w in where)
    assert found == {name: {"scenario._sense"} for name in ("apply_sensor", "quantize", "run_chain")}
