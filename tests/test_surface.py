"""The public surface is declared once: the package re-exports each module's
__all__, every tol parameter defaults to frame.DEFAULT_TOL, only cli.py
encodes reports and its run alone writes their envelope, the modules on the
Zak kernel import nothing from each other, and the console script named in
pyproject.toml resolves.
"""

import ast
import dataclasses
import importlib
import inspect
import io
import pkgutil
import tokenize
from pathlib import Path

import pytest

import whframe
from whframe import DEFAULT_TOL, cli, oracle

EXPORTING = ("lattice", "errors", "correlation", "frame", "tightness", "synthesis", "duality")
ROOT = Path(__file__).resolve().parents[1]


def package_modules():
    # __main__ runs the CLI on import
    names = [info.name for info in pkgutil.iter_modules(whframe.__path__) if info.name != "__main__"]
    return [importlib.import_module(f"whframe.{name}") for name in names]


def test_package_all_is_the_module_lists():
    modules = [importlib.import_module(f"whframe.{name}") for name in EXPORTING]
    expected = [name for module in modules for name in module.__all__]
    assert whframe.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            obj = getattr(whframe, name)
            assert obj is getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == module.__name__  # defined there, not re-exported


def test_oracle_and_cli_stay_out_of_the_package():
    assert not (set(oracle.__all__) | set(cli.__all__)) & set(whframe.__all__)


def test_every_tol_default_is_default_tol():
    defaults = {}
    for module in package_modules():
        for name, obj in vars(module).items():
            callable_here = inspect.isfunction(obj) or dataclasses.is_dataclass(obj)
            if callable_here and obj.__module__ == module.__name__:
                tol = inspect.signature(obj).parameters.get("tol")
                if tol is not None:
                    defaults[f"{module.__name__}.{name}"] = tol.default
    public = {name: default for name, default in defaults.items()
              if not name.rsplit(".", 1)[1].startswith("_")}
    assert public and all(default is DEFAULT_TOL for default in public.values()), public
    assert all(default in (DEFAULT_TOL, inspect.Parameter.empty) for default in defaults.values())
    assert cli.DEFAULT_TOL is DEFAULT_TOL


def test_default_tolerance_literal_appears_once():
    hits = []
    for path in sorted((ROOT / "src" / "whframe").glob("*.py")):
        for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if token.type == tokenize.NUMBER and ast.literal_eval(token.string) == DEFAULT_TOL:
                hits.append((path.name, token.line.strip()))
    assert hits == [("frame.py", "DEFAULT_TOL = 1e-9")]


def test_only_the_cli_writes_reports():
    """Library results are plain values: no module but cli.py defines to_dict, to_csv
    or _pairs, or imports asdict or _pairs."""
    hits = []
    for path in sorted((ROOT / "src" / "whframe").glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name in ("to_dict", "to_csv", "_pairs"):
                hits.append((path.name, node.lineno, node.name))
            if isinstance(node, ast.Name) and node.id == "_pairs":  # bound or read
                hits.append((path.name, node.lineno, node.id))
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                hits += [(path.name, node.lineno, alias.name) for alias in node.names
                         if alias.name.rsplit(".", 1)[-1] in ("asdict", "_pairs")]
    assert hits == []


def test_run_alone_writes_the_report_envelope():
    """In cli.py, run alone checks the required fields, adds the header, encodes the
    values as JSON and holds the one `0 if ... else 1`; _cmd_make_tight also reads
    _header for its constants, _cmd_dual _report for its nested rows, and _report
    recurses. _write_to only writes chunks: it knows no format (no json, no isinstance)."""
    allowed = {"_require": {"run"}, "_header": {"run", "_cmd_make_tight"},
               "_report": {"run", "_cmd_dual", "_report"}, "JSONEncoder": {"run"}}
    hits, exits = [], []
    for top in ast.parse((ROOT / "src" / "whframe" / "cli.py").read_text(encoding="utf-8")).body:
        scope = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            name = getattr(node, "id", getattr(node, "attr", None))  # of a Name or an Attribute
            if name and scope not in allowed.get(name, {scope}):
                hits.append((scope, node.lineno, name))
            if scope == "_write_to" and name in ("json", "isinstance"):
                hits.append((scope, node.lineno, name))
            if isinstance(node, ast.IfExp) and ast.unparse(node).startswith("0 if "):
                exits.append(scope)
    assert hits == [] and exits == ["run"]


def package_imports(path):
    """(line, module, name) of every name a module imports from the package."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("whframe")):
            module = (node.module or "").rsplit(".", 1)[-1]
            yield from ((node.lineno, module, alias.name) for alias in node.names)
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name, None) for alias in node.names
                        if alias.name.startswith("whframe"))


def test_modules_on_the_kernel_form_a_tree():
    """tightness, duality and synthesis read frame, lattice and errors only, correlation
    (the signal-domain folds) reads lattice alone, and every private name crossing a
    module boundary is frame's."""
    kernel = ("frame", "lattice", "errors")
    reads = {"correlation": ("lattice",), "tightness": kernel, "duality": kernel,
             "synthesis": kernel}
    hits = []
    for path in sorted((ROOT / "src" / "whframe").glob("*.py")):
        for line, module, name in package_imports(path):
            private = name is not None and name.startswith("_")
            if module not in reads.get(path.stem, (module,)) or (private and module != "frame"):
                hits.append((path.name, line, module, name))
    assert hits == []


def test_console_script_target_resolves():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["whframe"] == "whframe.cli:entry_point"
    module, attr = scripts["whframe"].split(":")
    assert callable(getattr(importlib.import_module(module), attr))
