import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _defined_names(source: str) -> list[str]:
    """Every function, method and class defined in a module, dunders excluded."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def test_no_definition_is_kept_alive_by_its_tests():
    # perfbench counts as a reader: it wraps program functions by name
    program = sorted((ROOT / "src" / "shmtwin").glob("*.py"))
    readers = program + sorted((ROOT / "perfbench").glob("*.py"))
    text = "\n".join(p.read_text(encoding="utf-8") for p in readers)
    defined: dict[str, int] = {}
    for path in program:
        for name in _defined_names(path.read_text(encoding="utf-8")):
            defined[name] = defined.get(name, 0) + 1
    # each definition spells its name once; a reader spells it once more
    unread = sorted(name for name, n_defs in defined.items()
                    if len(re.findall(rf"\b{re.escape(name)}\b", text)) <= n_defs)
    assert unread == []
