"""The option count that ROADMAP tracks: dataclass fields plus defaulted
parameters in ``src/powercycle``, counted with ``ast``. Every independently
settable value multiplies the configurations tests and benchmarks must cover,
so the count may only fall; lower OPTION_BUDGET when a change removes
options."""

import ast
from pathlib import Path

import powercycle

OPTION_BUDGET = 76


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def count_options(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults)
            count += sum(default is not None for default in node.args.kw_defaults)
    return count


def test_counter_sees_fields_and_defaults():
    source = """
@dataclass(frozen=True)
class A:
    x: int
    y: int = 0

class B:
    z: int = 1

def f(a, b=1, *, c=2, d):
    def g(e=3):
        pass
"""
    # x and y of the dataclass, then b, c and e; B is not a dataclass.
    assert count_options(source) == 5


def test_option_count_within_budget():
    root = Path(powercycle.__file__).parent
    counts = {path.name: count_options(path.read_text()) for path in sorted(root.glob("*.py"))}
    assert sum(counts.values()) <= OPTION_BUDGET, counts
