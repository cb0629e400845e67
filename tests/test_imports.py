"""Import structure of the package: module-level imports only, no cycles."""

import ast
import pathlib

import clustopt

PACKAGE = pathlib.Path(clustopt.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def package_imports(node: ast.AST) -> set[str]:
    """Package modules that one import statement names."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom):
        if node.level == 0:
            base = node.module
        else:  # relative imports inside the package
            base = "clustopt" + (f".{node.module}" if node.module else "")
        names = [f"{base}.{a.name}" for a in node.names]
    else:
        return set()
    return {n.split(".")[1] for n in names
            if n.startswith("clustopt.") and n.split(".")[1] in MODULES}


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def test_no_function_imports_a_package_module():
    found = []
    for module in MODULES:
        for fn in ast.walk(parse(module)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    found += [(module, fn.name, m) for m in package_imports(node)]
    assert found == []


def test_module_import_graph_is_acyclic():
    deps = {m: set().union(*map(package_imports, ast.walk(parse(m))))
            for m in MODULES}
    done: set[str] = set()

    def visit(module: str, path: tuple[str, ...]) -> None:
        assert module not in path, f"import cycle {' -> '.join(path + (module,))}"
        if module not in done:
            for dep in sorted(deps[module]):
                visit(dep, path + (module,))
            done.add(module)

    for module in MODULES:
        visit(module, ())
