"""The numeric path and the oracles that check it share no code.

A numeric result is only a check of a closed form or of another route if
the two are computed independently.  These tests read the source of
``gielab`` with ``ast``: every module-level function and class is a node,
and it refers to every other one whose name it loads (as a name or as an
attribute) anywhere in its body, nested functions and methods included.
Names are resolved across the package, which defines each once.  The rules
hold for everything a node reaches, not only for what it names itself.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "gielab"

# the Eve-side search and the objectives, seed maps and trace readers it runs
NUMERIC_PATH = {
    "measurement": ("seed_frame_schur",),
    "purification": ("purify", "purify_asym_glems"),
    "gie": (
        "gie_numeric", "gie_numeric_sym_glems", "gie_numeric_asym_glems", "gie_numeric_sym_sq_thermal",
        "_single_mode_numeric", "minimize_kh", "_kh_formula", "_single_mode_seed", "_kh_seed", "_trace_forms",
        "_conditional_cms", "_numeric_pure",
    ),
}
# the independent routes that the tests and ``verify`` check the numeric path against
ORACLE_ROUTES = (
    "condition_on_e", "eve_kernel", "general_single_mode", "FiniteMeasurement", "HomodyneMeasurement",
    "mutual_information_f", "_outcome_ccm", "f_decomposed", "k_h_determinant", "_spectral_seed",
)
# the numeric path's own kernels and search stages, which no oracle route may use
NUMERIC_KERNELS = (
    "seed_frame_schur", "_kh_formula", "_single_mode_seed", "_kh_seed", "search", "grid_argmin", "descend",
)


def definitions(root: pathlib.Path = SOURCE) -> dict:
    """Every module-level function and class of the package: name -> (module, node)."""
    found = {}
    for path in sorted(root.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in found, f"{node.name} is defined in {found[node.name][0]} and {path.stem}"
                found[node.name] = (path.stem, node)
    return found


def reference_graph(defs: dict) -> dict:
    """name -> the names of the package's definitions that its body loads."""
    graph = {}
    for name, (_, node) in defs.items():
        loaded = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                loaded.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                loaded.add(sub.attr)
        graph[name] = (loaded & defs.keys()) - {name}
    return graph


def path_to(graph: dict, start: str, targets) -> list | None:
    """The first chain of references from ``start`` to one of ``targets`` (breadth first), or None."""
    targets, seen, frontier = set(targets), {start}, [[start]]
    while frontier:
        chain = frontier.pop(0)
        for name in sorted(graph[chain[-1]]):
            if name in targets:
                return chain + [name]
            if name not in seen:
                seen.add(name)
                frontier.append(chain + [name])
    return None


def numeric_path(defs: dict) -> list:
    """The numeric path's definitions: all of ``optimize`` and the names of ``NUMERIC_PATH``."""
    names = [name for name, (module, _) in defs.items() if module == "optimize"]
    return names + [name for names in NUMERIC_PATH.values() for name in names]


def violations(root: pathlib.Path = SOURCE) -> list:
    """Each chain from the numeric path to an oracle route and from an oracle route to a numeric kernel."""
    defs = definitions(root)
    graph = reference_graph(defs)
    found = []
    for start, targets in [(name, ORACLE_ROUTES) for name in numeric_path(defs)] + [
        (name, NUMERIC_KERNELS) for name in ORACLE_ROUTES
    ]:
        chain = path_to(graph, start, targets)
        if chain is not None:
            found.append(" -> ".join(chain))
    return found


class TestOracleIndependence:
    def test_every_named_definition_exists_where_it_is_named(self):
        defs = definitions()
        for module, names in NUMERIC_PATH.items():
            for name in names:
                assert defs[name][0] == module, name
        for name in ORACLE_ROUTES + NUMERIC_KERNELS:
            assert name in defs, name
        assert {"search", "grid_argmin", "descend"} <= set(numeric_path(defs))

    def test_the_numeric_path_reaches_no_oracle_route_and_no_oracle_route_reaches_a_numeric_kernel(self):
        assert violations() == []

    @pytest.mark.parametrize("host, line, guest", [
        ("_trace_forms", "    condition_on_e(pi, None)\n", "condition_on_e"),
        ("grid_argmin", "    helper = k_h_determinant\n", "k_h_determinant"),
        ("k_h_determinant", "    _kh_formula(a, k, 1.0, 0.0)\n", "_kh_formula"),
        ("eve_kernel", "    return descend\n", "descend"),
    ])
    def test_a_shared_call_is_reported(self, tmp_path, host, line, guest):
        # a copy of the package in which ``host`` also uses ``guest`` at the top of its body
        for path in SOURCE.glob("*.py"):
            text = path.read_text(encoding="utf-8")
            node = next((n for n in ast.parse(text).body if getattr(n, "name", None) == host), None)
            if node is not None:
                lines = text.splitlines(keepends=True)
                first = node.body[1] if ast.get_docstring(node) is not None else node.body[0]
                lines.insert(first.lineno - 1, line)
                text = "".join(lines)
            (tmp_path / path.name).write_text(text, encoding="utf-8")
        found = violations(tmp_path)
        assert found and all(chain.endswith(f"{host} -> {guest}") for chain in found)
