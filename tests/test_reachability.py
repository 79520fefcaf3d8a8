"""The package's public surface: what a star import binds, and which public
functions and classes the command line can reach.

Reachability is a walk over the source's syntax trees.  Each top-level
definition of a module (function, class or assignment) is a node; its edges
are the names it loads, resolved to the module's own definitions or to its
``from lsalab.<module> import`` names.  A class reaches everything its
methods load, and an assignment everything its value loads, so the walk
counts the experiment records of ``lsalab.experiments._EXPERIMENTS`` and the
runners they hold.  The walk starts at ``cli.main``.
"""

from __future__ import annotations

import ast
import types
from pathlib import Path

import lsalab

SRC = Path(lsalab.__file__).parent

# Public names that no verdict reaches yet, each kept for a reason: the
# targets of the planned high-probability, Rosenthal and +-1 tail verdicts,
# the span name the benchmark meters (engine.product) and the whole-file
# texts, which join the pieces that write_outputs streams.  The list may
# only shrink.
PENDING = {
    # the high-probability bound of Durmus et al. (2021) and its parts
    "bounds.composite_hp_bound",
    "bounds.product_hp_bound",
    "bounds.moments_to_hp",
    "bounds.transient_hp_bound",
    "bounds.j0_hp_bound",
    "bounds.j1_h1_bounds",
    "bounds.d2_constant",
    "bounds.d3_constant",
    "bounds.d4_constant",
    "bounds.BoundReport",
    "engine.cov_j0",
    "engine.empirical_quantile",
    "noise.eps_subgauss_const",
    # the Rosenthal-type moment bound
    "rosenthal.rosenthal_bound",
    "rosenthal.RosenthalInputs",
    # the +-1 chain's moment bounds
    "bounds.rademacher_bounds",
    # kept on purpose
    "engine.product",
    # the reference texts; the writer streams their pieces instead
    "experiments.csv_text",
    "experiments.json_text",
}


def _bound_locally(node: ast.AST) -> set[str]:
    """Names a function binds itself: its arguments and assignment targets."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return set()
    bound = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            bound.add(sub.id)
    return bound


def _graph() -> tuple[dict[str, set[str]], set[str]]:
    """Edges between top-level definitions, and the public ones among them."""
    edges: dict[str, set[str]] = {}
    public: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        if module == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scope: dict[str, str] = {}
        nodes: dict[str, ast.AST] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lsalab."):
                for alias in node.names:
                    scope[alias.asname or alias.name] = f"{node.module[7:]}.{alias.name}"
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                nodes[node.name] = node
                if not node.name.startswith("_"):
                    public.add(f"{module}.{node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        nodes[target.id] = node
        scope.update({name: f"{module}.{name}" for name in nodes})
        for name, node in nodes.items():
            local = _bound_locally(node)
            loads = {
                sub.id for sub in ast.walk(node)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            edges[f"{module}.{name}"] = {scope[n] for n in loads - local if n in scope}
    return edges, public


def _reached(edges: dict[str, set[str]], start: str) -> set[str]:
    seen = {start}
    todo = [start]
    while todo:
        for nxt in edges.get(todo.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def test_every_public_name_is_reached_or_pending():
    edges, public = _graph()
    unreached = public - _reached(edges, "cli.main")
    assert sorted(unreached - PENDING) == []


def test_no_pending_name_is_reached():
    edges, public = _graph()
    assert PENDING <= public
    assert sorted(PENDING & _reached(edges, "cli.main")) == []


def test_star_import_binds_no_module():
    namespace: dict = {}
    exec("from lsalab import *", namespace)
    assert not [n for n, v in namespace.items() if isinstance(v, types.ModuleType)]
    assert all(hasattr(lsalab, name) for name in lsalab.__all__)
