"""Import the program from the checkout's source tree and load a workload's
inputs through it. This is the set-up that ``setup_s`` times, shared by the
fresh-interpreter probe (load.py) and by the run itself.
"""

from __future__ import annotations

import contextlib
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    pass


def import_program() -> SimpleNamespace:
    """The program's modules, imported from ROOT/src and from nowhere else."""
    package = SRC / "pocgraph"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no program source at {package}")
    sys.path.insert(0, str(SRC))
    import pocgraph
    from pocgraph import graph_core, multipartite, oracles, poc_engine

    if Path(pocgraph.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"pocgraph imported from {pocgraph.__file__}, not {package}")
    return SimpleNamespace(
        graph_core=graph_core, multipartite=multipartite, oracles=oracles, poc_engine=poc_engine
    )


def no_span(name: str):
    return contextlib.nullcontext()


def load(pg: SimpleNamespace, inputs: dict, span=no_span) -> dict:
    """Parse every instance text; enumerate graphs where the workload sweeps them.

    ``retain`` False parses each text and keeps only its vertex count, for
    workloads whose operations parse the text themselves.
    """
    parse = pg.graph_core.parse_wpoc
    if inputs.get("retain", True):
        loaded = {"graphs": [parse(text) for text in inputs["texts"]]}
    else:
        loaded = {"graphs": [parse(text).n for text in inputs["texts"]]}
    if inputs.get("enumerate_max_n"):
        loaded["graphs_by_n"] = {}
        for n in range(1, inputs["enumerate_max_n"] + 1):
            with span("oracles.enumerate_graphs"):
                loaded["graphs_by_n"][n] = list(pg.oracles.enumerate_graphs(n))
    return loaded
