"""Command-line front end.

Machine-readable ``key value`` lines go to stdout; human-readable notes go to
stderr. Exit codes: 0 success, 1 semantic failure (invalid POC or failed
check), 2 parse/usage/I-O error, 3 oracle cap exceeded. The POC_CAPS
environment variable overrides oracle caps as ``name=value,name=value``.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from pathlib import Path

from . import multipartite as mp
from . import oracles, poc_engine, selftest
from .graph_core import (
    FormatError,
    WeightedGraph,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    parse_coloring,
    parse_orientation,
    parse_wpoc,
    path_graph,
    random_weighted_graph,
    serialize_coloring,
    serialize_orientation,
    serialize_wpoc,
)
from .oracles import DEFAULT_CAPS, CapExceeded, OracleCaps, caps_with_overrides


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write_or_print(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
        print(f"output {output}")
    else:
        sys.stdout.write(text)


def _int_list(raw: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise FormatError(f"{what} must be a comma-separated integer list, got {raw!r}")


def _load_graph(path: str) -> WeightedGraph:
    return parse_wpoc(_read_text(path))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_color(args: argparse.Namespace, caps: OracleCaps) -> int:
    g = _load_graph(args.input)
    if args.algo == "f":
        coloring = poc_engine.greedy_poc(g)
    elif args.algo == "fprime":
        if args.orientation:
            d = parse_orientation(_read_text(args.orientation), g.graph)
        else:
            d = poc_engine.build_good_orientation(g)
        coloring = poc_engine.greedy_poc_from_orientation(g, d)
    elif args.algo == "stack":
        coloring = poc_engine.layered_stack_coloring(g)
    elif args.algo == "exact":
        _, coloring = oracles.chi_poc_exact(g, caps)
    else:  # multipartite
        if not args.parts:
            _say("--algo multipartite requires --parts")
            return 2
        sizes = _int_list(args.parts, "--parts")
        if complete_multipartite_graph(sizes) != g.graph:
            _say("edge set does not match a complete multipartite graph with --parts")
            return 2
        inst = mp.MultipartiteInstance(sizes, g.weights).normalized()
        mocs = mp.find_mocs(inst)
        coloring = mp.mocs_coloring(inst, mocs, mp.find_max_spaths(inst, mocs))
    violation = poc_engine.first_violation(g, coloring)
    if violation is not None:
        _say(f"internal error: produced coloring fails validation on edge {violation}")
        return 1
    print(f"algo {args.algo}")
    if args.output:
        print(f"palette {coloring.palette}")
        _write_or_print(serialize_coloring(coloring), args.output)
    else:
        sys.stdout.write(serialize_coloring(coloring))
    _say(f"{args.algo}: {coloring.palette} colors on {g.n} vertices")
    return 0


def cmd_verify(args: argparse.Namespace, caps: OracleCaps) -> int:
    g = _load_graph(args.graph)
    coloring = parse_coloring(_read_text(args.coloring), g.n)
    violation = poc_engine.first_violation(g, coloring)
    if violation is None:
        print("result VALID")
        return 0
    print("result INVALID")
    print(f"edge {violation[0]} {violation[1]}")
    _say(f"edge {violation[0]}-{violation[1]} breaks the properly-ordered conditions")
    return 1


def cmd_orient(args: argparse.Namespace, caps: OracleCaps) -> int:
    g = _load_graph(args.input)
    d = poc_engine.build_good_orientation(g)
    print(f"longest_dipath {poc_engine.dag_longest_path(d)}")
    if args.dot:
        lines = ["digraph {"]
        lines += [f'  {v} [label="{v} (w={g.weight(v)})"];' for v in range(1, g.n + 1)]
        lines += [f"  {t} -> {h};" for t, h in d.sorted_arcs()]
        lines.append("}")
        _write_or_print("\n".join(lines) + "\n", args.output)
    else:
        _write_or_print(serialize_orientation(d), args.output)
    return 0


def cmd_oracle(args: argparse.Namespace, caps: OracleCaps) -> int:
    g = _load_graph(args.input)
    quantity = args.quantity
    if quantity == "chi":
        witness = oracles.proper_coloring_exact(g.graph)
        print(f"chi {witness.palette}")
        if args.witness:
            sys.stdout.write(serialize_coloring(witness))
    elif quantity == "chipoc":
        value, witness = oracles.chi_poc_exact(g, caps)
        print(f"chipoc {value}")
        if args.witness:
            sys.stdout.write(serialize_coloring(witness))
    elif quantity == "ell":
        print(f"ell {oracles.longest_path_exact(g.graph, caps)}")
        if args.witness:
            path = oracles.longest_path_witness(g.graph, caps)
            print(f"path {'-'.join(map(str, path))}")
    elif quantity == "ellprime":
        value, witness_d = oracles.ell_prime_orientation(g, caps)
        print(f"ellprime {value}")
        if args.witness:
            sys.stdout.write(serialize_orientation(witness_d))
    else:  # f or chipoct
        if quantity == "f":
            value, weights = oracles.f_argmax(g.graph, caps)
        elif args.t is None:
            _say("oracle chipoct requires --t")
            return 2
        else:
            value, weights = oracles.chi_poc_t_argmax(
                g.graph, args.t, caps, surjective_only=args.surjective
            )
        print(f"{quantity} {value}")
        if args.witness:
            print(f"weights {','.join(map(str, weights))}")
            _, coloring = oracles.chi_poc_exact(WeightedGraph(g.graph, weights), caps)
            sys.stdout.write(serialize_coloring(coloring))
    return 0


def _emit_multipartite(inst: mp.MultipartiteInstance) -> None:
    mocs = mp.find_mocs(inst)
    s = mp.find_max_spaths(inst, mocs)
    coloring = mp.mocs_coloring(inst, mocs, s)
    print(f"mocs_total {mocs.total_size}")
    for value, clique in enumerate(mocs.cliques, start=1):
        print(f"mocs {value} {','.join(map(str, clique))}")
    print(f"spaths_vertices {s.vertex_count}")
    print(f"spaths_q {s.q}")
    for i, path in enumerate(s.paths, start=1):
        print(f"spath {i} {'-'.join(map(str, path))}")
    print(f"g {mocs.total_size - s.vertex_count + s.q}")
    sys.stdout.write(serialize_coloring(coloring))


def cmd_multipartite(args: argparse.Namespace, caps: OracleCaps) -> int:
    sizes = _int_list(args.parts, "--parts")
    if args.weights is None and args.t is None:
        _say("multipartite requires --weights or --t")
        return 2
    if args.weights is not None:
        weights = _int_list(args.weights, "--weights")
        inst = mp.MultipartiteInstance(sizes, weights).normalized()
        _emit_multipartite(inst)
    else:
        h, weights = mp.h_argmax(sizes, args.t, caps)
        print(f"h {h}")
        print(f"weights {','.join(map(str, weights))}")
        _emit_multipartite(mp.MultipartiteInstance(sizes, weights))
    return 0


def cmd_generate(args: argparse.Namespace, caps: OracleCaps) -> int:
    kind = args.kind
    if kind in ("path", "cycle", "complete"):
        if args.n is None:
            _say(f"generate {kind} requires --n")
            return 2
        graph = {"path": path_graph, "cycle": cycle_graph, "complete": complete_graph}[
            kind
        ](args.n)
        weights = (
            _int_list(args.weights, "--weights") if args.weights else (1,) * graph.n
        )
        wg = WeightedGraph(graph, weights)
    elif kind == "multipartite":
        if not args.parts or not args.weights:
            _say("generate multipartite requires --parts and --weights")
            return 2
        sizes = _int_list(args.parts, "--parts")
        wg = WeightedGraph(
            complete_multipartite_graph(sizes), _int_list(args.weights, "--weights")
        )
    else:  # random
        if args.n is None or args.p is None or args.t is None:
            _say("generate random requires --n, --p and --t")
            return 2
        rng = random.Random(args.seed)
        wg = random_weighted_graph(rng, args.n, args.p, args.t)
    _write_or_print(serialize_wpoc(wg), args.output)
    return 0


def cmd_selftest(args: argparse.Namespace, caps: OracleCaps) -> int:
    report = selftest.run_selftest(scale=args.scale, caps=caps)
    for check in report.checks:
        status = "pass" if check.passed else "fail"
        print(f"check {check.name} {status} {check.elapsed_ms:.0f}ms")
        if not check.passed:
            print(f"fail {check.name} observed={check.observed} expected={check.expected}")
    passed = sum(c.passed for c in report.checks)
    _say(f"selftest {report.scale}: {passed}/{len(report.checks)} checks passed")
    for check in report.checks:
        mark = "ok  " if check.passed else "FAIL"
        _say(f"  {mark} {check.name:36} {check.elapsed_ms:9.0f} ms")
        if not check.passed:
            _say(f"       observed: {check.observed}")
            _say(f"       expected: {check.expected}")
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pocgraph",
        description="Properly ordered coloring of vertex-weighted graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("color", help="color a WPOC instance")
    p.add_argument("input", help="WPOC file ('-' for stdin)")
    p.add_argument(
        "--algo",
        choices=("f", "fprime", "stack", "multipartite", "exact"),
        default="f",
        help="coloring construction (default: weight-ordered greedy)",
    )
    p.add_argument("--orientation", help="orientation file for --algo fprime")
    p.add_argument("--parts", help="part sizes for --algo multipartite, e.g. 1,3,5")
    p.add_argument("-o", "--output", help="write the coloring file here")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="check a coloring file against a WPOC instance")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("orient", help="emit the canonical good acyclic orientation")
    p.add_argument("input")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of arc lines")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_orient)

    p = sub.add_parser("oracle", help="exact invariants by exhaustive search")
    p.add_argument("input")
    p.add_argument(
        "quantity", choices=("chi", "chipoc", "ell", "ellprime", "f", "chipoct")
    )
    p.add_argument("--t", type=int, help="number of weight values for chipoct")
    p.add_argument(
        "--surjective",
        action="store_true",
        help="chipoct: require exactly t distinct values",
    )
    p.add_argument("--witness", action="store_true", help="also emit a witness")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("multipartite", help="MOCs machinery on K_{n1,...,nk}")
    p.add_argument("--parts", required=True, help="part sizes, e.g. 1,3,5")
    p.add_argument("--weights", help="weights, part by part")
    p.add_argument("--t", type=int, help="maximize over weightings with t values")
    p.set_defaults(func=cmd_multipartite)

    p = sub.add_parser("generate", help="emit WPOC instances")
    p.add_argument(
        "kind", choices=("path", "cycle", "complete", "multipartite", "random")
    )
    p.add_argument("--n", type=int)
    p.add_argument("--weights")
    p.add_argument("--parts")
    p.add_argument("--p", type=float, help="edge probability for random")
    p.add_argument("--t", type=int, help="weight range 1..t for random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("selftest", help="run the theorem-verification suites")
    p.add_argument("--scale", choices=("quick", "full"), default="quick")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    caps = DEFAULT_CAPS
    overrides = os.environ.get("POC_CAPS", "")
    try:
        if overrides:
            caps = caps_with_overrides(overrides)
        return args.func(args, caps)
    except CapExceeded as exc:
        _say(f"error: {exc}")
        return 3
    except FormatError as exc:
        _say(f"error: {exc}")
        return 2
    except OSError as exc:
        _say(f"error: {exc}")
        return 2
    except ValueError as exc:
        _say(f"error: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
