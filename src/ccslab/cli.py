"""Command-line front end.

Subcommands: classify, generate, table, solve-ltp, plot, props.  Angles are
radians; complex flags accept Python literal syntax (e.g. ``0.5+0.5j``).
Exit codes: 0 success, 1 property/golden failure, 2 input error, 3 domain
error.  CCSLAB_EPS overrides the default equality tolerance; --eps overrides
both.  Randomized commands echo their seed in the output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .classify import classify
from .core import CCSLabError, Tolerance, ValidationError
from .families import (
    Family,
    FamilyParams,
    MissingParameterError,
    NoAssociatedStateError,
    associated_state,
    generate,
    required_parameters,
)
from .goldentable import GOLDEN_THETAS, CellStatus, run_golden_table
from .propositions import verify_propositions
from .sampling import SamplerConfig
from .serialize import _counterexample_out, document_kind, emit_document, parse_document
from .solver import (
    DegenerateThetaError,
    _ltp_state_at,
    format_plot_csv,
    plot_data,
    solve_state_params,
)
from .twoqubit import canonical_events

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3


class _InputError(CCSLabError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccslab",
        description="Common-cause-system analysis for discrete finite quantum systems",
    )
    parser.add_argument("--version", action="version", version=f"ccslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a (state, partition[, pair]) triple")
    p.add_argument("state_file")
    p.add_argument("partition_file")
    p.add_argument("pair_file", nargs="?", default=None)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--eps", type=float, default=None)

    p = sub.add_parser(
        "generate",
        help="emit a family partition (and state) as JSON lines",
        epilog="families: " + ", ".join(f.value for f in Family),
    )
    p.add_argument("family", help="family identifier (see the epilog for the catalog)")
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--xi", type=float, default=None)
    p.add_argument("--zeta", type=float, default=None)
    p.add_argument("--c", type=complex, default=None)
    p.add_argument("--s", type=complex, default=None)
    p.add_argument("--with-state", action="store_true")

    p = sub.add_parser("table", help="golden comparison of the classifier vs reference rows")
    p.add_argument("--params-grid", default=None, help="comma-separated theta values (radians)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--eps", type=float, default=None)

    p = sub.add_parser("solve-ltp", help="state parameters satisfying the law of total probability")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--theta", type=float, default=None)
    group.add_argument("--grid", type=int, default=None)

    p = sub.add_parser("plot", help="write the solved-parameter curve as CSV")
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("props", help="randomized verification of the structural propositions")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n", type=int, default=1000)

    return parser


def _tolerance(eps: float | None) -> Tolerance:
    if eps is None:
        env = os.environ.get("CCSLAB_EPS")
        if env is not None:
            try:
                eps = float(env)
            except ValueError:
                raise _InputError(f"CCSLAB_EPS is not a number: {env!r}") from None
    if eps is None:
        return Tolerance()
    return Tolerance(eps_eq=eps)


def _load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    document_kind(doc)
    return doc


def _parse_typed(path: str, kinds: tuple) -> object:
    doc = _load_document(path)
    if doc["kind"] not in kinds:
        raise _InputError(f"{path}: expected a {' or '.join(kinds)} document, got {doc['kind']}")
    return parse_document(doc)


def _cmd_classify(args) -> int:
    tol = _tolerance(args.eps)
    state = _parse_typed(args.state_file, ("state", "pure_state"))
    partition = _parse_typed(args.partition_file, ("partition",))
    assumed_pair = False
    if args.pair_file is not None:
        pair = _parse_typed(args.pair_file, ("event_pair",))
    else:
        if partition.dim != 4:
            raise _InputError(
                "no pair file given and the partition is not two-qubit; "
                "the canonical pair only exists for dim 4"
            )
        pair = canonical_events()
        assumed_pair = True
    cfg = SamplerConfig(seed=args.seed, n_states=args.samples)
    report = classify(partition, pair, state, cfg, tol)
    meta = {"seed": args.seed, "samples": args.samples, "eps": tol.eps_eq}
    if assumed_pair:
        meta["assumed_canonical_pair"] = True
    print(json.dumps(emit_document(report, meta=meta), indent=2))
    return EXIT_OK


def _cmd_generate(args) -> int:
    try:
        family = Family.from_tag(args.family)
    except KeyError as exc:
        raise _InputError(str(exc.args[0])) from None
    params = FamilyParams(theta=args.theta, xi=args.xi, zeta=args.zeta, c=args.c, s=args.s)
    for name in required_parameters(family):
        if getattr(params, name) is None:
            raise _InputError(f"family {family.value} needs --{name}")
    instance = generate(family, params)
    lines = [json.dumps(emit_document(instance.partition))]
    if args.with_state:
        try:
            state = associated_state(family, params)
        except MissingParameterError:
            state = _ltp_state_at(family, params.theta)
        lines.append(json.dumps(emit_document(state)))
    print("\n".join(lines))
    return EXIT_OK


def _cmd_table(args) -> int:
    tol = _tolerance(args.eps)
    thetas = GOLDEN_THETAS
    if args.params_grid:
        try:
            thetas = tuple(float(x) for x in args.params_grid.split(","))
        except ValueError:
            raise _InputError(f"--params-grid is not a comma-separated float list") from None
    cfg = SamplerConfig(seed=args.seed)
    outcomes = run_golden_table(cfg, tol, thetas=thetas)
    failures = 0
    for outcome in outcomes:
        print(outcome)
        if outcome.status is CellStatus.FAIL:
            failures += 1
    n_pass = sum(1 for o in outcomes if o.status is CellStatus.PASS)
    n_skip = sum(1 for o in outcomes if o.status is CellStatus.SKIPPED)
    print(f"# seed={args.seed} cells={len(outcomes)} pass={n_pass} fail={failures} skipped={n_skip}")
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def _solution_json(sol) -> str:
    return json.dumps(
        {"theta": sol.theta, "xi": sol.xi, "a": sol.a, "b": sol.b, "unique": sol.unique}
    )


def _cmd_solve_ltp(args) -> int:
    if args.theta is not None:
        print(_solution_json(solve_state_params(args.theta)))
        return EXIT_OK
    if args.grid < 2:
        raise _InputError("--grid needs at least 2 points")
    for theta in np.linspace(0.0, math.pi, args.grid):
        print(_solution_json(solve_state_params(float(theta))))
    return EXIT_OK


def _cmd_plot(args) -> int:
    if args.grid < 2:
        raise _InputError("--grid needs at least 2 points")
    rows = plot_data(np.linspace(0.0, math.pi, args.grid))
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(format_plot_csv(rows))
    except OSError as exc:
        raise _InputError(f"{args.out}: {exc.strerror or exc}") from None
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_props(args) -> int:
    cfg = SamplerConfig(seed=args.seed, n_states=args.n)
    reports = verify_propositions(cfg)
    print(f"# seed={args.seed} n={args.n}")
    any_violation = False
    for name, report in reports.items():
        status = "pass" if report.passed else "FAIL"
        print(f"{status} {name}: instances={report.instances} violations={report.violations}")
        if report.violations:
            any_violation = True
            for ce in report.counterexamples:
                print(json.dumps({"proposition": name, "counterexample": _counterexample_out(ce)}))
    return EXIT_CHECK_FAILED if any_violation else EXIT_OK


_COMMANDS = {
    "classify": _cmd_classify,
    "generate": _cmd_generate,
    "table": _cmd_table,
    "solve-ltp": _cmd_solve_ltp,
    "plot": _cmd_plot,
    "props": _cmd_props,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (NoAssociatedStateError, DegenerateThetaError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (_InputError, MissingParameterError, ValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CCSLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
