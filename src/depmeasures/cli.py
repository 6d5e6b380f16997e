"""Command-line interface.

Every run writes a single JSON document {"manifest": ..., "result": ...}
to stdout or --out.  The manifest captures the command, parameters, seed,
tool version, and timestamps; the result payload is a pure function of the
manifest minus timestamps, so repeated runs with the same seed are
byte-identical in the payload.

Exit codes: 0 success, 2 usage/input error, 3 at least one check reported
pass=false, 4 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from typing import Sequence

from . import __version__
from .constructions import (
    ScoredBase,
    clt_limit_corr,
    embellish,
    lemma7_profile,
    make_scored_base,
    orthant_prob,
    scored_base_from_jsonable,
    theorem6_corr,
    theorem6_witness_search,
    yy_pair,
)
from .errors import ConvergenceFailure, DependenceError
from .joint_pmf import from_jsonable, kron, load_json
from .measures import full_report
from .sharpness_search import SearchConfig, search_max_rho, search_tensor_gap
from .theorem_suite import (
    check_chain,
    check_cousin,
    check_cousin_multi,
    check_csaki_fischer,
    check_peyre_bound,
    check_two_atom_bound,
    fuzz,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECK_FAILED = 3
EXIT_NO_CONVERGENCE = 4


def _parse_shape(text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"shape must look like 4x4, got {text!r}") from exc


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depmeasures",
        description="Dependence measures of finite sigma-field pairs: "
        "exact computation, theorem checking, constructions, and search.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON document to this file")
    common.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="csv is available only for search traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measures", parents=[common], help="full dependence report of a matrix")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", choices=("exact", "heuristic", "auto"), default="auto")
    p.add_argument("--normalize", action="store_true")

    p = sub.add_parser("yy", parents=[common], help="sign-product pair of level t")
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("kron", parents=[common], help="independent join of two matrices")
    p.add_argument("--in1", required=True)
    p.add_argument("--in2", required=True)
    p.add_argument("--normalize", action="store_true")

    p = sub.add_parser("check", help="run one theorem checker")
    csub = p.add_subparsers(dest="check_name", required=True)
    for name in ("chain", "two-atom", "peyre"):
        cp = csub.add_parser(name, parents=[common])
        cp.add_argument("--in", dest="infile", required=True)
        cp.add_argument("--normalize", action="store_true")
    for name in ("csaki-fischer", "cousin"):
        cp = csub.add_parser(name, parents=[common])
        cp.add_argument("--in1", required=True)
        cp.add_argument("--in2", required=True)
        cp.add_argument("--normalize", action="store_true")
    cp = csub.add_parser("cousin-multi", parents=[common])
    cp.add_argument("--in", dest="infiles", nargs="+", required=True)
    cp.add_argument("--normalize", action="store_true")

    p = sub.add_parser("fuzz", parents=[common],
                       help="run all applicable checks on random instances")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--shape", type=_parse_shape, nargs="+", required=True)
    p.add_argument("--style", nargs="+", default=["dense"],
                   choices=("dense", "sparse", "near_independent"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--no-pair-checks", action="store_true")

    p = sub.add_parser("embellish", parents=[common],
                       help="pin tau of a base to t by an independent sign-product join")
    p.add_argument("--base", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--normalize", action="store_true")

    p = sub.add_parser("orthant", parents=[common],
                       help="bivariate normal positive-quadrant probability")
    p.add_argument("--r", type=float, required=True)

    p = sub.add_parser("theorem6", parents=[common],
                       help="indicator correlation of summed scores at one n")
    p.add_argument("--base", required=True)
    p.add_argument("--g", type=_parse_floats)
    p.add_argument("--h", type=_parse_floats)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("exact", "mc"), default="exact")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("witness-search", parents=[common],
                       help="scan n for indicator correlation above t")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--base", required=True, help="ScoredBase JSON with matrix, g, h")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--method", choices=("exact", "mc", "auto"), default="auto")
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("lemma7", parents=[common],
                       help="profile of t(1 - log t) - sin(pi t/2)")
    p.add_argument("--grid", type=int, default=100_000)

    p = sub.add_parser("search", help="stochastic search over joint matrices")
    ssub = p.add_subparsers(dest="objective", required=True)
    for name in ("rho", "tensor-gap"):
        sp = ssub.add_parser(name, parents=[common])
        sp.add_argument("--shape", type=_parse_shape, required=True)
        sp.add_argument("--tau-cap", type=float, default=1.0)
        sp.add_argument("--two-atom", action="store_true")
        sp.add_argument("--budget", type=int, default=1000)
        sp.add_argument("--restarts", type=int, default=4)
        sp.add_argument("--seed", type=int, required=True)
        sp.add_argument("--step-scale", type=float, default=0.25)
        if name == "tensor-gap":
            sp.add_argument("--nmax", type=int, default=2)

    return parser


def _checks_payload(checks) -> tuple[dict, bool]:
    items = [c.to_jsonable() for c in checks]
    return {"checks": items}, any(not c.passed for c in checks)


def _dispatch(args: argparse.Namespace, parser: argparse.ArgumentParser) -> tuple[dict, bool]:
    cmd = args.command
    if cmd == "measures":
        rep = full_report(load_json(args.infile, args.normalize), mode=args.mode)
        return rep.to_jsonable(), False
    if cmd == "yy":
        return yy_pair(args.t).to_jsonable(), False
    if cmd == "kron":
        joined = kron(load_json(args.in1, args.normalize), load_json(args.in2, args.normalize))
        return joined.to_jsonable(), False
    if cmd == "check":
        name = args.check_name
        if name == "chain":
            return _checks_payload(check_chain(load_json(args.infile, args.normalize)))
        if name == "two-atom":
            return _checks_payload([check_two_atom_bound(load_json(args.infile, args.normalize))])
        if name == "peyre":
            return _checks_payload([check_peyre_bound(load_json(args.infile, args.normalize))])
        if name == "csaki-fischer":
            return _checks_payload(
                check_csaki_fischer(load_json(args.in1, args.normalize), load_json(args.in2, args.normalize))
            )
        if name == "cousin":
            return _checks_payload(
                check_cousin(load_json(args.in1, args.normalize), load_json(args.in2, args.normalize))
            )
        if name == "cousin-multi":
            ms = [load_json(f, args.normalize) for f in args.infiles]
            return _checks_payload([check_cousin_multi(ms)])
        parser.error(f"unknown check {name!r}")
    if cmd == "fuzz":
        report = fuzz(
            shapes=args.shape,
            styles=args.style,
            count=args.count,
            seed=args.seed,
            include_pair_checks=not args.no_pair_checks,
        )
        return report.to_jsonable(), bool(report.failures)
    if cmd == "embellish":
        joined, checks = embellish(load_json(args.base, args.normalize), args.t)
        payload = joined.to_jsonable()
        payload["checks"] = [c.to_jsonable() for c in checks]
        return payload, any(not c.passed for c in checks)
    if cmd == "orthant":
        return {"r": args.r, "value": orthant_prob(args.r), "limit_corr": clt_limit_corr(args.r)}, False
    if cmd == "theorem6":
        if (args.g is None) != (args.h is None):
            parser.error("--g and --h must be given together")
        sb = _load_scored_base(args.base, args.g, args.h)
        method = "monte_carlo" if args.method == "mc" else "exact"
        if method == "monte_carlo" and args.seed is None:
            parser.error("--seed is required for --method mc")
        est = theorem6_corr(sb, args.n, method=method, samples=args.samples, seed=args.seed)
        return est.to_jsonable(), False
    if cmd == "witness-search":
        if args.method != "exact" and args.seed is None:
            parser.error("--seed is required unless --method exact")
        sb = _load_scored_base(args.base)
        method = {"mc": "monte_carlo"}.get(args.method, args.method)
        hit = theorem6_witness_search(
            args.t, sb, args.nmax, method=method, samples=args.samples, seed=args.seed
        )
        payload = {
            "t": args.t,
            "r": sb.r,
            "n_max": args.nmax,
            "found": hit is not None,
            "hit": hit.to_jsonable() if hit is not None else None,
        }
        return payload, False
    if cmd == "lemma7":
        return lemma7_profile(args.grid).to_jsonable(), False
    if cmd == "search":
        cfg = SearchConfig(
            shape=tuple(args.shape),
            tau_cap=args.tau_cap,
            two_atom=args.two_atom,
            budget=args.budget,
            restarts=args.restarts,
            seed=args.seed,
            step_scale=args.step_scale,
        )
        if args.objective == "rho":
            result = search_max_rho(cfg)
        else:
            result = search_tensor_gap(cfg, n_max=args.nmax)
        payload = result.to_jsonable()
        payload["config"] = cfg.to_jsonable()
        return payload, False
    parser.error(f"unknown command {cmd!r}")
    raise AssertionError("unreachable")


def _load_scored_base(path: str, g=None, h=None) -> ScoredBase:
    """A scored base from a file, with the file's scores unless g, h are given."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if g is None:
        return scored_base_from_jsonable(obj)
    return make_scored_base(from_jsonable(obj), g, h)


def _manifest(args: argparse.Namespace, started: str, finished: str) -> dict:
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("out", "format") and v is not None
    }
    for key, value in params.items():
        if isinstance(value, list) and value and isinstance(value[0], tuple):
            params[key] = [list(v) for v in value]
        elif isinstance(value, tuple):
            params[key] = list(value)
    return {
        "command": args.command,
        "parameters": params,
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
        "started": started,
        "finished": finished,
    }


def _emit(document: dict, args: argparse.Namespace) -> None:
    if args.format == "csv":
        trace = document["result"].get("trace")
        if trace is None:
            raise DependenceError("--format csv is only available for search traces")
        lines = ["iteration,objective"] + [f"{k},{v!r}" for k, v in trace]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(document, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(list(argv))
    started = _utcnow()
    try:
        payload, check_failed = _dispatch(args, parser)
        document = {"manifest": _manifest(args, started, _utcnow()), "result": payload}
        _emit(document, args)
    except ConvergenceFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (DependenceError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_CHECK_FAILED if check_failed else EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
