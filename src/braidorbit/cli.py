"""Command line interface: build symmetries, run every verification pipeline.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 usage or
parse error, 3 resource limit.  Structured reports are byte-stable for a
fixed invocation; timing is only included on request.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from . import hecke, koszul, orbit, rea, symfun
from .errors import EngineError, ParseError, ResourceLimit
from .scalar import Scalar, SymbolTable, parse_scalar

_SYMBOL_RE = re.compile(r"[a-z][a-z0-9_]*")


def _collect_symbols(*texts) -> SymbolTable:
    found = set()
    for text in texts:
        if text:
            found.update(_SYMBOL_RE.findall(text))

    def key(name):
        m = re.match(r"^(mu|nu)(\d+)$", name)
        if name == "q":
            return (0, 0, name)
        if name == "h":
            return (1, 0, name)
        if m:
            return (2 if m.group(1) == "mu" else 3, int(m.group(2)), name)
        return (4, 0, name)

    return SymbolTable(sorted(found, key=key))


def _add_symmetry_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--builtin", choices=["flip", "superflip", "dj_gl", "q_super"])
    p.add_argument("--file", help="path to an R-matrix JSON file")
    p.add_argument("--N", type=int, default=0, help="dimension for flip/dj_gl")
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--q", default=None, help="deformation parameter (scalar grammar)")


def _build_symmetry(args, table: SymbolTable):
    """The symmetry over `table`; a file's symbols come first in its table."""
    if args.file:
        hs = hecke.build_from_file(args.file)
        return hs.lift(SymbolTable(hs.table.names + tuple(
            name for name in table.names if name not in hs.table)))
    if not args.builtin:
        raise ParseError("need --builtin or --file")
    q = parse_scalar(args.q, table) if args.q else None
    return hecke.build_builtin(args.builtin, N=args.N, m=args.m, n=args.n,
                               q=q, table=table)


def _profile_from_args(args, table: SymbolTable):
    mus = [parse_scalar(s, table) for s in args.mu.split(",")] if args.mu else []
    nus = [parse_scalar(s, table) for s in args.nu.split(",")] if args.nu else []
    q = parse_scalar(args.q, table) if args.q else Scalar.one(table)
    h = parse_scalar(args.h, table) if getattr(args, "h", None) else None
    return symfun.EigenvalueProfile(mus, nus, q, h)


def _profile_and_symmetry(args, *texts):
    """(profile, symmetry) over one table, refused when their q differ."""
    hs = _build_symmetry(args, _collect_symbols(args.q, *texts))
    prof = _profile_from_args(args, hs.table)
    if prof.q != hs.q:
        raise ParseError(f"the profile's q = {prof.q} is not the q = {hs.q} of {hs.name}")
    return prof, hs


class Report:
    def __init__(self, command: str, inputs: dict):
        self.command = command
        self.inputs = inputs
        self.checks = []
        self.start = time.monotonic()

    def add(self, name: str, status: bool, **extra):
        entry = {"name": name, "status": "pass" if status else "fail"}
        entry.update({k: v for k, v in extra.items() if v is not None})
        self.checks.append(entry)

    def failed(self) -> bool:
        return any(c["status"] == "fail" for c in self.checks)

    def emit(self, out_path, with_timing: bool) -> None:
        for c in self.checks:
            detail = {k: v for k, v in c.items() if k not in ("name", "status")}
            line = f"{c['name']}: {c['status'].upper()}"
            if detail:
                line += "  " + json.dumps(detail, sort_keys=True, default=str)
            print(line)
        doc = {"command": self.command, "inputs": self.inputs, "checks": self.checks}
        if with_timing:
            doc["elapsed_ms"] = int((time.monotonic() - self.start) * 1000)
        if out_path:
            with open(out_path, "w") as fh:
                json.dump(doc, fh, sort_keys=True, indent=2, default=str)
                fh.write("\n")


def _cmd_check_r(args) -> Report:
    table = _collect_symbols(args.q)
    rep = Report("check-r", _inputs(args))
    hs = _build_symmetry(args, table)
    statuses = hecke.validation_report(hs)
    for name, ok in statuses.items():
        rep.add(name, ok)
    rep.add("skew-inverse-traces", True,
            trace_c=str(hs.c_op.trace()), trace_b=str(hs.b_op.trace()))
    return rep


def _cmd_birank(args) -> Report:
    table = _collect_symbols(args.q)
    rep = Report("birank", _inputs(args))
    hs = _build_symmetry(args, table)
    depth = args.depth or (max(hs.N, args.m + args.n) + 3)
    result = hecke.birank(hs, depth)
    rep.add("birank", True, m=result.m, n=result.n,
            minus_series=result.minus_series,
            numerator=[str(c) for c in result.numerator],
            denominator=[str(c) for c in result.denominator])
    print(f"bi-rank: ({result.m}|{result.n})")
    return rep


def _cmd_ch(args) -> Report:
    table = _collect_symbols(args.q)
    rep = Report("ch", _inputs(args))
    hs = _build_symmetry(args, table)
    m, n = args.cm, args.cn
    coeffs = symfun.ch_coefficients(m, n, hs.q)
    for i, c in enumerate(coeffs):
        print(f"coefficient of L^{m + n - i}: {c.to_str('a')}")
    if args.verify:
        ok, report = rea.ch_verify(hs, m, n)
        rep.add("ch-identity", ok, degree=report["degree"],
                entries=report["entries"],
                failures=len(report["failures"]) or None)
    return rep


def _cmd_param(args) -> Report:
    table = _collect_symbols(args.q, args.mu, args.nu, getattr(args, "h", None))
    rep = Report("param", _inputs(args))
    prof = _profile_from_args(args, table)
    dims = symfun.quantum_dims(prof)
    for i, d in enumerate(dims.d, 1):
        print(f"d_{i} = {d}")
    for j, dp in enumerate(dims.dprime, 1):
        print(f"d'_{j} = {dp}")
    rep.add("quantum-dims", True)
    for k in range(args.kmax + 1):
        print(f"p_{k} = {symfun.power_sum_param(k, prof)}")
    rep.add("power-sums", True, kmax=args.kmax)
    if not prof.is_mrea:
        rect = symfun.schur_param(symfun.Partition.rectangle(prof.m, prof.n), prof)
        print(f"s_rect = {rect}")
        checks = symfun.vieta_checks(prof)
        for name, ok in checks:
            rep.add(f"vieta-{name}", ok)
    return rep


def _cmd_orbit(args) -> Report:
    table = _collect_symbols(args.q, args.mu, args.nu, getattr(args, "h", None))
    rep = Report("orbit", _inputs(args))
    prof = _profile_from_args(args, table)
    verdict = orbit.regularity(prof, with_det=True)
    rep.add("regular", verdict.regular,
            violated=[f"{k}:{i},{j}" for k, i, j in verdict.violated] or None,
            det_hankel=str(verdict.det_hankel) if verdict.det_hankel is not None else None)
    if verdict.regular:
        rep.add("hankel-det-nonzero", not verdict.det_hankel.is_zero())
        size = prof.m + prof.n
        strategy = "symbolic" if size <= 3 else "sampled"
        ok = orbit.hankel_det_check(prof.m, prof.n, strategy,
                                    seed=args.seed, trials=args.trials)
        rep.add(f"hankel-det-factorization-{strategy}", ok)
    return rep


def _cmd_cotangent(args) -> Report:
    rep = Report("cotangent", _inputs(args))
    prof, hs = _profile_and_symmetry(args, args.mu, args.nu)
    data = orbit.cotangent(hs, prof)
    for name, value in sorted(data.certificates.items()):
        if isinstance(value, bool):
            rep.add(name, value, not_closed=data.not_closed if name == "entrywise" else None)
        else:
            rep.add(name, True, value=value)
    return rep


def _cmd_koszul(args) -> Report:
    table = _collect_symbols(args.q)
    rep = Report("koszul", _inputs(args))
    hs = _build_symmetry(args, table)
    ps = koszul.build_projectors(hs)
    which = args.check
    if which in ("projectors", "all"):
        rep.add("projector-axioms", all(ok for _, ok in ps.axioms))
    if which in ("conjecture1", "all"):
        ok, info = koszul.conjecture1_check(args.k, hs, ps)
        rep.add(f"conjecture1-k{args.k}", ok,
                vector_equality=info["vector_equality"],
                quotient_zero=info["quotient_zero"])
    if which in ("p2-action", "all"):
        rows = koszul.p2_action_identity(hs, ps)
        for name, ok in rows:
            rep.add(name, ok)
    if which in ("dsquared", "all"):
        rep.add("d-squared-width2", koszul.d_squared_check_r2(hs, ps))
    return rep


def _cmd_mrea(args) -> Report:
    rep = Report("mrea", _inputs(args))
    if args.builtin or args.file:
        prof, hs = _profile_and_symmetry(args, args.mu, args.nu, args.h)
    else:
        prof = _profile_from_args(args, _collect_symbols(args.q, args.mu, args.nu, args.h))
    verdict = orbit.regularity(prof)
    rep.add("regular", verdict.regular,
            violated=[f"{k}:{i},{j}" for k, i, j in verdict.violated] or None)
    dims = symfun.quantum_dims(prof)
    for i, d in enumerate(dims.d, 1):
        print(f"dhat_{i} = {d}")
    for j, dp in enumerate(dims.dprime, 1):
        print(f"dhat'_{j} = {dp}")
    rep.add("hatted-dims", True)
    if verdict.regular:
        size = prof.m + prof.n
        coefficients = orbit.orbit_coefficients(prof)
        orbit.higher_power_reduction(prof, size + 2, coeff_values=coefficients[0])
        rep.add("hatted-recurrence", True, checked_up_to=size + 2)
        if args.builtin or args.file:
            quotient, data = orbit.nc_orbit(hs, prof, coefficients)
            rep.add("nc-orbit-pipeline", True, mode=quotient.mode)
            for name, value in sorted(data.certificates.items()):
                if isinstance(value, bool):
                    rep.add(f"nc-{name}", value,
                            not_closed=data.not_closed if name == "entrywise" else None)
    return rep


def _inputs(args) -> dict:
    skip = {"out", "timing", "func"}
    return {k: v for k, v in vars(args).items()
            if v not in (None, False, 0, "") and k not in skip}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidorbit",
        description="exact verification toolkit for Hecke symmetries, "
                    "reflection equation algebras and braided orbits")
    parser.add_argument("--out", help="write the structured report to this path")
    parser.add_argument("--timing", action="store_true",
                        help="include elapsed_ms in the structured report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-r", help="validate a braiding")
    _add_symmetry_args(p)
    p.set_defaults(func=_cmd_check_r)

    p = sub.add_parser("birank", help="detect the bi-rank from the Poincare series")
    _add_symmetry_args(p)
    p.add_argument("--depth", type=int, default=0)
    p.set_defaults(func=_cmd_birank)

    p = sub.add_parser("ch", help="Cayley-Hamilton coefficients and verification")
    _add_symmetry_args(p)
    p.add_argument("--cm", type=int, required=True, help="even degree m")
    p.add_argument("--cn", type=int, required=True, help="odd degree n")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_ch)

    p = sub.add_parser("param", help="quantum dimensions and parametrized values")
    p.add_argument("--mu", default="")
    p.add_argument("--nu", default="")
    p.add_argument("--q", default="q")
    p.add_argument("--h", default=None)
    p.add_argument("--kmax", type=int, default=4)
    p.set_defaults(func=_cmd_param)

    p = sub.add_parser("orbit", help="regularity verdict and Hankel data")
    _add_symmetry_args(p)
    p.add_argument("--mu", default="")
    p.add_argument("--nu", default="")
    p.add_argument("--h", default=None)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=7)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("cotangent", help="cotangent idempotent certificates")
    _add_symmetry_args(p)
    p.add_argument("--mu", default="")
    p.add_argument("--nu", default="")
    p.set_defaults(func=_cmd_cotangent)

    p = sub.add_parser("koszul", help="projector calculus checks")
    _add_symmetry_args(p)
    p.add_argument("--check", default="all",
                   choices=["projectors", "conjecture1", "p2-action", "dsquared", "all"])
    p.add_argument("--k", type=int, default=3)
    p.set_defaults(func=_cmd_koszul)

    p = sub.add_parser("mrea", help="shifted-algebra pipeline")
    _add_symmetry_args(p)
    p.add_argument("--mu", default="")
    p.add_argument("--nu", default="")
    p.add_argument("--h", default="h")
    p.set_defaults(func=_cmd_mrea)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        report = args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except EngineError as exc:
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    report.emit(args.out, args.timing)
    return 1 if report.failed() else 0


if __name__ == "__main__":
    sys.exit(main())
