"""Seeded job lists of the three workloads, and the calls that run each job.

A job is data: a kind, parameters made of strings, integers and tuples, and
the verdict expected of it.  `run_job` builds every object from the
parameters, so jobs share no objects and the program sees only the generated
inputs.  Each kind returns `(verdict, output)`: the verdict is compared with
the job's expectation, and the output text is what the run digests so that
two commits can be compared byte for byte.
"""

import contextlib
import io
import random
import re
from collections import namedtuple
from fractions import Fraction

from braidorbit import cli, hecke, koszul, orbit, rea, symfun
from braidorbit.scalar import Scalar, SymbolTable, parse_scalar, qnumber
from braidorbit.symfun import EigenvalueProfile, GenPoly

Job = namedtuple("Job", "kind params expect")

# Rationals of similar height, so that the cost of a job barely depends on
# which one the seed picks.
Q_POOL = ("7/5", "9/7", "11/9", "13/11", "8/5", "11/7", "13/9", "12/7")
VALUE_POOL = ("2/3", "3/5", "5/7", "-4/3", "-7/5", "9/4", "-5/2", "7/3")
SHIFT_POOL = ("+ 2/5", "- 3/7", "+ 4/3", "- 5/4", "+ 6/7", "- 2/9")

_SYMBOL_RE = re.compile(r"\b(?:q|h|mu\d+|nu\d+)\b")
BUILTINS = ("flip", "superflip", "dj_gl", "q_super")


# ---------------------------------------------------------------------------
# building inputs from parameters
# ---------------------------------------------------------------------------


def _table(*texts):
    """Symbol table of the names used in scalar texts: q, h, mu_i, nu_j."""
    names = {n for t in texts if t for n in _SYMBOL_RE.findall(t)}
    order = {"q": (0, 0), "h": (1, 0)}
    return SymbolTable(sorted(names, key=lambda n: order.get(n) or (
        2 if n.startswith("mu") else 3, int(n[2:]))))


def _symmetry(sym, table):
    kind, a, b, q = sym
    qs = parse_scalar(q, table)
    if kind in ("flip", "dj_gl"):
        return hecke.build_builtin(kind, N=a, q=qs, table=table)
    return hecke.build_builtin(kind, m=a, n=b, q=qs, table=table)


def _profile(prof, table):
    mus, nus, q, h = prof
    return EigenvalueProfile([parse_scalar(t, table) for t in mus],
                             [parse_scalar(t, table) for t in nus],
                             parse_scalar(q, table), parse_scalar(h, table) if h else None)


def _profile_texts(prof):
    mus, nus, q, h = prof
    return (*mus, *nus, q, h)


def _new_profile(prof):
    return _profile(prof, _table(*_profile_texts(prof)))


def _known_birank(sym):
    """The (m|n) a builtin is constructed with."""
    kind, a, b, _ = sym
    return (a, 0) if kind in ("flip", "dj_gl") else (a, b)


# ---------------------------------------------------------------------------
# job kinds: symbolic-profile calculus
# ---------------------------------------------------------------------------


def quantum_dims(prof):
    """Weights of the profile; they must sum to the super-dimension
    q^(n-m) [m-n]_q whatever the eigenvalues are."""
    p = _new_profile(prof)
    dims = symfun.quantum_dims(p)
    weights = dims.d + dims.dprime
    total = sum(weights, Scalar.zero(p.table))
    k = p.m - p.n
    if k == 0:
        expected = Scalar.zero(p.table)
    else:
        expected = p.q ** (p.n - p.m) * (qnumber(k, p.q) if k > 0 else -qnumber(-k, p.q))
    return total == expected, " ".join(map(str, weights))


def power_sums(prof, top, point):
    """p_1..p_top, checked at a rational point and against the a-values.

    The point check evaluates the symbolic power sums and recomputes them on
    the numeric profile, so gcd or division errors in the symbolic route show.
    """
    p = _new_profile(prof)
    ps = [symfun.power_sum_param(k, p) for k in range(1, top + 1)]
    avals = symfun.a_values_param(p, top)
    newton = symfun.newton_a_from_p(ps, p.q, Scalar.one(p.table))
    binding = {name: Fraction(v) for name, v in point}
    numeric = EigenvalueProfile([x.substitute(binding) for x in p.mus],
                                [x.substitute(binding) for x in p.nus],
                                p.q.substitute(binding), p.h.substitute(binding))
    point_ok = [x.substitute(binding) for x in ps] == [
        symfun.power_sum_param(k, numeric) for k in range(1, top + 1)]
    return (avals[1:] == newton, point_ok), " ".join(map(str, ps))


def vieta(prof):
    results = symfun.vieta_checks(_new_profile(prof))
    return all(ok for _, ok in results), str(results)


def regularity(prof):
    """Regular profiles must have det H equal to its factorized target
    (checked for h = 0); exceptional ones report their first violation."""
    p = _new_profile(prof)
    verdict = orbit.regularity(p, with_det=True)
    if not verdict.regular:
        return (False, tuple(verdict.violated[0])), str(verdict.violated)
    det = verdict.det_hankel
    det_ok = not det.is_zero() and (p.is_mrea or det == orbit.hankel_det_target(p))
    return (True, det_ok), str(det)


def higher_power_reduction(prof, top):
    p = _new_profile(prof)
    values = orbit.higher_power_reduction(p, top)
    return len(values), " ".join(map(str, values))


def hankel_det_check(m, n, strategy, seed, trials):
    return orbit.hankel_det_check(m, n, strategy, seed=seed, trials=trials), ""


def ch_coefficients(m, n, prof):
    """Cayley-Hamilton coefficients at symbolic q, specialized to the
    numeric profile `prof` and checked by the power-sum recurrence there."""
    table = SymbolTable(["q"])
    coeffs = symfun.ch_coefficients(m, n, Scalar.from_symbol(table, "q"))
    numeric = _profile(prof, table)
    q0 = {"q": numeric.q.as_fraction()}
    values = [symfun.eval_symexpr(
        GenPoly(table, {mono: c.substitute(q0) for mono, c in expr.terms.items()}),
        numeric) for expr in coeffs]
    checked = orbit.higher_power_reduction(numeric, m + n + 1, coeff_values=values)
    return len(checked), "; ".join(c.to_str("a") for c in coeffs)


# ---------------------------------------------------------------------------
# job kinds: R-matrix validation and projectors
# ---------------------------------------------------------------------------


def build_check(*syms):
    """Build (which validates) and check again every symmetry of `syms`."""
    verdict, out = True, []
    for sym in syms:
        hs = _symmetry(sym, _table(sym[3]))
        statuses = hecke.validation_report(hs)
        verdict = verdict and all(statuses.values())
        out.append(f"{statuses} {hs.c_op.trace()} {hs.b_op.trace()}")
    return verdict, "\n".join(out)


def projectors(sym):
    hs = _symmetry(sym, _table(sym[3]))
    ps = koszul.build_projectors(hs)
    ok2, rep2 = koszul.conjecture1_check(2, hs, ps)
    ok3, rep3 = koszul.conjecture1_check(3, hs, ps)
    rows = koszul.p2_action_identity(hs, ps)
    verdict = (ok2 and rep2["quotient_zero"], ok3 and rep3["quotient_zero"],
               all(ok for _, ok in rows))
    return verdict, f"{rep2} {rep3} {rows}"


# ---------------------------------------------------------------------------
# job kinds: graded quotient membership
# ---------------------------------------------------------------------------


def birank(sym, depth):
    rep = hecke.birank(_symmetry(sym, _table(sym[3])), depth)
    return (rep.m, rep.n), (f"{rep.minus_series} {rep.plus_series} "
                            f"{[str(c) for c in rep.numerator]} "
                            f"{[str(c) for c in rep.denominator]}")


def ch_verify(sym, m, n):
    ok, report = rea.ch_verify(_symmetry(sym, _table(sym[3])), m, n)
    return ok, f"{report['entries']} {report['degree']} {report['failures']}"


def centrality(sym, k):
    hs = _symmetry(sym, _table(sym[3]))
    rs = rea.relation_space(hs, "minus")
    return rea.centrality_check(k, hs, rs), str(rs.dim)


def cotangent(sym, prof):
    table = _table(sym[3], *_profile_texts(prof))
    data = orbit.cotangent(_symmetry(sym, table), _profile(prof, table))
    c = data.certificates
    return (c["entrywise"], c["complement_idempotent"]), str(sorted(c.items()))


def nc_orbit(sym, prof):
    # at q = 1 the pipeline takes its limit through a symbol q in the table
    table = _table("q", sym[3], *_profile_texts(prof))
    quotient, data = orbit.nc_orbit(_symmetry(sym, table), _profile(prof, table))
    c = data.certificates
    return (quotient.mode, c["entrywise"]), str(sorted(c.items()))


def run_cli(*argv):
    """One README command line through `cli.main`, stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


KINDS = {f.__name__: f for f in (
    quantum_dims, power_sums, vieta, regularity, higher_power_reduction,
    hankel_det_check, ch_coefficients, build_check, projectors, birank,
    ch_verify, centrality, cotangent, nc_orbit, run_cli)}


def run_job(job):
    return KINDS[job.kind](*job.params)


# ---------------------------------------------------------------------------
# seeded generation
# ---------------------------------------------------------------------------

README_LINES = {
    "symbolic": ("param --mu mu1,mu2 --nu nu1 --q q",
                 "orbit --builtin dj_gl --N 2 --q 7/5 --mu 1,2"),
    "tensor": ("check-r --builtin dj_gl --N 3 --q 7/5",
               "koszul --builtin flip --N 2 --check conjecture1 --k 3"),
    "quotient": ("birank --builtin superflip --m 1 --n 1",
                 "ch --builtin dj_gl --N 2 --q 7/5 --cm 2 --cn 0 --verify",
                 "cotangent --builtin dj_gl --N 2 --q 7/5 --mu 1,2",
                 "mrea --builtin dj_gl --N 2 --q 7/5 --mu 1,2 --h h"),
}


def _cli_jobs(workload):
    return [Job("run_cli", tuple(line.split()), 0) for line in README_LINES[workload]]


def _eigenvalues(rng, m, n, shifted):
    """Eigenvalue texts: bare symbols but for one, which the seed picks.

    That one is a rational, which keeps the profile on the factored route,
    or with `shifted` a symbol moved by a rational, which takes it off.
    """
    names = [f"mu{i}" for i in range(1, m + 1)] + [f"nu{j}" for j in range(1, n + 1)]
    texts = list(names)
    i = rng.randrange(len(names))
    if shifted:
        texts[i] = f"{names[i]} {rng.choice(SHIFT_POOL)}"
    elif len(names) > 1:
        texts[i] = rng.choice(VALUE_POOL)
    return tuple(texts[:m]), tuple(texts[m:])


def _point(rng, prof):
    """A rational binding for every symbol of the profile."""
    names = _table(*_profile_texts(prof)).names
    values = rng.sample(range(3, 200), 2 * len(names))
    return tuple((name, f"{values[2 * i]}/{values[2 * i + 1]}")
                 for i, name in enumerate(names))


SHAPES = [(m, s - m) for s in (1, 2, 3) for m in range(s, -1, -1)]


def symbolic_jobs(rng):
    jobs = []
    for m, n in SHAPES:
        size = m + n
        for h in (None, "h"):
            # Shifted eigenvalues at size 3 sit on a cliff with h, and cost
            # seconds without it; they are exercised at size <= 2.
            for shifted in ((False, True) if size <= 2 else (False,)):
                mus, nus = _eigenvalues(rng, m, n, shifted)
                prof = (mus, nus, "q", h)
                jobs.append(Job("quantum_dims", (prof,), True))
                jobs.append(Job("power_sums", (prof, size, _point(rng, prof)), (True, True)))
                if h is None:
                    jobs.append(Job("vieta", (prof,), True))
                jobs.append(Job("regularity", (prof,), (True, True)))
                if h is None or size <= 2:
                    jobs.append(Job("higher_power_reduction", (prof, size + 2), 2))
        jobs.append(Job("hankel_det_check", (m, n, "symbolic", 0, 0), True))
    # exceptional profile: mu1 = q^2 mu2 violates the even-even condition
    jobs.append(Job("regularity", ((("q^2*mu2", "mu2"), (), "q", None),),
                    (False, ("even-even", 1, 2))))
    for m in range(5):
        for n in range(4):
            if m + n:
                values = rng.sample(VALUE_POOL, m + n)
                prof = (tuple(values[:m]), tuple(values[m:]), rng.choice(Q_POOL), None)
                jobs.append(Job("ch_coefficients", (m, n, prof), 1))
    seed = rng.randrange(10 ** 6)
    jobs.append(Job("hankel_det_check", (3, 2, "sampled", seed, 7), True))
    jobs.append(Job("hankel_det_check", (4, 3, "sampled", seed, 3), True))
    # acceptance criteria 5, 6 and 9 with their own inputs
    jobs.append(Job("hankel_det_check", (3, 2, "sampled", 42, 7), True))
    jobs.append(Job("vieta", ((("mu1", "mu2", "mu3"), ("nu1", "nu2"), "q", None),), True))
    for m, n in ((2, 0), (1, 1), (2, 1)):
        prof = (tuple(f"mu{i}" for i in range(1, m + 1)),
                tuple(f"nu{j}" for j in range(1, n + 1)), "q", None)
        jobs.append(Job("higher_power_reduction", (prof, m + n + 2), 2))
    return jobs + _cli_jobs("symbolic")


CRITERION1 = ([("flip", N, 0, "1") for N in (2, 3, 4)]
              + [("superflip", m, n, "1") for m, n in ((1, 1), (2, 1), (1, 2),
                                                       (2, 2), (3, 1), (1, 3))]
              + [("dj_gl", N, 0, "7/5") for N in (1, 2, 3)]
              + [("q_super", 1, 1, "9/7"), ("q_super", 2, 1, "9/7")])
CRITERION7 = [("flip", 2, 0, "1"), ("dj_gl", 2, 0, "7/5"), ("dj_gl", 3, 0, "5/3"),
              ("q_super", 1, 1, "9/7")]


def tensor_jobs(rng):
    syms = [("dj_gl", N, 0, rng.choice(Q_POOL)) for N in range(2, 7)]
    syms += [("q_super", m, n, rng.choice(Q_POOL))
             for m, n in ((1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3))]
    syms += [("dj_gl", 3, 0, "q"), ("q_super", 2, 1, "q")]
    jobs = [Job("build_check", (sym,), True) for sym in syms]
    n2 = [("flip", 2, 0, "1"), ("superflip", 1, 1, "1"),
          ("dj_gl", 2, 0, rng.choice(Q_POOL)), ("q_super", 1, 1, rng.choice(Q_POOL))]
    jobs += [Job("projectors", (sym,), (True, True, True)) for sym in n2]
    # acceptance criteria 1 (one verdict on all builtins) and 7, with their own inputs
    jobs.append(Job("build_check", tuple(CRITERION1), True))
    jobs += [Job("projectors", (sym,), (True, True, True)) for sym in CRITERION7]
    return jobs + _cli_jobs("tensor")


def _mu_pair(rng, q):
    """Two distinct integer eigenvalues with neither q^2 times the other."""
    q2 = Fraction(q) ** 2
    while True:
        a, b = rng.sample(range(1, 7), 2)
        if a != q2 * b and b != q2 * a:
            return (str(a), str(b))


def quotient_jobs(rng):
    # dj_gl(2) keeps the q of the README lines, which share it; the cost of its
    # cotangent jobs depends on q, and they sit at the 11th slowest job
    qa, qb = "7/5", rng.choice(Q_POOL)
    dj2 = ("dj_gl", 2, 0, qa)
    qs11 = ("q_super", 1, 1, qb)
    flip2 = ("flip", 2, 0, "1")
    sf11 = ("superflip", 1, 1, "1")
    criterion2 = ([("flip", N, 0, "1") for N in (2, 3, 4)]
                  + [("superflip", m, n, "1") for m, n in ((1, 1), (2, 1), (1, 2),
                                                           (2, 2), (3, 1), (1, 3))]
                  + [("dj_gl", 1, 0, rng.choice(Q_POOL)), dj2,
                     ("dj_gl", 3, 0, rng.choice(Q_POOL)),
                     qs11, ("q_super", 2, 1, rng.choice(Q_POOL))])
    jobs = [Job("birank", (sym, sum(_known_birank(sym)) + 3), _known_birank(sym))
            for sym in criterion2]
    # more seeded deformations, so that job times are dense around the median
    for kind, m, n in (("dj_gl", 3, 0), ("q_super", 2, 1), ("q_super", 1, 2),
                       ("q_super", 1, 2)):
        jobs.append(Job("birank", ((kind, m, n, rng.choice(Q_POOL)), m + n + 3), (m, n)))
    # symbolic q
    dj2q, qs11q = ("dj_gl", 2, 0, "q"), ("q_super", 1, 1, "q")
    jobs.append(Job("birank", (("dj_gl", 3, 0, "q"), 6), (3, 0)))
    jobs.append(Job("ch_verify", (dj2q, 2, 0), True))
    jobs.append(Job("ch_verify", (qs11q, 1, 1), True))
    jobs.append(Job("centrality", (dj2q, 2), True))
    for _ in range(2):
        a, b = rng.sample(range(1, 7), 2)
        jobs.append(Job("cotangent", (qs11q, ((str(a),), (str(b),), "q", None)), (True, True)))
    # criteria 3 and 4, and the same reductions at depth m+n+2 as ch_verify
    # runs them, on the symmetries that the other jobs share
    for sym in (dj2, qs11, flip2, sf11):
        jobs.append(Job("ch_verify", (sym, *_known_birank(sym)), True))
        jobs += [Job("centrality", (sym, k), True) for k in (1, 2)]
    for sym in (dj2, qs11):
        jobs.append(Job("centrality", (sym, 3), True))
        jobs.append(Job("birank", (sym, sum(_known_birank(sym)) + 2), _known_birank(sym)))
    # criteria 8 and 10 on seeded eigenvalues
    # at q = 1 the shifted orbit is exceptional when two eigenvalues differ by h
    c = rng.randrange(2, 9)
    d = c + rng.randrange(2, 6)
    jobs.append(Job("cotangent", (("dj_gl", 1, 0, "q"), ((f"{c}*q",), (), "q", None)),
                    (True, True)))
    for sym, q in ((flip2, "1"), (flip2, "1")) + ((dj2, qa),) * 4:
        jobs.append(Job("cotangent", (sym, (_mu_pair(rng, q), (), q, None)), (True, True)))
    for sym, q in ((sf11, "1"), (qs11, qb)):
        a, b = _mu_pair(rng, q)
        jobs.append(Job("cotangent", (sym, ((a,), (b,), q, None)), (True, True)))
    jobs.append(Job("nc_orbit", (flip2, (("0", f"{c}*h"), (), "1", "h")),
                    ("nc-classical", True)))
    jobs.append(Job("nc_orbit", (flip2, ((f"{c}*h", f"{d}*h"), (), "1", "h")),
                    ("nc-classical", True)))
    for mu, nu in (("0", f"{c}*h"), ("0", f"{d}*h"), (f"{c}*h", f"{d}*h")):
        jobs.append(Job("nc_orbit", (sf11, ((mu,), (nu,), "1", "h")), ("nc-classical", True)))
    return jobs + _cli_jobs("quotient")


WORKLOADS = {"symbolic": symbolic_jobs, "tensor": tensor_jobs, "quotient": quotient_jobs}


def generate(workload, seed):
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def describe(jobs):
    """Input properties: job count, symbols named per job, and the share of
    jobs with a symmetry that another job also uses."""
    symbols = {}
    users = {}
    for job in jobs:
        if job.kind == "run_cli":
            continue
        count = len(set(_SYMBOL_RE.findall(repr(job.params))))
        symbols[count] = symbols.get(count, 0) + 1
        for p in job.params:
            if isinstance(p, tuple) and len(p) == 4 and p[0] in BUILTINS:
                users.setdefault(p, set()).add(id(job))
    shared = set().union(*(u for u in users.values() if len(u) > 1))
    return {"jobs": len(jobs),
            "symbols_per_job": {str(k): symbols[k] for k in sorted(symbols)},
            "shared_symmetry_share": round(len(shared) / len(jobs), 4)}
