"""Command-line front end.

Subcommands
-----------
verify   run a named invariant suite (or all of them), JSON report
lb       radial solution tables on the polar chart, CSV or JSON
roots    root-system listings and plot-ready projections
em       decompose a polynomial potential into scalar/E/B parts, JSON
evolve   trajectory of a random state under a random generator, CSV

Identical invocations produce byte-identical output: every random draw is
keyed by --seed, floats are rendered with repr-faithful precision, and JSON
keys are sorted.  Exit codes: 0 success, 1 check failure, 2 usage error,
3 domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

import numpy as np

from . import dynamics, emfield, roots as roots_mod, s4lb
from .errors import QflagError, UsageError
from .quaternion import sq_norms
from .quatmat import random_skew_adjoint
from .verify import SCHEMA_VERSION, RunConfig, SUITES, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

# Largest ``qflag verify --trials``: the count replaces every check's own draw
# count, and the batched checks hold all their draws at once, so memory grows
# with it.  ``verify all`` at this ceiling peaks at 54 MB RSS in the calling
# process and 36 MB in its forked child, in about 1.3 s on a 2-vCPU x86-64
# machine (66 and 44 MB in about 2.5 s at 2000; 44 and 31 MB at the default
# counts, where the S^3 sampling check streams its 10^6 points in blocks).
MAX_VERIFY_TRIALS = 1000
# Largest rank ``qflag roots`` lists: 2 n^2 roots of n entries each, so the
# JSON listing grows as n^3 (about 5 MB at this ceiling).
MAX_ROOTS_RANK = 64
# Largest ``qflag evolve`` state size and row count; rows are evolved in
# blocks of EVOLVE_BLOCK_ELEMENTS // n^2, one batched exponential each.  At
# both ceilings a table takes 20-30 s and 42.5 MB peak RSS on a 2-vCPU x86-64
# machine (41.8 MB row by row; 70 MB in blocks of 2^16, as @ expands 16-fold).
MAX_EVOLVE_N = 64
MAX_EVOLVE_STEPS = 1000
EVOLVE_BLOCK_ELEMENTS = 2 ** 13
# Largest ``qflag evolve`` horizon |t|: the relative norm drift of a state of
# size 64 is 2.2e-10 at t = 1e4, 3.7e-9 at 1e6 and 5.8e-3 at 1e12.
MAX_EVOLVE_T = 1e4
# Largest ``qflag lb --samples``: each grid point is one scalar solution and
# residual evaluation, so the time grows linearly with the count.  A table at
# this ceiling takes about 0.35 s beyond start-up and 33 MB peak RSS on a
# 2-vCPU x86-64 machine (2 s and 69 MB at 10^5).
MAX_LB_SAMPLES = 10_000
# Largest ``qflag lb`` max_scaled_residual that passes as a solution of the
# radial equation.  Over every allowed N on the default 200-point grid the
# worst residual is 9.8e-11 up to l = 8, 3.8e-9 up to l = 10 and 3.2e-7 up to
# l = 12; it first passes 1e-6 at l = 13, N = 12 and reaches 0.14 at
# l = N = 20.  At N = 0 it stays below 1e-15 up to l = 30.
MAX_LB_SCALED_RESIDUAL = 1e-6
# ``Fraction`` turns a decimal exponent into the integer 10**exp before any
# check can run: ``--ell 1e9999999`` takes 12 s to parse.  An ``--ell``
# exponent of five or more digits is a usage error; every |l| from 1e4 up
# overflows the coefficients anyway.
_LONG_ELL_EXPONENT = re.compile(r"[eE][-+]?[0_]*[1-9](_?\d){4}")
# Largest degree ``qflag em`` multiplies out, checked on each exponent and each
# product before it is formed: a degree-d polynomial in x0..x3 has up to
# C(d + 4, 4) terms.  Four dense components at this ceiling take 0.7-0.8 s and
# 82 MB peak RSS on a 2-vCPU x86-64 machine (1.5-1.9 s and 144 MB at degree 20).
MAX_EM_DEGREE = 16
# Deepest ``qflag em`` nesting, counting each open parenthesis and each unary
# minus sign, checked before the parser recurses into the level.  A level
# takes the parser up to four stack frames; Python's default stack overflows
# at about 245 parenthesis levels.
MAX_EM_NESTING = 100


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _require_seed(seed: int) -> None:
    if seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {seed}")


def _require_range(flag: str, value, lo, hi) -> None:
    """Refuse a flag value outside ``lo`` to ``hi`` (NaN included).  The
    bounds print with ``:g``, which writes integers below 10^6, as every
    ceiling here is, as their plain digits."""
    if not lo <= value <= hi:
        raise UsageError(f"{flag} must be {lo:g} to {hi:g}, got {value}")


def _require_out_path(out_path) -> None:
    """Refuse an ``--out`` path that cannot be written, before any work."""
    if out_path is None:
        return
    if not out_path:
        raise UsageError("--out must name a file, got an empty path")
    folder = os.path.dirname(os.path.abspath(out_path))
    if not os.path.isdir(folder):
        raise UsageError(f"--out {out_path}: no directory {folder}")
    if os.path.isdir(out_path) or not os.access(folder, os.W_OK):
        raise UsageError(f"--out {out_path}: not a writable file path")


def _emit(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:   # the checks above cannot see a full disk
            raise UsageError(f"--out {out_path}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _json_doc(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _parse_tol(entries) -> dict:
    out = {}
    for entry in entries or ():
        key, _, val = entry.partition("=")
        try:
            out[key] = float(val)
        except ValueError:
            raise UsageError(f"--tol expects KEY=NUMBER, got {entry!r}") from None
        if not 0.0 < out[key] < math.inf:
            raise UsageError(f"--tol {key}: a tolerance must be a positive "
                             f"finite number, got {val}")
    return out


def _parse_ell(text: str) -> Fraction:
    """``--ell`` as an exact number; whether it is a half-integer is
    :func:`s4lb.make_gl`'s rule."""
    if _LONG_ELL_EXPONENT.search(text):
        raise UsageError(f"--ell exponents have at most 4 digits, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"--ell expects a number such as 1 or 3/2, "
                         f"got {text!r}") from exc


# -- subcommands -----------------------------------------------------------------


def cmd_verify(args) -> int:
    _require_range("--trials", args.trials, 0, MAX_VERIFY_TRIALS)
    _require_seed(args.seed)
    cfg = RunConfig(seed=args.seed, trials=args.trials,
                    tol_overrides=_parse_tol(args.tol))
    report = run_suite(args.suite, cfg)
    _emit(_json_doc(report), args.out)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILURE


def cmd_lb(args) -> int:
    ell = _parse_ell(args.ell)
    _require_range("--samples", args.samples, 1, MAX_LB_SAMPLES)
    if ell == 0 and args.big_n == 0:
        sol = s4lb.make_f0()
    else:
        sol = s4lb.make_gl(ell, args.big_n)
    lo, hi = s4lb.POLE_MARGIN, float(np.pi) - s4lb.POLE_MARGIN
    grid = np.linspace(lo + 1e-9, hi - 1e-9, args.samples)
    rows = [(w, sol.value(w), s4lb.lb_radial_residual_scaled(sol, w))
            for w in grid]
    worst = max(abs(r[2]) for r in rows)
    metadata = {
        "spec_version": SCHEMA_VERSION,
        "kind": sol.kind,
        "ell": str(sol.ell),
        "N": sol.big_n,
        "theta": sol.theta if sol.theta_sq >= 0 else None,
        "theta_squared": sol.theta_sq,
        "coefficients": list(sol.coeffs),
        "integrable": sol.integrable,
        "samples": args.samples,
        "max_scaled_residual": worst,
    }
    if args.format == "json":
        metadata["table"] = [[row[0], row[1], row[2]] for row in rows]
        _emit(_json_doc(metadata), args.out)
    else:
        lines = ["omega,value,residual_scaled"]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        _emit("\n".join(lines) + "\n", args.out)
        if args.out:
            sys.stdout.write(_json_doc(metadata))
    if not worst <= MAX_LB_SCALED_RESIDUAL:
        print(f"check failed: max_scaled_residual {worst:.3g} is above "
              f"{MAX_LB_SCALED_RESIDUAL:g}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    return EXIT_OK


def cmd_roots(args) -> int:
    _require_range("rank", args.n, 1, MAX_ROOTS_RANK)
    system = roots_mod.generate(args.n)
    if args.format == "csv":
        dims = args.projection
        coords = roots_mod.projection(system, dims)
        header = ",".join(f"c{i}" for i in range(dims))
        lines = [header] + [",".join(str(v) for v in row) for row in coords]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        doc = {
            "spec_version": SCHEMA_VERSION,
            "n": system.n,
            "count": len(system.roots),
            "roots": [list(r) for r in system.roots],
        }
        _emit(_json_doc(doc), args.out)
    return EXIT_OK


def _poly_terms(poly: emfield.RealPoly):
    return [{"coefficient": str(c), "exponents": list(e)}
            for e, c in sorted((emfield.exponents(m), c)
                               for m, c in poly.terms.items())]


def cmd_em(args) -> int:
    psi = parse_field_spec(args.component)
    dec = emfield.decompose(psi)
    doc = {
        "spec_version": SCHEMA_VERSION,
        "potential": {f"A{i}": _poly_terms(p)
                      for i, p in enumerate(psi.components)},
        "scalar": _poly_terms(dec.scalar),
        "electric": [_poly_terms(p) for p in dec.electric],
        "magnetic": [_poly_terms(p) for p in dec.magnetic],
        "display": {
            "scalar": repr(dec.scalar),
            "electric": [repr(p) for p in dec.electric],
            "magnetic": [repr(p) for p in dec.magnetic],
        },
    }
    _emit(_json_doc(doc), args.out)
    return EXIT_OK


def cmd_evolve(args) -> int:
    _require_range("--steps", args.steps, 0, MAX_EVOLVE_STEPS)
    _require_range("--n", args.n, 1, MAX_EVOLVE_N)
    _require_range("--t-max", args.t_max, -MAX_EVOLVE_T, MAX_EVOLVE_T)
    _require_range("--split", args.split, 0, args.n)
    _require_seed(args.seed)
    rng = np.random.default_rng(args.seed)
    gen = random_skew_adjoint(rng, args.n)
    psi = dynamics.random_state(rng, args.n, args.split)
    header = (["t", "norm_sq"]
              + [f"component{i}_norm" for i in range(args.n)]
              + ["exchange_in_norm", "exchange_out_norm"])
    lines = [",".join(header)]
    times = np.linspace(0.0, args.t_max, args.steps)
    block = max(1, EVOLVE_BLOCK_ELEMENTS // args.n ** 2)
    for start in range(0, args.steps, block):
        t = times[start:start + block]
        state = dynamics.evolve(gen, psi, t)
        split = dynamics.transition_split(gen, state)
        table = np.column_stack(
            [t, state.norm_sq(), np.sqrt(sq_norms(state.a)),
             np.sqrt(dynamics.column_norm_sq(split.exchange_in)),
             np.sqrt(dynamics.column_norm_sq(split.exchange_out))])
        lines.extend(",".join(_fmt(v) for v in row) for row in table)
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# -- tiny polynomial grammar for the em command -------------------------------------
#
#   expr   := term (('+' | '-') term)*
#   term   := factor ('*' factor)*
#   factor := atom ('^' integer)?
#   atom   := number | 'x0'..'x3' | '(' expr ')' | '-' atom


class _SpecError(UsageError):
    """An ``em`` argument that does not parse: a usage error (exit 2)."""


# One token after optional whitespace: "**" (read as "^"), an operator, a
# variable or a number; any other character is an error.
_TOKEN = re.compile(r"\s*(?:(\*\*)|([-+*()^]|x[0-3]|\d[\d./]*)|(\S))")


def _tokenize(text: str):
    tokens = []
    for power, token, other in _TOKEN.findall(text):
        if other:
            raise _SpecError(f"unexpected character {other!r} in polynomial")
        tokens.append("^" if power else token)
    return tokens


def _require_em_degree(degree: int, what: str) -> None:
    if degree > MAX_EM_DEGREE:
        raise UsageError(f"{what} of degree {degree} is above {MAX_EM_DEGREE}, "
                         f"the largest degree em multiplies out")


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self) -> emfield.RealPoly:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self) -> emfield.RealPoly:
        node = self.factor()
        while self.peek() == "*":
            self.take()
            rhs = self.factor()
            _require_em_degree(node.degree() + rhs.degree(), "a product")
            node = node * rhs
        return node

    def factor(self) -> emfield.RealPoly:
        node = self.atom()
        if self.peek() == "^":
            self.take()
            power_tok = self.take()
            if power_tok is None or not power_tok.isdigit():
                raise _SpecError("exponent must be a nonnegative integer")
            # the digit count first: int() refuses very long digit strings
            if (len(power_tok) > len(str(MAX_EM_DEGREE))
                    or int(power_tok) > MAX_EM_DEGREE):
                raise UsageError(f"exponent above {MAX_EM_DEGREE}, the largest "
                                 f"degree em multiplies out")
            power = int(power_tok)
            _require_em_degree(node.degree() * power, "a power")
            out = emfield.RealPoly.constant(1)
            for _ in range(power):
                out = out * node
            return out
        return node

    def atom(self) -> emfield.RealPoly:
        tok = self.take()
        if tok is None:
            raise _SpecError("unexpected end of polynomial")
        if tok in ("-", "("):
            self.depth += 1
            if self.depth > MAX_EM_NESTING:
                raise UsageError(f"nesting above {MAX_EM_NESTING} levels of "
                                 f"parentheses and signs")
            if tok == "-":
                node = -self.atom()
            else:
                node = self.expr()
                if self.take() != ")":
                    raise _SpecError("missing closing parenthesis")
            self.depth -= 1
            return node
        if tok.startswith("x"):
            return emfield.RealPoly.x(int(tok[1]))
        try:
            return emfield.RealPoly.constant(Fraction(tok))
        except (ValueError, ZeroDivisionError) as exc:
            raise _SpecError(f"bad token {tok!r} in polynomial") from exc


def parse_polynomial(text: str) -> emfield.RealPoly:
    parser = _Parser(_tokenize(text))
    poly = parser.expr()
    if parser.peek() is not None:
        raise _SpecError(f"trailing input {parser.peek()!r}")
    return poly


def parse_field_spec(assignments) -> emfield.QPolyField:
    """Assignments like ``A1=x1`` or ``A0=x0*x3 - 2*x1^2``."""
    comps = [emfield.RealPoly() for _ in range(4)]
    for text in assignments:
        if "=" not in text:
            raise _SpecError(f"expected COMPONENT=POLYNOMIAL, got {text!r}")
        name, body = text.split("=", 1)
        name = name.strip()
        if name not in ("A0", "A1", "A2", "A3"):
            raise _SpecError(f"component must be A0..A3, got {name!r}")
        comps[int(name[1])] = comps[int(name[1])] + parse_polynomial(body)
    return emfield.QPolyField(tuple(comps))


# -- argument wiring -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qflag",
        description="verification suites and tables for quaternionic "
                    "flag-manifold geometry")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run an invariant suite")
    p_verify.add_argument("suite", choices=["all"] + sorted(SUITES))
    p_verify.add_argument("--seed", type=int, default=0,
                          help="non-negative integer keying every draw")
    p_verify.add_argument("--trials", type=int, default=0,
                          help=f"override per-check draw counts, 1 to "
                               f"{MAX_VERIFY_TRIALS} (0 = defaults)")
    p_verify.add_argument("--tol", action="append", metavar="KEY=VAL",
                          help="override a check tolerance by name; VAL is "
                               "a positive finite number")
    p_verify.set_defaults(func=cmd_verify)

    p_lb = sub.add_parser("lb", help="radial solution table")
    p_lb.add_argument("--ell", required=True,
                      help="integer or half-integer, e.g. 1 or 3/2")
    p_lb.add_argument("--big-n", type=int, default=0, dest="big_n",
                      help="termination index N")
    p_lb.add_argument("--samples", type=int, default=200,
                      help=f"grid points between the pole exclusion zones, "
                           f"1 to {MAX_LB_SAMPLES}")
    p_lb.add_argument("--format", choices=["csv", "json"], default="csv")
    p_lb.set_defaults(func=cmd_lb)

    p_roots = sub.add_parser("roots", help="root system listing")
    p_roots.add_argument("n", type=int,
                         help=f"rank, 1 to {MAX_ROOTS_RANK}")
    p_roots.add_argument("--projection", type=int, choices=[2, 3], default=2,
                         help="coordinates kept in the csv projection")
    p_roots.add_argument("--format", choices=["json", "csv"], default="json")
    p_roots.set_defaults(func=cmd_roots)

    p_em = sub.add_parser("em", help="scalar/E/B decomposition of a potential")
    p_em.add_argument("component", nargs="+",
                      help="assignments like A1=x1 (components A0..A3, "
                           "polynomials in x0..x3)")
    p_em.set_defaults(func=cmd_em)

    p_evolve = sub.add_parser("evolve", help="trajectory table")
    p_evolve.add_argument("--n", type=int, default=3,
                          help=f"state size, 1 to {MAX_EVOLVE_N}")
    p_evolve.add_argument("--split", type=int, default=1)
    p_evolve.add_argument("--seed", type=int, default=0,
                          help="non-negative integer keying the draws")
    p_evolve.add_argument("--t-max", type=float, default=10.0, dest="t_max",
                          help=f"horizon, -{MAX_EVOLVE_T:g} to "
                               f"{MAX_EVOLVE_T:g}")
    p_evolve.add_argument("--steps", type=int, default=100,
                          help=f"table rows, 0 to {MAX_EVOLVE_STEPS}")
    p_evolve.set_defaults(func=cmd_evolve)
    for p_command in sub.choices.values():     # each one's last option
        p_command.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _require_out_path(args.out)
        return args.func(args)
    except QflagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
