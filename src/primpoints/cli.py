"""Command-line front end: curve files, expression parsing, JSON reports.

Subcommands: curve-info, rr-basis, function-degree, contr, certify,
prospect, density, find-function.  Reports are JSON on stdout (or --output);
a short human summary goes to stderr.  Exit codes: 0 success, 1 invalid
input, 2 certificate verification failure, 3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .errors import (
    InvalidInput,
    PrimpointsError,
    SearchBudgetExhausted,
    VerificationFailure,
)
from .exactalg import RatPolynomial, factor_over_rationals
from .hypcurve import (
    INFINITY,
    KIND_INERT,
    KIND_RAMIFIED,
    KIND_SPLIT,
    CurveFunction,
    Divisor,
    HyperellipticCurve,
    Place,
    divisor_of,
    function_degree,
    places_over_x,
    pole_divisor,
    riemann_roch_basis,
)
from .contract import dimension_comparison_check, enumerate_contr0
from .numfield import is_primitive_field
from .prospect import density_experiment, find_primitive_function, prospect


# work budgets: inputs past these limits exit 1 before any work is done
# largest degree in x of a curve's h and of each ``^`` exponent, product and
# power in an expression, y counting deg h / 2
MAX_EXPONENT = 512
MAX_SWEEP = 100000  # largest --t-height and --samples
MAX_DIGITS = 4300  # longest integer literal (Python's default int() limit)
MAX_DIVISOR_DEGREE = 64  # largest sum of |m| * deg P over the terms of a divisor


class ParseError(InvalidInput):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ----------------------------------------------------------------------
# expression parser: sums of rational-coefficient monomials in x and y

_TOKEN_KINDS = {"+", "-", "*", "/", "^", "(", ")"}


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _TOKEN_KINDS:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j - i > MAX_DIGITS:
                raise ParseError(f"integer longer than {MAX_DIGITS} digits", i)
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if c in ("x", "y"):
            tokens.append(("name", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _ExprParser:
    """Recursive descent over +, -, *, /, ^ with exact rational constants.

    Division is restricted to constant divisors, which keeps every value a
    polynomial in x and y; y powers reduce through y^2 = h(x)."""

    def __init__(self, text, curve):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.curve = curve

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> CurveFunction:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.take()
            rhs = self.unary()
            if op == "*":
                if self.poles(value) + self.poles(rhs) > 2 * MAX_EXPONENT:
                    raise ParseError(f"degree in x above {MAX_EXPONENT}", pos)
                value = value * rhs
            else:
                if not rhs.is_constant():
                    raise ParseError("division only by nonzero constants", pos)
                c = rhs.constant_value()
                if c == 0:
                    raise ParseError("division by zero", pos)
                value = value * Fraction(1, 1) / c
        return value

    def unary(self):
        if self.peek()[0] == "-":
            self.take()
            return -self.unary()
        if self.peek()[0] == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            _, _, pos = self.take()
            tok = self.take()
            neg = False
            if tok[0] == "-":
                neg = True
                tok = self.take()
            if tok[0] != "num":
                raise ParseError("exponent must be an integer", tok[2])
            e = int(tok[1])
            if neg:
                raise ParseError("negative exponents are not supported", pos)
            if e > MAX_EXPONENT:
                raise ParseError(f"exponent above {MAX_EXPONENT}", tok[2])
            if e * self.poles(base) > 2 * MAX_EXPONENT:
                raise ParseError(f"degree in x above {MAX_EXPONENT}", pos)
            return base ** e
        return base

    def poles(self, f) -> int:
        """The pole order of f at infinity, twice its degree in x; pole
        orders add under products, so a product's is known beforehand."""
        return 0 if f.is_constant() else function_degree(self.curve, f)

    def atom(self):
        tok = self.take()
        kind, text, pos = tok
        if kind == "num":
            return CurveFunction(self.curve, RatPolynomial([int(text)]))
        if kind == "name":
            if text == "x":
                return self.curve.x
            return self.curve.y
        if kind == "(":
            value = self.expr()
            self.take(")")
            return value
        raise ParseError(f"unexpected token {text!r}", pos)


def parse_function_expr(text: str, curve: HyperellipticCurve) -> CurveFunction:
    """Exact (a, b) pair for an expression in x and y on the given curve."""
    f = _ExprParser(text, curve).parse()
    if not f.is_polynomial_form():
        raise InvalidInput("expression is not polynomial in x and y")
    return f


def parse_poly_expr(text: str) -> RatPolynomial:
    """Polynomial in x alone (y rejected)."""
    dummy = HyperellipticCurve(RatPolynomial([0, 1]))  # y^2 = x, genus 0
    if "y" in text:
        raise ParseError("y is not allowed here", text.index("y"))
    f = _ExprParser(text, dummy).parse()
    if not f.b.is_zero() or not f.is_polynomial_form():
        raise InvalidInput("expected a polynomial in x")
    return f.a


# ----------------------------------------------------------------------
# divisor mini-language: "4*inf", "place(u=x-2,v=3)+place(u=x+2)+2*inf"

def _split_top_level(text, sep="+"):
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _charge(size: int, amount: int) -> int:
    size += amount
    if size > MAX_DIVISOR_DEGREE:
        raise InvalidInput(f"divisor degree above {MAX_DIVISOR_DEGREE}")
    return size


def parse_divisor(text: str, curve: HyperellipticCurve) -> Divisor:
    """Parse the divisor mini-language; the sum of |m| * deg P over the
    terms may not exceed MAX_DIVISOR_DEGREE, checked before any u is
    factored."""
    entries = []
    size = 0
    for raw in _split_top_level(text.strip()):
        term = raw.strip()
        if not term:
            raise InvalidInput("empty divisor term")
        mult = 1
        if "*" in term:
            head, _, tail = term.partition("*")
            if tail.strip().startswith(("inf", "place")):
                try:
                    mult = int(head.strip())
                except ValueError as exc:
                    raise InvalidInput(f"bad multiplicity {head!r}") from exc
                term = tail.strip()
        if term == "inf":
            place = INFINITY
        elif term.startswith("place(") and term.endswith(")"):
            body = term[len("place("):-1]
            u_text = v_text = None
            for arg in _split_top_level(body, sep=","):
                key, _, val = arg.partition("=")
                key = key.strip()
                if key == "u":
                    u_text = val.strip()
                elif key == "v":
                    v_text = val.strip()
                else:
                    raise InvalidInput(f"unknown place argument {key!r}")
            if u_text is None:
                raise InvalidInput("place(...) needs u=")
            u = parse_poly_expr(u_text).monic()
            _charge(size, abs(mult) * u.degree)
            if not factor_over_rationals(u).is_irreducible():
                raise InvalidInput(f"u = {u} is reducible")
            if (curve.h % u).is_zero():
                if v_text not in (None, "0"):
                    raise InvalidInput(f"u = {u} is ramified; v must be omitted or 0")
                place = Place(KIND_RAMIFIED, u, None)
            elif v_text is not None:
                v = parse_poly_expr(v_text) % u
                if not ((v * v - curve.h) % u).is_zero():
                    raise InvalidInput(f"v = {v_text} does not satisfy v^2 = h mod u")
                place = Place(KIND_SPLIT, u, v)
            else:
                place = places_over_x(curve, u, check=False)[0]
                if place.kind != KIND_INERT:
                    raise InvalidInput(
                        f"u = {u} splits; specify v to pick one of the two places"
                    )
        else:
            raise InvalidInput(f"cannot parse divisor term {raw!r}")
        size = _charge(size, abs(mult) * place.degree)
        entries.append((place, mult))
    return Divisor(entries)


# ----------------------------------------------------------------------
# subcommands

def _load_curve(path) -> HyperellipticCurve:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not UTF-8, not JSON, or an int past 4300 digits
            raise InvalidInput(str(exc)) from exc
    if not isinstance(data, dict) or "h" not in data:
        raise InvalidInput("curve file must contain an 'h' array")
    h = RatPolynomial.from_json(data["h"])
    if h.degree > MAX_EXPONENT:
        raise InvalidInput(f"curve degree {h.degree} above {MAX_EXPONENT}")
    return HyperellipticCurve(h)


def _dumps(value, pad="\n") -> str:
    """The text of json.dumps(value, indent=2, sort_keys=True) for a tree of
    dicts with str keys, lists, tuples, str, int, bool and None; any other
    type, float included, raises TypeError.  pad is a newline and the indent
    of value's line.  Given an indent, json leaves its C encoder for a Python
    one that makes a call per value; here a list of strings is one join of
    strings quoted by json's C encoder, and a string or null in a dict takes
    no call of its own."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        parts = []
        for key in sorted(value):
            item = value[key]
            if isinstance(item, str):
                parts.append(_quote(key) + ": " + _quote(item))
            elif item is None:
                parts.append(_quote(key) + ": null")
            else:
                parts.append(_quote(key) + ": " + _dumps(item, inner))
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        try:  # a list of strings, as every polynomial is written
            body = ("," + inner).join(map(_quote, value))
        except TypeError:
            body = ("," + inner).join([_dumps(item, inner) for item in value])
        return "[" + inner + body + pad + "]"
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"cannot write a {type(value).__name__} into a report")


def _emit(report: dict, args, summary: str) -> None:
    text = _dumps(report)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(summary, file=sys.stderr)


def _cmd_curve_info(args):
    curve = _load_curve(args.curve)
    report = {
        "schema_version": 1,
        "h": curve.h.to_json(),
        "genus": curve.genus,
        "model": "imaginary",
    }
    _emit(report, args, f"genus {curve.genus} curve y^2 = {curve.h}")
    return 0


def _cmd_rr_basis(args):
    curve = _load_curve(args.curve)
    D = parse_divisor(args.divisor, curve)
    space = riemann_roch_basis(curve, D)
    report = {"schema_version": 1, **space.to_json()}
    _emit(report, args, f"dim L(D) = {space.dimension} for deg D = {D.degree}")
    return 0


def _cmd_function_degree(args):
    curve = _load_curve(args.curve)
    f = parse_function_expr(args.function, curve)
    d = function_degree(curve, f)
    report = {
        "schema_version": 1,
        "function": f.to_json(),
        "degree": d,
        "pole_divisor": pole_divisor(curve, f).to_json(),
        "divisor": divisor_of(curve, f).to_json(),
    }
    _emit(report, args, f"degree {d}")
    return 0


def _cmd_contr(args):
    curve = _load_curve(args.curve)
    D = parse_divisor(args.divisor, curve)
    cs = enumerate_contr0(curve, D)
    contraction_reports = []
    for c in cs.contractions:
        entry = c.to_json()
        if D.degree > 2 * curve.genus:
            dim_pd, dim_pdp, holds = dimension_comparison_check(curve, D, c)
            entry["dimension_comparison"] = {
                "dim_PD": dim_pd,
                "dim_PDprime": dim_pdp,
                "holds": holds,
            }
        contraction_reports.append(entry)
    report = {
        "schema_version": 1,
        "divisor": D.to_json(),
        "contractions": contraction_reports,
    }
    _emit(report, args, f"{len(cs.contractions)} contraction class(es)")
    return 0


def _cmd_certify(args):
    poly = parse_poly_expr(args.poly)
    policy = "general" if args.paranoid else "auto"
    cert = is_primitive_field(poly.monic(), policy=policy)
    ok = cert.verify(strict=args.paranoid)
    report = {"schema_version": 1, **cert.to_json(), "reverified": ok}
    _emit(report, args, f"{cert.verdict} via {cert.method}")
    if not ok:
        raise VerificationFailure("certificate failed re-verification")
    return 0


def _cmd_prospect(args):
    curve = _load_curve(args.curve)
    f = parse_function_expr(args.function, curve)
    rep = prospect(
        curve, f, count=args.t_height, paranoid=args.paranoid, seed=args.seed
    )
    count = rep.counts()
    _emit(
        rep.to_json(),
        args,
        f"{count['primitive_points']} certified primitive point(s) "
        f"in {args.t_height} specializations",
    )
    return 0


def _cmd_density(args):
    curve = _load_curve(args.curve)
    D = parse_divisor(args.divisor, curve)
    rep = density_experiment(
        curve, D, args.coeff_height, samples=args.samples, seed=args.seed
    )
    _emit(rep.to_json(), args, f"counts {rep.counts}")
    return 0


def _cmd_find_function(args):
    curve = _load_curve(args.curve)
    f, cert = find_primitive_function(
        curve,
        args.degree,
        t_budget=args.t_budget,
        paranoid=args.paranoid,
    )
    ok = cert.verify(curve)
    report = {"schema_version": 1, **cert.to_json(), "reverified": ok}
    _emit(report, args, f"f = {f} certified at t = {cert.t}")
    if not ok:
        raise VerificationFailure("function certificate failed re-verification")
    return 0


# ----------------------------------------------------------------------
# argument plumbing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidInput(message)


def _positive(lo, hi=None):
    def convert(text):
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must be {bounds}")
        return value

    return convert


_CURVE = ("curve", {"help": "curve JSON file: {\"h\": [...]}"})
_OUTPUT = ("--output", {"help": "write the JSON report to this path"})
_PARANOID = ("--paranoid", {"action": "store_true"})
_SEED = ("--seed", {"type": _positive(0), "default": 0})

# name -> (help line, handler, arguments as (name, add_argument keywords));
# each help page lists the arguments in this order
_COMMANDS = {
    "curve-info": ("validate a curve file", _cmd_curve_info, (_CURVE, _OUTPUT)),
    "rr-basis": ("basis of L(D)", _cmd_rr_basis, (
        _CURVE, _OUTPUT, ("--divisor", {"required": True}))),
    "function-degree": ("degree and divisor of a function", _cmd_function_degree, (
        _CURVE, _OUTPUT, ("--function", {"required": True}))),
    "contr": ("genus-0 contractions of a divisor", _cmd_contr, (
        _CURVE, _OUTPUT, ("--divisor", {"required": True}))),
    "certify": ("primitivity certificate for Q[x]/(m)", _cmd_certify, (
        _OUTPUT, ("--poly", {"required": True}), _PARANOID)),
    "prospect": ("height-ordered specialization sweep", _cmd_prospect, (
        _CURVE, _OUTPUT, ("--function", {"required": True}),
        ("--t-height", {"type": _positive(1, MAX_SWEEP), "default": 50,
                        "help": "number of height-ordered t values to sweep"}),
        _PARANOID, _SEED)),
    "density": ("classify a coefficient box of L(D)", _cmd_density, (
        _CURVE, _OUTPUT, ("--divisor", {"required": True}),
        ("--coeff-height", {"type": _positive(1, 64), "required": True}),
        ("--samples", {"type": _positive(1, MAX_SWEEP)}),
        _SEED)),
    "find-function": ("certified primitive degree-d function", _cmd_find_function, (
        _CURVE, _OUTPUT, ("--degree", {"type": _positive(1, 64), "required": True}),
        ("--t-budget", {"type": _positive(1, 10000), "default": 40}),
        _PARANOID)),
}


def _parse_exact(argv):
    """The namespace that build_parser's parser gives for argv, read straight
    from _COMMANDS, when argv is an exact use of one subcommand: its name
    first, then each option spelled in full as its own token and at most
    once (-h is none of them), no value or positional beginning with "-",
    every required option, every value accepted by its converter and exactly
    the subcommand's positionals.  None for any other argv, which argparse
    then reads, printing help or a usage error where it must."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, arguments = _COMMANDS[argv[0]]
    values = {"command": argv[0], "func": handler}
    options = {name: kwargs for name, kwargs in arguments if name[0] == "-"}
    given = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            given.append(token)
            continue
        kwargs = options.pop(token, None)  # popped, so a repeat is unknown
        if kwargs is None:
            return None
        value = True  # store_true
        if "action" not in kwargs:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
            if "type" in kwargs:
                try:
                    value = kwargs["type"](value)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
        values[token[2:].replace("-", "_")] = value
    positionals = [name for name, _ in arguments if name[0] != "-"]
    if len(given) != len(positionals):
        return None
    values.update(zip(positionals, given))
    for name, kwargs in options.items():  # the options argv leaves out
        if kwargs.get("required"):
            return None
        default = False if "action" in kwargs else None
        values[name[2:].replace("-", "_")] = kwargs.get("default", default)
    return argparse.Namespace(**values)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the whole command line, built from _COMMANDS;
    it prints the help pages and usage errors."""
    parser = _Parser(prog="primpoints", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for arg, kwargs in arguments:
            p.add_argument(arg, **kwargs)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_exact(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        return args.func(args)
    except SearchBudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VerificationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PrimpointsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
