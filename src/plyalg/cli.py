"""Command-line surface: each command is one handler function; the options
that several commands share (``--gens``, ``--json``, ``--fuel``) are declared
once, and every linear combination is printed by one renderer.

Exit codes: 0 success, 1 usage/parse/elaboration error, an unwritable
trace file or a standard output closed before the output was written (one
line on stderr), 2 rewriting fuel exhausted, 3 a check suite failed, 4 the
rewriting rules met a term they cannot order or rewrite (a known defect of
the engine, not of the input).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from .bases import (cmp_t, enumerate_Bhat, enumerate_S, enumerate_Shat,
                    enumerate_T, phi_inv_lin, phi_lin, shat_to_t, to_shat)
from .exprs import (ElabError, ParseError, lincomb_json, parse_algebra,
                    parse_tensor, render_lincomb, render_term, tokenize)
from .normal import (DEFAULT_FUEL, FuelExhausted, InternalRewriteError,
                     OrderConflictError, enumerate_B, enumerate_B_lat, normalize)
from .orders import cmp_shat
from .osbb import decompose
from .suites import SUITES
from .tensor import word_lincomb
from .terms import Alphabet, word_key
from .yamaguti import ly_triple


class UsageError(Exception):
    pass


class TraceFileError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _size(k):
    if not 1 <= k <= 26:
        raise UsageError("--gens must be a size from 1 to 26, got %d" % k)
    return k


def _alphabet(spec, texts=()):
    """The alphabet ``--gens`` sizes or names; without it, the identifiers of
    ``texts`` the reader takes for generators (those not followed by ``(``),
    in alphabetical order, or ``a`` alone when there are none."""
    if spec is None:
        names = set()
        for text in texts:
            toks = tokenize(text)
            names.update(t[1] for t, nxt in zip(toks, toks[1:])
                         if t[0] == "ident" and nxt[0] != "(")
        return Alphabet(sorted(names or {"a"}))
    try:
        k = int(spec)
    except ValueError:
        names = [n.strip() for n in spec.split(",") if n.strip()]
        if not names:
            raise UsageError("empty --gens")
        if len(set(names)) != len(names):
            raise UsageError("--gens repeats a generator name")
        return Alphabet(names)
    return Alphabet.of_size(_size(k))


def _read(args, *texts):
    alphabet = _alphabet(args.gens, texts)
    return [parse_algebra(t, alphabet) for t in texts]


def _emit_lincomb(x, use_json, order):
    print(json.dumps(lincomb_json(x, order=order), sort_keys=True) if use_json
          else render_lincomb(x, order=order))


def _trace_hash(x):
    return hashlib.sha256(render_lincomb(x).encode()).hexdigest()[:16]


def _write_trace(path, trace):
    with open(path, "w") as fh:
        fh.write(json.dumps({"kind": "trace", "format": 3, "steps": len(trace.steps),
                             "input_hash": _trace_hash(trace.input),
                             "output_hash": _trace_hash(trace.output)},
                            sort_keys=True) + "\n")
        for s in trace.steps:
            rec = {"rule": s.rule,
                   "term": render_term(s.term),
                   "path": list(map(str, s.path)),
                   "bindings": {k: (render_term(v) if not isinstance(v, tuple)
                                    else [render_term(u) for u in v])
                                for k, v in s.bindings},
                   "after_hash": _trace_hash(s.after)}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _normalize(args):
    nf, trace = normalize(*_read(args, args.expr), fuel=args.fuel)
    if args.trace:
        try:
            _write_trace(args.trace, trace)
        except OSError as e:
            raise TraceFileError("cannot write trace %s: %s"
                                 % (args.trace, e.strerror or e)) from None
    _emit_lincomb(nf, args.json, order=cmp_t)


_ENUMERATE = {"S": enumerate_S, "Bhat": enumerate_Bhat, "Shat": enumerate_Shat,
              "T": enumerate_T, "B": enumerate_B, "LAT": enumerate_B_lat}


def _enum(args):
    elems = _ENUMERATE[args.basis](args.n, _alphabet(args.gens))
    if args.json:
        print(json.dumps({"basis": args.basis, "n": args.n, "count": len(elems),
                          "elements": list(map(render_term, elems))}, sort_keys=True))
    else:
        for t in elems:
            print(render_term(t))


def _dims(args):
    alphabet = _alphabet(args.gens)
    print(" ".join(str(len(_ENUMERATE[args.basis](n, alphabet)))
                   for n in range(1, args.max_n + 1)))


def _by_word_key(u, v):
    # _emit_lincomb lists the largest first: this lists by increasing word_key
    ku, kv = word_key(u), word_key(v)
    return (ku < kv) - (ku > kv)


def _osbb(args):
    d = parse_tensor(args.expr, _alphabet(args.gens, [args.expr]))
    shat_words = d.map_terms(lambda w: word_lincomb([to_shat(l) for l in w]))
    _emit_lincomb(decompose(shat_words, cmp_shat), args.json, order=_by_word_key)


def _phi(args):
    _emit_lincomb(phi_lin(to_shat(*_read(args, args.expr))), args.json, order=cmp_t)


def _phi_inv(args):
    _emit_lincomb(phi_inv_lin(shat_to_t(to_shat(*_read(args, args.expr)))), args.json,
                  order=cmp_shat)


def _ly(args):
    _emit_lincomb(ly_triple(*_read(args, args.x, args.y, args.z), fuel=args.fuel),
                  args.json, order=cmp_t)


def _check(args):
    kwargs = {k: getattr(args, k) for k in ("max_vertices", "samples")
              if getattr(args, k) is not None}
    if args.gens is not None:
        # the suites build their own alphabet of this size
        kwargs["gens"] = _size(len(_alphabet(args.gens)))
    passed, report = SUITES[args.suite](seed=args.seed, **kwargs)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if passed else 3


# the lowest value of each integer option
_AT_LEAST = {"fuel": 0, "n": 1, "max_n": 1, "max_vertices": 1, "samples": 0}


def build_parser():
    p = _Parser(prog="plyalg", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)
    gens, as_json, fuel, expr, basis = (_Parser(add_help=False) for _ in range(5))
    gens.add_argument("--gens")
    as_json.add_argument("--json", action="store_true")
    fuel.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    expr.add_argument("expr")
    basis.add_argument("--basis", required=True, choices=tuple(_ENUMERATE))

    def command(name, handler, help, *parents):
        sp = sub.add_parser(name, help=help, parents=(gens,) + parents)
        sp.set_defaults(handler=handler)
        return sp

    command("normalize", _normalize, "normalize an expression onto the basis",
            expr, fuel, as_json).add_argument("--trace", metavar="FILE")
    command("enum", _enum, "list basis elements of one grade",
            basis, as_json).add_argument("--n", type=int, required=True)
    command("dims", _dims, "graded dimensions up to --max-n",
            basis).add_argument("--max-n", type=int, required=True)
    command("osbb", _osbb, "decompose a tensor word expression", expr, as_json)
    command("phi", _phi, "apply the basis automorphism", expr, as_json)
    command("phi-inv", _phi_inv, "apply the inverse automorphism", expr, as_json)
    lp = command("ly", _ly, "the Lie-Yamaguti ternary operation", fuel, as_json)
    for name in "xyz":
        lp.add_argument(name)
    cp = command("check", _check, "run a verification suite")
    cp.add_argument("--suite", required=True, choices=sorted(SUITES))
    cp.add_argument("--max-vertices", type=int)
    cp.add_argument("--samples", type=int)
    cp.add_argument("--seed", type=int, default=0)
    return p


def run(argv):
    args = build_parser().parse_args(argv)
    for dest, low in _AT_LEAST.items():
        value = getattr(args, dest, None)
        if value is not None and value < low:
            raise UsageError("--%s must be at least %d, got %d"
                             % (dest.replace("_", "-"), low, value))
    return args.handler(args) or 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        code = run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to the null
        # device, so that the flush at interpreter exit is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed by its reader", file=sys.stderr)
        return 1
    except UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 1
    except (ParseError, ElabError, TraceFileError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except FuelExhausted as e:
        print("fuel exhausted after %d steps" % len(e.trace.steps), file=sys.stderr)
        return 2
    except (OrderConflictError, InternalRewriteError) as e:
        print("rewrite error: %s" % e, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
