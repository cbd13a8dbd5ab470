"""Command-line surface.

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
                    parse_tensor, render_lincomb, render_term, render_word,
                    tokenize)
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


def _alphabet(spec):
    if spec is None:
        return None
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


def _infer_alphabet(texts):
    """The identifiers not followed by ``(`` (those the reader takes for
    generators), in alphabetical order; ``a`` alone when there are none."""
    names = set()
    for text in texts:
        toks = tokenize(text)
        names.update(t[1] for t, nxt in zip(toks, toks[1:])
                     if t[0] == "ident" and nxt[0] != "(")
    return Alphabet(sorted(names or {"a"}))


def _emit_lincomb(x, use_json, order=None):
    if use_json:
        print(json.dumps(lincomb_json(x, order=order), sort_keys=True))
    else:
        print(render_lincomb(x, order=order))


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


_ENUMERATE = {"S": enumerate_S, "Bhat": enumerate_Bhat, "Shat": enumerate_Shat,
              "T": enumerate_T, "B": enumerate_B, "LAT": enumerate_B_lat}
_BASES = tuple(_ENUMERATE)


def build_parser():
    p = _Parser(prog="plyalg", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    np = sub.add_parser("normalize", help="normalize an expression onto the basis")
    np.add_argument("expr")
    np.add_argument("--gens", default=None)
    np.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    np.add_argument("--trace", default=None, metavar="FILE")
    np.add_argument("--json", action="store_true")

    ep = sub.add_parser("enum", help="list basis elements of one grade")
    ep.add_argument("--basis", required=True, choices=_BASES)
    ep.add_argument("--n", type=int, required=True)
    ep.add_argument("--gens", default="1")
    ep.add_argument("--json", action="store_true")

    dp = sub.add_parser("dims", help="graded dimensions up to --max-n")
    dp.add_argument("--basis", required=True, choices=_BASES)
    dp.add_argument("--max-n", type=int, required=True)
    dp.add_argument("--gens", default="1")

    op = sub.add_parser("osbb", help="decompose a tensor word expression")
    op.add_argument("expr")
    op.add_argument("--gens", default=None)
    op.add_argument("--json", action="store_true")

    pp = sub.add_parser("phi", help="apply the basis automorphism")
    pp.add_argument("expr")
    pp.add_argument("--gens", default=None)
    pp.add_argument("--json", action="store_true")

    ip = sub.add_parser("phi-inv", help="apply the inverse automorphism")
    ip.add_argument("expr")
    ip.add_argument("--gens", default=None)
    ip.add_argument("--json", action="store_true")

    lp = sub.add_parser("ly", help="the Lie-Yamaguti ternary operation")
    lp.add_argument("x")
    lp.add_argument("y")
    lp.add_argument("z")
    lp.add_argument("--gens", default=None)
    lp.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    lp.add_argument("--json", action="store_true")

    cp = sub.add_parser("check", help="run a verification suite")
    cp.add_argument("--suite", required=True, choices=sorted(SUITES))
    cp.add_argument("--max-vertices", type=int, default=None)
    cp.add_argument("--samples", type=int, default=None)
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--gens", default=None)
    return p


def run(argv):
    args = build_parser().parse_args(argv)

    if args.cmd in ("normalize", "ly") and args.fuel < 0:
        raise UsageError("--fuel must be at least 0, got %d" % args.fuel)

    if args.cmd == "normalize":
        alphabet = _alphabet(args.gens) or _infer_alphabet([args.expr])
        nf, trace = normalize(parse_algebra(args.expr, alphabet), fuel=args.fuel)
        if args.trace:
            try:
                _write_trace(args.trace, trace)
            except OSError as e:
                raise TraceFileError("cannot write trace %s: %s"
                                     % (args.trace, e.strerror or e)) from None
        _emit_lincomb(nf, args.json, order=cmp_t)
        return 0

    if args.cmd == "enum":
        if args.n < 1:
            raise UsageError("--n must be at least 1, got %d" % args.n)
        alphabet = _alphabet(args.gens)
        elems = _ENUMERATE[args.basis](args.n, alphabet)
        if args.json:
            print(json.dumps({"basis": args.basis, "n": args.n,
                              "count": len(elems),
                              "elements": [render_term(t) for t in elems]},
                             sort_keys=True))
        else:
            for t in elems:
                print(render_term(t))
        return 0

    if args.cmd == "dims":
        if args.max_n < 1:
            raise UsageError("--max-n must be at least 1, got %d" % args.max_n)
        alphabet = _alphabet(args.gens)
        dims = [len(_ENUMERATE[args.basis](n, alphabet))
                for n in range(1, args.max_n + 1)]
        print(" ".join(map(str, dims)))
        return 0

    if args.cmd == "osbb":
        alphabet = _alphabet(args.gens) or _infer_alphabet([args.expr])
        d = parse_tensor(args.expr, alphabet)
        shat_words = d.map_terms(lambda w: word_lincomb([to_shat(l) for l in w]))
        dec = decompose(shat_words, cmp_shat)
        items = sorted(dec.items(), key=lambda tc: word_key(tc[0]))
        if args.json:
            print(json.dumps({"terms": [{"coeff": str(c), "expr": render_word(w, tuple)}
                                        for w, c in items]}, sort_keys=True))
        else:
            if not items:
                print("0")
            else:
                print(" + ".join(render_word(w, tuple) if c == 1
                                 else "%s * %s" % (c, render_word(w, tuple))
                                 for w, c in items))
        return 0

    if args.cmd in ("phi", "phi-inv"):
        alphabet = _alphabet(args.gens) or _infer_alphabet([args.expr])
        x = parse_algebra(args.expr, alphabet)
        coords = to_shat(x)
        if args.cmd == "phi":
            out = phi_lin(coords)
            _emit_lincomb(out, args.json, order=cmp_t)
        else:
            out = phi_inv_lin(shat_to_t(coords))
            _emit_lincomb(out, args.json, order=cmp_shat)
        return 0

    if args.cmd == "ly":
        alphabet = _alphabet(args.gens) or _infer_alphabet([args.x, args.y, args.z])
        vx = parse_algebra(args.x, alphabet)
        vy = parse_algebra(args.y, alphabet)
        vz = parse_algebra(args.z, alphabet)
        _emit_lincomb(ly_triple(vx, vy, vz, fuel=args.fuel), args.json, order=cmp_t)
        return 0

    if args.cmd == "check":
        if args.max_vertices is not None and args.max_vertices < 1:
            raise UsageError("--max-vertices must be at least 1, got %d" % args.max_vertices)
        if args.samples is not None and args.samples < 0:
            raise UsageError("--samples must be at least 0, got %d" % args.samples)
        fn = SUITES[args.suite]
        kwargs = {"seed": args.seed}
        if args.max_vertices is not None:
            kwargs["max_vertices"] = args.max_vertices
        if args.samples is not None:
            kwargs["samples"] = args.samples
        if args.gens is not None:
            # the suites build their own alphabet of this size
            kwargs["gens"] = _size(len(_alphabet(args.gens)))
        passed, report = fn(**kwargs)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if passed else 3

    raise UsageError("unknown command")


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
