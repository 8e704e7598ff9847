"""Command-line front end with stable JSON input and output.

Subcommands: curve-validate, triple-validate, triple-canonical,
triple-support, group-act, group-enumerate, class-relation, form-gram,
form-rank, form-decompose, galois-rational, search-caveat.  Each takes
``--out`` and the options its handler reads (``_HANDLERS``), unabbreviated;
any other option, or a missing required one, is an input error.

Exit codes: 0 success, 1 input validation failure, 2 domain error,
3 budget or search exhaustion.  A field read from a document may have
degree at most ``serialize.MAX_FIELD_DEGREE``.  ``--ext`` (triple-support,
class-relation, search-caveat) must lie between 1 and ``MAX_EXT``, and the
extension it names, of absolute degree m * ext over GF(p^m), is capped at
``serialize.MAX_FIELD_DEGREE`` too, so every field the CLI prints can be
read back, and so is ``group-enumerate --m``; anything else is an input
error.  Output is byte-stable for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys

from . import serialize
from .equivalence import orbit_oracle, same_class
from .errors import AlgebraError, BudgetExhausted, SearchExhausted
from .fields import GF, common_field
from .galois import (
    _gram_fixed,
    class_rational,
    class_rational_mod_conj,
    find_caveat_example,
    galois_context,
)
from .ortho import enumerate_special_orthogonal
from .quadform import decompose, gram, rank_radical
from .triples import act, canonicalize_with_matrix, divisor_data, support
from .curves import infinity_points

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DOMAIN = 2
EXIT_BUDGET = 3

# the largest --ext accepted: the extension is built (a default modulus found
# by Rabin's test) before any answer is printed, and its degree is what bounds
# the time of triple-support, class-relation and search-caveat.  Its absolute
# degree, like that of a field read from a document, is capped at
# serialize.MAX_FIELD_DEGREE, so a document the CLI emits can be read back.
MAX_EXT = 8


class InputError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that turns a usage error into an InputError, after writing
    the usage text and the message to stderr as argparse does."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise InputError(message)


def _load_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    except RecursionError:
        raise InputError("cannot read %s: JSON nested too deeply" % path) from None


def _load_curve(args):
    obj = _load_json(args.curve)
    try:
        return serialize.curve_from_json(obj)
    except (AlgebraError, KeyError, ValueError) as exc:
        raise InputError("invalid curve: %s: %s" % (type(exc).__name__, exc)) from exc


def _extension(args, field):
    """--ext, checked against 1 <= ext <= MAX_EXT and, over a finite field,
    against an absolute degree field.m * ext of at most
    serialize.MAX_FIELD_DEGREE, so that the extension the command builds
    is one a document may declare."""
    ext = args.ext
    if not 1 <= ext <= MAX_EXT:
        raise InputError("--ext must be between 1 and %d, got %d" % (MAX_EXT, ext))
    if field.p is not None and field.m * ext > serialize.MAX_FIELD_DEGREE:
        raise InputError("--ext %d over %s gives a field of degree %d, above %d"
                         % (ext, field.label(), field.m * ext, serialize.MAX_FIELD_DEGREE))
    return ext


def _load_triple(curve, path):
    obj = _load_json(path)
    try:
        return serialize.triple_from_json(curve, obj)
    except KeyError as exc:
        raise InputError("triple JSON is missing %s" % exc) from exc


# -- subcommand handlers: each returns (exit_code, payload) --------------------

def _cmd_curve_validate(args):
    obj = _load_json(args.curve)
    try:
        curve = serialize.curve_from_json(obj)
    except AlgebraError as exc:
        return EXIT_OK, {"valid": False, "reason": type(exc).__name__, "detail": str(exc)}
    inf = infinity_points(curve)
    return EXIT_OK, {
        "valid": True,
        "genus": curve.genus,
        "field": serialize.field_to_json(curve.field),
        "infinity": {
            "sqrt_status": inf.sqrt_status,
            "roots": [serialize.scalar_to_json(r) for r in inf.roots],
            "field": serialize.field_to_json(inf.field),
        },
    }


def _cmd_triple_validate(args):
    curve = _load_curve(args)
    obj = _load_json(args.t1)
    try:
        serialize.triple_from_json(curve, obj)
    except AlgebraError as exc:
        return EXIT_OK, {"valid": False, "reason": type(exc).__name__, "detail": str(exc)}
    return EXIT_OK, {"valid": True}


def _cmd_triple_canonical(args):
    curve = _load_curve(args)
    t = _load_triple(curve, args.t1)
    canon, matrix = canonicalize_with_matrix(t)
    data = divisor_data(t)
    return EXIT_OK, {
        "triple": serialize.triple_to_json(canon),
        "b_matrix": serialize.matrix_to_json(matrix),
        "divisor": {
            "U": serialize.poly_to_json(data.U_monic),
            "W": serialize.poly_to_json(data.W_repr),
            "infinity_multiplicity": data.infinity_multiplicity,
            "infinity_sign": data.infinity_sign,
        },
    }


def _cmd_triple_support(args):
    curve = _load_curve(args)
    t = _load_triple(curve, args.t1)
    sup = support(t, _extension(args, t.field))
    return EXIT_OK, {
        "affine": [
            {"x": serialize.scalar_to_json(x),
             "y": serialize.scalar_to_json(y),
             "multiplicity": m}
            for x, y, m in sup.affine
        ],
        "infinity_sign": None if sup.infinity_sign == "none" else sup.infinity_sign,
        "infinity_multiplicity": sup.infinity_multiplicity,
        "complete": sup.complete,
        "field": serialize.field_to_json(sup.field),
    }


def _cmd_group_act(args):
    curve = _load_curve(args)
    t = _load_triple(curve, args.t1)
    matrix = serialize.matrix_from_json(_load_json(args.matrix), default_field=t.field)
    out = act(matrix, t)
    return EXIT_OK, {
        "triple": serialize.triple_to_json(out),
        "classification": "proper" if matrix.proper else "improper",
    }


def _cmd_group_enumerate(args):
    if args.m > serialize.MAX_FIELD_DEGREE:
        raise InputError("--m must be at most %d, got %d" % (serialize.MAX_FIELD_DEGREE, args.m))
    field = GF(args.p, args.m)
    group = enumerate_special_orthogonal(field)
    payload = {"order": len(group), "field": serialize.field_to_json(field)}
    if args.full:
        payload["elements"] = [serialize.matrix_to_json(m)["entries"] for m in group]
    return EXIT_OK, payload


def _cmd_class_relation(args):
    curve = _load_curve(args)
    t1 = _load_triple(curve, args.t1)
    t2 = _load_triple(curve, args.t2)
    ext = _extension(args, common_field(t1.field, t2.field))
    rel = same_class(t1, t2, extension=ext)
    payload = {
        "kind": rel.kind,
        "search_domain": serialize.field_to_json(rel.search_domain),
    }
    if rel.witness is not None:
        payload["witness"] = serialize.matrix_to_json(rel.witness)
    if rel.conjugate_witness is not None:
        payload["conjugate_witness"] = serialize.matrix_to_json(rel.conjugate_witness)
    if args.oracle:
        payload["oracle"] = orbit_oracle(t1, t2)
    return EXIT_OK, payload


def _cmd_form_gram(args):
    curve = _load_curve(args)
    t = _load_triple(curve, args.t1)
    return EXIT_OK, serialize.gram_to_json(gram(t))


def _cmd_form_rank(args):
    curve = _load_curve(args) if args.curve else None
    default = curve.field if curve else None
    S = serialize.gram_from_json(_load_json(args.form), default_field=default)
    r, basis = rank_radical(S)
    return EXIT_OK, {
        "rank": r,
        "radical_basis": [serialize.scalars_to_json(v) for v in basis],
        "field": serialize.field_to_json(S.field),
    }


def _cmd_form_decompose(args):
    curve = _load_curve(args)
    S = serialize.gram_from_json(_load_json(args.form), default_field=curve.field)
    hint = None
    if args.hint:
        hint_obj = _load_json(args.hint)
        hint = serialize.scalars_from_json(S.field, hint_obj)
    t = decompose(S, curve, extension_budget=args.budget, isotropic_hint=hint)
    return EXIT_OK, {"triple": serialize.triple_to_json(t)}


def _cmd_galois_rational(args):
    curve = _load_curve(args)
    t = _load_triple(curve, args.t1)
    if t.field.p is None:
        # characteristic 0: the verdict is syntactic, not a Galois-descent claim;
        # an entry is rational when its coordinates after the first vanish
        forms = t._raw_forms()
        if args.mode == "mod-conj":
            verdict = _gram_fixed(t.field, forms)
        else:
            verdict = t.field.m == 1 or not any(any(x[1:]) for form in forms for x in form)
        return EXIT_OK, {
            "mode": args.mode,
            "rational": verdict,
            "syntactic": True,
            "ambient": serialize.field_to_json(t.field),
        }
    ctx = galois_context(t.field)
    if args.mode == "mod-conj":
        verdict = class_rational_mod_conj(t, ctx)
    else:
        verdict = class_rational(t, ctx)
    return EXIT_OK, {
        "mode": args.mode,
        "rational": verdict,
        "syntactic": False,
        "ambient": serialize.field_to_json(ctx.ambient),
        "base": serialize.field_to_json(ctx.base),
    }


def _cmd_search_caveat(args):
    curve = _load_curve(args)
    if curve.field.p is None:
        raise InputError("the caveat search runs over finite fields")
    ambient = curve.field.extension(_extension(args, curve.field))
    ctx = galois_context(ambient)
    res = find_caveat_example(curve, ctx, args.budget, args.seed)
    payload = {
        "found": res.found,
        "searched": res.searched,
        "budget": res.budget,
        "seed": res.seed,
        "ambient": serialize.field_to_json(ambient),
        "curve": serialize.curve_to_json(curve),
    }
    if res.found:
        payload["triple"] = serialize.triple_to_json(res.triple)
    return EXIT_OK, payload


# each subcommand's handler and the options it reads, the optional ones
# bracketed as in README's usage lines and the others required; every
# subcommand takes --out too, and any other option is an input error
_HANDLERS = {
    "curve-validate": (_cmd_curve_validate, "curve"),
    "triple-validate": (_cmd_triple_validate, "curve t1"),
    "triple-canonical": (_cmd_triple_canonical, "curve t1"),
    "triple-support": (_cmd_triple_support, "curve t1 [ext]"),
    "group-act": (_cmd_group_act, "curve t1 matrix"),
    "group-enumerate": (_cmd_group_enumerate, "p [m] [full]"),
    "class-relation": (_cmd_class_relation, "curve t1 t2 [ext] [oracle]"),
    "form-gram": (_cmd_form_gram, "curve t1"),
    "form-rank": (_cmd_form_rank, "form [curve]"),
    "form-decompose": (_cmd_form_decompose, "curve form [hint] [budget]"),
    "galois-rational": (_cmd_galois_rational, "curve t1 [mode]"),
    "search-caveat": (_cmd_search_caveat, "curve [ext] [budget] [seed]"),
}

_OPTIONS = {
    "curve": dict(help="path to curve JSON"),
    "t1": dict(help="path to first triple JSON"),
    "t2": dict(help="path to second triple JSON"),
    "matrix": dict(help="path to matrix JSON"),
    "form": dict(help="path to Gram form JSON"),
    "hint": dict(help="path to isotropic-vector JSON (rank-3 over QQ)"),
    "mode": dict(choices=["class", "mod-conj"], default="class", help="rationality predicate"),
    "ext": dict(type=int, default=2,
                help="ambient/search extension degree, 1 to %d (default 2)" % MAX_EXT),
    "budget": dict(type=int, default=10000),
    "seed": dict(type=int, default=0),
    "p": dict(type=int, help="prime"),
    "m": dict(type=int, default=1, help="extension degree"),
    "full": dict(action="store_true", help="include all matrices"),
    "oracle": dict(action="store_true", help="cross-check with the exhaustive oracle"),
    "out": dict(help="output path (default stdout)"),
}


def build_parser():
    parser = _ArgumentParser(
        prog="picforms",
        description="Divisor classes on hyperelliptic curves as triples of "
                    "linear forms: validation, canonical forms, group actions, "
                    "class equivalence, quadratic-form invariants, Galois checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, options) in _HANDLERS.items():
        sp = sub.add_parser(command, allow_abbrev=False)  # else --m means --matrix on group-act
        for option in options.split():
            name = option.strip("[]")
            sp.add_argument("--" + name, required=name == option, **_OPTIONS[name])
        sp.add_argument("--out", **_OPTIONS["out"])
    return parser


def _error(kind, exc):
    return {"error": {"kind": kind, "detail": str(exc)}}


def _dispatch(args):
    handler = _HANDLERS[args.command][0]
    try:
        return handler(args)
    except InputError as exc:
        return EXIT_INPUT, _error("InputError", exc)
    except (BudgetExhausted, SearchExhausted) as exc:
        return EXIT_BUDGET, _error(type(exc).__name__, exc)
    except AlgebraError as exc:
        return EXIT_DOMAIN, _error(type(exc).__name__, exc)
    except (KeyError, TypeError, ValueError) as exc:
        return EXIT_INPUT, _error("InputError", "%s: %s" % (type(exc).__name__, exc))


_PARSER = None


def _parser():
    """The process-wide parser, built on first use."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def run_command(argv):
    """Parse argv, run the subcommand, and return (exit_code, payload)."""
    try:
        args = _parser().parse_args(argv)
    except InputError as exc:
        return EXIT_INPUT, _error("InputError", exc)
    return _dispatch(args)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser().parse_args(argv)
    except InputError as exc:  # the usage text is already on stderr
        sys.stdout.write(serialize.dumps(_error("InputError", exc)))
        return EXIT_INPUT
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    code, payload = _dispatch(args)
    text = serialize.dumps(payload)
    if args.out:
        try:
            _write_out(args.out, text)
            return code
        except OSError as exc:
            code = EXIT_INPUT
            text = serialize.dumps(_error("InputError", "cannot write %s: %s" % (args.out, exc)))
    sys.stdout.write(text)
    return code


def _write_out(path, text):
    """Overwrite the file at path in place with the bytes of text: open it
    without truncating, write every byte, then cut a regular file to the
    length written.  (Opening with truncation makes ext4, under its default
    auto_da_alloc, start writeback of a file cut from non-empty to zero
    when it is closed; neither way promises durability, there is no fsync.)
    If the write fails, a regular file is cut to zero before the error is
    raised, so no new prefix is left over an old tail.  A device or pipe,
    such as /dev/null, is written and never truncated."""
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if regular:
                os.ftruncate(fd, len(data))
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)


if __name__ == "__main__":
    sys.exit(main())
