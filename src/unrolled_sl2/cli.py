"""Batch command-line frontend emitting machine-readable JSON/CSV tables.

Subcommands: repcheck, hopf, loghopf, tangle, qdim, fusion, compare, sweep,
calibrate.  Each ``cmd_*`` takes the arguments and the context and returns
its payload (``sweep --output csv`` prints its table and returns None);
``main`` builds the context, wraps the payload in the {schema, command, r}
envelope and picks the exit code: 0 on success, 1 when the payload's ``ok``
is false or the engine raises an ``ArithmeticError`` (a value it could not
certify), 2 on usage errors.  All numeric output is rounded to 12
significant digits, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .qnum import QContext
from .rep import (
    DeformX, OneDim, Projective, SelfExt, Simple, Typical, format_label,
    make_module, module_dump, parse_complex, projective_cover, verify_relations,
)
from .ribbon import (
    CalibrationError, NoClosedFormError, NotProjectiveError, calibrate, get_config,
    hopf_closed_form, modified_trace, scalar_of,
)
from .singlet import (
    BoundaryError, compare_hopf_qdim, format_singlet_label, fuse,
    parse_singlet_label, projective_strip, qdim_reg, regime_of, strip_eps,
)
from .tangle import eval_tangle, hopf_tangle, parse_color, parse_tangle
from .deform import log_hopf_closed, log_tangle_invariant

SCHEMA = "unrolled-sl2/1"


def _num(x: float) -> float:
    return float(f"{float(x):.12e}")


def _cnum(z) -> list:
    z = complex(z)
    return [_num(z.real), _num(z.imag)]


def _emit(payload: dict):
    json.dump({"schema": SCHEMA, **payload}, sys.stdout, sort_keys=True,
              separators=(",", ": "), indent=1)
    sys.stdout.write("\n")


def _add_common(p):
    p.add_argument("--r", type=int, required=True, help="order parameter (>= 2)")
    p.add_argument("--tol", type=float, default=1e-9)


def cmd_calibrate(args, ctx) -> dict:
    cfg = calibrate(ctx)
    return {"pivot_exponent": cfg.pivot_exponent, "coproduct_variant": "EK",
            "max_rel_error": _num(cfg.max_rel_error)}


_DEFAULT_BATTERY_ALPHAS = (0.377, -1.21, 2.63)


def cmd_repcheck(args, ctx) -> dict:
    if args.label:
        labels = [parse_color(args.label)]
    else:
        labels = [Typical(a) for a in _DEFAULT_BATTERY_ALPHAS]
        labels += [OneDim(1), SelfExt(0.37)]
        for i in range(ctx.r - 1):
            for k in (-1, 0, 1):
                labels += [Simple(i, k), Projective(i, k), DeformX(i, k, 0.31)]
    rows = []
    worst = 0.0
    for lab in labels:
        m = make_module(ctx, lab)
        rep = verify_relations(m)
        worst = max(worst, rep.max_residual)
        row = {"label": format_label(lab), "max_residual": _num(rep.max_residual),
               "failed": rep.failed}
        if args.dump:
            row["module"] = module_dump(m)
        rows.append(row)
    return {"max_residual": _num(worst), "ok": bool(worst < ctx.tol), "modules": rows}


def cmd_hopf(args, ctx) -> dict:
    cfg = get_config(ctx)
    closed = parse_color(args.closed)
    beta = parse_complex(args.beta)
    want = hopf_closed_form(ctx, closed, beta)
    lm = eval_tangle(cfg, hopf_tangle(Typical(beta), closed))
    got = scalar_of(lm.matrix, lm.source.dim, ctx.tol, lm.scale)
    diff = abs(got - want) / max(1.0, abs(want))
    return {"closed": format_label(closed), "beta": _cnum(beta), "engine": _cnum(got),
            "closed_form": _cnum(want), "rel_diff": _num(diff), "ok": bool(diff < 1e-9)}


def cmd_loghopf(args, ctx) -> dict:
    cfg = get_config(ctx)
    z = parse_color(args.Z)
    ca, cb = log_hopf_closed(ctx, z, args.j, args.l)
    res = log_tangle_invariant(cfg, hopf_tangle(Projective(args.j, args.l), z))
    diff = max(abs(res.a - ca) / max(1.0, abs(ca)), abs(res.b - cb) / max(1.0, abs(cb)))
    return {"Z": format_label(z), "j": args.j, "l": args.l,
            "a": _cnum(res.a), "b": _cnum(res.b), "trace": _cnum(res.trace),
            "closed_a": _cnum(ca), "closed_b": _cnum(cb),
            "rel_diff": _num(diff), "ok": bool(diff < 1e-8)}


def cmd_tangle(args, ctx) -> dict:
    cfg = get_config(ctx)
    expr = parse_tangle(args.expr)
    payload = {"normal_form": str(expr)}
    if projective_cover(expr.open_color) is not None:
        res = log_tangle_invariant(cfg, expr)
        payload.update({
            "invariant": _cnum(res.trace),
            "endo": {"a": _cnum(res.a), "b": _cnum(res.b)},
            "residuals": {"cross_check": _num(res.residual_cross_check)},
        })
    else:
        lm = eval_tangle(cfg, expr)
        g = scalar_of(lm.matrix, lm.source.dim, ctx.tol, lm.scale)
        inv = modified_trace(lm.source, lm)
        mat = np.asarray(lm.matrix)
        resid = float(np.max(np.abs(mat - g * np.eye(lm.source.dim))))
        payload.update({"invariant": _cnum(inv), "scalar": _cnum(g),
                        "residuals": {"scalar": _num(resid)}})
    return payload


def cmd_qdim(args, ctx) -> dict:
    lab = parse_singlet_label(args.label)
    eps = parse_complex(args.eps)
    reg = regime_of(ctx, eps)
    val = qdim_reg(ctx, lab, eps)
    return {"label": format_singlet_label(lab), "eps": _cnum(eps),
            "regime": reg.kind if reg.kind == "continuous" else f"strip({reg.k},{reg.m})",
            "qdim": _cnum(val)}


def cmd_fusion(args, ctx) -> dict:
    x = parse_singlet_label(args.X)
    y = parse_singlet_label(args.Y)
    vec = fuse(ctx, x, y)
    return {"X": format_singlet_label(x), "Y": format_singlet_label(y),
            "product": [{"label": format_singlet_label(lab), "mult": mult}
                        for lab, mult in vec.items()]}


def cmd_compare(args, ctx) -> dict:
    cfg = get_config(ctx)
    x = parse_color(args.X)
    if args.mode == "continuous":
        eps = parse_complex(args.eps)
        color = Typical(-1j * np.sqrt(2 * ctx.r) * eps)
    else:
        eps = strip_eps(ctx, *projective_strip(ctx, args.j, args.k), re_part=args.eps_re)
        color = Projective(args.j, args.k)
    rep = compare_hopf_qdim(cfg, x, color, eps)
    rel = rep.diff / max(1.0, abs(rep.lhs))
    return {"mode": args.mode, "X": format_label(x), "eps": _cnum(eps),
            "qdim": _cnum(rep.lhs), "trace_ratio": _cnum(rep.rhs),
            "rel_diff": _num(rel), "ok": bool(rel < 1e-9)}


def cmd_sweep(args, ctx) -> dict | None:
    labels = [parse_singlet_label(t) for t in args.labels.split(";")]
    eps_list = [parse_complex(t) for t in args.eps.split(";")]
    rows = []
    for lab in labels:
        for eps in eps_list:
            try:
                reg = regime_of(ctx, eps)
                regime = reg.kind if reg.kind == "continuous" else f"strip({reg.k},{reg.m})"
                val = qdim_reg(ctx, lab, eps)
                rows.append((format_singlet_label(lab), eps, regime, val))
            except BoundaryError:
                rows.append((format_singlet_label(lab), eps, "boundary", None))
    if args.output == "csv":
        print("label,eps_re,eps_im,regime,qdim_re,qdim_im")
        for lab, eps, regime, val in rows:
            tail = f"{val.real:.12e},{val.imag:.12e}" if val is not None else ","
            print(f"{lab},{eps.real:.12e},{eps.imag:.12e},{regime},{tail}")
        return None
    return {"rows": [{"label": lab, "eps": _cnum(eps), "regime": regime,
                      "qdim": _cnum(val) if val is not None else None}
                     for lab, eps, regime, val in rows]}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="unrolled-sl2",
        description="Matrix modules, renormalized tangle invariants, and "
                    "regularized dimension tables at even roots of unity.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="check the ribbon convention against the Hopf anchors")
    _add_common(p)
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("repcheck", help="verify defining relations of the constructors")
    _add_common(p)
    p.add_argument("--label", help="single color token, e.g. 'P(1,0)'")
    p.add_argument("--dump", action="store_true", help="include module matrices")
    p.set_defaults(fn=cmd_repcheck)

    p = sub.add_parser("hopf", help="open Hopf link value vs closed form")
    _add_common(p)
    p.add_argument("--closed", required=True, help="closed color token")
    p.add_argument("--beta", required=True, help="open generic weight (a+bi)")
    p.set_defaults(fn=cmd_hopf)

    p = sub.add_parser("loghopf", help="Hopf coefficients on a projective cover")
    _add_common(p)
    p.add_argument("--Z", required=True, help="closed color token")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--l", type=int, default=0)
    p.set_defaults(fn=cmd_loghopf)

    p = sub.add_parser("tangle", help="evaluate a tangle expression")
    _add_common(p)
    p.add_argument("--expr", required=True, help="e.g. 'open V(0.5) | hopf V(0.37)'")
    p.set_defaults(fn=cmd_tangle)

    p = sub.add_parser("qdim", help="regularized asymptotic dimension")
    _add_common(p)
    p.add_argument("--label", required=True, help="M(t,s) or F(lam)")
    p.add_argument("--eps", required=True, help="regularization parameter (a+bi)")
    p.set_defaults(fn=cmd_qdim)

    p = sub.add_parser("fusion", help="fusion product of two labels")
    _add_common(p)
    p.add_argument("--X", required=True)
    p.add_argument("--Y", required=True)
    p.set_defaults(fn=cmd_fusion)

    p = sub.add_parser("compare", help="regularized dimension vs modified-trace ratio")
    _add_common(p)
    p.add_argument("--mode", choices=("continuous", "strip"), required=True)
    p.add_argument("--X", required=True, help="quantum-group color token (V or S)")
    p.add_argument("--eps", help="continuous mode: regularization parameter")
    p.add_argument("--j", type=int, help="strip mode: projective index")
    p.add_argument("--k", type=int, default=0, help="strip mode: twist")
    p.add_argument("--eps-re", type=float, default=-0.41, help="strip mode: Re(eps)")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("sweep", help="dimension table over labels and eps values")
    _add_common(p)
    p.add_argument("--labels", required=True, help="';'-separated singlet labels")
    p.add_argument("--eps", required=True, help="';'-separated eps values")
    p.add_argument("--output", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_sweep)
    return ap


_VALUE_FLAGS = ("--eps", "--beta", "--eps-re")


def _join_negative_values(argv):
    """Fold `--eps -0.6+0.0i` into `--eps=-0.6+0.0i` so argparse accepts it."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1][:1] == "-" \
                and len(argv[i + 1]) > 1 and (argv[i + 1][1].isdigit() or argv[i + 1][1] == "."):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


# Refusals of an input (exit 2).  A bare TypeError is a bug and keeps its traceback.
_USAGE_ERRORS = (ValueError, SyntaxError, NotProjectiveError, NoClosedFormError,
                 CalibrationError)


def main(argv=None) -> int:
    ap = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = ap.parse_args(_join_negative_values(argv))
    if args.command == "compare":
        if args.mode == "continuous" and args.eps is None:
            ap.error("--eps is required in continuous mode")
        if args.mode == "strip" and args.j is None:
            ap.error("--j is required in strip mode")
    try:
        payload = args.fn(args, QContext(args.r, tol=args.tol))
    except ArithmeticError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if payload is None:
        return 0
    _emit({"command": args.command, "r": args.r, **payload})
    return 0 if payload.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
