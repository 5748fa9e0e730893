"""Command-line surface: reproducible, file-emitting checks of every law.

Every command writes its data file(s) into the output directory (flag
``--out-dir``, env ``GKEXPAND_OUT_DIR``, default the working directory),
prints exactly one PASS/FAIL summary line, and exits 0 when all checks
pass, 1 when a computation ran but a check failed, 2 on bad usage.

Output files are byte-deterministic: fixed orderings, shortest round-trip
float formatting, LF line endings and no timestamps.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, basis, blocks, probe, reconstruct
from .errors import ConstructionError, DomainError, RangeError
from .expansion import DEFAULT_BLOCK_CAP, build_bounded, build_combo, build_raw, check_max_block

RAW_NORM_TOL = 1e-3          # |m_k^2 sqrt(2 pi k) - 1| gate for k >= 1000
COMBO_NORM_WINDOW = (0.95, 1.05)   # value^2 c sqrt(2 pi (y+h)) gate, n >= 3
WEIGHT_MASS_WINDOW = (7.2, 8.8)    # G(n, 1) gate for n >= 4
SLOPE_TOL = 0.15             # divergence fit vs 135/(sqrt(90 pi) ln 4)
MAX_NORM_ROWS = 10**6        # raw and bounded norms: 10^6 rows take ~0.5 GB


def _fmt(v: float) -> str:
    return repr(float(v))


def _out_dir(args: argparse.Namespace) -> Path:
    d = Path(args.out_dir or os.environ.get("GKEXPAND_OUT_DIR", "."))
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write_rows(path_base: Path, header: list[str], rows: list[list], fmt: str) -> Path:
    """Emit rows as CSV or as a JSON array of objects."""
    if fmt == "csv":
        path = path_base.with_suffix(".csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
    else:
        path = path_base.with_suffix(".json")
        doc = {"schema_version": 1, "rows": [dict(zip(header, r)) for r in rows]}
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError as exc:
        raise DomainError(f"range must look like 'lo:hi', got {text!r}") from exc


def _status_line(command: str, ok: bool, detail: str) -> int:
    print(f"{command}: {'PASS' if ok else 'FAIL'} {detail}")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# reconstruct


def _unscaled_edge(edge: float, eta: float) -> float:
    """The grid end, in kernel units, of a bounded expansion's domain
    [0, N]: N sqrt(eta), stepped down by ulps until `grid_report`'s rescaling
    by 1/sqrt(eta) lands it at N or below."""
    if not eta > 0.0:
        return edge  # grid_report rejects the width
    scale = 1.0 / math.sqrt(eta)  # as grid_report rescales
    hi = edge * math.sqrt(eta)
    while hi * scale > edge:
        hi = math.nextafter(hi, 0.0)
    return hi


def cmd_reconstruct(args: argparse.Namespace) -> int:
    if args.scheme == "raw":
        e = build_raw(args.horizon)
    elif args.scheme == "bounded":
        e = build_bounded(args.domain_edge, args.horizon)
    else:
        e = build_combo(args.max_block)
    if args.range is None:  # a default grid inside the scheme's domain
        bounded = args.scheme == "bounded"
        xy = (0.0, _unscaled_edge(args.domain_edge, args.eta)) if bounded else (-3.0, 3.0)
    else:
        xy = _parse_range(args.range)
    report = reconstruct.grid_report(e, xy, xy, step=args.step, eta=args.eta)
    out = _out_dir(args)
    rows = [
        [_fmt(x), _fmt(y), _fmt(ex), _fmt(se), _fmt(er), "" if b is None else _fmt(b)]
        for x, y, ex, se, er, b in report.rows
    ]
    _write_rows(out / "reconstruct", ["x", "y", "exact", "series", "abs_error", "tail_bound"], rows, args.format)
    _write_json(out / "reconstruct_summary.json", report.summary_dict())
    return _status_line(
        "reconstruct",
        report.bound_satisfied,
        f"scheme={args.scheme} max_abs_error={report.max_abs_error:.3e} "
        f"bound_satisfied={report.bound_satisfied}",
    )


# ----------------------------------------------------------------------
# norms


def _norms_raw(args) -> tuple[list[list], bool, str]:
    rows = []
    ok = True
    for k in range(args.horizon):
        info = basis.peak(k)
        if k == 0:
            rows.append([f"psi[{k}]", _fmt(info.m), "", ""])
            continue
        predicted = (2.0 * math.pi * k) ** -0.25
        ratio = math.exp(info.m_squared_log) * math.sqrt(2.0 * math.pi * k)
        rows.append([f"psi[{k}]", _fmt(info.m), _fmt(predicted), _fmt(ratio)])
        if k >= 1000 and abs(ratio - 1.0) > RAW_NORM_TOL:
            ok = False
    return rows, ok, f"horizon={args.horizon} gate=|ratio-1|<={RAW_NORM_TOL} for k>=1000"


def _norms_combo(args) -> tuple[list[list], bool, str]:
    lo, hi = COMBO_NORM_WINDOW
    blocks.sign_rows(args.max_block, [])  # the sign-pattern cap, before any row runs
    rows = []
    ok = True
    for n in range(1, args.max_block + 1):
        spec = blocks.block_spec(n)
        hs = sorted(set(int(v) for v in np.linspace(0, spec.r - 1, min(args.rows, spec.r))))
        slots = sorted(set(int(v) for v in np.linspace(0, spec.c - 1, min(args.slots, spec.c))))
        for h in hs:
            lead = spec.y + h
            for s, _x, v in blocks.row_sup_norms(n, h, slots):
                if lead == 0:  # the k = 0 bump has no asymptotic law
                    rows.append([f"combo[{n},{h},{s}]", _fmt(v), "", ""])
                    continue
                predicted = (2.0 * math.pi * lead) ** -0.25 / math.sqrt(spec.c)
                ratio = v * v * spec.c * math.sqrt(2.0 * math.pi * lead)
                rows.append([f"combo[{n},{h},{s}]", _fmt(v), _fmt(predicted), _fmt(ratio)])
                if n >= 3 and not lo <= ratio <= hi:
                    ok = False
    return rows, ok, f"max_block={args.max_block} gate=ratio in [{lo},{hi}] for n>=3"


def _norms_bounded(args) -> tuple[list[list], bool, str]:
    env = basis.fit_h_envelope(args.domain_edge, k_max=args.k_max)
    log_sups = basis.log_h_sup_many(np.arange(1, args.k_max + 1), args.domain_edge)
    rows = []
    for k, ls in enumerate(log_sups.tolist(), start=1):
        le = env.log_envelope(k)
        ratio = _fmt(math.exp(ls - le)) if k >= env.k0 else ""
        rows.append([f"h[{k}]", _fmt(ls), _fmt(le), ratio])
    ok = env.B > 0.0 and env.max_violation <= 0.0
    detail = (
        f"N={args.domain_edge} sup=exp({env.sup_log_value:.6f})={math.exp(env.sup_log_value):.6f} "
        f"at k={env.sup_argmax}, envelope B={env.B:.6g} max_violation={env.max_violation:.3e}"
    )
    return rows, ok, detail


def cmd_norms(args: argparse.Namespace) -> int:
    # a zero count would write a header-only table and pass its gate
    sizes = {"raw": ["horizon"], "combo": ["max_block", "rows", "slots"]}
    for name in sizes.get(args.scheme, []):
        value = getattr(args, name)
        if value < 1:
            raise DomainError(f"--{name.replace('_', '-')} must be >= 1, got {value}")
    flag = {"raw": "horizon", "bounded": "k_max"}.get(args.scheme)  # one row per index
    if flag and getattr(args, flag) > MAX_NORM_ROWS:
        raise RangeError(f"--{flag.replace('_', '-')} {getattr(args, flag)} exceeds {MAX_NORM_ROWS} table rows")
    if args.scheme == "raw":
        rows, ok, detail = _norms_raw(args)
    elif args.scheme == "combo":
        rows, ok, detail = _norms_combo(args)
    else:
        rows, ok, detail = _norms_bounded(args)
    out = _out_dir(args)
    header = (
        ["identifier", "log_sup_norm", "log_envelope", "ratio"]
        if args.scheme == "bounded"
        else ["identifier", "sup_norm", "predicted", "ratio"]
    )
    _write_rows(out / "norms", header, rows, args.format)
    _write_json(
        out / "norms_summary.json",
        {"schema_version": 1, "scheme": args.scheme, "passed": ok, "rows": len(rows)},
    )
    return _status_line("norms", ok, detail)


# ----------------------------------------------------------------------
# weights


def _check_mass_range(p: float, max_block: int) -> None:
    """Reject a p whose deepest block mass (by its rigorous lower bound) or
    prediction may underflow: the gate would then fail a correct expansion."""
    if not p >= 1.0:  # NaN too, whose floor would read as "too large"
        raise DomainError(f"p must be >= 1, got {p}")
    floor = analysis.predicted_block_mass(max_block, p)
    if max_block >= 2:  # block 1 holds the k = 0 term: its mass is >= 1
        floor = min(floor, analysis.block_mass_bounds(max_block, p)[0])
    if not floor >= sys.float_info.min:
        raise DomainError(f"p={p} is too large for --max-block {max_block}: the block "
                          f"mass bound or prediction {floor!r} is below the normal range")


def cmd_weights(args: argparse.Namespace) -> int:
    p = args.p
    check_max_block(args.max_block)
    _check_mass_range(p, args.max_block)
    # at p = 1 the profile's masses are these, from the same block_mass calls
    stats = analysis.divergence_profile(args.max_block) if p == 1.0 and args.max_block >= 4 else None
    masses = dict(stats.per_block if stats else
                  ((n, analysis.block_mass(n, p)) for n in range(1, args.max_block + 1)))
    rows = []
    for n, g in masses.items():
        predicted = analysis.predicted_block_mass(n, p)
        rows.append([str(n), _fmt(p), _fmt(g), _fmt(predicted), _fmt(g / predicted)])
    out = _out_dir(args)
    _write_rows(out / "weights_blocks", ["n", "p", "G_np", "predicted", "ratio"], rows, args.format)

    profile_doc: dict = {}
    ok = True
    notes = []
    if p == 1.0:
        for n in range(4, args.max_block + 1):
            if not WEIGHT_MASS_WINDOW[0] <= masses[n] <= WEIGHT_MASS_WINDOW[1]:
                ok = False
                notes.append(f"G({n},1)={masses[n]:.4f} outside {WEIGHT_MASS_WINDOW}")
        if stats is not None:
            ps_rows = [
                [str(count), _fmt(s), "" if slope is None else _fmt(slope)]
                for (count, s), slope in zip(stats.partial_sums, stats.running_slopes)
            ]
            _write_rows(out / "weights_partial_sums", ["term_count", "partial_sum", "D_ln_fit"], ps_rows, args.format)
            rel = abs(stats.fitted_slope / stats.model_D - 1.0)
            if rel > SLOPE_TOL:
                ok = False
                notes.append(f"slope {stats.fitted_slope:.4f} vs D {stats.model_D:.4f} off {rel:.1%}")
            profile_doc = {
                "fitted_slope": stats.fitted_slope,
                "model_D": stats.model_D,
                "slope_rel_dev": rel,
            }
    else:
        # the rigorous finite-n bracket, not the 4^(1-p) asymptote, which at
        # p = 3 block 4 -> 5 is provably more than 10% away
        bounds = {n: analysis.block_mass_bounds(n, p) for n in range(2, args.max_block + 1)}
        for n in range(2, args.max_block):
            ratio = masses[n + 1] / masses[n]
            lo = bounds[n + 1][0] / bounds[n][1]
            hi = bounds[n + 1][1] / bounds[n][0]
            if not lo <= ratio <= hi:
                ok = False
                notes.append(f"G({n+1},{p})/G({n},{p})={ratio!r} outside [{lo!r}, {hi!r}]")
    _write_json(
        out / "weights_summary.json",
        {
            "schema_version": 1,
            "p": p,
            "max_block": args.max_block,
            "per_block": {str(n): masses[n] for n in masses},
            "passed": ok,
            "notes": notes,
            **profile_doc,
        },
    )
    return _status_line("weights", ok, f"p={p} max_block={args.max_block}" + (f" [{'; '.join(notes)}]" if notes else ""))


# ----------------------------------------------------------------------
# signs


def cmd_signs(args: argparse.Namespace) -> int:
    sm = blocks.sign_matrix(args.n)
    out = _out_dir(args)
    path = out / f"signs_n{args.n}.csv"
    path.write_text(sm.to_csv_text(), encoding="utf-8")
    s = sm.entries
    c = s.shape[0]
    f = s.astype(np.float64)
    gram = f @ f.T  # float64 is exact here (every entry is at most c <= 2^11) and takes BLAS
    ok = bool(np.all(np.diag(gram) == c)) and int(np.count_nonzero(gram)) == c
    ok = ok and bool(np.all(s[0] == 1)) and bool(np.all(s[:, 0] == 1))
    return _status_line("signs", ok, f"n={args.n} ({c}x{c}) orthogonal={ok}")


# ----------------------------------------------------------------------
# probe


def cmd_probe(args: argparse.Namespace) -> int:
    if args.verify:
        cert = probe.certificate_from_json(args.verify)
        detail = f"verify {args.verify}:"
    else:
        cert = probe.build_certificate(
            probe.PROFILES[args.kernel], probe.TEMPLATES[args.psi], args.epsilon, args.n,
            delta=args.delta,
        )
        path = _out_dir(args) / f"probe_{args.kernel}_{args.psi}_n{args.n}.json"
        probe.certificate_to_json(cert, path)
        detail = (
            f"kernel={args.kernel} psi={args.psi} eps={args.epsilon} n={args.n}: "
            f"quad_form={cert.quad_form:.6f} lin_form_sq={cert.lin_form_sq:.3f} "
            f"weight_bound={probe.implied_weight_bound(cert):.3e} -> {path.name}"
        )
    profile = probe.PROFILES[cert.kernel]
    res = probe.verify_certificate(cert, profile, probe.TEMPLATES[cert.template])
    # the row sums need the points a failed verification may have rejected
    bounds = "skipped"
    if res:
        sums = probe.offdiag_row_sums(cert, profile)
        bounds = "ok" if all(s < b for _i, s, b in sums) else "violated"
    if args.verify:
        detail += f" inequalities={res.reason or 'ok'} row_bounds={bounds}"
    return _status_line("probe", bounds == "ok", detail)


# ----------------------------------------------------------------------
# bumpcheck


def cmd_bumpcheck(args: argparse.Namespace) -> int:
    try:
        ks = [int(v) for v in args.indices.split(",") if v.strip()]
    except ValueError as exc:
        raise DomainError(f"--indices must be comma-separated integers, got {args.indices!r}") from exc
    if not ks:
        raise DomainError("no indices given")
    rows = []
    errs = []
    for k in ks:
        err = basis.bump_error(k, args.window)
        errs.append(err)
        rows.append([str(k), _fmt(err)])
    out = _out_dir(args)
    _write_rows(out / "bumpcheck", ["k", "bump_error"], rows, args.format)
    ok = all(b < a for a, b in zip(errs, errs[1:]))
    return _status_line(
        "bumpcheck",
        ok,
        f"indices={ks} strictly_decreasing={ok} last={errs[-1]:.6e}",
    )


# ----------------------------------------------------------------------
# parser


_SUBPARSERS: dict[str, argparse.ArgumentParser] = {}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gkexpand",
        description="Bounded-basis Gaussian kernel expansions: build, check, certify.",
    )

    def common(sp):
        sp.add_argument("--out-dir", default=None, help="output directory (env GKEXPAND_OUT_DIR)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv", help="data file format")
        sp.add_argument("--config", default=None, help="JSON file with flag defaults (flags win)")
        _SUBPARSERS[sp.prog.split()[-1]] = sp

    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("reconstruct", help="compare a truncated series against the exact kernel")
    sp.add_argument("--scheme", choices=("raw", "bounded", "combo"), default="raw")
    sp.add_argument("--horizon", type=int, default=200)
    sp.add_argument("--domain-edge", type=float, default=3.0)
    sp.add_argument("--max-block", type=int, default=3)
    sp.add_argument("--range", default=None,
                    help="grid range lo:hi (both axes); default -3:3, bounded 0:DOMAIN_EDGE*sqrt(ETA)")
    sp.add_argument("--step", type=float, default=0.25)
    sp.add_argument("--eta", type=float, default=1.0, help="kernel width")
    common(sp)
    sp.set_defaults(func=cmd_reconstruct)

    sp = sub.add_parser("norms", help="sup-norm laws per scheme")
    sp.add_argument("--scheme", choices=("raw", "bounded", "combo"), default="combo")
    sp.add_argument("--horizon", type=int, default=2000, help="raw scheme: number of indices")
    sp.add_argument("--max-block", type=int, default=6)
    sp.add_argument("--rows", type=int, default=3, help="sampled rows per block (combo)")
    sp.add_argument("--slots", type=int, default=4, help="sampled slots per row (combo)")
    sp.add_argument("--domain-edge", type=float, default=3.0)
    sp.add_argument("--k-max", type=int, default=5000, help="bounded scheme: index range")
    common(sp)
    sp.set_defaults(func=cmd_norms)

    sp = sub.add_parser("weights", help="block weight masses and divergence law")
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--max-block", type=int, default=DEFAULT_BLOCK_CAP)
    common(sp)
    sp.set_defaults(func=cmd_weights)

    sp = sub.add_parser("signs", help="emit and check a block sign matrix")
    sp.add_argument("--n", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_signs)

    sp = sub.add_parser("probe", help="build or verify an impossibility certificate")
    sp.add_argument("--kernel", choices=sorted(probe.PROFILES), default="gaussian")
    sp.add_argument("--psi", choices=sorted(probe.TEMPLATES), default="cos")
    sp.add_argument("--epsilon", type=float, default=0.1)
    sp.add_argument("--delta", type=float, default=0.9)
    sp.add_argument("--n", type=int, default=100)
    sp.add_argument("--verify", default=None, metavar="FILE", help="re-verify a stored certificate")
    common(sp)
    sp.set_defaults(func=cmd_probe)

    sp = sub.add_parser("bumpcheck", help="bump-approximation error trend")
    sp.add_argument("--indices", default="100,1000,10000,100000")
    sp.add_argument("--window", type=float, default=2.0)
    common(sp)
    sp.set_defaults(func=cmd_bumpcheck)

    return ap


def _apply_config(
    args: argparse.Namespace, argv: list[str], ap: argparse.ArgumentParser
) -> argparse.Namespace:
    """argv parsed again with the config values as the command's defaults:
    explicit flags, abbreviated or not, win by argparse's own rules."""
    if not args.config:
        return args
    parser = _SUBPARSERS[args.command]
    try:
        cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except ValueError as exc:  # malformed JSON or text
        raise DomainError(f"config file {args.config} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise DomainError("config file must contain a JSON object")
    actions = {a.dest: a for a in parser._actions}
    for key, val in cfg.items():
        dest = key.replace("-", "_")
        flag = "--" + key.replace("_", "-")
        action = actions.get(dest)
        if action is None:  # a misspelt key would otherwise leave its default
            raise DomainError(f"config key {key!r} is not a flag of {parser.prog}")
        if val is None or isinstance(val, (bool, list, dict)):  # these have no flag text
            raise DomainError(f"config value {key}={val!r} is not valid for {flag}: not a string or number")
        # the value's text goes through the flag's own checks, so a config
        # value gives the same bytes as the same text given as the flag
        try:
            value = str(val) if action.type is None else action.type(str(val))
        except ValueError as exc:
            raise DomainError(f"config value {key}={val!r} is not valid for {flag}") from exc
        if action.choices is not None and value not in action.choices:
            raise DomainError(f"config value {key}={val!r} is not one of {flag} {sorted(action.choices)}")
        parser.set_defaults(**{dest: value})
    return ap.parse_args(argv)


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join ``--range -5:5`` into ``--range=-5:5`` so argparse does not
    mistake the leading minus for an option."""
    out = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if a == "--range" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{a}={argv[i + 1]}")
            i += 2
        else:
            out.append(a)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _merge_negative_values(list(sys.argv[1:] if argv is None else argv))
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        args = _apply_config(args, argv, ap)
        return args.func(args)
    except (DomainError, RangeError, ConstructionError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
