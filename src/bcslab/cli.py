"""Command-line driver.

Subcommands: lattice-info, gap, eval, verify-bound, expand, hessian-check,
gaussian, scan, external.  Configuration comes from a plain key = value file
(--config); unknown keys are rejected.  Exit codes: 0 success, 1 verification
failure, 2 configuration error.  Numbers are printed with 17 significant
digits so CSV output round-trips exactly.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .model import (
    DispersionSpec,
    FieldConfig,
    ModelSpec,
    bcs_config,
    build_momentum_set,
    build_transfer_set,
    field_norm,
    nondegeneracy_check,
    random_config,
)
from .potential import (
    ExternalField,
    potential_full,
    potential_reduced,
    vbcs_sum,
)
from .gap import critical_coupling, solve_gap, solve_gap_external
from .bound import bound_report
from .expansion import (
    analytic_hessian,
    coefficients,
    coefficients_external,
    decomposition_lhs,
    default_fd_step,
    fd_hessian,
    remainder,
)
from .gaussian import eps_int2, gaussian_report, lambda2, lambda2_zero

FMT = "%.17g"


class ConfigError(ValueError):
    pass


CONFIG_KEYS = {
    "d": int,
    "L": float,
    "beta": float,
    "nu": float,
    "mu": float,
    "t": float,
    "dispersion": str,
    "lambda": float,
    "lambda_factor": float,
    "energy_window": float,
}


def parse_config(path: str | None) -> dict:
    values: dict = {}
    if path is None:
        return values
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key](val)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {val!r}")
    return values


def build_spec(cfg: dict):
    """ModelSpec from config values; lambda defaults to lambda_factor * lambda_c."""
    disp = DispersionSpec(kind=cfg.get("dispersion", "tight_binding"), t=cfg.get("t", 1.0))
    base = dict(
        d=cfg.get("d", 1),
        L=cfg.get("L", 16.0),
        beta=cfg.get("beta", 8.0),
        nu=cfg.get("nu", 20.0),
        mu=cfg.get("mu", 0.0),
        dispersion=disp,
        energy_window=cfg.get("energy_window", 1.0),
    )
    try:
        probe = ModelSpec(lam=0.0, **base)
        M0 = build_momentum_set(probe)
        lam_c = critical_coupling(probe, M0)
        if "lambda" in cfg:
            lam = cfg["lambda"]
        else:
            lam = cfg.get("lambda_factor", 2.0) * lam_c
        spec = ModelSpec(lam=lam, **base)
        M = build_momentum_set(spec)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return spec, M, lam_c


def parse_external(arg: str | None) -> ExternalField | None:
    if arg is None:
        return None
    parts = arg.split(",")
    try:
        mag = float(parts[0])
        phase = float(parts[1]) if len(parts) > 1 else 0.0
    except (ValueError, IndexError):
        raise ConfigError(f"bad --external value {arg!r}")
    if mag <= 0:
        raise ConfigError("--external magnitude must be positive")
    return ExternalField(magnitude=mag, phase=phase)


def open_output(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w"), True


def emit_csv(path: str | None, header: list, rows: list):
    out, close = open_output(path)
    try:
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(
                ",".join(
                    FMT % v if isinstance(v, float) else str(v) for v in row
                )
                + "\n"
            )
    finally:
        if close:
            out.close()


def q_label(q) -> str:
    return f"({q.n0};{';'.join(str(mi) for mi in q.m)})"


def cmd_lattice_info(args) -> int:
    spec, M, lam_c = build_spec(parse_config(args.config))
    Q = build_transfer_set(M)
    print(f"momenta {len(M)}")
    print(f"transfers {len(Q)}")
    print(f"lambda_c {FMT % lam_c}")
    print(f"lambda {FMT % spec.lam}")
    print(f"kappa {FMT % spec.kappa}")
    print(f"nondegenerate {nondegeneracy_check(spec, Q)}")
    return 0


def cmd_gap(args) -> int:
    spec, M, lam_c = build_spec(parse_config(args.config))
    r = parse_external(args.external)
    if r is not None:
        sol = solve_gap_external(spec, M, r, tol=args.tol)
        print(f"y0 {FMT % sol.y0}")
    else:
        sol = solve_gap(spec, M, tol=args.tol)
    print(f"r0 {FMT % sol.r0}")
    print(f"delta_sq {FMT % sol.delta_sq}")
    print(f"residual {FMT % sol.residual}")
    print(f"v_min_sum {FMT % sol.v_min_sum}")
    print(f"v_min_cosh {FMT % sol.v_min_cosh}")
    print(f"trivial {sol.trivial}")
    print(f"lambda_over_lambda_c {FMT % (spec.lam / lam_c)}")
    return 0


def cmd_eval(args) -> int:
    spec, M, _ = build_spec(parse_config(args.config))
    Q = build_transfer_set(M)
    phi = random_config(spec, Q, args.scale, args.seed)
    full = potential_full(spec, M, phi)
    red = potential_reduced(spec, M, phi)
    print(f"seed {args.seed}")
    print(f"norm_sq {FMT % field_norm(phi)}")
    print(f"re_v_full {FMT % full.total.real}")
    print(f"im_v_full {FMT % full.total.imag}")
    print(f"re_v_reduced {FMT % red.total.real}")
    print(f"vbcs_at_norm {FMT % vbcs_sum(spec, M, math.sqrt(field_norm(phi)))}")
    return 0


def cmd_verify_bound(args) -> int:
    spec, M, _ = build_spec(parse_config(args.config))
    Q = build_transfer_set(M)
    sol = solve_gap(spec, M)
    rows = []
    ok_all = True
    configs = [("bcs", bcs_config(spec, Q, sol.r0, 0.0))]
    configs += [
        (str(s), random_config(spec, Q, args.scale, s))
        for s in range(args.seed, args.seed + args.count)
    ]
    for label, phi in configs:
        rep = bound_report(spec, M, phi)
        ok_all &= rep.chain_ok
        rows.append(
            (label, rep.re_v, rep.rhs26, rep.vbcs_at_norm, int(rep.chain_ok))
        )
    emit_csv(args.output, ["seed", "re_v", "rhs26", "vbcs_norm", "chain_ok"], rows)
    print(f"configurations {len(rows)}")
    print(f"all_chains_ok {ok_all}")
    return 0 if ok_all else 1


def cmd_expand(args) -> int:
    spec, M, _ = build_spec(parse_config(args.config))
    Q = build_transfer_set(M)
    sol = solve_gap(spec, M)
    qf = coefficients(spec, M, Q, sol.r0, 0.0)
    lhs = decomposition_lhs(spec, M, Q, sol.delta_sq)
    resid = np.abs(lhs - (qf.alpha + 1j * qf.gamma + qf.beta_coef))
    rows = [
        (q_label(q), float(qf.alpha[i]), float(qf.beta_coef[i]), float(qf.gamma[i]),
         float(resid[i]))
        for i, q in enumerate(Q.momenta)
    ]
    emit_csv(args.output, ["q", "alpha", "beta", "gamma", "identity_residual"], rows)
    print(f"beta0 {FMT % qf.beta0}")
    print(f"v_min {FMT % qf.v_min}")
    print(f"theta0 {FMT % qf.theta0}")
    print(f"max_identity_residual {FMT % float(resid.max())}")
    return 0 if float(resid.max()) <= 1e-12 else 1


def _hessian_coords(Q, max_orbits: int):
    """Zero-mode coordinates plus the first few {q, -q} orbits."""
    coords = [2 * Q.zero_index, 2 * Q.zero_index + 1]
    seen = {Q.zero_index}
    order = np.argsort(Q.qnorm)
    taken = 0
    for i in order:
        i = int(i)
        if i in seen:
            continue
        j = int(Q.neg_index[i])
        seen.update((i, j))
        coords += [2 * i, 2 * i + 1, 2 * j, 2 * j + 1]
        taken += 1
        if taken >= max_orbits:
            break
    return np.array(coords, dtype=int)


def cmd_hessian_check(args) -> int:
    spec, M, _ = build_spec(parse_config(args.config))
    Q = build_transfer_set(M)
    if spec.lam == 0.0:
        base = bcs_config(spec, Q, 0.0, 0.0)
        coords = _hessian_coords(Q, 2)
        hre, him = fd_hessian(spec, M, base, 1e-4 * math.sqrt(spec.kappa), coords=coords)
        err = max(
            np.max(np.abs(hre - 2.0 * np.eye(len(coords)))), np.max(np.abs(him))
        )
        print(f"lambda0_identity_error {FMT % float(err)}")
        return 0 if err <= 1e-6 else 1
    sol = solve_gap(spec, M)
    qf = coefficients(spec, M, Q, sol.r0, 0.0)
    are, aim = analytic_hessian(spec, qf)
    coords = _hessian_coords(Q, args.orbits)
    h = default_fd_step(spec, sol.r0)
    fre, fim = fd_hessian(spec, M, bcs_config(spec, Q, sol.r0, 0.0), h, coords=coords)
    scale = max(np.max(np.abs(are)), 1.0)
    err_re = np.max(np.abs(fre - are[np.ix_(coords, coords)])) / scale
    err_im = np.max(np.abs(fim - aim[np.ix_(coords, coords)])) / scale
    print(f"hessian_rel_error_re {FMT % float(err_re)}")
    print(f"hessian_rel_error_im {FMT % float(err_im)}")
    ok = err_re <= args.tol and err_im <= args.tol
    rng = np.random.default_rng(args.seed)
    t = 1e-2 * math.sqrt(spec.kappa)
    ratios = []
    for _ in range(args.count):
        xi = FieldConfig(
            Q, rng.standard_normal(len(Q)) + 1j * rng.standard_normal(len(Q))
        )
        xi.values /= math.sqrt(float(np.sum(np.abs(xi.values) ** 2)))
        r1 = remainder(spec, M, qf, xi, t)
        r2 = remainder(spec, M, qf, xi, t / 2.0)
        ratios.append(r1 / r2 if r2 > 0 else math.inf)
    ratios = np.array(ratios)
    print(f"remainder_ratio_min {FMT % float(ratios.min())}")
    print(f"remainder_ratio_max {FMT % float(ratios.max())}")
    ok &= bool(np.all((ratios >= 6.0) & (ratios <= 10.0)))
    print(f"pass {ok}")
    return 0 if ok else 1


def cmd_gaussian(args) -> int:
    cfg = parse_config(args.config)
    spec, M, _ = build_spec(cfg)
    if spec.lam == 0.0:
        print("lambda = 0: the pair correlation is the free bubble; "
              "use a nonzero coupling", file=sys.stderr)
        return 2
    Q = build_transfer_set(M)
    sol = solve_gap(spec, M)
    qf = coefficients(spec, M, Q, sol.r0, 0.0)
    rep = gaussian_report(spec, qf, include_zero_mode=args.include_zero_mode)
    rows = [
        (q_label(q), float(v.real), float(v.imag))
        for q, v in rep.lambda2.items()
    ]
    emit_csv(args.output, ["q", "re_lambda2", "im_lambda2"], rows)
    print(f"log_z2 {FMT % rep.log_z2}")
    print(f"eps_int2 {FMT % rep.eps_int2}")
    print(f"lambda2_zero {FMT % lambda2_zero(spec, qf)}")
    print(f"zero_mode {rep.q0_zero_handling}")
    return 0


def parse_sweep(arg: str):
    try:
        key, _, grid = arg.partition("=")
        start, stop, steps = grid.split(":")
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError:
        raise ConfigError(f"bad --sweep value {arg!r}")
    if key not in ("lambda", "lambda_factor", "beta", "L"):
        raise ConfigError(f"cannot sweep key {key!r}")
    if steps <= 0:
        raise ConfigError("sweep grid is empty")
    return key, np.linspace(start, stop, steps)


def cmd_scan(args) -> int:
    if args.sweep is None:
        raise ConfigError("scan requires --sweep KEY=START:STOP:STEPS")
    key, grid = parse_sweep(args.sweep)
    cfg = parse_config(args.config)
    rows = []
    for val in grid:
        here = dict(cfg)
        here[key] = int(val) if key == "L" and float(val).is_integer() else float(val)
        if key == "lambda_factor":
            here.pop("lambda", None)
        spec, M, _ = build_spec(here)
        Q = build_transfer_set(M)
        sol = solve_gap(spec, M)
        if sol.trivial or spec.lam == 0.0:
            rows.append((float(val), sol.r0, 0.0, 0.0))
            continue
        qf = coefficients(spec, M, Q, sol.r0, 0.0)
        # reference transfer: smallest nonzero spatial one (the infrared
        # direction); fall back to the overall smallest if none exists
        nz = [i for i in range(len(Q)) if i != Q.zero_index and Q.n0[i] == 0]
        if not nz:
            nz = [i for i in range(len(Q)) if i != Q.zero_index]
        iq = min(nz, key=lambda i: Q.qnorm[i])
        rows.append(
            (
                float(val),
                sol.r0,
                abs(lambda2(spec, qf, iq)),
                eps_int2(spec, qf, include_zero_mode=args.include_zero_mode),
            )
        )
    emit_csv(args.output, [key, "r0", "abs_lambda2_qmin", "eps_int2"], rows)
    print(f"points {len(rows)}")
    return 0


def cmd_external(args) -> int:
    spec, M, _ = build_spec(parse_config(args.config))
    r = parse_external(args.external) or ExternalField(magnitude=1e-2)
    Q = build_transfer_set(M)
    sol = solve_gap_external(spec, M, r, tol=args.tol)
    qf = coefficients_external(spec, M, Q, sol.y0, r)
    print(f"y0 {FMT % sol.y0}")
    print(f"delta_sq {FMT % sol.delta_sq}")
    print(f"residual {FMT % sol.residual}")
    print(f"v_min {FMT % sol.v_min_sum}")
    print(f"beta0 {FMT % qf.beta0}")
    print(f"shift {FMT % qf.shift}")
    return 0


OPTIONS = {
    "config": dict(help="key = value configuration file"),
    "seed": dict(type=int, default=0),
    "count": dict(type=int, default=10),
    "tol": dict(type=float, default=1e-12),
    "scale": dict(type=float, default=1.0),
    "output": dict(help="CSV output path (default stdout)"),
    "external": dict(metavar="MAG[,PHASE]"),
    "include-zero-mode": dict(
        type=lambda s: s.lower() in ("1", "true", "yes"), default=True, metavar="BOOL"
    ),
    "sweep": dict(metavar="KEY=START:STOP:STEPS"),
    "orbits": dict(type=int, default=3, help="pair orbits in the restricted Hessian block"),
}

# subcommand -> (handler, the options it reads besides --config)
COMMANDS = {
    "lattice-info": (cmd_lattice_info, ()),
    "gap": (cmd_gap, ("external", "tol")),
    "eval": (cmd_eval, ("seed", "scale")),
    "verify-bound": (cmd_verify_bound, ("seed", "count", "scale", "output")),
    "expand": (cmd_expand, ("output",)),
    "hessian-check": (cmd_hessian_check, ("seed", "count", "tol", "orbits")),
    "gaussian": (cmd_gaussian, ("include-zero-mode", "output")),
    "scan": (cmd_scan, ("sweep", "include-zero-mode", "output")),
    "external": (cmd_external, ("external", "tol")),
}
# finite differencing cannot resolve the Hessian below 1e-4
DEFAULTS = {"verify-bound": {"count": 200}, "hessian-check": {"tol": 1e-4}}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each with only the options its handler reads."""
    parser = argparse.ArgumentParser(prog="bcslab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in COMMANDS.items():
        p = sub.add_parser(name)
        for opt in ("config",) + options:
            p.add_argument("--" + opt, **OPTIONS[opt])
        p.set_defaults(**DEFAULTS.get(name, {}))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # NaN fails this test too; only the subcommands that read --tol have it
    if "tol" in args and not args.tol > 0:
        print("error: --tol must be positive", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command][0](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
