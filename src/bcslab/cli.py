"""Command-line driver.

Subcommands: lattice-info, gap, eval, verify-bound, expand, hessian-check,
gaussian, scan, external.  Configuration comes from a plain key = value file
(--config); unknown keys and non-finite numbers are rejected.  Exit codes:
0 success, 1 verification failure, 2 configuration error (including an
--output path that cannot be opened, a gap equation the solver cannot solve,
an external field at lambda = 0, gaussian or hessian-check with a trivial gap,
and dense matrices that eval, verify-bound or hessian-check would build
beyond physical memory).  Numbers are printed with 17 significant digits so
CSV output round-trips exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from .model import (
    ExternalField,
    FieldConfig,
    ModelSpec,
    bcs_config,
    build_momentum_set,
    build_transfer_set,
    field_norm,
    nondegeneracy_check,
    random_config,
)
from .potential import potential_full, potential_reduced
from .gap import (
    GapConvergenceError,
    critical_coupling,
    solve_gap,
    solve_gap_external,
    vbcs_sum,
)
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


# ModelSpec's fields but lam, each parsed by its default's type; lam is lambda
# or lambda_factor * lambda_c
CONFIG_KEYS = {
    **{f.name: type(f.default) for f in dataclasses.fields(ModelSpec) if f.name != "lam"},
    "lambda": float,
    "lambda_factor": float,
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
            value = CONFIG_KEYS[key](val)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {val!r}")
        values[key] = value
    return values


def build_spec(cfg: dict):
    """ModelSpec from the keys the config sets, the rest at ModelSpec's
    defaults; lambda defaults to lambda_factor * lambda_c."""
    base = {k: v for k, v in cfg.items() if k not in ("lambda", "lambda_factor")}
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


def parse_external(arg: str | None, spec) -> ExternalField | None:
    if arg is None:
        return None
    mag, comma, phase = arg.partition(",")  # all after the first comma is the phase
    try:
        mag = float(mag)
        phase = float(phase) if comma else 0.0
    except ValueError:
        raise ConfigError(f"bad --external value {arg!r}")
    if not 0 < mag < math.inf:
        raise ConfigError("--external magnitude must be positive and finite")
    if not math.isfinite(phase):
        raise ConfigError("--external phase must be finite")
    r = ExternalField(magnitude=mag, phase=phase)
    try:
        r.ratio(spec)  # the field's own lambda rule
    except ValueError as exc:
        raise ConfigError(f"--external {exc}") from None
    return r


def check_output(path: str | None):
    """A ConfigError unless --output PATH (None or - for stdout) can be opened
    for writing: append mode creates a missing file and keeps an existing one."""
    try:
        if path not in (None, "-"):
            open(path, "a").close()
    except OSError as exc:
        raise ConfigError(f"cannot write --output {path}: {exc.strerror or exc}") from None


def emit_csv(path: str | None, header: list, rows: list):
    """The header and a list of row tuples as CSV.  Each column holds one type,
    so one %-format, floats as FMT and anything else as str, serves every row."""
    out = sys.stdout if path in (None, "-") else open(path, "w")
    try:
        out.write(",".join(header) + "\n")
        if rows:
            line = ",".join(FMT if isinstance(v, float) else "%s" for v in rows[0])
            out.writelines(map((line + "\n").__mod__, rows))
    finally:
        if out is not sys.stdout:
            out.close()


def _scaled_field(spec, M, Q, scale: float, seed: int, hadamard: bool = False) -> FieldConfig:
    """random_config, or a ConfigError naming --scale if its arrays can overflow.

    For each k, p -> k - p is injective, so every entry of Cbar phi C phi^H,
    and every partial sum forming it, is at most max|1/a_k|^2 sum_q |phi_q|^2.
    With `hadamard`, for the bound's overlaps too: they square (lambda/kappa)
    A(q), and |A(q)| <= sum_q |phi_q|^2; autocorrelation_all's |f|^2 and the
    partial sums of its inverse FFT are at most P sum_q |phi_q|^2 (Parseval),
    P the size of the padded FFT box.
    """
    phi = random_config(spec, Q, 1.0, seed)
    with np.errstate(over="ignore"):  # the factor 2 leaves headroom for the products
        total = np.sum(np.abs(phi.values) ** 2)  # sum_q |phi_q|^2, still unscaled
        bounds = [np.float64(2.0 * scale / np.min(np.abs(M.a))) ** 2 * total]
        if hadamard:
            total *= np.float64(scale) ** 2
            bounds += [(2.0 * spec.lam / spec.kappa * total) ** 2,
                       2.0 * math.prod(Q.fft_box[0]) * total]
    if not np.all(np.isfinite(bounds)):
        raise ConfigError(f"--scale must be small enough for finite matrices, not {scale:g}")
    phi.values *= scale
    return phi


def worker_bytes(command: str, Q) -> int:
    """Bytes that one worker of `command` holds at once on Q's lattice, at
    least.  eval: its 2N x 2N complex block.  verify-bound: two N x N complex
    scratch buffers (model.TransferSet.scratch), in which LAPACK factors R in
    place, and the larger of reduced_matrix's N^2/4 block and
    autocorrelation_all's three complex arrays of the FFT box (built here,
    before any worker reads it).  hessian-check: the two scratch buffers, the
    N x N product G that `potential_ray` holds beside them, and the
    N x N mask by which `logdet` checks that R is finite (49 bytes per pair).
    Each adds 32 MiB for BLAS and LAPACK, their code and the buffers their
    gemm and LU touch.  Peak RSS above import per worker, one BLAS thread,
    against this count, in MiB: at N = 1400 (d = 2 L = 8) eval 138 of 152,
    hessian-check 114 of 124, verify-bound --count 3 91 of 102 with one
    worker and 87 with two; at N = 1600 (d = 3 L = 4) hessian-check 150 of
    152, verify-bound 151 of 163 with one and 144 with two."""
    n, libraries = Q.n_momenta, 32 * 2**20
    if command == "eval":
        return 64 * n * n + libraries
    if command == "hessian-check":
        return 49 * n * n + libraries
    return 32 * n * n + max(4 * n * n, 48 * math.prod(Q.fft_box[0])) + libraries


def physical_memory() -> int:
    """Bytes of physical memory: pages times page size."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def usable_cores() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def dense_preflight(command: str, Q, workers: int = 1) -> int:
    """Run before `command` builds dense N x N matrices on Q's lattice: how
    many of `workers` fit what each holds (`worker_bytes`) in physical
    memory, or a ConfigError naming N if not even one does."""
    each = worker_bytes(command, Q)
    have = physical_memory()
    if each > have:
        raise ConfigError(
            f"{command} on N = {Q.n_momenta} momenta needs {each / 2**30:.3g} GiB "
            f"per worker, more than the {have / 2**30:.3g} GiB of physical memory"
        )
    return min(workers, have // each)


def q_labels(Q) -> list:
    """Every transfer of Q as (n0;m1;...), in Q's order: Q = freq_n0 x
    spatial_m, so each frequency and each spatial vector is formatted once."""
    spatial = [";".join(map(str, m)) for m in Q.spatial_m.tolist()]
    return [f"({n0};{m})" for n0 in Q.freq_n0.tolist() for m in spatial]


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
    r = parse_external(args.external, spec)
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
    dense_preflight("eval", Q)
    phi = _scaled_field(spec, M, Q, args.scale, args.seed)
    full = potential_full(spec, M, phi)
    red = potential_reduced(spec, M, phi)
    print(f"seed {args.seed}")
    print(f"norm_sq {FMT % field_norm(phi)}")
    print(f"re_v_full {FMT % full.real}")
    print(f"im_v_full {FMT % full.imag}")
    print(f"re_v_reduced {FMT % red.real}")
    print(f"vbcs_at_norm {FMT % vbcs_sum(spec, M, math.sqrt(field_norm(phi)))}")
    return 0


def cmd_verify_bound(args) -> int:
    # imported here: the other subcommands run no pool
    from concurrent.futures import ThreadPoolExecutor

    spec, M, _ = build_spec(parse_config(args.config))
    seeds = [None] + list(range(args.seed, args.seed + args.count))  # None: the BCS field
    Q = build_transfer_set(M)
    workers = dense_preflight("verify-bound", Q, min(usable_cores(), len(seeds)))
    sol = solve_gap(spec, M)

    def row(seed):
        """One field's CSV row; the field is drawn here, so each worker holds
        one |Q| vector at a time."""
        if seed is None:
            label, phi = "bcs", bcs_config(spec, Q, sol.r0, 0.0)
        else:
            label, phi = str(seed), _scaled_field(spec, M, Q, args.scale, seed, hadamard=True)
        rep = bound_report(spec, M, phi)
        return (label, rep.re_v, rep.rhs26, rep.vbcs_at_norm, int(rep.chain_ok))

    pool = ThreadPoolExecutor(workers)
    try:
        rows = list(pool.map(row, seeds))  # in seed order; a field's error is raised here
    finally:
        pool.shutdown(cancel_futures=True)  # after an error, the queued fields are dropped
    ok_all = all(r[4] for r in rows)
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
    rows = list(zip(
        q_labels(Q), qf.alpha.tolist(), qf.beta_coef.tolist(), qf.gamma.tolist(),
        resid.tolist(),
    ))
    emit_csv(args.output, ["q", "alpha", "beta", "gamma", "identity_residual"], rows)
    print(f"beta0 {FMT % qf.beta0}")
    print(f"v_min {FMT % qf.v_min}")
    print(f"theta0 {FMT % qf.theta0}")
    print(f"max_identity_residual {FMT % float(resid.max())}")
    return 0 if float(resid.max()) <= 1e-12 else 1


def _hessian_coords(Q, max_orbits: int):
    """Zero-mode coordinates plus the max_orbits {q, -q} orbits of smallest
    |q|, each as its lower index (below zero_index) then its partner; a stable
    sort sends ties (permuted spatial vectors) to the lower Q index."""
    lower = np.argsort(Q.qnorm[: Q.zero_index], kind="stable")[:max_orbits]
    pairs = np.column_stack((lower, Q.neg_index[lower])).ravel()
    t = np.concatenate(([Q.zero_index], pairs))
    return np.column_stack((2 * t, 2 * t + 1)).ravel()


# with lambda = 0, V = sum |phi_q|^2, so the FD Hessian is 2 Id up to rounding;
# --tol can tighten this bound but not loosen it
LAMBDA0_TOL = 1e-6


def ordered_gap(spec, M, lam_c: float, why: str):
    """solve_gap, or a ConfigError naming lambda/lambda_c if lambda <= lambda_c."""
    sol = solve_gap(spec, M)
    if sol.trivial:
        shown = f"{spec.lam / lam_c:.6g}"
        op = "<" if float(shown) < 1.0 else "<="  # as printed: lambda_c reads "1 <= 1"
        raise ConfigError(f"lambda/lambda_c = {shown} {op} 1, so r0 = 0: {why}")
    return sol


def cmd_hessian_check(args) -> int:
    spec, M, lam_c = build_spec(parse_config(args.config))
    Q = build_transfer_set(M)
    dense_preflight("hessian-check", Q)
    n_orbits = (len(Q) - 1) // 2  # q = 0 is its own partner
    if args.orbits > n_orbits:
        raise ConfigError(
            f"--orbits must be at most {n_orbits}, the {{q, -q}} orbits of this lattice"
        )
    coords = _hessian_coords(Q, args.orbits)
    if spec.lam == 0.0:
        base = bcs_config(spec, Q, 0.0, 0.0)
        hre, him = fd_hessian(spec, M, base, 1e-4 * math.sqrt(spec.kappa), coords=coords)
        err = max(
            np.max(np.abs(hre - 2.0 * np.eye(len(coords)))), np.max(np.abs(him))
        )
        print(f"lambda0_identity_error {FMT % float(err)}")
        return 0 if err <= min(args.tol, LAMBDA0_TOL) else 1
    sol = ordered_gap(spec, M, lam_c, "the Hessian and remainder expand about r0 > 0")
    qf = coefficients(spec, M, Q, sol.r0, 0.0)
    are, aim = analytic_hessian(spec, qf, coords=coords)
    h = default_fd_step(spec, qf.r0)
    fre, fim = fd_hessian(spec, M, bcs_config(spec, Q, qf.r0, qf.theta0), h, coords=coords)
    # the block's largest entry is at most the full Hessian's: --tol is no looser
    scale = max(np.max(np.abs(are)), 1.0)
    err_re = np.max(np.abs(fre - are)) / scale
    err_im = np.max(np.abs(fim - aim)) / scale
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
        r1, r2 = remainder(spec, M, qf, xi, (t, t / 2.0))
        ratios.append(r1 / r2 if r2 > 0 else math.inf)
    ratios = np.array(ratios)
    print(f"remainder_ratio_min {FMT % float(ratios.min())}")
    print(f"remainder_ratio_max {FMT % float(ratios.max())}")
    ok &= bool(np.all((ratios >= 6.0) & (ratios <= 10.0)))
    print(f"pass {ok}")
    return 0 if ok else 1


def cmd_gaussian(args) -> int:
    spec, M, lam_c = build_spec(parse_config(args.config))
    sol = ordered_gap(spec, M, lam_c, "the pair correlation is the free bubble")
    Q = build_transfer_set(M)
    qf = coefficients(spec, M, Q, sol.r0, 0.0)
    rep = gaussian_report(spec, qf, include_zero_mode=args.include_zero_mode)
    labels = q_labels(Q)
    rows = list(zip(
        [labels[i] for i in Q.nonzero.tolist()],
        rep.lambda2.real.tolist(),
        rep.lambda2.imag.tolist(),
    ))
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
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError
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
        here[key] = float(val)
        if key == "lambda_factor":
            here.pop("lambda", None)
        spec, M, _ = build_spec(here)
        Q = build_transfer_set(M)
        sol = solve_gap(spec, M)
        if sol.trivial:
            rows.append((float(val), sol.r0, 0.0, 0.0))
            continue
        qf = coefficients(spec, M, Q, sol.r0, 0.0)
        # reference transfer: smallest nonzero spatial one (the infrared
        # direction); fall back to the overall smallest if none exists.
        # argmin takes the first minimum, so ties go to the lower index
        nz = Q.nonzero
        if np.any(Q.n0[nz] == 0):
            nz = nz[Q.n0[nz] == 0]
        iq = int(nz[np.argmin(Q.qnorm[nz])])
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
    r = parse_external(args.external, spec)
    Q = build_transfer_set(M)
    sol = solve_gap_external(spec, M, r, tol=args.tol)
    try:
        qf = coefficients_external(spec, M, Q, sol.y0, r)
    except OverflowError as exc:
        raise ConfigError(f"--external {r.magnitude:g} too large: {exc}") from None
    print(f"y0 {FMT % sol.y0}")
    print(f"delta_sq {FMT % sol.delta_sq}")
    print(f"residual {FMT % sol.residual}")
    print(f"v_min {FMT % sol.v_min_sum}")
    print(f"beta0 {FMT % qf.beta0}")
    print(f"shift {FMT % qf.shift}")
    return 0


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

OPTIONS = {
    "config": dict(help="key = value configuration file"),
    "seed": dict(type=int, default=0),
    "count": dict(type=int, default=10),
    "tol": dict(type=float, default=1e-12),
    "scale": dict(type=float, default=1.0),
    "output": dict(help="CSV output path (default stdout)"),
    "external": dict(metavar="MAG[,PHASE]"),
    # any other spelling parses to None, which VALID rejects
    "include-zero-mode": dict(
        type=lambda s: _BOOLS.get(s.lower()), default=True, metavar="BOOL"
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
# subcommand -> option -> settings that replace those in OPTIONS there
OVERRIDES = {
    "verify-bound": {"count": dict(default=200)},
    "external": {
        "external": dict(default="1e-2", help="pairing field (default %(default)s)")
    },
    # finite differencing cannot resolve the Hessian below 1e-4
    "hessian-check": {
        "tol": dict(
            default=1e-4,
            help="bound on the Hessian's relative error (default 1e-4); with "
            "lambda = 0 the identity check uses min(TOL, 1e-6)",
        )
    },
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each with only the options its handler reads."""
    parser = argparse.ArgumentParser(prog="bcslab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in COMMANDS.items():
        p = sub.add_parser(name)
        for opt in ("config",) + options:
            settings = {**OPTIONS[opt], **OVERRIDES.get(name, {}).get(opt, {})}
            p.add_argument("--" + opt, **settings)
    return parser


# option -> (test its value must pass, what it must be); NaN fails every test
VALID = {
    "tol": (lambda x: x > 0, "positive"),
    "count": (lambda x: x >= 1, "at least 1"),
    "orbits": (lambda x: x >= 1, "at least 1"),
    "seed": (lambda x: x >= 0, "nonnegative"),
    "scale": (lambda x: 0 <= x < math.inf, "finite and nonnegative"),
    "include-zero-mode": (lambda x: x is not None, "1, true, yes, 0, false or no"),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # only the subcommands that read an option have it
    for opt, (ok, must) in VALID.items():
        dest = opt.replace("-", "_")
        if dest in args and not ok(getattr(args, dest)):
            print(f"error: --{opt} must be {must}", file=sys.stderr)
            return 2
    try:
        # before any lattice work, so a bad path costs nothing
        check_output(getattr(args, "output", None))
        return COMMANDS[args.command][0](args)
    except (ConfigError, GapConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
