"""Command-line front end and all file emission.

Subcommands: eigs, oracle-eigs, complexity, classify, density, verify-reduction,
reproduce.  Numbers are serialized with 17 significant digits so emitted
tables round-trip exactly; identical configurations produce byte-identical
output files, except for the wall times in the ``seconds`` column of the
``reproduce`` report.  Exit codes: 0 success, 1 numeric failure (an internal
consistency check fired), 2 invalid arguments or an unreadable or unwritable
path, 3 resource guard or out of memory, 4 acceptance/verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .complexity import (ComplexityQuery, check_goodcase_sobolev_min, classify,
                         count_info_complexity_all)
from .eigensolve import (ANALYTIC_FAMILIES, family_count_bound, family_eigenpair,
                         family_eigenpairs, family_eigenvalues, family_exact_decay)
from .errors import NumericError, ParameterError, ResourceLimitError, TruncationError
from .nystrom import midpoint_grid, nystrom_solver, nystrom_spectrum, richardson_refine
from .reduction import (load_problem, random_problem, top_eigenpair,
                        verify_domination, verify_e0_characterization)
from .spectra import FAMILIES, KernelSpec
from .svgplot import line_plot_svg

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_FAILURE = 4

_DENSITY_QUAD_NODES = 1025   # odd: composite Simpson pairs the 1024 panels
_MAX_EIGENVALUES = 2 ** 21    # univariate eigenvalues one eigs or complexity call may build
_CSV_SPECIAL = frozenset(',"\r\n')   # a text field holding one of these is quoted


def _fmt(v) -> str:
    """One CSV field: None is empty, as JSON's null; a text field with a comma,
    a quote or a line break is quoted as csv.QUOTE_MINIMAL quotes it, each
    inner quote doubled."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return format(v, ".17g")
    text = str(v)
    return text if _CSV_SPECIAL.isdisjoint(text) else '"' + text.replace('"', '""') + '"'


def _csv_lines(rows):
    return (",".join(_fmt(v) for v in row) + "\n" for row in rows)


def _write_csv(path, header, lines) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def _json_text(obj) -> str:
    """Strict JSON: a NaN or infinity is a numeric failure, never a bare token."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"non-finite number in the output: {exc}") from exc


def _write_json(path, obj) -> None:
    text = _json_text(obj)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def _emit(args, header, lines, payload) -> None:
    """Write CSV lines or the payload as JSON, to --out or stdout."""
    fmt = args.format or "csv"
    if args.out:
        if fmt == "json":
            _write_json(args.out, payload)
        else:
            _write_csv(args.out, header, lines)
    elif fmt == "json":
        print(_json_text(payload))
    else:
        print(",".join(header))
        sys.stdout.writelines(lines)


def _family_spec(args) -> KernelSpec:
    # only oracle-eigs takes --anchor
    return KernelSpec(family=args.family, alpha=args.alpha, beta=args.beta,
                      a=getattr(args, "anchor", None))


# ---------------------------------------------------------------------------
# density helpers (shared with the acceptance suite)
# ---------------------------------------------------------------------------

def density_profile(samples: int):
    """Grid values of g_1 = lambda_1^(-1/2) eta_1 for the min-kernel Sobolev
    family, plus the composite-Simpson check of int g_1^2 over [0, 1]."""
    if samples < 2:
        raise ParameterError("need at least two sample points")
    pair = family_eigenpair(KernelSpec("sobolev-min"), 1)
    scale = 1.0 / math.sqrt(pair.value)
    xs = np.linspace(0.0, 1.0, samples)
    ys = scale * pair.func(xs)
    f = (scale * pair.func(np.linspace(0.0, 1.0, _DENSITY_QUAD_NODES))) ** 2
    h = 1.0 / (_DENSITY_QUAD_NODES - 1)
    integral = float(h / 3.0 * (f[0] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum() + f[-1]))
    return xs, ys, integral


def density_svg(xs, ys) -> str:
    return line_plot_svg(xs, ys, title="unit-norm density matching the initial error",
                         xlabel="x", ylabel="g1")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eigs(args) -> int:
    spec = _family_spec(args)
    if args.count > _MAX_EIGENVALUES:
        raise ResourceLimitError(f"--count {args.count} exceeds 2^21 eigenpairs")
    values, params = family_eigenpairs(spec, args.count)
    keys = sorted(params)
    header = ["j", "lambda"] + keys
    columns = [range(1, args.count + 1), values.tolist()] + [params[k].tolist() for k in keys]
    payload = None
    if args.format == "json":   # one dict per row only where it is written
        payload = {
            "family": spec.label(),
            "exact_decay": family_exact_decay(spec),
            "eigenpairs": [dict(zip(header, row)) for row in zip(*columns)],
        }
    line = "%d" + ",%.17g" * (len(header) - 1) + "\n"   # one template a row, _fmt's bytes
    _emit(args, header, map(line.__mod__, zip(*columns)), payload)
    return EXIT_OK


def cmd_oracle_eigs(args) -> int:
    spec = _family_spec(args)
    if args.refine:
        try:
            sizes = [int(s) for s in args.refine.split(",")]
        except ValueError:
            raise ParameterError(f"--refine needs comma-separated integers, "
                                 f"got {args.refine!r}") from None
        refined = richardson_refine(spec, args.count, sizes)
        values = refined.eigensequence.values
        errs = refined.error_estimates
        header = ["j", "lambda", "error_estimate"]
        rows = [[j + 1, float(v), float(e)] for j, (v, e) in enumerate(zip(values, errs))]
    else:
        seq = nystrom_spectrum(spec, midpoint_grid(args.grid_size), args.count)
        header = ["j", "lambda"]
        rows = [[j + 1, float(v)] for j, v in enumerate(seq.values)]
    # --refine solves its own grids, never --grid-size
    grid_size = None if args.refine else args.grid_size
    payload = {"family": spec.label(), "grid_size": grid_size, "solver": nystrom_solver(spec),
               "refine": args.refine or None,
               "eigenvalues": [dict(zip(header, row)) for row in rows]}
    _emit(args, header, _csv_lines(rows), payload)
    return EXIT_OK


def cmd_complexity(args) -> int:
    spec = _family_spec(args)
    query = ComplexityQuery(eps=args.eps, d=args.d, info_class=args.info_class)
    # one eigenvalue past the closed-form bound ends the list below every counted one
    length = family_count_bound(spec, query.eps) + 1
    if length > _MAX_EIGENVALUES:
        raise ResourceLimitError("eps requires more than 2^21 univariate eigenvalues")
    result = count_info_complexity_all(family_eigenvalues(spec, int(length)), query)
    header = ["family", "d", "eps", "info_class", "count", "saturated",
              "lower_bound_only", "truncation_index", "tie_tolerance", "method"]
    row = [spec.label(), args.d, args.eps, args.info_class, result.count,
           result.saturated, result.lower_bound_only, result.truncation_index,
           result.tie_tolerance, result.method]
    payload = dict(zip(header, row))
    _emit(args, header, _csv_lines([row]), payload)
    return EXIT_OK


def cmd_classify(args) -> int:
    spec = _family_spec(args)
    seq = family_eigenvalues(spec, 8)
    lam = seq.values
    goodcase = None
    if spec.family == "sobolev-min":
        goodcase = check_goodcase_sobolev_min(family_eigenpair(spec, 1))
    report = classify(float(lam[0]), float(lam[1]), seq.exact_decay, goodcase)
    payload = {
        "family": spec.label(),
        "lambda1": report.lambda1,
        "lambda2": report.lambda2,
        "decay": report.decay,
        "qpt_exponent": report.qpt_exponent,
        "classification_all": report.classification_all,
        "classification_std": report.classification_std,
        "goodcase_holds": report.goodcase_holds,
        "notes": "classifications state proven rules only; finite-d counts are "
                 "evidence, never proof, and conjectured cases report 'unknown'",
    }
    header = list(payload)
    _emit(args, header, _csv_lines([[payload[k] for k in header]]), payload)
    return EXIT_OK


def cmd_density(args) -> int:
    if args.samples > _MAX_EIGENVALUES:
        raise ResourceLimitError(f"--samples {args.samples} exceeds 2^21 points")
    xs, ys, integral = density_profile(args.samples)
    stem = Path(args.out) if args.out else Path("density")
    if stem.suffix in (".csv", ".svg", ".json"):
        stem = stem.with_suffix("")
    csv_path = stem.with_suffix(".csv")
    svg_path = stem.with_suffix(".svg")
    _write_csv(csv_path, ["x", "g1"], _csv_lines(zip(xs.tolist(), ys.tolist())))
    with open(svg_path, "w", newline="\n") as fh:
        fh.write(density_svg(xs, ys))
    summary = {"csv": str(csv_path), "svg": str(svg_path),
               "unit_mass_check": integral, "unit_mass_defect": abs(integral - 1.0),
               "samples": int(args.samples)}
    print(_json_text(summary))
    return EXIT_OK


def cmd_verify_reduction(args) -> int:
    if args.seed < 0:
        raise ParameterError("need --seed >= 0")
    if args.problems < 1 or args.trials < 1 or args.samples < 1:
        raise ParameterError("need --problems, --trials and --samples >= 1")
    if max(args.problems, args.trials, args.samples) > _MAX_EIGENVALUES:
        raise ResourceLimitError("--problems, --trials and --samples may not exceed 2^21")
    rng = np.random.default_rng(args.seed)
    reports = []
    failures = 0
    if args.problem:
        problems = [(0, load_problem(args.problem))]
    else:   # each random problem has m in [2, 6], k in [1, 4] and draws n in [0, 2]
        problems = []
        for i in range(args.problems):
            m = int(rng.integers(2, 7))
            k = int(rng.integers(1, 5))
            problems.append((i, random_problem(seed=args.seed + 17 * i + 1, m=m, k=k)))
    for i, problem in problems:
        lam1, eta1, _ = top_eigenpair(problem)
        g = (problem.operator_S @ eta1) / math.sqrt(lam1)
        n = int(rng.integers(0, 3))
        dom = verify_domination(problem, g, n=n, trials=args.trials,
                                seed=args.seed + 31 * i)
        char = verify_e0_characterization(problem, samples=args.samples,
                                          seed=args.seed + 53 * i)
        failures += (not dom.passed) + (not char.passed)
        reports.append({
            "instance": i, "m": problem.m, "k": problem.k, "n": n,
            "domination_passed": dom.passed,
            "e_n_functional": dom.e_n_functional,
            "e_n_operator": dom.e_n_operator,
            "max_pointwise_excess": dom.max_pointwise_excess,
            "characterization_passed": char.passed,
            "multiplicity": char.multiplicity,
            "max_achiever_distance": char.max_achiever_distance,
        })
    payload = {"instances": len(reports), "failures": failures, "reports": reports}
    if args.out:
        _write_json(args.out, payload)
    else:
        print(_json_text(payload))
    return EXIT_OK if failures == 0 else EXIT_FAILURE


def cmd_reproduce(args) -> int:
    from . import acceptance

    only = set(args.only.split(",")) if args.only else None
    rows = acceptance.run_all(only=only)
    header = ["criterion_id", "description", "expected", "computed", "tolerance", "pass",
              "seconds"]
    table = [[r.criterion_id, r.description, r.expected, r.computed, r.tolerance, r.passed,
              r.seconds] for r in rows]
    payload = [dict(zip(header, row)) for row in table]
    if args.out:
        if (args.format or "json") == "json":
            _write_json(args.out, payload)
        else:
            _write_csv(args.out, header, _csv_lines(table))
    status_width = max(len(r.description) for r in rows)
    for r in rows:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] {r.criterion_id:>4}  {r.description:<{status_width}}  "
              f"computed={_fmt(r.computed)} expected={_fmt(r.expected)} tol={_fmt(r.tolerance)}")
    failed = [r for r in rows if not r.passed]
    print(f"{len(rows) - len(failed)}/{len(rows)} checks passed")
    return EXIT_OK if not failed else EXIT_FAILURE


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensortract",
        description="eigenvalues, information complexity, and tractability "
                    "classification for tensor-product problems on "
                    "reproducing-kernel Hilbert spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, families=(), tabular=True):
        p.add_argument("--out", default=None, help="output path")
        if tabular:
            p.add_argument("--format", choices=["csv", "json"], default=None)
        p.add_argument("--config", default=None,
                       help="flat key=value file supplying defaults (flags win)")
        if families:
            p.add_argument("--family", default="sobolev-min", choices=families)
            p.add_argument("--alpha", type=float, default=None,
                           help="smoothness alpha for the korobov family")
            p.add_argument("--beta", type=float, default=None,
                           help="weight beta for the korobov family")

    p = sub.add_parser("eigs", help="analytic eigenpairs of a family")
    common(p, ANALYTIC_FAMILIES)
    p.add_argument("--count", type=int, default=10)
    p.set_defaults(func=cmd_eigs)

    p = sub.add_parser("oracle-eigs", help="quadrature (Nystrom) spectrum")
    common(p, FAMILIES)
    p.add_argument("--anchor", type=float, default=None,
                   help="anchor a for the sobolev-distance family")
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--grid-size", type=int, default=2000)
    p.add_argument("--refine", default=None,
                   help="comma-separated grid sizes for Richardson extrapolation")
    p.set_defaults(func=cmd_oracle_eigs)

    p = sub.add_parser("complexity", help="exact n(eps, S_d) for linear information")
    common(p, ANALYTIC_FAMILIES)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--info-class", choices=["all", "std"], default="all")
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("classify", help="tractability classification of a family")
    common(p, ANALYTIC_FAMILIES)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("density", help="unit-norm sobolev-min density matching the initial error")
    common(p, tabular=False)
    p.add_argument("--samples", type=int, default=513)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("verify-reduction", help="finite-dimensional reduction checks")
    common(p, tabular=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--problems", type=int, default=100)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--problem", default=None, help="path to a problem file")
    p.set_defaults(func=cmd_verify_reduction)

    p = sub.add_parser("reproduce", help="run the full acceptance suite")
    common(p)
    p.add_argument("--only", default=None, help="comma-separated criterion ids")
    p.set_defaults(func=cmd_reproduce)
    return parser


def _read_config(path: str) -> list[str]:
    """Flat key=value lines become '--key value' argument pairs."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"config file {path} is not UTF-8 text: {exc}") from None
    extra: list[str] = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"malformed config line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        extra.extend([f"--{key}", value])
    return extra


def _merge_config(argv: list[str]) -> list[str]:
    # a parser of --config alone finds it in every spelling argparse accepts
    # (--config=FILE, abbreviations such as --conf) and leaves the rest alone
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        path = pre.parse_known_args(argv)[0].config
    except argparse.ArgumentError as exc:
        raise ParameterError("--config needs a file path") from exc
    if path is None:
        return argv
    extra = _read_config(path)
    # insert config pairs right after the subcommand so explicit flags,
    # which come later, win on conflict
    for i, tok in enumerate(argv):
        if not tok.startswith("-"):
            return argv[:i + 1] + extra + argv[i + 1:]
    return argv + extra


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_config(argv))
        return args.func(args)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceLimitError, TruncationError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as exc:
        print(f"resource limit: out of memory ({exc})", file=sys.stderr)
        return EXIT_RESOURCE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
