"""Command-line surface: verification suites, fusion/monodromy tables,
diagram rendering, and machine-readable JSON reports.

Exit codes: 0 every check passed, 1 at least one mathematical check
failed, 2 usage error.  Reports are always written, even on failure, and
are byte-stable for a fixed seed.

Text forms: `render` reads what tlcat prints, a diagram
{m}x{n}[d]:[(a,b),...] or a linear combination
{m}<-{n}[d] : [c] * diagram + ... whose coefficients are scalar text
(tlcat.scalar), with spaces between tokens but never inside a number.
Malformed text exits 2.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .braid import verify_braid_suite
from .dilute import verify_dilute_braiding
from .fusion import (
    AmbiguousEigenvalue,
    EigenvalueMismatch,
    FusedModule,
    expected_summands,
    fusion_summands,
    jordan_type,
    monodromy_eigenvalue,
    verify_fusion_suite,
)
from .integrable import verify_integrable_suite
from .morphism import GENERIC, domain_for
from .render import parse_renderable, render_ascii, render_svg
from .report import SCHEMA_VERSION, VerificationReport, json_text
from .scalar import Specialization
from .standard import StandardModule, standard_dimension, verify_rigidity
from .twist import det_t1_closed_form, gamma_eigenvalue, gamma_exponent, verify_twist_suite

__all__ = ["main"]

_USAGE = 2  # the exit code of a usage error


def _repr_suite(max_n: int, spec: Specialization, seed: int) -> VerificationReport:
    rep = VerificationReport("repr")
    for m in range(1, min(max_n, 5) + 1):
        rep.extend(verify_rigidity(m, domain_for(spec)))
    return rep


def _dilute_suite(max_n: int, spec: Specialization, seed: int) -> VerificationReport:
    rep = VerificationReport("dilute")
    rep.extend(verify_dilute_braiding(min(max_n, 4), seed=seed))
    rep.extend(verify_integrable_suite("dilute-braid", max_n))
    rep.extend(verify_integrable_suite("dilute-IK", max_n))
    return rep


# each suite: its runner (max_n, spec, seed) -> VerificationReport, and
# whether it computes at --spec; the others always compute generically
SUITES = {
    "braid": (lambda n, spec, seed: verify_braid_suite(min(n, 6), seed=seed), False),
    "twist": (lambda n, spec, seed: verify_twist_suite(min(n, 6)), False),
    "repr": (_repr_suite, True),
    "fusion": (lambda n, spec, seed: verify_fusion_suite(min(n + 2, 6), spec), True),
    "integrable": (lambda n, spec, seed: verify_integrable_suite("ordinary", n), False),
    "dilute": (_dilute_suite, False),
}
SPEC_SUITES = tuple(name for name, (_, at_spec) in SUITES.items() if at_spec)


def _default_out(filename: str) -> str:
    root = os.environ.get("TLCAT_REPORT_DIR", "reports")
    return os.path.join(root, filename)


def _open_out(path: str):
    """Open path for writing, making its directory; return the file, or
    None once an error line says why the path cannot be written (it names
    a directory, say)."""
    try:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        _error(f"cannot write {path}: {exc.strerror or exc}")
        return None


def _write(path: str, text: str) -> int:
    """Write text to path; return 0, or the usage exit code if _open_out
    cannot open it."""
    fh = _open_out(path)
    if fh is None:
        return _USAGE
    with fh:
        fh.write(text)
    return 0


def _error(message, code: int = _USAGE) -> int:
    """Say what went wrong on stderr and return the exit code, by default
    that of a usage error."""
    print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_verify(args) -> int:
    if args.max_n < 1:
        return _error("--max-n must be at least 1")
    try:
        spec = Specialization.parse(args.spec)
    except ValueError as exc:
        return _error(exc)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    if spec.kind != "generic" and any(n not in SPEC_SUITES for n in names):
        return _error(f"suite {args.suite!r} computes generically and ignores --spec "
                      f"{args.spec}; only {' and '.join(SPEC_SUITES)} honour a spec")
    out = args.out or _default_out(f"verify-{args.suite}.json")
    # opened before any suite runs, so an unwritable --out fails at once
    fh = _open_out(out)
    if fh is None:
        return _USAGE
    with fh:
        reports = [SUITES[name][0](args.max_n, spec, args.seed) for name in names]
        fail = sum(r.n_fail for r in reports)
        fh.write(json_text({
            "schema": SCHEMA_VERSION,
            "command": "verify",
            "suite": args.suite,
            "spec": spec.describe(),
            "max_n": args.max_n,
            "seed": args.seed,
            "suites": [r.to_json() for r in reports],
            "summary": {
                "total": sum(len(r.cases) for r in reports),
                "pass": sum(r.n_pass for r in reports),
                "fail": fail,
                "ok": fail == 0,
            },
        }) + "\n")
    for r in reports:
        print(r.summary_line())
    print(f"report written to {out}")
    return 0 if fail == 0 else 1


def _fusion_table(n1: int, k1: int, n2: int, k2: int,
                  spec: Specialization) -> dict:
    N = n1 + n2
    dom = domain_for(spec)
    fused = FusedModule(StandardModule(n1, k1, dom), StandardModule(n2, k2, dom))
    at_root = spec.kind == "cyclotomic"

    def mu_label(k):
        # away from roots of unity mu is labelled symbolically, as a power of s
        return str(monodromy_eigenvalue(k1, k2, k, dom if at_root else GENERIC))

    table = {
        "schema": SCHEMA_VERSION,
        "command": "fusion-table",
        "modules": {"n1": n1, "k1": k1, "n2": n2, "k2": k2},
        "spec": spec.describe(),
        "dim": fused.dim,
    }
    try:
        found = fusion_summands(fused)
    except AmbiguousEigenvalue as exc:
        if not at_root:
            raise
        table["summands"] = None
        table["note"] = f"not semisimple at this specialization: {exc}"
    else:
        table["summands"] = []
        for k, m in sorted(found.items()):
            entry = {"k": k, "multiplicity": m, "dim": standard_dimension(N, k)}
            if not at_root:
                entry["monodromy_eigenvalue"] = mu_label(k)
            table["summands"].append(entry)
    mono = fused.monodromy_matrix("braiding")
    table["routes_agree"] = mono == fused.monodromy_matrix("twist")
    jordan = []
    candidates = {monodromy_eigenvalue(k1, k2, k, dom): k
                  for k in expected_summands(k1, k2) if k <= N}
    for lam, k in candidates.items():
        try:
            blocks = jordan_type(mono, lam)
        except EigenvalueMismatch:
            continue
        jordan.append({"eigenvalue": mu_label(k), "k": k, "blocks": list(blocks)})
    table["jordan"] = jordan
    if at_root:
        table["unaccounted_dimension"] = fused.dim - sum(
            sum(j["blocks"]) for j in jordan)
    return table


def _cmd_fusion_table(args) -> int:
    try:
        spec = Specialization.parse(args.spec)
        for n, k in ((args.n1, args.k1), (args.n2, args.k2)):
            standard_dimension(n, k)  # checks the label
    except ValueError as exc:
        return _error(exc)
    try:
        table = _fusion_table(args.n1, args.k1, args.n2, args.k2, spec)
    except AmbiguousEigenvalue as exc:
        return _error(exc, 1)
    text = json_text(table) + "\n"
    if args.out:
        failed = _write(args.out, text)
        if failed:
            return failed
        print(f"table written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_eigen(args) -> int:
    n, k = args.module
    try:
        dim = standard_dimension(n, k)
    except ValueError as exc:
        return _error(exc)
    s_exponent = gamma_exponent(k)
    try:
        gamma, det_t1 = gamma_eigenvalue(k), det_t1_closed_form(n, k)
    except OverflowError as exc:
        return _error(f"module too large: {exc}")
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "eigen",
        "module": {"n": n, "k": k, "dim": dim},
        "central_eigenvalue": {
            "s_exponent": s_exponent,
            # q = s^4, so the q-exponent is s_exponent / 4, written over 2
            "q_exponent": f"{s_exponent // 2}/2",
            "value": str(gamma),
        },
        "det_t1": {
            "value": str(det_t1),
            "form": "q^(dim/2) * (-q^-2)^(dim of the (n-2,k) module)",
        },
    }
    print(json_text(payload))
    return 0


def _cmd_render(args) -> int:
    try:
        obj = parse_renderable(args.object)
    except ValueError as exc:
        return _error(f"cannot parse {args.object!r}: {exc}")
    text = render_svg(obj) if args.format == "svg" else render_ascii(obj) + "\n"
    if args.out:
        failed = _write(args.out, text)
        if failed:
            return failed
        print(f"rendered to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlcat",
        description="Exact verification tools for diagram algebras: "
                    "braiding, twists, fusion, and integrability.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=(*SUITES, "all"))
    p.add_argument("--max-n", type=int, default=4,
                   help="size bound for exhaustive checks (default 4)")
    p.add_argument("--spec", default="generic",
                   help="'generic', 'root:L', or 'rational:s0'; only the "
                        "repr and fusion suites take a non-generic spec")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="report path (default "
                   "$TLCAT_REPORT_DIR/verify-<suite>.json)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fusion-table",
                       help="decompose a fusion product of standard modules")
    p.add_argument("n1", type=int)
    p.add_argument("k1", type=int)
    p.add_argument("n2", type=int)
    p.add_argument("k2", type=int)
    p.add_argument("--spec", default="generic")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fusion_table)

    p = sub.add_parser("eigen",
                       help="central-element eigenvalue on a standard module")
    p.add_argument("--module", type=int, nargs=2, metavar=("N", "K"),
                   required=True)
    p.set_defaults(func=_cmd_eigen)

    p = sub.add_parser("render", help="draw a diagram or linear combination")
    p.add_argument("object", help="text form, e.g. '2x2:[(1,4),(2,3)]'")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code or 0
        return 0 if code == 0 else 2
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
