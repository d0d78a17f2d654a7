"""Command-line interface.

``eigenvectors`` reads each ``--method`` from one table, which ``bench``
reads for kappa and oracle; ``left`` is ``eigenvectors --left``, which
transposes A once, reads right eigenvectors of Aᵀ and transposes them
back once.

Exit codes are part of the contract:

* 0 — success (including a "not diagonalizable" verdict from ``check``,
  which is a successful analysis);
* 2 — unusable input: bad flags, unreadable files, schema violations,
  malformed scalars, a non-square matrix;
* 3 — the spectrum cannot be computed exactly; re-run with --spectrum;
* 4 — ``diagonalize`` on a matrix that is not diagonalizable (the
  ``jordan`` command handles those);
* 5 — a supplied spectrum or target eigenvalue fails exact validation;
* 6 — an internal cross-check failed (a bug in this package, not in
  your input);
* 1 — any other analysis failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from collections import Counter

from .charmatrix import (
    cross_eigenvector_3x3,
    eigensystem,
    intersection_eigenvectors,
    is_diagonalizable,
    product_eigenvectors,
)
from .errors import (
    DivisionByZero,
    ExactEigError,
    InternalInconsistency,
    InvalidSpectrum,
    IrrationalSpectrum,
    NotDiagonalizable,
    NotSquare,
    ParseError,
    SchemaError,
    SpectrumTooLarge,
    TargetNotInSpectrum,
)
from .factorizations import (
    diagonalize,
    matrix_power,
    ode_general_solution,
)
from .io_json import (
    matrix_to_json,
    parse_matrix_json,
    parse_spectrum_json,
    spectrum_to_json,
    vector_to_json,
)
from .jordan import jordan_form
from .matrices import OpCounter
from .scalars import format_rational, format_scalar, parse_scalar
from .spectra import (
    Spectrum,
    _polynomial_text,
    charpoly,
    find_spectrum,
    format_polynomial,
    resolve_spectrum,
)
from .verification import (
    GeneratorConfig,
    SplitMix64,
    oracle_eigenvectors,
    random_spectral_matrix,
)

__all__ = ["main"]

# each --method, as (matrix, verified spectrum, λ) → right eigenvectors
_METHODS = {
    "kappa": product_eigenvectors,
    "cross": lambda a, s, lam: [cross_eigenvector_3x3(a, lam)],
    "oracle": lambda a, s, lam: oracle_eigenvectors(a, lam),
    "intersect": intersection_eigenvectors,
}


def main(argv=None):
    """Entry point; returns the process exit code.

    The arguments after the subcommand go straight to its parser, so
    argv is parsed once. When argv is empty, names no subcommand or
    leaves arguments over, the whole argv goes through the top parser
    instead, whose subparsers are those same objects: every usage
    error and help text is argparse's own. Every failure ends in its
    documented exit code with one ``error:`` line on stderr; an
    exception that no other code covers is a fault of exacteig, exit 6,
    and its line names the type.
    """
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (SchemaError, ParseError, NotSquare) as exc:
        return _fail(2, str(exc))
    except IrrationalSpectrum as exc:
        return _fail(3, f"{exc} (supply --spectrum with the exact "
                        "eigenvalues)")
    except NotDiagonalizable as exc:
        return _fail(4, f"{exc} (the jordan command handles defective "
                        "matrices)")
    except (InvalidSpectrum, SpectrumTooLarge) as exc:
        return _fail(5, str(exc))
    except InternalInconsistency as exc:
        return _fail(6, f"internal consistency check failed: {exc}")
    except ExactEigError as exc:
        return _fail(1, str(exc))
    except OSError as exc:
        return _fail(2, str(exc))
    except Exception as exc:  # a fault of exacteig: no traceback
        return _fail(6, f"unexpected {type(exc).__name__}: {exc}")


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


def _emit_json(payload, **kwargs):
    print(json.dumps(payload, separators=(",", ":"), **kwargs))


@functools.cache
def _build_parser():
    """The argument parser and its subparsers by name, built once per
    process: parsing keeps no state in them between calls."""
    parser = argparse.ArgumentParser(
        prog="exacteig",
        description="Exact eigenvector extraction over the Gaussian "
                    "rationals.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, handler, spectrum=True, optional_matrix=False,
            target=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("matrix", nargs="?" if optional_matrix else None,
                       help="path to a matrix JSON file")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        if spectrum:
            p.add_argument("--spectrum", help="path to a spectrum JSON file")
        if target:
            p.add_argument("--target", help="one eigenvalue to extract "
                                            "(scalar string); default: all")
        p.set_defaults(handler=handler)
        return p

    p = add("eigenvectors", "eigenvector bases via shifted-matrix products",
            _cmd_eigenvectors, target=True)
    p.add_argument("--method", choices=tuple(_METHODS), default="kappa",
                   help="extraction method (default: product-based)")
    p.add_argument("--left", action="store_true",
                   help="left (row) eigenvectors instead of right")

    p = add("left", "left (row) eigenvector bases", _cmd_eigenvectors,
            target=True)
    p.set_defaults(left=True, method="kappa")

    add("diagonalize", "exact eigendecomposition A = P D P^-1",
        _cmd_diagonalize)
    add("jordan", "exact Jordan decomposition A = P J P^-1", _cmd_jordan)

    p = add("charpoly", "characteristic polynomial (and exact roots)",
            _cmd_charpoly, spectrum=False)
    p.add_argument("--no-roots", action="store_true",
                   help="skip root finding")

    add("check", "diagonalizability verdict with witness", _cmd_check)

    p = add("power", "exact matrix power", _cmd_power, spectrum=False)
    p.add_argument("--n", type=int, required=True,
                   help="nonnegative integer exponent")

    p = add("ode", "general solution of x' = Ax", _cmd_ode)
    p.add_argument("--no-realify", action="store_true",
                   help="keep complex-eigenvalue solutions complex")

    p = add("bench", "operation-count comparison of extraction methods",
            _cmd_bench, optional_matrix=True)
    p.add_argument("--dim", type=int,
                   help="dimension of a generated input (no matrix file)")
    p.add_argument("--seed", type=int,
                   help="seed for the generated input (default: 0)")

    return parser, sub.choices


def _parse(argv):
    """The parsed ``argv``, read once by the subparser it names when it
    names one and leaves nothing over, else by the top parser. argparse
    reads a token such as ``-i`` or ``-1/2`` as an option, so for the
    eigenvector commands a ``--target`` value that starts with "-" and a
    digit or ``i`` is first joined to the option before it as
    ``OPTION=VALUE``, when that option is ``--target`` or one of its
    abbreviations (``--t`` … ``--targe``; no other option of those
    commands starts with ``--t``)."""
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    if command.get_default("handler") is _cmd_eigenvectors:
        for i in range(len(argv) - 1, 1, -1):
            option = argv[i - 1]
            if (len(option) > 2 and "--target".startswith(option)
                    and re.match(r"-[0-9i]", argv[i])):
                argv[i - 1:i + 1] = [f"{option}={argv[i]}"]
    args, rest = command.parse_known_args(argv[1:])
    if rest:
        return parser.parse_args(argv)
    args.command = argv[0]
    return args


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc


def _load_matrix(args):
    return parse_matrix_json(_read_text(args.matrix))


def _parsed_spectrum(args):
    """The --spectrum document, not yet checked against the matrix, or
    None when the option is absent."""
    if getattr(args, "spectrum", None):
        return parse_spectrum_json(_read_text(args.spectrum))
    return None


def _print_matrix(m, indent=""):
    for row in m._texts():
        print(f"{indent}[{', '.join(row)}]")


def _cmd_eigenvectors(args):
    """Eigenvectors by ``--method``; for ``left`` and ``--left`` those of
    Aᵀ, transposed."""
    a, method, left = _load_matrix(args), args.method, args.left
    if method == "cross" and (a.rows, a.cols) != (3, 3):
        return _fail(2, "--method cross only applies to 3x3 matrices")
    if left and method not in ("kappa", "oracle"):
        return _fail(2, f"--method {method} does not support --left")
    if args.target is not None:
        try:
            lam = parse_scalar(args.target)
        except DivisionByZero as exc:
            raise ParseError(f"--target {args.target}: {exc}") from exc
    s = resolve_spectrum(a, _parsed_spectrum(args))
    if args.target is not None and lam not in s:
        raise TargetNotInSpectrum(
            f"--target {args.target} is not in the spectrum")
    # the transpose takes over the verified spectrum of A
    b = a.transpose() if left else a
    if args.target is None and method == "kappa":
        # one eigensystem builds each B − μI once for every eigenvalue
        results = [(space.eigenvalue, space.vectors)
                   for space in eigensystem(b, s)]
    else:
        targets = list(s.values()) if args.target is None else [lam]
        results = [(lam, _METHODS[method](b, s, lam)) for lam in targets]
    if left:
        results = [(lam, [v.transposed() for v in vectors])
                   for lam, vectors in results]
    if args.json:
        if args.target is not None:
            payload = [vector_to_json(v) for v in results[0][1]]
        else:
            payload = {"eigenvalues": [
                {"value": format_scalar(lam),
                 "multiplicity": s.multiplicity(lam),
                 "vectors": [vector_to_json(v) for v in vectors]}
                for lam, vectors in results]}
        _emit_json(payload)
        return 0
    kind = "left eigenvectors" if left else "eigenvectors"
    for lam, vectors in results:
        print(f"eigenvalue {format_scalar(lam)} "
              f"(multiplicity {s.multiplicity(lam)}), {kind}:")
        if not vectors:
            print("  (none)")
        for v in vectors:
            print(f"  {v!r}")
    return 0


def _cmd_diagonalize(args):
    result = diagonalize(_load_matrix(args), _parsed_spectrum(args))
    return _emit_decomposition(args, result, "D", result.d)


def _cmd_jordan(args):
    result = jordan_form(_load_matrix(args), _parsed_spectrum(args))
    return _emit_decomposition(args, result, "J", result.j)


def _emit_decomposition(args, result, name, middle):
    """A = P·M·P⁻¹, with M named ``name``, as JSON or as text."""
    parts = (("P", "P", result.p), (name, name, middle),
             ("P_inv", "P^-1", result.p_inv))
    if args.json:
        _emit_json({key: matrix_to_json(m) for key, _, m in parts})
        return 0
    for _, label, m in parts:
        print(f"{label} =")
        _print_matrix(m, "  ")
    return 0


def _cmd_charpoly(args):
    a = _load_matrix(args)
    p = charpoly(a)
    roots = None
    if not args.no_roots:
        roots = find_spectrum(p)
    if args.json:
        coeffs = p.coeffs
        payload = {
            "charpoly": _polynomial_text(coeffs),
            "coefficients": [format_scalar(c) for c in coeffs],
            "roots": (None if roots is None
                      else spectrum_to_json(roots)["eigenvalues"]),
        }
        _emit_json(payload)
        return 0
    print(format_polynomial(p))
    if roots is not None:
        body = ", ".join(f"{format_scalar(v)} (multiplicity {m})"
                         for v, m in roots.pairs)
        print(f"roots: {body}")
    return 0


def _cmd_check(args):
    a = _load_matrix(args)
    s = resolve_spectrum(a, _parsed_spectrum(args))
    ok, witness = is_diagonalizable(a, s)
    if args.json:
        _emit_json({
            "diagonalizable": ok,
            "witness": None if witness is None else matrix_to_json(witness),
        })
        return 0
    if ok:
        print("diagonalizable: yes")
    else:
        print("diagonalizable: no")
        print("nonzero shifted-matrix product (witness):")
        _print_matrix(witness, "  ")
    return 0


def _cmd_power(args):
    a = _load_matrix(args)
    if args.n < 0:
        return _fail(2, "--n must be nonnegative")
    result = matrix_power(a, args.n)
    if args.json:
        _emit_json(matrix_to_json(result))
        return 0
    _print_matrix(result)
    return 0


def _cmd_ode(args):
    a = _load_matrix(args)
    realify = False if args.no_realify else None
    terms = ode_general_solution(a, _parsed_spectrum(args), realify)
    if args.json:
        _emit_json({"terms": [_term_to_json(t) for t in terms]})
        return 0
    rendered = [render_ode_term(t) for t in terms]
    print("x(t) = " + " + ".join(rendered))
    return 0


def _term_to_json(term):
    payload = {
        "label": term.coefficient_label,
        "exponent": format_scalar(term.exponent),
        "polynomial": [
            {"vector": vector_to_json(vec), "power": power,
             "divisor": divisor}
            for vec, power, divisor in term.vector_polynomial],
        "trig": None,
    }
    if term.trig_part is not None:
        payload["trig"] = {
            "kind": term.trig_part.kind,
            "beta": format_rational(term.trig_part.beta),
            "partner_vectors": [vector_to_json(v)
                                for v in term.trig_part.partner_vectors],
        }
    return payload


def _render_vector(v):
    return "[" + ",".join(vector_to_json(v)) + "]^T"


def _render_rate(text):
    """``text``·t for the text of a rate: a unit rate as ``t`` or ``-t``,
    and parentheses around a fraction or a sum so the rate cannot read
    as a division by t."""
    if text in ("1", "-1"):
        return text[:-1] + "t"
    if "/" in text or any(c in text[1:] for c in "+-"):
        text = f"({text})"
    return f"{text}t"


def _render_exp(lam):
    if not lam:
        return ""
    return f"exp({_render_rate(format_scalar(lam))})"


def _render_tpow(power, divisor):
    if power == 0:
        return ""
    base = "t" if power == 1 else f"t^{power}"
    return base if divisor == 1 else f"{base}/{divisor}"


def _render_trig(kind, beta):
    return f"{kind}({_render_rate(format_rational(beta))})"


def render_ode_term(term):
    """Deterministic text form of one solution term, e.g.
    ``c1*[-1,1]^T*exp(2t)`` or
    ``c2*([1,0]^T*t + [0,1]^T)*exp(2t)``."""
    if term.trig_part is None:
        pieces = []
        for vec, power, divisor in term.vector_polynomial:
            tpow = _render_tpow(power, divisor)
            body = _render_vector(vec)
            pieces.append(f"{body}*{tpow}" if tpow else body)
    else:
        trig = term.trig_part
        cos_text = _render_trig("cos", trig.beta)
        sin_text = _render_trig("sin", trig.beta)
        pieces = []
        for (vec, power, divisor), partner in zip(
                term.vector_polynomial, trig.partner_vectors):
            lead = _render_vector(vec)
            mate = _render_vector(partner)
            if trig.kind == "cos":
                combo = f"({lead}*{cos_text} - {mate}*{sin_text})"
            else:
                combo = f"({mate}*{cos_text} + {lead}*{sin_text})"
            tpow = _render_tpow(power, divisor)
            pieces.append(f"{combo}*{tpow}" if tpow else combo)
    joined = pieces[0] if len(pieces) == 1 else "(" + " + ".join(pieces) + ")"
    parts = [term.coefficient_label, joined]
    exp_text = _render_exp(term.exponent)
    if exp_text:
        parts.append(exp_text)
    return "*".join(parts)


def _cmd_bench(args):
    if args.matrix is not None:
        if args.dim is not None or args.seed is not None:
            return _fail(2, "--dim and --seed apply only to a generated input")
        a, s = _load_matrix(args), _parsed_spectrum(args)
    else:
        if args.dim is None:
            return _fail(2, "bench needs a matrix file or --dim")
        if args.dim < 2:
            return _fail(2, "--dim must be at least 2")
        if args.spectrum is not None:
            return _fail(2, "--spectrum applies only to a matrix file")
        a, s = _generated_bench_input(args.dim, args.seed or 0)
    # checked before counting, so the counted calls find it verified
    report = build_bench_report(a, resolve_spectrum(a, s))
    if args.json:
        _emit_json(report, indent=2)
        return 0
    print(f"input: {report['input']['dim']}x{report['input']['dim']} matrix, "
          "spectrum "
          + ", ".join(f"{e['value']} (x{e['multiplicity']})"
                      for e in report["input"]["spectrum"]))
    for name, stats in report["methods"].items():
        print(f"method {name}: {stats['scalar_mults']} mults, "
              f"{stats['scalar_adds']} adds, {stats['scalar_divs']} divs, "
              f"wall {stats['wall_time_ns']} ns")
    print("per eigenvalue:")
    for entry in report["per_eigenvalue"]:
        for name in ("kappa", "oracle"):
            stats = entry[name]
            print(f"  {entry['value']} via {name}: "
                  f"{stats['scalar_mults']} mults, "
                  f"{stats['scalar_adds']} adds, "
                  f"{stats['scalar_divs']} divs")
    return 0


def _generated_bench_input(dim, seed):
    """Deterministic benchmark input: distinct small integer eigenvalues
    with a random multiplicity split, realized through the seeded
    generator."""
    rng = SplitMix64(seed)
    distinct = rng.randint(2, min(3, dim))
    values = []
    while len(values) < distinct:
        v = rng.randint(-4, 4)
        if v not in values:
            values.append(v)
    mults = [1] * distinct
    for _ in range(dim - distinct):
        mults[rng.randint(0, distinct - 1)] += 1
    spectrum = Spectrum(list(zip(values, mults)))
    config = GeneratorConfig(dim=dim, spectrum=spectrum,
                             seed=rng.next_u64(), entry_bound=2)
    a, _ = random_spectral_matrix(config)
    return a, spectrum


def build_bench_report(a, s):
    """Per-method scalar-operation counts and wall times for computing
    every eigenspace of ``a``. Reports measurements only; interpreting
    them is left to the reader."""
    methods = {name: _METHODS[name] for name in ("kappa", "oracle")}
    totals = {name: Counter() for name in methods}
    per_eigenvalue = []
    for value, _ in s.pairs:
        entry = {"value": format_scalar(value)}
        for name, method in methods.items():
            with OpCounter() as ops:
                started = time.perf_counter_ns()
                method(a, s, value)
                wall = time.perf_counter_ns() - started
            entry[name] = ops.as_dict()
            totals[name].update(entry[name], wall_time_ns=wall)
        per_eigenvalue.append(entry)
    return {
        "input": {
            "dim": a.rows,
            "spectrum": spectrum_to_json(s)["eigenvalues"],
        },
        "methods": totals,
        "per_eigenvalue": per_eigenvalue,
    }


if __name__ == "__main__":
    sys.exit(main())
