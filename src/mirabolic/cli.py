"""Command-line interface: classify, enumerate, moment, attach, restrict, verify.

Inputs are JSON orbit specs ({"field": "C"|"R", "classes": [...]}), JSON
matrix objects ({"matrix": [[...rational strings...]], ...}), or plain text
matrices (one row per line, whitespace-separated rational entries).  Every
rational literal is read by orbit_model.parse_rational, which refuses a
decimal exponent of magnitude above 1000.  All output is JSON with
deterministic key order, to stdout or --out.

Exit codes: 0 on success, 1 on a verification mismatch or domain error,
2 on an input or parse error.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from typing import Optional

from .classify import (
    MalformedRepresentative,
    classify,
    classify_certified,
    certificate_holds,
    stabilizer_dim,
)
from .corpus import complex_corpus, random_mirabolic, real_corpus
from .enumeration import enumerate_selections
from .exact_linalg import ExactMatrix, SpectrumMismatch, inverse
from .moment import check_geometry, dense_selection, oracle_image, symbolic_image
from .orbit_model import (
    COMPLEX,
    REAL,
    OrbitDatum,
    OrbitSpecError,
    _echo,
    orbit_from_json,
    parse_rational,
    project_to_p_star,
    realize_orbit,
)
from .rep_theory import (
    UnsupportedOrbitShape,
    all_sign_choices,
    attach_gl_rep,
    restrict_to_mirabolic,
    sign_shape,
    verify_restriction,
)

__all__ = ["main"]


class InputError(Exception):
    """Bad command-line input (file contents or flags)."""


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc


def _parse_json(text: str):
    # a JSON number with a fraction or exponent stays its literal text, so
    # parse_rational reads it exactly and bounds its exponent
    try:
        return json.loads(text, parse_float=str)
    except ValueError as exc:
        # JSONDecodeError, or an integer literal beyond the interpreter's
        # digit limit for int()
        raise InputError("invalid JSON: %s" % exc) from exc
    except RecursionError as exc:
        raise InputError("invalid JSON: nested too deeply") from exc


def _parse_matrix_rows(rows, where: str) -> ExactMatrix:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InputError("%s: expected a list of rows, each a list of entries" % where)
    if not rows:
        raise InputError("%s: empty matrix" % where)
    data = []
    for i, row in enumerate(rows):
        data.append([parse_rational(v, "%s row %d" % (where, i + 1)) for v in row])
    if any(len(r) != len(data) for r in data):
        raise InputError("%s: expected a square matrix, got %d rows of lengths %s"
                         % (where, len(data), sorted({len(r) for r in data})))
    return ExactMatrix(data)


def _parse_eigenvalue_flags(args) -> list:
    """Hints from --eigenvalues (rationals) and --pairs (one (re, im) each)."""
    hints = []
    if getattr(args, "eigenvalues", None):
        for tok in args.eigenvalues.split(","):
            tok = tok.strip()
            if tok:
                hints.append(parse_rational(tok, "--eigenvalues"))
    if getattr(args, "pairs", None):
        for tok in args.pairs.split(","):
            tok = tok.strip()
            if not tok:
                continue
            if ":" not in tok:
                raise InputError("--pairs entries look like re:im, got %s" % _echo(tok))
            re_s, im_s = tok.split(":", 1)
            hints.append((parse_rational(re_s, "--pairs"), parse_rational(im_s, "--pairs")))
    return hints


def _json_list(obj: dict, key: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise InputError("%s: expected a list, got %s" % (key, _echo(value)))
    return value


def _load_classify_input(args):
    """Returns (matrix representative, field, eigenvalue hints).

    An orbit spec names its own field and eigenvalues, and a matrix object
    may name its field; a flag that would be ignored is an input error.
    """
    text = _read_text(args.input)
    stripped = text.strip()
    obj = None
    if stripped.startswith("{"):
        obj = _parse_json(text)
    if obj is not None and "classes" in obj:
        for flag in ("field", "eigenvalues", "pairs"):
            if getattr(args, flag) is not None:
                raise InputError("--%s: an orbit spec names its own field and eigenvalues"
                                 % flag)
        orbit = _orbit_spec(obj)
        x = project_to_p_star(realize_orbit(orbit))
        return x, orbit.field, orbit.spectrum()
    if obj is not None:
        if "matrix" not in obj:
            raise InputError('matrix object needs a "matrix" key')
        matrix = _parse_matrix_rows(obj["matrix"], "matrix")
        if "field" in obj and args.field is not None:
            raise InputError("--field: the matrix object names its own field")
        field = obj.get("field", args.field or COMPLEX)
        if field not in (REAL, COMPLEX):
            raise InputError('field must be "R" or "C"')
        hints = [parse_rational(v, "eigenvalues") for v in _json_list(obj, "eigenvalues")]
        for pair in _json_list(obj, "pairs"):
            if not isinstance(pair, list) or len(pair) != 2:
                raise InputError("pairs: each entry must be [re, im], got %s" % _echo(pair))
            hints.append((parse_rational(pair[0], "pairs"), parse_rational(pair[1], "pairs")))
        hints.extend(_parse_eigenvalue_flags(args))
        return project_to_p_star(matrix), field, hints
    rows = [line.split() for line in stripped.splitlines() if line.strip()]
    matrix = _parse_matrix_rows(rows, "matrix")
    field = args.field or COMPLEX
    hints = _parse_eigenvalue_flags(args)
    if not hints:
        hints = [Fraction(0)]
    return project_to_p_star(matrix), field, hints


def _orbit_spec(obj) -> OrbitDatum:
    """The orbit datum of a parsed orbit spec, which must name a class."""
    orbit = orbit_from_json(obj)
    if not orbit.classes:
        raise InputError("orbit spec needs at least one eigenvalue class")
    return orbit


def _load_orbit(path: str) -> OrbitDatum:
    return _orbit_spec(_parse_json(_read_text(path)))


def _signs(orbit: OrbitDatum, raw: Optional[str]):
    """The --signs value raw, such as '0,1;1', as [(0, 1), (1,)].

    A real-field orbit takes one group per real class with one sign per part
    of its dual partition, all 0 when raw is None; a complex-field orbit
    takes none.  Any other shape is an input error.
    """
    sizes = sign_shape(orbit)
    if raw is None:
        return None if orbit.field == COMPLEX else [(0,) * k for k in sizes]
    raw = raw.strip()
    out = []
    for group in raw.split(";") if raw else ():
        bits = []
        for tok in group.split(","):
            tok = tok.strip()
            if tok not in ("0", "1"):
                raise InputError("--signs entries must be 0 or 1, got %s" % _echo(tok))
            bits.append(int(tok))
        out.append(tuple(bits))
    if [len(ws) for ws in out] != sizes:
        raise InputError("--signs: expected groups of sizes %s (one per real class of a "
                         "real-field orbit, one sign per dual-partition part)" % (sizes,))
    return out


def _emit(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError("cannot write %s: %s" % (out, exc)) from exc
    else:
        sys.stdout.write(text)


def _cmd_classify(args) -> dict:
    x, field, hints = _load_classify_input(args)
    if args.certificate:
        datum, conjugator = classify_certified(x, field, hints)
        verified = certificate_holds(x, conjugator, datum, field, hints)
        cert = {
            "conjugator": [[str(v) for v in row] for row in conjugator.data],
            "verified": verified,
        }
    else:
        datum = classify(x, field, hints)
        cert = None
    payload = {
        "field": field,
        "n": x.rows,
        "depth": datum.depth,
        "a_part": [c.to_json() for c in datum.a_part.classes],
        "stabilizer_dim": stabilizer_dim(x),
    }
    if cert is not None:
        payload["certificate"] = cert
    return payload


def _cmd_enumerate(args) -> dict:
    orbit = _load_orbit(args.input)
    selections = enumerate_selections(orbit)
    return {
        "orbit": orbit.to_json(),
        "count": len(selections),
        "dense": dense_selection(orbit).to_json(),
        "selections": [sel.to_json() for sel in selections],
    }


def _cmd_moment(args) -> dict:
    if args.geometry:
        for flag in ("all", "dense", "oracle"):
            if getattr(args, flag):
                raise InputError("--%s: --geometry checks all selections with the oracle" % flag)
        report = check_geometry(_load_orbit(args.input))
        payload = report.to_json()
        payload["_exit"] = 0 if report.ok else 1
        return payload
    orbit = _load_orbit(args.input)
    selections = enumerate_selections(orbit) if args.all else [dense_selection(orbit)]
    records = []
    disagreements = 0
    for sel in selections:
        sym = symbolic_image(orbit, sel)
        record = {"selection": sel.to_json(), "symbolic": sym.to_json()}
        if args.oracle:
            orc = oracle_image(orbit, sel)
            record["oracle"] = orc.to_json()
            record["agree"] = sym == orc
            if sym != orc:
                disagreements += 1
        records.append(record)
    payload = {"orbit": orbit.to_json(), "records": records}
    if args.oracle:
        payload["disagreements"] = disagreements
        payload["_exit"] = 0 if disagreements == 0 else 1
    return payload


def _cmd_attach(args) -> dict:
    orbit = _load_orbit(args.input)
    label = attach_gl_rep(orbit, _signs(orbit, args.signs))
    return {"orbit": orbit.to_json(), "label": label.to_json()}


def _cmd_restrict(args) -> dict:
    orbit = _load_orbit(args.input)
    restricted = restrict_to_mirabolic(attach_gl_rep(orbit, _signs(orbit, args.signs)))
    return {"orbit": orbit.to_json(), "restricted": restricted.to_json()}


def _verify_one(orbit: OrbitDatum, conjugations: int, rng) -> dict:
    entry = {"orbit": orbit.to_json()}
    try:
        ok = True
        for signs in all_sign_choices(orbit):
            report = verify_restriction(orbit, signs)
            if not report.ok:
                ok = False
                entry["counterexample"] = report.to_json()
                break
        entry["status"] = "pass" if ok else "fail"
    except UnsupportedOrbitShape as exc:
        entry["status"] = "skipped:UnsupportedOrbitShape"
        entry["reason"] = str(exc)
        return entry
    if conjugations and entry["status"] == "pass":
        x = realize_orbit(orbit)
        base = classify(project_to_p_star(x), orbit.field, orbit.spectrum())
        n = orbit.size
        for _ in range(conjugations):
            p = random_mirabolic(n, rng)
            moved = project_to_p_star(p * x * inverse(p))
            if classify(moved, orbit.field, orbit.spectrum()) != base:
                entry["status"] = "fail"
                entry["reason"] = "classification changed under conjugation"
                break
    return entry


def _cmd_verify(args) -> dict:
    rng = random.Random(args.seed)
    if args.corpus is not None:
        if args.input is not None:
            raise InputError("verify takes an orbit spec or --corpus N, not both")
        if args.field == REAL:
            orbits = list(real_corpus(args.corpus, require_pair=False))
        else:
            orbits = list(complex_corpus(args.corpus))
    else:
        if args.input is None:
            raise InputError("verify needs an orbit spec or --corpus N")
        if args.field is not None:
            raise InputError("--field chooses the corpus; an orbit spec names its own field")
        orbits = [_load_orbit(args.input)]
    results = [_verify_one(orbit, args.conjugations, rng) for orbit in orbits]
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for entry in results:
        if entry["status"] == "pass":
            counts["pass"] += 1
        elif entry["status"] == "fail":
            counts["fail"] += 1
        else:
            counts["skipped"] += 1
    return {
        "total": len(results),
        "summary": counts,
        "orbits": results,
        "_exit": 0 if counts["fail"] == 0 else 1,
    }


def _count(text: str) -> int:
    """argparse type for a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a nonnegative integer, got %s" % _echo(text))
    if value < 0:
        raise argparse.ArgumentTypeError("expected a nonnegative integer, got %d" % value)
    return value


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that refuses a command line with an InputError, which
    main reports in one line like any other input error, instead of printing
    its usage and exiting.  The message, which quotes a refused token whole,
    is cut to 140 characters (the messages of _count fit); subparsers
    inherit it.  --help still prints the help and exits."""

    def error(self, message):
        if len(message) > 140:
            message = "%s... (%d characters)" % (message[:140], len(message))
        raise InputError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mirabolic",
        description="Exact mirabolic coadjoint-orbit classification, moment-map "
        "images and representation-label attachment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="normal form of a mirabolic functional")
    p.add_argument("input", help="orbit spec, matrix JSON, or plain-text matrix ('-' for stdin)")
    p.add_argument("--field", choices=(COMPLEX, REAL),
                   help='base field of a matrix that names none, "C" (default) or "R"')
    p.add_argument("--eigenvalues", help="comma-separated rational hints, for a matrix")
    p.add_argument("--pairs", help="comma-separated re:im conjugate-pair hints, for a matrix")
    p.add_argument("--certificate", action="store_true", help="include the verified conjugator")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("enumerate", help="list the image orbit selections")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("moment", help="moment-map image normal forms")
    p.add_argument("input")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="all selections")
    group.add_argument("--dense", action="store_true", help="dense selection only (default)")
    p.add_argument("--oracle", action="store_true", help="cross-check against the oracle path")
    p.add_argument("--geometry", action="store_true", help="full geometric report")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_moment)

    p = sub.add_parser("attach", help="unitary label attached to a GL orbit")
    p.add_argument("input")
    p.add_argument("--signs", help="sign exponents per real class, e.g. '0,1;1' (default all 0)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_attach)

    p = sub.add_parser("restrict", help="mirabolic label of the restriction")
    p.add_argument("input")
    p.add_argument("--signs")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_restrict)

    p = sub.add_parser("verify", help="restriction matches the dense-orbit attachment")
    p.add_argument("input", nargs="?", help="orbit spec (omit with --corpus)")
    p.add_argument("--corpus", type=_count, help="verify every corpus orbit up to this size")
    p.add_argument("--field", choices=(COMPLEX, REAL),
                   help='corpus field, "C" (default) or "R"; not with an orbit spec')
    p.add_argument("--conjugations", type=_count, default=0,
                   help="random conjugation-invariance checks per orbit")
    p.add_argument("--seed", type=int, default=20508, help="seed for the random checks")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        payload = args.func(args)
        exit_code = payload.pop("_exit", 0)
        _emit(payload, getattr(args, "out", None))
    except (InputError, OrbitSpecError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (SpectrumMismatch, MalformedRepresentative, UnsupportedOrbitShape, ValueError) as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
