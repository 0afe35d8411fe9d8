"""Command-line front door.

Builds and validates algebras, computes Poisson brackets and index
estimates, constructs and certifies shift families, runs the
regularity and codimension certificates, analyzes skew pencils, and
orchestrates the whole verification pipeline.

Every command emits a JSON report with a versioned schema; rationals
render as exact strings.  Exit codes: 0 all checks passed, 1 a check
failed and the report carries a witness, 2 usage or parse error,
3 falsification event (a certified fact was contradicted at runtime;
the report is a reproduction bundle).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from typing import Any, Callable, Iterator, Optional, Sequence

from . import jsonio
from .exactlin import rat, rat_str
from .liealg import (AlgebraProfile, LieAlgebraData, TableError, ValidationReport,
                     make_classical, make_sl2_so2_contraction, make_takiff,
                     make_vinberg, validate)
from .mfshift import (EXACT, build_family, certify_commutative,
                      degree_profile, find_nonmaximality_witness)
from .mpoly import MPoly
from .poisson import (CasimirSet, bracket, classical_casimir_polys, estimate_index,
                      is_casimir, kirillov)
from .regcert import (FalsificationError, PlaneSpec, _wrong_index, certify_codim2,
                      certify_regular_plane, find_regular_plane, is_regular,
                      kostant_criterion, verify_bols, verify_compl)
from .sampling import integer_coords, rng_stream
from .skewpencil import SkewPencil, verify_com1

SCHEMA = 6
EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_FALSIFIED = 3


class UsageError(Exception):
    """Bad invocation or unreadable/unparsable input file."""


# --- small helpers ----------------------------------------------------------

def _read_input(path: str) -> tuple[Any, dict]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise UsageError(str(exc)) from exc
    try:
        parsed = json.loads(data.decode("utf-8"))
    except ValueError as exc:   # a syntax or encoding error, or a number too long
        raise UsageError(f"{path}: {exc}") from exc
    return parsed, {"path": os.path.basename(path),
                    "sha256": hashlib.sha256(data).hexdigest()}


def _from_file(path: str, parse: Callable[..., Any], *args: Any) -> Any:
    """parse(*args), a ValueError from it a usage error naming path."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _parse_ratlist(text: str, what: str) -> tuple[Fraction, ...]:
    try:
        return tuple(rat(p) for p in text.split(","))
    except (ValueError, TypeError) as exc:
        raise UsageError(f"cannot parse {what} {text!r}: {exc}") from exc


def _vector(args: argparse.Namespace, name: str, dim: int) -> tuple[Fraction, ...]:
    """The option --<name> as a point of Q^dim."""
    what = f"--{name}"
    v = _parse_ratlist(getattr(args, name), what)
    if len(v) != dim:
        raise UsageError(f"{what} has {len(v)} entries, expected {dim}")
    return v


def _load_algebra(args: argparse.Namespace, path: str,
                  inputs: dict) -> LieAlgebraData:
    raw, inputs["algebra"] = _read_input(path)
    args._algebra = _from_file(path, jsonio.algebra_from_json, raw)
    return args._algebra


def _profile(L: LieAlgebraData, args: argparse.Namespace,
             casimirs: Optional[CasimirSet] = None) -> AlgebraProfile:
    ind = args.ind
    if ind is not None:
        if not 0 <= ind <= L.dim or (L.dim - ind) % 2:
            raise UsageError(f"--ind {ind} does not fit dim {L.dim}: the generic "
                             "rank dim - ind must be even and in [0, dim]")
        return AlgebraProfile.declared(L.dim, ind)
    return estimate_index(L, trials=args.trials, seed=args.seed, bound=args.bound,
                          casimirs=casimirs)


def _var_names(L: LieAlgebraData) -> list[str]:
    return [f"x_{nm}" for nm in L.basis_names]


def _write_out(report: dict, out: Optional[str]) -> None:
    text = jsonio.dumps(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _reported(handler: Callable[[argparse.Namespace, dict, dict], bool]
              ) -> Callable[[argparse.Namespace], int]:
    """Wrap a command that fills a report.

    The handler records its inputs and verdicts and returns whether
    every check passed; the wrapper adds the total time and the status,
    writes the report and maps the outcome to the exit code.
    """
    def run(args: argparse.Namespace) -> int:
        started = time.perf_counter()
        inputs: dict = {}
        report = {"schema": SCHEMA, "command": args.command_name,
                  "inputs": inputs, "seed": args.seed,
                  "verdicts": {}, "witnesses": {}, "timings": {}}
        ok = handler(args, report, inputs)
        report["timings"]["total"] = round(time.perf_counter() - started, 6)
        report["status"] = "pass" if ok else "fail"
        _write_out(report, args.out)
        return EXIT_PASS if ok else EXIT_FAIL
    return run


# --- algebra ----------------------------------------------------------------

@_reported
def cmd_algebra_validate(args: argparse.Namespace, report: dict, inputs: dict) -> bool:
    # the file is read as every other command reads it
    raw, inputs["algebra"] = _read_input(args.algebra)
    try:
        result = validate(jsonio.algebra_from_json(raw))
    except TableError as exc:
        result = exc.report
    except ValueError as exc:
        result = ValidationReport(False, "table", None, str(exc))
    report["verdicts"]["validate"] = result.as_dict()
    if not result.ok:
        report["witnesses"]["validate"] = result.detail
    return result.ok


def cmd_algebra_build(args: argparse.Namespace) -> int:
    # emits the bare algebra format so the file feeds every other command
    kind, params = args.kind, args.params
    try:
        if kind in ("sl", "gl", "so"):
            L = make_classical(kind, int(params[0]))
        elif kind == "abelian":
            L = LieAlgebraData.abelian(int(params[0]))
        elif kind == "vinberg":
            L = make_vinberg([rat(p) for p in params])
        elif kind == "takiff":
            L = make_takiff(make_classical(params[0], int(params[1])),
                            int(params[2]))
        elif kind == "contraction-sl2-so2":
            L = make_sl2_so2_contraction()
        else:
            raise UsageError(f"unknown algebra kind {kind!r}")
    except (IndexError, ValueError) as exc:
        raise UsageError(f"algebra build {kind}: {exc}") from exc
    _write_out(jsonio.algebra_to_json(L), args.out)
    return EXIT_PASS


# --- poisson ----------------------------------------------------------------

def _load_poly(path: str, inputs: dict, key: str, L: LieAlgebraData) -> MPoly:
    raw, inputs[key] = _read_input(path)
    return _from_file(path, jsonio.poly_from_json, raw, L.dim)


@_reported
def cmd_poisson_bracket(args: argparse.Namespace, report: dict, inputs: dict) -> bool:
    L = _load_algebra(args, args.algebra, inputs)
    f = _load_poly(args.f, inputs, "f", L)
    g = _load_poly(args.g, inputs, "g", L)
    h = bracket(L, f, g)
    report["verdicts"]["bracket"] = {"zero": h.is_zero(),
                                     "pretty": h.pretty(_var_names(L))}
    report["result"] = jsonio.poly_to_json(h)
    return True


@_reported
def cmd_poisson_casimir_check(args: argparse.Namespace, report: dict, inputs: dict) -> bool:
    L = _load_algebra(args, args.algebra, inputs)
    chk = is_casimir(L, _load_poly(args.poly, inputs, "poly", L))
    report["verdicts"]["casimir"] = {"ok": chk.ok}
    if not chk.ok:
        report["witnesses"]["casimir"] = {
            "coordinate": chk.witness_index,
            "name": L.basis_names[chk.witness_index],
            "bracket": jsonio.poly_to_json(chk.witness),
            "pretty": chk.witness.pretty(_var_names(L))}
    return chk.ok


@_reported
def cmd_poisson_index(args: argparse.Namespace, report: dict, inputs: dict) -> bool:
    L = _load_algebra(args, args.algebra, inputs)
    prof = estimate_index(L, trials=args.trials, seed=args.seed, bound=args.bound)
    report["verdicts"]["index"] = prof.as_dict()
    return True


# --- shift ------------------------------------------------------------------

def _load_generators(args: argparse.Namespace, inputs: dict,
                     L: LieAlgebraData) -> tuple[MPoly, ...]:
    """The generators of the --casimirs file, on the dual of L."""
    raw, inputs["casimirs"] = _read_input(args.casimirs)
    return _from_file(args.casimirs, jsonio.casimirs_from_json, raw, L.dim)


def _load_casimirs(args: argparse.Namespace, inputs: dict, L: LieAlgebraData) -> CasimirSet:
    """The --casimirs file verified on L, for a verdict that rests on it."""
    return _from_file(args.casimirs, CasimirSet.verified, L, _load_generators(args, inputs, L),
                      args.seed, args.bound)


def _build_family_from_args(args: argparse.Namespace, inputs: dict):
    L = _load_algebra(args, args.algebra, inputs)
    gens = _load_generators(args, inputs, L)
    return L, build_family(L, gens, _vector(args, "xi", L.dim))


def cmd_shift_build(args: argparse.Namespace) -> int:
    # emits the bare family format, member provenance (generator, power)
    # included, so the file can be audited and re-parsed directly
    inputs: dict = {}
    L, fam = _build_family_from_args(args, inputs)
    out = jsonio.family_to_json(fam)
    names = _var_names(L)
    for member, entry in zip(fam.members, out["members"]):
        entry["pretty"] = member.poly.pretty(names)
    _write_out(out, args.out)
    return EXIT_PASS


@_reported
def cmd_shift_certify(args: argparse.Namespace, report: dict, inputs: dict) -> bool:
    _, fam = _build_family_from_args(args, inputs)
    cert = certify_commutative(fam)
    report["verdicts"]["commutative"] = {"ok": cert.ok,
                                         "pairs_checked": cert.pairs_checked,
                                         "members": len(fam), "method": cert.method}
    if not cert.ok:
        report["witnesses"]["commutative"] = [
            {"i": i, "j": j, "route": route} for i, j, route in cert.failures]
    return cert.ok


# --- reg --------------------------------------------------------------------

@_reported
def cmd_reg_point(args: argparse.Namespace, report: dict, inputs: dict) -> bool:
    L = _load_algebra(args, args.algebra, inputs)
    cs = _load_casimirs(args, inputs, L) if args.casimirs else None
    prof = _profile(L, args, cs)
    xi = _vector(args, "xi", L.dim)
    m = L.dim - prof.ind
    krank = kirillov(L, xi).rank
    if krank > m:
        raise _wrong_index("a Kirillov rank exceeds the generic rank",
                           {"dim": L.dim, "ind": prof.ind, "m": m,
                            "kirillov_rank": krank, "profile_status": prof.status,
                            "xi": [rat_str(x) for x in xi]}, prof)
    regular = krank == m
    report["verdicts"]["profile"] = prof.as_dict()
    report["verdicts"]["point"] = {"regular": regular, "kirillov_rank": krank,
                                   "generic_rank": m,
                                   "point": jsonio.vector_to_json(xi)}
    if cs is not None:
        report["verdicts"]["kostant"] = kostant_criterion(L, cs, prof, xi).as_dict()
    if not regular:
        report["witnesses"]["point"] = {"point": jsonio.vector_to_json(xi),
                                        "rank_drop": m - krank}
    return regular


@_reported
def cmd_reg_plane(args: argparse.Namespace, report: dict, inputs: dict) -> bool:
    L = _load_algebra(args, args.algebra, inputs)
    prof = _profile(L, args)
    xi = _vector(args, "xi", L.dim)
    eta = _vector(args, "eta", L.dim)
    cert = certify_regular_plane(L, prof, xi, eta)
    report["verdicts"]["profile"] = prof.as_dict()
    report["verdicts"]["plane"] = cert.as_dict()
    if not cert.ok:
        report["witnesses"]["plane"] = {
            "gcd": cert.witness_pretty,
            "singular_directions": [[rat_str(a), rat_str(b)]
                                    for a, b in cert.singular_directions]}
    return cert.ok


@_reported
def cmd_reg_codim2(args: argparse.Namespace, report: dict, inputs: dict) -> bool:
    L = _load_algebra(args, args.algebra, inputs)
    prof = _profile(L, args)
    cert = certify_codim2(L, prof, seed=args.seed, planes=args.planes,
                          bound=args.bound)
    report["verdicts"]["profile"] = prof.as_dict()
    report["verdicts"]["codim2"] = cert.as_dict()
    if not cert.ok:
        report["witnesses"]["codim2"] = {
            "divisor": cert.witness_pretty,
            "poly": jsonio.poly_to_json(cert.witness) if cert.witness else None}
    return cert.ok


@_reported
def cmd_reg_compl(args: argparse.Namespace, report: dict, inputs: dict) -> bool:
    L = _load_algebra(args, args.algebra, inputs)
    cs = _load_casimirs(args, inputs, L)
    prof = _profile(L, args, cs)
    xi = _vector(args, "xi", L.dim)
    eta = _vector(args, "eta", L.dim)
    cert = certify_regular_plane(L, prof, xi, eta)
    report["verdicts"]["profile"] = prof.as_dict()
    report["verdicts"]["plane"] = cert.as_dict()
    if not cert.ok:
        report["witnesses"]["plane"] = cert.witness_pretty
        return False
    verdict = verify_compl(L, cs, prof, PlaneSpec(xi, eta), certificate=cert,
                           nsamples=args.nsamples, seed=args.seed,
                           bound=args.bound)
    report["verdicts"]["compl"] = verdict.as_dict()
    return verdict.ok


@_reported
def cmd_reg_bols(args: argparse.Namespace, report: dict, inputs: dict) -> bool:
    L = _load_algebra(args, args.algebra, inputs)
    cs = _load_casimirs(args, inputs, L)
    prof = _profile(L, args, cs)
    xi = _vector(args, "xi", L.dim)
    verdict = verify_bols(L, cs, prof, xi, seed=args.seed, bound=args.bound)
    report["verdicts"]["profile"] = prof.as_dict()
    report["verdicts"]["bols"] = verdict.as_dict()
    if not verdict.ok:
        report["witnesses"]["bols"] = verdict.note
    return verdict.ok


# --- pencil -----------------------------------------------------------------

@_reported
def cmd_pencil_analyze(args: argparse.Namespace, report: dict, inputs: dict) -> bool:
    if args.matrices and (args.algebra or args.xi or args.eta):
        raise UsageError("choose either --matrices FILE or an algebra file with --xi and --eta")
    if args.matrices:
        raw, inputs["matrices"] = _read_input(args.matrices)
        pencil = _from_file(args.matrices, lambda: SkewPencil(*(
            jsonio.matrix_from_json(jsonio._field(raw, key, "pencil file")) for key in "AB")))
    else:
        if not args.algebra or not args.xi or not args.eta:
            raise UsageError("pencil analyze needs --matrices FILE or an "
                             "algebra file with --xi and --eta")
        L = _load_algebra(args, args.algebra, inputs)
        xi = _vector(args, "xi", L.dim)
        eta = _vector(args, "eta", L.dim)
        pencil = SkewPencil.from_kirillov(L, xi, eta)
    analysis = verify_com1(pencil)
    report["verdicts"]["pencil"] = analysis.as_dict()
    report["subspaces"] = {"L": jsonio.subspace_to_json(analysis.L),
                           "image": jsonio.subspace_to_json(analysis.image),
                           "Ltilde": jsonio.subspace_to_json(analysis.Ltilde)}
    return True


# --- pipeline ---------------------------------------------------------------

# the pipeline's stages, in the order they run
STAGES = ("validate", "estimate-index", "codim2", "casimirs", "degree-profile",
          "build-family", "commutative", "regular-plane", "compl", "bols",
          "conclusions")


@_reported
def cmd_pipeline_run(args: argparse.Namespace, report: dict, inputs: dict) -> bool:
    raw_alg, inputs["algebra"] = _read_input(args.algebra)
    raw_cas = None
    if args.casimirs and args.classical:
        raise UsageError("choose either --casimirs FILE or --classical")
    if args.casimirs:
        raw_cas, inputs["casimirs"] = _read_input(args.casimirs)
    elif args.classical:
        inputs["casimirs"] = {"derived": "classical"}
    else:
        inputs["casimirs"] = {"empty": True}
    if args.xi is not None:
        _parse_ratlist(args.xi, "--xi")   # refuse a malformed --xi before any stage

    verdicts, witnesses, timings = (report["verdicts"], report["witnesses"],
                                    report["timings"])
    moved: dict[str, float] = {}    # seconds of a stage's work done in another's step
    stages = _stages(args, report, raw_alg, raw_cas, moved)
    failed = None
    for name in STAGES:
        if failed:
            verdicts[name] = {"skipped": f"stage '{failed}' failed"}
            continue
        args._stage = name
        t = time.perf_counter()
        try:
            ok, verdict, witness = next(stages)
        except (ValueError, ArithmeticError) as exc:
            ok, verdict, witness = False, {"ok": False, "error": str(exc)}, None
        timings[name] = round(time.perf_counter() - t + moved.get(name, 0.0), 6)
        verdicts[name] = verdict
        if witness is not None:
            witnesses[name] = witness
        if not ok:
            failed = name
    report["stage_order"] = list(STAGES)
    if failed:
        report["failed_stage"] = failed
    return not failed


def _casimirs(args: argparse.Namespace, L: LieAlgebraData, raw_cas: Any) -> CasimirSet:
    """The pipeline's Casimirs, derived for --classical or read from the
    file, verified on L: centrality and independence are preconditions."""
    if args.classical:
        family, n = L.meta.get("family"), L.meta.get("n")
        if family not in ("gl", "sl"):
            raise ValueError("--classical needs a gl or sl algebra built by this tool")
        n = jsonio._int(n, "meta n")
        if L.dim != (dim := n * n - (family == "sl")):
            # checked first: the generators of a large n cost seconds
            raise ValueError(f"meta names {family}({n}) of dimension {dim}, "
                             f"but the table has dimension {L.dim}")
        gens = classical_casimir_polys(family, n)
    else:
        gens = () if raw_cas is None else jsonio.casimirs_from_json(raw_cas, L.dim)
    return CasimirSet.verified(L, gens, seed=args.seed, bound=args.bound)


def _stages(args: argparse.Namespace, report: dict, raw_alg: Any, raw_cas: Any,
            moved: dict[str, float]) -> Iterator[tuple[bool, dict, Any]]:
    """The pipeline's stages in STAGES order, each ending in a yield of
    (ok, verdict, witness); the driver resumes it only past a stage that
    passed.  The Casimirs are built and verified before estimate-index,
    to certify its rank ceiling; their time goes to `moved`, and an error
    in them is raised at the casimirs stage."""
    seed, bound = args.seed, args.bound
    L = jsonio.algebra_from_json(raw_alg)
    args._algebra = L
    xi = _vector(args, "xi", L.dim) if args.xi is not None else None
    rep = validate(L)
    yield rep.ok, rep.as_dict(), (None if rep.ok else rep.detail)

    t = time.perf_counter()
    cs = error = None
    try:
        cs = _casimirs(args, L, raw_cas)
    except Exception as exc:    # any error, raised at the casimirs stage as before
        error = exc
    moved["casimirs"] = time.perf_counter() - t
    moved["estimate-index"] = -moved["casimirs"]
    prof = estimate_index(L, trials=args.trials, seed=seed, bound=bound, casimirs=cs)
    yield True, prof.as_dict(), None

    codim2 = certify_codim2(L, prof, seed=seed, planes=args.planes, bound=bound)
    yield codim2.ok, codim2.as_dict(), (None if codim2.ok
                                        else {"divisor": codim2.witness_pretty})

    if error is not None:
        raise error
    if args.classical:     # _casimirs read meta n as an int
        report["inputs"]["casimirs"] = {
            "derived": f"classical {L.meta['family']}({int(L.meta['n'])})"}
    # the verified generators as a --casimirs file: shift build on it at
    # the build-family xi gives the family, so the report leaves it out
    report["casimirs"] = jsonio.casimirs_to_json(cs)
    yield True, {"count": len(cs), "degrees": list(cs.degrees),
                 "sum_degrees": cs.sum_degrees}, None

    dp = degree_profile(cs, prof).as_dict()
    ok = dp["classification"] == EXACT
    yield ok, dp, (None if ok else dp)

    if xi is not None:
        if not is_regular(L, prof, xi):
            yield False, {"ok": False, "error": "supplied shift direction is singular",
                          "xi": jsonio.vector_to_json(xi)}, None
            return
    else:
        for t in range(64):
            xi = integer_coords(rng_stream(seed, "pipeline-xi", t), L.dim, bound)
            if is_regular(L, prof, xi):
                break
        else:
            yield False, {"ok": False, "error": "no regular shift direction found"}, None
            return
    fam = build_family(L, cs, xi)
    yield True, {"xi": jsonio.vector_to_json(xi), "members": len(fam),
                 "member_degrees": [m.poly.degree() for m in fam.members]}, None

    cert = certify_commutative(fam)
    yield cert.ok, {"ok": cert.ok, "pairs_checked": cert.pairs_checked,
                    "method": cert.method}, (
        None if cert.ok else [{"i": i, "j": j, "route": route}
                              for i, j, route in cert.failures])

    # codim-2's search, the same one as this stage's, read as far as it went
    plane = find_regular_plane(L, prof, seed=seed, attempts=args.attempts, bound=bound,
                               tried=codim2.plane.tried if codim2.plane else ())
    yield plane.found, plane.as_dict(), None

    compl = verify_compl(L, cs, prof, plane.spec, certificate=plane.certificate,
                         nsamples=args.nsamples, seed=seed, bound=bound)
    yield compl.ok, compl.as_dict(), None

    bols = verify_bols(L, cs, prof, xi, codim2=codim2, seed=seed)
    yield bols.ok, bols.as_dict(), (None if bols.ok else bols.note)

    # separate what was machine-verified from what the general theory
    # implies but this run did not check
    concl = {
        "commutative-family": "verified",
        "independent-generators-on-certified-plane": "verified",
        "maximal-transcendence-degree": "verified",
        "inclusion-maximality": "not machine-checked (needs a codimension-3 "
                                "singular set, which this tool does not certify)",
        "codim3": {"certified": False, "plane_attempts": plane.attempts_used},
    }
    w = None
    if not fam.all_homogeneous():
        # the generated subalgebra is not graded, so the span of the
        # linear members need not be its degree-one part
        concl["inclusion-maximality"] = ("not machine-checked (the family has "
                                         "non-homogeneous members, so the linear "
                                         "witness search does not apply)")
    elif (w := find_nonmaximality_witness(fam)) is not None:
        concl["inclusion-maximality"] = ("refuted: a linear form outside the family "
                                         "commutes with every member")
    yield True, concl, (None if w is None else {"poly": jsonio.poly_to_json(w),
                                                "pretty": w.pretty(_var_names(L))})


# --- command table ----------------------------------------------------------

Arg = tuple[tuple[str, ...], dict]


def _arg(*flags: str, **kwargs: Any) -> Arg:
    return flags, kwargs


def _count(least: int) -> Callable[[str], int]:
    """An argparse type for an integer count of at least `least`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return parse


COMMON = (_arg("--seed", type=int, default=0, help="sampling seed"),
          _arg("--trials", type=_count(1), default=24, help="index estimation samples"),
          _arg("--bound", type=_count(1), default=9, help="sample height"),
          _arg("--out", help="write the report to a file"))
ALGEBRA, CASIMIRS = _arg("algebra"), _arg("casimirs")
XI, ETA = _arg("--xi", required=True), _arg("--eta", required=True)
IND = _arg("--ind", type=int)
NSAMPLES = _arg("--nsamples", type=_count(1), default=8)
PLANES = _arg("--planes", type=_count(0), default=4)
# --xi and --ind carry help text only where that command's -h has it
SHIFT = (ALGEBRA, CASIMIRS,
         _arg("--xi", required=True, help="shift direction, comma-separated rationals"))

# (group, command) -> (handler, its arguments after COMMON), in usage order
COMMANDS: dict[tuple[str, str], tuple[Callable[[argparse.Namespace], int],
                                      tuple[Arg, ...]]] = {
    ("algebra", "validate"): (cmd_algebra_validate, (ALGEBRA,)),
    ("algebra", "build"): (cmd_algebra_build, (
        _arg("kind", help="sl | gl | so | abelian | vinberg | takiff | "
                          "contraction-sl2-so2"),
        _arg("params", nargs="*"))),
    ("poisson", "bracket"): (cmd_poisson_bracket, (ALGEBRA, _arg("f"), _arg("g"))),
    ("poisson", "casimir-check"): (cmd_poisson_casimir_check, (ALGEBRA, _arg("poly"))),
    ("poisson", "index"): (cmd_poisson_index, (ALGEBRA,)),
    ("shift", "build"): (cmd_shift_build, SHIFT),
    ("shift", "certify"): (cmd_shift_certify, SHIFT),
    ("reg", "point"): (cmd_reg_point, (
        ALGEBRA, XI, _arg("--ind", type=int, help="declared index (default: estimate)"),
        _arg("--casimirs", help="also run the differential criterion"))),
    ("reg", "plane"): (cmd_reg_plane, (ALGEBRA, XI, ETA, IND)),
    ("reg", "codim2"): (cmd_reg_codim2, (ALGEBRA, IND, PLANES)),
    ("reg", "compl"): (cmd_reg_compl, (ALGEBRA, CASIMIRS, XI, ETA, IND, NSAMPLES)),
    ("reg", "bols"): (cmd_reg_bols, (ALGEBRA, CASIMIRS, XI, IND)),
    ("pencil", "analyze"): (cmd_pencil_analyze, (
        _arg("algebra", nargs="?"), _arg("--xi"), _arg("--eta"),
        _arg("--matrices", help='JSON file {"A": [[...]], "B": [[...]]}'))),
    ("pipeline", "run"): (cmd_pipeline_run, (
        ALGEBRA, _arg("--casimirs"),
        _arg("--classical", action="store_true",
             help="derive central generators for gl/sl algebras"),
        _arg("--xi"), _arg("--attempts", type=_count(1), default=20), NSAMPLES, PLANES)),
}


def _usage() -> str:
    groups: dict[str, list[str]] = {}
    for group, command in COMMANDS:
        groups.setdefault(group, []).append(command)
    width = max(map(len, groups))
    return "usage: argshift GROUP COMMAND [-h] [options]\n\n" + "".join(
        f"argshift {group:<{width}} {'|'.join(commands)}\n"
        for group, commands in groups.items())


def _glued(argv: Sequence[str]) -> list[str]:
    """argv with `--xi -2,9` and `--eta -2,9` written `--xi=-2,9`:
    argparse takes a token that starts with "-" for an option, so a
    point whose first coordinate is negative is joined to its option."""
    out: list[str] = []
    for a in argv:
        if out and out[-1] in ("--xi", "--eta") and a[:1] == "-" and a[1:2].isdigit():
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    entry = COMMANDS.get(tuple(argv[:2]))
    if entry is None:
        asked = any(a in ("-h", "--help") for a in argv[:2])
        (sys.stdout if asked else sys.stderr).write(_usage())
        return EXIT_PASS if asked else EXIT_USAGE
    handler, specs = entry
    name = " ".join(argv[:2])
    parser = argparse.ArgumentParser(prog=f"argshift {name}")
    for flags, kwargs in COMMON + specs:
        parser.add_argument(*flags, **kwargs)
    try:
        args = parser.parse_args(_glued(argv[2:]))
    except SystemExit as exc:
        return EXIT_PASS if exc.code in (0, None) else EXIT_USAGE
    args.command_name = name
    try:
        return handler(args)
    except FalsificationError as exc:
        algebra = getattr(args, "_algebra", None)
        report = {"schema": SCHEMA, "command": name, "status": "falsified",
                  "claim": exc.claim, "bundle": exc.bundle,
                  "seed": args.seed, "stage": getattr(args, "_stage", None),
                  "algebra": algebra and jsonio.algebra_to_json(algebra)}
        _write_out(report, args.out)
        return EXIT_FALSIFIED
    except (UsageError, OSError, ValueError, KeyError, TypeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
