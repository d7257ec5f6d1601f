"""Command-line front end.

Subcommands wire lattice files, generator literals, cutoffs, and action
files into the library's construction and verification machinery.  Exit
codes: 0 success / all checks pass, 1 malformed input or a usage error,
2 saturation non-convergence (any subcommand; the per-pass growth trace
goes to stderr), 3 verification failure.  Reports are deterministic for a
fixed seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import contextmanager

from voaforms import forms as fm
from voaforms.dihedral import dihedral_2a_report
from voaforms.exact import format_rational
from voaforms.latgroup import ActionError
from voaforms.voa import (
    CutoffExceededError,
    ElementParseError,
    EvenLattice,
    NotHomogeneousError,
    TruncatedVOA,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_VERIFY_FAIL = 3


class InputError(Exception):
    """Malformed input; the message names the offending field."""


@contextmanager
def _input_errors(what: str):
    """Report a missing or malformed field of ``what`` as an InputError."""
    try:
        yield
    except fm.SaturationError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        missing = "missing field " if isinstance(e, KeyError) else ""
        raise InputError(f"{what}: {missing}{e}")


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise InputError(f"{what}: file not found: {path}")
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"{what}: cannot read {path}: {e}")


def _load_json(path: str, what: str) -> dict:
    try:
        data = json.loads(_read_text(path, what))
    except (ValueError, RecursionError) as e:  # bad syntax, digits or depth
        raise InputError(f"{what}: invalid JSON in {path}: {e}")
    if not isinstance(data, dict):
        raise InputError(f"{what}: {path} does not hold a JSON object")
    return data


def _load_form(path: str, iter_bound: int):
    """The manifest at path and the (host, form) regenerated from it."""
    manifest = _load_json(path, "manifest")
    with _input_errors("manifest"):
        V, J = fm.form_from_manifest(manifest, iter_bound=iter_bound)
    return manifest, V, J


def _load_lattice(path: str) -> EvenLattice:
    data = _load_json(path, "lattice")
    with _input_errors("lattice"):
        return EvenLattice.from_json(data)


def _load_generators(path: str, V: TruncatedVOA) -> list:
    gens = []
    for lineno, line in enumerate(
            _read_text(path, "generators").split("\n"), 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            gens.append(V.parse_element(text))
        except (ElementParseError, CutoffExceededError) as e:
            raise InputError(f"generators: line {lineno}: {e}")
    return gens


def _emit(payload: dict, fmt: str, output: str | None,
          text_renderer=None) -> None:
    if fmt == "json":
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        body = text_renderer(payload) if text_renderer else \
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(body)
        except OSError as e:
            raise InputError(f"output: cannot write {output}: {e}")
    else:
        sys.stdout.write(body)


def _numeric_items(m: dict) -> list:
    """The items of a map keyed by decimal strings, in numeric key order."""
    return sorted(m.items(), key=lambda kv: int(kv[0]))


def _render_matrix(rows) -> str:
    widths = [max(len(rows[i][j]) for i in range(len(rows)))
              for j in range(len(rows[0]))] if rows else []
    return "\n".join(
        "  [" + "  ".join(e.rjust(w) for e, w in zip(row, widths)) + "]"
        for row in rows)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def cmd_build(args) -> int:
    lattice = _load_lattice(args.lattice)
    if args.max_degree < 0:
        raise InputError("max-degree: must be >= 0")
    try:
        V = TruncatedVOA(lattice, args.max_degree)
    except ValueError as e:
        raise InputError(f"max-degree: {e}")
    gens = _load_generators(args.generators, V) if args.generators else []
    if args.gen_degree is not None:
        if not (0 <= args.gen_degree <= args.max_degree):
            raise InputError("gen-degree: need 0 <= t <= max-degree")
    try:
        J = fm.generate_form(V, gens, gen_degree=args.gen_degree,
                             iter_bound=args.iter_bound)
    except NotHomogeneousError as e:
        raise InputError(f"generators: {e}")
    except fm.PreconditionError as e:  # a generator above --gen-degree
        raise InputError(f"gen-degree: {e}")
    manifest = fm.build_manifest(J)
    manifest["seed"] = args.seed
    _emit(manifest, args.format, args.output, _render_manifest_text)
    return EXIT_OK


def _render_manifest_text(m: dict) -> str:
    lines = [f"rank {m['lattice']['rank']} lattice, cutoff {m['cutoff']}"]
    lines.append("generators:")
    for g in m["generators"]:
        lines.append(f"  {g}")
    lines.append("degrees:")
    for d, info in _numeric_items(m["degrees"]):
        lines.append(f"  {d}: rank {info['basis_rank']}, "
                     f"li={'yes' if info['li'] else 'no'}")
    if "denominator_trace" in m:
        lines.append("denominator lcm trace (per pass):")
        for i, p in enumerate(m["denominator_trace"], 1):
            lines.append(f"  pass {i}: {p}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _encode(value) -> str:
    """JSON text of a value: 1, 1.0 and true differ here, unlike under ==."""
    return json.dumps(value, sort_keys=True)


def _suite_manifest_consistency(V, J, manifest):
    recorded = manifest.get("degrees", {})
    if not isinstance(recorded, dict):
        raise InputError("manifest: degrees: not an object")
    has_trace = "denominator_trace" in manifest
    trace = manifest.get("denominator_trace")
    if has_trace:
        if not isinstance(trace, list):
            raise InputError("manifest: denominator_trace: not a list")
        for i, entry in enumerate(trace):
            if not isinstance(entry, dict):
                raise InputError(
                    f"manifest: denominator_trace: entry {i}: not an object")
    built = fm.build_manifest(J)
    want = built["degrees"]
    for d in range(V.cutoff + 1):
        info = want.get(str(d))
        rec = recorded.get(str(d))
        if (info is None) != (rec is None):
            return False, f"degree {d}: presence mismatch"
        if info is None:
            continue
        if not isinstance(rec, dict):
            raise InputError(f"manifest: degrees.{d}: not an object")
        for key, what in (("basis_rank", "rank"), ("gram", "gram"),
                          ("li", "li flag")):
            if key not in rec:
                raise InputError(
                    f"manifest: degrees.{d}: missing field '{key}'")
            if _encode(rec[key]) != _encode(info[key]):
                return False, f"degree {d}: {what} mismatch"
    extra = sorted(set(recorded) - {str(d) for d in range(V.cutoff + 1)})
    if extra:
        return False, f"degree {extra[0]!r}: outside 0..{V.cutoff}"
    if has_trace and (_encode(trace)
                      != _encode(built.get("denominator_trace"))):
        return False, "denominator trace mismatch"
    return True, None


def _suite_integrality(V, J, manifest):
    cert = fm.check_lattice_integral(J)
    if cert.passed:
        return True, None
    d, i, j, val = cert.first_failure
    return False, (f"degree {d}: entry ({i},{j}) = "
                   f"{format_rational(val)} is not an integer")


def _suite_vacuum_products(V, J, manifest):
    vac = V.vacuum()
    for d in range(V.cutoff + 1):
        for mono in V.graded_basis(d):
            gv = V.monomial_vector(mono.modes, mono.tail)
            for k in range(max(d - V.cutoff - 1, -4), 2):
                if d - k - 1 > V.cutoff:
                    continue
                got = V.vertex_product(vac, k, gv)
                want_zero = k != -1
                if want_zero and not got.is_zero():
                    return False, f"vac_{k} on degree-{d} element nonzero"
                if not want_zero and got != gv:
                    return False, f"vac_-1 not identity at degree {d}"
            if not V.vertex_product(gv, 0, vac).is_zero():
                return False, f"a_0 vac nonzero at degree {d}"
            if V.vertex_product(gv, -1, vac) != gv:
                return False, f"a_-1 vac != a at degree {d}"
            if d + 1 <= V.cutoff:
                lhs = V.vertex_product(gv, -2, vac)
                if lhs != V.L_apply(-1, gv):
                    return False, f"a_-2 vac != L(-1)a at degree {d}"
    return True, None


def _suite_vacuum_line(V, J, manifest):
    try:
        n = fm.vacuum_intersection(J)
    except fm.FormError as e:
        return False, str(e)
    return True, f"n = {n}"


def _suite_dual_stability(V, J, manifest):
    for n in range(1, min(4, V.cutoff) + 1):
        try:
            ok, witness = fm.dual_stability_check(J, n, return_witness=True)
        except fm.FormError as e:
            return False, str(e)
        if not ok:
            return False, f"order {n}: witness degree {witness[0]}"
    return True, None


def _suite_rescale(V, J, manifest):
    t = J.gen_degree if J.gen_degree is not None else 1
    if t < 1:
        return True, "trivial (t = 0)"
    try:
        m1, m2, _ = fm.rescale_to_integral(J, t)
    except fm.FormError as e:
        return False, str(e)
    return True, f"m1 = {m1}, m2 = {m2}"


def _suite_scaled_vacuum(V, J, manifest):
    m = fm.minimal_integral_scale(J)
    try:
        fm.scaled_with_vacuum(J, m, seed=0)
    except fm.FormError as e:
        return False, str(e)
    return True, f"m = {m}"


def _suite_quasi_primary(V, J, manifest):
    gens = [g for g in J.generators if not g.is_zero()]
    bad = [i for i, g in enumerate(gens) if not V.is_quasi_primary(g)]
    if bad:
        return False, f"generator indices not quasi-primary: {bad}"
    return True, None


def _suite_closure(V, J, manifest, seed=0):
    ok, witness = fm.closure_sample(J, samples=200, seed=seed)
    if not ok:
        return False, f"witness (da, ia, db, ib, k) = {witness}"
    return True, None


def _suite_invariance(V, J, manifest, seed=0):
    rng = random.Random(seed)
    degs = [d for d in J.degrees() if J.rank(d) > 0]
    if not degs:
        return True, "empty form"
    for _ in range(50):
        picks = []
        for _ in range(3):
            d = rng.choice(degs)
            row = J.lattice(d).basis_row(rng.randrange(J.rank(d)))
            picks.append(V.vector_from_coords(d, row))
        if not V.invariance_identity_check(*picks):
            return False, "identity failed on a sampled triple"
    return True, None


VERIFY_SUITES = [
    ("manifest-consistency", _suite_manifest_consistency),
    ("integrality", _suite_integrality),
    ("vacuum-products", _suite_vacuum_products),
    ("vacuum-line", _suite_vacuum_line),
    ("dual-stability", _suite_dual_stability),
    ("rescale", _suite_rescale),
    ("scaled-vacuum", _suite_scaled_vacuum),
    ("quasi-primary-generators", _suite_quasi_primary),
    ("closure-sampling", _suite_closure),
    ("invariance-identity", _suite_invariance),
]


def cmd_verify(args) -> int:
    if args.suite == "dihedral2a":
        return cmd_dihedral2a(args)
    if args.suite not in ["all"] + [name for name, _ in VERIFY_SUITES]:
        raise InputError(f"suite: unknown suite {args.suite!r}")
    if not args.manifest:
        raise InputError("manifest: required unless --suite dihedral2a")
    manifest, V, J = _load_form(args.manifest, args.iter_bound)
    results = []
    all_ok = True
    for name, suite in VERIFY_SUITES:
        if args.suite not in ("all", name):
            continue
        if name in ("closure-sampling", "invariance-identity"):
            ok, detail = suite(V, J, manifest, seed=args.seed)
        else:
            ok, detail = suite(V, J, manifest)
        results.append({"suite": name, "passed": ok,
                        "detail": detail})
        all_ok = all_ok and ok
    payload = {"scope": f"degrees<={V.cutoff}", "seed": args.seed,
               "results": results, "passed": all_ok}
    _emit(payload, args.format, args.output, _render_verify_text)
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


def _render_verify_text(p: dict) -> str:
    lines = [f"verification ({p['scope']}, seed {p['seed']})"]
    for r in p["results"]:
        mark = "PASS" if r["passed"] else "FAIL"
        detail = f"  [{r['detail']}]" if r["detail"] else ""
        lines.append(f"  {mark}  {r['suite']}{detail}")
    lines.append("overall: " + ("PASS" if p["passed"] else "FAIL"))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# rescale / dual / tel / nli-transfer
# ---------------------------------------------------------------------------

def cmd_rescale(args) -> int:
    _, V, J = _load_form(args.manifest, args.iter_bound)
    t = args.gen_degree
    if t is None:
        t = J.gen_degree if J.gen_degree is not None else 1
    elif not 0 <= t <= V.cutoff:
        raise InputError(f"gen-degree: need 0 <= t <= cutoff = {V.cutoff}")
    try:
        m1, m2, Jm = fm.rescale_to_integral(J, t, iter_bound=args.iter_bound)
    except fm.SaturationError:
        raise  # reported by main
    except fm.FormError as e:
        sys.stderr.write(f"rescale failed: {e}\n")
        return EXIT_VERIFY_FAIL
    cert = fm.check_lattice_integral(Jm)
    payload = {"scope": cert.scope, "seed": args.seed,
               "m1": m1, "m2": m2, "m": m1 * m2,
               "certificate": cert.to_json()}
    _emit(payload, args.format, args.output, _render_rescale_text)
    return EXIT_OK if cert.passed else EXIT_VERIFY_FAIL


def _render_rescale_text(p: dict) -> str:
    lines = [f"rescale ({p['scope']}): m1 = {p['m1']}, m2 = {p['m2']}, "
             f"m = {p['m']}"]
    for d, info in _numeric_items(p["certificate"]["degrees"]):
        lines.append(f"  degree {d}: rank {info['basis_rank']}, "
                     f"li={'yes' if info['li'] else 'no'}")
    lines.append("overall: " +
                 ("PASS" if p["certificate"]["passed"] else "FAIL"))
    return "\n".join(lines) + "\n"


def cmd_dual(args) -> int:
    _, V, J = _load_form(args.manifest, args.iter_bound)
    try:
        duals = fm.dual_form(J)
        stability = {str(n): fm.dual_stability_check(J, n)
                     for n in range(1, args.stability_order + 1)}
    except fm.FormError as e:
        sys.stderr.write(f"dual failed: {e}\n")
        return EXIT_VERIFY_FAIL
    table = {str(d): {"rank": duals.lattice(d).rank,
                      "denominator": duals.lattice(d).den,
                      "span_relative": d in duals.low_rank_degrees}
             for d in duals.degrees()}
    payload = {"scope": f"degrees<={V.cutoff}", "seed": args.seed,
               "degrees": table,
               "stability": stability,
               "passed": all(stability.values())}
    _emit(payload, args.format, args.output, _render_dual_text)
    return EXIT_OK if payload["passed"] else EXIT_VERIFY_FAIL


def _render_dual_text(p: dict) -> str:
    lines = [f"dual family ({p['scope']})"]
    for d, info in _numeric_items(p["degrees"]):
        extra = " (span-relative)" if info["span_relative"] else ""
        lines.append(f"  degree {d}: rank {info['rank']}, "
                     f"denominator {info['denominator']}{extra}")
    for n, ok in _numeric_items(p["stability"]):
        lines.append(f"  raising-stability order {n}: "
                     f"{'PASS' if ok else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _load_automorphisms(path: str, V: TruncatedVOA) -> list:
    data = _load_json(path, "action")
    if "isometries" not in data:
        raise InputError("action: missing field 'isometries'")
    mats = data["isometries"]
    if not isinstance(mats, list):
        raise InputError("action: isometries: not a list")
    signs = data.get("tail_signs")
    if signs is None:
        signs = [None] * len(mats)
    if not isinstance(signs, list):
        raise InputError("action: tail_signs: not a list")
    if len(signs) != len(mats):
        raise InputError("action: tail_signs: length != isometries length")
    auts = []
    for i, (m, s) in enumerate(zip(mats, signs)):
        if not (isinstance(m, list) and all(isinstance(r, list) for r in m)):
            raise InputError(f"action: isometry {i}: not a list of rows")
        if not (s is None or isinstance(s, list)):
            raise InputError(f"action: tail_signs: entry {i}: not a list")
        try:
            s = fm.VOAAutomorphism.checked_signs(V.lattice.rank, s)
        except ValueError as e:
            raise InputError(f"action: tail_signs: entry {i}: {e}")
        try:
            aut = fm.VOAAutomorphism(V, m, s)
        except (ValueError, TypeError) as e:
            raise InputError(f"action: isometry {i}: {e}")
        if aut in auts:  # each copy would double the characters of tel
            raise InputError(
                f"action: isometry {i}: repeats isometry {auts.index(aut)}")
        auts.append(aut)
    n = V.lattice.rank
    one = fm.VOAAutomorphism(V, [[int(i == j) for j in range(n)]
                                 for i in range(n)])
    if all(a.compose(a) == one and a.compose(b) == b.compose(a)
           for a in auts for b in auts):
        # commuting involutions: a lift inside the group of the earlier
        # ones would double the characters without growing the group
        group = {one}
        for i, aut in enumerate(auts):
            if aut in group:
                raise InputError(f"action: isometry {i}: is a product of "
                                 "earlier isometries")
            group |= {aut.compose(g) for g in group}
    return auts


def cmd_tel(args) -> int:
    _, V, J = _load_form(args.manifest, args.iter_bound)
    auts = _load_automorphisms(args.action, V)
    r = len(auts)
    try:
        fams, exps = fm.eigenform_decomposition(J, auts)
    except fm.PreconditionError:
        sys.stderr.write("action does not preserve the form\n")
        return EXIT_VERIFY_FAIL
    except ActionError as e:
        # a lift of involutive isometries need not be an involution on V
        raise InputError(f"action: {e}")
    eigen = {"".join("+" if s == 1 else "-" for s in ch.signs):
             {str(d): fam[d].rank for d in sorted(fam)}
             for ch, fam in fams.items()}
    ok = all((1 << r) % e == 0 for e in exps.values())
    payload = {"scope": f"degrees<={V.cutoff}", "seed": args.seed,
               "rank": r,
               "eigenform_ranks": eigen,
               "tel_exponents": {str(d): e for d, e in sorted(exps.items())},
               "passed": ok}
    _emit(payload, args.format, args.output, _render_tel_text)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _render_tel_text(p: dict) -> str:
    lines = [f"eigenform decomposition ({p['scope']}, rank {p['rank']})"]
    for ch, ranks in sorted(p["eigenform_ranks"].items()):
        lines.append(f"  character {ch}: ranks {ranks}")
    lines.append(f"  total-eigenlattice exponents: {p['tel_exponents']}")
    lines.append("overall: " + ("PASS" if p["passed"] else "FAIL"))
    return "\n".join(lines) + "\n"


def cmd_nli_transfer(args) -> int:
    man_a, V, J = _load_form(args.manifest, args.iter_bound)
    man_b = _load_json(args.other, "other")
    with _input_errors("other"):
        if man_a["lattice"] != man_b["lattice"] or \
                man_a["cutoff"] != man_b["cutoff"]:
            raise InputError("other: host lattice or cutoff differs")
        _, K = fm.form_from_manifest(man_b, args.iter_bound, host=V)
    try:
        mjk, mkj, per = fm.mutual_scale_report(J, K)
    except fm.RankMismatchError as e:
        sys.stderr.write(f"{e}\n")
        return EXIT_VERIFY_FAIL
    payload = {"scope": f"degrees<={V.cutoff}", "seed": args.seed,
               "m_first_into_second": mjk, "m_second_into_first": mkj,
               "per_degree": {str(d): list(v) for d, v in sorted(per.items())}}
    _emit(payload, args.format, args.output,
          lambda p: (f"mutual scales ({p['scope']}): "
                     f"{p['m_first_into_second']} / "
                     f"{p['m_second_into_first']}\n" +
                     "".join(f"  degree {d}: {tuple(v)}\n"
                             for d, v in _numeric_items(p["per_degree"]))))
    return EXIT_OK


# ---------------------------------------------------------------------------
# dihedral2a
# ---------------------------------------------------------------------------

def _render_dihedral_text(r: dict) -> str:
    lines = ["dihedral 2A algebra, exact report",
             f"basis: {', '.join(r['basis'])}"]
    for name in ("a", "b", "c"):
        lines.append(f"ad({name}):")
        lines.append(_render_matrix(r["ad"][name]))
    for name in ("AA", "AB", "AC", "A_ad_ab"):
        lines.append(f"{name}:")
        lines.append(_render_matrix(r["products"][name]))
    lines.append("trace-form Gram:")
    lines.append(_render_matrix(r["gram"]["killing"]))
    lines.append("natural-form Gram:")
    lines.append(_render_matrix(r["gram"]["natural"]))
    lines.append(f"Tr(AB) = {r['traces']['AB']}, "
                 f"Tr(A ad(ab)) = {r['traces']['A_ad_ab']}")
    v = r["verdicts"]
    lines.append(f"natural form associative: {v['natural_associative']}")
    lines.append(f"trace form associative: {v['killing_associative']}")
    lines.append(f"forms proportional: {v['proportional']}")
    if "killing_witness" in r:
        w = r["killing_witness"]
        lines.append(f"witness triple {tuple(w['triple'])}: "
                     f"{w['form_of_product_left']} vs "
                     f"{w['form_of_product_right']}")
    return "\n".join(lines) + "\n"


def cmd_dihedral2a(args) -> int:
    report = dihedral_2a_report()
    report["seed"] = args.seed
    _emit(report, args.format, args.output, _render_dihedral_text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--iter-bound", type=int, default=50)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (malformed input), not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _check_counts(args) -> None:
    """Range checks of the count options, shared by every subcommand."""
    if args.iter_bound < 1:
        raise InputError("iter-bound: must be >= 1")
    if getattr(args, "stability_order", 1) < 1:
        raise InputError("stability-order: must be >= 1")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="voaforms",
        description="exact truncated lattice VOAs and their integral forms")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="generate a form and write its manifest")
    p.add_argument("--lattice", required=True)
    p.add_argument("--generators", default=None)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--gen-degree", type=int, default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--manifest", default=None)
    p.add_argument("--suite", default="all")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("rescale", help="rescale low degrees to integrality")
    p.add_argument("--manifest", required=True)
    p.add_argument("--gen-degree", type=int, default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_rescale)

    p = sub.add_parser("dual", help="dual family and raising stability")
    p.add_argument("--manifest", required=True)
    p.add_argument("--stability-order", type=int, default=2)
    _add_common(p)
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("tel", help="character eigenforms and exponents")
    p.add_argument("--manifest", required=True)
    p.add_argument("--action", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_tel)

    p = sub.add_parser("dihedral2a", help="exact dihedral 2A report")
    _add_common(p)
    p.set_defaults(fn=cmd_dihedral2a)

    p = sub.add_parser("nli-transfer", help="mutual scales of two forms")
    p.add_argument("--manifest", required=True)
    p.add_argument("--other", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_nli_transfer)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _check_counts(args)
        return args.fn(args)
    except InputError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INPUT
    except fm.SaturationError as e:
        sys.stderr.write(f"saturation did not converge: {e}\n")
        sys.stderr.write("growth trace (per pass, per degree denominator "
                         "lcm):\n")
        for i, p in enumerate(e.trace, 1):
            sys.stderr.write(f"  pass {i}: {p}\n")
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
