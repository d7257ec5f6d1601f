"""The four benchmark workloads: inputs, one operation, and its check.

Each workload is a ``setup(seed, workdir)`` that returns a state, an
``op(state)`` that is timed, and a ``check(state, result)`` that returns a
list of problems (empty when the result is right).  Checks compare against
``oracles`` or test properties the construction must have; none compares
against a stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import oracles

import voaforms.cli as cli
import voaforms.forms as fm
from voaforms.voa import EvenLattice, TruncatedVOA

A1 = [[2]]
A2 = [[2, 1], [1, 2]]
SWAP = [[0, 1], [1, 0]]


def _check_ranks(J, dims, problems):
    ranks = [J.rank(d) for d in range(len(dims))]
    if ranks != dims:
        problems.append(f"ranks {ranks} != series dimensions {dims}")


def _check_integral(J, problems, label="form"):
    """Gram matrices recomputed from the lattice rows are integral."""
    V = J.host
    for d in J.degrees():
        g = oracles.gram(J.lattice(d).basis_rows(), V.form_matrix(d))
        bad = [x for row in g for x in row if x.denominator != 1]
        if bad:
            problems.append(f"{label}: degree {d} Gram entry {bad[0]}")
            return


# ---------------------------------------------------------------------------
# build-a2n3: standard form on a fresh rank-2 host, then its certificate
# ---------------------------------------------------------------------------

def build_setup(seed, workdir):
    return {"gram": A2, "cutoff": 3, "rng": random.Random(seed),
            "dims": oracles.graded_dimensions(A2, 3), "samples": 12}


def build_op(st):
    V = TruncatedVOA(EvenLattice(st["gram"]), st["cutoff"])
    J = fm.standard_form(V)
    return J, fm.check_lattice_integral(J)


def check_built_form(J, cert, dims, rng, samples):
    problems = []
    V = J.host
    _check_ranks(J, dims, problems)
    if not cert.passed:
        problems.append("certificate did not pass")
    for d, info in cert.degrees.items():
        if any(Fraction(x).denominator != 1 for row in info["gram"]
               for x in row):
            problems.append(f"certificate Gram at degree {d} not integral")
            break
    _check_integral(J, problems)
    lat0 = J.lattice(0)
    if not (oracles.members(lat0.basis_rows(), [[1]])
            and oracles.members([[1]], lat0.basis_rows())):
        problems.append(f"degree-0 lattice {lat0.basis_rows()} is not Z vac")
    # seeded products u_k v of basis vectors, grouped by target degree
    degs = J.degrees()
    by_target = {}
    for _ in range(samples):
        da, db = rng.choice(degs), rng.choice(degs)
        k = rng.randint(da + db - 1 - V.cutoff, da + db - 1)
        u = rng.choice(J.lattice(da).basis_rows())
        v = rng.choice(J.lattice(db).basis_rows())
        prod = V.vertex_product(V.vector_from_coords(da, u), k,
                                V.vector_from_coords(db, v))
        if prod.is_zero():
            continue
        tgt, row = V.coords(prod)
        by_target.setdefault(tgt, []).append(row)
    for tgt, rows in sorted(by_target.items()):
        if not oracles.members(J.lattice(tgt).basis_rows(), rows):
            problems.append(f"a sampled product left the form "
                            f"at degree {tgt}")
    return problems


def build_check(st, result):
    J, cert = result
    return check_built_form(J, cert, st["dims"], st["rng"], st["samples"])


# ---------------------------------------------------------------------------
# invariant-a2n3: invariant intersection, dual stability, rescale, tel
# ---------------------------------------------------------------------------

def _copy(J):
    """Fresh form over the same lattices: per-form caches start empty."""
    return fm.TruncatedForm(J.host, J.lattices, J.generators, J.gen_degree,
                            J.saturation_trace)


def invariant_setup(seed, workdir, cutoff=3):
    V = TruncatedVOA(EvenLattice(A2), cutoff)
    lopsided = [V.parse_element(s) for s in
                ("1 * e(1,0)", "1 * e(-1,0)", "2 * e(0,1)", "2 * e(0,-1)")]
    return {"host": V, "J": fm.generate_form(V, lopsided),
            "S": fm.standard_form(V)}


def invariant_op(st):
    V = st["host"]
    J, S = _copy(st["J"]), _copy(st["S"])
    swap, neg = fm.VOAAutomorphism(V, SWAP), fm.negation_lift(V)
    K, exps = fm.invariant_form_intersect(J, [swap, neg])
    return {
        "auts": (swap, neg), "K": K, "exps": exps,
        "K_cert": fm.check_lattice_integral(K),
        "stable": [fm.dual_stability_check(S, n) for n in (1, 2, 3)],
        "rescale": fm.rescale_to_integral(S, 1)[:2],
        "tel": fm.tel_exponents(S, [neg]),
    }


def invariant_check(st, r):
    problems = []
    J, S, K = st["J"], st["S"], r["K"]
    for d in J.degrees():
        Jd, Kd = J.lattice(d).basis_rows(), K.lattice(d).basis_rows()
        if not oracles.members(Jd, Kd):
            problems.append(f"K_{d} is not inside J_{d}")
        images = [oracles.apply_columns(a.matrix(d), row)
                  for a in r["auts"] for row in Kd]
        if not oracles.members(Kd, images):
            problems.append(f"an automorphism does not map K_{d} into itself")
        want = oracles.quotient_exponent(Jd, Kd)
        if r["exps"].get(d) != want:
            problems.append(f"degree {d}: exponent {r['exps'].get(d)}, "
                            f"least m with m J_{d} in K_{d} is {want}")
    if not r["K_cert"].passed:
        problems.append("K's certificate did not pass")
    _check_integral(K, problems, "K")
    if r["stable"] != [True, True, True]:
        problems.append(f"dual stability for n = 1..3: {r['stable']}")
    m1, m2 = r["rescale"]
    g1 = oracles.gram(S.lattice(1).basis_rows(), S.host.form_matrix(1))
    want_m2 = oracles.lcm_of_denominators(oracles.inverse(g1))
    if (m1, m2) != (1, want_m2):
        problems.append(f"rescale gave (m1, m2) = ({m1}, {m2}), "
                        f"want (1, {want_m2})")
    if any(2 % e for e in r["tel"].values()):
        problems.append(f"tel exponents {r['tel']} do not all divide 2")
    return problems


# ---------------------------------------------------------------------------
# diverge-a1n4: saturation of 1/2 e(+-1) must fail with a growing trace
# ---------------------------------------------------------------------------

def diverge_setup(seed, workdir):
    return {"gram": A1, "cutoff": 4, "iter_bound": 4,
            "generators": ("1/2 * e(1)", "1/2 * e(-1)")}


def diverge_op(st):
    V = TruncatedVOA(EvenLattice(st["gram"]), st["cutoff"])
    gens = [V.parse_element(s) for s in st["generators"]]
    try:
        fm.generate_form(V, gens, iter_bound=st["iter_bound"])
    except fm.SaturationError as e:
        return e
    return None


def diverge_check(st, err):
    if not isinstance(err, fm.SaturationError):
        return ["saturation converged; it must diverge"]
    problems = []
    if len(err.trace) != st["iter_bound"]:
        problems.append(f"trace has {len(err.trace)} passes, "
                        f"iter_bound is {st['iter_bound']}")
    dens = [p.get(0) for p in err.trace]
    if not all(isinstance(x, int) and oracles.is_power_of_two(x)
               for x in dens):
        problems.append(f"degree-0 denominators {dens} are not powers of 2")
    elif any(a >= b for a, b in zip(dens, dens[1:])):
        problems.append(f"degree-0 denominators {dens} do not increase")
    return problems


# ---------------------------------------------------------------------------
# verify-a1n5: `voaforms verify` in-process on a manifest built at setup
# ---------------------------------------------------------------------------

def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def verify_setup(seed, workdir, cutoff=5):
    lat = os.path.join(workdir, "a1.json")
    gens = os.path.join(workdir, "generators.txt")
    manifest = os.path.join(workdir, "manifest.json")
    with open(lat, "w", encoding="utf-8") as fh:
        json.dump({"gram": A1}, fh)
    with open(gens, "w", encoding="utf-8") as fh:
        fh.write("1 * e(1)\n1 * e(-1)\n")
    rc, _ = _cli(["build", "--lattice", lat, "--generators", gens,
                  "--max-degree", str(cutoff), "--seed", str(seed),
                  "--format", "json", "-o", manifest])
    if rc != 0:
        raise RuntimeError(f"voaforms build exited {rc}")
    return {"manifest": manifest, "seed": seed, "cutoff": cutoff,
            "dims": oracles.graded_dimensions(A1, cutoff)}


def verify_op(st):
    return _cli(["verify", "--manifest", st["manifest"],
                 "--seed", str(st["seed"]), "--format", "json"])


def verify_check(st, result):
    rc, out = result
    try:
        payload = json.loads(out)
    except json.JSONDecodeError:
        return [f"verify printed no JSON report (exit code {rc})"]
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if payload.get("passed") is not True:
        problems.append("report does not say passed")
    results = [(x.get("suite"), x.get("passed"))
               for x in payload.get("results", [])]
    if len(results) != 10 or not all(ok for _, ok in results):
        problems.append(f"suites: {results}")
    if payload.get("scope") != f"degrees<={st['cutoff']}":
        problems.append(f"scope {payload.get('scope')!r}")
    with open(st["manifest"], encoding="utf-8") as fh:
        degrees = json.load(fh).get("degrees", {})
    ranks = [degrees.get(str(d), {}).get("basis_rank", 0)
             for d in range(st["cutoff"] + 1)]
    if ranks != st["dims"]:
        problems.append(f"manifest ranks {ranks} != series dimensions "
                        f"{st['dims']}")
    for d, info in degrees.items():
        if any(Fraction(x).denominator != 1 for row in info["gram"]
               for x in row):
            problems.append(f"manifest Gram at degree {d} not integral")
    return problems


WORKLOADS = {
    "build-a2n3": (build_setup, build_op, build_check),
    "invariant-a2n3": (invariant_setup, invariant_op, invariant_check),
    "diverge-a1n4": (diverge_setup, diverge_op, diverge_check),
    "verify-a1n5": (verify_setup, verify_op, verify_check),
}
