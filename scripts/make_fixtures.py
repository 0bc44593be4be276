"""Regenerate every committed data artifact from fixed seeds.

Run from the repository root:

    python3 scripts/make_fixtures.py

Writes, deterministically:

  src/framelab/fixtures/        fix_r000..fix_r019 documents, and for them and
                                the committed fix_a / fix_i documents the
                                .oracle.json sidecars with reference spectra
                                and bisection lower bounds
  tests/data/mp_suite.json      200 matrices of varied rank
  tests/data/douglas_suite.json 100 range-inclusion pairs + 20 negatives
  tests/data/projection_lemma_suite.json  100 (subspace, unitary) pairs
  tests/data/paley_wiener_suite.json      100 certified near-identity cases
  tests/data/cli/               auxiliary documents for CLI tests
  tests/data/cli_reports/       frozen CLI reports + case index

Every artifact is validated before it is written; the script fails loudly
rather than committing a fixture that does not satisfy the properties the
test suite pins against it.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from framelab.cli import main
from framelab.documents import (
    FrameDocument,
    _encode_matrix,
    canonical_json,
    dumps,
    load_packaged_fixture,
    oracle_sidecar_path,
    spec_document,
    to_system,
)
from framelab.duality import (
    canonical_dual,
    construct_q_dual,
    parsevalize,
    qdual_bound_corollary,
    verify_kgf_dual,
    verify_q_dual,
)
from framelab.frame_ops import (
    frame_operator,
    optimal_bounds,
    subset_frame_operators,
    verify_k_g_fusion,
)
from framelab.model import (
    BoundedOperator,
    GFusionSystem,
    HilbertSpace,
    LocalOperator,
    WeightedSubspace,
)
from framelab.numerics import ToleranceProfile, operator_norm, orthonormalize
from framelab.oracle import oracle_payload, reference_lower_bound

TOL = ToleranceProfile()
FIXTURE_DIR = ROOT / "src" / "framelab" / "fixtures"
DATA_DIR = ROOT / "tests" / "data"


def gauss(rng, shape, complex_field):
    m = rng.standard_normal(shape)
    if complex_field:
        m = (m + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return m


def random_invertible(rng, dim, complex_field):
    # singular values bounded away from zero so k is safely invertible
    q1, _ = np.linalg.qr(gauss(rng, (dim, dim), complex_field))
    q2, _ = np.linalg.qr(gauss(rng, (dim, dim), complex_field))
    return q1 @ np.diag(0.6 + rng.random(dim)) @ q2


def random_system(rng, dim, n_members, complex_field):
    space = HilbertSpace("complex" if complex_field else "real", dim)
    members = []
    total_rows = 0
    for idx in range(n_members):
        m = int(rng.integers(1, dim))
        d = int(rng.integers(2, dim + 1))
        if idx == n_members - 1 and total_rows + d < dim + 1:
            d = dim + 1 - total_rows
        total_rows += d
        basis = orthonormalize(gauss(rng, (dim, m), complex_field))
        local = 0.8 * gauss(rng, (d, dim), complex_field)
        weight = 0.5 + float(rng.random())
        members.append((WeightedSubspace(basis, weight), LocalOperator(local)))
    return GFusionSystem(space, tuple(members))


def validate_candidate(system, k):
    """All properties the acceptance suite will pin for a FIX-R system."""
    report = verify_k_g_fusion(system, k, tol=TOL)
    if not report.is_frame:
        return "not a frame"
    bounds = optimal_bounds(system, k, TOL)

    s = frame_operator(system)
    k_mat = k.matrix
    k_inv = np.linalg.inv(k_mat)
    m = k_inv @ s @ k_inv.conj().T
    eigs = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    # scaling families c in {0.9, 1.05, 1.1} must stay admissible with margin
    if 0.01 * eigs[-1] >= 0.5 * eigs[0]:
        return f"scaling margin (cond {eigs[-1] / eigs[0]:.1f})"

    ref_lower = reference_lower_bound([list(row) for row in s],
                                      [list(row) for row in k_mat])
    if abs(ref_lower - bounds.lower) > 5e-9 * max(1.0, bounds.lower):
        return "oracle lower disagreement"

    try:
        pair = construct_q_dual(system, k, TOL)
    except Exception as exc:  # noqa: BLE001 - generation-time triage
        return f"q-dual construction ({exc})"
    if pair.residual > 1e-9 * max(1.0, k.norm):
        return "q-dual residual"
    dual_report = verify_q_dual(pair, TOL)
    forms = (dual_report.synthesis_residual, dual_report.adjoint_residual,
             dual_report.bilinear_residual)
    if not dual_report.passed or max(forms) > 1e-10 * max(1.0, k.norm):
        return "q-dual forms"
    if not verify_k_g_fusion(pair.dual, k.adjoint(), tol=TOL).is_frame:
        return "q-dual not a k*-frame"
    corollary = qdual_bound_corollary(pair, TOL)
    if not (corollary.lower_ok and corollary.upper_ok):
        return "q-dual corollary"

    cpair = canonical_dual(system, k, TOL)
    if cpair.exploratory:
        return "canonical dual exploratory"
    creport = verify_kgf_dual(cpair, TOL)
    if not (creport.passed and creport.certified_lower_ok):
        return "canonical dual verification"
    if max(creport.operator_residual, creport.probe_residual) > 1e-9:
        return "canonical dual residual"
    first = np.arange(system.size) == 0
    s_first, s_rest = subset_frame_operators(system, np.stack([first, ~first]), cpair.dual)
    if operator_norm(s_first + s_rest - k.matrix) > 1e-10 * max(1.0, k.norm):
        return "partial-operator identity"

    root = parsevalize(system, TOL)
    if np.linalg.norm(s - root.matrix @ root.matrix.conj().T, 2) > 1e-10:
        return "parseval generator"
    return None


def make_fix_r(index):
    dims = [3, 4, 5, 6, 7, 8]
    counts = [2, 3, 4, 5]
    dim = dims[index % len(dims)]
    n_members = counts[index % len(counts)]
    complex_field = index % 3 == 2  # six complex systems out of twenty
    seed = 0xF1C0 + 7919 * index
    for attempt in range(400):
        rng = np.random.Generator(np.random.PCG64(seed + 1000 * attempt))
        system = random_system(rng, dim, n_members, complex_field)
        k = BoundedOperator(random_invertible(rng, dim, complex_field))
        reason = validate_candidate(system, k)
        if reason is None:
            meta = {"name": f"FIX-R{index:03d}",
                    "seed": seed + 1000 * attempt,
                    "field": "complex" if complex_field else "real"}
            from framelab.documents import from_system
            return from_system(system, {"k": k}, meta), attempt, reason
    raise RuntimeError(f"FIX-R{index:03d}: no admissible system in 400 attempts")


def fixture_path(doc):
    return FIXTURE_DIR / (doc.meta["name"].lower().replace("-", "_") + ".json")


def write_sidecar(doc):
    sidecar = oracle_sidecar_path(fixture_path(doc))
    sidecar.write_text(canonical_json(oracle_payload(doc)), encoding="utf-8")


def build_fixtures():
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    # the committed FIX-A and FIX-I documents are the source; only their sidecars are derived
    for name in ("FIX-A", "FIX-I"):
        write_sidecar(load_packaged_fixture(name))
        print(f"  {name}: sidecar written")
    for index in range(20):
        doc, attempts, _ = make_fix_r(index)
        fixture_path(doc).write_text(dumps(doc), encoding="utf-8")
        write_sidecar(doc)
        system, ops = to_system(doc)
        b = optimal_bounds(system, ops["k"], TOL)
        print(f"  {doc.meta['name']}: dim {doc.dim}, {system.size} members, "
              f"{doc.field}, bounds ({b.lower:.3g}, {b.upper:.3g}), "
              f"attempt {attempts}")


def suite_matrix(m, complex_field):
    return _encode_matrix(np.asarray(m), complex_field)


def build_mp_suite(rng):
    cases = []
    while len(cases) < 200:
        complex_field = len(cases) % 2 == 1
        rows = int(rng.integers(2, 9))
        cols = int(rng.integers(2, 9))
        rank = int(rng.integers(1, min(rows, cols) + 1))
        left = gauss(rng, (rows, rank), complex_field)
        right = gauss(rng, (rank, cols), complex_field)
        matrix = left @ right
        sv = np.linalg.svd(matrix, compute_uv=False)
        # keep the numerical rank unambiguous for the frozen value
        if sv[rank - 1] < 1e-3 * sv[0]:
            continue
        cases.append({
            "field": "complex" if complex_field else "real",
            "rank": rank,
            "matrix": suite_matrix(matrix, complex_field),
        })
    payload = {"meta": {"count": len(cases), "seed": "0x4D50"}, "cases": cases}
    (DATA_DIR / "mp_suite.json").write_text(canonical_json(payload), encoding="utf-8")
    print(f"  mp_suite: {len(cases)} cases")


def build_douglas_suite(rng):
    pairs = []
    while len(pairs) < 100:
        complex_field = len(pairs) % 2 == 1
        dim = int(rng.integers(2, 8))
        width = int(rng.integers(dim, dim + 5))
        g_cols = int(rng.integers(1, dim + 3))
        l2 = gauss(rng, (dim, width), complex_field)
        if len(pairs) % 10 == 9:
            # a few rank-deficient carriers: inclusion still holds by construction
            drop = int(rng.integers(1, dim))
            u, sv, vh = np.linalg.svd(l2, full_matrices=False)
            sv[dim - drop:] = 0.0
            l2 = (u * sv) @ vh
        g = gauss(rng, (width, g_cols), complex_field)
        if np.linalg.norm(l2 @ g, 2) < 1e-6:
            continue
        pairs.append({
            "field": "complex" if complex_field else "real",
            "l2": suite_matrix(l2, complex_field),
            "g": suite_matrix(g, complex_field),
        })
    negatives = []
    while len(negatives) < 20:
        complex_field = len(negatives) % 2 == 1
        dim = int(rng.integers(3, 8))
        width = int(rng.integers(dim, dim + 4))
        rank = int(rng.integers(1, dim))
        t = gauss(rng, (dim, rank), complex_field) @ gauss(rng, (rank, width), complex_field)
        u, _, _ = np.linalg.svd(t)
        outside = u[:, -1]  # unit vector orthogonal to ran(t)
        k = t @ gauss(rng, (width, dim), complex_field)
        k = k + np.outer(outside, gauss(rng, dim, complex_field))
        negatives.append({
            "field": "complex" if complex_field else "real",
            "t": suite_matrix(t, complex_field),
            "k": suite_matrix(k, complex_field),
        })
    payload = {"meta": {"count": len(pairs), "negatives": len(negatives),
                        "seed": "0xD095"},
               "pairs": pairs, "negatives": negatives}
    (DATA_DIR / "douglas_suite.json").write_text(canonical_json(payload), encoding="utf-8")
    print(f"  douglas_suite: {len(pairs)} pairs + {len(negatives)} negatives")


def build_projection_suite(rng):
    cases = []
    for i in range(100):
        complex_field = i % 2 == 1
        dim = int(rng.integers(2, 9))
        m = int(rng.integers(1, dim + 1))
        basis = orthonormalize(gauss(rng, (dim, m), complex_field))
        unitary, _ = np.linalg.qr(gauss(rng, (dim, dim), complex_field))
        cases.append({
            "field": "complex" if complex_field else "real",
            "basis": suite_matrix(basis, complex_field),
            "unitary": suite_matrix(unitary, complex_field),
        })
    payload = {"meta": {"count": len(cases), "seed": "0x5A5A"}, "cases": cases}
    (DATA_DIR / "projection_lemma_suite.json").write_text(
        canonical_json(payload), encoding="utf-8")
    print(f"  projection_lemma_suite: {len(cases)} cases")


def build_paley_wiener_suite(rng):
    cases = []
    for i in range(100):
        complex_field = i % 2 == 1
        dim = int(rng.integers(2, 9))
        lambda1 = 0.05 + 0.55 * float(rng.random())
        lambda2 = 0.3 * float(rng.random())
        e = gauss(rng, (dim, dim), complex_field)
        # keep the certificate comfortable: ||I - U|| <= 0.9 * lambda1
        target = 0.9 * lambda1 * (0.3 + 0.7 * float(rng.random()))
        e = e * (target / np.linalg.norm(e, 2))
        u = np.eye(dim) + e
        cases.append({
            "field": "complex" if complex_field else "real",
            "lambda1": lambda1,
            "lambda2": lambda2,
            "u": suite_matrix(u, complex_field),
        })
    payload = {"meta": {"count": len(cases), "seed": "0x9A1E"}, "cases": cases}
    (DATA_DIR / "paley_wiener_suite.json").write_text(
        canonical_json(payload), encoding="utf-8")
    print(f"  paley_wiener_suite: {len(cases)} cases")


def build_cli_documents():
    cli_dir = DATA_DIR / "cli"
    cli_dir.mkdir(parents=True, exist_ok=True)
    base = load_packaged_fixture("FIX-I")

    def scale_locals(doc, factor, name):
        locals_scaled = [[[v * factor for v in row] for row in m]
                         for m in doc.local_operators]
        return FrameDocument(field=doc.field, dim=doc.dim, weights=list(doc.weights),
                             subspaces=doc.subspaces, local_operators=locals_scaled,
                             operators=doc.operators, meta={"name": name})

    theta = scale_locals(base, 1.1, "FIX-I-scaled-1.1")
    (cli_dir / "theta_fix_i_c11.json").write_text(dumps(theta), encoding="utf-8")

    bad_locals = [list(m) for m in base.local_operators]
    bad_locals[0] = [[v * 2.0 for v in row] for row in bad_locals[0]]
    bad = FrameDocument(field=base.field, dim=base.dim, weights=list(base.weights),
                        subspaces=base.subspaces, local_operators=bad_locals,
                        operators=base.operators,
                        meta={"name": "FIX-I-bad-dual"})
    (cli_dir / "bad_dual_fix_i.json").write_text(dumps(bad), encoding="utf-8")

    # one member seeing only e1: ran(k) = R^2 is not inside ran(T), so no dual exists
    not_a_frame = FrameDocument(field="real", dim=2, weights=[1.0], subspaces=[[[1, 0]]],
                                local_operators=[[[1, 0]]],
                                operators={"k": [[1, 0], [0, 1]]},
                                meta={"name": "not-a-frame"})
    (cli_dir / "not_a_frame.json").write_text(dumps(not_a_frame), encoding="utf-8")

    # the reference system at desk scale: dim 16, 10 members, 1,024 subsets
    desk = spec_document(["16", "4x3", "5x4", "6x2", "3x5", "8x3", "2x2", "7x4", "5x5",
                          "4x4", "6x3"], 3)
    (cli_dir / "desk_reference.json").write_text(dumps(desk), encoding="utf-8")
    print("  cli documents: theta_fix_i_c11, bad_dual_fix_i, not_a_frame, desk_reference")


CLI_CASES = [
    {"name": "analyze_fix_a",
     "argv": ["analyze", "src/framelab/fixtures/fix_a.json",
              "--k", "k", "--bounds", "0.5", "1.0"],
     "exit_code": 0},
    {"name": "analyze_fix_a_u",
     "argv": ["analyze", "src/framelab/fixtures/fix_a.json", "--k", "u"],
     "exit_code": 0},
    {"name": "dual_q_fix_i",
     "argv": ["dual", "src/framelab/fixtures/fix_i.json", "--method", "q"],
     "exit_code": 0},
    {"name": "dual_canonical_fix_a",
     "argv": ["dual", "src/framelab/fixtures/fix_a.json", "--method", "canonical"],
     "exit_code": 0},
    {"name": "dual_canonical_fix_r000",
     "argv": ["dual", "src/framelab/fixtures/fix_r000.json", "--method", "canonical"],
     "exit_code": 0},
    {"name": "identities_fix_i",
     "argv": ["identities", "src/framelab/fixtures/fix_i.json",
              "--k", "k", "--trials", "8"],
     "exit_code": 0},
    {"name": "identities_fix_a_parsevalize",
     "argv": ["identities", "src/framelab/fixtures/fix_a.json",
              "--parsevalize", "--trials", "5"],
     "exit_code": 0},
    {"name": "identities_bad_dual",
     "argv": ["identities", "src/framelab/fixtures/fix_i.json", "--k", "k",
              "--dual", "tests/data/cli/bad_dual_fix_i.json", "--trials", "5"],
     "exit_code": 1},
    {"name": "perturb_tsq_fix_i",
     "argv": ["perturb", "src/framelab/fixtures/fix_i.json",
              "--theta", "tests/data/cli/theta_fix_i_c11.json",
              "--k", "k", "--mode", "T-sqsum", "--R", "0.01"],
     "exit_code": 0},
    {"name": "perturb_cp2_falsified",
     "argv": ["perturb", "src/framelab/fixtures/fix_i.json",
              "--theta", "tests/data/cli/theta_fix_i_c11.json",
              "--k", "k", "--mode", "C-p2-normsum", "--R", "0.2",
              "--require-hypothesis"],
     "exit_code": 1},
    {"name": "gen_fix_i",
     "argv": ["gen", "--fixture", "FIX-I", "--out", "build/gen_check"],
     "exit_code": 0},
    {"name": "identities_fix_a",
     "argv": ["identities", "src/framelab/fixtures/fix_a.json", "--trials", "5"],
     "exit_code": 0},
    {"name": "identities_fix_r000",
     "argv": ["identities", "src/framelab/fixtures/fix_r000.json", "--trials", "5"],
     "exit_code": 0},
    {"name": "identities_not_a_frame",
     "argv": ["identities", "tests/data/cli/not_a_frame.json", "--trials", "5"],
     "exit_code": 1},
    {"name": "dual_q_fix_r003",
     "argv": ["dual", "src/framelab/fixtures/fix_r003.json", "--method", "q"],
     "exit_code": 0},
    {"name": "dual_canonical_fix_r000_out",
     "argv": ["dual", "src/framelab/fixtures/fix_r000.json", "--method", "canonical",
              "--out", "build/gen_check/dual_fix_r000.json"],
     "exit_code": 0},
    {"name": "perturb_cp2_falsified_not_required",
     "argv": ["perturb", "src/framelab/fixtures/fix_i.json",
              "--theta", "tests/data/cli/theta_fix_i_c11.json",
              "--mode", "C-p2-normsum", "--R", "0.2"],
     "exit_code": 0},
    {"name": "perturb_variant_kstar_fix_i",
     "argv": ["perturb", "src/framelab/fixtures/fix_i.json",
              "--theta", "tests/data/cli/theta_fix_i_c11.json",
              "--mode", "P-variant-kstar", "--lambda1", "0.2", "--lambda2", "0.2",
              "--gamma", "0.1"],
     "exit_code": 0},
    {"name": "perturb_cp2_inadmissible",
     "argv": ["perturb", "src/framelab/fixtures/fix_i.json",
              "--theta", "tests/data/cli/theta_fix_i_c11.json",
              "--mode", "C-p2-normsum", "--R", "5"],
     "exit_code": 0},
    {"name": "analyze_fix_a_claimed_fails",
     "argv": ["analyze", "src/framelab/fixtures/fix_a.json",
              "--k", "k", "--bounds", "0.9", "1.0"],
     "exit_code": 1},
    {"name": "analyze_not_a_frame",
     "argv": ["analyze", "tests/data/cli/not_a_frame.json"],
     "exit_code": 1},
    {"name": "identities_dual_member_count",
     "argv": ["identities", "src/framelab/fixtures/fix_i.json", "--k", "k",
              "--dual", "tests/data/cli/not_a_frame.json", "--trials", "5"],
     "exit_code": 2},
    {"name": "identities_desk_reference",
     "argv": ["identities", "tests/data/cli/desk_reference.json"],
     "exit_code": 0},
    {"name": "identities_desk_reference_parsevalize",
     "argv": ["identities", "tests/data/cli/desk_reference.json", "--parsevalize"],
     "exit_code": 0},
]


def build_cli_reports():
    report_dir = DATA_DIR / "cli_reports"
    report_dir.mkdir(parents=True, exist_ok=True)
    (ROOT / "build" / "gen_check").mkdir(parents=True, exist_ok=True)
    old_cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        index = []
        for case in CLI_CASES:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(list(case["argv"]))
            if code != case["exit_code"]:
                raise RuntimeError(
                    f"{case['name']}: expected exit {case['exit_code']}, got {code}\n"
                    + buf.getvalue())
            (report_dir / (case["name"] + ".json")).write_text(
                buf.getvalue(), encoding="utf-8")
            index.append({"name": case["name"], "argv": case["argv"],
                          "exit_code": case["exit_code"]})
            print(f"  report {case['name']}: exit {code}")
        (report_dir / "cases.json").write_text(
            canonical_json({"cases": index}), encoding="utf-8")
    finally:
        os.chdir(old_cwd)


def run():
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    print("fixtures:")
    build_fixtures()
    print("suites:")
    build_mp_suite(np.random.Generator(np.random.PCG64(0x4D50)))
    build_douglas_suite(np.random.Generator(np.random.PCG64(0xD095)))
    build_projection_suite(np.random.Generator(np.random.PCG64(0x5A5A)))
    build_paley_wiener_suite(np.random.Generator(np.random.PCG64(0x9A1E)))
    print("cli:")
    build_cli_documents()
    build_cli_reports()
    print("done")


if __name__ == "__main__":
    run()
