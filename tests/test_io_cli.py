"""Document format determinism and the CLI contract, byte for byte."""

import io
import contextlib
import json
import os

import numpy as np
import numpy.testing as npt
import pytest

from framelab import InputError, cli, oracle, perturbation
from framelab.frame_ops import frame_operator
from framelab.cli import fixture_document, main
from framelab.documents import (
    FrameDocument,
    canonical_json,
    dumps,
    load_document,
    loads,
    oracle_sidecar_path,
    packaged_fixture_names,
    save_document,
    to_system,
)
from conftest import REPO_ROOT, DATA_DIR


def run_cli(argv, env=None):
    saved = {}
    if env:
        for key, value in env.items():
            saved[key] = os.environ.get(key)
            os.environ[key] = value
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return code, buf.getvalue()


@pytest.fixture()
def repo_cwd(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)


def test_document_round_trip_is_byte_stable():
    for name in ("FIX-A", "FIX-I", "FIX-R002"):
        doc = fixture_document(name)
        text = dumps(doc)
        assert dumps(loads(text)) == text
        assert text.endswith("\n")


def test_loads_rejects_malformed_documents():
    doc = fixture_document("FIX-I")
    data = json.loads(dumps(doc))
    broken = dict(data)
    del broken["weights"]
    with pytest.raises(InputError):
        loads(json.dumps(broken))
    wrong_field = dict(data, field="quaternion")
    with pytest.raises(InputError):
        loads(json.dumps(wrong_field))
    with pytest.raises(InputError):
        loads("not json at all {")
    ragged = json.loads(dumps(doc))
    ragged["local_operators"][0].append([1.0, 2.0, 3.0])
    with pytest.raises(InputError):
        loads(json.dumps(ragged))


def test_complex_document_entries_are_pairs():
    doc = fixture_document("FIX-R002")
    assert doc.field == "complex"
    data = json.loads(dumps(doc))
    entry = data["local_operators"][0][0][0]
    assert isinstance(entry, list) and len(entry) == 2
    system, operators = to_system(doc)
    assert np.iscomplexobj(operators["k"].matrix)


def test_save_and_load_document(tmp_path):
    doc = fixture_document("FIX-I")
    target = tmp_path / "fix_i_copy.json"
    save_document(doc, target)
    again = load_document(target)
    assert dumps(again) == dumps(doc)
    with pytest.raises(InputError):
        load_document(tmp_path / "missing.json")


def test_canonical_json_formatting():
    text = canonical_json({"b": 1.0, "a": [True, None, 0.1], "c": "x"})
    assert text == '{"a":[true,null,0.10000000000000001],"b":1,"c":"x"}\n'
    with pytest.raises(InputError):
        canonical_json({"bad": float("nan")})
    with pytest.raises(InputError):
        canonical_json({"bad": float("inf")})


def test_oracle_sidecar_path_convention(tmp_path):
    assert oracle_sidecar_path("a/b/fix_a.json").name == "fix_a.oracle.json"
    assert oracle_sidecar_path(tmp_path / "x.json").parent == tmp_path


def test_packaged_fixture_inventory():
    names = packaged_fixture_names()
    assert "FIX-A" in names and "FIX-I" in names
    assert sum(1 for n in names if n.startswith("FIX-R")) == 20


def test_to_system_rejects_operator_shape_mismatch():
    doc = fixture_document("FIX-I")
    data = json.loads(dumps(doc))
    data["operators"]["k"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(InputError):
        to_system(loads(json.dumps(data)))


def test_committed_reports_reproduce_byte_for_byte(repo_cwd):
    cases = json.loads(
        (DATA_DIR / "cli_reports" / "cases.json").read_text(encoding="utf-8"))
    (REPO_ROOT / "build" / "gen_check").mkdir(parents=True, exist_ok=True)
    assert len(cases["cases"]) >= 10
    for case in cases["cases"]:
        expected = (DATA_DIR / "cli_reports" / (case["name"] + ".json")
                    ).read_text(encoding="utf-8")
        code, out = run_cli(case["argv"])
        assert code == case["exit_code"], case["name"]
        assert out == expected, f"report drift in {case['name']}"


def test_gen_regenerates_packaged_fixture_bytes(repo_cwd, tmp_path):
    code, out = run_cli(["gen", "--fixture", "FIX-A", "--out", str(tmp_path)])
    assert code == 0
    fresh = (tmp_path / "fix_a.json").read_text(encoding="utf-8")
    committed = (REPO_ROOT / "src" / "framelab" / "fixtures" / "fix_a.json"
                 ).read_text(encoding="utf-8")
    assert fresh == committed
    fresh_oracle = (tmp_path / "fix_a.oracle.json").read_text(encoding="utf-8")
    committed_oracle = (REPO_ROOT / "src" / "framelab" / "fixtures" /
                        "fix_a.oracle.json").read_text(encoding="utf-8")
    assert fresh_oracle == committed_oracle


def test_gen_spec_systems_are_valid_and_deterministic(tmp_path):
    argv = ["gen", "--spec", "3", "2x2", "3x2", "--seed", "11",
            "--out", str(tmp_path)]
    code, out = run_cli(argv)
    assert code == 0
    written = json.loads(out)["written"]
    first = (tmp_path / os.path.basename(written[0])).read_text(encoding="utf-8")
    other = tmp_path / "again"
    other.mkdir()
    run_cli(["gen", "--spec", "3", "2x2", "3x2", "--seed", "11",
             "--out", str(other)])
    second = (other / os.path.basename(written[0])).read_text(encoding="utf-8")
    assert first == second
    doc = load_document(tmp_path / os.path.basename(written[0]))
    system, operators = to_system(doc)
    assert operators["k"].is_invertible()


def test_exit_codes(repo_cwd, tmp_path):
    fix_a = "src/framelab/fixtures/fix_a.json"
    code, _ = run_cli(["analyze", fix_a, "--k", "k"])
    assert code == 0
    code, _ = run_cli(["analyze", fix_a, "--k", "k", "--bounds", "0.6", "1.0"])
    assert code == 1  # claimed lower bound fails its certificate
    code, _ = run_cli(["analyze", fix_a, "--k", "missing"])
    assert code == 2
    code, _ = run_cli(["analyze", str(tmp_path / "missing.json"), "--k", "k"])
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["analyze"])  # argparse input error
    assert exc.value.code == 2


def test_report_shape_and_tolerance_echo(repo_cwd):
    code, out = run_cli(["analyze", "src/framelab/fixtures/fix_i.json",
                         "--k", "k"])
    report = json.loads(out)
    assert report["command"] == "analyze"
    assert report["exit_code"] == code == 0
    assert report["argv"][0] == "analyze"
    assert report["tolerance"] == {"tau_abs": 1e-10, "tau_rel": 1e-9}
    # keys are emitted in sorted order at every level
    assert list(report) == sorted(report)
    assert list(report["frame"]) == sorted(report["frame"])


def test_tolerance_flag_and_env(repo_cwd):
    fix_i = "src/framelab/fixtures/fix_i.json"
    _, out = run_cli(["analyze", fix_i, "--k", "k"],
                     env={"FRAMELAB_TOL_REL": "1e-6"})
    assert json.loads(out)["tolerance"]["tau_rel"] == 1e-6
    _, out = run_cli(["--tol-rel", "1e-5", "analyze", fix_i, "--k", "k"],
                     env={"FRAMELAB_TOL_REL": "1e-6"})
    assert json.loads(out)["tolerance"]["tau_rel"] == 1e-5
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code, _ = run_cli(["analyze", fix_i, "--k", "k"],
                          env={"FRAMELAB_TOL_REL": "banana"})
    assert code == 2
    assert "FRAMELAB_TOL_REL" in stderr.getvalue()


def test_human_rendering(repo_cwd):
    code, out = run_cli(["--human", "analyze", "src/framelab/fixtures/fix_i.json",
                         "--k", "k"])
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("frame.is_parseval: true") for line in lines)
    assert any(line.startswith("exit_code: 0") for line in lines)


def test_dual_out_document_is_loadable(repo_cwd, tmp_path):
    out_path = tmp_path / "dual.json"
    code, _ = run_cli(["dual", "src/framelab/fixtures/fix_i.json",
                       "--method", "q", "--out", str(out_path)])
    assert code == 0
    doc = load_document(out_path)
    assert doc.meta["kind"] == "q-dual"
    system, operators = to_system(doc)
    assert system.dim == 2


def test_perturb_require_hypothesis_gate(repo_cwd):
    argv = ["perturb", "src/framelab/fixtures/fix_i.json",
            "--theta", "tests/data/cli/theta_fix_i_c11.json",
            "--k", "k", "--mode", "T-sqsum", "--R", "0.005"]
    code, out = run_cli(argv)
    assert code == 0
    assert json.loads(out)["verdict"] == "hypothesis falsified"
    code, _ = run_cli(argv + ["--require-hypothesis"])
    assert code == 1


def test_perturb_searches_once_per_job(repo_cwd, monkeypatch):
    case = next(c for c in json.loads((DATA_DIR / "cli_reports" / "cases.json")
                                      .read_text(encoding="utf-8"))["cases"]
                if c["name"] == "perturb_tsq_fix_i")
    searches = []
    real_search = perturbation.perturb_hypothesis

    def counting(*args, **kwargs):
        searches.append(args)
        return real_search(*args, **kwargs)

    monkeypatch.setattr(perturbation, "perturb_hypothesis", counting)
    monkeypatch.setattr(cli, "perturb_hypothesis", counting)
    code, out = run_cli(case["argv"])
    assert code == case["exit_code"]
    assert json.loads(out)["verdict"] == "hypothesis not falsified"
    assert len(searches) == 1


def test_canonical_dual_with_empty_subspace_is_written_and_reloaded(repo_cwd, tmp_path):
    out_path = tmp_path / "dual_a.json"
    code, out = run_cli(["dual", "src/framelab/fixtures/fix_a.json",
                         "--method", "canonical", "--out", str(out_path)])
    assert code == 0, out
    text = out_path.read_text(encoding="utf-8")
    doc = loads(text)
    system, _ = to_system(doc)
    assert 0 in [sub.subspace_dim for sub, _ in system.members]
    assert dumps(doc) == text


def test_oracle_accepts_the_written_canonical_dual_of_fix_a(repo_cwd, tmp_path):
    out_path = tmp_path / "dual_a.json"
    code, out = run_cli(["dual", "src/framelab/fixtures/fix_a.json",
                         "--method", "canonical", "--out", str(out_path)])
    assert code == 0, out
    doc = load_document(out_path)
    payload = oracle.oracle_payload(doc)
    system, _ = to_system(doc)
    s = frame_operator(system)
    reference = oracle.reference_frame_operator(doc)
    assert np.linalg.norm(s - reference, 2) <= 1e-12 * np.linalg.norm(s, 2)
    npt.assert_allclose(payload["spectrum"], np.linalg.eigvalsh(s),
                        atol=1e-12 * np.linalg.norm(s, 2))


def test_identities_visits_every_member_beyond_exhaustive_limit(tmp_path, monkeypatch):
    size = 13
    angles = np.pi * np.arange(size) / size
    doc = FrameDocument(
        field="real", dim=2, weights=[1.0] * size,
        subspaces=[[[1.0, 0.0], [0.0, 1.0]]] * size,
        local_operators=[[[float(np.cos(a)), float(np.sin(a))]] for a in angles],
        operators={"k": [[1.0, 0.0], [0.0, 1.0]]})
    path = tmp_path / "thirteen.json"
    save_document(doc, path)
    visited = []
    real_sweep = cli.dual_subset_sweep

    def recording(pair, masks, probes, tol=None):
        visited.extend(tuple(int(j) for j in np.flatnonzero(row)) for row in masks)
        return real_sweep(pair, masks, probes, tol)

    monkeypatch.setattr(cli, "dual_subset_sweep", recording)
    code, out = run_cli(["identities", str(path), "--trials", "0"])
    report = json.loads(out)
    assert code == 0, out
    assert report["subsets_tested"] == len(visited) == len(set(visited))
    assert () in visited
    assert tuple(range(size)) in visited
    assert any(size - 1 in subset for subset in visited)
