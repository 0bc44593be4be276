"""Document format determinism and the CLI contract, byte for byte."""

import io
import contextlib
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest

from framelab import (
    DEFAULT_TOL,
    DualConstructionError,
    InputError,
    PreconditionError,
    cli,
    duality,
    frame_ops,
    oracle,
    perturbation,
)
from framelab.frame_ops import FrameBounds, frame_operator
from framelab.cli import main
from framelab.documents import (
    FrameDocument,
    canonical_json,
    dumps,
    load_document,
    load_packaged_fixture,
    loads,
    oracle_sidecar_path,
    packaged_fixture_names,
    save_document,
    spec_document,
    to_system,
)
from conftest import REPO_ROOT, DATA_DIR, count_calls


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.fixture()
def repo_cwd(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)


def test_document_round_trip_is_byte_stable():
    for name in ("FIX-A", "FIX-I", "FIX-R002"):
        doc = load_packaged_fixture(name)
        text = dumps(doc)
        assert dumps(loads(text)) == text
        assert text.endswith("\n")


def test_loads_rejects_malformed_documents():
    doc = load_packaged_fixture("FIX-I")
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
    with pytest.raises(InputError, match="document root must be an object"):
        loads("[1, 2]")
    triple = json.loads(dumps(load_packaged_fixture("FIX-R002")))
    triple["local_operators"][0][0][0] = [1.0, 2.0, 3.0]
    with pytest.raises(InputError, match=r"expected \[re, im\] pair, got \[1.0, 2.0, 3.0\]"):
        loads(json.dumps(triple))


@pytest.mark.parametrize("key", ["operators", "meta"])
@pytest.mark.parametrize("value", [0, [], "", False, "x"],
                         ids=["zero", "empty-list", "empty-string", "false", "string"])
def test_loads_refuses_a_non_object_operators_or_meta(key, value):
    data = json.loads(dumps(load_packaged_fixture("FIX-I")))
    data[key] = value
    with pytest.raises(InputError, match=f"{key} must be an object"):
        loads(json.dumps(data))


@pytest.mark.parametrize("key", ["operators", "meta"])
def test_loads_reads_a_missing_or_null_operators_or_meta_as_empty(key):
    data = json.loads(dumps(load_packaged_fixture("FIX-I")))
    data[key] = None
    assert getattr(loads(json.dumps(data)), key) == {}
    del data[key]
    assert getattr(loads(json.dumps(data)), key) == {}


def test_complex_document_entries_are_pairs():
    doc = load_packaged_fixture("FIX-R002")
    assert doc.field == "complex"
    data = json.loads(dumps(doc))
    entry = data["local_operators"][0][0][0]
    assert isinstance(entry, list) and len(entry) == 2
    system, operators = to_system(doc)
    assert np.iscomplexobj(operators["k"].matrix)


def test_save_and_load_document(tmp_path):
    doc = load_packaged_fixture("FIX-I")
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
    doc = load_packaged_fixture("FIX-I")
    data = json.loads(dumps(doc))
    data["operators"]["k"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(InputError):
        to_system(loads(json.dumps(data)))


def _fix_i_with(**changes):
    """FIX-I's document with some constructor arguments replaced."""
    doc = load_packaged_fixture("FIX-I")
    fields = dict(field=doc.field, dim=doc.dim, weights=doc.weights, subspaces=doc.subspaces,
                  local_operators=doc.local_operators, operators=doc.operators)
    return FrameDocument(**dict(fields, **changes))


def test_document_matrices_are_read_only_arrays_of_the_field_dtype():
    for name in ("FIX-I", "FIX-R002"):
        doc = load_packaged_fixture(name)
        dtype = np.complex128 if doc.field == "complex" else np.float64
        for m in [*doc.subspaces, *doc.local_operators, *doc.operators.values()]:
            assert m.dtype == dtype and m.ndim == 2 and m.shape[1] == doc.dim
            assert not m.flags.writeable
        assert all(type(w) is float for w in doc.weights)
    k = np.eye(2, dtype=int)
    doc = _fix_i_with(weights=[1, 2], subspaces=[[], [[0, 1]]],
                      local_operators=[[[1, 0]], np.array([[0, 1 + 0j]])], operators={"k": k})
    assert doc.weights == [1.0, 2.0]
    assert doc.subspaces[0].shape == (0, 2)
    assert all(m.dtype == np.float64 for m in [*doc.local_operators, doc.operators["k"]])
    k[0, 0] = 5  # the document holds its own copy of a caller's writable array
    assert doc.operators["k"][0, 0] == 1.0
    system, operators = to_system(doc)
    assert system.members[1][1].matrix is doc.local_operators[1]
    assert operators["k"].matrix is doc.operators["k"]


@pytest.mark.parametrize("changes, message", [
    ({"local_operators": [[1.0, 0.0], [[0.0, 1.0]]]}, "local operator 0 rows must have length 2"),
    ({"local_operators": [[[1.0, 0.0], [1.0]], [[0.0, 1.0]]]},
     "local operator 0 rows must have length 2"),
    ({"local_operators": [[[1.0, 0.0]], [[0.0, 1.0, 0.0]]]},
     "local operator 1 rows must have length 2"),
    ({"subspaces": [[1.0, 0.0], [[0.0, 1.0]]]}, "subspace 0 vectors must have length 2"),
    ({"subspaces": [[[1.0]], [[0.0, 1.0]]]}, "subspace 0 vectors must have length 2"),
    ({"operators": {"k": [[1.0, 0.0]]}}, "operator 'k' must be 2x2"),
    ({"operators": {"k": [["1", "0"], ["0", "1"]]}}, "operator 'k' must be 2x2"),
    ({"operators": {"k": [[1.0, 1e-300j], [0.0, 1.0]]}},
     "complex entry in a document tagged real"),
    ({"dim": True}, "dim must be a positive integer, got True"),
    ({"dim": 0}, "dim must be a positive integer, got 0"),
    ({"weights": [1.0]}, "member counts disagree: (1, 2, 2)"),
], ids=["flat-local-operator", "ragged-local-operator", "wide-local-operator", "flat-subspace",
        "short-subspace-vector", "operator-rows", "operator-strings", "complex-in-real",
        "dim-is-a-bool", "dim-is-zero", "member-counts"])
def test_the_constructor_rejects_malformed_matrices(changes, message):
    with pytest.raises(InputError) as exc:
        _fix_i_with(**changes)
    assert str(exc.value) == message


@pytest.mark.parametrize("weight", ["2.0", True, "abc"])
def test_the_constructor_refuses_a_weight_that_is_not_a_real_number(weight):
    with pytest.raises(InputError) as exc:
        _fix_i_with(weights=[1.0, weight])
    assert str(exc.value) == f"weight 1 must be a real number, got {weight!r}"


def test_documents_keep_non_finite_entries_for_the_writer_to_report():
    doc = _fix_i_with(operators={"k": [[1.0, 0.0], [math.inf, 1.0]]})
    with pytest.raises(InputError, match="non-finite value inf cannot be serialized"):
        dumps(doc)
    with pytest.raises(InputError, match="contains non-finite entries"):
        to_system(doc)


def test_documents_compare_by_identity_and_content_through_dumps():
    doc = load_packaged_fixture("FIX-I")
    again = load_packaged_fixture("FIX-I")
    assert doc == doc
    assert doc != again and not doc == again
    assert dumps(doc) == dumps(again)


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


def test_written_documents_replace_the_old_file_instead_of_rewriting_it(tmp_path):
    # A hard link keeps the old file: an in-place rewrite would show through it.
    assert run_cli(["gen", "--fixture", "FIX-A", "--out", str(tmp_path)])[0] == 0
    dual_path = tmp_path / "dual.json"
    dual_argv = ["dual", str(tmp_path / "fix_a.json"), "--method", "q", "--out", str(dual_path)]
    assert run_cli(dual_argv)[0] == 0
    written = [tmp_path / "fix_a.json", tmp_path / "fix_a.oracle.json", dual_path]
    for path in written:
        path.write_text("stale", encoding="utf-8")
        os.link(path, path.with_suffix(".link"))
    assert run_cli(["gen", "--fixture", "FIX-A", "--out", str(tmp_path)])[0] == 0
    assert run_cli(dual_argv)[0] == 0
    for path in written:
        assert path.with_suffix(".link").read_text(encoding="utf-8") == "stale"
        assert path.read_text(encoding="utf-8") != "stale"


def test_a_failed_write_keeps_the_old_file_and_leaves_no_partial_file(tmp_path):
    # a file size limit of 11 bytes cuts the write short: an I/O error part-way, as a
    # full disk gives, with SIGXFSZ ignored so that write(2) fails with EFBIG
    target = tmp_path / "report.json"
    target.write_text('{"old": "document"}\n', encoding="utf-8")
    script = ("import resource, signal, sys\n"
              "from framelab.documents import save_text\n"
              "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
              "resource.setrlimit(resource.RLIMIT_FSIZE, (11, 11))\n"
              "try:\n"
              "    save_text(sys.argv[1], '{\"partial\": \"' + 'x' * 64 + '\"}\\n')\n"
              "except OSError:\n"
              "    sys.exit(3)\n")
    path = filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
    proc = subprocess.run([sys.executable, "-c", script, str(target)],
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                          capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    assert target.read_text(encoding="utf-8") == '{"old": "document"}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_an_unwritable_output_is_reported_by_the_name_given(repo_cwd, tmp_path):
    # the new file written beside the target has a random name; the error names the target
    target = tmp_path / "missing" / "x.json"
    argv = ["dual", "src/framelab/fixtures/fix_i.json", "--method", "q", "--out", str(target)]
    first, second = run_cli(argv), run_cli(argv)
    assert first == second
    code, out = first
    assert code == 2
    assert json.loads(out)["error"] == f"[Errno 2] No such file or directory: {str(target)!r}"


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
    # the generator's bits are pinned, not only its determinism
    assert hashlib.sha256(first.encode("utf-8")).hexdigest() == (
        "3ce3d526c13ab572a8420b366a4714467899f3687738205ab1df1f70a57717af")
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


def test_tolerance_flags(repo_cwd):
    fix_i = "src/framelab/fixtures/fix_i.json"
    _, out = run_cli(["--tol-rel", "1e-5", "analyze", fix_i, "--k", "k"])
    assert json.loads(out)["tolerance"]["tau_rel"] == 1e-5
    # an invalid tolerance is one input-error report, with no profile in it
    for argv, named in ((["--tol-rel", "-1", "analyze", fix_i], "tau_rel"),
                        (["--tol-abs", "-1", "analyze", fix_i], "tau_abs"),
                        (["--tol-abs", "nan", "analyze", fix_i], "tau_abs")):
        code, out = run_cli(argv)
        report = json.loads(out)
        assert code == report["exit_code"] == 2, out
        assert named in report["error"]
        assert report["tolerance"] is None


def test_a_negative_trial_count_is_one_input_error(repo_cwd):
    code, out = run_cli(["identities", "src/framelab/fixtures/fix_i.json", "--trials", "-5"])
    report = json.loads(out)
    assert code == report["exit_code"] == 2, out
    assert "probes" not in report
    assert "-5" in report["error"]


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


@pytest.mark.parametrize("command", [
    ["dual", "src/framelab/fixtures/fix_i.json", "--method", "canonical", "--out"],
    ["gen", "--fixture", "FIX-I", "--out"],
], ids=["dual", "gen"])
def test_an_unwritable_output_path_is_one_input_error(repo_cwd, tmp_path, command):
    # dual writes into a missing directory; gen makes its directory where a file is
    blocker = tmp_path / "a_file"
    blocker.write_text("not a directory", encoding="utf-8")
    target = str(tmp_path / "missing" / "x.json") if command[0] == "dual" else str(blocker)
    code, out = run_cli(command + [target])
    report = json.loads(out)
    assert code == report["exit_code"] == 2
    assert target in report["error"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file"]


def test_gen_rejects_a_negative_seed(tmp_path):
    code, out = run_cli(["gen", "--spec", "3", "2x2", "--seed", "-1", "--out", str(tmp_path)])
    report = json.loads(out)
    assert code == report["exit_code"] == 2
    assert report["error"] == "seed must be a non-negative integer, got -1"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("tokens, seed, message", [
    (["3", "2x2"], -1, "seed must be a non-negative integer, got -1"),
    (["3"], 0, "a spec needs an ambient dimension and at least one MxD shape"),
    (["three", "2x2"], 0, "ambient dimension must be an integer, got 'three'"),
    (["0", "1x1"], 0, "ambient dimension must be positive"),
    (["3", "4x2"], 0, "member shape '4x2' out of range for dim 3"),
    (["3", "2x0"], 0, "member shape '2x0' out of range for dim 3"),
])
def test_spec_document_errors_name_no_cli_flag(tokens, seed, message):
    with pytest.raises(InputError) as excinfo:
        spec_document(tokens, seed)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("token", ["2", "2x2x1", "2x", "ax2", "2*2"])
def test_gen_rejects_a_malformed_member_shape(tmp_path, token):
    code, out = run_cli(["gen", "--spec", "3", token, "--out", str(tmp_path)])
    report = json.loads(out)
    assert code == report["exit_code"] == 2
    assert report["error"] == f"member shape must look like MxD, got {token!r}"
    assert not any(tmp_path.iterdir())


def test_perturb_require_hypothesis_gate(repo_cwd):
    argv = ["perturb", "src/framelab/fixtures/fix_i.json",
            "--theta", "tests/data/cli/theta_fix_i_c11.json",
            "--k", "k", "--mode", "T-sqsum", "--R", "0.005"]
    code, out = run_cli(argv)
    assert code == 0
    assert json.loads(out)["verdict"] == "hypothesis falsified"
    code, _ = run_cli(argv + ["--require-hypothesis"])
    assert code == 1


def test_perturb_reports_a_certified_containment_failure_as_an_error(repo_cwd, monkeypatch):
    monkeypatch.setattr(perturbation, "predicted_bounds",
                        lambda *args: FrameBounds(2.0, 3.0))
    code, out = run_cli(["perturb", "src/framelab/fixtures/fix_i.json",
                         "--theta", "tests/data/cli/theta_fix_i_c11.json",
                         "--mode", "T-sqsum", "--R", "0.01"])
    report = json.loads(out)
    assert code == report["exit_code"] == 1
    assert report["error"].startswith("certified square-sum hypothesis but containment fails")
    assert not {"base_bounds", "predicted_bounds", "theta_bounds"} & set(report)


def test_dual_reports_a_failed_q_construction_with_its_residuals(repo_cwd, monkeypatch):
    def refuse(*args):
        raise DualConstructionError("no subspace reading certified the coupling identity",
                                    {"literal": 0.5, "range": 0.25, "gram": 0.125})

    monkeypatch.setattr(duality, "construct_q_dual", refuse)
    code, out = run_cli(["dual", "src/framelab/fixtures/fix_i.json", "--method", "q"])
    report = json.loads(out)
    assert code == report["exit_code"] == 1
    assert report["certified"] is False
    assert report["error"] == "no subspace reading certified the coupling identity"
    assert report["reading_residuals"] == {"literal": 0.5, "range": 0.25, "gram": 0.125}


def test_dual_q_reports_a_failed_literal_reading_as_an_erratum(repo_cwd):
    # FIX-A: the literal and range readings leave coupling residual 1, gram certifies
    code, out = run_cli(["dual", "src/framelab/fixtures/fix_a.json", "--method", "q"])
    report = json.loads(out)
    assert code == report["exit_code"] == 0
    assert report["certified"] is True and report["reading"] == "gram"
    (record,) = report["erratum_records"]
    residuals = record.pop("residuals")
    assert record == {"kind": "literal-reading-failed", "reading": "gram"}
    assert residuals == pytest.approx({"literal": 1.0, "range": 1.0}, abs=1e-12)
    # where the literal reading certifies there is no record
    code, out = run_cli(["dual", "src/framelab/fixtures/fix_i.json", "--method", "q"])
    assert json.loads(out)["reading"] == "literal"
    assert "erratum_records" not in json.loads(out)


def test_perturb_refuses_a_theta_over_another_space(tmp_path):
    code, out = run_cli(["gen", "--spec", "3", "2x2", "1x2", "2x1", "--seed", "1",
                         "--out", str(tmp_path)])
    assert code == 0
    base_path = json.loads(out)["written"][0]
    base = load_document(base_path)

    def complex_matrices(matrices, shift=0.0):
        return [np.asarray(m, dtype=complex) + shift for m in matrices]

    # a complex theta used to be cast to the real base, dropping its imaginary
    # part, and certified as if it were the base itself
    complex_theta = FrameDocument(
        "complex", base.dim, base.weights, complex_matrices(base.subspaces),
        complex_matrices(base.local_operators, 0.5j),
        {name: complex_matrices([m])[0] for name, m in base.operators.items()})
    wider_theta = FrameDocument(
        base.field, base.dim + 1, base.weights,
        [np.pad(np.asarray(vs), ((0, 0), (0, 1))) for vs in base.subspaces],
        [np.pad(np.asarray(m), ((0, 0), (0, 1))) for m in base.local_operators])
    for name, theta in (("complex", complex_theta), ("wider", wider_theta)):
        theta_path = tmp_path / f"theta_{name}.json"
        save_document(theta, theta_path)
        code, out = run_cli(["perturb", base_path, "--theta", str(theta_path),
                             "--mode", "T-sqsum", "--R", "0.05"])
        assert code == 2, name
        report = json.loads(out)
        assert "hypothesis" not in report
        assert "perturbed document is over a" in report["error"]


@pytest.mark.parametrize("phase", [0.0, 0.3])
def test_identities_refuses_a_dual_over_another_space(repo_cwd, tmp_path, phase):
    base_path = "src/framelab/fixtures/fix_i.json"
    base = load_document(base_path)
    # FIX-I's members over the complex plane, each local operator times exp(i phase)
    dual = FrameDocument(
        "complex", base.dim, base.weights,
        [np.asarray(vs, dtype=complex) for vs in base.subspaces],
        [np.exp(1j * phase) * np.asarray(m) for m in base.local_operators])
    dual_path = tmp_path / "dual_complex.json"
    save_document(dual, dual_path)
    code, out = run_cli(["identities", base_path, "--k", "k", "--dual", str(dual_path),
                         "--trials", "5"])
    report = json.loads(out)
    assert code == report["exit_code"] == 2
    assert "checks" not in report
    assert "a dual system must share its base's space" in report["error"]


def test_perturb_refuses_a_theta_with_another_member_count(repo_cwd, tmp_path):
    base = load_document("src/framelab/fixtures/fix_i.json")
    theta_path = tmp_path / "theta_one_member.json"
    save_document(FrameDocument(base.field, base.dim, base.weights[:1], base.subspaces[:1],
                                base.local_operators[:1]), theta_path)
    code, out = run_cli(["perturb", "src/framelab/fixtures/fix_i.json", "--theta",
                         str(theta_path), "--mode", "T-sqsum", "--R", "0.05"])
    report = json.loads(out)
    assert code == report["exit_code"] == 2
    assert "hypothesis" not in report
    assert "expected 2 local operators, got 1" in report["error"]


FIXTURE_PATHS = [f"src/framelab/fixtures/{name.lower().replace('-', '_')}.json"
                 for name in packaged_fixture_names()]


@pytest.mark.parametrize("path", FIXTURE_PATHS + ["tests/data/cli/not_a_frame.json"])
def test_the_library_reports_give_the_cli_verdicts(repo_cwd, path):
    system, operators = to_system(load_document(path))
    k = operators["k"]

    def exit_code(passed):
        return 0 if passed else 1

    for flags, target in (([], k), (["--parsevalize"], duality.parsevalize(system))):
        report = duality.identities_report(system, target, 3, tol=DEFAULT_TOL)
        assert run_cli(["identities", path, "--trials", "3", *flags])[0] \
            == exit_code(report.passed), flags
    try:
        pair = duality.canonical_dual(system, k)
        passed = duality.verify_kgf_dual(pair).passed
        assert passed or not pair.exploratory
    except PreconditionError:
        passed = False
    assert run_cli(["dual", path, "--method", "canonical"])[0] == exit_code(passed)
    try:
        passed = duality.qdual_bound_corollary(duality.construct_q_dual(system, k)).passed
    except (PreconditionError, DualConstructionError):
        passed = False
    assert run_cli(["dual", path, "--method", "q"])[0] == exit_code(passed)


def test_the_identities_report_fails_an_uncertified_document_dual(repo_cwd):
    system, operators = to_system(load_document("src/framelab/fixtures/fix_i.json"))
    dual, _ = to_system(load_document("tests/data/cli/bad_dual_fix_i.json"))
    report = duality.identities_report(system, operators["k"], 5, dual, tol=DEFAULT_TOL)
    assert not report.passed and not report.checks["dual"]["certified"]
    assert run_cli(pinned_case("identities_bad_dual")["argv"])[0] == 1


def test_perturb_searches_once_per_job(repo_cwd, monkeypatch):
    case = pinned_case("perturb_tsq_fix_i")
    searches = []
    real_search = perturbation.perturb_hypothesis

    def counting(*args, **kwargs):
        searches.append(args)
        return real_search(*args, **kwargs)

    monkeypatch.setattr(perturbation, "perturb_hypothesis", counting)
    code, out = run_cli(case["argv"])
    assert code == case["exit_code"]
    assert json.loads(out)["verdict"] == "hypothesis not falsified"
    assert len(searches) == 1


def pinned_case(name):
    return next(c for c in json.loads((DATA_DIR / "cli_reports" / "cases.json")
                                      .read_text(encoding="utf-8"))["cases"]
                if c["name"] == name)


@pytest.mark.parametrize("case_name", ["identities_fix_i", "identities_fix_a_parsevalize",
                                       "dual_canonical_fix_r000"])
def test_canonical_dual_jobs_verify_each_system_once(repo_cwd, monkeypatch, case_name):
    case = pinned_case(case_name)
    verified = count_calls(monkeypatch, frame_ops, "_analyze")
    built = count_calls(monkeypatch, duality, "KGFDualPair")
    code, out = run_cli(case["argv"])
    assert code == case["exit_code"]
    body = json.loads(out)
    assert body.get("dual", body)["certified"]
    ((base, dual, _),) = built
    # the base once (inside the restricted inverse); only dual --method
    # canonical analyses the dual, as a k*-frame
    analyzed = [base] if case["argv"][0] == "identities" else [base, dual]
    assert [id(args[0]) for args in verified] == [id(system) for system in analyzed]


@pytest.mark.parametrize("case_name", ["identities_fix_i", "identities_fix_a_parsevalize",
                                       "identities_bad_dual", "dual_canonical_fix_r000"])
def test_dual_jobs_compute_the_probe_residual_once(repo_cwd, monkeypatch, case_name):
    case = pinned_case(case_name)
    probed = count_calls(monkeypatch, duality, "_probe_residual")
    code, out = run_cli(case["argv"])
    assert code == case["exit_code"]
    body = json.loads(out)
    assert "probe_residual" in body.get("dual", body)
    assert len(probed) == 1


def test_dual_q_verifies_the_coupling_once(repo_cwd, monkeypatch):
    case = pinned_case("dual_q_fix_i")
    coupled = count_calls(monkeypatch, duality, "_q_dual_forms")
    verified = count_calls(monkeypatch, frame_ops, "_analyze")
    code, out = run_cli(case["argv"])
    assert code == case["exit_code"]
    assert json.loads(out)["certified"]
    assert len(coupled) == 1
    assert len(verified) == 2
    assert sorted(Counter(id(args[0]) for args in verified).values()) == [1, 1]


def test_perturb_verifies_each_family_once(repo_cwd, monkeypatch):
    case = pinned_case("perturb_tsq_fix_i")
    verified = count_calls(monkeypatch, frame_ops, "_analyze")
    code, out = run_cli(case["argv"])
    assert code == case["exit_code"]
    assert "theta_bounds" in json.loads(out)
    # the base once, the perturbed family once
    assert len(verified) == 2
    assert sorted(Counter(id(args[0]) for args in verified).values()) == [1, 1]


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
    real_sweep = duality.dual_subset_sweep

    def recording(pair, masks, probes, tol=None):
        visited.extend(tuple(int(j) for j in np.flatnonzero(row)) for row in masks)
        return real_sweep(pair, masks, probes, tol)

    monkeypatch.setattr(duality, "dual_subset_sweep", recording)
    code, out = run_cli(["identities", str(path), "--trials", "0"])
    report = json.loads(out)
    assert code == 0, out
    assert report["subsets_tested"] == len(visited) == len(set(visited))
    assert () in visited
    assert tuple(range(size)) in visited
    assert any(size - 1 in subset for subset in visited)


def _set_real_row(data):
    data["local_operators"][1] = [5.0]


def _set_weight(value):
    def edit(data):
        data["weights"][0] = value
    return edit


def _set_key(key, value):
    def edit(data):
        data[key] = value
    return edit


def _set_complex_entry(value):
    def edit(data):
        data["local_operators"][0][0][0] = value
    return edit


@pytest.mark.parametrize("fixture_name, edit, message", [
    ("FIX-I", _set_real_row, "rows must be lists"),
    ("FIX-I", _set_weight([1]), "expected a real number, got [1]"),
    ("FIX-I", _set_weight("2"), "expected a real number, got '2'"),
    ("FIX-I", _set_weight(True), "expected a real number, got True"),
    ("FIX-I", _set_weight(10**400), "number out of range"),
    ("FIX-R002", _set_complex_entry(["1.5", 0.0]), "expected a real number, got '1.5'"),
    ("FIX-R002", _set_complex_entry([True, False]), "expected a real number, got True"),
    ("FIX-I", _set_key("subspaces", 5), "subspaces must be a list"),
    ("FIX-I", _set_key("operators", [[1.0]]), "operators must be an object"),
], ids=["row-is-a-number", "weight-is-a-list", "weight-is-a-string", "weight-is-a-bool",
        "weight-overflows", "complex-part-is-a-string", "complex-parts-are-bools",
        "subspaces-is-a-number", "operators-is-a-list"])
def test_analyze_reports_malformed_documents_as_input_errors(tmp_path, fixture_name, edit,
                                                           message):
    data = json.loads(dumps(load_packaged_fixture(fixture_name)))
    edit(data)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out = run_cli(["analyze", str(path)])
    report = json.loads(out)
    assert code == report["exit_code"] == 2
    assert message in report["error"]


MODE_NAMES = ("P1-sqrt-sum", "P-variant-kstar", "C-p2-normsum", "T-sqsum")


@pytest.mark.parametrize("path", ["src/framelab/fixtures/fix_i.json", "missing.json"])
def test_perturb_reports_an_unknown_mode_before_reading_documents(repo_cwd, path):
    code, out = run_cli(["perturb", path, "--theta", path, "--mode", "bogus"])
    report = json.loads(out)
    assert code == report["exit_code"] == 2
    assert "unknown perturbation mode 'bogus'" in report["error"]
    assert all(name in report["error"] for name in MODE_NAMES)


def _gaussian(rng, shape, complex_field):
    g = rng.standard_normal(shape)
    return g + 1j * rng.standard_normal(shape) if complex_field else g


def _ten_member_document(complex_field):
    rng = np.random.Generator(np.random.PCG64(0x10))
    dim, shapes = 8, [(2, 2), (3, 1), (1, 3), (4, 2), (2, 1)] * 2
    subspaces, locals_ = [], []
    for m, d in shapes:
        basis = np.linalg.qr(_gaussian(rng, (dim, m), complex_field))[0]
        subspaces.append(list(basis.T))
        locals_.append(_gaussian(rng, (d, dim), complex_field))
    return FrameDocument(field="complex" if complex_field else "real", dim=dim,
                         weights=[0.5 + rng.random() for _ in shapes],
                         subspaces=subspaces, local_operators=locals_,
                         operators={"k": _gaussian(rng, (dim, dim), complex_field)})


def test_to_system_checks_orthonormal_bases_without_an_svd(linalg_calls):
    docs = [load_packaged_fixture(name) for name in packaged_fixture_names()]
    docs += [_ten_member_document(False), _ten_member_document(True)]
    members = 0
    for doc in docs:
        system, _ = to_system(doc)
        members += system.size
    assert members >= 80
    assert linalg_calls["svd"] == 0


@pytest.mark.parametrize("human", [False, True], ids=["json", "human"])
def test_analyze_reports_a_non_finite_erratum_as_one_input_error(tmp_path, human):
    text = dumps(load_packaged_fixture("FIX-I"))
    # the JSON NaN literal; the document format itself never writes one
    text = text.replace('"meta":{', '"meta":{"errata":[{"operator":"k","x":NaN}],', 1)
    path = tmp_path / "nan_erratum.json"
    path.write_text(text, encoding="utf-8")
    code, out = run_cli((["--human"] if human else []) + ["analyze", str(path)])
    assert code == 2
    if human:
        assert 'error: "non-finite value nan cannot be serialized"' in out.splitlines()
        assert out.count("exit_code: 2\n") == 1
        assert "frame" not in out
    else:
        report = json.loads(out)
        assert report["exit_code"] == 2
        assert report["error"] == "non-finite value nan cannot be serialized"
        assert "frame" not in report and "discrepancies" not in report


@pytest.mark.parametrize("bounds", [("0.5", "inf"), ("inf", "2"), ("0.5", "1e309")])
def test_analyze_rejects_infinite_claimed_bounds_quietly(bounds):
    path = filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
    proc = subprocess.run(
        [sys.executable, "-m", "framelab", "analyze",
         str(REPO_ROOT / "src" / "framelab" / "fixtures" / "fix_i.json"), "--bounds", *bounds],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), capture_output=True, text=True)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"].startswith("bounds must be finite")
    assert proc.stderr == ""
