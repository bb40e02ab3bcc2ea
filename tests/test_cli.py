"""Tests for the command-line interface and its manifest/exit-code contract."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from qstc import chains, cli, design, dynamics, errors, exact, optimize, spectral
from qstc.errors import write_json

SRC = str(Path(__file__).resolve().parent.parent / "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_spec(path, spec):
    write_json(dataclasses.asdict(spec), path)
    return str(path)


def run(argv):
    return cli.main(argv)


# JSON text that design pst, design pgt and spectrum --verify-lemmas wrote when
# their payloads, the lemma block's included, were still written out key by key
PST_N8_K2 = """\
{
  "family": "n8",
  "k": 2,
  "v1": 2.0,
  "couplings": {
    "v2": 2.091650066335189,
    "g1": 2.23606797749979,
    "g2": 1.5
  },
  "feasible_interval": [
    3.1818181818181817,
    9.0
  ],
  "target_spectrum": [
    -4,
    -3,
    -2,
    0,
    0,
    2,
    3,
    4
  ]
}
"""
PST_N11_K1 = """\
{
  "family": "n11",
  "k": 1,
  "v1": 2.0,
  "couplings": {
    "v2": 1.984313483298443,
    "v3": 2.23606797749979,
    "g1": 1.224744871391589,
    "g2": 0.75
  },
  "feasible_interval": [
    3.5,
    5.5
  ],
  "target_spectrum": [
    -4,
    -3,
    -2,
    -1,
    0,
    0,
    0,
    1,
    2,
    3,
    4
  ]
}
"""
PGT_N11 = """\
{
  "epsilon": 0.001,
  "t_found": 57978.07911681928,
  "reached": true,
  "best_t": 57978.07911681928,
  "best_infidelity": 0.0006492209524044945,
  "scan_budget": 327848,
  "frequencies": [
    0.9999999999999999,
    1.2592801267497655,
    1.7320508075688776,
    2.1010029896154587
  ]
}
"""
SPECTRUM_SYM2 = """\
{
  "N": 11,
  "k": 2,
  "spectrum": {
    "eigenvalues": [
      -2.339577070793982,
      -1.6312689113227314,
      -1.2986066108776178,
      -1.0578098784526218,
      0.0,
      0.0,
      0.0,
      1.0578098784526226,
      1.2986066108776175,
      1.6312689113227317,
      2.339577070793982
    ],
    "null_multiplicity": 3,
    "tags": []
  },
  "lemmas": {
    "lemma1": true,
    "lemma2": true,
    "lemma3": true,
    "lemma4": true,
    "violations": {
      "null_multiplicity": "3",
      "pairing_deviation": "8.881784197001252e-16",
      "containment_deviation": "8.881784197001252e-16",
      "block_residual": "3.190080460392629e-17",
      "block_eigen_deviation": "1.3322676295501878e-15"
    }
  }
}
"""
# the child spec glue --out wrote while chains.spec_to_dict built it key by key
GLUE_SYM2_CHILD = """\
{
  "n_cells": 7,
  "t": [
    1.1,
    1.3,
    0.7,
    0.9,
    1.1,
    1.3,
    0.7
  ],
  "w": [
    0.7,
    1.3,
    1.1,
    0.9,
    0.7,
    1.3,
    1.1
  ],
  "g": [
    0.8,
    1.2,
    1.2,
    0.8,
    0.8,
    1.2,
    1.2,
    0.8
  ]
}
"""
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def assert_same_json_text(text, golden):
    """The golden's text with its numbers to 1e-9: roundoff in an eigensolve may differ."""
    assert NUMBER.sub("#", text) == NUMBER.sub("#", golden)
    for got, want in zip(NUMBER.findall(text), NUMBER.findall(golden)):
        assert math.isclose(float(got), float(want), rel_tol=1e-9, abs_tol=1e-12), (got, want)


class TestGoldenJson:
    @pytest.mark.parametrize("argv, golden", [
        (["--family", "n8", "--k", "2", "--v1", "2.0"], PST_N8_K2),
        (["--family", "n11", "--k", "1", "--v1", "2.0"], PST_N11_K1),
    ])
    def test_design_pst(self, workdir, argv, golden):
        # closed forms in Python floats: the same bytes on every platform
        assert run(["design", "pst", *argv, "--out", "pst.json"]) == 0
        assert (workdir / "pst.json").read_text() == golden

    def test_design_pgt(self, workdir):
        spec_file = write_spec(workdir / "n11.json", chains.homogeneous_chain(11))
        assert run(["design", "pgt", "--spec", spec_file, "--epsilon", "1e-3",
                    "--tmax", "2e5", "--out", "pgt.json"]) == 0
        assert_same_json_text((workdir / "pgt.json").read_text(), PGT_N11)

    def test_lemma_block(self, workdir):
        spec_file = write_spec(workdir / "sym2.json", chains.spec_from_dict(
            {"symmetric": {"k": 2, "v": [1.1, 0.7, 1.3], "g": [0.8, 1.2]}}))
        assert run(["spectrum", spec_file, "--verify-lemmas", "--out", "spectrum.json"]) == 0
        assert_same_json_text((workdir / "spectrum.json").read_text(), SPECTRUM_SYM2)

    def test_glue_child_spec(self, workdir):
        # the child's couplings are copies of the parent's and the bridge: exact bytes
        spec_file = workdir / "sym2.json"
        spec_file.write_text('{"symmetric": {"k": 2, "v": [1.1, 0.7, 1.3], "g": [0.8, 1.2]}}')
        assert run(["glue", str(spec_file), "--bridge-v", "0.9", "--out", "child.json"]) == 0
        assert (workdir / "child.json").read_text() == GLUE_SYM2_CHILD


class TestSpectrumCommand:
    def test_homogeneous_n8(self, workdir):
        spec_file = write_spec(workdir / "n8.json", chains.homogeneous_chain(8))
        out = workdir / "spectrum.json"
        assert run(["spectrum", spec_file, "--verify-lemmas", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        lam = np.sort(payload["spectrum"]["eigenvalues"])
        target = np.sort([0, 0, 1, -1, 2, -2, math.sqrt(2), -math.sqrt(2)])
        assert np.max(np.abs(lam - target)) < 1e-10
        assert payload["lemmas"]["lemma2"] is True
        assert payload["lemmas"]["lemma3"] is True
        assert "numbering" not in payload

    def test_exact_flag(self, workdir):
        spec_file = write_spec(workdir / "n11.json", chains.homogeneous_chain(11))
        out = workdir / "spectrum.json"
        assert run(["spectrum", spec_file, "--exact", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["exact"]["max_degree"] == 2
        assert payload["exact"]["sequence"] == "S5"

    @pytest.mark.parametrize("n, count, top", [(23, 23, "sqrt(sqrt(sqrt(2) + 2) + 3)"),
                                               (20, 0, None)])
    def test_exact_tags(self, workdir, n, count, top):
        # N = 23 is S5 at level 2; N = 20 belongs to no catalogued family
        spec_file = write_spec(workdir / "h.json", chains.homogeneous_chain(n))
        out = workdir / "spectrum.json"
        assert run(["spectrum", spec_file, "--verify-lemmas", "--exact", "--out", str(out)]) == 0
        tags = json.loads(out.read_text())["spectrum"]["tags"]
        assert len(tags) == count
        if count:
            assert tags[-1] == top

    @pytest.mark.parametrize("numbering, code", [("cell", 0), ("symmetric", 2)])
    def test_numbering_key(self, workdir, numbering, code):
        # "cell", written by earlier glue --out files, is the only numbering
        data = dict(dataclasses.asdict(chains.homogeneous_chain(8)), numbering=numbering)
        spec_file = workdir / "spec.json"
        spec_file.write_text(json.dumps(data))
        assert run(["spectrum", str(spec_file)]) == code

    def test_exact_rejects_non_integer(self, workdir):
        spec = chains.ChainSpec(n_cells=1, t=(0.5,), w=(1.0,), g=(1.0, 1.0))
        spec_file = write_spec(workdir / "frac.json", spec)
        assert run(["spectrum", spec_file, "--exact"]) == 2

    def test_exact_rejects_non_unit_coupling(self, workdir):
        # the exact report describes the unit-coupling chain only
        spec_file = workdir / "n11c2.json"
        spec_file.write_text(json.dumps({"homogeneous": {"N": 11, "coupling": 2}}))
        assert run(["spectrum", str(spec_file), "--exact"]) == 2

    def test_unknown_spec_key_rejected(self, workdir):
        # "couplng" used to build the unit-coupling chain without a word
        spec_file = workdir / "typo.json"
        spec_file.write_text(json.dumps({"homogeneous": {"N": 8, "couplng": 2}}))
        assert run(["spectrum", str(spec_file)]) == 2

    def test_cell_count_beyond_an_index_rejected(self, workdir):
        # exited 1 with OverflowError from the coupling tuples
        spec_file = workdir / "huge.json"
        spec_file.write_text('{"homogeneous": {"N": 1000000000000000000000000000001}}')
        assert run(["spectrum", str(spec_file)]) == 2

    def test_lemmas_hold_at_any_coupling_scale(self, workdir):
        # couplings quoted in, say, Hz: the verdicts depend on ratios only
        spec_file = workdir / "n11.json"
        spec_file.write_text(json.dumps({"homogeneous": {"N": 11, "coupling": 1e6}}))
        out = workdir / "spectrum.json"
        assert run(["spectrum", str(spec_file), "--verify-lemmas", "--out", str(out)]) == 0
        lemmas = json.loads(out.read_text())["lemmas"]
        assert all(lemmas[f"lemma{i}"] is True for i in range(1, 5)), lemmas

    def test_internal_error_not_bad_input(self, workdir, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(spectral, "eigenvalues", broken)
        spec_file = write_spec(workdir / "n5.json", chains.homogeneous_chain(5))
        assert run(["spectrum", spec_file]) == 1

    def test_truncated_file(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text('{"n_cells": 2, "t": [1')
        assert run(["spectrum", str(bad)]) == 2

    def test_unwritable_output(self, workdir, capsys):
        # evolve opens a partial file beside its target, but its error names the path
        # as given, as spectrum's does, so two runs leave the same manifest
        spec_file = write_spec(workdir / "n5.json", chains.homogeneous_chain(5))
        for argv in (["spectrum", spec_file, "--out", "nodir/s.json"],
                     ["evolve", spec_file, "--tmax", "10", "--samples", "100",
                      "--out", "nodir/t.csv"]):
            manifests = []
            for name in ("first.json", "second.json"):
                assert run(["--manifest", name] + argv) == 2
                manifest = json.loads((workdir / name).read_text())
                assert capsys.readouterr().err == f"error: {manifest['error']}\n"
                del manifest["wall_time"], manifest["command"], manifest["inputs"]["manifest"]
                manifests.append(manifest)
            assert manifests[0]["error"] == (
                f"FileNotFoundError: [Errno 2] No such file or directory: '{argv[-1]}'")
            assert ".part" not in manifests[0]["error"]
            assert manifests[0] == manifests[1]

    def test_undecodable_file(self, workdir):
        bad = workdir / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert run(["spectrum", str(bad)]) == 2

    def test_manifest_written_on_failure(self, workdir):
        assert run(["spectrum", str(workdir / "missing.json")]) == 2
        manifest = json.loads((workdir / "qstc-manifest.json").read_text())
        assert manifest["error"] is not None
        assert manifest["wall_time"] >= 0.0


class TestEvolveCommand:
    def test_pst_peak(self, workdir):
        d = design.design_pst_n8(1, 1.7320508)
        spec_file = write_spec(workdir / "pst.json", d.chain())
        out = workdir / "trace.csv"
        code = run(
            ["evolve", spec_file, "--tmax", str(2 * math.pi), "--samples", "4001",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,P,f"
        assert len(lines) == 4002
        best = max(lines[1:], key=lambda ln: float(ln.split(",")[1]))
        t_star, p_star, _ = (float(x) for x in best.split(","))
        assert abs(t_star - math.pi) < 0.01
        assert p_star > 0.999

    def test_single_sample_rejected(self, workdir):
        spec_file = write_spec(workdir / "n5.json", chains.homogeneous_chain(5))
        assert run(["evolve", spec_file, "--tmax", "10", "--samples", "1"]) == 2

    def test_probability_above_one_is_numerical(self, workdir, monkeypatch):
        # the chain is valid, so P > 1 is a numerical fault (exit 3), not bad input
        spec_file = write_spec(workdir / "pst.json", design.design_pst_n8(1, 1.7320508).chain())
        series = dynamics.jacobi_series

        def inflated(jacobi):
            freqs, coeffs = series(jacobi)
            return freqs, 1.5 * coeffs

        monkeypatch.setattr(dynamics, "jacobi_series", inflated)
        argv = ["evolve", spec_file, "--tmax", "4", "--samples", "101"]
        assert run(argv) == 3
        manifest = json.loads((workdir / "qstc-manifest.json").read_text())
        assert manifest["error"].startswith("NumericalError: probability above 1")
        # a failed run creates no --out file, and leaves one already there as it was
        before = set(os.listdir(workdir))
        assert run(argv + ["--out", "trace.csv"]) == 3
        assert set(os.listdir(workdir)) == before
        (workdir / "trace.csv").write_bytes(b"t,P,f\nearlier run\n")
        assert run(argv + ["--out", "trace.csv"]) == 3
        assert (workdir / "trace.csv").read_bytes() == b"t,P,f\nearlier run\n"
        assert set(os.listdir(workdir)) == before | {"trace.csv"}

    @pytest.mark.parametrize("bad, error", [
        (["--samples", "1", "--tmax", "10"], "ValidationError: samples must be >= 2"),
        (["--samples", str(2**63), "--tmax", "10"], "UnsupportedInputError: samples must fit"),
        (["--samples", "100", "--tmax=-1"], "ValidationError: tmax must be positive"),
    ])
    def test_rejected_trace_leaves_out_as_it_was(self, workdir, capsys, bad, error):
        # write_trace checks its input before the header; the partial file goes
        spec_file = write_spec(workdir / "n5.json", chains.homogeneous_chain(5))
        (workdir / "trace.csv").write_bytes(b"t,P,f\nearlier run\n")
        assert run(["evolve", spec_file, *bad, "--out", "trace.csv"]) == 2
        assert (workdir / "trace.csv").read_bytes() == b"t,P,f\nearlier run\n"
        assert sorted(os.listdir(workdir)) == ["n5.json", "qstc-manifest.json", "trace.csv"]
        assert capsys.readouterr().out == ""
        assert json.loads((workdir / "qstc-manifest.json").read_text())["error"].startswith(error)

    def test_out_is_replaced_as_open_writes_it(self, workdir):
        # --out is replaced as open(path, "w") would write it: a new file gets
        # 0o666 less the umask, an existing one keeps its mode, a symlink its
        # target, and a device is written in place
        spec_file = write_spec(workdir / "n5.json", chains.homogeneous_chain(5))
        argv = ["evolve", spec_file, "--tmax", "10", "--samples", "100", "--out"]
        umask = os.umask(0o022)
        try:
            assert run(argv + ["new.csv"]) == 0
        finally:
            os.umask(umask)
        assert (workdir / "new.csv").stat().st_mode & 0o777 == 0o644
        (workdir / "old.csv").write_text("earlier run\n")
        (workdir / "old.csv").chmod(0o600)
        (workdir / "link.csv").symlink_to("old.csv")
        assert run(argv + ["link.csv"]) == 0
        assert (workdir / "link.csv").is_symlink()
        assert (workdir / "old.csv").read_bytes() == (workdir / "new.csv").read_bytes()
        assert (workdir / "old.csv").stat().st_mode & 0o777 == 0o600
        assert run(argv + [os.devnull]) == 0
        assert sorted(os.listdir(workdir)) == ["link.csv", "n5.json", "new.csv", "old.csv",
                                               "qstc-manifest.json"]

    def test_samples_beyond_int64_rejected(self, workdir):
        # as for a scan, a sample count that does not fit in an int64 is bad input
        write_spec(workdir / "n11.json", chains.homogeneous_chain(11))
        assert run(["evolve", "n11.json", "--tmax", "10", "--samples", str(10**20)]) == 2
        manifest = json.loads((workdir / "qstc-manifest.json").read_text())
        assert manifest["error"].startswith("UnsupportedInputError")

    def test_overflowing_phase_rejected(self, workdir, capsys):
        # f t overflows at t_max = 1e308: bad input, not P = nan, and no warning
        write_spec(workdir / "n11.json", chains.homogeneous_chain(11))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["evolve", "n11.json", "--tmax", "1e308", "--samples", "100",
                        "--out", "trace.csv"]) == 2
        assert "Warning" not in capsys.readouterr().err
        assert not (workdir / "trace.csv").exists()
        manifest = json.loads((workdir / "qstc-manifest.json").read_text())
        assert manifest["error"].startswith("UnsupportedInputError")

    @pytest.mark.parametrize("samples, out", [(10**6, []), (2 * 10**5, ["--out", "trace.csv"])])
    def test_memory_does_not_grow_with_samples(self, workdir, samples, out):
        # the trace is evaluated and written block by block; holding it whole
        # took 40 bytes per sample
        write_spec(workdir / "n11.json", chains.homogeneous_chain(11))
        argv = ["evolve", "n11.json", "--tmax", "10000", "--samples"]
        assert run(argv + ["100", "--out", "warm.csv"]) == 0
        tracemalloc.start()
        try:
            assert run(argv + [str(samples)] + out) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4e6


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "big.json", "--tmax", "10", "--samples", "100"],
        ["design", "pgt", "--spec", "big.json", "--epsilon", "0.05", "--tmax", "10"],
        ["optimize", "--config", "cfg.json"],
    ],
)
def test_overflowing_couplings_rejected(workdir, argv):
    # 1e200 squared overflows: J cannot be built, which is bad input, not P = nan
    (workdir / "big.json").write_text(json.dumps({"homogeneous": {"N": 5, "coupling": 1e200}}))
    (workdir / "cfg.json").write_text(json.dumps(
        {"scenario": "fixed_w_opt_g", "k": 2, "seed": 1, "budget": 150, "T": 50.0,
         "fixed_params": {"w": 1e200}}))
    assert run(argv) == 2
    manifest = json.loads((workdir / "qstc-manifest.json").read_text())
    assert manifest["error"].startswith("UnsupportedInputError")


class TestDesignCommand:
    def test_pst_json(self, workdir):
        out = workdir / "design.json"
        code = run(
            ["design", "pst", "--family", "n8", "--k", "1", "--v1", "1.7320508",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload["couplings"]) == {"v2", "g1", "g2"}
        assert payload["target_spectrum"] == [-3, -2, -1, 0, 0, 1, 2, 3]

    @pytest.mark.parametrize("v1", ["-1.8", "0"])
    def test_non_positive_v1_rejected(self, workdir, v1):
        # v1^2 = 3.24 is feasible for n8, k = 1, but the coupling itself is not
        out = workdir / "design.json"
        code = run(["design", "pst", "--family", "n8", "--k", "1", f"--v1={v1}",
                    "--out", str(out)])
        assert code == 2
        assert not out.exists()
        manifest = json.loads((workdir / "qstc-manifest.json").read_text())
        assert "v1 must be positive and finite" in manifest["error"]

    def test_infeasible_exit_code(self, workdir):
        assert run(["design", "pst", "--family", "n8", "--k", "1", "--v1", "2.5"]) == 4
        manifest = json.loads((workdir / "qstc-manifest.json").read_text())
        assert "feasible interval" in manifest["error"]

    @pytest.mark.parametrize("family, k", [("n8", 10**154), ("n11", 4 * 10**153),
                                           ("n8", 10**160), ("n11", 10**160)],
                             ids=["n8-1e154", "n11-4e153", "n8-1e160", "n11-1e160"])
    def test_huge_k_is_bad_input(self, workdir, family, k):
        # squares of k that overflow a float are unsupported input (2), not an internal error
        assert run(["design", "pst", "--family", family, "--k", str(k), "--v1", "10"]) == 2
        manifest = json.loads((workdir / "qstc-manifest.json").read_text())
        assert manifest["error"] == ("UnsupportedInputError: spectrum offset k overflows a float: "
                                     "int too large to convert to float")

    def test_infinite_coupling_writes_nothing(self, workdir):
        # g2^2 overflows to inf without an OverflowError: still unsupported input (2)
        argv = ["design", "pst", "--family", "n11", "--k", str(10**153), "--v1", "10"]
        assert run(argv + ["--out", "d.json"]) == 2
        manifest = json.loads((workdir / "qstc-manifest.json").read_text())
        assert manifest["error"] == ("UnsupportedInputError: spectrum offset k overflows a "
                                     "float at v1=10: g2^2 = inf")
        assert not (workdir / "d.json").exists()

    def test_bound(self, workdir, capsys):
        assert run(["design", "bound", "--w", "1.0"]) == 0
        assert "P_up(1) = 1" in capsys.readouterr().out

    def test_bound_at_huge_w(self, workdir, capsys):
        assert run(["design", "bound", "--w", "1e100"]) == 0
        assert "P_up(1e+100) = 1e-200" in capsys.readouterr().out

    def test_pgt(self, workdir):
        spec_file = write_spec(workdir / "n17.json", chains.homogeneous_chain(17))
        out = workdir / "pgt.json"
        code = run(
            ["design", "pgt", "--spec", spec_file, "--epsilon", "0.05",
             "--tmax", "1000", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["reached"] is True
        assert payload["t_found"] <= 1000.0


    def test_pgt_infidelity_never_negative(self, workdir):
        # the N = 11 PST chain reaches P = 1 up to roundoff, which could read as 1 + 2e-15
        spec = design.design_pst_n11(5, 4.345643264767069).chain()
        spec_file = write_spec(workdir / "pst.json", spec)
        out = workdir / "pgt.json"
        code = run(["design", "pgt", "--spec", spec_file, "--epsilon", "1e-3",
                    "--tmax", "10", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["reached"] is True
        assert 0.0 <= payload["best_infidelity"] < 1e-12


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize(
    "argv",
    [
        ["design", "pgt", "--spec", "n11.json", "--epsilon", "0.05", "--tmax", "{}"],
        ["design", "bound", "--w", "{}"],
        ["design", "pst", "--family", "n8", "--k", "1", "--v1", "{}"],
        ["optimize", "--config", "cfg.json"],
    ],
)
def test_non_finite_input_rejected(workdir, argv, value):
    write_spec(workdir / "n11.json", chains.homogeneous_chain(11))
    # json.dumps writes inf and nan as Infinity and NaN, which json.load reads back
    (workdir / "cfg.json").write_text(json.dumps(
        {"scenario": "fixed_w_opt_g", "k": 2, "seed": 1, "T": float(value),
         "window_max": True, "fixed_params": {"w": 0.8}}))
    assert run([a.format(value) for a in argv]) == 2
    manifest = json.loads((workdir / "qstc-manifest.json").read_text())
    assert manifest["error"].startswith("ValidationError")


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "pgt", "--spec", "n11.json", "--epsilon", "0.05", "--tmax", "1e300"],
        ["optimize", "--config", "cfg.json"],
    ],
)
def test_scan_count_beyond_int64_rejected(workdir, capsys, argv):
    # a window of 1e300 needs more samples than an int64 counts: bad input, with no warning
    write_spec(workdir / "n11.json", chains.homogeneous_chain(11))
    (workdir / "cfg.json").write_text(json.dumps(
        {"scenario": "fixed_w_opt_g", "k": 2, "seed": 1, "budget": 150, "T": 1e300,
         "window_max": True, "fixed_params": {"w": 0.8}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in capsys.readouterr().err
    manifest = json.loads((workdir / "qstc-manifest.json").read_text())
    assert manifest["error"].startswith("UnsupportedInputError")


@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["glue", "n11.json", "--bridge-v={}"], "bridge coupling must be positive and finite"),
        (["evolve", "n11.json", "--samples", "10", "--tmax={}"],
         "tmax must be positive and finite"),
    ],
)
def test_bad_glue_and_evolve_values_rejected_up_front(workdir, capsys, argv, message, value):
    write_spec(workdir / "n11.json", chains.homogeneous_chain(11))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([a.format(value) for a in argv]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in capsys.readouterr().err
    manifest = json.loads((workdir / "qstc-manifest.json").read_text())
    assert manifest["error"].startswith("ValidationError")
    assert message in manifest["error"]


@pytest.mark.parametrize("exc, code", [
    (errors.ValidationError("bad flag"), 2),
    (errors.StructuralError("even length"), 2),
    (errors.UnsupportedInputError("non-integer coupling"), 2),
    (errors.NumericalError("no convergence"), 3),
    (errors.InfeasibleDesignError("outside interval", (1.0, 2.0)), 4),
    (errors.QstcError("no kind"), 1),
    (PermissionError("read-only --out"), 2),
    (RuntimeError("internal"), 1),
])
def test_exit_code_is_the_error_types_own(workdir, monkeypatch, exc, code):
    # main exits with the error type's exit_code; an OSError, such as an
    # unwritable --out, with 2 and any other exception with 1
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(design, "dimerized_upper_bound", broken)
    assert run(["design", "bound", "--w", "0.8"]) == code
    if isinstance(exc, errors.QstcError):
        assert exc.exit_code == code
    manifest = json.loads((workdir / "qstc-manifest.json").read_text())
    assert manifest["error"] == f"{type(exc).__name__}: {exc}"


class TestOptimizeCommand:
    def config(self, path, **overrides):
        base = {
            "scenario": "fixed_w_opt_g",
            "k": 2,
            "seed": 9,
            "budget": 300,
            "T": 50.0,
            "fixed_params": {"w": 0.8},
        }
        base.update(overrides)
        path.write_text(json.dumps(base))
        return str(path)

    def test_single_run(self, workdir):
        cfg = self.config(workdir / "cfg.json")
        out = workdir / "result.json"
        assert run(["optimize", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert 0.0 <= payload["best_P"] <= 1.0
        assert payload["problem"]["seed"] == 9

    def test_t_multiple(self, workdir):
        cfg = self.config(workdir / "cfg.json", T_multiple=5)
        out = workdir / "result.json"
        del_cfg = json.loads((workdir / "cfg.json").read_text())
        del del_cfg["T"]
        (workdir / "cfg.json").write_text(json.dumps(del_cfg))
        assert run(["optimize", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["problem"]["arrival_time"] == 5 * 11

    def test_sweep_csv_reproducible(self, workdir):
        cfg = self.config(
            workdir / "cfg.json",
            sweep={"w": [0.6, 0.8], "T_multiples": [5]},
        )
        out1, out2 = workdir / "a.csv", workdir / "b.csv"
        assert run(["optimize", "--config", cfg, "--out-csv", str(out1)]) == 0
        assert run(["optimize", "--config", cfg, "--out-csv", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("out_csv, out, error", [
        ("o.csv", "nodir/o.json", "nodir/o.json"),
        ("nodir/o.csv", "o.json", "nodir/o.csv"),
    ], ids=["json-fails", "csv-fails"])
    def test_failed_output_leaves_the_old_files(self, workdir, out_csv, out, error):
        # the CSV replaces its target only after --out is written, so a failure of
        # either file leaves the CSV that was there, and a failed CSV writes no JSON
        cfg = self.config(workdir / "cfg.json", sweep={"w": [0.6, 0.8], "T_multiples": [5]})
        (workdir / "o.csv").write_bytes(b"old,csv\n")
        assert run(["optimize", "--config", cfg, "--out-csv", out_csv, "--out", out]) == 2
        manifest = json.loads((workdir / "qstc-manifest.json").read_text())
        assert manifest["error"] == (
            f"FileNotFoundError: [Errno 2] No such file or directory: '{error}'")
        assert manifest["outputs"] == []
        assert (workdir / "o.csv").read_bytes() == b"old,csv\n"
        assert sorted(os.listdir(workdir)) == ["cfg.json", "o.csv", "qstc-manifest.json"]

    def test_single_run_csv_matches_one_point_sweep(self, workdir):
        base = {"scenario": "fixed_w_opt_g", "k": 2, "seed": 9, "budget": 300,
                "fixed_params": {"w": 0.8}}
        csvs = []
        for name, extra in (("single", {"T": 50.0}), ("sweep", {"sweep": {"T": [50.0]}})):
            cfg, csv = workdir / f"{name}.json", workdir / f"{name}.csv"
            cfg.write_text(json.dumps({**base, **extra}))
            assert run(["optimize", "--config", str(cfg), "--out-csv", str(csv)]) == 0
            manifest = json.loads((workdir / "qstc-manifest.json").read_text())
            assert manifest["outputs"] == [str(csv)]
            csvs.append(csv.read_bytes())
        assert csvs[0] == csvs[1]
        assert csvs[0].decode().splitlines()[1].startswith("fixed_w_opt_g,2,11,50,0.8,")

    def test_zero_probability_prints_positive_zero(self, workdir, capsys):
        # couplings near 1e-200 leave P = 0, whose -log10(1 - P) was printed as -0
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "full_k_plus_4", "k": 2, "seed": 7, "budget": 900,
                                   "bounds": [[1e-200, 1e-199]], "sweep": {"T_multiples": [10]}}))
        assert run(["optimize", "--config", str(cfg), "--out", "out.json",
                    "--out-csv", "out.csv"]) == 0
        row = "full_k_plus_4,2,11,110,,0,0,7"
        assert capsys.readouterr().out.splitlines()[1:] == ["  " + row]
        assert (workdir / "out.csv").read_text().splitlines()[1:] == [row]
        (result,) = json.loads((workdir / "out.json").read_text())["sweep"]
        assert math.copysign(1.0, result["neg_log_infidelity"]) == 1.0
        assert '"neg_log_infidelity": 0.0,' in (workdir / "out.json").read_text()

    def test_csv_only_run_builds_no_json_payload(self, workdir, monkeypatch):
        # only --out reads the to_dict payload, so a run with --out-csv alone
        # never builds it and still writes the same CSV
        base = {"scenario": "fixed_w_opt_g", "k": 2, "seed": 9, "budget": 300,
                "fixed_params": {"w": 0.8}}
        for name, extra in (("single", {"T": 50.0}), ("sweep", {"sweep": {"T": [50.0]}})):
            (workdir / f"{name}.json").write_text(json.dumps({**base, **extra}))

        def csvs(tag):
            out = []
            for name in ("single", "sweep"):
                csv = workdir / f"{name}-{tag}.csv"
                assert run(["optimize", "--config", f"{name}.json", "--out-csv", str(csv)]) == 0
                out.append(csv.read_bytes())
            return out

        want = csvs("plain")

        def refused(result):
            raise AssertionError("OptResult.to_dict called without --out")

        monkeypatch.setattr(optimize.OptResult, "to_dict", refused)
        assert csvs("patched") == want

    def test_probability_above_one_is_numerical(self, workdir, monkeypatch):
        # the parameters are in bounds, so P > 1 is a numerical fault (exit 3)
        series = dynamics.jacobi_series

        def inflated(jacobi):
            freqs, coeffs = series(jacobi)
            return freqs, 1.5 * coeffs

        monkeypatch.setattr(dynamics, "jacobi_series", inflated)
        cfg = self.config(workdir / "cfg.json", k=0, T=5.0, fixed_params={"w": 1.0})
        assert run(["optimize", "--config", cfg]) == 3
        manifest = json.loads((workdir / "qstc-manifest.json").read_text())
        assert manifest["error"].startswith("NumericalError")

    def test_infinite_bound_rejected(self, workdir):
        # rng.uniform cannot draw from [0.05, inf]; the bound itself is bad input
        cfg = self.config(workdir / "cfg.json", bounds=[[0.05, math.inf]])
        assert run(["optimize", "--config", cfg]) == 2
        manifest = json.loads((workdir / "qstc-manifest.json").read_text())
        assert manifest["error"].startswith("ValidationError: bounds must satisfy")

    @pytest.mark.parametrize(
        "name, value",
        [("alpha", value) for value in (0.0, -1.0, math.inf, math.nan)]
        + [("w", value) for value in (0.0, -0.5, math.nan)],
    )
    def test_bad_fixed_parameter_rejected(self, workdir, name, value):
        # json.dumps writes inf and nan as Infinity and NaN, which json.load reads back
        scenario = {"alpha": "alpha_opt_tg", "w": "fixed_w_opt_g"}[name]
        cfg = self.config(workdir / "cfg.json", scenario=scenario, fixed_params={},
                          sweep={name: [value], "T_multiples": [5]})
        assert run(["optimize", "--config", cfg]) == 2
        manifest = json.loads((workdir / "qstc-manifest.json").read_text())
        assert manifest["error"].startswith("ValidationError")
        assert "must be positive and finite" in manifest["error"]

    def test_missing_time_rejected(self, workdir):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "fixed_w_opt_g", "k": 2, "seed": 1,
                                   "fixed_params": {"w": 0.8}}))
        assert run(["optimize", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "content",
        [
            None,  # file missing
            b"\xff\xfe{}",  # not UTF-8
            b'{"scenario": "fixed_w_opt_g", "k": 2',  # truncated JSON
            json.dumps({"scenario": "fixed_w_opt_g", "k": 2, "seed": "x", "T": 50.0,
                        "fixed_params": {"w": 0.8}}).encode(),
            json.dumps({"scenario": "fixed_w_opt_g", "k": 2, "seed": 1, "T": 50.0,
                        "budget": "many", "fixed_params": {"w": 0.8}}).encode(),
            json.dumps({"scenario": "fixed_w_opt_g", "k": 2, "seed": 1, "T": 50.0,
                        "fixed_params": {"w": "wide"}}).encode(),
        ],
    )
    def test_bad_config_rejected(self, workdir, content):
        cfg = workdir / "cfg.json"
        if content is not None:
            cfg.write_bytes(content)
        assert run(["optimize", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "overrides, key",
        [({"budjet": 5}, "budjet"), ({"sweep": {"w": [0.6], "T_multipels": [5]}}, "T_multipels")],
    )
    def test_unknown_key_rejected(self, workdir, overrides, key):
        cfg = self.config(workdir / "cfg.json", **overrides)
        assert run(["optimize", "--config", cfg]) == 2
        manifest = json.loads((workdir / "qstc-manifest.json").read_text())
        assert manifest["error"].startswith("ValidationError") and key in manifest["error"]

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"window_max": "false"}, "'window_max'"),
            ({"k": 2.9}, "'k'"),
            ({"seed": 1.7}, "'seed'"),
            ({"budget": 150.9}, "'budget'"),
            ({"warm_start": "no"}, "'warm_start'"),
            ({"bounds": [[0.1, 0.2, 0.3]]}, "bounds"),
            ({"scenario": "alpha_opt_tg", "fixed_params": {"alpha": 2, "w": 0.5}}, "'w'"),
            ({"scenario": "full_k_plus_4", "k": 0, "budget": 600, "fixed_params": {"w": 0.5}},
             "'w'"),
        ],
    )
    def test_mistyped_value_rejected(self, workdir, overrides, key):
        # each value is read as it is written, never converted into another
        # experiment's (an unpacking crash, for the bounds triple)
        cfg = self.config(workdir / "cfg.json", **overrides)
        assert run(["optimize", "--config", cfg]) == 2
        manifest = json.loads((workdir / "qstc-manifest.json").read_text())
        assert manifest["error"].startswith("ValidationError") and key in manifest["error"]

    def test_runs_without_scipy(self, workdir):
        cfg = self.config(workdir / "cfg.json", budget=150, window_max=True)
        spec_file = write_spec(workdir / "n11.json", chains.homogeneous_chain(11))
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from qstc import cli\n"
            f"assert cli.main(['optimize', '--config', {cfg!r}]) == 0\n"
            "assert cli.main(['design', 'pgt', '--spec', "
            f"{spec_file!r}, '--epsilon', '0.05', '--tmax', '1000']) == 0\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", script], cwd=workdir, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "best P" in proc.stdout and "reached" in proc.stdout


class TestGlueCommand:
    def test_round_trip(self, workdir):
        spec_file = write_spec(workdir / "n11.json", chains.homogeneous_chain(11))
        out = workdir / "n23.json"
        assert run(["glue", spec_file, "--bridge-v", "1.0", "--out", str(out)]) == 0
        child = chains.load_spec(out)
        assert child.n == 23
        assert "numbering" not in json.loads(out.read_text())
        # output of one command is valid input to another
        assert run(["spectrum", str(out)]) == 0

    def test_even_length_rejected(self, workdir):
        spec_file = write_spec(workdir / "n8.json", chains.homogeneous_chain(8))
        assert run(["glue", spec_file]) == 2

    def test_containment_at_large_couplings(self, workdir, capsys):
        # the containment tolerance scales with the child's spectrum
        rng = np.random.default_rng(5)
        v, g = (1e8 * rng.uniform(0.5, 2.0, size) for size in (3, 2))
        spec_file = write_spec(workdir / "n11.json", chains.mirror_chain(v.tolist(), g.tolist()))
        assert run(["glue", spec_file]) == 0
        assert "parent spectrum contained: True" in capsys.readouterr().out


class TestSequencesCommand:
    # first ten rows of the published degree table
    EXPECTED = [
        (1, 8, "S8", 2), (2, 11, "S5", 2), (3, 14, "S14", 2), (4, 17, "S8", 2),
        (5, 20, "", 3), (6, 23, "S5", 2), (7, 26, "", 3), (8, 29, "S14", 2),
        (9, 32, "", 5), (10, 35, "S8", 2),
    ]

    def test_first_ten_rows(self, workdir):
        out = workdir / "rows.json"
        assert run(["sequences", "--k-max", "10", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        got = [(r["k"], r["N"], r["sequence"], r["poly"]) for r in rows]
        assert got == self.EXPECTED

    def test_failed_identity_is_numerical(self, workdir, monkeypatch):
        reduced = exact.reduced_charpoly_homogeneous
        monkeypatch.setattr(exact, "reduced_charpoly_homogeneous",
                            lambda k: [*reduced(k)[:-1], 2])
        assert run(["sequences", "--k-max", "3"]) == 3
        manifest = json.loads((workdir / "qstc-manifest.json").read_text())
        assert manifest["error"].startswith("NumericalError")

    def test_stdout_table(self, workdir, capsys):
        assert run(["sequences", "--k-max", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,N,sequence,poly"
        assert lines[1] == "1,8,S8,2"

    def test_k_max_above_cap_rejected_up_front(self, workdir, monkeypatch):
        # no row is computed before the flag is checked
        def computed(k):
            raise AssertionError(f"row k={k} computed")

        monkeypatch.setattr(exact, "char_poly_report", computed)
        assert run(["sequences", "--k-max", str(exact.K_CAP + 1)]) == 2
        manifest = json.loads((workdir / "qstc-manifest.json").read_text())
        assert manifest["error"] == f"ValidationError: k-max must be <= {exact.K_CAP}, got 101"

    @pytest.mark.parametrize("k_max", ["0", "-3"])
    def test_non_positive_k_max_rejected(self, workdir, k_max):
        out = workdir / "rows.json"
        assert run(["sequences", f"--k-max={k_max}", "--out", str(out)]) == 2
        assert not out.exists()
        manifest = json.loads((workdir / "qstc-manifest.json").read_text())
        assert manifest["error"] == f"ValidationError: k-max must be >= 1, got {k_max}"


def test_sympy_loaded_only_by_exact_spectrum(workdir):
    """Only ``spectrum --exact`` prints radicals, so only it imports sympy."""
    write_spec(workdir / "n11.json", chains.homogeneous_chain(11))
    (workdir / "cfg.json").write_text(json.dumps(
        {"scenario": "fixed_w_opt_g", "k": 2, "seed": 9, "budget": 150, "T": 50.0,
         "window_max": True, "fixed_params": {"w": 0.8}}))
    script = """
import json, sys
from qstc import cli
for argv in (
    ["spectrum", "n11.json", "--verify-lemmas"],
    ["sequences", "--k-max", "30"],
    ["optimize", "--config", "cfg.json"],
    ["evolve", "n11.json", "--tmax", "100", "--samples", "1000"],
    ["glue", "n11.json"],
    ["design", "pst", "--family", "n11", "--k", "1", "--v1", "2.0"],
    ["design", "bound", "--w", "0.8"],
    ["design", "pgt", "--spec", "n11.json", "--epsilon", "0.05", "--tmax", "1000"],
):
    assert cli.main(argv) == 0, argv
assert "sympy" not in sys.modules
assert cli.main(["spectrum", "n11.json", "--exact", "--out", "exact.json"]) == 0
assert "sympy" in sys.modules
print(json.dumps(json.load(open("exact.json"))["spectrum"]["tags"]))
"""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    tags = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(tags) == 11
    assert tags[-1] == "sqrt(sqrt(2) + 3)"


class TestManifest:
    def test_success_manifest(self, workdir):
        spec_file = write_spec(workdir / "n5.json", chains.homogeneous_chain(5))
        out = workdir / "spectrum.json"
        assert run(["spectrum", spec_file, "--out", str(out)]) == 0
        manifest = json.loads((workdir / "qstc-manifest.json").read_text())
        assert manifest["error"] is None
        assert str(out) in manifest["outputs"]
        assert manifest["tool_version"]

    def test_custom_manifest_path(self, workdir):
        spec_file = write_spec(workdir / "n5.json", chains.homogeneous_chain(5))
        target = workdir / "custom-manifest.json"
        assert run(["--manifest", str(target), "spectrum", spec_file]) == 0
        assert target.exists()

    def test_seed_recorded_for_optimizer(self, workdir):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": "fixed_w_opt_g", "k": 2, "seed": 4, "budget": 300,
            "T": 30.0, "fixed_params": {"w": 0.7},
        }))
        assert run(["optimize", "--config", str(cfg)]) == 0
        manifest = json.loads((workdir / "qstc-manifest.json").read_text())
        assert manifest["seed"] == 4

    def test_seed_recorded_for_sweep(self, workdir):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": "fixed_w_opt_g", "k": 2, "seed": 4, "budget": 150,
            "sweep": {"w": [0.7], "T": [30.0]},
        }))
        assert run(["optimize", "--config", str(cfg)]) == 0
        manifest = json.loads((workdir / "qstc-manifest.json").read_text())
        assert manifest["seed"] == 4

    OPTIMIZE = {"scenario": "fixed_w_opt_g", "k": 2, "budget": 150, "T": 30.0}

    @pytest.mark.parametrize("argv, seed", [
        (["spectrum", "n11.json", "--verify-lemmas", "--out", "spectrum.json"], None),
        (["spectrum", "n11.json"], None),
        (["evolve", "n11.json", "--tmax", "10", "--samples", "100", "--out", "trace.csv"], None),
        (["design", "pst", "--family", "n11", "--k", "1", "--v1", "2.0", "--out", "pst.json"],
         None),
        (["design", "bound", "--w", "0.8"], None),
        (["design", "pgt", "--spec", "n11.json", "--epsilon", "0.05", "--tmax", "1000",
          "--out", "pgt.json"], None),
        (["optimize", "--config", "single.json", "--out", "opt.json", "--out-csv", "opt.csv"], 4),
        (["optimize", "--config", "sweep.json", "--out-csv", "sweep.csv"], 6),
        (["glue", "n11.json", "--out", "n23.json"], None),
        (["sequences", "--k-max", "3", "--out", "rows.json"], None),
    ])
    def test_fields_of_every_subcommand(self, workdir, argv, seed):
        # outputs are exactly the files the command wrote, and only optimize has a seed
        write_spec(workdir / "n11.json", chains.homogeneous_chain(11))
        (workdir / "single.json").write_text(json.dumps(
            dict(self.OPTIMIZE, seed=4, fixed_params={"w": 0.7})))
        (workdir / "sweep.json").write_text(json.dumps(
            dict(self.OPTIMIZE, seed=6, sweep={"w": [0.7, 0.9]})))
        before = set(os.listdir(workdir))
        assert run(argv) == 0
        manifest = json.loads((workdir / "qstc-manifest.json").read_text())
        assert list(manifest) == ["command", "tool_version", "inputs", "outputs", "seed",
                                  "wall_time", "error"]
        assert sorted(manifest["outputs"]) == sorted(
            set(os.listdir(workdir)) - before - {"qstc-manifest.json"})
        assert manifest["seed"] == seed
        assert manifest["error"] is None

    @pytest.mark.parametrize("argv, code, outputs, written", [
        (["spectrum", "n11.json"], 0, [], []),
        (["spectrum", "n11.json", "--out", "s.json"], 0, ["s.json"], ["s.json"]),
        (["evolve", "n11.json", "--tmax", "10", "--samples", "100"], 0, [], []),
        (["evolve", "n11.json", "--tmax", "10", "--samples", "100", "--out", "t.csv"], 0,
         ["t.csv"], ["t.csv"]),
        (["design", "pst", "--family", "n11", "--k", "1", "--v1", "2.0"], 0, [], []),
        (["design", "pst", "--family", "n11", "--k", "1", "--v1", "2.0", "--out", "pst.json"], 0,
         ["pst.json"], ["pst.json"]),
        (["design", "bound", "--w", "0.8"], 0, [], []),  # bound takes no --out
        (["design", "pgt", "--spec", "n11.json", "--epsilon", "0.05", "--tmax", "1000"], 0, [], []),
        (["design", "pgt", "--spec", "n11.json", "--epsilon", "0.05", "--tmax", "1000",
          "--out", "pgt.json"], 0, ["pgt.json"], ["pgt.json"]),
        (["glue", "n11.json"], 0, [], []),
        (["glue", "n11.json", "--out", "n23.json"], 0, ["n23.json"], ["n23.json"]),
        (["sequences", "--k-max", "3"], 0, [], []),
        (["sequences", "--k-max", "3", "--out", "rows.json"], 0, ["rows.json"], ["rows.json"]),
        (["optimize", "--config", "single.json", "--out-csv", "o.csv"], 0, ["o.csv"], ["o.csv"]),
        (["optimize", "--config", "single.json", "--out", "o.json"], 0, ["o.json"], ["o.json"]),
        # --out-csv comes first in outputs, whatever the order on the command line
        (["optimize", "--config", "single.json", "--out", "o.json", "--out-csv", "o.csv"], 0,
         ["o.csv", "o.json"], ["o.csv", "o.json"]),
        (["optimize", "--config", "sweep.json", "--out-csv", "o.csv"], 0, ["o.csv"], ["o.csv"]),
        (["optimize", "--config", "sweep.json", "--out", "o.json"], 0, ["o.json"], ["o.json"]),
        (["optimize", "--config", "sweep.json", "--out", "o.json", "--out-csv", "o.csv"], 0,
         ["o.csv", "o.json"], ["o.csv", "o.json"]),
        # a failed run lists none and leaves no new file
        (["spectrum", "missing.json", "--out", "s.json"], 2, [], []),
        (["evolve", "n11.json", "--tmax", "10", "--samples", "1", "--out", "t.csv"], 2, [], []),
        (["design", "pst", "--family", "n8", "--k", "1", "--v1", "2.5", "--out", "pst.json"], 4,
         [], []),
        (["design", "bound", "--w", "-1"], 2, [], []),
        (["design", "pgt", "--spec", "n11.json", "--epsilon", "0.05", "--tmax", "1e300",
          "--out", "pgt.json"], 2, [], []),
        (["glue", "missing.json", "--out", "n23.json"], 2, [], []),
        (["sequences", "--k-max", "0", "--out", "rows.json"], 2, [], []),
        (["optimize", "--config", "sweep.json", "--out-csv", "o.csv", "--out", "nodir/o.json"], 2,
         [], []),
    ])
    def test_outputs_are_the_files_written(self, workdir, argv, code, outputs, written):
        write_spec(workdir / "n11.json", chains.homogeneous_chain(11))
        (workdir / "single.json").write_text(json.dumps(
            dict(self.OPTIMIZE, seed=4, fixed_params={"w": 0.7})))
        (workdir / "sweep.json").write_text(json.dumps(
            dict(self.OPTIMIZE, seed=6, sweep={"w": [0.7, 0.9]})))
        before = set(os.listdir(workdir))
        assert run(argv) == code
        manifest = json.loads((workdir / "qstc-manifest.json").read_text())
        assert manifest["outputs"] == outputs
        assert (manifest["error"] is None) == (code == 0)
        assert set(os.listdir(workdir)) - before == set(written) | {"qstc-manifest.json"}

    def test_threads_flag(self, workdir, monkeypatch):
        for var in THREAD_VARS:  # restored after the test, whatever the flag sets
            monkeypatch.setenv(var, "2")
        spec_file = write_spec(workdir / "n5.json", chains.homogeneous_chain(5))
        assert run(["--threads", "1", "spectrum", spec_file]) == 0
        assert run(["--threads", "0", "spectrum", spec_file]) == 2

    def test_threads_flag_overrides_env(self, workdir, monkeypatch):
        for var in THREAD_VARS:
            monkeypatch.setenv(var, "8")
        spec_file = write_spec(workdir / "n5.json", chains.homogeneous_chain(5))
        assert run(["--threads", "1", "spectrum", spec_file]) == 0
        assert [os.environ[var] for var in THREAD_VARS] == ["1"] * 3
        manifest = json.loads((workdir / "qstc-manifest.json").read_text())
        assert manifest["inputs"]["threads"] == 1

    def test_threads_env_not_integer(self, workdir, monkeypatch):
        monkeypatch.setenv("QSTC_THREADS", "many")
        spec_file = write_spec(workdir / "n5.json", chains.homogeneous_chain(5))
        assert run(["spectrum", spec_file]) == 2


class TestSharedParser:
    OPTIMIZE = TestManifest.OPTIMIZE

    # every subcommand, an argparse rejection mid-sequence and commands that exit 2 and 4
    SEQUENCE = [
        (["spectrum", "n11.json", "--verify-lemmas", "--out", "spectrum.json"], 0),
        (["evolve", "n11.json", "--tmax", "100", "--samples", "3000", "--out", "trace.csv"], 0),
        (["design", "pst", "--family", "n11", "--k", "1", "--v1", "2.0", "--out", "pst.json"],
         0),
        (["design", "pst", "--family", "n20", "--k", "1", "--v1", "2.0"], "SystemExit 2"),
        (["design", "bound", "--w", "0.8"], 0),
        (["design", "pgt", "--spec", "n11.json", "--epsilon", "0.05", "--tmax", "1000",
          "--out", "pgt.json"], 0),
        (["glue", "n8.json"], 2),
        (["--manifest", "glue-manifest.json", "glue", "n11.json", "--out", "n23.json"], 0),
        (["design", "pst", "--family", "n8", "--k", "1", "--v1", "2.5"], 4),
        (["sequences", "--k-max", "5", "--out", "rows.json"], 0),
        (["optimize", "--config", "single.json", "--out", "opt.json", "--out-csv", "opt.csv"],
         0),
        (["optimize", "--config", "sweep.json", "--out", "sweep-out.json",
          "--out-csv", "sweep.csv"], 0),
    ]

    def replay(self, directory, monkeypatch, capsys, fresh):
        """Run SEQUENCE in ``directory``; per command its code, stdout, stderr and manifests.

        With ``fresh`` the parser is rebuilt before every command, as in a new
        process; otherwise it is built once, by the first command.
        """
        directory.mkdir()
        monkeypatch.chdir(directory)
        write_spec(directory / "n11.json", chains.homogeneous_chain(11))
        write_spec(directory / "n8.json", chains.homogeneous_chain(8))
        (directory / "single.json").write_text(json.dumps(
            dict(self.OPTIMIZE, seed=4, fixed_params={"w": 0.7})))
        (directory / "sweep.json").write_text(json.dumps(
            dict(self.OPTIMIZE, seed=6, sweep={"w": [0.7, 0.9]})))
        cli.build_parser.cache_clear()
        steps = []
        for argv, _ in self.SEQUENCE:
            if fresh:
                cli.build_parser.cache_clear()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = f"SystemExit {exc.code}"
            captured = capsys.readouterr()
            manifests = {}
            for path in sorted(directory.glob("*manifest.json")):
                manifests[path.name] = json.loads(path.read_text())
                assert isinstance(manifests[path.name].pop("wall_time"), float)
                path.unlink()
            steps.append((argv, code, captured.out, captured.err, manifests))
        assert cli.build_parser.cache_info().misses == 1
        files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
        return steps, files

    def test_reuse_matches_a_fresh_parser_per_call(self, tmp_path, monkeypatch, capsys):
        shared = self.replay(tmp_path / "shared", monkeypatch, capsys, fresh=False)
        fresh = self.replay(tmp_path / "fresh", monkeypatch, capsys, fresh=True)
        assert [code for _, code, *_ in shared[0]] == [code for _, code in self.SEQUENCE]
        assert shared == fresh

    def test_built_once_per_process(self, workdir):
        assert cli.build_parser() is cli.build_parser()
        spec_file = write_spec(workdir / "n5.json", chains.homogeneous_chain(5))
        cli.build_parser.cache_clear()
        for argv in (["spectrum", spec_file], ["design", "bound", "--w", "0.8"],
                     ["sequences", "--k-max", "2"], ["glue", spec_file]):
            assert run(argv) == 0
        assert cli.build_parser.cache_info().misses == 1

    def test_import_builds_no_parser(self, workdir):
        script = (
            "from qstc import cli\n"
            "assert cli.build_parser.cache_info().currsize == 0\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", script], cwd=workdir, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
