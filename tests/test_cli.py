import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lacunaria
from lacunaria import diophantine, permute, simulate, spectra
from lacunaria.cli import (
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VERIFY_MISMATCH,
    _build_parser,
    _config_sha256,
    _first_json_divergence,
    _params_from_args,
    _write_json,
    main,
    resolve_permutation,
    resolve_sequence,
)
from lacunaria.rng import derive_seed
from lacunaria.seqgen import read_sequence


def run(args):
    return main([str(a) for a in args])


# ---------------- sequence specs ----------------

def test_resolve_inline_specs():
    assert resolve_sequence("pow2:5", None, None).prefix(5) == [2, 4, 8, 16, 32]
    assert resolve_sequence("pow2m1", 4, None).prefix(4) == [1, 3, 7, 15]
    assert resolve_sequence("geometric:3/2:2:4", None, None).prefix(4) == [2, 3, 5, 8]
    assert resolve_sequence("smooth:2,3:7", None, None).prefix(7) == [1, 2, 3, 4, 6, 8, 9]
    r = resolve_sequence("rstar:1.0:50:30:7", None, None)
    assert len(r) == 30


def test_resolve_bad_spec():
    with pytest.raises(ValueError):
        resolve_sequence("nope:5", None, None)
    with pytest.raises(ValueError):
        resolve_sequence("pow2", None, None)  # no length anywhere


@pytest.mark.parametrize("spec, message", [
    ("geometric:3/2", "geometric spec is geometric:q:n1[:N]"),
    ("smooth", "smooth spec is smooth:p1,p2[:N]"),
    ("rstar:1.0", "rstar spec is rstar:alpha:a[:N[:seed]]"),
])
def test_resolve_sequence_spec_missing_a_field(tmp_path, monkeypatch, spec, message):
    monkeypatch.chdir(tmp_path)  # no file of that name
    with pytest.raises(ValueError, match=re.escape(message)):
        resolve_sequence(spec, 8, None)


def test_resolve_bad_permutation_spec(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match="random permutation needs a seed"):
        resolve_permutation("random", 8, None)
    with pytest.raises(ValueError, match="cannot resolve permutation spec 'shuffle'"):
        resolve_permutation("shuffle", 8, 0)


# ---------------- seq command ----------------

def test_seq_geometric_cli(tmp_path):
    assert run(["seq", "--kind", "geometric", "--q", "2", "--n1", "1",
                "--count", "100", "--out-dir", tmp_path]) == EXIT_OK
    seq = read_sequence(tmp_path / "sequence.txt")
    assert len(seq) == 100
    assert seq.prefix(4) == [1, 2, 4, 8]
    manifest = json.loads((tmp_path / "run.json").read_text())
    assert manifest["subcommand"] == "seq"
    assert "sequence.txt" in manifest["outputs"]


def test_seq_rstar_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert run(["seq", "--kind", "rstar", "--alpha", "1.0", "--scale", "50",
                    "--count", "40", "--seed", "11", "--out-dir", d]) == EXIT_OK
    assert (a / "sequence.txt").read_bytes() == (b / "sequence.txt").read_bytes()


# SHA-256 of sequence.txt for 40 terms, recorded before provenance became
# the plain header dict; the header and terms must keep every byte.
SEQ_PINNED = [
    (["power", "--base", "2", "--offset", "0"],
     "9314f7273b35b0de923a63c7a94dbff9c82e348ca06c35dc3ca9867ec8169d17"),
    (["power", "--base", "3", "--offset", "-1"],
     "a094e2ec5ba92d526cb07fad47c604c9ad1a48028c5c095cd52228177b5828b8"),
    (["geometric", "--q", "3/2", "--n1", "2"],
     "04bad96ff7af4511cfe1cd3c17ce2fda3fae62f646a2232a43b15f5bf29299c9"),
    (["geometric", "--q", "1.5"],
     "03f7d8b27381f746b8db389c636cff2d8ae0d2778250c58e096db908a4a46b6b"),
    (["smooth", "--primes", "3,2,5", "--exclude-one"],
     "a5a677c0205f67cfd1b01931aa34bc284a40de9acc38ad5a65cf139470164eee"),
    (["rstar", "--interval-form", "current", "--seed", "9"],
     "656513590f491b99b3a97f010e7d18f6c039f75acdf31f383e3cb7b135ef498a"),
]


@pytest.mark.parametrize("args, sha", SEQ_PINNED, ids=[
    "pow2", "pow3m1", "geometric-3/2", "geometric-1.5", "smooth-no-one", "rstar-current"])
def test_seq_cli_pinned(tmp_path, args, sha):
    assert run(["seq", "--kind", *args, "--count", "40", "--out-dir", tmp_path]) == EXIT_OK
    assert hashlib.sha256((tmp_path / "sequence.txt").read_bytes()).hexdigest() == sha
    assert run(["verify", "--manifest", tmp_path / "run.json"]) == EXIT_OK


def test_seq_manifest_of_version_0_2_0_replays(tmp_path):
    args, sha = SEQ_PINNED[-1]
    assert run(["seq", "--kind", *args, "--count", "40", "--out-dir", tmp_path]) == EXIT_OK
    # run.json exactly as lacunaria 0.2.0 wrote it for the pinned rstar case
    manifest = {
        "config_sha256": "2ab9ef4f8d97c873e5590bf311799a0d26c977a421aa993040ffb54afbf7de28",
        "inputs": {},
        "outputs": {"sequence.txt": sha},
        "params": {"a": 50, "alpha": 1.0, "count": 40, "interval_form": "current",
                   "kind": "rstar", "seed": 9},
        "subcommand": "seq", "tool": "lacunaria", "version": "0.2.0",
        "wall_time_s": 0.014,
    }
    (tmp_path / "run.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    assert run(["verify", "--manifest", tmp_path / "run.json"]) == EXIT_OK


@pytest.mark.parametrize("header, message", [
    ("[1]", "is not a JSON object with a kind"),
    ('{"kind": "geometric", "q": "3/2"}', "geometric provenance has no field 'n1'"),
], ids=["not-an-object", "missing-field"])
def test_malformed_sequence_header_is_domain_error(tmp_path, capsys, header, message):
    path = tmp_path / "seq.txt"
    path.write_text(f"# lacunaria-seq v1\n# provenance: {header}\n1\n2\n")
    out = tmp_path / "out"
    assert run(["var", "--f", "cos:1", "--seq", path, "--count", "2",
                "--out-dir", out]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (out / "run.json").exists()


@pytest.mark.parametrize("flags, terms", [
    ([], [1, 2, 3, 4, 6, 8]),
    (["--exclude-one"], [2, 3, 4, 6, 8, 9]),
], ids=["with-one", "exclude-one"])
def test_seq_smooth_cli(tmp_path, flags, terms):
    assert run(["seq", "--kind", "smooth", "--primes", "2,3", "--count", "6", *flags,
                "--out-dir", tmp_path]) == EXIT_OK
    seq = read_sequence(tmp_path / "sequence.txt")
    assert seq.prefix(6) == terms
    assert seq.provenance["include_one"] == (not flags)
    assert run(["verify", "--manifest", tmp_path / "run.json"]) == EXIT_OK


@pytest.mark.parametrize("command, message", [
    (["seq", "--kind", "geometric", "--count", "5"], "geometric needs --q"),
    (["seq", "--kind", "smooth", "--count", "5"], "smooth needs --primes"),
    (["perm", "--pairing", "1", "2"], "pairing needs --seq"),
    (["var", "--f", "cos:1", "--seq", "pow2"], "var over a sequence needs --count"),
], ids=["geometric-q", "smooth-primes", "pairing-seq", "var-count"])
def test_flag_a_mode_requires_is_usage_error(tmp_path, capsys, command, message):
    with pytest.raises(SystemExit) as exc:
        run([*command, "--out-dir", tmp_path])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()


# ---------------- dio command ----------------

def test_dio_profile_cli(tmp_path):
    seq_dir, dio_dir = tmp_path / "seq", tmp_path / "dio"
    assert run(["seq", "--kind", "power", "--base", "2", "--offset", "-1",
                "--count", "60", "--out-dir", seq_dir]) == EXIT_OK
    assert run(["dio", "--seq", seq_dir / "sequence.txt", "--profile",
                "--coeff-bound", "2", "--count", "60",
                "--out-dir", dio_dir]) == EXIT_OK
    payload = json.loads((dio_dir / "dio_profile.json").read_text())
    row = next(r for r in payload if r["a"] == 1 and r["b"] == -2)
    assert row["max_count"] == 59
    assert row["argmax_c"] == "1"
    csv_text = (dio_dir / "dio_profile.csv").read_text()
    assert csv_text.splitlines()[0] == "a,b,max_count,argmax_c,count_N4,count_N2,count_N"


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
def test_dio_profile_csv_rows_have_every_column(tmp_path, count):
    # at N <= 3 the prefixes N/4, N/2 and N coincide: the row repeats the value
    assert run(["dio", "--seq", "pow2m1:5", "--profile", "--coeff-bound", "1",
                "--count", count, "--out-dir", tmp_path]) == EXIT_OK
    with open(tmp_path / "dio_profile.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(header) == 7 and len(rows) == 4
    for row in rows:
        fields = dict(zip(header, row, strict=True))
        assert fields["count_N"] == fields["max_count"], row


def test_dio_budget_exit_code(tmp_path):
    assert run(["dio", "--seq", "pow2:60", "--multi", "3", "--coeff-bound", "3",
                "--count", "60", "--budget", "10", "--out-dir", tmp_path]) == EXIT_RESOURCE
    assert run(["dio", "--seq", "pow2:200", "--profile", "--coeff-bound", "3",
                "--count", "200", "--budget", "1000", "--out-dir", tmp_path]) == EXIT_RESOURCE
    assert not (tmp_path / "dio_profile.json").exists()


def test_dio_ratio_cli(tmp_path):
    assert run(["dio", "--seq", "pow2m1:100", "--ratio", "1", "-2",
                "--count", "100", "--out-dir", tmp_path]) == EXIT_OK
    payload = json.loads((tmp_path / "dio_ratio.json").read_text())
    assert payload["ratios"][-1][1] > 0.9


def test_dio_ratio_budget_exit_code(tmp_path):
    assert run(["dio", "--seq", "pow2:200", "--ratio", "1", "-2", "--count", "200",
                "--budget", "10", "--out-dir", tmp_path]) == EXIT_RESOURCE
    assert not (tmp_path / "dio_ratio.json").exists()


def test_dio_profile_artifact_is_profile_to_json(tmp_path):
    # the streamed file holds c = 0 rows and mirror views, and replays
    assert run(["dio", "--seq", "pow2m1:40", "--star-profile", "--diagonal", "literal",
                "--coeff-bound", "2", "--count", "40", "--out-dir", tmp_path]) == EXIT_OK
    reports = diophantine.d2star_profile(resolve_sequence("pow2m1:40", None, None), 2, 40,
                                         diagonal="literal")
    assert any(0 in r.histogram for r in reports.values())
    mirror, base = reports[(-1, 2)].histogram, reports[(1, -2)].histogram
    assert min(mirror) < 0 < max(mirror) and mirror == {-c: n for c, n in base.items()}
    text = diophantine.profile_to_json(reports)
    assert (tmp_path / "dio_profile.json").read_bytes() == text.encode("utf-8")
    assert run(["verify", "--manifest", tmp_path / "run.json"]) == EXIT_OK


def test_dio_two_term_cli(tmp_path):
    # 2^k - 1 - 2 (2^l - 1) = 1 exactly when k = l + 1
    assert run(["dio", "--seq", "pow2m1:20", "--count", "20", "--two-term", "1", "-2", "1",
                "--out-dir", tmp_path]) == EXIT_OK
    payload = json.loads((tmp_path / "dio_two_term.json").read_text())
    assert payload == {"a": 1, "b": -2, "c": "1", "count": 19,
                       "witnesses": [[l + 1, l] for l in range(1, 20)]}
    assert run(["verify", "--manifest", tmp_path / "run.json"]) == EXIT_OK


@pytest.mark.parametrize("mode, artifact", [
    (["--multi", "3", "--coeff-bound", "1"], "dio_multi.json"),
    (["--signed", "3"], "dio_signed.json"),
], ids=["multi", "signed"])
def test_dio_multi_term_modes_cli(tmp_path, mode, artifact):
    assert run(["dio", "--seq", "smooth:2,3:20", "--count", "20", *mode,
                "--out-dir", tmp_path]) == EXIT_OK
    payload = json.loads((tmp_path / artifact).read_text())
    seq = resolve_sequence("smooth:2,3:20", None, None)
    if artifact == "dio_multi.json":
        n, wits = diophantine.count_multi_term(
            seq, diophantine.MultiTermQuery(p=3, coeff_bound=1, count=20))
        listed = [(tuple(w["indices"]), tuple(w["coefficients"])) for w in payload["witness_sample"]]
    else:
        n, wits = diophantine.count_signed_nondegenerate(seq, 3, 20)
        listed = [(tuple(w["indices"]), tuple(w["signs"])) for w in payload["solutions"]]
    assert payload["count"] == n > 0
    assert listed == [(tuple(i), tuple(c)) for i, c in wits]
    assert run(["verify", "--manifest", tmp_path / "run.json"]) == EXIT_OK


@pytest.mark.parametrize("flag, message", [
    (["--diagonal", "literal"], "--diagonal applies only to --star-profile"),
    (["--require-distinct"], "--require-distinct applies only to --two-term"),
], ids=["diagonal", "require-distinct"])
def test_dio_flag_of_another_mode_is_usage_error(tmp_path, capsys, flag, message):
    with pytest.raises(SystemExit) as exc:
        run(["dio", "--seq", "pow2", "--count", "10", "--profile", *flag,
             "--out-dir", tmp_path])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()


@pytest.mark.parametrize("flag", [["--count", "5"], ["--window", "8"], ["--perm", "random:1"]],
                         ids=["count", "window", "perm"])
def test_var_window_flag_without_seq_is_usage_error(tmp_path, capsys, flag):
    # without --seq there is no window, so the flag would have no effect
    with pytest.raises(SystemExit) as exc:
        run(["var", "--f", "cos:1", *flag, "--out-dir", tmp_path])
    assert exc.value.code == 2
    assert "--count, --window and --perm apply only with --seq" in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()


# ---------------- perm command ----------------

def test_perm_pairing_cli(tmp_path):
    seq_dir, perm_dir = tmp_path / "seq", tmp_path / "perm"
    assert run(["seq", "--kind", "power", "--base", "2", "--offset", "-1",
                "--count", "80", "--out-dir", seq_dir]) == EXIT_OK
    assert run(["perm", "--pairing", "1", "2", "--seq", seq_dir / "sequence.txt",
                "--blocks", "geometric:2:4:4", "--gap-ratio", "8",
                "--out-dir", perm_dir]) == EXIT_OK
    cert = json.loads((perm_dir / "certificate.json").read_text())
    assert cert["a"] == 1 and cert["b"] == 2
    assert all(blk["c"] == "1" for blk in cert["blocks"])


@pytest.mark.parametrize("mode, want", [
    (["--identity", "10"], lambda: permute.identity(10)),
    (["--random", "10", "3"], lambda: permute.random_perm(10, 3)),
], ids=["identity", "random"])
def test_perm_identity_and_random_cli(tmp_path, mode, want):
    assert run(["perm", *mode, "--out-dir", tmp_path]) == EXIT_OK
    got = permute.read_permutation(tmp_path / "permutation.txt")
    assert got.images.tolist() == want().images.tolist()
    assert run(["verify", "--manifest", tmp_path / "run.json"]) == EXIT_OK


def test_perm_paper_blocks_cli(tmp_path):
    # paper:2 is blocks of 2^2 and 2^4 slots: 2 and 8 pairs, all on c = 1
    assert run(["perm", "--pairing", "1", "2", "--seq", "pow2m1:80", "--blocks", "paper:2",
                "--out-dir", tmp_path]) == EXIT_OK
    cert = permute.read_certificate(tmp_path / "certificate.json")
    assert [len(blk.pairs) for blk in cert.blocks] == [2, 8]
    assert cert.constants() == [1, 1]
    assert run(["verify", "--manifest", tmp_path / "run.json"]) == EXIT_OK


def test_perm_insufficient_witnesses_exit(tmp_path):
    assert run(["perm", "--pairing", "1", "2", "--seq", "pow2:50",
                "--blocks", "geometric:1:4:4", "--out-dir", tmp_path]) == EXIT_DOMAIN


@pytest.mark.parametrize("terms", [
    [2 ** (2**k) for k in range(13)],  # a ratio past the float range
    [10**400 + i for i in range(5)],  # every ratio rounds to 1.0
], ids=["doubly-exponential", "1e400-plus-i"])
def test_perm_pairing_on_extreme_ratios_exits_domain(tmp_path, capsys, terms):
    path = tmp_path / "seq.txt"
    path.write_text("".join(f"{t}\n" for t in terms))
    assert run(["perm", "--pairing", "1", "3", "--seq", path,
                "--out-dir", tmp_path / "out"]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "block 1 needs 2 disjoint spaced pairs; best candidate" in err
    assert "supplies only 1" in err


@pytest.mark.parametrize("blocks", ["geometric", "paper", "geometric:2:4:4:9", "paper:2:7",
                                    "doubling:2"])
def test_perm_blocks_spec_field_count_exits_domain(tmp_path, capsys, blocks):
    assert run(["perm", "--pairing", "1", "2", "--seq", "pow2m1:200",
                "--blocks", blocks, "--out-dir", tmp_path]) == EXIT_DOMAIN
    assert ("blocks spec is paper:M or geometric:M[:factor[:base]]"
            in capsys.readouterr().err)
    assert not (tmp_path / "run.json").exists()


# ---------------- var command ----------------

def test_var_cli(tmp_path):
    assert run(["var", "--f", "cos:1=1,cos:2=1", "--seq", "pow2",
                "--count", "64", "--out-dir", tmp_path]) == EXIT_OK
    payload = json.loads((tmp_path / "variance.json").read_text())
    assert payload["kac_variance"] == "2"
    assert payload["exact_variance"] == "127/64"
    assert payload["l2_norm_sq"] == "1"


@pytest.mark.parametrize("name", ["my_window.txt", "random_window.txt", "identity.txt"])
def test_var_permutation_file_named_like_a_spec(tmp_path, monkeypatch, name):
    # the odd indices 1..63 then the evens: no two consecutive indices in
    # the first 32 slots, so cos 2pi x + cos 4pi x has variance exactly 1;
    # the file is passed by its bare name, the way it looks like a spec
    monkeypatch.chdir(tmp_path)
    permute.write_permutation(
        permute.PermutationWindow(list(range(1, 64, 2)) + list(range(2, 65, 2))), name)
    assert run(["var", "--f", "cos:1,cos:2", "--seq", "pow2:64", "--count", "32",
                "--window", "64", "--perm", name, "--out-dir", "out"]) == EXIT_OK
    assert json.loads(Path("out/variance.json").read_text())["exact_variance"] == "1"
    manifest = json.loads(Path("out/run.json").read_text())
    assert list(manifest["inputs"]) == [str(tmp_path.resolve() / name)]


def test_var_window_beyond_sequence_exit(tmp_path):
    # 20 slots of the identity window reach past the 10 terms of pow2:10
    assert run(["var", "--f", "cos:1", "--seq", "pow2:10", "--count", "20",
                "--out-dir", tmp_path]) == EXIT_DOMAIN
    assert not (tmp_path / "variance.json").exists()


def test_var_window_sizes_an_inline_sequence(tmp_path, capsys):
    # 340 slots of random_perm(1360, 1) read indices up to 1360, so pow2
    # without a length spans the window, as pow2:1360 does
    common = ["var", "--f", "cos:1,cos:2", "--count", "340", "--window", "1360",
              "--perm", "random:1"]
    assert run([*common, "--seq", "pow2", "--out-dir", tmp_path / "window"]) == EXIT_OK
    assert run([*common, "--seq", "pow2:1360", "--out-dir", tmp_path / "explicit"]) == EXIT_OK
    got = (tmp_path / "window" / "variance.json").read_bytes()
    assert json.loads(got)["exact_variance"] == "211/170"
    assert got == (tmp_path / "explicit" / "variance.json").read_bytes()
    capsys.readouterr()
    assert run(["verify", "--manifest", tmp_path / "window" / "run.json"]) == EXIT_OK
    assert "verify: OK" in capsys.readouterr().out


# ---------------- clt command ----------------

def test_clt_cli_small(tmp_path):
    assert run(["clt", "--f", "cos:1", "--seq", "pow2", "--count", "64",
                "--samples", "400", "--seed", "7", "--ks", "gaussian:1/2",
                "--out-dir", tmp_path]) == EXIT_OK
    payload = json.loads((tmp_path / "clt_summary.json").read_text())
    assert abs(payload["statistics"]["variance"] - 0.5) < 0.2
    assert payload["ks"]["distance"] < 0.2


def test_clt_keep_samples_cli(tmp_path):
    assert run(["clt", "--f", "cos:1", "--seq", "pow2", "--count", "16", "--samples", "5",
                "--seed", "3", "--keep-samples", "--out-dir", tmp_path]) == EXIT_OK
    with open(tmp_path / "samples.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["index", "value"]
    emp = simulate.clt_experiment(spectra.TrigPolynomial.parse("cos:1"),
                                  resolve_sequence("pow2", 16, 3), permute.identity(16), 16, 5,
                                  derive_seed(3, "x"))
    assert rows == [[str(i), repr(float(v))] for i, v in enumerate(emp.samples)]
    assert set(json.loads((tmp_path / "run.json").read_text())["outputs"]) == {
        "clt_summary.json", "samples.csv"}
    assert run(["verify", "--manifest", tmp_path / "run.json"]) == EXIT_OK


def test_clt_mixture_summary_is_the_same_from_any_cwd(tmp_path, monkeypatch):
    # the summary names the mixture file by its bytes; run.json keeps the
    # resolved path, which differs between the two directories
    mixture = json.dumps({"profile": {"constant": "1", "cosine_terms": {"1": "11/20"}}})
    summaries, manifests = [], []
    for name in ("one", "two"):
        work = tmp_path / name
        work.mkdir()
        (work / "mixture.json").write_text(mixture)
        monkeypatch.chdir(work)
        assert run(["clt", "--f", "cos:1,cos:2", "--seq", "pow2m1", "--count", "32",
                    "--samples", "200", "--seed", "5", "--ks", "mixture:mixture.json",
                    "--out-dir", "out"]) == EXIT_OK
        summaries.append((work / "out" / "clt_summary.json").read_bytes())
        manifests.append(json.loads((work / "out" / "run.json").read_text()))
    assert summaries[0] == summaries[1]
    digest = hashlib.sha256(mixture.encode()).hexdigest()
    assert json.loads(summaries[0])["ks"]["target"] == f"mixture:sha256:{digest}"
    assert [m["params"]["ks"] for m in manifests] == \
        [f"mixture:{tmp_path / name / 'mixture.json'}" for name in ("one", "two")]
    for name in ("one", "two"):
        assert run(["verify", "--manifest", tmp_path / name / "out" / "run.json"]) == EXIT_OK


def test_clt_random_perm_spec(tmp_path):
    assert run(["clt", "--f", "cos:1", "--seq", "pow2", "--perm", "random:seed=7",
                "--count", "32", "--samples", "100", "--seed", "3",
                "--out-dir", tmp_path]) == EXIT_OK


# ---------------- lil command ----------------

def test_lil_cli(tmp_path):
    assert run(["lil", "--f", "cos:1", "--seq", "pow2", "--count", "256",
                "--points", "2", "--variance", "1/2", "--seed", "5",
                "--out-dir", tmp_path]) == EXIT_OK
    lines = (tmp_path / "lil_trajectories.csv").read_text().strip().splitlines()
    assert lines[0] == "point,N,running_max_ratio"
    # 2 points x checkpoints {16,...,256} = 2 * 5 rows
    assert len(lines) == 1 + 2 * 5


# SHA-256 of (lil_trajectories.csv, lil_summary.json), recorded when each
# point still built its own evaluator
LIL_CLI_PINNED = [
    (["--f", "cos:1", "--seq", "pow2", "--count", "4096", "--points", "3",
      "--variance", "1/2", "--seed", "7"],
     "15316bdde13270e07ce90af3119b86150fec0613c4d88404aff14192744aa76e",
     "549fbe1d1cc13d33f8f26acf1bd9c49337cde04421fbdbae7c6e8a499469a6d9"),
    (["--f", "cos:1,sin:2", "--seq", "pow2m1", "--count", "1024", "--points", "3",
      "--variance", "1", "--seed", "11", "--perm", "random"],
     "1f73ae9013f8fe6396e61f1f8bd4d3af1a24baae7ec7e58fc0c7e5dbc6f50315",
     "fed29984038ec0145860dd0a56f294585c5ca03ab5d3e14e16ce9625ab76a36d"),
]


@pytest.mark.parametrize("args, csv_sha, summary_sha", LIL_CLI_PINNED)
def test_lil_cli_one_evaluator_pinned(tmp_path, monkeypatch, args, csv_sha, summary_sha):
    builds = []
    init = simulate.PartialSumEvaluator.__init__

    def counting_init(self, *a, **kw):
        builds.append(1)
        init(self, *a, **kw)

    monkeypatch.setattr(simulate.PartialSumEvaluator, "__init__", counting_init)
    assert run(["lil", *args, "--out-dir", tmp_path]) == EXIT_OK
    assert len(builds) == 1
    got = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in ("lil_trajectories.csv", "lil_summary.json")]
    assert got == [csv_sha, summary_sha]


@pytest.mark.parametrize("count", ["3145728", "8"])
def test_lil_n_max_checked_before_anything_is_built(tmp_path, capsys, monkeypatch, count):
    # 3 * 2^20 once built a 3 * 2^20-slot evaluator and sampled its point
    # before this check refused it
    def no_build(*args, **kwargs):
        raise AssertionError("built before n_max was checked")

    monkeypatch.setattr(simulate.PartialSumEvaluator, "__init__", no_build)
    monkeypatch.setattr(simulate, "sample_points", no_build)
    assert run(["lil", "--f", "cos:1", "--seq", "pow2", "--count", count, "--points", "1",
                "--variance", "1/2", "--seed", "7", "--out-dir", tmp_path]) == EXIT_DOMAIN
    assert "n_max must be a power of two, at least 16" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize("points", ["0", "-3"])
def test_lil_points_checked_before_anything_is_built(tmp_path, capsys, monkeypatch, points):
    # --points 0 once built the 2^20-slot evaluator before sample_points
    # refused it with a message naming --count's word
    def no_build(*args, **kwargs):
        raise AssertionError("built before --points was checked")

    monkeypatch.setattr(simulate.PartialSumEvaluator, "__init__", no_build)
    monkeypatch.setattr(simulate, "sample_points", no_build)
    assert run(["lil", "--f", "cos:1", "--seq", "pow2", "--count", "1048576",
                "--points", points, "--variance", "1/2", "--seed", "7",
                "--out-dir", tmp_path]) == EXIT_DOMAIN
    assert "--points must be at least 1" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_clt_threads_below_one_exits_domain(tmp_path, capsys, monkeypatch, threads):
    # both once ran one worker and exited 0
    def no_sampling(*args, **kwargs):
        raise AssertionError("Monte Carlo ran before --threads was checked")

    monkeypatch.setattr(simulate, "clt_experiment", no_sampling)
    assert run(["clt", "--f", "cos:1", "--seq", "pow2", "--count", "64", "--samples", "10",
                "--seed", "7", "--threads", threads, "--out-dir", tmp_path]) == EXIT_DOMAIN
    assert "--threads must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()


@pytest.mark.parametrize("command, message", [
    (["clt", "--f", "cos:1", "--seq", "pow2", "--count", "1048576", "--perm", "random",
      "--samples", "0", "--seed", "7"], "need at least one sample"),
    *((["lil", "--f", "cos:1", "--seq", "pow2", "--count", "1048576", "--perm", "random",
        f"--variance={variance}", "--seed", "7"], message)
      for variance, message in (("0", "variance must be positive and finite"),
                                ("-1/2", "variance must be positive and finite"),
                                ("nan", "Invalid literal for Fraction: 'nan'"))),
])
def test_samples_and_variance_checked_before_the_window(tmp_path, capsys, monkeypatch,
                                                        command, message):
    # each once built the whole 2^20-slot random window, about 5 s, and
    # only then exited 3
    def no_window(*args, **kwargs):
        raise AssertionError("window built before the flag was checked")

    monkeypatch.setattr(permute, "random_perm", no_window)
    assert run([*command, "--out-dir", tmp_path]) == EXIT_DOMAIN
    assert message in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == []


_STRING_FLAG_COMMANDS = {
    "var": ["var", "--f", "cos:1", "--seq", "pow2", "--perm", "random", "--count", "16"],
    "mix": ["mix", "--f", "cos:1", "--seq", "s.txt", "--perm", "p.txt", "--cert", "c.json"],
    "clt": ["clt", "--f", "cos:1", "--seq", "pow2", "--perm", "random", "--count", "16",
            "--samples", "4", "--seed", "7", "--ks", "gaussian:1/2"],
    "lil": ["lil", "--f", "cos:1", "--seq", "pow2", "--perm", "random", "--count", "16",
            "--variance", "1/2", "--seed", "7"],
}


@pytest.mark.parametrize("subcommand, flag", [
    (sc, flag) for sc, command in sorted(_STRING_FLAG_COMMANDS.items())
    for flag in command if flag in ("--f", "--seq", "--perm", "--cert", "--ks", "--variance")])
def test_empty_string_flag_is_usage_error(tmp_path, capsys, subcommand, flag):
    # an empty value was dropped like an absent flag: a required one exited
    # 3 with the bare key as its message, and --perm= ran the identity window
    with pytest.raises(SystemExit) as exc:
        run([*_STRING_FLAG_COMMANDS[subcommand], f"{flag}=", "--out-dir", tmp_path])
    assert exc.value.code == 2
    assert f"argument {flag}: expected a non-empty value" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, message", [
    (["lil", "--f", "cos:1", "--seq", "pow2", "--count", "256", "--points", "2",
      "--variance", "1e400", "--seed", "5"], "variance 1e400 is too large for a float"),
    (["lil", "--f", "cos:1", "--seq", "pow2", "--count", "256", "--points", "2",
      "--variance", "1e-400", "--seed", "5"], "variance must be positive and finite"),
    (["clt", "--f", "cos:1", "--seq", "pow2", "--count", "64", "--samples", "10",
      "--seed", "7", "--ks", "gaussian:1e400"], "ks variance 1e400 is too large for a float"),
])
def test_variance_out_of_float_range_exits_domain(tmp_path, capsys, command, message):
    assert run([*command, "--out-dir", tmp_path]) == EXIT_DOMAIN
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()


def test_clt_unknown_ks_target_exits_domain(tmp_path, capsys):
    assert run(["clt", "--f", "cos:1", "--seq", "pow2", "--count", "64", "--samples", "10",
                "--seed", "7", "--ks", "foo:1", "--out-dir", tmp_path]) == EXIT_DOMAIN
    assert "ks spec is gaussian:VAR or mixture:FILE" in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()


@pytest.mark.parametrize("spec", ["gaussian:-1", "gaussian:-1/3"])
def test_negative_ks_variance_fails_before_sampling(tmp_path, capsys, monkeypatch, spec):
    def no_sampling(*args, **kwargs):
        raise AssertionError("Monte Carlo ran before the --ks spec was checked")

    monkeypatch.setattr(simulate, "clt_experiment", no_sampling)
    assert run(["clt", "--f", "cos:1", "--seq", "pow2", "--count", "64", "--samples", "10",
                "--seed", "7", "--ks", spec, "--out-dir", tmp_path]) == EXIT_DOMAIN
    assert "variance must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()


@pytest.mark.parametrize("command", [
    ["var", "--f", "cos:1", "--seq", "pow2:20", "--count", "8"],
    ["clt", "--f", "cos:1", "--seq", "pow2:20", "--count", "8", "--samples", "4",
     "--seed", "7"],
])
@pytest.mark.parametrize("window", [0, -1])
def test_window_not_positive_exits_domain(tmp_path, capsys, command, window):
    # a 0 is a window length like any other, not an absent option
    assert run([*command, "--window", window, "--out-dir", tmp_path]) == EXIT_DOMAIN
    assert "window length must be positive" in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()


@pytest.mark.parametrize("command", [
    ["var", "--f", "cos:1=1/0", "--seq", "pow2:20", "--count", "8"],
    ["clt", "--f", "cos:1", "--seq", "pow2", "--count", "64", "--samples", "10",
     "--seed", "7", "--ks", "gaussian:1/0"],
    ["lil", "--f", "cos:1", "--seq", "pow2", "--count", "256", "--points", "2",
     "--variance", "1/0", "--seed", "5"],
    ["perm", "--pairing", "1", "2", "--seq", "pow2m1:200", "--gap-ratio", "1/0"],
    ["seq", "--kind", "geometric", "--q", "1/0", "--count", "4"],
    ["dio", "--seq", "geometric:1/0:1:5", "--profile", "--count", "5"],
])
def test_zero_denominator_exits_domain(tmp_path, capsys, command):
    assert run([*command, "--out-dir", tmp_path]) == EXIT_DOMAIN
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()


@pytest.mark.parametrize("command", [
    ["seq", "--kind", "rstar", "--alpha", "nan", "--count", "5"],
    ["seq", "--kind", "rstar", "--alpha", "inf", "--count", "5"],
    ["seq", "--kind", "rstar", "--alpha=-inf", "--count", "5"],
    ["dio", "--seq", "rstar:inf:50:10", "--profile", "--count", "5"],
    ["dio", "--seq", "rstar:nan:50:10", "--profile", "--count", "5"],
])
def test_rstar_alpha_not_finite_exits_domain(tmp_path, capsys, command):
    assert run([*command, "--out-dir", tmp_path]) == EXIT_DOMAIN
    assert "alpha must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()


@pytest.mark.parametrize("command", [
    ["seq", "--kind", "rstar", "--alpha", "20", "--scale", "50", "--count", "30"],
    ["dio", "--seq", "rstar:20:50:30", "--profile", "--count", "30"],
])
def test_rstar_endpoint_past_the_decimal_range_exits_domain(tmp_path, capsys, command):
    assert run([*command, "--out-dir", tmp_path]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "right endpoint of I_8 exceeds the decimal range; lower alpha" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run.json").exists()


@pytest.fixture(scope="module")
def pairing_files(tmp_path_factory):
    """The mix options naming a small pairing on 2^k - 1 (as in the README tour)."""
    base = tmp_path_factory.mktemp("pairing")
    assert run(["seq", "--kind", "power", "--base", "2", "--offset", "-1",
                "--count", "80", "--out-dir", base / "s"]) == EXIT_OK
    assert run(["perm", "--pairing", "1", "2", "--seq", base / "s" / "sequence.txt",
                "--blocks", "geometric:2:4:4", "--gap-ratio", "8",
                "--out-dir", base / "p"]) == EXIT_OK
    return ["--f", "cos:1,cos:2", "--seq", base / "s" / "sequence.txt",
            "--perm", base / "p" / "permutation.txt", "--cert", base / "p" / "certificate.json"]


def test_mix_cutoff_cli(tmp_path, pairing_files):
    # cutoff 3 keeps the pairs' terms at frequencies 2 and 3 that the default
    # cutoff max |c| = 1 reports as residual mass
    assert run(["mix", *pairing_files, "--out-dir", tmp_path / "default"]) == EXIT_OK
    assert run(["mix", *pairing_files, "--cutoff", "3", "--out-dir", tmp_path / "m"]) == EXIT_OK
    default = json.loads((tmp_path / "default" / "mixture.json").read_text())["profile"]
    profile = json.loads((tmp_path / "m" / "mixture.json").read_text())["profile"]
    assert default["freq_cutoff"] == 1 and profile["freq_cutoff"] == 3
    assert set(default["cosine_terms"]) == {"1"}
    assert set(profile["cosine_terms"]) == {"1", "2", "3"}
    assert Fraction(profile["residual_mass"]) < Fraction(default["residual_mass"])
    assert run(["verify", "--manifest", tmp_path / "m" / "run.json"]) == EXIT_OK


def test_cli_prints_each_warning_as_one_line(tmp_path, capsys, pairing_files):
    # cutoff 0 is below the pairing constant 1: the library warns, and the
    # command and its replay print the message alone, not the source line
    line = "warning: cutoff 0 below every pairing constant; the retained profile is constant\n"
    assert run(["mix", *pairing_files, "--cutoff", "0", "--out-dir", tmp_path / "m"]) == EXIT_OK
    assert capsys.readouterr().err == line
    assert run(["verify", "--manifest", tmp_path / "m" / "run.json"]) == EXIT_OK
    assert capsys.readouterr().err == line
    assert run(["perm", "--pairing", "2", "2", "--seq", "pow2m1:80", "--blocks", "paper:1",
                "--out-dir", tmp_path / "p"]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("warning: a = b pairing is experimental\nerror: ")
    assert len(err.splitlines()) == 2 and "cli.py" not in err


def test_mix_refuses_a_certificate_below_the_gap_floor(tmp_path, capsys):
    # the certificate of a valid pairing, edited to a spacing the proof does not cover
    assert run(["perm", "--pairing", "1", "2", "--seq", "pow2m1:80", "--blocks", "paper:2",
                "--out-dir", tmp_path / "p"]) == EXIT_OK
    cert = json.loads((tmp_path / "p" / "certificate.json").read_text())
    cert["gap_ratio"] = "0"
    (tmp_path / "edited.json").write_text(json.dumps(cert))
    assert run(["mix", "--f", "cos:1", "--seq", "pow2m1:80",
                "--perm", tmp_path / "p" / "permutation.txt", "--cert", tmp_path / "edited.json",
                "--out-dir", tmp_path / "m"]) == EXIT_DOMAIN
    assert "gap_ratio 0 below the floor 2*max(|a|,|b|) = 4" in capsys.readouterr().err
    assert not (tmp_path / "m" / "mixture.json").exists()


@pytest.mark.parametrize("charfn", ["1,x", "1,,2", ""])
def test_mix_malformed_charfn_is_usage_error(tmp_path, capsys, pairing_files, charfn):
    with pytest.raises(SystemExit) as exc:
        run(["mix", *pairing_files, "--charfn", charfn, "--out-dir", tmp_path / "m"])
    assert exc.value.code == 2
    assert "argument --charfn: invalid" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("tol", [0, -1e-10, math.inf])
def test_verify_refuses_an_edited_quad_tol(tmp_path, capsys, pairing_files, tol):
    # checked by the run itself, so even a run without --charfn refuses it
    assert run(["mix", *pairing_files, "--out-dir", tmp_path]) == EXIT_OK
    manifest = json.loads((tmp_path / "run.json").read_text())
    manifest["params"]["quad_tol"] = tol
    (tmp_path / "run.json").write_text(json.dumps(manifest))
    assert run(["verify", "--manifest", tmp_path / "run.json"]) == EXIT_DOMAIN
    assert "--quad-tol must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("options, message", [
    (["--charfn", "nan"], "s must be finite"),
    (["--charfn", "1,inf"], "s must be finite"),
    (["--quad-tol", "nan"], "--quad-tol must be positive and finite"),
    (["--quad-tol", "inf", "--charfn", "1"], "--quad-tol must be positive and finite"),
    (["--quad-tol", "1e-20", "--charfn", "1"], "below twice the float evaluation bound"),
])
def test_mix_charfn_without_a_finite_bound_exits_domain(tmp_path, capsys, pairing_files,
                                                         options, message):
    assert run(["mix", *pairing_files, *options, "--out-dir", tmp_path / "m"]) == EXIT_DOMAIN
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m").exists() or not list((tmp_path / "m").iterdir())


def test_clt_one_sample_writes_null_for_undefined_kurtosis(tmp_path):
    assert run(["clt", "--f", "cos:1", "--seq", "pow2", "--count", "16", "--samples", "1",
                "--seed", "1", "--out-dir", tmp_path]) == EXIT_OK
    stats = json.loads((tmp_path / "clt_summary.json").read_text())["statistics"]
    assert stats["variance"] == 0.0
    assert stats["kurtosis_ratio"] is None and stats["se_kurtosis"] is None
    assert run(["verify", "--manifest", tmp_path / "run.json"]) == EXIT_OK


def test_write_json_refuses_a_non_finite_number_before_opening(tmp_path):
    path = tmp_path / "out.json"
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            _write_json(path, {"value": bad})
        assert not path.exists()


@pytest.mark.parametrize("profile, message", [
    ({"constant": "1", "cosine_terms": {"0": "1/2"}}, "frequencies must be >= 1"),
    ({"constant": "1", "cosine_terms": {"1": "1/4"}, "sine_terms": {"-2": "1/4"}},
     "frequencies must be >= 1"),
    # v = 1 + cos 2 pi x touches 0: no strip, so no proven CDF bound
    ({"constant": "1", "cosine_terms": {"1": "1"}}, "is bounded for this mixture profile"),
])
def test_clt_mixture_file_without_a_bound_exits_domain(tmp_path, capsys, profile, message):
    (tmp_path / "mixture.json").write_text(json.dumps({"profile": profile}))
    out = tmp_path / "out"
    assert run(["clt", "--f", "cos:1", "--seq", "pow2", "--count", "64", "--samples", "20",
                "--seed", "7", "--ks", f"mixture:{tmp_path / 'mixture.json'}",
                "--out-dir", out]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("command", [
    ["perm", "--random", "5", "x"],
    ["perm", "--pairing", "1", "b", "--seq", "pow2:50"],
    ["dio", "--seq", "pow2:10", "--count", "5", "--two-term", "1", "2", "z"],
    ["dio", "--seq", "pow2:10", "--count", "5", "--ratio", "1", "q"],
], ids=["random", "pairing", "two-term", "ratio"])
def test_malformed_int_argument_is_usage_error(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        run([*command, "--out-dir", tmp_path])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()


def test_seq_past_int_str_digit_limit(tmp_path):
    # the fifth term has 9,506 digits; Python's int <-> str stops at 4300
    assert run(["seq", "--kind", "rstar", "--alpha", "20", "--scale", "50",
                "--count", "5", "--out-dir", tmp_path]) == EXIT_OK
    manifest = json.loads((tmp_path / "run.json").read_text())
    assert manifest["outputs"].keys() == {"sequence.txt"}
    params = manifest["params"]
    want = resolve_sequence(f"rstar:20:50:5:{params['seed']}", None, None)
    assert read_sequence(tmp_path / "sequence.txt").terms == want.terms
    assert want.term(5).bit_length() > 4300 * math.log2(10)
    assert run(["verify", "--manifest", tmp_path / "run.json"]) == EXIT_OK


# ---------------- manifest params ----------------

# (command line, params, config_sha256) recorded before var, mix, clt and
# lil took their params from the parsed flags: each subcommand with its
# defaults and with every optional flag.  A run's manifest identity must
# not move when a flag is added or a parser is reshaped.
PARAMS_PINNED = [
    ("seq --kind power --count 40",
     {"kind": "power", "count": 40, "base": 2, "offset": 0},
     "4db94d173e4f92e210aef693e81ef00944017f24d35887a08bafff42b75e25e2"),
    ("seq --kind power --base 3 --offset -1 --count 40",
     {"kind": "power", "count": 40, "base": 3, "offset": -1},
     "a8a7d9c48c03297e6a4b699a4080a574d52534005785a21484a0f825a3e1bc76"),
    ("seq --kind geometric --q 3/2 --count 40",
     {"kind": "geometric", "count": 40, "q": "3/2", "n1": 1},
     "e0f78a76cedf7a9dfc737cdb0d64f290d161ca573085d513287f9e23482c3f44"),
    ("seq --kind geometric --q 3/2 --n1 2 --count 40",
     {"kind": "geometric", "count": 40, "q": "3/2", "n1": 2},
     "1a4ec2cc8c89603a31c5e8014923a8a127fbb74d38255d1e5d33a45ac21ed323"),
    ("seq --kind smooth --primes 3,2,5 --count 40",
     {"kind": "smooth", "count": 40, "primes": [3, 2, 5], "include_one": True},
     "9f37b5ccb3b5499eb308a2cad6a258f8d7b3275f23cd27e625acb0bfd827520b"),
    ("seq --kind smooth --primes 2,3 --exclude-one --count 40",
     {"kind": "smooth", "count": 40, "primes": [2, 3], "include_one": False},
     "d95a10a570c8d41403f9d0db236687d93948e91c938ac6b320e1fcc4689925eb"),
    ("seq --kind rstar --count 40",
     {"kind": "rstar", "count": 40, "alpha": 1.0, "a": 50, "seed": 0, "interval_form": "trailing"},
     "b7ed6bc6c89efeedee6dc83543f059f857dc16741e85427bb7b5b4d8b0b83195"),
    ("seq --kind rstar --alpha 2 --scale 30 --interval-form current --seed 9 --count 40"
     " --out-dir x",
     {"kind": "rstar", "count": 40, "alpha": 2.0, "a": 30, "seed": 9, "interval_form": "current"},
     "0af3f88bac09ecf23fa5dbaca91ebe44bc2024ed5d5459920c259b978d6db9be"),
    ("dio --seq pow2:20 --count 20 --profile",
     {"seq": "pow2:20", "count": 20, "seed": 0, "coeff_bound": 2, "budget": 100000000,
      "mode": "profile"},
     "6ad193ca8da138b26a6db7d5e3f08f28e7eea1ff691de4934a2bbbdb92b3ab6d"),
    ("dio --seq pow2:20 --count 20 --profile --coeff-bound 3 --budget 1000 --seed 4",
     {"seq": "pow2:20", "count": 20, "seed": 4, "coeff_bound": 3, "budget": 1000,
      "mode": "profile"},
     "ffdf1864966c72a6f1cb34822e4ffaf22839a58b9052ae722e556fc3db7cc519"),
    ("dio --seq pow2:20 --count 20 --star-profile",
     {"seq": "pow2:20", "count": 20, "seed": 0, "coeff_bound": 2, "budget": 100000000,
      "mode": "star-profile", "diagonal": "sum_zero"},
     "54178814c05150a967ca601ab8a5356fc844cc32712fdfc5877850ed44c019d2"),
    ("dio --seq pow2:20 --count 20 --star-profile --diagonal literal",
     {"seq": "pow2:20", "count": 20, "seed": 0, "coeff_bound": 2, "budget": 100000000,
      "mode": "star-profile", "diagonal": "literal"},
     "5083eb3ac5c63d27b112c85bb5f72e6c6c46f1a643ab7a6a4b266ffc6fed6593"),
    ("dio --seq pow2:20 --count 20 --two-term 1 -2 1",
     {"seq": "pow2:20", "count": 20, "seed": 0, "coeff_bound": 2, "budget": 100000000,
      "mode": "two-term", "a": 1, "b": -2, "c": 1, "require_distinct": False},
     "164c6064204779cd2c9d602cc5ebd266861e45e75e49a3d29059604fad5724cd"),
    ("dio --seq pow2:20 --count 20 --two-term 1 -2 1 --require-distinct",
     {"seq": "pow2:20", "count": 20, "seed": 0, "coeff_bound": 2, "budget": 100000000,
      "mode": "two-term", "a": 1, "b": -2, "c": 1, "require_distinct": True},
     "562f2ff2d123610a17b8caeda9298b43623270aadea255049f2aa9b907bf8f46"),
    ("dio --seq pow2:20 --count 20 --multi 3",
     {"seq": "pow2:20", "count": 20, "seed": 0, "coeff_bound": 2, "budget": 100000000,
      "mode": "multi", "p": 3},
     "47cbec7a704774e61245a1abaad36284309d8b57e4c9b71108317169f0031824"),
    ("dio --seq pow2:20 --count 20 --signed 4",
     {"seq": "pow2:20", "count": 20, "seed": 0, "coeff_bound": 2, "budget": 100000000,
      "mode": "signed", "p": 4},
     "ef2a1ef6fd7f5d8b5f4e9d8569122041867194856f5f0e33b8daf17172dd24b9"),
    ("dio --seq pow2:20 --count 20 --ratio 1 -2",
     {"seq": "pow2:20", "count": 20, "seed": 0, "coeff_bound": 2, "budget": 100000000,
      "mode": "ratio", "a": 1, "b": -2},
     "82de666abc21c29be6886b4088f5d0d63251d831c7e3cf8fb59647741bd142ea"),
    ("perm --identity 16",
     {"mode": "identity", "window": 16},
     "f14ec4974797f810a941d673cf6f186c27fce730f33a1572826360c5015c6ff5"),
    ("perm --random 16 5",
     {"mode": "random", "window": 16, "perm_seed": 5},
     "4c6f8cd5a68dc24b611534e9eea5a71dc0bdb020676e4900650c3e91c7d213fd"),
    ("perm --pairing 1 2 --seq s/sequence.txt",
     {"mode": "pairing", "a": 1, "b": 2, "seq": "s/sequence.txt", "blocks": "geometric:2",
      "gap_ratio": None, "allow_zero_c": False, "seed": 0},
     "78a68a11da5d161eb3c2417b50f47e5bc679619e4aeb38b1875936e28416344f"),
    ("perm --pairing 1 -2 --seq pow2m1:80 --blocks paper:2 --gap-ratio 8 --allow-zero-c --seed"
     " 3",
     {"mode": "pairing", "a": 1, "b": -2, "seq": "pow2m1:80", "blocks": "paper:2",
      "gap_ratio": "8", "allow_zero_c": True, "seed": 3},
     "3522346caf5afd1e070dc3b094df1ceea4158fa3f3d7d7c7c91c092b55049fc1"),
    ("var --f cos:1",
     {"f": "cos:1", "seed": 0},
     "418a76e07c16e71277694505fa3592d4b20a639e2148eaf80c3d66ab25b57be7"),
    ("var --f cos:1 --seed 3",
     {"f": "cos:1", "seed": 3},
     "62d193559b6480fcea19a277689c67e2bdd71512bfc3f739dccf44e36c54c240"),
    ("var --f cos:1,cos:2 --seq pow2:20 --count 8",
     {"f": "cos:1,cos:2", "seed": 0, "seq": "pow2:20", "count": 8},
     "3017453681c76abba34e6246e621286d1f331291db22e8cd9dbacd0e546f1e83"),
    ("var --f cos:1 --seq pow2 --count 8 --window 16 --perm random:5 --seed 2",
     {"f": "cos:1", "seed": 2, "seq": "pow2", "count": 8, "perm": "random:5", "window": 16},
     "5bf869c1bf1c8711d6ac83f8635628d3c3f2a37b1c8e6bd24c8cc9b0aa24ca66"),
    ("var --f cos:1 --seq pow2:20 --count 8 --perm=",
     {"f": "cos:1", "seed": 0, "seq": "pow2:20", "count": 8},
     "c775d2a1f37583d8e4a18499a60343e2044103b7614b26e4ec226752b1806ea1"),
    ("mix --f cos:1,cos:2 --seq s/sequence.txt --perm p/permutation.txt --cert"
     " p/certificate.json",
     {"f": "cos:1,cos:2", "seq": "s/sequence.txt", "perm": "p/permutation.txt",
      "cert": "p/certificate.json", "seed": 0, "quad_tol": 1e-10},
     "33e78b7c3097edbf7cdea9341c1b991a5be2c2f92f7934b5b5e9105c98f0620c"),
    ("mix --f cos:1,cos:2 --seq s/sequence.txt --perm p/permutation.txt --cert"
     " p/certificate.json --cutoff 0 --charfn 1,2.5,-3 --quad-tol 1e-8 --seed 4",
     {"f": "cos:1,cos:2", "seq": "s/sequence.txt", "perm": "p/permutation.txt",
      "cert": "p/certificate.json", "seed": 4, "quad_tol": 1e-08, "cutoff": 0,
      "charfn": [1.0, 2.5, -3.0]},
     "f44e951e1311c94a4f590c7958bdccb13fb940e9eca533da7f22186d05166d4c"),
    ("clt --f cos:1 --seq pow2 --count 64 --samples 10 --seed 7",
     {"f": "cos:1", "seq": "pow2", "count": 64, "samples": 10, "seed": 7, "threads": 1,
      "keep_samples": False},
     "39e2b24d4e8c9295191bce3c1160a3a0a2629bfc47d8d60173ea3a21241edc89"),
    ("clt --f cos:1 --seq pow2 --count 64 --samples 10 --seed 7 --perm random --window 128"
     " --threads 2 --ks gaussian:1/2 --keep-samples",
     {"f": "cos:1", "seq": "pow2", "count": 64, "samples": 10, "seed": 7, "threads": 2,
      "keep_samples": True, "perm": "random", "window": 128, "ks": "gaussian:1/2"},
     "45ad4fc89d28b376bc124f5c93bbaefe5c53b85aad31c4e2790e65c9800f66ef"),
    ("clt --f cos:1 --seq pow2:20 --count 8 --samples 4 --seed 7 --window 0",
     {"f": "cos:1", "seq": "pow2:20", "count": 8, "samples": 4, "seed": 7, "threads": 1,
      "keep_samples": False, "window": 0},
     "7a738a995b5802ed0074d7bf9deece3fe52ddce53de9deaf8c85c6217c1aaccc"),
    ("lil --f cos:1 --seq pow2 --count 256 --variance 1/2 --seed 5",
     {"f": "cos:1", "seq": "pow2", "count": 256, "points": 10, "variance": "1/2", "seed": 5},
     "f19c4f3ffe75c97e6f395b880644231fd62efcc9c5beccb75ad44cdb90793ba5"),
    ("lil --f cos:1,sin:2 --seq pow2m1 --count 256 --variance 1 --seed 5 --perm random:3"
     " --points 2",
     {"f": "cos:1,sin:2", "seq": "pow2m1", "count": 256, "points": 2, "variance": "1", "seed": 5,
      "perm": "random:3"},
     "e01e19dd49c82e2b94d7d148b13192e28c11752c0a64f4c88fd867de3f2edf55"),
]


@pytest.mark.parametrize("line, params, sha", PARAMS_PINNED,
                         ids=[line for line, _, _ in PARAMS_PINNED])
def test_params_pinned(line, params, sha):
    argv = line.split()
    got = _params_from_args(_build_parser().parse_args(argv))
    assert got == params
    assert _config_sha256(argv[0], got) == sha


# ---------------- verify ----------------

def test_out_dir_refuses_another_runs_manifest(tmp_path):
    def seq_args(count):
        return ["seq", "--kind", "power", "--base", "2", "--offset", "-1",
                "--count", count, "--out-dir", tmp_path]

    assert run(seq_args(40)) == EXIT_OK
    manifest = (tmp_path / "run.json").read_bytes()
    before = sorted(p.name for p in tmp_path.iterdir())
    # another command, then the same command with other parameters
    assert run(["dio", "--seq", tmp_path / "sequence.txt", "--ratio", "1", "-2",
                "--count", "40", "--out-dir", tmp_path]) == EXIT_IO
    assert run(seq_args(41)) == EXIT_IO
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert (tmp_path / "run.json").read_bytes() == manifest
    # the identical command may run again in place
    assert run(seq_args(40)) == EXIT_OK
    config = json.loads(manifest)["config_sha256"]
    assert json.loads((tmp_path / "run.json").read_text())["config_sha256"] == config
    assert run(["verify", "--manifest", tmp_path / "run.json"]) == EXIT_OK


def test_verify_clean_run(tmp_path):
    assert run(["seq", "--kind", "geometric", "--q", "3/2", "--n1", "2",
                "--count", "50", "--out-dir", tmp_path]) == EXIT_OK
    assert run(["verify", "--manifest", tmp_path / "run.json"]) == EXIT_OK


def test_verify_detects_edit(tmp_path):
    assert run(["seq", "--kind", "power", "--base", "2", "--offset", "0",
                "--count", "30", "--out-dir", tmp_path]) == EXIT_OK
    path = tmp_path / "sequence.txt"
    path.write_text(path.read_text().replace("1073741824", "1073741825"))
    assert run(["verify", "--manifest", tmp_path / "run.json"]) == EXIT_VERIFY_MISMATCH


def test_verify_mismatch_names_both_versions(tmp_path, capsys):
    assert run(["seq", "--kind", "power", "--base", "2", "--offset", "0",
                "--count", "30", "--out-dir", tmp_path]) == EXIT_OK
    manifest_path = tmp_path / "run.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["version"] = "0.0.1"
    manifest_path.write_text(json.dumps(manifest))
    # a replay that matches passes, whichever version made the run
    assert run(["verify", "--manifest", manifest_path]) == EXIT_OK
    # an output edited with its digest diverges only at the replay
    path = tmp_path / "sequence.txt"
    path.write_text(path.read_text().replace("1073741824", "1073741825"))
    manifest["outputs"]["sequence.txt"] = hashlib.sha256(path.read_bytes()).hexdigest()
    for version in ("0.0.1", lacunaria.__version__):
        manifest["version"] = version
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run(["verify", "--manifest", manifest_path]) == EXIT_VERIFY_MISMATCH
        err = capsys.readouterr().err
        assert "replay diverges in sequence.txt" in err
        named = f"made by lacunaria 0.0.1, the replay by {lacunaria.__version__}"
        assert (named in err) == (version == "0.0.1")


def test_verify_names_the_first_json_divergence(tmp_path, capsys):
    assert run(["dio", "--seq", "pow2m1:20", "--count", "20", "--two-term", "1", "-2", "1",
                "--out-dir", tmp_path]) == EXIT_OK
    path, manifest_path = tmp_path / "dio_two_term.json", tmp_path / "run.json"
    payload = json.loads(path.read_text())
    payload["witnesses"][3][0] = 99
    path.write_text(json.dumps(payload))
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"]["dio_two_term.json"] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run(["verify", "--manifest", manifest_path]) == EXIT_VERIFY_MISMATCH
    assert ("replay diverges in dio_two_term.json at $.witnesses[3][0]: 99 != 5"
            in capsys.readouterr().err)


@pytest.mark.parametrize("original, replay, where", [
    ({"a": 1}, {"a": "1"}, "$.a: type int != str"),
    ({"a": 1}, {"a": 1, "b": 2}, "$.b: missing in original"),
    ({"a": 1, "b": 2}, {"a": 1}, "$.b: missing in replay"),
    ({"w": [[1, 2], [3]]}, {"w": [[1, 2], [3, 4]]}, "$.w[1]: length 1 != 2"),
    ({"w": [1.5]}, {"w": [1.5]}, None),
], ids=["type", "missing-in-original", "missing-in-replay", "length", "same"])
def test_first_json_divergence(original, replay, where):
    assert _first_json_divergence(original, replay) == where


def test_verify_missing_input_is_io_error(tmp_path):
    seq_dir, dio_dir = tmp_path / "seq", tmp_path / "dio"
    assert run(["seq", "--kind", "power", "--base", "2", "--offset", "-1",
                "--count", "40", "--out-dir", seq_dir]) == EXIT_OK
    assert run(["dio", "--seq", seq_dir / "sequence.txt", "--ratio", "1", "-2",
                "--count", "40", "--out-dir", dio_dir]) == EXIT_OK
    (seq_dir / "sequence.txt").unlink()
    assert run(["verify", "--manifest", dio_dir / "run.json"]) == EXIT_IO


def test_tour_with_relative_paths_verifies_from_any_cwd(tmp_path, monkeypatch):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert run(["seq", "--kind", "power", "--base", "2", "--offset", "-1",
                "--count", "80", "--out-dir", "s"]) == EXIT_OK
    assert run(["perm", "--pairing", "1", "2", "--seq", "s/sequence.txt",
                "--blocks", "geometric:2:4:4", "--gap-ratio", "8",
                "--out-dir", "p"]) == EXIT_OK
    assert run(["mix", "--f", "cos:1,cos:2", "--seq", "s/sequence.txt",
                "--perm", "p/permutation.txt", "--cert", "p/certificate.json",
                "--charfn", "1", "--out-dir", "m"]) == EXIT_OK
    payload = json.loads((work / "m" / "mixture.json").read_text())
    # 10 pairs on c = 1; the first, (1, 2), also hits frequency 1 through
    # n_2 - n_1 = 2: beta = (2 + 9) / 20
    assert payload["profile"]["cosine_terms"] == {"1": "11/20"}
    assert payload["profile"]["constant"] == "1"
    assert set(payload["charfn"]) == {"1.0"}
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    for step in ("s", "p", "m"):
        assert run(["verify", "--manifest", work / step / "run.json"]) == EXIT_OK


def test_verify_monte_carlo_replay(tmp_path):
    assert run(["clt", "--f", "cos:1", "--seq", "pow2", "--count", "32",
                "--samples", "50", "--seed", "9", "--out-dir", tmp_path]) == EXIT_OK
    assert run(["verify", "--manifest", tmp_path / "run.json"]) == EXIT_OK


def test_verify_thread_count_invariance(tmp_path):
    # run with 1 worker, replay manifest patched to 3 workers: same bytes
    assert run(["clt", "--f", "cos:1", "--seq", "pow2", "--count", "32",
                "--samples", "60", "--seed", "2", "--out-dir", tmp_path]) == EXIT_OK
    manifest = json.loads((tmp_path / "run.json").read_text())
    manifest["params"]["threads"] = 3
    (tmp_path / "run.json").write_text(json.dumps(manifest))
    assert run(["verify", "--manifest", tmp_path / "run.json"]) == EXIT_OK


# ---------------- true subprocess smoke ----------------

def test_console_entry_point(tmp_path):
    # the child imports the package this test imported, also when pytest put
    # src/ on sys.path itself (pyproject `pythonpath`) rather than PYTHONPATH
    src = str(Path(lacunaria.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "lacunaria", "seq", "--kind", "power",
         "--base", "2", "--offset", "0", "--count", "5",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sequence.txt").exists()


_IMPORT_PROBE = """
import sys
from fractions import Fraction
import numpy as np
import lacunaria.cli
from lacunaria import diophantine, mod1, permute, rng, seqgen, simulate, spectra

SUBPACKAGES = {"cluster", "constants", "datasets", "differentiate", "fft", "fftpack",
               "integrate", "interpolate", "io", "linalg", "ndimage", "odr", "optimize",
               "signal", "sparse", "spatial", "special", "stats"}
out = sys.argv[1]
assert lacunaria.cli.main(["seq", "--kind", "rstar", "--alpha", "1.0", "--scale", "50",
                           "--count", "40", "--seed", "11", "--out-dir", out + "/seq"]) == 0
assert lacunaria.cli.main(["dio", "--seq", "pow2m1:40", "--profile", "--count", "40",
                           "--coeff-bound", "2", "--out-dir", out + "/dio"]) == 0
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
profile = spectra.MixtureProfile(constant=Fraction(1), cosine_terms={1: Fraction(1, 2)})
spectra.mixture_charfn(profile, 1.0)
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
emp = simulate.EmpiricalDistribution(np.linspace(-2.0, 2.0, 101))
simulate.ks_distance(emp, simulate.MixtureTarget(profile))
print(sorted({m.split(".")[1] for m in sys.modules if m.startswith("scipy.")} & SUBPACKAGES))
simulate.ks_distance(emp, simulate.GaussianTarget(1.0))
print("scipy.special" in sys.modules, "scipy.integrate" in sys.modules)
"""


def test_scipy_loads_only_where_a_cdf_is_evaluated(tmp_path):
    # the exact pipeline (seq, dio) never evaluates a normal CDF, mixture_charfn
    # loads no scipy at all, and the mixture CDF loads scipy.special alone
    src = str(Path(lacunaria.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-4:] == ["[]", "[]", "['special']", "True False"]
