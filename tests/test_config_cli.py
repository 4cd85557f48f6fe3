import csv
import errno
import mmap
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinaep as sa
from spinaep import cli, typicality
from spinaep.cli import main
from spinaep.config import _KEYS
from spinaep.errors import ConfigError

from oracles import classical_chain_entropy_bits

REPO = Path(__file__).resolve().parents[1]
CONFIG_DOC = REPO / "docs" / "config-format.md"
GOLDEN_TFIM = Path(__file__).resolve().parent / "golden" / "tfim.cfg"


def rows_of(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def documented_keys():
    """Key -> backticked values of its default cell, for each row of the docs' key table."""
    rows = {}
    for line in CONFIG_DOC.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)]
        if len(cells) == 6 and cells[1].startswith("`"):
            rows[cells[1].strip("`")] = re.findall(r"`([^`]*)`", cells[3])
    return rows


def diagnostics(text):
    with pytest.raises(ConfigError) as info:
        sa.parse_config(text)
    return str(info.value).splitlines()[1:]


def shipped_configs():
    """Every config the repo ships or documents, as pytest params named by where it lives."""
    paths = [*sorted((REPO / "tests" / "golden").glob("*.cfg")),
             *sorted((REPO / "perfbench" / "configs").glob("*.cfg"))]
    params = [pytest.param(p.read_text(encoding="utf-8"), id=p.relative_to(REPO).as_posix()) for p in paths]
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    [minimal] = re.findall(r"A minimal config.*?```\n(.*?)```", readme, re.S)
    [example] = re.findall(r"## Example\n\n```\n(.*?)```", CONFIG_DOC.read_text(encoding="utf-8"), re.S)
    return params + [pytest.param(minimal, id="README.md"), pytest.param(example, id="docs/config-format.md")]


# a reversed support and a non-Hermitian quantum part, on lines 2 and 6
TWO_BAD_TERMS = (
    "model = generic\n"
    "term.0.support = 1; 0\n"
    "term.0.classical = 1, -1, -1, 1\n"
    "term.1.support = 0\n"
    "term.1.classical = 0, 0\n"
    "term.1.quantum = 0,1,1,0\n"
)
SITE_ORDER = "sites must be distinct and in ascending lexicographic order"


class TestParseConfig:
    def test_minimal_document_gets_defaults(self):
        config = sa.parse_config("")
        assert config.model == "tfim"
        assert config.d == 1
        assert config.volumes == (1, 2)
        assert config.deltas == (0.15,)
        assert config.boundary == "all-up"
        assert config.h_ref is None
        assert config.seed == 12345
        assert config.max_qubits == sa.DEFAULT_QUBIT_CAP

    def test_comments_and_blank_lines_ignored(self):
        config = sa.parse_config("# a comment\n\nbeta = 1.5\n")
        assert config.beta == 1.5

    def test_volumes_out_of_order_diagnosed(self):
        with pytest.raises(ConfigError, match="volume"):
            sa.parse_config("volume = 3\nvolume = 2\n")

    @pytest.mark.parametrize("text, line", [
        ("volume = 2\nvolume = 2\n", 2),
        ("volume = 1\nvolume = 3\nvolume = 2\n", 3),
    ], ids=["equal", "smaller"])
    def test_volume_order_diagnosed_at_offending_line(self, text, line):
        [message] = diagnostics(text)
        assert message.startswith(f"line {line}: volume: volumes must be strictly increasing")

    def test_invalid_model_gets_one_diagnostic(self):
        assert diagnostics("model = foo\n") == ["line 1: model: must be 'tfim' or 'generic', got 'foo'"]

    def test_docs_key_table_lists_the_parsed_keys(self):
        assert set(documented_keys()) == set(_KEYS)

    def test_documented_defaults_are_the_dataclass_defaults(self):
        defaults = sa.ExperimentConfig()
        for key, raws in documented_keys().items():
            spec = _KEYS[key]
            values = tuple(spec.rule(raw) for raw in raws)
            if spec.repeated:
                documented = values
            else:
                documented = values[0] if values else None  # "-": no default
            assert documented == getattr(defaults, spec.attr), key

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            sa.parse_config("volumes = 3\n")

    def test_negative_beta_diagnosed_with_line(self):
        with pytest.raises(ConfigError, match=r"line 2: beta"):
            sa.parse_config("model = tfim\nbeta = -2.0\n")

    def test_nan_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            sa.parse_config("beta = nan\n")

    def test_repeated_scalar_rejected(self):
        with pytest.raises(ConfigError, match="repeated"):
            sa.parse_config("beta = 1\nbeta = 2\n")

    @pytest.mark.parametrize("text, messages", [
        ("delta = 0.3\ndelta = 0.15\ndelta = 0.3\n",
         ["line 3: delta: 0.3 repeats line 1's value as the CSVs print it (0.3)"]),
        ("rate = 0.1234567\nrate = 0.1234568\n",
         ["line 2: rate: 0.1234568 repeats line 1's value as the CSVs print it (0.123457)"]),
        ("t = 2\nt = 1\nt = 2.0\nt = 2e0\n",
         ["line 3: t: 2.0 repeats line 1's value as the CSVs print it (2)",
          "line 4: t: 2.0 repeats line 1's value as the CSVs print it (2)"]),
    ], ids=["delta", "rate", "t"])
    def test_list_values_that_print_alike_are_refused(self, text, messages):
        # a repeated delta would write each row of its window twice, and two
        # rates or times alike under {:g} two aep.csv columns of one name
        assert diagnostics(text) == messages

    def test_list_values_that_print_apart_are_kept(self):
        config = sa.parse_config("delta = 0.15\ndelta = 0.15000000000000002\nrate = 0.123456\nrate = 0.123457\n"
                                 "t = 0\nt = -0.0\n")
        assert config.deltas == (0.15, 0.15000000000000002)
        assert config.rates == (0.123456, 0.123457)
        assert config.ts == (0.0, -0.0)

    def test_zero_delta_rejected(self):
        with pytest.raises(ConfigError, match="delta"):
            sa.parse_config("delta = 0\n")

    def test_boundary_cell_parsed(self):
        config = sa.parse_config(
            "boundary = cell\nboundary_periods = 2\nboundary_cell = +1; -1\n"
        )
        assert config.boundary_periods == (2,)
        assert config.boundary_cell == (1, -1)

    def test_h_ref_fixed_value(self):
        config = sa.parse_config("h_ref = 0.5\n")
        assert config.h_ref == 0.5

    def test_generic_model_lambda_warning(self):
        config = sa.parse_config(
            "model = generic\n"
            "lambda = 0.2\n"
            "term.0.support = 0\n"
            "term.0.classical = -1, 1\n"
        )
        assert any("quantum" in w for w in config.warnings)

    def test_generic_needs_terms(self):
        with pytest.raises(ConfigError, match="term"):
            sa.parse_config("model = generic\n")

    def test_term_with_tfim_model_rejected(self):
        with pytest.raises(ConfigError, match="generic"):
            sa.parse_config("term.0.support = 0\nterm.0.classical = 0, 0\n")

    @pytest.mark.parametrize("text", shipped_configs())
    def test_shipped_config_builds_without_warnings(self, text):
        config = sa.parse_config(text)
        assert config.warnings == ()
        assert cli._model_warnings(sa.build_interaction(config), sa.build_boundary(config)) == []


class TestTermDiagnostics:
    """Every problem of a term block is found at parse time and reported on its
    field's line; TestGenericModel has the lone non-Hermitian quantum part."""

    @pytest.mark.parametrize("text, expected", [
        ("model = generic\nterm.0.support = 0; 1; 2; 3; 4; 5; 6\nterm.0.classical = 0, 0\n",
         ["line 2: term.0.support: support has 7 sites, beyond the cap of 6"]),
        ("model = generic\nterm.0.support = 1; 0\nterm.0.classical = 1, -1, -1, 1\n",
         [f"line 2: term.0.support: {SITE_ORDER}"]),
        ("model = generic\nd = 2\nterm.0.support = 0,1; 0,0\nterm.0.classical = 1, -1, -1, 1\n",
         [f"line 3: term.0.support: {SITE_ORDER}"]),
        ("model = generic\nterm.0.support = 0; 0\nterm.0.classical = 1, -1, -1, 1\n",
         [f"line 2: term.0.support: {SITE_ORDER}"]),
        (TWO_BAD_TERMS,
         [f"line 2: term.0.support: {SITE_ORDER}",
          "line 6: term.1.quantum: quantum_part is not Hermitian within tolerance"]),
    ], ids=["seven-sites", "reversed", "reversed-2d", "repeated-site", "two-bad-terms"])
    def test_reported_on_its_line(self, text, expected):
        assert diagnostics(text) == expected

    def test_sweep_exits_2_before_any_output(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TWO_BAD_TERMS + "volume = 1\n", encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["config error: invalid config:", *diagnostics(TWO_BAD_TERMS)]
        assert not (tmp_path / "out").exists()


class TestRefusedCombinations:
    """Keys valid alone but refused with what else the config says: exit 2, before any output."""

    @pytest.mark.parametrize("text, expected", [
        ("boundary_periods = 2\n", ["line 1: boundary_periods: only meaningful with boundary = cell"]),
        ("boundary_cell = 1; -1\n", ["line 1: boundary_cell: only meaningful with boundary = cell"]),
        ("boundary = all-down\nboundary_periods = 2\nboundary_cell = 1; -1\n",
         ["line 2: boundary_periods: only meaningful with boundary = cell",
          "line 3: boundary_cell: only meaningful with boundary = cell"]),
        ("d = 2\n", ["line 1: d: the tfim preset is one-dimensional"]),
    ], ids=["periods-without-cell", "cell-without-cell", "both-with-all-down", "tfim-in-2d"])
    def test_exits_2_with_its_diagnostic(self, tmp_path, capsys, text, expected):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text + "volume = 1\n", encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["config error: invalid config:", *expected]
        assert not (tmp_path / "out").exists()


GENERIC = "model = generic\n"
ONE_SITE_TERM = GENERIC + "term.0.support = 0\nterm.0.classical = 0, 0\n"


class TestDiagnosticTable:
    """The parser's value, syntax, term-key and boundary diagnostics, each as ``line N: key: message``."""

    @pytest.mark.parametrize("text, expected", [
        ("volume = x\n", "line 1: volume: expected an integer, got 'x'"),
        ("beta = abc\n", "line 1: beta: expected a number, got 'abc'"),
        ("beta =\n", "line 1: beta: expected a number, got ''"),
        ("boundary = cell\nboundary_periods = 2\nboundary_cell = +1; 0\n",
         "line 3: boundary_cell: values must be +1 or -1, got '0'"),
        ("model tfim\n", "line 1: syntax: expected 'key = value', got 'model tfim'"),
        (GENERIC + "term.a.support = 0\n",
         "line 2: term.a.support: term keys must look like term.<index>.<support|classical|quantum>"),
        (GENERIC + "term.0.foo = 0\n",
         "line 2: term.0.foo: term keys must look like term.<index>.<support|classical|quantum>"),
        (ONE_SITE_TERM + "term.0.support = 0\n", "line 4: term.0.support: repeated term field"),
        (GENERIC + "term.0.support = 0\n", "line 2: term.0: needs support and classical fields"),
        (GENERIC + "d = 2\nterm.0.support = 0\nterm.0.classical = 0, 0\n",
         "line 3: term.0.support: sites must have dimension 2"),
        (GENERIC + "term.0.support = 0\nterm.0.classical = 1, 2, 3\n",
         "line 3: term.0.classical: need 2 entries for 1 sites, got 3"),
        (ONE_SITE_TERM + "term.0.quantum = 0,1,1\n",
         "line 4: term.0.quantum: entries are row,col,re,im quadruples, got '0,1,1'"),
        (ONE_SITE_TERM + "term.0.quantum = 0,2,1,0\n",
         "line 4: term.0.quantum: entry (0, 2) outside the 2x2 matrix"),
        ("boundary = cell\n", "line 1: boundary: boundary = cell needs boundary_periods and boundary_cell"),
        ("boundary = cell\nboundary_periods = 2, 1\nboundary_cell = +1; -1\n",
         "line 2: boundary_periods: need 1 periods, got 2"),
        ("boundary = cell\nboundary_periods = 2\nboundary_cell = +1\n",
         "line 3: boundary_cell: need 2 values for the cell, got 1"),
        ("model = tfim\nc = -1\n", "line 2: c: must be >= 0, got -1.0"),
    ], ids=["volume-not-an-integer", "beta-not-a-number", "beta-empty", "cell-value-zero", "no-equals-sign",
            "term-index-not-an-integer", "term-field-unknown", "term-field-repeated",
            "term-without-classical", "site-dimension", "classical-count", "quantum-triple",
            "quantum-outside-the-matrix", "cell-without-periods", "period-count", "cell-value-count",
            "negative-norm-constant"])
    def test_reported_in_full(self, text, expected):
        assert diagnostics(text) == [expected]


class TestGenericModel:
    TEXT = (
        "model = generic\n"
        "lambda = 0.2\n"
        "term.0.support = 0; 1\n"
        "term.0.classical = -1, 1, 1, -1\n"
        "term.1.support = 0\n"
        "term.1.classical = -0.5, 0.5\n"
        "term.1.quantum = 0,1,-0.2,0; 1,0,-0.2,0\n"
    )

    def test_matches_tfim_preset(self):
        config = sa.parse_config(self.TEXT)
        generic = sa.build_interaction(config)
        preset = sa.preset_tfim(1.0, 0.5, 0.2)
        volume = sa.chain(4)
        boundary = sa.GroundStateConfig.uniform(1, +1)
        a = sa.assemble_hamiltonian(generic, volume, boundary)
        b = sa.assemble_hamiltonian(preset, volume, boundary)
        assert np.abs(a - b).max() <= 1e-14

    def test_non_hermitian_quantum_rejected(self):
        text = (
            "model = generic\n"
            "term.0.support = 0\n"
            "term.0.classical = 0, 0\n"
            "term.0.quantum = 0,1,1,0\n"
        )
        assert diagnostics(text) == ["line 4: term.0.quantum: quantum_part is not Hermitian within tolerance"]


FREE_CONFIG = """
model = tfim
J = 0
h_field = 0
lambda = 0
beta = 2.0
volume = 1
volume = 2
volume = 3
delta = 0.15
"""

ISING_CONFIG = """
model = tfim
J = 1.0
h_field = 0.5
lambda = 0
beta = 2.0
volume = 1
volume = 2
delta = 0.15
"""


class TestSweep:
    def test_free_model_rows(self, tmp_path):
        cfg = tmp_path / "free.cfg"
        cfg.write_text(FREE_CONFIG, encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
        for row in rows_of(tmp_path / "out" / "sweep.csv"):
            n_sites = int(row["n_sites"])
            assert float(row["S_bits"]) == pytest.approx(n_sites, abs=1e-9)
            assert float(row["h_bits"]) == pytest.approx(1.0, abs=1e-9)
            assert float(row["typical_mass"]) == pytest.approx(1.0, abs=1e-12)
            assert float(row["identity_residual"]) <= 1e-10

    def test_classical_ising_matches_enumeration(self, tmp_path):
        cfg = tmp_path / "ising.cfg"
        cfg.write_text(ISING_CONFIG, encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
        for row in rows_of(tmp_path / "out" / "sweep.csv"):
            n_sites = int(row["n_sites"])
            oracle = classical_chain_entropy_bits(n_sites, 1.0, 0.5, 2.0)
            assert float(row["S_bits"]) == pytest.approx(oracle, abs=1e-10)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(ISING_CONFIG + "seed = 7\n", encoding="utf-8")
        for out in ("a", "b"):
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / out), "--quiet"]) == 0
        for name in ("sweep.csv", "aep.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_huge_rate_counts_every_state(self, tmp_path):
        cfg = tmp_path / "rate.cfg"
        cfg.write_text(ISING_CONFIG + "rate = 1e300\n", encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
        for row in rows_of(tmp_path / "out" / "aep.csv"):
            assert float(row["best_rate_mass[R=1e+300]"]) == pytest.approx(1.0, abs=1e-12)

    def test_malformed_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("beta = -1\n", encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2

    def test_cap_exceeded_exits_3(self, tmp_path):
        cfg = tmp_path / "big.cfg"
        cfg.write_text("volume = 10\n", encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3

    def test_max_qubits_override_lowers_cap(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("volume = 2\n", encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--max-qubits", "3"]) == 3

    def test_negative_seed_override_exits_2(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(ISING_CONFIG, encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--seed", "-5"]) == 2

    @pytest.mark.parametrize("key, value", [("seed", "-5"), ("max_qubits", "0")])
    def test_flag_fails_like_config_key(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(ISING_CONFIG, encoding="utf-8")
        flag = "--" + key.replace("_", "-")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"), flag, value]) == 2
        [from_config] = diagnostics(f"{key} = {value}\n")
        assert capsys.readouterr().err == f"config error: {from_config.removeprefix('line 1: ')}\n"

    def test_cell_boundary_sweep_runs(self, tmp_path, capsys):
        cfg = tmp_path / "neel.cfg"
        cfg.write_text(
            ISING_CONFIG
            + "boundary = cell\nboundary_periods = 2\nboundary_cell = +1; -1\n",
            encoding="utf-8",
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err
        assert "not a classical ground state" in err

    def test_no_out_dir_exits_2(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FREE_CONFIG, encoding="utf-8")
        assert main(["sweep", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("given, message", [
        ("config", "line 11: out: must not be empty, got ''"),
        ("flag", "out: must not be empty, got ''"),
    ])
    def test_empty_out_exits_2_and_writes_nothing(self, given, message, tmp_path, monkeypatch, capsys):
        # an empty directory name would write into the working directory
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FREE_CONFIG + ("out =\n" if given == "config" else ""), encoding="utf-8")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        flag = ["--out", ""] if given == "flag" else []
        assert main(["spectrum", "--config", str(cfg), *flag, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.endswith(f"{message}\n")
        assert not any(work.iterdir())

    def test_out_in_config_used(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(ISING_CONFIG + f"out = {tmp_path / 'fromcfg'}\n", encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--quiet"]) == 0
        assert (tmp_path / "fromcfg" / "sweep.csv").exists()

    def test_seed_override_changes_nothing_deterministic(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(ISING_CONFIG, encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o1"),
                     "--seed", "42", "--quiet"]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o2"),
                     "--seed", "42", "--quiet"]) == 0
        assert (tmp_path / "o1" / "sweep.csv").read_bytes() == (tmp_path / "o2" / "sweep.csv").read_bytes()

    def test_progress_line_follows_each_solve(self, tmp_path, monkeypatch, capsys):
        solve, decompose = cli._run_volume, cli.make_decomposition

        def marked_solve(config, interaction, boundary, volume):
            print(f"solving n={volume.sites[-1][0]}")  # the hypercube [-n, n]^d
            return solve(config, interaction, boundary, volume)

        def marked_decompose(ensemble, *args, **kwargs):
            print(f"decomposing sites={ensemble.n_sites}")
            return decompose(ensemble, *args, **kwargs)

        monkeypatch.setattr(cli, "_run_volume", marked_solve)
        monkeypatch.setattr(cli, "make_decomposition", marked_decompose)
        config = sa.parse_config(GOLDEN_TFIM.read_text(encoding="utf-8"))
        cli.run_sweep(config, tmp_path)
        volumes = {row["n"]: row for row in rows_of(GOLDEN_TFIM.with_suffix("") / "sweep.csv")}
        expected = []
        for n, row in volumes.items():
            s_bits, h_bits = float(row["S_bits"]), float(row["h_bits"])
            expected += [
                f"solving n={n}",
                f"n={n} sites={row['n_sites']} S={s_bits:.6f} bits h={h_bits:.6f} bits/site",
            ]
        expected += [f"decomposing sites={row['n_sites']}" for row in volumes.values()]
        expected.append(f"wrote {tmp_path / 'sweep.csv'} and {tmp_path / 'aep.csv'}")
        assert capsys.readouterr().out.splitlines() == expected

    def test_cap_in_a_later_volume_exits_before_any_codec_work(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "make_decomposition", lambda *args, **kwargs: calls.append(args))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(ISING_CONFIG, encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--max-qubits", "3", "--quiet"]) == 3
        assert calls == []
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_every_volume_is_solved_before_numpy_random_loads(self, tmp_path):
        """The first decomposition imports numpy.random, which stays resident:
        the sweep solves all its volumes first, so its peak is its largest solve."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        probe = (
            "import sys\n"
            "from spinaep import cli\n"
            "loaded, solve = [], cli.gibbs_ensemble\n"
            "def probed(*args, **kwargs):\n"
            "    loaded.append('numpy.random' in sys.modules)\n"
            "    return solve(*args, **kwargs)\n"
            "cli.gibbs_ensemble = probed\n"
            "assert cli.main(['sweep', '--config', sys.argv[1], '--out', sys.argv[2], '--quiet']) == 0\n"
            "print(loaded)\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe, str(GOLDEN_TFIM), str(tmp_path)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[False, False, False]"


class TestVolumeColumns:
    """The best-rate and LLN columns belong to a volume, the other aep.csv
    columns to one of its windows."""

    def test_computed_once_per_volume(self, tmp_path, monkeypatch):
        calls = {"best_rate_mass": 0, "lln_residual": 0, "thermo_densities": 0}
        for name in calls:
            def counted(*args, name=name, original=getattr(sa, name)):
                calls[name] += 1
                return original(*args)

            for module in (typicality, cli):
                monkeypatch.setattr(module, name, counted, raising=False)
        assert main(["sweep", "--config", str(GOLDEN_TFIM), "--out", str(tmp_path), "--quiet"]) == 0
        # 3 volumes x 2 rates and 3 volumes x 2 times, whatever the 2 deltas;
        # the densities once per volume
        assert calls == {"best_rate_mass": 6, "lln_residual": 6, "thermo_densities": 3}

    def test_rows_of_descending_and_repeated_deltas(self, tmp_path, capsys):
        text = GOLDEN_TFIM.read_text(encoding="utf-8")
        text = "".join(line for line in text.splitlines(True) if not line.startswith("delta"))
        cfg = tmp_path / "exp.cfg"
        # a repeated delta, which would write each row of its window twice, is refused before any output
        cfg.write_text(text + "delta = 0.3\ndelta = 0.15\ndelta = 0.3\n", encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        line = len(text.splitlines()) + 3
        assert capsys.readouterr().err == (
            f"config error: invalid config:\nline {line}: delta: 0.3 repeats line {line - 2}'s value "
            "as the CSVs print it (0.3)\n"
        )
        assert not (tmp_path / "out").exists()
        cfg.write_text(text + "delta = 0.3\ndelta = 0.15\n", encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
        deltas, volumes = (0.3, 0.15), (1, 2, 3)
        sweep = rows_of(tmp_path / "sweep.csv")
        aep = rows_of(tmp_path / "aep.csv")
        # sweep.csv in config order, 2 rates x 2 times per window; aep.csv by delta, then n
        assert [(int(r["n"]), float(r["delta"])) for r in sweep] == [
            (n, d) for n in volumes for d in deltas for _ in range(4)
        ]
        assert [(float(r["delta"]), int(r["n"])) for r in aep] == sorted(
            (d, n) for n in volumes for d in deltas
        )
        volume_cells = [k for k in aep[0] if k.startswith(("best_rate_mass[", "lln_residual["))]
        assert len(volume_cells) == 4
        for n in volumes:
            cells = {tuple(r[k] for k in volume_cells) for r in aep if int(r["n"]) == n}
            assert len(cells) == 1
            [(mass_a, mass_b, residual_a, residual_b)] = cells
            assert {
                (r["best_rate_R"], r["best_rate_mass"], r["lln_t"], r["lln_residual"])
                for r in sweep if int(r["n"]) == n
            } == {
                (rate, mass, t, residual)
                for rate, mass in (("0.25", mass_a), ("0.5", mass_b))
                for t, residual in (("1", residual_a), ("2", residual_b))
            }


class TestGenericSweep:
    def test_generic_model_sweep_matches_preset_sweep(self, tmp_path):
        preset_cfg = tmp_path / "preset.cfg"
        preset_cfg.write_text(
            "model = tfim\nJ = 1.0\nh_field = 0.5\nlambda = 0.2\nbeta = 2.0\n"
            "volume = 1\nvolume = 2\nseed = 11\n",
            encoding="utf-8",
        )
        generic_cfg = tmp_path / "generic.cfg"
        generic_cfg.write_text(
            "model = generic\nlambda = 0.2\nbeta = 2.0\n"
            "volume = 1\nvolume = 2\nseed = 11\n"
            "term.0.support = 0; 1\n"
            "term.0.classical = -1, 1, 1, -1\n"
            "term.1.support = 0\n"
            "term.1.classical = -0.5, 0.5\n"
            "term.1.quantum = 0,1,-0.2,0; 1,0,-0.2,0\n",
            encoding="utf-8",
        )
        for name, cfg in (("p", preset_cfg), ("g", generic_cfg)):
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / name), "--quiet"]) == 0
        assert (tmp_path / "p" / "sweep.csv").read_bytes() == (tmp_path / "g" / "sweep.csv").read_bytes()


COMMANDS = ("sweep", "spectrum", "codec-demo")
# each config draws one warning: from the config, then two from the model
WARNED_CONFIGS = {
    "lambda is set but no generic term carries a quantum part": (
        "model = generic\nlambda = 0.2\nbeta = 2.0\nterm.0.support = 0\n"
        "term.0.classical = -1, 1\nvolume = 1\nvolume = 2\ndelta = 0.15\n"
    ),
    "boundary configuration is not a classical ground state of the model":
        ISING_CONFIG.replace("J = 1.0", "J = -1.0"),
    # a d = 2 bond whose 5 x 5 bounding box is beyond the span search: the run goes on, quiet or not
    "smallness bound not verified (search bound exceeded)": (
        "model = generic\nd = 2\nbeta = 2.0\nterm.0.support = 0,0; 4,4\n"
        "term.0.classical = -1, 1, 1, -1\nvolume = 0\nvolume = 1\ndelta = 0.15\n"
    ),
}


class TestSetUp:
    """Every command runs the model checks and prints the config and model
    warnings unless --quiet, and checks every volume against the qubit cap
    before it solves one."""

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("warning", list(WARNED_CONFIGS))
    def test_warnings_printed(self, tmp_path, capsys, command, warning):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(WARNED_CONFIGS[warning], encoding="utf-8")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == f"warning: {warning}\n"

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("warning", list(WARNED_CONFIGS))
    def test_quiet_prints_nothing_but_runs_the_model_checks(self, tmp_path, capsys, monkeypatch,
                                                            command, warning):
        calls = []
        for name in ("check_perturbation_bound", "find_periodic_ground_states"):
            check = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *args, check=check: calls.append(check.__name__) or check(*args))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(WARNED_CONFIGS[warning], encoding="utf-8")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        assert calls == ["check_perturbation_bound", "find_periodic_ground_states"]

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("bench", ["dm", "tfim"])
    def test_bench_configs_run_no_svd(self, tmp_path, monkeypatch, command, bench):
        # the smallness check's SVD kept a second LAPACK routine resident, about 1 MiB of every peak
        def refuse(*args, **kwargs):
            raise AssertionError("an SVD ran")

        for module in (np.linalg, np.linalg._linalg):  # norm(q, 2) calls the latter's
            monkeypatch.setattr(module, "svd", refuse)
        cfg = tmp_path / "exp.cfg"
        text = (REPO / "perfbench" / "configs" / f"{bench}.cfg").read_text(encoding="utf-8")
        cfg.write_text(text + "volume = 1\nvolume = 2\nvolume = 3\n", encoding="utf-8")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0

    @pytest.mark.parametrize("command", COMMANDS)
    def test_cap_in_the_last_volume_exits_3_before_any_solve(self, tmp_path, capsys, monkeypatch, command):
        calls = []
        monkeypatch.setattr(cli, "gibbs_ensemble", lambda *args, **kwargs: calls.append(args))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(ISING_CONFIG + "volume = 6\n", encoding="utf-8")  # 3, 5 and 13 sites
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 3
        assert capsys.readouterr().err.startswith("size limit: box (-6,)..(6,) has 13 sites")
        assert calls == []
        assert not (tmp_path / "out").exists()


class TestOtherSubcommands:
    def test_spectrum_dump(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(ISING_CONFIG, encoding="utf-8")
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "s"), "--quiet"]) == 0
        rows = rows_of(tmp_path / "s" / "spectrum_n1.csv")
        assert len(rows) == 8
        energies = [float(r["energy"]) for r in rows]
        assert energies == sorted(energies)
        log2k = np.array([float(r["log2_kappa"]) for r in rows])
        assert np.exp2(log2k).sum() == pytest.approx(1.0, abs=1e-12)

    def test_codec_demo(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(ISING_CONFIG, encoding="utf-8")
        assert main(["codec-demo", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "fidelity=" in out
        lines = (tmp_path / "c" / "codebook_n2.txt").read_text().splitlines()
        assert lines  # codeword then eigenstate index
        word, index = lines[0].split()
        assert set(word) <= {"0", "1"}
        assert index.isdigit()

    def test_codec_demo_prints_the_sweep_row_of_its_volume(self, tmp_path, capsys, monkeypatch):
        """codec-demo's window, codeword length and fidelity are those of the
        sweep.csv rows of the last volume and the first delta, from the same
        seeded decomposition."""
        made = []
        decompose = cli.make_decomposition

        def recorded(*args, **kwargs):
            made.append(decompose(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(cli, "make_decomposition", recorded)
        golden = GOLDEN_TFIM.with_name("dm.cfg")
        for command in ("sweep", "codec-demo"):
            assert main([command, "--config", str(golden), "--out", str(tmp_path / command), "--seed", "7"]) == 0
        config = sa.parse_config(golden.read_text(encoding="utf-8"))
        # one decomposition per volume in the sweep, then codec-demo's of the last volume
        assert len(made) == len(config.volumes) + 1
        assert np.array_equal(made[-1].weights, made[-2].weights)
        printed = dict(item.split("=") for item in capsys.readouterr().out.splitlines()[-2].split())
        assert (int(printed["n"]), float(printed["delta"])) == (config.volumes[-1], config.deltas[0])
        [(typical_dim, codeword_len, fid)] = {
            (r["typical_dim"], r["codeword_len"], r["fidelity"]) for r in rows_of(tmp_path / "sweep" / "sweep.csv")
            if int(r["n"]) == config.volumes[-1] and float(r["delta"]) == config.deltas[0]
        }
        assert int(typical_dim) > 1
        assert (printed["typical_dim"], printed["codeword_len"]) == (typical_dim, codeword_len)
        assert printed["fidelity"] == f"{float(fid):.12f}"

    def test_cli_import_loads_no_scipy(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        probe = "import sys, spinaep.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_check_suite_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        names = [
            "matrix-exponential eigenvalues", "classical enumeration entropy",
            "energy as log-partition derivative", "entropy-rate identity",
            *(f"{check}, {route}"
              for check in ("values-only energies", "in-place solve")
              for route in ("parity blocks", "real form", "full solve")),
            "typical window filter", "codec round trip and fidelity",
        ]
        assert [line.split(": ")[0] for line in out.splitlines()] == [f"ok   {name}" for name in names]

    @pytest.mark.parametrize("command, output", [
        ("sweep", "sweep.csv"), ("spectrum", "spectrum_n1.csv"), ("codec-demo", "codebook_n2.txt"),
    ])
    @pytest.mark.parametrize("case", ["out is a file", "out is under a file", "output is a directory"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command, output, case):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(ISING_CONFIG, encoding="utf-8")
        out = tmp_path / "out"
        if case == "output is a directory":
            (out / output).mkdir(parents=True)
        else:
            out.write_text("", encoding="utf-8")
            if case == "out is under a file":
                out = out / "sub"
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("output error: ")

    def test_codec_demo_empty_window_exits_4(self, tmp_path, capsys):
        # at beta=0.5 the five-site window at delta=0.15 holds no states
        cfg = tmp_path / "warm.cfg"
        cfg.write_text(
            "model = tfim\nbeta = 0.5\nvolume = 1\nvolume = 2\ndelta = 0.15\n",
            encoding="utf-8",
        )
        assert main(["codec-demo", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "numeric failure: empty typical subspace in codec-demo at n=2, delta=0.15"
        ]


class TestConfigEncoding:
    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"# caf\xe9\nmodel = tfim\nvolume = 1\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: cannot read config {str(cfg)!r}: ")
        assert not (tmp_path / "out").exists()

    def test_byte_order_mark_is_skipped(self, tmp_path):
        bom = tmp_path / "tfim.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + GOLDEN_TFIM.read_bytes())
        for command in ("sweep", "spectrum", "codec-demo"):
            for cfg, out in ((GOLDEN_TFIM, "plain"), (bom, "bom")):
                assert main([command, "--config", str(cfg), "--out", str(tmp_path / out), "--quiet"]) == 0
        produced = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert produced == sorted(p.name for p in (tmp_path / "bom").iterdir())
        for name in produced:
            assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes(), name


class TestAllocationFailure:
    """An allocation refused for lack of memory is a size limit, exit 3; no large buffer is asked for."""

    def test_refused_mapping_exits_3(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

        monkeypatch.setattr(mmap, "mmap", refuse)
        assert main(["spectrum", "--config", str(GOLDEN_TFIM), "--out", str(tmp_path), "--quiet"]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("size limit: cannot map ")

    def test_numpy_memory_error_exits_3(self, tmp_path, capsys, monkeypatch):
        message = "Unable to allocate 8.00 GiB for an array with shape (32768, 32768) and data type float64"

        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "diagonalize", refuse)
        assert main(["spectrum", "--config", str(GOLDEN_TFIM), "--out", str(tmp_path), "--quiet"]) == 3
        assert capsys.readouterr().err.splitlines() == [f"size limit: {message}"]


CELL_17 = "; ".join(["+1"] * 17)
OUTPUTS = {"sweep": ["aep.csv", "sweep.csv"], "spectrum": ["spectrum_n1.csv", "spectrum_n2.csv"],
           "codec-demo": ["codebook_n2.txt"]}


class TestModelWarningsThatRun:
    """The perturbation and unverified ground-state warnings: printed, and the run goes on."""

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("text, warning", [
        ("model = tfim\nlambda = 0.5\nc = 0.1\n",
         "term 1: quantum norm 0.5 exceeds the smallness bound 0.05"),
        # a period cell of 17 sites, beyond the ground-state search's MAX_CELL_SITES
        (f"model = tfim\nboundary = cell\nboundary_periods = 17\nboundary_cell = {CELL_17}\n",
         "boundary ground-state membership not verified (search bound exceeded)"),
    ], ids=["perturbation-bound", "unverified-ground-state"])
    def test_warned_and_written(self, tmp_path, capsys, command, text, warning):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text + "volume = 1\nvolume = 2\ndelta = 0.15\n", encoding="utf-8")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == f"warning: {warning}\n"
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == OUTPUTS[command]


    def test_long_axis_of_a_small_cell_is_searched(self, tmp_path, capsys):
        """A (5, 1) cell: the 5 x 5 cell of the longest period is past
        MAX_CELL_SITES, so each axis is scanned up to its own period, and
        the 5 x 2 cell fits."""
        text = GOLDEN_TFIM.with_name("generic2d.cfg").read_text(encoding="utf-8")
        text = text.replace("boundary_periods = 2, 1\nboundary_cell = +1; -1\n",
                            "boundary_periods = 5, 1\nboundary_cell = +1; -1; +1; -1; +1\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text, encoding="utf-8")
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == "warning: boundary configuration is not a classical ground state of the model\n"

    def test_long_chain_bond_is_held_to_its_bound(self, tmp_path, capsys):
        """In d = 1 the connected span is the interval, so a bond of diameter
        17, past the box search, is held to c lambda**18 and not left unverified."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("model = generic\nterm.0.support = 0; 17\nterm.0.classical = -1, 1, 1, -1\n"
                       "term.0.quantum = 0,3,0.5,0; 3,0,0.5,0\nvolume = 1\n", encoding="utf-8")
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == "warning: term 0: quantum norm 0.5 exceeds the smallness bound 2.621e-13\n"


def test_module_entry_point_runs_the_quiet_check():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(REPO / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "spinaep", "check", "--quiet"], env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
