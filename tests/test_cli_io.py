"""File-format and command-line behavior tests."""

import configparser
import inspect
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from gradflux import (DecayCurve, SpectroscopyDataset, balanced_branch_circuit,
                      flux_sweep, reduce_circuit, simulate_telegraph)
from gradflux import cli, spectrum
from gradflux import io as gfio
from gradflux.cli import (ConfigError, build_meta, effective_from_config,
                          load_config, main)
from gradflux.fluxon import TimeTrace
from gradflux.spectrum import (DispersiveShiftResult, FockBasisSpec,
                               LabelError, SweepPoint, SweepResult)


@pytest.fixture
def dataset():
    return SpectroscopyDataset(
        x=np.array([0.1, 0.3, 0.5, 0.7]),
        transition=("f01", "f02", "f01", "f02"),
        freq_ghz=np.array([9.0, 14.0, 3.9, 13.1]),
        sigma_ghz=np.array([1e-3, 1e-3, 2e-3, 1e-3]))


class TestFileFormats:
    def test_dataset_roundtrip(self, tmp_path, dataset):
        path = tmp_path / "spec.csv"
        gfio.write_spectroscopy_csv(path, dataset, meta={"k": 1})
        loaded = gfio.read_spectroscopy_csv(path)
        assert np.array_equal(loaded.x, dataset.x)
        assert loaded.transition == dataset.transition
        assert np.array_equal(loaded.freq_ghz, dataset.freq_ghz)
        assert np.array_equal(loaded.sigma_ghz, dataset.sigma_ghz)
        assert loaded.unit == "phi0"
        assert not loaded.sigma_defaulted

    def test_missing_sigma_defaults_to_1mhz(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("field_or_flux,unit,transition,freq_GHz,sigma_GHz\n"
                        "0.5,phi0,f01,3.9,\n0.3,phi0,f01,5.0,\n")
        loaded = gfio.read_spectroscopy_csv(path)
        assert loaded.sigma_defaulted
        assert np.all(loaded.sigma_ghz == 1e-3)

    def test_mixed_units_rejected(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("field_or_flux,unit,transition,freq_GHz,sigma_GHz\n"
                        "0.5,phi0,f01,3.9,0.001\n1e-7,tesla,f01,5.0,0.001\n")
        with pytest.raises(ValueError, match="mixed units"):
            gfio.read_spectroscopy_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("flux,freq\n0.5,3.9\n")
        with pytest.raises(ValueError, match="expected header"):
            gfio.read_spectroscopy_csv(path)

    def test_sigma_cell_may_be_left_out(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("field_or_flux,unit,transition,freq_GHz,sigma_GHz\n"
                        "0.5,phi0,f01,3.9\n0.3,phi0,f01,5.0,0.002\n")
        loaded = gfio.read_spectroscopy_csv(path)
        assert loaded.sigma_defaulted
        assert list(loaded.sigma_ghz) == [1e-3, 2e-3]

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("field_or_flux,unit,transition,freq_GHz,sigma_GHz\n")
        with pytest.raises(ValueError, match="no data rows"):
            gfio.read_spectroscopy_csv(path)

    def test_trace_roundtrip_with_sidecar(self, tmp_path):
        trace = simulate_telegraph(0.01, 0.01, 200.0, 1.0, noise_sigma=0.2,
                                   seed=4, label="device-A")
        path = tmp_path / "trace.csv"
        gfio.write_trace_csv(path, trace, meta={"seed": 4})
        loaded = gfio.read_trace_csv(path)
        assert np.array_equal(loaded.t_s, trace.t_s)
        assert np.array_equal(loaded.value, trace.value)
        sidecar = gfio.read_json(gfio.companion(path))
        assert gfio.companion(path) == tmp_path / "trace.json"
        assert sidecar["meta"] == {"seed": 4}
        assert sidecar["noise_sigma"] == trace.noise_sigma
        assert sidecar["label"] == "device-A"

    def test_decay_csv_roundtrip(self, tmp_path):
        curve = DecayCurve(t=np.linspace(0, 10, 12),
                           value=np.exp(-np.linspace(0, 10, 12) / 3),
                           kind="exponential")
        path = tmp_path / "decay.csv"
        gfio.write_decay_csv(path, curve)
        loaded = gfio.read_decay_csv(path, "exponential")
        assert np.array_equal(loaded.t, curve.t)
        assert np.array_equal(loaded.value, curve.value)

    def test_sweep_files_carry_metadata(self, tmp_path):
        eff = reduce_circuit(balanced_branch_circuit(172.0, 2.8, 21.6, 20.2,
                                                     3.4, 5.1))
        sweep = flux_sweep(eff, [0.5], FockBasisSpec(12, 6))
        meta = {"tool": "gradflux", "version": "x"}
        csv_path = tmp_path / "sweep.csv"
        gfio.write_sweep_csv(csv_path, sweep, meta=meta)
        text = csv_path.read_text()
        assert text.startswith("# meta: ")
        assert "flux_phi0,transition,freq_GHz,chi_MHz,chi_valid" in text
        # the JSON mirror is written beside the CSV file
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "sweep.csv", "sweep.json"]
        payload = gfio.read_json(tmp_path / "sweep.json")
        assert payload["meta"]["tool"] == "gradflux"
        assert payload["points"][0]["transition"] == "f01"
        assert payload["transitions"] == ["f01"]

    def test_numpy_non_finite_written_as_strings(self, tmp_path):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        path = tmp_path / "payload.json"
        gfio.write_json(path, {"a": np.float64("inf"), "b": np.float32("nan"),
                               "c": [np.float64("-inf"), float("inf")],
                               "d": np.float64(1.5)})
        payload = json.loads(path.read_text(), parse_constant=reject)
        assert payload == {"a": "inf", "b": "nan", "c": ["-inf", "inf"],
                           "d": 1.5}

    def test_numpy_scalars_written_as_python(self, tmp_path):
        path = tmp_path / "payload.json"
        gfio.write_json(path, {"ok": np.True_, "no": [np.False_],
                               "n": np.int8(3), "s": np.str_("f01")})
        assert gfio.read_json(path) == {"ok": True, "no": [False], "n": 3,
                                        "s": "f01"}

    def test_one_companion_rule(self):
        # every CSV output's JSON file is named by io.companion alone
        rule = re.compile(r"""with_suffix\(\s*["']\.json["']\s*\)""")
        package = Path(gfio.__file__).parent
        hits = {p.name: len(rule.findall(p.read_text()))
                for p in package.glob("*.py")}
        assert {name: n for name, n in hits.items() if n} == {"io.py": 1}
        assert rule.search(inspect.getsource(gfio.companion))



# the writers' float cells: shortest repr, signed zero, subnormal, exponent
PINNED_FLOATS = [-0.0, 5e-324, 0.1, 1e16]


class TestPinnedFormats:
    """The exact bytes each CSV writer produces, and the inputs
    read_columns accepts, independent of how either is implemented."""

    def test_trace_csv_text(self, tmp_path):
        path = tmp_path / "trace.csv"
        gfio.write_trace_csv(path, TimeTrace(
            t_s=PINNED_FLOATS, value=PINNED_FLOATS[::-1]))
        assert path.read_bytes() == (b"t_s,value\r\n-0.0,1e+16\r\n"
                                     b"5e-324,0.1\r\n0.1,5e-324\r\n"
                                     b"1e+16,-0.0\r\n")

    def test_decay_csv_text(self, tmp_path):
        path = tmp_path / "decay.csv"
        gfio.write_decay_csv(path, DecayCurve(
            t=PINNED_FLOATS + [2e16], value=[0.5] + PINNED_FLOATS[::-1]),
            meta={"k": 1})
        assert path.read_bytes() == (b'# meta: {"k": 1}\nt_us,inversion\r\n'
                                     b"-0.0,0.5\r\n5e-324,1e+16\r\n"
                                     b"0.1,0.1\r\n1e+16,5e-324\r\n"
                                     b"2e+16,-0.0\r\n")

    def test_spectroscopy_csv_text(self, tmp_path):
        path = tmp_path / "spec.csv"
        gfio.write_spectroscopy_csv(path, SpectroscopyDataset(
            x=PINNED_FLOATS[:2], transition=("f01", "f02"),
            freq_ghz=PINNED_FLOATS[2:], sigma_ghz=[0.1, 1e-3]))
        assert path.read_bytes() == (
            b"field_or_flux,unit,transition,freq_GHz,sigma_GHz\r\n"
            b"-0.0,phi0,f01,0.1,0.1\r\n5e-324,phi0,f02,1e+16,0.001\r\n")

    def test_sweep_csv_text(self, tmp_path):
        path = tmp_path / "sweep.csv"
        pair = "(0, 0)->(1, 1)"
        points = [SweepPoint(0.1, "f01", 1e16, None, False),
                  SweepPoint(-0.0, pair, 5e-324, -7.5, np.True_),
                  SweepPoint(5e-324, "fr", 0.1, -0.0, True)]
        gfio.write_sweep_csv(path, SweepResult(
            points=points, errors=[], transitions=("f01", pair, "fr"),
            basis=FockBasisSpec(12, 6), min_confidence=0.7))
        assert path.read_bytes() == (
            b"flux_phi0,transition,freq_GHz,chi_MHz,chi_valid\r\n"
            b"0.1,f01,1e+16,,false\r\n"
            b'-0.0,"(0, 0)->(1, 1)",5e-324,-7.5,true\r\n'
            b"5e-324,fr,0.1,-0.0,true\r\n")

    @pytest.mark.parametrize("flux, shift, code, text", [
        ("0.5", DispersiveShiftResult(-7.5, True, 0.1), 0,
         b'{\n  "chi_MHz": -7.5,\n  "flux_phi0": 0.5,\n'
         b'  "meta": {\n    "k": 1\n  },\n  "min_overlap": 0.1,\n'
         b'  "valid": true\n}\n'),
        ("0.27", DispersiveShiftResult(None, False, 5e-324), 1,
         b'{\n  "chi_MHz": null,\n  "flux_phi0": 0.27,\n'
         b'  "meta": {\n    "k": 1\n  },\n  "min_overlap": 5e-324,\n'
         b'  "valid": false\n}\n')], ids=["valid", "invalid"])
    def test_chi_json_text(self, tmp_path, monkeypatch, flux, shift, code,
                           text):
        monkeypatch.setattr(cli, "build_meta", lambda *args: {"k": 1})
        monkeypatch.setattr(cli, "dispersive_shift", lambda *args, **kw: shift)
        path = tmp_path / "chi.json"
        assert main(["chi", "--flux", flux, "--out", str(path)]) == code
        assert path.read_bytes() == text

    @pytest.mark.parametrize("body", [
        "0.0,0.1\n# between rows\n1.0,-0.0\n#\n2.0,5e-324\n",
        "\n0.0,0.1\n\n1.0,-0.0\n   \n2.0,5e-324\n\n",
        "0.0,0.1\r\n1.0,-0.0\r\n2.0,5e-324\r\n",
        " 0.0 ,0.1\n1.0,\t-0.0 \n  2.0  ,  5e-324\n",
        '"0.0",0.1\n1.0,"-0.0"\n"2.0","5e-324"\n',
        "0.0,0.1,x\n1.0,-0.0,\n2.0,5e-324,3,four\n",
        "0.0,0.1\n,\n1.0,-0.0\n , \n2.0,5e-324\n",
    ], ids=["comment-lines", "blank-lines", "crlf", "spaces", "quoted",
            "extra-cells", "empty-cells"])
    def test_read_columns_accepts(self, tmp_path, body):
        path = tmp_path / "trace.csv"
        path.write_bytes(("# meta: {}\nt_s,value\n" + body).encode())
        t, v = gfio.read_columns(path, gfio.TRACE_COLUMNS)
        assert t.tolist() == [0.0, 1.0, 2.0]
        assert [x.hex() for x in v.tolist()] == [
            x.hex() for x in (0.1, -0.0, 5e-324)]
        assert t.flags.c_contiguous and v.flags.c_contiguous

    @pytest.mark.parametrize("bad", ["3.0,abc", "3.0", "3.0,", "3.0,inf"])
    def test_read_columns_names_file_line(self, tmp_path, bad):
        path = tmp_path / "trace.csv"
        path.write_text("# meta: {}\n\nt_s,value\n0.0,0.1\n# note\n,\n"
                        f"1.0,0.2\n\n{bad}\n4.0,0.5\n")
        with pytest.raises(ValueError, match=r"trace\.csv, line 9: "):
            gfio.read_columns(path, gfio.TRACE_COLUMNS)

    @pytest.mark.parametrize("text, message", [
        ("", "empty CSV"), ("# meta: {}\n\n", "empty CSV"),
        ("t_s,val\n0.0,0.1\n", "expected header t_s,value, got t_s,val"),
        ("# meta: {}\nt_s,value\n\n# none\n", "no data rows")],
        ids=["empty", "comments-only", "wrong-header", "no-rows"])
    def test_read_columns_rejects(self, tmp_path, text, message):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            gfio.read_columns(path, gfio.TRACE_COLUMNS)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(lang):
    """The first ``lang`` code block of the README's "Command line"."""
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    return text.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


class TestConfig:
    def test_readme_cli_reference(self):
        ini = configparser.ConfigParser(inline_comment_prefixes=(";",))
        ini.read_string(_readme_block("ini"))
        assert {s: set(ini[s]) for s in ini.sections()} == {
            s: set(keys) for s, keys in cli.DEFAULT_CONFIG.items()}
        for section, keys in cli.DEFAULT_CONFIG.items():
            for key, default in keys.items():
                value = ini[section][key]
                if isinstance(default, str):
                    assert value == default, (section, key)
                else:
                    assert float(value) == pytest.approx(default, rel=1e-3), (
                        section, key)
        commands = _readme_block("sh").replace("\\\n", " ").splitlines()
        assert len(commands) == 10
        parser = cli.build_parser()
        for line in commands:
            words = shlex.split(line)
            assert words[0] == "gradflux"
            parser.parse_args(words[1:])

    def test_defaults_complete(self):
        config = load_config(None)
        assert config["circuit"]["lq_eff"] == 172.0
        assert config["basis"]["m_qubit"] == 25

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[circuit]\nfoo = 3\n")
        with pytest.raises(ConfigError, match="foo"):
            load_config(path)

    def test_unknown_section_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(ConfigError, match="nonsense"):
            load_config(path)

    def test_bad_value_type(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[circuit]\nlq_eff = abc\n")
        with pytest.raises(ConfigError, match="lq_eff"):
            load_config(path)

    def test_non_finite_value_named_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nan.ini"
        path.write_text("[circuit]\nlq_eff = nan\n")
        assert main(["chi", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: lq_eff must be finite and > 0, got nan\n")

    def test_branch_circuit_path(self, tmp_path):
        path = tmp_path / "branch.ini"
        path.write_text("[circuit]\nl1 = 344\nl3 = 344\nl2 = 0\n")
        config = load_config(path)
        eff = effective_from_config(config["circuit"])
        assert eff.lq == pytest.approx(172.0, rel=0.01)

    def test_l2_alone_asks_for_the_branch_circuit(self, tmp_path, capsys):
        path = tmp_path / "l2.ini"
        path.write_text("[circuit]\nl2 = 50.0\n")
        with pytest.raises(ConfigError, match="needs both l1 and l3"):
            effective_from_config(load_config(path)["circuit"])
        assert main(["chi", "--flux", "0.5", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: branch circuit needs both l1 and l3\n")

    def test_effective_reconstruction_default(self):
        eff = effective_from_config(load_config(None)["circuit"])
        assert eff.lq == pytest.approx(172.0, rel=1e-12)
        assert eff.alpha == pytest.approx(0.0, abs=1e-15)


INPUTS_INI = ("[basis]\nm_qubit = 20\nn_res = 8\n"
              "[trace]\nthreshold_mads = 5.5\n[fit]\nbasis_m = 20\n")

# command, its arguments, the config keys its flags set, output file name,
# the top-level keys of each JSON file it writes
COMMAND_RUNS = [
    ("sweep", ["--start", "0.4", "--stop", "0.6", "--points", "3",
               "--transitions", "f01,fr"],
     {"sweep.start": 0.4, "sweep.stop": 0.6, "sweep.points": 3,
      "sweep.transitions": "f01,fr"}, "out.csv",
     "meta points errors transitions basis min_confidence"),
    ("chi", ["--flux", "0.5"], {}, "out.json",
     "meta flux_phi0 chi_MHz valid min_overlap"),
    ("fit", ["--data", "{spec}", "--starts", "1", "--seed", "3",
             "--basis-m", "24", "--forward", "single-loop"],
     {"fit.n_starts": 1, "fit.seed": 3, "fit.basis_m": 24,
      "fit.forward": "single-loop"}, "out.json",
     "meta params stderr sensitivity rms_residual_GHz chi2 residuals_GHz "
     "status forward n_starts best_start seed nfev objective_history "
     "start_objectives sigma_defaulted bounds"),
    ("phaseslip", ["--wire-length-m", "2e-4", "--grain-size-m", "5e-9",
                   "--ej-ghz", "50000"],
     {"geometry.wire_length_m": 2e-4, "geometry.grain_size_m": 5e-9},
     "out.json",
     "meta n_junctions ej_grain_GHz ec_grain_GHz rate_Hz log10_rate_Hz "
     "warning current_activated_above_phi0"),
    ("junctions", ["--wire-length-m", "1e-6", "--grain-size-m", "4e-9"],
     {"geometry.wire_length_m": 1e-6, "geometry.grain_size_m": 4e-9},
     "out.json", "meta wire_length_m grain_size_m n_junctions"),
    ("simulate-trace", ["--rate-eo", "0.002", "--rate-oe", "0.003",
                        "--duration", "2000", "--dt", "0.5",
                        "--noise", "0.2", "--seed", "5"],
     {"trace.rate_eo_hz": 0.002, "trace.rate_oe_hz": 0.003,
      "trace.duration_s": 2000.0, "trace.dt_s": 0.5,
      "trace.noise_sigma": 0.2, "trace.seed": 5}, "out.csv",
     "meta units noise_sigma label"),
    ("analyze-trace", ["--trace", "{trace_a}", "--threshold", "5.0",
                       "--window", "11"],
     {"trace.threshold_mads": 5.0, "trace.window": 11}, "out.json",
     "meta lambda_hz ci_low_hz ci_high_hz n_events total_time_s "
     "censored_time_s dwell_times_s censored confidence lifetime_s "
     "lifetime_lower_bound_s events"),
    ("coincidence", ["--traces", "{trace_a}", "{trace_b}",
                     "--window", "5.0"], {}, "out.json",
     "meta window_s span_s traces pairs"),
    ("decay-fit", ["--data", "{decay}", "--kind", "exponential"], {},
     "out.json", "meta kind tau_us tau_stderr_us params stderr"),
    ("parabola-fit", ["--data", "{parabola}"], {}, "out.json",
     "meta f_max_GHz b_offset_uT curvature_GHz_per_uT2"),
]


@pytest.fixture
def command_inputs(tmp_path):
    """Input files for every subcommand, by the placeholder names above."""
    inputs = {"spec": tmp_path / "spec.csv", "decay": tmp_path / "t1.csv",
              "parabola": tmp_path / "par.csv"}
    phis = np.linspace(0.1, 0.9, 6)
    gfio.write_spectroscopy_csv(inputs["spec"], SpectroscopyDataset(
        x=phis, transition=("f01",) * 6,
        freq_ghz=np.linspace(9.0, 4.0, 6), sigma_ghz=np.full(6, 1e-3)))
    t = np.linspace(0.0, 40.0, 30)
    gfio.write_decay_csv(inputs["decay"], DecayCurve(
        t=t, value=0.8 * np.exp(-t / 10.0)))
    b = np.linspace(-5.0, 5.0, 11).tolist()
    inputs["parabola"].write_text("b_ut,freq_GHz\n" + "".join(
        f"{x!r},{7.445 - 3e-4 * (x - 0.2) ** 2!r}\n" for x in b))
    for name, seed in (("trace_a", 1), ("trace_b", 2)):
        inputs[name] = tmp_path / f"{name}.csv"
        gfio.write_trace_csv(inputs[name], simulate_telegraph(
            0.01, 0.01, 2000.0, 1.0, noise_sigma=0.1, seed=seed))
    ini = tmp_path / "inputs.ini"
    ini.write_text(INPUTS_INI)
    return ini, {k: str(v) for k, v in inputs.items()}


class TestCli:
    @pytest.mark.parametrize("command, extra, flags, out_name, keys",
                             COMMAND_RUNS,
                             ids=[run[0] for run in COMMAND_RUNS])
    def test_rerun_identical_and_config_resolved(self, tmp_path,
                                                 command_inputs, command,
                                                 extra, flags, out_name,
                                                 keys):
        ini, inputs = command_inputs
        argv = [command] + [a.format(**inputs) for a in extra]
        if command != "junctions":        # the one command without --config
            argv += ["--config", str(ini)]
        expected = load_config(None if command == "junctions" else ini)
        for key, value in flags.items():
            section, name = key.split(".")
            expected[section][name] = value
        runs = []
        for run in ("first", "second"):
            (tmp_path / run).mkdir()
            assert main(argv + ["--out", str(tmp_path / run / out_name)]) == 0
            runs.append({p.name: p.read_bytes()
                         for p in sorted((tmp_path / run).iterdir())})
        assert runs[0] == runs[1]
        payloads = [json.loads(text) for name, text in runs[0].items()
                    if name.endswith(".json")]
        assert payloads
        for payload in payloads:
            assert set(payload) == set(keys.split())
            assert payload["meta"]["command"] == command
            assert payload["meta"]["config"] == expected

    @pytest.mark.parametrize("command, name, text, where", [
        ("sweep", "cfg.ini", "points = 3\n", "cfg.ini"),
        ("sweep", "cfg.ini", "[sweep]\npoints = 3\npoints = 4\n", "cfg.ini"),
        ("sweep", "cfg.ini", "[sweep]\ntransitions = f01%\n", "cfg.ini"),
        ("analyze-trace", "trace.csv", "t_s,value\n0.0,0.1\n1.0\n",
         "trace.csv, line 3"),
        ("fit", "spec.csv",
         "# meta: {}\nfield_or_flux,unit,transition,freq_GHz,sigma_GHz\n"
         "0.5,phi0\n", "spec.csv, line 3"),
        ("analyze-trace", "trace.csv", "t_s,value\n0.0,0.1\n1.0,abc\n",
         "trace.csv, line 3"),
        ("fit", "spec.csv",
         "field_or_flux,unit,transition,freq_GHz,sigma_GHz\n"
         "0.5,phi0,f01,3.9,0.001\n0.3,phi0,f01,5.0,1e-3x\n",
         "spec.csv, line 3"),
        ("sweep", "cfg.ini", "[sweep]\npoints = 0\n", "sweep.points"),
        ("sweep", "cfg.ini", "[sweep]\npoints = -3\n", "sweep.points"),
        ("sweep", "cfg.ini", "[run]\nthreads = 2\n",
         "unknown config section [run]"),
        ("sweep", "cfg.ini", "[sweep]\ntransitions = ,\n",
         "sweep.transitions"),
        ("sweep", "cfg.ini", "[geometry]\nouter_area_m2 = 1e-9\n",
         "unknown config key 'outer_area_m2'"),
        ("fit", "spec.csv",
         "field_or_flux,unit,transition,freq_GHz,sigma_GHz\n"
         "0.5,phi0,f01,3.9,0.001\nnan,phi0,f01,5.0,0.001\n",
         "spec.csv, line 3: column x"),
        ("fit", "spec.csv",
         "field_or_flux,unit,transition,freq_GHz,sigma_GHz\n"
         "0.5,phi0,f01,3.9,0.001\n0.3,phi0,f01,inf,0.001\n",
         "spec.csv, line 3: column freq_ghz"),
        ("fit", "spec.csv",
         "field_or_flux,unit,transition,freq_GHz,sigma_GHz\n"
         "0.5,phi0,f01,3.9,0.001\n0.3,phi0,f01,5.0,inf\n",
         "spec.csv, line 3: column sigma_ghz"),
        ("analyze-trace", "trace.csv",
         "t_s,value\n" + "".join(f"{t}.0,0.1\n" for t in range(11))
         + "inf,0.1\n", "trace.csv, line 13: column t_s"),
        ("decay-fit", "t1.csv",
         "t_us,inversion\n0.0,0.8\n1.0,nan\n2.0,0.6\n3.0,0.5\n",
         "t1.csv, line 3: column inversion"),
        ("parabola-fit", "par.csv",
         "b_ut,freq_GHz\n-1.0,7.4\n0.0,inf\n1.0,7.4\n2.0,7.3\n",
         "par.csv, line 3: column freq_GHz"),
        ("analyze-trace", "trace.csv",
         "t_s,value\n0.0,0.1\n1.0,0.2\n1.0,0.1\n2.0,0.1\n",
         "trace.csv, line 4: column t_s must be strictly increasing, "
         "got 1.0 then 1.0"),
        ("decay-fit", "t1.csv",
         "t_us,inversion\n0.0,0.8\n2.0,0.7\n1.0,0.6\n3.0,0.5\n4.0,0.4\n",
         "t1.csv, line 4: column t_us must be strictly increasing, "
         "got 2.0 then 1.0"),
    ], ids=["ini-no-section", "ini-duplicate-key", "ini-stray-percent",
            "trace-short-row", "dataset-short-row", "trace-non-numeric",
            "dataset-non-numeric", "sweep-zero-points",
            "sweep-negative-points", "ini-run-section",
            "sweep-no-transitions", "ini-outer-area", "dataset-nan-flux",
            "dataset-inf-freq", "dataset-inf-sigma", "trace-inf-time",
            "decay-nan", "parabola-inf", "trace-repeated-time",
            "decay-time-goes-back"])
    def test_malformed_input_exit_2(self, tmp_path, capsys, command, name,
                                    text, where):
        path = tmp_path / name
        path.write_text(text)
        out = str(tmp_path / "out")
        argv = {"sweep": ["sweep", "--config", str(path), "--out", out],
                "analyze-trace": ["analyze-trace", "--trace", str(path),
                                  "--out", out],
                "fit": ["fit", "--data", str(path), "--out", out],
                "decay-fit": ["decay-fit", "--data", str(path), "--kind",
                              "exponential", "--out", out],
                "parabola-fit": ["parabola-fit", "--data", str(path),
                                 "--out", out]}[command]
        assert main(argv) == 2
        assert where in capsys.readouterr().err

    def test_single_point_sweep_matches_direct_call(self, tmp_path):
        out = tmp_path / "one.csv"
        code = main(["sweep", "--start", "0.5", "--stop", "0.5",
                     "--points", "1", "--out", str(out)])
        assert code == 0
        config = load_config(None)
        config["sweep"].update(start=0.5, stop=0.5, points=1)
        eff = effective_from_config(config["circuit"])
        sweep = flux_sweep(eff, np.linspace(0.5, 0.5, 1),
                           FockBasisSpec(25, 15),
                           transitions=("f01",), min_confidence=0.7)
        direct = tmp_path / "direct.csv"
        gfio.write_sweep_csv(direct, sweep, meta=build_meta("sweep", config))
        assert out.read_bytes() == direct.read_bytes()

    def test_rerun_bit_identical(self, tmp_path):
        args = ["sweep", "--start", "0.0", "--stop", "1.0", "--points", "5",
                "--transitions", "f01,fr"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.with_suffix(".json").read_bytes() \
            == b.with_suffix(".json").read_bytes()

    def test_sweep_f01_minimum_at_half_flux(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--points", "101", "--out", str(out)]) == 0
        payload = gfio.read_json(out.with_suffix(".json"))
        rows = [p for p in payload["points"] if p["transition"] == "f01"]
        freqs = np.array([p["freq_GHz"] for p in rows])
        fluxes = np.array([p["flux_phi0"] for p in rows])
        assert fluxes[np.argmin(freqs)] == pytest.approx(0.5, abs=1e-9)

    def test_threads_flag_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--threads", "2",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_invalid_config_key_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[sweep]\nbogus_key = 7\n")
        code = main(["sweep", "--config", str(bad),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_strict_sweep_fails_on_unresolved_points(self, tmp_path):
        ini = tmp_path / "strict.ini"
        ini.write_text("[tolerances]\nmin_confidence = 0.96\n")
        code = main(["sweep", "--config", str(ini), "--start", "0.24",
                     "--stop", "0.28", "--points", "3", "--strict",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1

    def test_fit_empty_csv_exit_2(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("field_or_flux,unit,transition,freq_GHz,sigma_GHz\n")
        code = main(["fit", "--data", str(data),
                     "--out", str(tmp_path / "fit.json")])
        assert code == 2

    def test_fit_without_f01_rows_exit_2(self, tmp_path, capsys):
        data = tmp_path / "spec.csv"
        data.write_text("field_or_flux,unit,transition,freq_GHz,sigma_GHz\n"
                        + "".join(f"0.{k},phi0,f02,{14 - k},0.001\n"
                                  for k in range(1, 5)))
        code = main(["fit", "--data", str(data),
                     "--out", str(tmp_path / "fit.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: initial guess needs at least one f01 row\n")

    def test_fit_negative_frequency_exit_2(self, tmp_path, capsys):
        data = tmp_path / "spec.csv"
        data.write_text("field_or_flux,unit,transition,freq_GHz,sigma_GHz\n"
                        + "".join(f"0.{k},phi0,f01,{k - 2},0.001\n"
                                  for k in range(1, 5)))
        code = main(["fit", "--data", str(data),
                     "--out", str(tmp_path / "fit.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {data}, line 2: column freq_ghz must be finite and > 0, "
            "got -1.0\n")

    # one message from a flag or an INI value, checked before the dataset
    # is read
    @pytest.mark.parametrize("argv", [
        ["--data", "{dir}/spec.csv", "--forward", "bogus"],
        ["--data", "{dir}/spec.csv", "--config", "{dir}/cfg.ini"],
        ["--data", "{dir}/missing.csv", "--forward", "bogus"]],
        ids=["flag", "ini", "flag-missing-data"])
    def test_fit_unknown_forward_exit_2(self, tmp_path, capsys, argv):
        (tmp_path / "spec.csv").write_text(
            "field_or_flux,unit,transition,freq_GHz,sigma_GHz\n"
            + "".join(f"0.{k},phi0,f01,{9 - k},0.001\n" for k in range(1, 5)))
        (tmp_path / "cfg.ini").write_text("[fit]\nforward = bogus\n")
        code = main(["fit", *[a.format(dir=tmp_path) for a in argv],
                     "--out", str(tmp_path / "fit.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: fit.forward must be 'single-loop' or 'coupled', "
            "got 'bogus'\n")

    def test_fit_help_names_both_models(self, capsys):
        with pytest.raises(SystemExit):
            main(["fit", "--help"])
        assert "single-loop or coupled" in capsys.readouterr().out

    def test_fit_runs_on_synthetic_data(self, tmp_path):
        from gradflux import single_loop_transitions
        phis = np.linspace(0.1, 0.9, 12)
        levels = single_loop_transitions(172.0, 3.4, 5.1, phis, m=30)[0]
        rows = ["field_or_flux,unit,transition,freq_GHz,sigma_GHz"]
        for i, phi in enumerate(phis):
            tr = "f01" if i % 2 == 0 else "f02"
            f = levels[i, 1] - levels[i, 0] if tr == "f01" \
                else levels[i, 2] - levels[i, 0]
            rows.append(f"{float(phi)!r},phi0,{tr},{float(f)!r},0.001")
        data = tmp_path / "synthetic.csv"
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "fit.json"
        assert main(["fit", "--data", str(data), "--out", str(out),
                     "--starts", "2"]) == 0
        payload = gfio.read_json(out)
        assert payload["params"]["lq_nh"] == pytest.approx(172.0, rel=1e-3)
        assert payload["meta"]["config"]["fit"]["n_starts"] == 2
        out2 = tmp_path / "fit2.json"
        assert main(["fit", "--data", str(data), "--out", str(out2),
                     "--starts", "2"]) == 0
        assert out.read_bytes() == out2.read_bytes()

    def test_coupled_fit_runs_and_reruns_identically(self, tmp_path):
        from gradflux.estimation import _model_freqs_coupled
        circ = load_config()["circuit"]
        phis = np.linspace(0.1, 0.9, 8)
        trans = tuple("f01" if i % 2 == 0 else "f02" for i in range(8))
        freqs, _ = _model_freqs_coupled(
            circ["lq_eff"], circ["cj"], circ["ej"], phis, trans,
            {k: circ[k] for k in ("ls", "lr", "cr")}, FockBasisSpec(20, 8))
        data = tmp_path / "coupled.csv"
        data.write_text("field_or_flux,unit,transition,freq_GHz,sigma_GHz\n"
                        + "".join(f"{float(x)!r},phi0,{t},{float(f)!r},0.001\n"
                                  for x, t, f in zip(phis, trans, freqs)))
        outs = [tmp_path / "fit.json", tmp_path / "fit2.json"]
        for out in outs:
            assert main(["fit", "--data", str(data), "--out", str(out),
                         "--forward", "coupled", "--starts", "1"]) == 0
        payload = gfio.read_json(outs[0])
        assert payload["forward"] == "coupled"
        for key in ("stderr", "sensitivity"):
            assert all(np.isfinite(v) for v in payload[key].values())
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_phaseslip_device_values(self, tmp_path, capsys):
        out = tmp_path / "rate.json"
        code = main(["phaseslip", "--wire-length-m", "300e-6",
                     "--grain-size-m", "4e-9", "--out", str(out)])
        assert code == 0
        payload = gfio.read_json(out)
        assert payload["n_junctions"] == 75_000
        assert 0.0 < payload["rate_Hz"] <= 1e-20
        assert capsys.readouterr().out == (
            "phase-slip rate: 3.984e-23 Hz (log10 = -22.3997)\n")

    @pytest.mark.parametrize("argv, rate, log10", [
        (["--ej-ghz", "1e120"], 0.0, -1.773e59),
        (["--n-junctions", "1" + "0" * 400], "inf", 372.73)],
        ids=["huge-ej", "huge-count"])
    def test_phaseslip_beyond_float_range(self, tmp_path, capsys, argv, rate,
                                          log10):
        # E_J^3 and the rate itself leave the float range; the log does not
        out = tmp_path / "rate.json"
        assert main(["phaseslip", *argv, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        payload = gfio.read_json(out)
        assert payload["rate_Hz"] == rate
        assert payload["log10_rate_Hz"] == pytest.approx(log10, rel=1e-3)

    def test_phaseslip_tiny_charging_energy(self, tmp_path, capsys):
        out = tmp_path / "rate.json"
        assert main(["phaseslip", "--ec-ghz", "1e-320", "--out",
                     str(out)]) == 0
        assert capsys.readouterr() == (
            "phase-slip rate: 0.000e+00 Hz (log10 = -2.82794e+162)\n", "")
        payload = gfio.read_json(out)
        assert payload["rate_Hz"] == 0.0
        assert payload["log10_rate_Hz"] == pytest.approx(-2.828e162,
                                                         rel=1e-3)

    def test_phaseslip_warns_below_charging_energy(self, capsys):
        assert main(["phaseslip", "--ej-ghz", "1.0", "--ec-ghz", "4.0"]) == 0
        assert capsys.readouterr().err == (
            "warning: E_J/E_C = 0.25 < 1: outside the dilute phase-slip "
            "regime\n")

    def test_junctions_command(self, tmp_path, capsys):
        assert main(["junctions", "--wire-length-m", "1e-6",
                     "--grain-size-m", "4e-9"]) == 0
        assert "250" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, name", [
        (["junctions", "--wire-length-m", "inf", "--grain-size-m", "4e-9"],
         "wire_length_m"),
        (["phaseslip", "--wire-length-m", "inf"], "wire_length_m"),
        (["junctions", "--wire-length-m", "1e-6", "--grain-size-m", "nan"],
         "grain_size_m"),
        (["phaseslip", "--ej-ghz", "inf"], "ej_grain_ghz"),
        (["sweep", "--start", "nan", "--out", "{dir}/s.csv"], "fluxes"),
        (["chi", "--flux", "nan", "--out", "{dir}/c.json"], "fluxes"),
        (["chi", "--flux", "inf", "--ladder", "25x15"], "fluxes"),
    ], ids=["junctions-inf-wire", "phaseslip-inf-wire",
            "junctions-nan-grain", "phaseslip-inf-ej", "sweep-nan-start",
            "chi-nan-flux", "ladder-inf-flux"])
    def test_non_finite_input_exit_2(self, tmp_path, capsys, argv, name):
        assert main([a.format(dir=tmp_path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        assert not any(tmp_path.iterdir())

    def test_trace_simulate_analyze_roundtrip(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        out = tmp_path / "dwell.json"
        lam = 1.0 / 1800.0
        assert main(["simulate-trace", "--rate-eo", str(lam),
                     "--rate-oe", str(lam), "--duration", "100000",
                     "--dt", "1.0", "--noise", "0.125", "--seed", "1",
                     "--out", str(trace_path)]) == 0
        assert main(["analyze-trace", "--trace", str(trace_path),
                     "--out", str(out)]) == 0
        payload = gfio.read_json(out)
        assert payload["ci_low_hz"] <= lam <= payload["ci_high_hz"]
        assert payload["n_events"] > 30
        # rerun is byte-identical
        out2 = tmp_path / "dwell2.json"
        assert main(["analyze-trace", "--trace", str(trace_path),
                     "--out", str(out2)]) == 0
        assert out.read_bytes() == out2.read_bytes()

    def test_coincidence_command(self, tmp_path):
        paths = []
        for seed in (1, 2):
            p = tmp_path / f"tr{seed}.csv"
            assert main(["simulate-trace", "--rate-eo", "0.002",
                         "--rate-oe", "0.002", "--duration", "20000",
                         "--dt", "1.0", "--noise", "0.1",
                         "--seed", str(seed), "--out", str(p)]) == 0
            paths.append(str(p))
        out = tmp_path / "coinc.json"
        assert main(["coincidence", "--traces", *paths, "--window", "5.0",
                     "--out", str(out)]) == 0
        payload = gfio.read_json(out)
        assert len(payload["pairs"]) == 1
        assert payload["pairs"][0]["expected"] > 0

    def test_decay_fit_command(self, tmp_path):
        t = np.linspace(0.0, 40.0, 50)
        y = 0.8 * np.exp(-t / 10.0) + 0.02
        data = tmp_path / "t1.csv"
        gfio.write_decay_csv(data, DecayCurve(t=t, value=y,
                                              kind="exponential"))
        out = tmp_path / "t1.json"
        assert main(["decay-fit", "--data", str(data), "--kind",
                     "exponential", "--out", str(out)]) == 0
        payload = gfio.read_json(out)
        assert payload["tau_us"] == pytest.approx(10.0, rel=1e-3)

    def test_unresolved_decay_fit_exit_1(self, tmp_path, capsys):
        # a flat echo, 1 +- 1e-9 alternating, whose fit resolves no decay
        data = tmp_path / "flat.csv"
        gfio.write_decay_csv(data, DecayCurve(
            t=np.linspace(0.0, 10.0, 6),
            value=1.0 + 1e-9 * (-1.0) ** np.arange(6), kind="echo"))
        out = tmp_path / "flat.json"
        code = main(["decay-fit", "--data", str(data), "--kind", "echo",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "numerical error: no decay resolvable: the fit's covariance is "
            "not finite\n")
        assert not out.exists()

    def test_parabola_fit_command(self, tmp_path):
        b = np.linspace(-5.0, 5.0, 11)
        y = 7.445 - 3e-4 * (b - 0.2) ** 2
        data = tmp_path / "par.csv"
        data.write_text("b_ut,freq_GHz\n" + "".join(
            f"{float(x)!r},{float(v)!r}\n" for x, v in zip(b, y)))
        out = tmp_path / "par.json"
        assert main(["parabola-fit", "--data", str(data),
                     "--out", str(out)]) == 0
        payload = gfio.read_json(out)
        assert payload["f_max_GHz"] == pytest.approx(7.445, abs=1e-9)
        assert payload["b_offset_uT"] == pytest.approx(0.2, abs=1e-9)

    def test_chi_command(self, tmp_path, capsys):
        out = tmp_path / "chi.json"
        assert main(["chi", "--flux", "0.5", "--out", str(out)]) == 0
        payload = gfio.read_json(out)
        assert payload["chi_MHz"] == pytest.approx(-7.670, abs=0.02)
        assert "chi(0.5" in capsys.readouterr().out

    def test_chi_ladder_command(self, tmp_path):
        # 45x25 (dim 1125) is above the dense crossover: a Davidson rung
        outs = [tmp_path / "chi.json", tmp_path / "chi2.json"]
        for out in outs:
            assert main(["chi", "--flux", "0.5", "--ladder", "25x15,45x25",
                         "--out", str(out)]) == 0
        payload = gfio.read_json(outs[0])
        assert len(payload["rows"]) == 2
        assert payload["rows"][1]["dim"] > spectrum.DENSE_MAX_DIM
        assert payload["rows"][1]["delta_chi_mhz"] is not None
        assert payload["chi_MHz"] == pytest.approx(-7.670, abs=0.05)
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_davidson_failure_exit_1(self, tmp_path, monkeypatch, capsys):
        # a Davidson solve that does not converge within its iteration cap
        monkeypatch.setattr(spectrum, "MAX_ITER", 1)
        code = main(["chi", "--flux", "0.5", "--ladder", "45x25",
                     "--out", str(tmp_path / "chi.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert "numerical error" in err and "dim=1125" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["chi", "--config", "{dir}/none.ini"],
         "config file not found: {dir}/none.ini"),
        (["coincidence", "--traces", "{trace_a}", "--window", "5.0",
          "--out", "{dir}/coinc.json"],
         "coincidence needs at least two traces"),
    ], ids=["missing-config", "one-trace"])
    def test_bad_arguments_exit_2(self, tmp_path, capsys, command_inputs,
                                  argv, message):
        _, inputs = command_inputs
        assert main([a.format(dir=tmp_path, **inputs) for a in argv]) == 2
        assert capsys.readouterr().err == (
            f"error: {message.format(dir=tmp_path)}\n")

    # command, its required arguments, flag, config key, bad value
    @pytest.mark.parametrize("command, required, flag, key, raw", [
        ("sweep", [], "--points", "sweep.points", "abc"),
        ("sweep", [], "--start", "sweep.start", "0.5x"),
        ("fit", ["--data", "{spec}"], "--seed", "fit.seed", "1.5"),
        ("phaseslip", [], "--grain-size-m", "geometry.grain_size_m", "4nm"),
        ("simulate-trace", [], "--duration", "trace.duration_s", "long"),
        ("analyze-trace", ["--trace", "{trace_a}"], "--window",
         "trace.window", "15.0"),
    ], ids=["sweep-points", "sweep-start", "fit-seed", "phaseslip-grain",
            "simulate-duration", "analyze-window"])
    def test_bad_flag_value_reads_as_bad_ini_value(self, tmp_path, capsys,
                                                   command_inputs, command,
                                                   required, flag, key, raw):
        _, inputs = command_inputs
        section, name = key.split(".")
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[{section}]\n{name} = {raw}\n")
        argv = [command, *(a.format(**inputs) for a in required),
                "--out", str(tmp_path / "out")]
        errors = []
        for extra in ([flag, raw], ["--config", str(ini)]):
            assert main(argv + extra) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith(
            f"error: bad value for [{section}] {name} = {raw!r}: ")

    def test_missing_data_file_exit_2(self, tmp_path):
        code = main(["fit", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o.json")])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["chi", "--out", "{dir}"],
        ["fit", "--data", "{dir}", "--out", "{dir}/fit.json"],
        ["analyze-trace", "--trace", "{dir}", "--out", "{dir}/dwell.json"],
    ], ids=["chi-out", "fit-data", "analyze-trace-trace"])
    def test_directory_path_exit_2(self, tmp_path, capsys, argv):
        assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--points", "3"],
        ["chi", "--ladder", "25x15,40x25"],
        ["fit", "--data", "{spec}"],
        ["simulate-trace", "--duration", "100"],
        ["analyze-trace", "--trace", "{trace_a}"],
        ["coincidence", "--traces", "{trace_a}", "{trace_b}",
         "--window", "5.0"],
        ["decay-fit", "--data", "{decay}", "--kind", "exponential"],
        ["parabola-fit", "--data", "{parabola}"],
        ["phaseslip"],
        ["junctions", "--wire-length-m", "1e-6", "--grain-size-m", "4e-9"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("out", ["{dir}/out", "{dir}/out/no/out.json"],
                             ids=["directory", "no-parent"])
    def test_bad_out_rejected_before_work(self, tmp_path, monkeypatch,
                                          capsys, command_inputs, argv, out):
        def never(*args, **kwargs):
            raise AssertionError("computed before checking --out")

        for name in ("flux_sweep", "convergence_report", "fit_spectrum",
                     "simulate_telegraph", "detect_jumps", "fit_decay",
                     "fit_parabola", "phase_slip_rate",
                     "effective_junction_count"):
            monkeypatch.setattr(cli, name, never)
        _, inputs = command_inputs
        (tmp_path / "out").mkdir()
        argv = [a.format(dir=tmp_path, **inputs)
                for a in argv + ["--out", out]]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: output path")
        assert list((tmp_path / "out").iterdir()) == []

    def test_trace_sidecar_checked_before_work(self, tmp_path, monkeypatch,
                                               capsys):
        def never(*args, **kwargs):
            raise AssertionError("computed before checking the sidecar")

        monkeypatch.setattr(cli, "simulate_telegraph", never)
        (tmp_path / "x.json").mkdir()
        assert main(["simulate-trace", "--duration", "100",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "x.json is a directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--points", "3", "--out", "{dir}/s.json"],
        ["simulate-trace", "--duration", "100", "--out", "{dir}/x.json"],
        ["analyze-trace", "--trace", "{trace_a}",
         "--out", "{dir}/trace_a.json"],
        ["coincidence", "--traces", "{trace_a}", "{trace_b}",
         "--window", "5.0", "--out", "{dir}/trace_b.json"],
        ["analyze-trace", "--trace", "{trace_a}", "--out", "{trace_a}"],
        ["fit", "--data", "{spec}", "--out", "{dir}/./spec.csv"],
        ["decay-fit", "--data", "{decay}", "--kind", "exponential",
         "--out", "{decay}"],
        ["chi", "--config", "{ini}", "--out", "{ini}"],
    ], ids=["sweep-own-json", "simulate-own-sidecar", "analyze-sidecar",
            "coincidence-sidecar", "analyze-input", "fit-input",
            "decay-input", "config"])
    def test_colliding_out_rejected_before_work(self, tmp_path, monkeypatch,
                                                capsys, command_inputs,
                                                argv):
        def never(*args, **kwargs):
            raise AssertionError("computed before checking --out")

        for name in ("flux_sweep", "dispersive_shift", "fit_spectrum",
                     "simulate_telegraph", "detect_jumps", "fit_decay"):
            monkeypatch.setattr(cli, name, never)
        ini, inputs = command_inputs
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        argv = [a.format(dir=tmp_path, ini=ini, **inputs) for a in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: output path")
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("sidecar", ["[1, 2]", '{"noise_sigma": null}',
                                         "{not json"],
                             ids=["list", "null-noise", "not-json"])
    def test_trace_reads_skip_the_sidecar(self, tmp_path, command_inputs,
                                          sidecar):
        _, inputs = command_inputs
        traces = [inputs["trace_a"], inputs["trace_b"]]
        argv = [["analyze-trace", "--trace", traces[0]],
                ["coincidence", "--traces", *traces, "--window", "5.0"]]

        def outputs(tag):
            outs = [tmp_path / f"{tag}-{args[0]}.json" for args in argv]
            for args, out in zip(argv, outs):
                assert main(args + ["--out", str(out)]) == 0
            return [out.read_bytes() for out in outs]

        good = outputs("good")
        for trace in traces:
            gfio.companion(trace).write_text(sidecar)
        assert outputs("bad") == good

    def test_fit_out_may_share_the_data_stem(self, tmp_path, command_inputs):
        _, inputs = command_inputs
        assert main(["fit", "--data", inputs["spec"], "--starts", "1",
                     "--out", str(tmp_path / "spec.json")]) == 0
        assert "params" in gfio.read_json(tmp_path / "spec.json")

    @pytest.mark.parametrize("ladder, where", [
        ("25x", "'25x'"), ("25x15,40", "'40'"), ("40x25,25x15", "ascend")],
        ids=["no-n", "no-x", "descending"])
    def test_bad_ladder_exit_2(self, capsys, ladder, where):
        assert main(["chi", "--ladder", ladder]) == 2
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("command, argv", [
        ("cmd_sweep", ["sweep", "--points", "1000000000000"]),
        ("cmd_simulate_trace", ["simulate-trace", "--duration", "1e12",
                                "--dt", "1", "--rate-eo", "1e-9",
                                "--rate-oe", "1e-9"])])
    def test_memory_error_exit_2(self, command, argv, tmp_path, monkeypatch,
                                 capsys):
        # the allocation is faked: a real one that large could succeed on an
        # overcommitting kernel and only fail once touched
        message = ("Unable to allocate 7.28 TiB for an array with shape "
                   "(1000000000000,) and data type float64")

        def too_large(args, config, meta):
            raise MemoryError(message)

        monkeypatch.setattr(cli, command, too_large)
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_label_error_exit_1(self, tmp_path, monkeypatch, capsys):
        def unresolved(args, config, meta):
            raise LabelError("label (1, 1) not retained in spectrum")

        monkeypatch.setattr(cli, "cmd_chi", unresolved)
        code = main(["chi", "--flux", "0.5",
                     "--out", str(tmp_path / "chi.json")])
        assert code == 1
        assert "numerical error" in capsys.readouterr().err

