import json

import pytest

from hgcauchy.cli import main
from hgcauchy.combinat import STRICT_COMPOSITION_CAP
from hgcauchy.hessenberg import PARTITION_CAP
from hgcauchy.relations import CHAIN_CAP


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_normalized_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compute", "--N", "1", "--n-max", "3", "--normalized",
            "--format", "csv",
        )
        assert code == 0
        assert out == "0,1\n1,1/2\n2,-1/12\n3,1/24\n"

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--N", "2", "--n-max", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "N": 2,
            "r": 1,
            "method": "recurrence",
            "values": ["1", "2/3"],
        }

    def test_json_round_trips_byte_identical(self, capsys):
        _, out, _ = run_cli(capsys, "compute", "--N", "3", "--n-max", "6")
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_zero_index_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--N", "1", "--n-max", "0", "--format", "csv"
        )
        assert code == 0
        assert out == "0,1\n"

    def test_methods_agree_through_cli(self, capsys):
        outputs = set()
        for method in ("series", "recurrence", "determinant", "compositions",
                       "trudi", "explicit", "convolution"):
            _, out, _ = run_cli(
                capsys,
                "compute", "--N", "2", "--n-max", "8", "--method", method,
                "--format", "csv",
            )
            outputs.add(out)
        assert len(outputs) == 1

    def test_higher_order_values(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compute", "--N", "1", "--n-max", "2", "--r", "2", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[2] == "2,1/6"

    def test_first_order_only_method_rejected_for_higher_r(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "compute", "--N", "1", "--n-max", "2",
                    "--r", "2", "--method", "series")
        assert exc.value.code == 2

    @pytest.mark.parametrize("method", ["series", "compositions"])
    def test_first_order_only_method_names_the_order_r_routes(self, capsys, method):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "compute", "--N", "1", "--n-max", "2",
                    "--r", "2", "--method", method)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"hgcauchy: error: --method {method} supports --r 1 only; "
            "use recurrence, determinant, trudi, explicit, or convolution\n"
        )

    def test_invalid_n_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "compute", "--N", "0", "--n-max", "2")
        assert exc.value.code == 2

    def test_cap_exceeded_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys,
            "compute", "--N", "1", "--n-max", "25", "--method", "compositions",
        )
        assert code == 3
        assert "cap" in err

    def test_unsafe_caps_warns_and_proceeds(self, capsys):
        code, out, err = run_cli(
            capsys,
            "compute", "--N", "1", "--n-max", "5", "--method", "compositions",
            "--unsafe-caps", "--format", "csv",
        )
        assert code == 0
        assert "warning" in err
        assert out.startswith("0,1\n")

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "compute", "--N", "4", "--n-max", "10")
        _, second, _ = run_cli(capsys, "compute", "--N", "4", "--n-max", "10")
        assert first == second

    def test_help_names_every_cap(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "compute", "--help")
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert f"compositions n <= {STRICT_COMPOSITION_CAP}" in text
        assert f"partitions m <= {PARTITION_CAP}" in text
        assert f"chains n <= {CHAIN_CAP}" in text


class TestVerify:
    def test_small_inversion_grid_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "inversion", "--N-max", "1",
            "--n-max", "1",
        )
        assert code == 0
        assert "fail" not in out.replace("0 fail", "")
        assert "[erratum-noted] inversion/unsigned-inverse-bands" in out

    @pytest.mark.parametrize("suite", ["inversion", "all"])
    def test_zero_n_max_keeps_the_inverse_band_erratum(self, capsys, suite):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--n-max", "0")
        assert code == 0
        assert (
            "[erratum-noted] inversion/unsigned-inverse-bands (N=1, r=1, n=1): "
            "printed 1/2, corrected -1/2\n"
        ) in out

    def test_core_suite_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "core", "--N-max", "3",
            "--n-max", "10",
        )
        assert code == 0
        assert out.strip().endswith("erratum-noted")

    def test_json_format_counts(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "relations", "--N-max", "3",
            "--n-max", "8", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"]["fail"] == 0
        assert len(payload["records"]) == payload["counts"]["pass"]
        for record in payload["records"]:
            assert set(record) == {
                "identity", "parameter_point", "status", "detail",
            }

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "verify", "--suite", "everything")
        assert exc.value.code == 2

    def test_deterministic_output(self, capsys):
        args = ("verify", "--suite", "core", "--N-max", "2", "--n-max", "8")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestInvert:
    def test_cauchy_rule_recovers_ratios(self, capsys):
        code, out, _ = run_cli(
            capsys, "invert", "--rule", "cauchy", "--N", "1", "--n-max", "4"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n\tR\talpha\trecovered\tinverse_band"
        recovered = [line.split("\t")[3] for line in lines[1:]]
        assert recovered == ["1/2", "1/3", "1/4", "1/5"]

    def test_single_entry_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "invert", "--rule", "hgc", "--N", "3", "--n-max", "1"
        )
        assert code == 0
        assert out.splitlines()[1] == "1\t3/4\t3/4\t3/4\t-3/4"

    def test_weights_rule(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "invert", "--rule", "weights", "--N", "2", "--r", "2",
            "--n-max", "8",
        )
        assert code == 0

    def test_inverse_band_column_carries_signs(self, capsys):
        _, out, _ = run_cli(
            capsys, "invert", "--rule", "hgc", "--N", "2", "--n-max", "4"
        )
        bands = [line.split("\t")[4] for line in out.splitlines()[1:]]
        assert bands == ["-2/3", "1/2", "-2/5", "1/3"]

    def test_missing_rule_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "invert", "--N", "1", "--n-max", "3")
        assert exc.value.code == 2

    def test_unsafe_caps_rejected(self, capsys):
        # invert enumerates nothing, so it has no caps to lift
        with pytest.raises(SystemExit) as exc:
            run_cli(
                capsys,
                "invert", "--rule", "hgc", "--N", "2", "--n-max", "4",
                "--unsafe-caps",
            )
        assert exc.value.code == 2
