import itertools
import json
import subprocess
import sys

import pytest
from conftest import GOLDEN, child_env, run_cli

from chainlab.formulas import FORMULA_DEPTH_CAP, format_formula, parse_formula
from chainlab.verify import VERIFY_CASES_CAP

SUITE_NAMES = [
    "core-restriction-composition",
    "core-reduct-commute",
    "companion-axioms",
    "pa-restriction-closure",
    "pa-reversal-chains",
    "iso-canonical-agree",
    "reduction-oracle",
    "chain-reversal",
    "chain-monotonicity",
    "profile-bound",
    "trace-isomorphism",
    "age-transfer",
    "definability-roundtrip",
    "star-translation",
    "quotient-translation",
    "age-sentence",
    "literal-type-partition",
    "family-reversal-closure",
    "classification-soundness",
    "classification-presentation-invariance",
    "monomorphic-chains",
    "named-fixtures",
]


@pytest.fixture
def unknown_symbols_file(tmp_path):
    """A structure file over the signature {E} with relations for A to D."""
    path = tmp_path / "unknown_symbols.json"
    doc = {"signature": [{"name": "E", "arity": 2}], "size": 3}
    doc["relations"] = {name: [[0, 1]] for name in "ABCD"}
    path.write_text(json.dumps(doc))
    return path


class TestExitCodes:
    def test_success_is_zero(self):
        result = run_cli("check-chain", "--structure", "chain5.json", "--order", "0,1,2,3,4")
        assert result.returncode == 0
        assert json.loads(result.stdout) == {"chainable": True}

    def test_domain_error_is_one(self):
        result = run_cli("define", "--structure", "c4.json", "--companion", "natural4.json")
        assert result.returncode == 1
        doc = json.loads(result.stdout)
        assert doc["error"] == "not_simply_definable"
        assert doc["witnesses"] == [[0, 1], [0, 2]]

    def test_negative_kernel_bound_is_domain_error(self):
        result = run_cli("kernel", "--structure", "c5.json", "--max-f", "-1")
        assert result.returncode == 1
        assert json.loads(result.stdout)["error"] == "domain_error"

    def test_negative_profile_bound_is_domain_error(self):
        result = run_cli("profile", "--structure", "c5.json", "--up-to", "-3")
        assert result.returncode == 1
        assert json.loads(result.stdout)["error"] == "domain_error"

    def test_check_chain_on_a_huge_declared_size_is_domain_error(self, tmp_path):
        # The witness covers two of 10**12 points; it is refused without
        # listing the domain.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"signature": [{"name": "E", "arity": 2}], "size": 10**12}))
        result = run_cli("check-chain", "--structure", str(path), "--order", "0,1")
        assert result.returncode == 1
        assert result.stderr == ""
        assert json.loads(result.stdout) == {
            "detail": "witness does not partition the domain",
            "error": "domain_error",
        }

    def test_define_over_a_huge_declared_companion_is_domain_error(self, tmp_path):
        # The order lists one of 10**12 points; it is refused without listing
        # the domain.
        path = tmp_path / "huge_companion.json"
        path.write_text(json.dumps({"size": 10**12, "order": [0]}))
        result = run_cli("define", "--structure", "c4.json", "--companion", str(path), timeout=30)
        assert result.returncode == 1
        assert result.stderr == ""
        assert json.loads(result.stdout) == {
            "detail": "order must be a permutation of the domain",
            "error": "domain_error",
        }

    @pytest.mark.parametrize(
        "verb, n, within",
        [("profile", 1, False), ("age", 2, False), ("age", 2, True), ("age-sentence", 5, False)],
    )
    def test_profile_and_age_on_a_huge_declared_size_are_unsupported_size(self, tmp_path, verb, n, within):
        # 10**12 points have more n-subsets than the subset budget; they are
        # refused before any is listed (for age-sentence, before the sentence
        # of the 5-point family is evaluated on them).
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"signature": [{"name": "E", "arity": 2}], "size": 10**12}))
        if verb == "age-sentence":
            args = [verb, "--family", "c5.json", "--eval-on", str(path)]
        else:
            args = [verb, "--structure", str(path)]
        if verb == "age":
            args += ["--n", str(n)] + (["--within", str(path)] if within else [])
        result = run_cli(*args, timeout=30)
        assert result.returncode == 1
        assert result.stderr == ""
        assert json.loads(result.stdout) == {
            "detail": f"substructure forms are capped at 1000000 subsets; "
            f"a domain of size 1000000000000 has more of size {n}",
            "error": "unsupported_size",
        }

    def test_classify_orders_on_a_huge_declared_size_is_unsupported_size(self, tmp_path):
        # The cap on the complement's size is checked before the complement
        # is listed; an --f outside the domain is still refused first.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"signature": [{"name": "E", "arity": 2}], "size": 10**12}))
        result = run_cli("classify-orders", "--structure", str(path), timeout=30)
        assert result.returncode == 1
        assert result.stderr == ""
        assert json.loads(result.stdout) == {
            "detail": "enumerating 1000000000000! orders exceeds the cap of 8! candidates",
            "error": "unsupported_size",
        }
        result = run_cli("classify-orders", "--structure", str(path), "--f", "0,-1", timeout=30)
        assert result.returncode == 1
        assert json.loads(result.stdout)["error"] == "domain_error"

    @pytest.mark.parametrize("keep", ["", "E"])
    def test_age_sentence_on_a_foreign_signature_is_domain_error(self, keep):
        # The signature is compared before the sentence is evaluated, so the
        # kept symbols do not change the answer.
        result = run_cli(
            "age-sentence", "--family", "c5.json", "--keep", keep, "--eval-on", "unary5.json"
        )
        assert result.returncode == 1
        assert result.stderr == ""
        assert json.loads(result.stdout) == {
            "detail": "structure under test must share the family signature",
            "error": "domain_error",
        }

    def test_age_sentence_past_its_size_cap_is_unsupported_size(self, tmp_path):
        path = tmp_path / "empty7.json"
        path.write_text(json.dumps({"signature": [{"name": "E", "arity": 2}], "size": 7}))
        result = run_cli("age-sentence", "--family", str(path))
        assert result.returncode == 1
        assert result.stderr == ""
        assert json.loads(result.stdout) == {
            "detail": "age sentences enumerate all 7! variable orders; size capped at 6",
            "error": "unsupported_size",
        }

    @pytest.mark.parametrize("assign", ["u=99,v=-3", "u=0,v=5", "u=-1,v=0"])
    def test_star_eval_assignment_outside_the_domain_is_domain_error(self, tmp_path, assign):
        path = tmp_path / "c5_frozen0123.json"
        companion = {"size": 5, "order": [0, 1, 2, 3, 4], "constants": [0, 1, 2, 3]}
        path.write_text(json.dumps(companion))
        result = run_cli(
            "star-eval",
            "--structure",
            "c5.json",
            "--companion",
            str(path),
            "--formula",
            "(rel E u v)",
            "--assign",
            assign,
        )
        assert result.returncode == 1
        assert result.stderr == ""
        assert json.loads(result.stdout)["error"] == "domain_error"

    @pytest.mark.parametrize("hash_seed", ["1", "6"])
    def test_unknown_symbols_are_listed_sorted(self, unknown_symbols_file, hash_seed):
        result = run_cli("find-order", "--structure", str(unknown_symbols_file), hash_seed=hash_seed)
        assert result.returncode == 1
        assert result.stderr == ""
        assert json.loads(result.stdout) == {
            "detail": "relations for unknown symbols: ['A', 'B', 'C', 'D']",
            "error": "domain_error",
        }

    def test_negative_verify_cases_is_domain_error(self):
        result = run_cli("verify", "--cases", "-1")
        assert result.returncode == 1
        assert result.stderr == ""
        assert json.loads(result.stdout)["error"] == "domain_error"

    @pytest.mark.parametrize("cases", [VERIFY_CASES_CAP + 1, 10**9])
    def test_verify_cases_above_cap_is_unsupported_size(self, cases):
        result = run_cli("verify", "--only", "companion-axioms", "--cases", str(cases))
        assert result.returncode == 1
        assert result.stderr == ""
        assert json.loads(result.stdout)["error"] == "unsupported_size"

    @staticmethod
    def _star_eval_nested(tmp_path, depth: int) -> subprocess.CompletedProcess:
        companion = {"size": 5, "order": [0, 1, 2, 3, 4], "constants": [0, 1, 2, 3]}
        path = tmp_path / "c5_frozen0123.json"
        path.write_text(json.dumps(companion))
        formula = "(not " * (depth - 1) + "(rel E u v)" + ")" * (depth - 1)
        return run_cli(
            "star-eval",
            "--structure",
            "c5.json",
            "--companion",
            str(path),
            "--formula",
            formula,
            "--assign",
            "u=0,v=1",
        )

    def test_deep_formula_is_parse_error(self, tmp_path):
        result = self._star_eval_nested(tmp_path, 10_000)
        assert result.returncode == 2
        assert json.loads(result.stdout)["error"] == "parse_error"
        assert result.stderr == ""

    def test_formula_at_depth_cap_is_evaluated(self, tmp_path):
        result = self._star_eval_nested(tmp_path, FORMULA_DEPTH_CAP)
        assert result.returncode == 0
        assert json.loads(result.stdout)["agree"] is True

    def test_long_star_formula_is_evaluated(self, tmp_path):
        # T holds on every tuple, so over four constants its definition is a
        # single or_all of 1,083 literal types.
        tuples = [list(t) for t in itertools.product(range(8), repeat=4)]
        y = {"relations": {"T": tuples}, "signature": [{"arity": 4, "name": "T"}], "size": 8}
        companion = {"size": 8, "order": list(range(8)), "constants": [0, 1, 2, 3]}
        y_path, x_path = tmp_path / "full8.json", tmp_path / "k8_frozen0123.json"
        y_path.write_text(json.dumps(y))
        x_path.write_text(json.dumps(companion))
        result = run_cli(
            "star-eval",
            "--structure",
            str(y_path),
            "--companion",
            str(x_path),
            "--formula",
            "(rel T u v w z)",
            "--assign",
            "u=0,v=1,w=2,z=3",
        )
        assert result.returncode == 0
        assert result.stderr == ""
        doc = json.loads(result.stdout)
        assert doc["agree"] is True
        assert doc["star_formula"].startswith("(or " * 1082 + "(and ")
        star = parse_formula(doc["star_formula"])
        assert len(star.parts) == 1083
        assert format_formula(star) == doc["star_formula"]

    def test_parse_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        result = run_cli("kernel", "--structure", str(bad))
        assert result.returncode == 2
        assert json.loads(result.stdout)["error"] == "parse_error"

    @pytest.mark.parametrize(
        "kind,content",
        [
            (
                "structure",
                b'{"signature": [{"name": "E", "arity": 2}], "size": 2, "relations": [[0, 1]]}',
            ),
            ("structure", b'{"size": "\xff"}'),
            ("structure", b"[" * 100_000 + b"]" * 100_000),
            ("structure", b'{"signature": [{"name": "E", "arity": 2}], "size": 1e400}'),
            ("companion", b'{"size": 1e400, "order": [0, 1, 2, 3]}'),
            ("structure", b'{"signature": [{"name": "E", "arity": 2.5}], "size": 3}'),
            ("companion", b'{"size": 4, "order": [0, 1, 2, 3], "constants": [true]}'),
            (
                "structure",
                b'{"signature": [{"name": "E", "arity": 2}], "size": 1' + b"0" * 400 + b"}",
            ),
            (
                "structure",
                b'{"signature": [{"name": 5, "arity": 2}], "size": 3, "relations": {}}',
            ),
        ],
        ids=[
            "relations-list",
            "not-utf8",
            "deep-array",
            "size-1e400",
            "companion-size-1e400",
            "float-arity",
            "bool-constant",
            "size-400-digits",
            "int-name",
        ],
    )
    def test_malformed_file_is_parse_error(self, tmp_path, kind, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        if kind == "structure":
            result = run_cli("kernel", "--structure", str(bad))
        else:
            result = run_cli("define", "--structure", "c4.json", "--companion", str(bad))
        assert result.returncode == 2
        assert json.loads(result.stdout)["error"] == "parse_error"
        assert "Traceback" not in result.stderr

    def test_usage_error_is_two(self):
        result = run_cli("no-such-verb")
        assert result.returncode == 2

    def test_missing_file_is_parse_error(self):
        result = run_cli("kernel", "--structure", "missing.json")
        assert result.returncode == 2


class TestGoldenOutputs:
    @pytest.mark.parametrize(
        "golden,args",
        [
            ("kernel_c5.golden", ("kernel", "--structure", "c5.json")),
            ("profile_c5.golden", ("profile", "--structure", "c5.json")),
            ("classify_chain5.golden", ("classify-orders", "--structure", "chain5.json")),
            ("classify_pentagon.golden", ("classify-orders", "--structure", "pentagon.json")),
            (
                "classify_unary5.golden",
                ("classify-orders", "--structure", "unary5.json", "--f", "0"),
            ),
        ],
    )
    def test_byte_exact(self, golden, args):
        expected = (GOLDEN / golden).read_text()
        result = run_cli(*args)
        assert result.returncode == 0
        assert result.stdout == expected

    def test_golden_semantics(self):
        kernel_doc = json.loads((GOLDEN / "kernel_c5.golden").read_text())
        assert kernel_doc["min_size"] == 4
        assert len(kernel_doc["minimal_sets"]) == 5
        chain_doc = json.loads((GOLDEN / "classify_chain5.golden").read_text())
        assert chain_doc["class"]["tag"] == "BoundedPerturbation"
        assert chain_doc["class"]["k"] == [] and chain_doc["class"]["h"] == []
        assert chain_doc["orders"] == [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0]]
        pentagon_doc = json.loads((GOLDEN / "classify_pentagon.golden").read_text())
        assert pentagon_doc["class"]["tag"] == "RotationFamily"
        assert len(pentagon_doc["orders"]) == 10
        unary_doc = json.loads((GOLDEN / "classify_unary5.golden").read_text())
        assert unary_doc["class"]["tag"] == "AllOrders"
        assert len(unary_doc["orders"]) == 24
        profile_doc = json.loads((GOLDEN / "profile_c5.golden").read_text())
        assert profile_doc == {"values": [1, 2, 2, 1, 1]}

    def test_repeated_runs_are_byte_identical(self, unknown_symbols_file):
        # Two fixed hash seeds, so that an output hanging on set or dict
        # order of strings fails every run rather than most.
        for path, code in (("c5.json", 0), (str(unknown_symbols_file), 1)):
            first = run_cli("kernel", "--structure", path, hash_seed="1")
            second = run_cli("kernel", "--structure", path, hash_seed="6")
            assert first.returncode == second.returncode == code
            assert first.stdout == second.stdout


class TestVerbs:
    def test_find_order(self):
        result = run_cli("find-order", "--structure", "chain5.json")
        assert json.loads(result.stdout) == {"order": [0, 1, 2, 3, 4]}

    def test_find_order_absent(self):
        result = run_cli("find-order", "--structure", "c5.json", "--f", "0")
        assert json.loads(result.stdout) == {"order": None}

    def test_empty_thirty_ary_relation_answers_at_once(self, tmp_path):
        # Past SHARED_WORDS_CAP words a subset type is its sorted members, so
        # no verb lists the 3**30 words of the domain.  The relation is
        # empty, so every order chains.
        path = tmp_path / "empty30.json"
        path.write_text(json.dumps({"signature": [{"name": "R", "arity": 30}], "size": 3}))
        every_order = [list(p) for p in itertools.permutations(range(3))]
        outputs = {}
        for args in (["find-order"], ["check-chain", "--order", "2,0,1"], ["kernel"], ["classify-orders"]):
            result = run_cli(*args, "--structure", str(path), timeout=30)
            assert result.returncode == 0, result.stderr
            outputs[args[0]] = json.loads(result.stdout)
        assert outputs["find-order"] == {"order": [0, 1, 2]}
        assert outputs["check-chain"] == {"chainable": True}
        assert outputs["kernel"]["min_size"] == 0
        assert outputs["kernel"]["minimal_sets"] == [{"f": [], "order": [0, 1, 2]}]
        assert outputs["classify-orders"]["orders"] == every_order

    def test_age_within_past_cap_is_unsupported_size(self, tmp_path):
        nine = tmp_path / "empty9.json"
        nine.write_text(json.dumps({"signature": [{"name": "E", "arity": 2}], "size": 9}))
        result = run_cli("age", "--structure", str(nine), "--n", "9", "--within", str(nine))
        assert result.returncode == 1
        assert json.loads(result.stdout)["error"] == "unsupported_size"

    def test_age_forms_and_subset(self):
        forms = json.loads(run_cli("age", "--structure", "c5.json", "--n", "2").stdout)
        assert len(forms["forms"]) == 2
        subset = json.loads(
            run_cli(
                "age", "--structure", "c4.json", "--n", "2", "--within", "c5.json"
            ).stdout
        )
        assert subset == {"age_subset": True, "n": 2}

    def test_define_success(self, tmp_path):
        # A chain is definable over the same-order companion.
        companion = {"size": 5, "order": [0, 1, 2, 3, 4], "constants": []}
        path = tmp_path / "tmp_companion5.json"
        path.write_text(json.dumps(companion))
        result = run_cli("define", "--structure", "chain5.json", "--companion", str(path))
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert list(doc["definitions"]) == ["lt"]
        assert len(doc["definitions"]["lt"]) == 1

    def test_star_eval(self, tmp_path):
        companion = {"size": 5, "order": [0, 1, 2, 3, 4], "constants": []}
        path = tmp_path / "tmp_companion5b.json"
        path.write_text(json.dumps(companion))
        result = run_cli(
            "star-eval",
            "--structure",
            "chain5.json",
            "--companion",
            str(path),
            "--formula",
            "(exists u (exists v (rel lt u v)))",
        )
        doc = json.loads(result.stdout)
        assert doc["object_value"] is True
        assert doc["companion_value"] is True
        assert doc["agree"] is True

    def test_age_sentence_eval(self):
        result = run_cli(
            "age-sentence",
            "--family",
            "edge_pair.json,empty_pair.json",
            "--keep",
            "E",
            "--eval-on",
            "c5.json",
        )
        doc = json.loads(result.stdout)
        assert doc["value"] is True
        assert doc["agree"] is True
        assert doc["formula"].startswith("(and ")

    def test_age_sentence_eval_builds_and_evaluates_the_sentence_once(self, monkeypatch, capsys):
        from chainlab import cli, logic

        calls = {"build": 0, "evaluate": 0}
        build, evaluate = logic._age_sentence, logic.eval_formula

        def counted(name, real):
            return lambda *args: calls.__setitem__(name, calls[name] + 1) or real(*args)

        monkeypatch.setattr(logic, "_age_sentence", counted("build", build))
        monkeypatch.setattr(logic, "eval_formula", counted("evaluate", evaluate))
        monkeypatch.chdir(GOLDEN)
        assert cli.main(["age-sentence", "--family", "c5.json", "--eval-on", "c5.json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["agree"], doc["value"]) == (True, True)
        assert calls == {"build": 1, "evaluate": 1}

    def test_gen_determinism(self):
        args = ("gen", "--seed", "7", "--size", "5", "--arity", "2", "--density", "0.4")
        first, second = run_cli(*args), run_cli(*args)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout

    def test_gen_density_extremes(self):
        empty = json.loads(
            run_cli("gen", "--seed", "1", "--size", "4", "--density", "0").stdout
        )
        assert empty["relations"]["E"] == []
        full = json.loads(
            run_cli("gen", "--seed", "1", "--size", "4", "--density", "1").stdout
        )
        assert len(full["relations"]["E"]) == 16

    def test_verify_single_suite(self):
        result = run_cli("verify", "--only", "profile-bound", "--seed", "3", "--cases", "20")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["ok"] is True
        assert [s["name"] for s in doc["suites"]] == ["profile-bound"]

    def test_verify_full_run(self):
        first = run_cli("verify", "--cases", "20")
        second = run_cli("verify", "--cases", "20")
        assert first.returncode == 0
        assert first.stderr == ""
        assert first.stdout == second.stdout
        doc = json.loads(first.stdout)
        assert doc["ok"] is True
        assert sorted(doc) == ["ok", "suites"]
        assert [s["name"] for s in doc["suites"]] == SUITE_NAMES
        for suite in doc["suites"]:
            assert sorted(suite) == ["cases", "examples", "failures", "name", "ok"]
            assert suite["cases"] > 0
        by_name = {s["name"]: s for s in doc["suites"]}
        for name in ("trace-isomorphism", "classification-presentation-invariance"):
            alone = run_cli("verify", "--only", name, "--cases", "20")
            assert alone.returncode == 0
            assert json.loads(alone.stdout)["suites"] == [by_name[name]]

    def test_verify_unknown_suite(self):
        result = run_cli("verify", "--only", "nonexistent")
        assert result.returncode == 1
        assert json.loads(result.stdout)["error"] == "domain_error"

    def test_pretty_flag(self):
        result = run_cli("--pretty", "profile", "--structure", "c5.json")
        assert result.returncode == 0
        assert result.stdout.startswith("{\n")


class TestFormulaFixture:
    def test_shipped_formula_round_trip(self):
        from chainlab.formulas import format_formula, parse_formula

        text = (GOLDEN / "formula.txt").read_text()
        assert format_formula(parse_formula(text)) + "\n" == text


# The chainlab modules a verb loads beyond cli, core and errors.
# Only verbs that compute canonical forms load morphism.
SEARCH_MODULES = {"chainability"}
FORM_MODULES = {"chainability", "morphism"}
LOGIC_MODULES = {"formulas", "logic"}


class TestImports:
    def test_cli_imports_only_the_standard_library(self):
        # Compare with a snapshot: site hooks may load other packages first.
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import chainlab.cli\n"
            "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "extra = sorted(loaded - set(sys.stdlib_module_names) - {'chainlab'})\n"
            "assert not extra, extra\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert result.returncode == 0, result.stderr

    def test_cli_imports_verify_only_for_the_verify_verb(self):
        code = "import sys\nimport chainlab.cli\nassert 'chainlab.verify' not in sys.modules\n"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert result.returncode == 0, result.stderr

    def test_verb_modules_load_no_class_builder(self):
        # -S keeps site hooks (.pth files) out of the snapshot.
        code = (
            "import sys\n"
            "from chainlab import cli, core, chainability, morphism, gpw, logic, formulas, corpus\n"
            "from chainlab import verify\n"
            "assert not {'dataclasses', 'inspect'} & set(sys.modules), sorted(sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert result.returncode == 0, result.stderr

    def test_bare_package_import_loads_no_submodule(self):
        code = "import sys\nimport chainlab\nassert not [n for n in sys.modules if n.startswith('chainlab.')]\n"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize(
        "args, extra",
        [
            (["kernel", "--structure", "c5.json"], SEARCH_MODULES),
            (["profile", "--structure", "c5.json"], FORM_MODULES),
            (["check-chain", "--structure", "chain5.json", "--order", "0,1,2,3,4"], SEARCH_MODULES),
            (["find-order", "--structure", "c5.json", "--f", "0"], SEARCH_MODULES),
            (["age", "--structure", "c4.json", "--n", "2", "--within", "c5.json"], FORM_MODULES),
            (["classify-orders", "--structure", "pentagon.json"], SEARCH_MODULES | {"gpw"}),
            (["define", "--structure", "chain5.json", "--companion", "natural5"], LOGIC_MODULES),
            (
                ["star-eval", "--structure", "chain5.json", "--companion", "natural5"]
                + ["--formula", "(exists u (rel lt u v))", "--assign", "v=3"],
                LOGIC_MODULES,
            ),
            (
                ["age-sentence", "--family", "edge_pair.json,empty_pair.json", "--keep", "E"]
                + ["--eval-on", "c5.json"],
                LOGIC_MODULES | {"morphism"},
            ),
            (["gen", "--seed", "1", "--size", "4"], {"corpus"}),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else None,
    )
    def test_each_verb_imports_only_its_modules(self, tmp_path, args, extra):
        companion = tmp_path / "natural5.json"
        companion.write_text(json.dumps({"size": 5, "order": [0, 1, 2, 3, 4], "constants": []}))
        args = [str(companion) if a == "natural5" else a for a in args]
        code = (
            "import contextlib, io, sys\n"
            "import chainlab.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = chainlab.cli.main(sys.argv[1:])\n"
            "print(code, *sorted(n for n in sys.modules if n.startswith('chainlab.')))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, *args],
            capture_output=True,
            text=True,
            cwd=GOLDEN,
            env=child_env(),
        )
        assert result.returncode == 0, result.stderr
        exit_code, *loaded = result.stdout.split()
        assert exit_code == "0"
        assert set(loaded) == {f"chainlab.{m}" for m in {"cli", "core", "errors"} | extra}
