import argparse
import json
import os
import subprocess
import sys

import pytest

from spaceforms import cli, groups, theorems
from spaceforms.characters import TableDerivationError
from spaceforms.cli import main
from spaceforms.groups import ContractViolation

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_order(capsys):
    code, out, _ = run(capsys, "group", "2I", "order")
    assert code == 0 and out.strip() == "120"


def test_group_alias(capsys):
    code, out, _ = run(capsys, "group", "Y'", "order")
    assert code == 0 and out.strip() == "120"


def test_group_classes(capsys):
    code, out, _ = run(capsys, "group", "2T", "classes")
    assert code == 0
    assert "7 conjugacy classes" in out
    assert "[T^5]=[S]" in out


def test_group_chartab_cyclic(capsys):
    code, out, _ = run(capsys, "group", "Z6", "chartab")
    assert code == 0
    assert "w^5" in out


def test_induce_examples(capsys):
    code, out, _ = run(capsys, "induce", "2I", "--gen", "S", "--r", "3")
    assert code == 0 and out.strip() == "3^(S) = 2x4s + 2x6s"
    code, out, _ = run(capsys, "induce", "2O", "--gen", "R", "--r", "1")
    assert code == 0 and out.strip() == "1^(R) = 2s + 2s' + 2x4s"
    code, out, _ = run(capsys, "induce", "2T", "--gen", "RST", "--r", "0")
    assert code == 0 and out.strip() == "0^(RST) = 1 + 1' + 1'' + 3x3"


def test_induce_out_of_range(capsys):
    code, _, err = run(capsys, "induce", "2T", "--gen", "T", "--r", "6")
    assert code == 2
    assert "out of range" in err


def test_bad_selector(capsys):
    code, _, err = run(capsys, "group", "2X", "order")
    assert code == 2
    assert "unknown group selector" in err


def test_unknown_irrep_lists_valid_names(capsys):
    code, _, err = run(capsys, "spectrum", "2T", "--irrep", "4s", "--nmax", "4")
    assert code == 2
    assert "valid names" in err and "2s''" in err


def test_torsion(capsys):
    code, out, _ = run(capsys, "torsion", "--q", "6", "--r", "3")
    assert code == 0
    assert out.startswith("torsion(q=6, r=3) = 4")
    code, out, _ = run(capsys, "torsion", "--q", "4", "--r", "1",
                       "--format", "json")
    doc = json.loads(out)
    assert doc["value"] == 2.0 and doc["schema"] == "spaceforms/1"


def test_torsion_untwisted_rejected(capsys):
    code, _, err = run(capsys, "torsion", "--q", "6", "--r", "0")
    assert code == 2


def test_mckay_dot(capsys):
    code, out, _ = run(capsys, "mckay", "2O", "--format", "dot")
    assert code == 0
    assert "E7~" in out and out.count(" -- ") == 7


def test_mckay_class_version(capsys):
    code, out, _ = run(capsys, "mckay", "2T", "--class-version")
    assert code == 0
    assert "reflection: S" in out or "reflection: T" in out


def test_spectrum_modes(capsys):
    code, out, _ = run(capsys, "spectrum", "Z6", "--r", "1", "--nmax", "6",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "level,eigenvalue,degeneracy"
    code, out, _ = run(capsys, "spectrum", "2I", "--irrep", "4s", "--nmax", "8",
                       "--format", "json")
    doc = json.loads(out)
    assert doc["kind"] == "degeneracy_series"
    code, out, _ = run(capsys, "spectrum", "2T", "--gen", "T", "--r", "1",
                       "--nmax", "10", "--weight", "heat", "--param", "0.5")
    assert code == 0 and "heat sum" in out


def test_spectrum_weight_needs_param(capsys):
    code, _, err = run(capsys, "spectrum", "2T", "--nmax", "4",
                       "--weight", "heat")
    assert code == 2 and "--param" in err


def test_counting_past_the_series_is_refused(capsys):
    # a count to lambda = 10000 needs levels up to n = 99; ten levels used
    # to print 1.0 with exit 0, where the true count is 2736
    code, out, err = run(capsys, "spectrum", "2I", "--irrep", "1", "--nmax", "10",
                         "--weight", "counting", "--param", "10000",
                         "--format", "json")
    assert code == 2 and out == "" and "--nmax 99" in err
    counts = []
    for nmax in ("99", "400"):
        code, out, _ = run(capsys, "spectrum", "2I", "--irrep", "1", "--nmax", nmax,
                           "--weight", "counting", "--param", "10000",
                           "--format", "json")
        assert code == 0
        counts.append(json.loads(out)["weighted_sum"]["value"])
    assert counts == [2736.0, 2736.0]


def test_csv_refuses_a_weight(capsys):
    # csv holds the series only; a requested sum used to be dropped silently
    code, out, err = run(capsys, "spectrum", "2T", "--irrep", "1", "--nmax", "3",
                         "--weight", "heat", "--param", "0.5", "--format", "csv")
    assert code == 2 and out == "" and "--weight" in err and "csv" in err


def test_json_documents_deterministic(capsys):
    one = run(capsys, "group", "2T", "classes", "--format", "json")
    two = run(capsys, "group", "2T", "classes", "--format", "json")
    assert one == two
    doc = json.loads(one[1])
    assert doc["schema"] == "spaceforms/1"


def test_cache_roundtrip(capsys, tmp_path):
    cache = str(tmp_path / "groups")
    code, out1, _ = run(capsys, "--cache", cache, "group", "2T", "classes")
    assert code == 0
    assert (tmp_path / "groups" / "2T.json").exists()
    code, out2, _ = run(capsys, "--cache", cache, "group", "2T", "classes")
    assert code == 0 and out1 == out2


def test_cache_refuses_a_file_holding_another_group(capsys, tmp_path):
    assert run(capsys, "--cache", str(tmp_path), "group", "2T", "order")[0] == 0
    doc = json.loads((tmp_path / "2T.json").read_text())
    (tmp_path / "2I.json").write_text(json.dumps(doc))
    for argv in (["group", "2I", "order"], ["induce", "Y'", "--format", "json"]):
        code, out, err = run(capsys, "--cache", str(tmp_path), *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "holds 2T" in err
    # the right name is not enough: the presentation must match too
    doc["name"] = "2I"
    (tmp_path / "2I.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "--cache", str(tmp_path), "group", "2I", "order")
    assert code == 2 and out == "" and "presentation (2, 3, 3)" in err
    # a JSON document that is not an object at all
    (tmp_path / "2I.json").write_text("[1]")
    code, out, err = run(capsys, "--cache", str(tmp_path), "group", "2I", "order")
    assert code == 2 and out == "" and "not a group document" in err


def test_malformed_cache_documents_are_usage_errors_naming_the_file(capsys, tmp_path):
    assert run(capsys, "--cache", str(tmp_path), "group", "2T", "order")[0] == 0
    path = tmp_path / "2T.json"
    good = json.loads(path.read_text())
    half = {k: v[:4] for k, v in good["generators"].items()}
    for doc in ({"schema": "spaceforms/1", "kind": "group", "name": "2T",
                 "presentation": [2, 3, 3]},
                {**good, "generators": {}},
                {**good, "generators": half},
                {**good, "generators": "x"}):
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "--cache", str(tmp_path), "group", "2T", "order")
        assert code == 2 and out == ""
        assert err.startswith(f"error: cache file {str(path)!r}: field 'generators' ")


def _store_triple(tmp_path, G, r, s, t):
    """Write G's cache document with the lattice quaternions of its
    elements r, s and t as R, S and T."""
    path = tmp_path / f"{G.name}.json"
    doc = groups.group_to_json(G)
    d = groups.radicand(G.presentation[2])
    doc["generators"] = {k: list(groups.lattice_quat(G.elements[x], d))
                         for k, x in zip("RST", (r, s, t))}
    path.write_text(json.dumps(doc))
    return path


def test_cache_with_a_triple_of_the_other_inner_class_is_refused(capsys, tmp_path,
                                                                 g2i):
    # the elements R, S, T = 117, 2, 102 satisfy R^2 = S^3 = T^5 = RST = -E
    # in 2I, but T is the rotation by 3pi/5, not pi/5, so the twists of <T>
    # would be measured against another generator than the classical
    # tables assume
    path = _store_triple(tmp_path, g2i, 117, 2, 102)
    code, out, err = run(capsys, "--cache", str(tmp_path), "spectrum", "2I",
                         "--irrep", "2s", "--nmax", "3")
    assert code == 2 and out == ""
    assert err.startswith(f"error: cache file {str(path)!r}: field 'generators' ")
    assert "T is not the rotation by pi/5" in err


def test_cache_whose_generators_break_the_relations_is_refused(capsys, tmp_path,
                                                               g2i):
    # element 5 has order 5, so R^2 = RST fails; read off a file that named
    # it as R the lens spectrum of <R> was d_1 = 0, d_2 = 3 with exit 0,
    # against d_1 = 2, d_2 = 0 for the built group
    S, T = g2i.generators["S"], g2i.generators["T"]
    path = _store_triple(tmp_path, g2i, 5, S, T)
    code, out, err = run(capsys, "--cache", str(tmp_path), "spectrum", "2I",
                         "--gen", "R", "--r", "1", "--nmax", "8")
    assert code == 2 and out == ""
    assert err.startswith(f"error: cache file {str(path)!r}: field 'generators' ")
    assert "relation R^2 = RST fails" in err


def test_cache_whose_triple_is_galois_conjugated_is_refused(capsys, tmp_path, g2i):
    # sqrt 5 -> -sqrt 5 on all three generators keeps every relation, but
    # tr T becomes 2cos(3pi/5); on T alone it breaks the relations
    good = groups.group_to_json(g2i)
    conj = {k: [-v if i % 2 else v for i, v in enumerate(q)]
            for k, q in good["generators"].items()}
    path = tmp_path / "2I.json"
    for gens, check in ((conj, "T is not the rotation by pi/5"),
                        ({**good["generators"], "T": conj["T"]}, "relation")):
        path.write_text(json.dumps({**good, "generators": gens}))
        code, out, err = run(capsys, "--cache", str(tmp_path), "group", "2I", "order")
        assert code == 2 and out == ""
        assert err.startswith(f"error: cache file {str(path)!r}: field 'generators' ")
        assert check in err


def _table_document(G, swap_classes=False):
    """G in the cache format that stored every quaternion and the table,
    optionally with each x of [T^2] trading quaternions with x^2 of [T^4]."""
    elements = [[{"num": list(c.num), "den": c.den} for c in (e.w, e.x, e.y, e.z)]
                for e in G.elements]
    if swap_classes:
        for x in G.classes[G.class_by_label["T^2"]]:
            x2 = G.mult[x][x]
            elements[x], elements[x2] = elements[x2], elements[x]
    return {"schema": "spaceforms/1", "kind": "group", "name": G.name,
            "presentation": list(G.presentation), "elements": elements,
            "mult_table": [list(row) for row in G.mult],
            "generators": dict(G.generators)}


def test_cache_whose_quaternions_are_galois_swapped_is_refused(capsys, tmp_path, g2i):
    # a file that stored every quaternion and the table could trade [T^2]
    # with [T^4] along x <-> x^2, which on these classes is sqrt 5 ->
    # -sqrt 5: group 2I order then exited 0.  A document now stores only
    # R, S and T, so a file in that format, genuine or swapped, is refused
    # naming the field that changed
    path = tmp_path / "2I.json"
    for swap in (False, True):
        path.write_text(json.dumps(_table_document(g2i, swap)))
        code, out, err = run(capsys, "--cache", str(tmp_path), "group", "2I", "order")
        assert code == 2 and out == ""
        assert err.startswith(f"error: cache file {str(path)!r}: field 'generators' ")


def test_contract_violation_while_filling_the_cache_is_internal(capsys, tmp_path,
                                                               monkeypatch):
    # only reading a cache file is checked as outside input; a fault while
    # building the group to store keeps its own exit code
    def broken(name):
        raise ContractViolation(f"{name} identity fails")

    monkeypatch.setattr(groups, "binary_polyhedral", broken)
    code, out, err = run(capsys, "--cache", str(tmp_path), "group", "2T", "order")
    assert code == 3 and out == ""
    assert err == "internal contract violation: 2T identity fails\n"
    assert not (tmp_path / "2T.json").exists()


def test_a_singular_system_inside_verify_matrices_is_internal(capsys, monkeypatch):
    # the reference systems are invertible, so a solver that finds no pivot
    # is a fault of the library, not a usage error
    monkeypatch.setattr(theorems, "rref", lambda rows, modulus: (rows, []))
    code, out, err = run(capsys, "verify", "matrices")
    assert code == 3 and out == ""
    assert err.startswith("internal contract violation: verify matrices: singular system")


def test_a_broken_homomorphism_inside_verify_induced_matrices_is_internal(
        capsys, monkeypatch):
    # an induced monomial representation that is not a homomorphism on H
    # is a fault of the library, not a usage error; omega^r is one exactly
    # when the cyclic subgroup is in power order, so that check is broken
    from spaceforms import induction
    monkeypatch.setattr(induction, "_in_power_order", lambda sub: False)
    code, out, err = run(capsys, "verify", "induced-matrices")
    assert code == 3 and out == ""
    assert err.startswith("internal contract violation: verify induced-matrices: "
                          "inducing map is not a homomorphism")


def test_an_induced_trace_mismatch_fails_naming_the_class(capsys, monkeypatch):
    # an Ind omega^r that is off by one at [-E] is a false fact, not a
    # fault: every induced_matrices verdict FAILs naming the class and both
    # traces, and the run exits 1
    from spaceforms import induction
    from spaceforms.characters import ClassFunction
    real = induction._twist_character

    def off_at_minus_e(G, gen, r):
        f = real(G, gen, r)
        return ClassFunction(G, (f.values[0], f.values[1] + 1) + f.values[2:])

    monkeypatch.setattr(induction, "_twist_character", off_at_minus_e)
    code, out, err = run(capsys, "verify", "induced-matrices")
    assert code == 1 and err == ""
    verdicts = [line for line in out.splitlines() if ":induced_matrices:" in line]
    assert len(verdicts) == 60
    for line in verdicts:
        status, key, detail = line.split(maxsplit=2)
        name, _, twist = key.split(":")
        r, gen = twist.split(";")
        got = real(groups.binary_polyhedral(name), gen, int(r)).values[1]
        assert status == "FAIL"
        assert detail == f"[[-E]: trace {got} != Ind w^r {got + 1}]"


def test_table_derivation_error_is_internal(capsys, monkeypatch):
    # a checked group whose table cannot be derived is a fault of the
    # library, not a failed verification: exit 3, no traceback
    def broken(G):
        raise TableDerivationError(f"{G.name}: the McKay graph is not connected")

    monkeypatch.setattr(cli, "character_table", broken)
    code, out, err = run(capsys, "group", "2T", "chartab")
    assert code == 3 and out == ""
    assert err == "internal contract violation: 2T: the McKay graph is not connected\n"


def test_cache_naming_a_regular_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "not-a-directory"
    path.write_text("")
    code, out, err = run(capsys, "--cache", str(path), "group", "2T", "order")
    assert code == 2 and out == ""
    assert err.startswith("error: cache ")
    assert path.read_text() == ""


def test_verify_subsets(capsys):
    code, out, _ = run(capsys, "verify", "torsion")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "verify", "sunada", "--nmax", "20")
    assert code == 0
    code, out, _ = run(capsys, "verify", "isospectral", "--nmax", "12")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 60 and all(l.startswith("PASS") for l in lines)


def test_verify_torsion_builds_no_group(capsys, tmp_path):
    code, out, _ = run(capsys, "--cache", str(tmp_path), "verify", "torsion")
    assert code == 0 and out.startswith("PASS  torsion:anchors")
    assert list(tmp_path.iterdir()) == []


def test_verify_resolves_each_group_its_items_read_once(capsys, tmp_path,
                                                         monkeypatch):
    calls = []
    resolve = cli.resolve_group

    def recording(selector, cache=None):
        calls.append(selector)
        return resolve(selector, cache)

    monkeypatch.setattr(cli, "resolve_group", recording)
    for argv, want in ((["verify", "sunada", "--nmax", "4"], ["2T"]),
                       (["verify", "torsion"], []),
                       (["--cache", str(tmp_path), "verify", "all", "--nmax", "4"],
                        ["2T", "2O", "2I", "Z2", "Z4", "Z6"])):
        calls.clear()
        run(capsys, *argv)
        assert calls == want, argv


def test_verify_choices_come_from_the_registry(capsys, monkeypatch):
    def probe(gs, n_max):
        return [theorems.CheckResult(f"{len(gs)}:probe:{n_max}", True)]

    monkeypatch.setitem(theorems.VERIFY_ITEMS, "probe", ((), probe))
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    item = next(a for a in sub.choices["verify"]._actions if a.dest == "item")
    assert item.choices == ["all", *theorems.VERIFY_ITEMS]
    code, out, _ = run(capsys, "verify", "probe", "--nmax", "3")
    assert code == 0 and out == "PASS  0:probe:3\n1/1 checks passed\n"


def test_verify_relations_reports_known_discrepancies(capsys):
    code, out, _ = run(capsys, "verify", "relations", "--nmax", "20")
    assert code == 1
    assert "FAIL  2T:central:spin3half_printed" in out
    assert "FAIL  2I:central:spin2_printed" in out
    assert "PASS  2I:central:spin2_actual" in out


def test_a_wrong_reference_row_fails_its_table_verdict(capsys, monkeypatch):
    # the reference rows are checked data, not the source of the names: a
    # slip in one FAILs the verdict of its column, naming the first row
    # that differs, and every other verdict still passes
    from spaceforms._reference_tables import REFERENCE_INDUCTIONS
    rows = REFERENCE_INDUCTIONS["2T"]["R"]
    monkeypatch.setitem(REFERENCE_INDUCTIONS["2T"], "R",
                        [{"1": 1, "1'": 1, "1''": 1, "3": 2}] + rows[1:])
    code, out, _ = run(capsys, "verify", "tables")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL  2T:table:R  [r = 0: derived {'1': 1, \"1'\": 1, \"1''\": 1, '3': 1}, "
        "listed {'1': 1, \"1'\": 1, \"1''\": 1, '3': 2}]"]


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "dimension", "--nmax", "12",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0 and doc["total"] == 3


def test_negative_nmax_is_usage_error(capsys):
    # used to check zero levels and report 3/3 PASS, or print "levels 0..-1"
    code, out, err = run(capsys, "verify", "dimension", "--nmax", "-3")
    assert code == 2 and out == "" and "--nmax" in err
    code, out, err = run(capsys, "spectrum", "2T", "--irrep", "1",
                         "--nmax", "-2")
    assert code == 2 and out == "" and "--nmax" in err


def test_non_finite_param_is_usage_error(capsys):
    for weight, param in (("heat", "nan"), ("heat", "inf"), ("zeta", "inf"),
                          ("counting", "-inf")):
        code, out, err = run(capsys, "spectrum", "2T", "--nmax", "4",
                             "--weight", weight, f"--param={param}",
                             "--format", "json")
        assert code == 2 and out == "" and "--param" in err


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_spectrum_json_is_standard_with_infinite_tail_bound(capsys):
    # a tiny heat parameter leaves no finite geometric tail bound
    code, out, _ = run(capsys, "spectrum", "2T", "--nmax", "4", "--weight",
                       "heat", "--param", "1e-9", "--format", "json")
    assert code == 0
    doc = _strict_json(out)
    assert doc["weighted_sum"]["truncation_bound"] is None
    code, out, _ = run(capsys, "spectrum", "2T", "--nmax", "4", "--weight",
                       "heat", "--param", "1e-9")
    assert code == 0 and "tail bound inf" in out


def test_zeta_sum_prints_its_tail_bound(capsys):
    argv = ("spectrum", "2O", "--irrep", "4s", "--nmax", "50", "--weight",
            "zeta", "--param", "2.5")
    code, out, _ = run(capsys, *argv, "--format", "json")
    bound = _strict_json(out)["weighted_sum"]["truncation_bound"]
    # dim (4/3)^s (n_max + 1)^(3 - 2s) / (2s - 3)
    assert code == 0 and bound == pytest.approx(4 * (4 / 3) ** 2.5 * 51 ** -2 / 2)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and f"(tail bound {bound:.3e})" in out


def _python(code):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=300)


def test_cli_import_does_not_load_numpy():
    proc = _python("import sys, spaceforms.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


COLD_COMMANDS = (("group", "2I", "chartab"), ("induce", "2I"),
                 ("spectrum", "2I", "--irrep", "2s", "--nmax", "20"),
                 ("mckay", "2I"))


# the oracle counts over GF(p), so the whole harness runs without numpy;
# `verify all` exits 1 on the three printed claims it refutes
NUMPY_FREE_COMMANDS = tuple((argv, 0) for argv in COLD_COMMANDS) + (
    (("verify", "oracle"), 0), (("verify", "all", "--nmax", "60"), 1))


def test_cli_runs_without_numpy(capsys):
    # a None entry in sys.modules makes every `import numpy` fail
    commands = [argv for argv, _ in NUMPY_FREE_COMMANDS]
    script = "\n".join((
        "import contextlib, io, json, sys",
        "sys.modules['numpy'] = None",
        "from spaceforms.cli import main",
        "out = []",
        f"for argv in {commands!r}:",
        "    buf = io.StringIO()",
        "    with contextlib.redirect_stdout(buf):",
        "        code = main(list(argv))",
        "    out.append([code, buf.getvalue()])",
        "print(json.dumps(out))"))
    proc = _python(script)
    assert proc.returncode == 0, proc.stderr
    for (argv, want), got in zip(NUMPY_FREE_COMMANDS, json.loads(proc.stdout)):
        code, out, _ = run(capsys, *argv)
        assert code == want and got == [code, out], argv


def test_verify_oracle_passes(capsys):
    code, out, _ = run(capsys, "verify", "oracle")
    assert code == 0 and "FAIL" not in out and "PASS" in out


@pytest.mark.parametrize("group, twist, level", [("2O", "3'", 4), ("Z6", 5, 8)])
def test_a_series_off_by_one_fails_the_oracle_naming_both(capsys, monkeypatch,
                                                          group, twist, level):
    # the oracle item compares the GF(p) count with the series every other
    # verdict reads, so one wrong series entry fails it, naming both values
    real = theorems.degeneracy_series

    def series(G, tw, n_max):
        s = real(G, tw, n_max)
        if (G.name, tw) != (group, twist):
            return s
        entries = list(s.entries)
        entries[level] += 1
        return type(s)(s.twist, tuple(entries))

    monkeypatch.setattr(theorems, "degeneracy_series", series)
    right = real(cli.resolve_group(group), twist, level)[level]
    code, out, _ = run(capsys, "verify", "oracle")
    assert code == 1
    assert (f"FAIL  {group}:oracle  [twist {twist} level {level}: "
            f"oracle {right} != {right + 1}]") in out
    assert out.count("FAIL") == 1
