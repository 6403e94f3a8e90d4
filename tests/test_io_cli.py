"""Wire formats and the command line interface."""

import json
import re

import mpmath as mp
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from cluster_reduce import (
    GramMatrix,
    HermitianForm,
    MultiPoly,
    PointCluster,
    ProjectivePoint,
    UnimodularTransform,
    classify,
    reduce_ternary_form,
    substitute,
)
from cluster_reduce import io as cio
from cluster_reduce.cli import main
from cluster_reduce.errors import InputFormatError
from cluster_reduce.pipelines import MAX_BINARY_DEGREE, MAX_TERNARY_DEGREE

from conftest import GATE_FAILURE_AT_212, PENCIL_CUBIC, PENCIL_Q1, PENCIL_Q2


def cluster_of(*coords):
    return PointCluster(tuple(ProjectivePoint(c) for c in coords))


# x0^5 - x0^4 x1 - 2 x0^3 x1^2 + x0 x1^4 + 3 x1^5 substituted by
# [[a, a-1], [a+1, a]], a = 10^12: its roots agree to about 1e-24
_A = 10**12
QUINTIC = substitute(
    MultiPoly.from_dict(2, {(5, 0): 1, (4, 1): -1, (3, 2): -2, (1, 4): 1, (0, 5): 3}),
    ((_A, _A - 1), (_A + 1, _A)),
)


class TestJsonRoundTrips:
    def test_cluster(self):
        Z = cluster_of((1, mp.mpc(2, -1), 0), (0, 1, mp.mpf("0.5")))
        data = cio.cluster_to_json(Z)
        assert data["n"] == 2
        back = cio.cluster_from_json(json.dumps(data))
        assert back == Z

    def test_cluster_accepts_exact_strings(self):
        data = {"n": 1, "points": [["3", "0"], [["1/2", "0"], ["1", "0"]]]}
        # first point given as bare strings, second as [re, im] pairs
        data = {"n": 1, "points": [[["3", "0"], ["4", "0"]], ["1/2", "1"]]}
        back = cio.cluster_from_json(data)
        assert back.points[0] == ProjectivePoint((3, 4))
        assert back.points[1] == ProjectivePoint((mp.mpf("0.5"), 1))

    def test_hermitian(self):
        H = HermitianForm(((2, mp.mpc("0.25", 1)), (mp.mpc("0.25", -1), 3)))
        doc = json.loads(json.dumps(cio.hermitian_to_json(H)))
        assert doc["n"] == 1
        back = [[mp.mpc(mp.mpf(re), mp.mpf(im)) for re, im in row] for row in doc["matrix"]]
        assert back == [list(row) for row in H.matrix]

    def test_gram(self):
        G = GramMatrix(((2, mp.mpf("0.5")), (mp.mpf("0.5"), 3)))
        doc = json.loads(json.dumps(cio.gram_to_json(G)))
        assert doc["n"] == 1
        assert [[mp.mpf(v) for v in row] for row in doc["matrix"]] == [list(row) for row in G.matrix]

    def test_transform(self):
        U = UnimodularTransform(((1, 5), (0, 1)))
        doc = json.loads(json.dumps(cio.transform_to_json(U)))
        assert [[int(v) for v in row] for row in doc] == [list(row) for row in U.matrix]

    @pytest.mark.parametrize(
        "entry", [1.5, float("inf"), float("nan"), True, 2.0**53], ids=["1.5", "inf", "nan", "true", "2^53"]
    )
    def test_poly_coefficients_are_integers(self, entry):
        # an integral number is an integer; anything else is malformed, not truncated
        assert cio.poly_from_json('{"nvars": 2, "terms": [{"exp": [1.0, 0], "coeff": 5}]}') == MultiPoly.from_dict(
            2, {(1, 0): 5}
        )
        with pytest.raises(InputFormatError):
            cio.poly_from_json(json.dumps({"nvars": 2, "terms": [{"exp": [1, 0], "coeff": entry}]}))

    @pytest.mark.parametrize(
        "entry", [1.5, float("inf"), float("nan"), True, 2.0**53], ids=["1.5", "inf", "nan", "true", "2^53"]
    )
    def test_poly_exponents_are_integers(self, entry):
        with pytest.raises(InputFormatError):
            cio.poly_from_json(json.dumps({"nvars": 2, "terms": [{"exp": [entry, 0], "coeff": 5}]}))

    @pytest.mark.parametrize(
        "data",
        [
            {"nvars": 2, "terms": [{"exp": [1], "coeff": 1}]},
            {"nvars": 2, "terms": [{"exp": [1, -1], "coeff": 1}]},
            {"nvars": 2, "terms": [{"exp": [1, 0]}]},
            {"nvars": 2, "terms": [{"exp": [1, 0], "coeff": "1/0"}]},
            {"terms": [{"exp": [1, 0], "coeff": 1}]},
            {"nvars": 2, "terms": 5},
        ],
        ids=["exponent-length", "negative-exponent", "no-coeff", "zero-denominator", "no-nvars", "terms-number"],
    )
    def test_malformed_poly(self, data):
        with pytest.raises(InputFormatError):
            cio.poly_from_json(data)

    def test_poly(self):
        back = cio.poly_from_json(cio.poly_to_json(PENCIL_CUBIC))
        assert back == PENCIL_CUBIC

    def test_poly_text_or_json(self):
        assert cio.poly_from_any("x^2 - y^2", nvars=2) == MultiPoly.from_dict(
            2, {(2, 0): 1, (0, 2): -1}
        )
        assert cio.poly_from_any(json.dumps(cio.poly_to_json(PENCIL_CUBIC))) == PENCIL_CUBIC

    @pytest.mark.parametrize(
        "reader, data",
        [
            (cio.cluster_from_json, {"n": 0, "points": "123"}),
            (cio.cluster_from_json, {"n": 1, "points": ["12", "34", "11"]}),
            (cio.poly_from_json, {"nvars": 2, "terms": "ab"}),
            (cio.poly_from_json, {"nvars": 2, "terms": [{"exp": "10", "coeff": 1}]}),
        ],
        ids=["cluster-points", "cluster-rows", "poly-terms", "poly-exponent"],
    )
    def test_strings_are_not_lists(self, reader, data):
        # a string where a list is expected is malformed, never read one
        # character per entry
        with pytest.raises(InputFormatError):
            reader(data)

    @pytest.mark.parametrize(
        "reader, data",
        [
            (cio.cluster_from_json, {"n": 1, "points": [[True, False], ["0", "1"], ["1", "1"]]}),
            (cio.cluster_from_json, {"n": 1, "points": [[["1", True], "0"], ["0", "1"], ["1", "1"]]}),
            (cio.cluster_from_json, {"n": True, "points": [["1", "0"], ["0", "1"]]}),
            (cio.poly_from_json, {"nvars": True, "terms": [{"exp": [1], "coeff": 1}]}),
            (cio.poly_from_json, {"nvars": 2, "terms": [{"exp": [True, False], "coeff": 1}]}),
        ],
        ids=["cluster", "cluster-imaginary-part", "cluster-n", "poly-nvars", "poly-exponent"],
    )
    def test_booleans_are_not_numbers_in_json(self, reader, data):
        with pytest.raises(InputFormatError):
            reader(data)
        # the same document with numbers is read
        numbers = json.loads(json.dumps(data).replace("true", "1").replace("false", "0"))
        reader(numbers)

    @pytest.mark.parametrize(
        "reader, data",
        [
            (cio.cluster_from_json, {"n": 0, "points": [["1j"]]}),
            (cio.cluster_from_json, {"n": 0, "points": [[["1", "1j"]]]}),
            (cio.poly_from_json, {"nvars": 1, "terms": [{"exp": [1], "coeff": "1j"}]}),
            (cio.poly_from_json, {"nvars": 1, "terms": [{"exp": ["1j"], "coeff": 1}]}),
        ],
        ids=["cluster", "cluster-imaginary-part", "poly-coeff", "poly-exponent"],
    )
    def test_complex_strings_are_not_real_numbers(self, reader, data):
        # a complex entry is a [re, im] pair of reals
        with pytest.raises(InputFormatError):
            reader(data)

    def test_complex_entry_of_three_parts_rejected(self):
        with pytest.raises(InputFormatError, match=r"must be a \[re, im\] pair"):
            cio.cluster_from_json({"n": 0, "points": [[["1", "0", "0"]]]})

    def test_report_of_an_unknown_reduced_object_rejected(self):
        import dataclasses

        from cluster_reduce import reduce_cluster

        report = reduce_cluster(cluster_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
        with pytest.raises(TypeError, match="cannot serialize reduced object"):
            cio.report_to_json(dataclasses.replace(report, reduced=object()))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ProjectivePoint((True, 1)),
            lambda: ProjectivePoint(((1, False), 1)),
            lambda: HermitianForm(((True, 0), (0, 1))),
            lambda: GramMatrix(((True, 0), (0, 1))),
        ],
        ids=["point", "point-imaginary-part", "hermitian", "gram"],
    )
    def test_booleans_are_not_numbers_in_constructors(self, build):
        with pytest.raises(InputFormatError):
            build()

    def test_bad_cluster_rejected(self):
        with pytest.raises(InputFormatError):
            cio.cluster_from_json({"points": [[["1", "0"]]]})
        with pytest.raises(InputFormatError):
            cio.cluster_from_json({"n": 2, "points": [[["1", "0"], ["0", "0"]]]})


# Generated input for the parsers. Numbers include zero denominators and
# non-finite values; variable names stay in x0..x5 and the aliases, since the
# command line parses every form with a fixed variable count.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_FRACTION = st.builds("{}/{}".format, st.integers(-99, 99), st.integers(0, 9))
_REAL = st.one_of(
    st.integers(-(10**6), 10**6),
    st.floats(),
    _FRACTION,
    st.sampled_from(["nan", "inf", "-inf", "1e5", "2.5", "1j"]),
)
_MONOMIAL = st.lists(
    st.tuples(st.sampled_from(["x", "y", "z", "w", "x0", "x1", "x2", "x5"]), st.integers(0, 4)),
    max_size=3,
).map(lambda factors: " ".join(v if k == 1 else f"{v}^{k}" for v, k in factors))
_TERM = st.builds(
    "{}{} {}".format,
    st.sampled_from(["", "+ ", "- ", "-"]),
    st.one_of(st.just(""), st.integers(0, 99).map(str), _FRACTION.map(lambda f: f.lstrip("-"))),
    _MONOMIAL,
)
_POLY_JSON = st.integers(0, 3).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "nvars": st.just(n) | _REAL | _JSON,
            "terms": st.lists(
                st.fixed_dictionaries(
                    {"exp": st.lists(st.integers(-1, 4), min_size=n, max_size=n) | _JSON, "coeff": _REAL | _JSON}
                ),
                max_size=4,
            )
            | _JSON,
        }
    )
)
_CLUSTER_JSON = st.integers(0, 3).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "n": st.just(n) | _REAL | _JSON,
            "points": st.lists(
                st.lists(_REAL | st.lists(_REAL, min_size=2, max_size=2), min_size=n + 1, max_size=n + 1),
                max_size=5,
            )
            | _JSON,
        }
    )
)

# well-formed clusters of n+2..n+4 small integer points of P^1..P^3: real, so
# fixed by conjugation, and often stable, so they reach classify, the
# covariant's Newton iteration and LLL
_INTEGER_CLUSTER_JSON = st.integers(1, 3).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "n": st.just(n),
            "points": st.lists(
                st.lists(st.integers(-3, 3).map(str), min_size=n + 1, max_size=n + 1),
                min_size=n + 2,
                max_size=n + 4,
            ),
        }
    )
)

# binary forms of degree 3..6 with coefficients in [-3, 3]: stable ones, roots
# at infinity included, reach root finding, the covariant and LLL; the others
# are unstable or zero
_BINARY_FORM = st.integers(3, 6).flatmap(
    lambda d: st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1).map(
        lambda cs: MultiPoly.from_dict(2, {(d - i, i): c for i, c in enumerate(cs)})
    )
)

# pairs of ternary quadrics with coefficients in [-3, 3]: most meet in four
# distinct points and reach the pencil cubic's reduction, the intersection,
# the covariant and LLL; the others are degenerate pencils
_QUADRIC = st.lists(st.integers(-3, 3), min_size=6, max_size=6).map(
    lambda cs: MultiPoly.from_dict(3, dict(zip([(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)], cs)))
)
_QUADRIC_PAIR = st.tuples(_QUADRIC, _QUADRIC)

# ternary cubics with coefficients in [-3, 3]: most are smooth and reach the
# flexes' intersection, the covariant and LLL; the others are singular,
# reducible or zero
_TERNARY_CUBIC = st.lists(st.integers(-3, 3), min_size=10, max_size=10).map(
    lambda cs: MultiPoly.from_dict(3, dict(zip([(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)], cs)))
)


class TestMalformedInputProperties:
    """Whatever the text, the parsers return a value or raise InputFormatError,
    which the command line turns into exit 4 with one line."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.one_of(st.lists(_TERM, max_size=4).map(" ".join), _POLY_JSON.map(json.dumps), st.text(max_size=20)),
        st.sampled_from([2, 3]),
    )
    def test_poly_from_any(self, text, nvars):
        try:
            p = cio.poly_from_any(text, nvars=nvars)
        except InputFormatError:
            return
        assert isinstance(p, MultiPoly)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(_CLUSTER_JSON.map(json.dumps), _JSON.map(json.dumps), st.text(max_size=20)))
    def test_cluster_from_json(self, text):
        try:
            cluster = cio.cluster_from_json(text)
        except InputFormatError:
            return
        assert all(mp.isfinite(c) for p in cluster.points for c in p.coords)


def _assert_clean_exit(result):
    assert result.exit_code in (0, 2, 3, 4), (result.exit_code, result.stderr, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert len(result.stderr.splitlines()) <= 1 and "Traceback" not in result.stderr


class TestCliExitCodes:
    """Whatever the document, the cluster commands, reduce-binary,
    reduce-pencil and reduce-ternary end with exit 0, 2, 3 or 4, never with
    exit 1 or a traceback, and write at most one line on stderr."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.one_of(
            _INTEGER_CLUSTER_JSON.map(json.dumps),
            _CLUSTER_JSON.map(json.dumps),
            _JSON.map(json.dumps),
            st.text(max_size=20),
        ),
        st.sampled_from(["classify", "covariant", "reduce-cluster"]),
    )
    def test_cluster_commands(self, text, command):
        result = CliRunner().invoke(main, [command, "-"], input=text)
        _assert_clean_exit(result)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.one_of(
            _BINARY_FORM.map(MultiPoly.to_text),
            _BINARY_FORM.map(lambda F: json.dumps(cio.poly_to_json(F))),
            _POLY_JSON.map(json.dumps),
            _JSON.map(json.dumps),
            st.text(max_size=20),
        )
    )
    def test_reduce_binary(self, text):
        result = CliRunner().invoke(main, ["reduce-binary", "-"], input=text)
        _assert_clean_exit(result)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.one_of(
            _QUADRIC_PAIR.map(lambda qs: "\n".join(q.to_text() for q in qs)),
            _QUADRIC_PAIR.map(lambda qs: json.dumps({"q1": cio.poly_to_json(qs[0]), "q2": cio.poly_to_json(qs[1])})),
            st.fixed_dictionaries({"q1": _POLY_JSON | _JSON, "q2": _POLY_JSON | _JSON}).map(json.dumps),
            _JSON.map(json.dumps),
            st.text(max_size=20),
        )
    )
    def test_reduce_pencil(self, text):
        result = CliRunner().invoke(main, ["reduce-pencil", "-"], input=text)
        _assert_clean_exit(result)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.one_of(
            _TERNARY_CUBIC.map(MultiPoly.to_text),
            _TERNARY_CUBIC.map(lambda F: json.dumps(cio.poly_to_json(F))),
            _POLY_JSON.map(json.dumps),
            _JSON.map(json.dumps),
            st.text(max_size=20),
        )
    )
    def test_reduce_ternary(self, text):
        result = CliRunner().invoke(main, ["reduce-ternary", "-"], input=text)
        _assert_clean_exit(result)


class TestCli:
    def _write(self, tmp_path, name, content):
        p = tmp_path / name
        p.write_text(content)
        return str(p)

    def test_classify_stable(self, tmp_path):
        Z = cluster_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
        path = self._write(tmp_path, "cluster.json", json.dumps(cio.cluster_to_json(Z)))
        result = CliRunner().invoke(main, ["classify", path])
        assert result.exit_code == 0
        assert "stable: True" in result.output

    # six points of P^2, four on a line, moved by a unimodular of height 983,
    # with the third point moved off the line by 1e-20 first: its coordinates
    # carry 23 significant digits, which 53 bits drop
    MOVED = json.dumps({"n": 2, "points": [
        ["-425", "20", "104"], ["-552", "26", "135"],
        ["-977.00000000000000000983", "46.00000000000000000047", "239.00000000000000000238"],
        ["127", "-6", "-31"], ["-983", "47", "238"], ["-4478", "213", "1088"],
    ]})

    def test_classify_reads_at_the_working_precision(self, tmp_path):
        path = self._write(tmp_path, "moved.json", self.MOVED)
        # mpmath's 53 bits, as in a fresh process
        with mp.workprec(53):
            result = CliRunner().invoke(main, ["classify", path, "--prec", "212"])
        assert result.exit_code == 0, result.output
        with mp.workprec(212):
            cls = classify(cio.cluster_from_json(self.MOVED))
        # the move takes the third point off the line, so the class is stable
        assert cls.is_stable
        assert result.output.splitlines() == [
            f"split: {cls.is_split}",
            f"semi-stable: {cls.is_semi_stable}",
            f"stable: {cls.is_stable}",
        ]

    @pytest.mark.parametrize(
        "command, name",
        [("classify", "classify_cluster"), ("covariant", "minimize"), ("reduce-cluster", "reduce_cluster")],
    )
    def test_cluster_commands_keep_thirty_digits(self, tmp_path, monkeypatch, command, name):
        from cluster_reduce import cli

        digits = "1.23456789012345678901234567891"
        data = {"n": 1, "points": [["1", "0"], ["0", "1"], ["1", "1"], [digits, "1"]]}
        path = self._write(tmp_path, "cluster.json", json.dumps(data))
        seen = []
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda cluster, **kw: seen.append(cluster) or real(cluster, **kw))
        with mp.workprec(53):
            result = CliRunner().invoke(main, [command, path, "--prec", "212"])
        assert result.exit_code == 0, result.output
        with mp.workprec(212):
            assert abs(seen[0].points[3].coords[0] - mp.mpf(digits)) < mp.mpf("1e-40")

    def test_covariant_json_output(self, tmp_path):
        Z = cluster_of((1, 0), (0, 1), (1, 1), (1, -1))
        path = self._write(tmp_path, "cluster.json", json.dumps(cio.cluster_to_json(Z)))
        result = CliRunner().invoke(main, ["covariant", path, "--json", "--prec", "128"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["schema"] == "cluster-reduce/1"
        assert payload["iterations"] >= 0
        assert payload["stop"] == "tol"

    def test_covariant_unstable_exit_code(self, tmp_path):
        Z = cluster_of((1, 0), (1, 0), (0, 1))
        path = self._write(tmp_path, "cluster.json", json.dumps(cio.cluster_to_json(Z)))
        result = CliRunner().invoke(main, ["covariant", path])
        assert result.exit_code == 2

    def test_reduce_binary_text_input(self, tmp_path):
        path = self._write(tmp_path, "cubic.txt", PENCIL_CUBIC.to_text())
        result = CliRunner().invoke(main, ["reduce-binary", path])
        assert result.exit_code == 0
        assert "reduced form" in result.output

    def test_reduce_pencil_report(self, tmp_path):
        payload = {
            "q1": cio.poly_to_json(PENCIL_Q1),
            "q2": cio.poly_to_json(PENCIL_Q2),
        }
        path = self._write(tmp_path, "pencil.json", json.dumps(payload))
        report_path = str(tmp_path / "report.json")
        result = CliRunner().invoke(
            main, ["reduce-pencil", path, "--report", report_path]
        )
        assert result.exit_code == 0
        report = json.loads(open(report_path).read())
        assert report["schema"] == "cluster-reduce/1"
        assert report["kind"] == "quadric-pencil"
        assert "pencil_transform" in report
        # at 212 bits the base points' covariant stops at the resolution of
        # its iterate, about 2^-143, not at the pipelines' 2^-159
        assert report["diagnostics"]["newton_stop"] == "resolution"

    def test_reduce_ternary_text(self, tmp_path):
        path = self._write(tmp_path, "cubic.txt", "x^3 + y^3 + z^3 + x y z")
        result = CliRunner().invoke(main, ["reduce-ternary", path, "--prec", "212"])
        assert result.exit_code == 0

    @pytest.mark.parametrize(
        "command, form, bound",
        [
            ("reduce-binary", "x0^{d} + x1^{d}", MAX_BINARY_DEGREE),
            ("reduce-ternary", "x0^{d} + x1^{d} + x2^{d}", MAX_TERNARY_DEGREE),
        ],
    )
    def test_degree_bound(self, tmp_path, command, form, bound, monkeypatch):
        # at the bound the form reduces; one degree above it is an input
        # error, one line and exit 4, raised before any exact algebra
        from cluster_reduce import polyalg

        at = CliRunner().invoke(main, [command, self._write(tmp_path, "at.txt", form.format(d=bound))])
        assert at.exit_code == 0, at.output
        monkeypatch.setattr(polyalg.MultiPoly, "to_sympy", None)
        above = CliRunner().invoke(main, [command, self._write(tmp_path, "above.txt", form.format(d=bound + 1))])
        assert above.exit_code == 4
        assert above.output.splitlines() == [f"input error: {command[7:]} form of degree {bound + 1} is above the bound of {bound}"]

    def test_report_carries_theta_and_nodes(self, tmp_path):
        Z = cluster_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 5, 1))
        path = self._write(tmp_path, "cluster.json", json.dumps(cio.cluster_to_json(Z)))
        result = CliRunner().invoke(main, ["reduce-cluster", path, "--json"])
        assert result.exit_code == 0
        diag = json.loads(result.output)["diagnostics"]
        assert mp.mpf(diag["theta"]) > 0
        assert "nodes" not in diag
        # one plain node at (0:0:1)
        path = self._write(tmp_path, "nodal.txt", "x y z^2 + x^3 z + y^3 z + x^4 + y^4")
        result = CliRunner().invoke(main, ["reduce-ternary", path, "--json"])
        assert result.exit_code == 0
        diag = json.loads(result.output)["diagnostics"]
        assert diag["nodes"] == 1
        assert "theta" not in diag

    def test_report_carries_the_preconditioning_passes(self, tmp_path):
        F = MultiPoly.from_text("x^3 + 2 y^3 - z^3 + x y z - x^2 y", nvars=3)
        V = [[2, 1, 0], [7, 4, 1], [3, 2, 2]]
        path = self._write(tmp_path, "cubic.txt", substitute(F, V).to_text())
        result = CliRunner().invoke(main, ["reduce-ternary", path, "--json"])
        assert result.exit_code == 0
        written = json.loads(result.output)["diagnostics"]["preconditioning"]
        passes = reduce_ternary_form(substitute(F, V)).diagnostics["preconditioning"]
        assert written["passes"] == passes["passes"] >= 1
        assert [int(h) for h in written["heights"]] == passes["heights"]
        assert written["stop"] == passes["stop"] == "identity"

    def test_malformed_input_exit_code(self, tmp_path):
        path = self._write(tmp_path, "bad.json", "{not json")
        result = CliRunner().invoke(main, ["classify", path])
        assert result.exit_code == 4

    @pytest.mark.parametrize(
        "command, content",
        [
            ("reduce-binary", '{"nvars": 2, "terms": [{"exp": [3, 0], "coeff": "abc"}]}'),
            ("reduce-binary", '{"nvars": 2, "terms": [{"coeff": "1"}]}'),
            ("reduce-pencil", '{"q2": "x^2 + y^2 - z^2"}'),
            ("classify", '{"n": 1, "points": [["0", "0"], ["1", "0"]]}'),
            ("reduce-binary", '{"nvars": 2, "terms": [{"exp": [3], "coeff": "1"}]}'),
            ("classify", '{"n": 1, "points": 3}'),
            ("reduce-binary", '{"nvars": 3, "terms": [{"exp": [3, 0, 0], "coeff": "1"}]}'),
            ("reduce-ternary", '{"nvars": 2, "terms": [{"exp": [3, 0], "coeff": "1"}]}'),
            ("reduce-binary", "x0^3 + 1/0 x0 x1^2 + x1^3"),
            ("reduce-binary", '{"nvars": 2, "terms": [{"exp": [3, 0], "coeff": "1/0"}]}'),
            ("classify", '{"n": 1, "points": [["1", "0"], ["0", "1"], ["nan", "1"]]}'),
            ("covariant", '{"n": 1, "points": [["1", "0"], ["0", "1"], ["1", "1"], ["nan", "1"]]}'),
            ("reduce-cluster", '{"n": 1, "points": [["1", "0"], ["0", "1"], ["1", "1"], ["inf", "1"]]}'),
            ("reduce-binary", '{"nvars": 2, "terms": [{"exp": [3, 0], "coeff": 1.5}, {"exp": [0, 3], "coeff": 1}]}'),
            ("reduce-binary", '{"nvars": 2, "terms": [{"exp": [3, 0], "coeff": true}, {"exp": [0, 3], "coeff": 1}]}'),
            ("reduce-binary", '{"nvars": 2, "terms": [{"exp": [3.5, 0], "coeff": 1}, {"exp": [0, 3], "coeff": 1}]}'),
            ("reduce-binary", '{"nvars": 2.5, "terms": [{"exp": [3, 0], "coeff": 1}, {"exp": [0, 3], "coeff": 1}]}'),
            ("classify", '{"n": 1.9, "points": [["1", "0"], ["0", "1"], ["1", "1"]]}'),
            ("reduce-cluster", '{"n": true, "points": [["1", "0"], ["0", "1"], ["1", "1"]]}'),
            ("covariant", '{"n": 0, "points": "123"}'),
            ("classify", '{"n": 1, "points": [[true, false], ["0", "1"], ["1", "1"]]}'),
            ("reduce-binary", '{"nvars": 2, "terms": [{"exp": [3, 0], "coeff": 12345678901234567891.0}, {"exp": [0, 3], "coeff": 1}]}'),
            ("reduce-ternary", "x0^3 + x0 x1^2 + x1^3"),
        ],
        ids=[
            "bad-coefficient",
            "term-without-exp",
            "pencil-without-q1",
            "zero-point",
            "short-exponent",
            "points-not-a-list",
            "binary-with-3-variables",
            "ternary-with-2-variables",
            "zero-denominator-in-text",
            "zero-denominator-in-json",
            "nan-coordinate-classify",
            "nan-coordinate-covariant",
            "inf-coordinate-reduce-cluster",
            "non-integral-coefficient",
            "boolean-coefficient",
            "non-integral-exponent",
            "non-integral-nvars",
            "non-integral-n",
            "boolean-n",
            "string-points",
            "boolean-coordinate",
            "coefficient-rounded-as-a-double",
            "cone",
        ],
    )
    def test_malformed_input_one_line_exit_4(self, tmp_path, command, content):
        path = self._write(tmp_path, "bad.json", content)
        result = CliRunner().invoke(main, [command, path])
        assert result.exit_code == 4
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error:")

    @pytest.mark.parametrize(
        "command, args",
        [
            ("reduce-cluster", ["--prec", "0"]),
            ("reduce-cluster", ["--prec", "abc"]),
            ("reduce-cluster", None),
        ],
        ids=[
            "prec-0",
            "prec-not-an-integer",
            "missing-input-path",
        ],
    )
    def test_malformed_option_one_line_exit_4(self, tmp_path, command, args):
        Z = cluster_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 5, 1))
        path = self._write(tmp_path, "cluster.json", json.dumps(cio.cluster_to_json(Z)))
        result = CliRunner().invoke(main, [command] + ([path] + args if args else []))
        assert result.exit_code == 4
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error:")

    @pytest.mark.parametrize("option", ["--tol", "--max-iter"])
    def test_covariant_takes_no_solver_options(self, tmp_path, option):
        # the solver's stop comes from the working precision: the command
        # lists no tolerance or budget, and either is an unknown option
        Z = cluster_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 5, 1))
        path = self._write(tmp_path, "cluster.json", json.dumps(cio.cluster_to_json(Z)))
        assert option not in CliRunner().invoke(main, ["covariant", "--help"]).output
        result = CliRunner().invoke(main, ["covariant", path, option, "5"])
        assert result.exit_code == 4
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error:") and option in lines[0]

    @pytest.mark.parametrize("command", ["reduce-cluster", "reduce-binary", "reduce-pencil", "reduce-ternary"])
    @pytest.mark.parametrize("option, value", [("--delta", "0.99"), ("--delta", "1.5"), ("--seed", "1")])
    def test_reduce_commands_take_no_lll_or_shear_options(self, tmp_path, command, option, value):
        # LLL's parameter is a constant and the shear sequence starts from
        # the identity: the precision is the only numeric option
        path = self._write(tmp_path, "input", "x0^3 + x1^3")
        assert option not in CliRunner().invoke(main, [command, "--help"]).output
        result = CliRunner().invoke(main, [command, path, option, value])
        assert result.exit_code == 4
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error:") and option in lines[0]

    @pytest.mark.parametrize(
        "args, code",
        [(["--bogus"], 4), ([], 0)],
        ids=["unknown-group-option", "bare-invocation"],
    )
    def test_group_level_invocation(self, args, code):
        # a parse error before the command is malformed input like any other;
        # no arguments at all ask for the help
        result = CliRunner().invoke(main, args)
        assert result.exit_code == code
        lines = result.output.splitlines()
        if code == 4:
            assert len(lines) == 1 and lines[0].startswith("input error:")
        else:
            assert lines[0].startswith("Usage:") and "reduce-pencil" in result.output

    @pytest.mark.parametrize(
        "command, content, args, code",
        [
            ("reduce-binary", "x0^3 + 2 x0^2 x1 - x0 x1^2 + 5 x1^3", [], 0),
            ("reduce-binary", "x0^2 x1", [], 2),
            ("reduce-binary", QUINTIC.to_text(), ["--prec", "180"], 3),
            ("reduce-binary", QUINTIC.to_text(), ["--prec", "300"], 0),
            ("reduce-cluster", '{"n": 1, "points": [["1", "0"], ["0", "1"], ["1", "1"], [["0", "1"], "1"]]}', [], 4),
            # two lines: the determinant cubic of the pencil vanishes
            ("reduce-pencil", "x0^2\nx1^2", [], 2),
        ],
        ids=[
            "good-cubic",
            "unstable-form",
            "quintic-short-of-precision",
            "quintic-at-300-bits",
            "complex-cluster",
            "degenerate-pencil",
        ],
    )
    def test_exit_code_and_one_line_on_stderr(self, tmp_path, command, content, args, code):
        path = self._write(tmp_path, "input", content)
        result = CliRunner().invoke(main, [command, path, *args])
        assert result.exit_code == code, result.output
        # an exception the command does not map to an exit code escapes as
        # itself, not as SystemExit
        assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
        if code == 0:
            assert result.stderr == ""
        else:
            assert len(result.stderr.splitlines()) == 1 and "Traceback" not in result.stderr

    def test_elimination_that_no_shear_resolves_exits_1(self, tmp_path, monkeypatch):
        # forced: each of the 12 projections fails as one whose center lies
        # on a curve would, and the EliminationError that ends the
        # intersection has no exit code of its own
        from cluster_reduce import polyalg

        def fails(F, G, S, d1, d2):
            raise polyalg._ShearFailure("projection center lies on a curve")

        monkeypatch.setattr(polyalg, "_intersect_with_shear", fails)
        path = self._write(tmp_path, "cubic.txt", "x0^3 + x1^3 + x2^3 + x0 x1 x2")
        result = CliRunner().invoke(main, ["reduce-ternary", path])
        assert result.exit_code == 1
        assert result.stderr.splitlines() == ["error: no projection produced a clean elimination: projection center lies on a curve"]

    def test_a_root_off_its_form_exits_3(self, tmp_path, moved_root):
        # a root moved by 2^-40 fails the residual gate at the default 212
        # bits: missing precision, as any point off its forms is
        path = self._write(tmp_path, "cubic.txt", "x0^3 + 2 x0^2 x1 - x0 x1^2 + 5 x1^3")
        result = CliRunner().invoke(main, ["reduce-binary", path])
        assert result.exit_code == 3
        (line,) = result.stderr.splitlines()
        assert re.fullmatch("convergence error: " + GATE_FAILURE_AT_212, line), line

    def test_flecnode_exits_2_naming_its_multiplicity(self, tmp_path):
        path = self._write(tmp_path, "flecnode.txt", "z^2 x^2 + z^2 y^2 + x^4 + x y^3 + 2 y^4")
        result = CliRunner().invoke(main, ["reduce-ternary", path])
        assert result.exit_code == 2
        (line,) = result.stderr.splitlines()
        assert "multiplicity 8, not 6" in line and "flecnode" in line

    def test_closed_pipe_exits_0_quietly(self, tmp_path, monkeypatch):
        # a consumer that closed the pipe is no error of the command
        from cluster_reduce import cli

        def closed(*args):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "_emit", closed)
        path = self._write(tmp_path, "cluster.json", '{"n": 1, "points": [["1", "0"], ["0", "1"], ["1", "1"]]}')
        result = CliRunner().invoke(main, ["classify", path])
        assert result.exit_code == 0 and result.output == ""

    def test_module_entry_point(self, tmp_path, monkeypatch, capsys):
        # python -m cluster_reduce.cli runs the same group as the installed script
        import runpy
        import sys
        import warnings

        path = self._write(tmp_path, "cluster.json", '{"n": 1, "points": [["1", "0"], ["0", "1"], ["1", "1"]]}')
        monkeypatch.setattr(sys, "argv", ["cluster-reduce", "classify", path])
        with warnings.catch_warnings(), pytest.raises(SystemExit) as info:
            warnings.simplefilter("ignore", RuntimeWarning)  # the module is imported already
            runpy.run_module("cluster_reduce.cli", run_name="__main__")
        assert info.value.code == 0
        assert capsys.readouterr().out.splitlines() == ["split: False", "semi-stable: True", "stable: True"]

    def test_unstable_binary_exit_code(self, tmp_path):
        path = self._write(tmp_path, "bad.txt", "x0^2 x1")
        result = CliRunner().invoke(main, ["reduce-binary", path])
        assert result.exit_code == 2
