"""One validated Instance per problem: checks and restrictions run once."""

import json
from collections import Counter

import pytest

from logfol import cli, foliations, groebner, indices, linalg
from logfol.errors import NC_VIOLATION, NOT_LOGARITHMIC, InputError
from logfol.foliations import Arrangement, Foliation, Instance
from logfol.polynomials import parse_polynomial

P2 = ["z0", "z1", "z2"]
README_TRIANGLE = {
    "n": 2,
    "foliation": ["0", "z1*(z1 - z0)", "z2*(z2 - z0)"],
    "hyperplanes": ["z0", "z1", "z2"],
    "points": [["1", "1", "1"], ["1", "0", "0"]],
}


def polys(texts, names=P2):
    return [parse_polynomial(t, names) for t in texts]


def triangle():
    return Foliation(polys(README_TRIANGLE["foliation"])), \
        Arrangement(2, polys(README_TRIANGLE["hyperplanes"]))


def chart_ideals(fol):
    return {frozenset(c for c in fol.chart_field(j) if not c.is_zero())
            for j in range(fol.n + 1)}


def count_work(monkeypatch, argv):
    """Run cli.main; count bases, Foliation builds and restrictions.

    Bases computed inside the per-point saturation route are left out:
    saturation recomputes bases of its intermediate ideals by design.
    """
    bases, built, restricted = Counter(), Counter(), Counter()
    foliations_built = []
    in_point_route = [0]

    def counted(fn, tally, key):
        def wrapper(*args):
            tally[key(*args)] += 1
            return fn(*args)
        return wrapper

    def milnor_at_point(*args):
        in_point_route[0] += 1
        try:
            return original_milnor(*args)
        finally:
            in_point_route[0] -= 1

    def basis_key(gens, nvars, order):
        return None if in_point_route[0] else (nvars, frozenset(gens), order.name)

    def foliation_key(fol, comps):
        foliations_built.append(fol)
        return tuple(comps)

    original_milnor = indices.milnor_at_point
    monkeypatch.setattr(indices, "milnor_at_point", milnor_at_point)
    monkeypatch.setattr(groebner, "_reduced_groebner",
                        counted(groebner._reduced_groebner, bases, basis_key))
    monkeypatch.setattr(Foliation, "__init__",
                        counted(Foliation.__init__, built, foliation_key))
    monkeypatch.setattr(foliations, "restrict_field",
                        counted(foliations.restrict_field, restricted,
                                lambda components, stratum: stratum.indices))
    assert cli.main(argv) == 0
    bases.pop(None, None)
    return bases, built, restricted, foliations_built


@pytest.mark.parametrize("command", [["chern", "--check-sigma"], ["verify"]])
def test_cli_builds_each_object_once(tmp_path, monkeypatch, capsys, command):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(README_TRIANGLE))
    bases, built, restricted, fols = count_work(
        monkeypatch, ["--report", "json", command[0], str(path), *command[1:]])
    capsys.readouterr()
    # no foliation is built twice: the ambient one once, each distinct
    # restricted field once
    ambient = tuple(polys(README_TRIANGLE["foliation"]))
    assert built[ambient] == 1
    assert max(built.values()) == 1
    # each stratum restriction is built at most once
    assert all(count == 1 for count in restricted.values())
    if command[0] == "verify":
        # every stratum of dimension >= 1, the ambient one included
        assert set(restricted) == {(), (0,), (1,), (2,)}
        # Each foliation builds its chart-0 basis to validate (the other
        # charts share that ideal, so there is no piece basis) and one
        # homogeneous basis of its minors for the total.  The restrictions
        # to z0 = 0 and to z1 = 0 (= z2 = 0) are two distinct foliations
        # with the same chart-0 ideal and the same minor, so each of those
        # bases is built once per foliation; no foliation builds one twice.
        assert len(fols) == 3
        x, z = ["x0", "x1"], ["z0", "z1", "z2"]
        assert bases == Counter({
            (2, frozenset(polys(["x0^2 - x0", "x1^2 - x1"], x)), "grevlex"): 1,
            (3, frozenset(polys(["z0*z1*(z1 - z0)", "z0*z2*(z2 - z0)",
                                 "z1*z2*(z2 - z1)"], z)), "grevlex"): 1,
            (1, frozenset(polys(["x0^2 - x0"], x[:1])), "grevlex"): 2,
            (2, frozenset(polys(["x0*x1*(x1 - x0)"], x)), "grevlex"): 2,
        })
    else:
        # nothing is restricted, and the three chart ideals coincide
        assert not restricted
        assert sum(bases.values()) == sum(len(chart_ideals(f)) for f in fols)
        assert list(bases.values()) == [1]


def test_restriction_is_memoized():
    inst = Instance(*triangle())
    first = inst.restriction([2])
    assert inst.restriction((2,)) is first
    assert first[0].n == 1 and first[0].degree == 2
    assert inst.restriction([])[0] is inst.fol


def test_equal_restrictions_share_one_foliation():
    # the triangle is symmetric: the lines z1 = 0 and z2 = 0 carry the
    # same restricted field in their stratum coordinates
    inst = Instance(*triangle())
    fields = [inst.restriction([i])[0] for i in range(3)]
    for a in fields:
        for b in fields:
            assert (a is b) == (a.components == b.components)


def test_instance_runs_the_structural_checks():
    f, _ = triangle()
    with pytest.raises(InputError) as err:
        Instance(f, Arrangement(2, polys(["z0", "z1", "z0 + z1"])))
    assert err.value.code == NC_VIOLATION
    with pytest.raises(InputError) as err:
        Instance(f, Arrangement(2, polys(["z0 + z1"])))
    assert err.value.code == NOT_LOGARITHMIC
    with pytest.raises(ValueError):
        Instance(f, Arrangement(3, polys(["z3"], ["z0", "z1", "z2", "z3"])))


def test_each_subset_of_hyperplanes_is_rank_checked_once(monkeypatch):
    # Arrangement checks the 3 pairs and the triple, Instance none of them
    f, _ = triangle()
    calls = []

    def rank(rows):
        calls.append(rows)
        return original(rows)

    original = linalg.rank
    monkeypatch.setattr(linalg, "rank", rank)
    Instance(f, Arrangement(2, polys(README_TRIANGLE["hyperplanes"])))
    assert len(calls) == 4


def test_count_complement_shares_row_spaces_per_chart(tmp_path, monkeypatch, capsys):
    # the complement lies in one chart, that of the first hyperplane z0,
    # with one multiplication matrix: the product of the other forms
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(README_TRIANGLE))
    calls = []

    def stable_row_space(matrix):
        calls.append(matrix)
        return original(matrix)

    original = linalg.stable_row_space
    monkeypatch.setattr(linalg, "stable_row_space", stable_row_space)
    assert cli.main(["--report", "json", "count-complement", str(path)]) == 0
    capsys.readouterr()
    assert len(calls) == 1


# the README triangle after w0 = z0 + z1: its first hyperplane z0 - z1 is
# not a coordinate hyperplane
SHEARED_TRIANGLE = {
    "n": 2,
    "foliation": ["z1*(2*z1 - z0)", "z1*(2*z1 - z0)", "z2*(z2 - z0 + z1)"],
    "hyperplanes": ["z0 - z1", "z1", "z2"],
}


@pytest.mark.parametrize("doc,more", [(README_TRIANGLE, 0), (SHEARED_TRIANGLE, 1)],
                         ids=["triangle", "sheared"])
def test_count_complement_adds_a_basis_only_off_chart_0(monkeypatch, doc, more):
    # validation caches the chart-0 basis; the chart of the first hyperplane
    # reuses it when that hyperplane is z0 and builds one basis otherwise
    spec = cli.parse_spec(json.dumps(doc))
    calls = []

    def reduced_groebner(*args):
        calls.append(args)
        return original(*args)

    original = groebner._reduced_groebner
    monkeypatch.setattr(groebner, "_reduced_groebner", reduced_groebner)
    assert indices.complement_milnor_sum(spec.instance) == 1
    assert len(calls) == more
