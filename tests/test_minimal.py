import pytest

from surfclass.lattice import (
    BaseSurface,
    DivisorClass,
    RationalSurface,
    blow_down,
    blow_up,
    euler_characteristic_cx,
    make_base,
)
from surfclass.minimal import (
    Inconclusive,
    classify_minimal,
    find_minus_one_lines,
    minimal_model,
)
import surfclass.minimal as minimal_module
from surfclass.cli import main as cli_main
from surfclass.script import render_reduction, run_script
from surfclass.words import InternalInvariantError, ValidationError


def _with_line(surf, name, coords):
    return RationalSurface(
        surf.base, surf.basis, surf.gram, surf.canonical,
        surf.tracked + ((name, DivisorClass(coords)),),
    )


def test_find_minus_one_lines():
    assert find_minus_one_lines(make_base(BaseSurface.cp2())) == []
    one = blow_up(make_base(BaseSurface.cp2()))
    assert find_minus_one_lines(one) == ["E1"]
    two = blow_up(blow_up(make_base(BaseSurface.cp2())))
    two = _with_line(two, "L_pq", (1, -1, -1))
    assert find_minus_one_lines(two) == ["E1", "E2", "L_pq"]


def test_find_respects_k_degree():
    two = blow_up(blow_up(make_base(BaseSurface.cp2())))
    # H + E1 - E2 has square -1 but K-degree -3, so it is not a -1 line
    two = _with_line(two, "W", (1, 1, -1))
    assert "W" not in find_minus_one_lines(two)


def test_minimal_model_single_blow_up():
    report = minimal_model(blow_up(make_base(BaseSurface.cp2())))
    assert [nm for nm, _ in report.steps] == ["E1"]
    assert report.final == BaseSurface.cp2()
    assert report.final_surface.rank == 1


def test_minimal_model_two_points_insertion_order():
    # with generic tracked lines the E's go first and the plane comes back
    two = blow_up(blow_up(make_base(BaseSurface.cp2())))
    two = _with_line(two, "L_pq", (1, -1, -1))
    report = minimal_model(two)
    assert [nm for nm, _ in report.steps] == ["E1", "E2"]
    assert report.final == BaseSurface.cp2()


def test_minimal_model_two_points_line_first():
    # contracting the joining line first genuinely lands elsewhere: the
    # quadric surface instead of the plane
    two = blow_up(blow_up(make_base(BaseSurface.cp2())))
    two = _with_line(two, "L_pq", (1, -1, -1))
    after = blow_down(two, "L_pq")
    report = minimal_model(after)
    assert report.final == BaseSurface.hirzebruch(0)
    assert report.final_surface.gram == ((0, 1), (1, 0))


def test_minimal_model_hirzebruch_one_goes_to_plane():
    # the section of the first Hirzebruch surface is itself a -1 line, so
    # the procedure contracts it and lands on the plane, never back on the
    # Hirzebruch surface
    report = minimal_model(make_base(BaseSurface.hirzebruch(1)))
    assert [nm for nm, _ in report.steps] == ["S"]
    assert report.final == BaseSurface.cp2()


def test_minimal_model_recovers_higher_hirzebruch():
    for n in (0, 2, 3, 4, 5):
        surf = make_base(BaseSurface.hirzebruch(n))
        for _ in range(3):
            surf = blow_up(surf)
        report = minimal_model(surf)
        assert report.final == BaseSurface.hirzebruch(n), n
        assert len(report.steps) == 3


def test_reduction_report_bookkeeping():
    surf = blow_up(blow_up(blow_up(make_base(BaseSurface.cp2()))))
    report = minimal_model(surf)
    assert len(report.steps) == surf.rank - report.final_surface.rank
    assert euler_characteristic_cx(surf) == (
        euler_characteristic_cx(report.final_surface) + len(report.steps)
    )
    # each step records the class at the moment of contraction
    for nm, cls in report.steps:
        assert nm.startswith("E")
        assert sum(abs(c) for c in cls.coords) == 1


def test_classify_minimal_rank_one():
    assert classify_minimal(make_base(BaseSurface.cp2())) == BaseSurface.cp2()


def test_classify_minimal_section():
    assert classify_minimal(make_base(BaseSurface.hirzebruch(3))) == BaseSurface.hirzebruch(3)


def test_classify_minimal_rulings():
    assert classify_minimal(make_base(BaseSurface.hirzebruch(0))) == BaseSurface.hirzebruch(0)


def test_classify_minimal_rejects_non_minimal():
    with pytest.raises(ValidationError, match="not minimal"):
        classify_minimal(blow_up(make_base(BaseSurface.cp2())))


def test_classify_minimal_inconclusive():
    # a rank-2 lattice with no tracked hints pins the index only mod 2
    even = RationalSurface(
        base=BaseSurface.hirzebruch(0),
        basis=("u", "v"),
        gram=((0, 1), (1, 0)),
        canonical=DivisorClass((-2, -2)),
        tracked=(),
    )
    t = classify_minimal(even)
    assert t == Inconclusive(2, True)
    assert "Inconclusive" in str(t) and "even" in str(t)

    odd = RationalSurface(
        base=BaseSurface.hirzebruch(1),
        basis=("u", "v"),
        gram=((1, 0), (0, -1)),
        canonical=DivisorClass((-3, 1)),
        tracked=(),
    )
    assert classify_minimal(odd) == Inconclusive(2, False)


@pytest.mark.parametrize(
    "script",
    [
        # S - F has square -2 and K-degree 0, a section of F2, while the
        # base rulings S and F meet once, which says F0
        "base hirzebruch 0\nline A = S - F\nminimal-model\n",
        # E1 ends with square -1 and K-degree +1, so arithmetic genus 1: no
        # section, and F1 is never minimal
        "base hirzebruch 1\nblowup on S\nblowup on F E1\nminimal-model\n",
    ],
    ids=["two-indices", "section-of-genus-one"],
)
def test_classify_minimal_names_only_a_rational_section(script):
    assert run_script(script).reductions[-1].final == Inconclusive(2, "hirzebruch 0" in script)


def test_square_zero_classes_meeting_twice_name_no_index():
    # G = 2S + 3F on F3 has G.G = 0 and G.F = 2: two square-0 classes that
    # meet twice are no pair of rulings, so only the section S names the
    # index, 3
    out = run_script("base hirzebruch 3\nline G = 2S + 3F\nminimal-model\n")
    assert render_reduction(out.reductions[0]).splitlines() == [
        "already minimal: nothing to contract",
        "minimal model: Hirzebruch(3)",
    ]


def test_minimal_type_guards():
    with pytest.raises(ValidationError):
        BaseSurface.hirzebruch(-2)


@pytest.mark.parametrize("base", [BaseSurface.cp2(), BaseSurface.hirzebruch(3)])
def test_minimal_model_undoes_eighty_blow_ups(base):
    # a scaling guard: with dense contractions this takes minutes
    surf = make_base(base)
    for _ in range(80):
        surf = blow_up(surf)
    report = minimal_model(surf)
    assert len(report.steps) == 80
    assert str(report.final) == str(base)
    assert report.final_surface.rank == base.rank


def test_a_moved_line_the_contraction_does_not_report_is_a_fault(monkeypatch, capsys, tmp_path):
    # contracting E2 moves E1 from E1 - E2, of square -2, to a -1 line; a
    # contraction that reports no moved line leaves E1's kept numbers stale,
    # so the scan stops with E1 left, which classify_minimal finds.  That is
    # a fault of the reduction, not of the script: InternalInvariantError,
    # and the command exits 2, not 1
    real_contract = minimal_module._contract

    def silent_contract(lat, name):
        real_contract(lat, name)
        return []

    monkeypatch.setattr(minimal_module, "_contract", silent_contract)
    script = "base cp2\nblowup\nblowup on E1\nminimal-model\n"
    with pytest.raises(InternalInvariantError, match="contractible lines remain: E1$") as exc:
        run_script(script)
    assert isinstance(exc.value.__cause__, ValidationError)
    path = tmp_path / "chain.srf"
    path.write_text(script)
    assert cli_main(["rational", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {exc.value}\n"
