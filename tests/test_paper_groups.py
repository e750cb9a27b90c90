import oracles
from conicline.finite_groups import A4, D4, S3, S4
from conicline.fpgroup import abelianization, compare, count_homs, fingerprint
from conicline.paper_groups import (presentation_c2_proj, presentation_cn_affine,
                                    presentation_cn_proj, presentation_t00,
                                    presentation_tn0, presentation_tnm)
from golden import (presentation_c1_affine, presentation_c1_proj, presentation_c2_affine,
                    presentation_t10, presentation_t20)
from oracles import count_homs_cn, cyclic_canonical, parse_word


def test_small_cases_are_special_cases():
    assert compare(presentation_cn_affine(1), presentation_c1_affine(),
                   ("S3", "D4")).consistent
    assert compare(presentation_cn_proj(2), presentation_c2_proj(),
                   ("S3", "D4")).consistent
    assert compare(presentation_tn0(1), presentation_t10(), ("S3", "D4")).consistent
    assert compare(presentation_tn0(2), presentation_t20(), ("S3", "D4")).consistent


def test_t00_relators():
    p = presentation_t00()
    assert [str(r) for r in p.relators]
    assert p.relators[0] == parse_word("x1 x2 x1 x2")
    assert p.relators[1] == parse_word("x2 x1 x2 x1")


def test_tnm_11_instantiation():
    p = presentation_tnm(1, 1)
    assert p.generators == ("x2", "x5", "x6")
    by_family = {}
    for origin, rel in zip(p.origins, p.relators):
        by_family.setdefault(origin, []).append(rel)
    assert set(by_family) == {"(1)", "(2)", "(3)", "(8)", "(9)"}
    # relation (1) at m = 1 collapses to [x5, x6] up to cyclic moves
    assert cyclic_canonical(by_family["(1)"][0]) == \
        cyclic_canonical(parse_word("x5 x6 x5^-1 x6^-1"))


def test_tnm_m0_specializes_to_tn0():
    for n in (1, 2, 3):
        spec = presentation_tnm(n, 0)
        tn0 = presentation_tn0(n)
        assert len(spec.generators) == len(tn0.generators)
        assert compare(spec, tn0, ("S3", "D4")).consistent


def test_abelianizations_of_stated_presentations():
    for n in (1, 2, 3, 4):
        res = abelianization(presentation_cn_proj(n))
        assert (res.rank_free, res.torsion) == (n, ())
    for n in (1, 2, 3):
        res = abelianization(presentation_tn0(n))
        assert (res.rank_free, res.torsion) == (n + 1, ())
    for n, m in ((1, 1), (2, 2), (3, 1)):
        res = abelianization(presentation_tnm(n, m))
        assert (res.rank_free, res.torsion) == (n + m + 1, ())


def test_c1_groups():
    assert abelianization(presentation_c1_proj()).rank_free == 1
    res = abelianization(presentation_c1_affine())
    assert (res.rank_free, res.torsion) == (2, ())
    # Z^2 has exactly |G|-squared... no: hom(Z^2, S3) counts commuting pairs
    assert fingerprint(presentation_c1_affine(), ("S3",)).counts["S3"] == 18


def test_c2_affine_vs_projective():
    rep = compare(presentation_c2_affine(), presentation_c2_proj(), ("S3",))
    # the affine group surjects onto the projective one; fingerprints differ
    assert rep.per_target["S3"][0] >= rep.per_target["S3"][1]


def test_cn_transfer_count_agrees_with_the_search():
    """The transfer count over the states (a, Z, w) equals the hom search on
    the stated C_n, affine and projective, for every n <= 7 into every
    battery group."""
    for n in range(1, 8):
        for group in (S3, D4, A4, S4):
            assert count_homs_cn(n, group, False) == count_homs(presentation_cn_affine(n), group)
            assert count_homs_cn(n, group, True) == count_homs(presentation_cn_proj(n), group)


def test_cn_transfer_count_pinned_beyond_the_grid():
    """C_10 into S4 by the transfer count alone; the hom search gives the
    same counts in about 2 s (affine) and 1 s (projective)."""
    assert count_homs_cn(10, S4, False) == 49_134_432
    assert count_homs_cn(10, S4, True) == 17_229_336


def test_cn_transfer_count_needs_its_centralizer_update(monkeypatch):
    """A transfer count that never narrows Z lets a line ignore the earlier
    ones: it must disagree with the search somewhere."""
    monkeypatch.setattr(oracles, "centralizer", lambda group, g: (1 << group.order) - 1)
    assert any(count_homs_cn(n, group, projective) != count_homs(
                   (presentation_cn_proj if projective else presentation_cn_affine)(n), group)
               for n in range(2, 5) for group in (S3, D4, A4, S4) for projective in (False, True))
