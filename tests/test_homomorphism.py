"""The homomorphism checker behind the round-trip reports and the
product reconstruction, against the carriers' own operations."""

from functools import partial

import mvtool as mv
import mvtool.homomorphism as homomorphism
import mvtool.kernels as kernels
import mvtool.vector as vector
from mvtool.equivalence import _roundtrip_report
from mvtool.homomorphism import homomorphism_failures, map_once
from mvtool.lgroup_core import CanonPair

from helpers import ConeOfZ, record_codecs

C = mv.ChangAlgebra()
CC = mv.ProductAlgebra([C, C])
N = mv.NMonoid()


class BrokenInf(ConeOfZ):
    def inf(self, x, y):
        return 0


class SkewChang(mv.ChangAlgebra):
    def oplus(self, x, y):
        if (x, y) == (mv.Fin(2), mv.Fin(1)):
            return mv.Fin(4)
        return super().oplus(x, y)


class WrongSupZ2(mv.ZnGroup):
    def sup(self, x, y):
        if x == (1, 0):
            return (0, 0)
        return super().sup(x, y)


def _results(bound):
    out = []
    for G in [mv.parse_model(d) for d in ("Z", "Z^2", "Lex(Z,Z)", "Groth(N)")] \
            + [WrongSupZ2(2)]:
        out.append(mv.phi_roundtrip_report(G, bound))
        out.append(mv.chi_roundtrip_report(G, bound))
    for d in ("C", "B", "Sigma(Z^2)", "Sigma(Lex(Z,Z))", "Pointed(C,1c)"):
        out.append(mv.beta_roundtrip_report(mv.parse_model(d), bound))
    for M in [mv.parse_model(d) for d in ("N", "N^2", "PosCone(Lex(Z,Z))")] \
            + [mv.RadicalMonoid(C)]:
        out.append(mv.phi_M_roundtrip_report(M, bound))
    # Broken sources against healthy targets.
    out.append(_roundtrip_report(
        "monoid-to-cone", BrokenInf(), mv.positive_cone(mv.grothendieck_group(N)),
        lambda x: CanonPair(x, 0), lambda p: p.u, (), ("add", "inf", "sup"), bound))
    out.append(_roundtrip_report(
        "algebra", SkewChang(), mv.sigma(mv.delta(C)), partial(mv.beta_A, C),
        partial(mv.beta_A_inverse, C), ("neg",), ("oplus",), bound))
    d = mv.decompose_product(CC, [(mv.Fin(1), mv.CoFin(1))], bound=4)
    for factors in (d.factors, [SkewChang(), d.factors[1]]):
        out.append(mv.product_reconstruction_check(
            CC, d._replace(factors=factors), bound))
    return out


def test_reports_equal_the_carrier_operations(monkeypatch):
    for bound in (2, 3):
        with monkeypatch.context() as m:
            codecs = record_codecs(m)
            with_kernels = _results(bound)
        assert any(c is not None for c in codecs)
        with monkeypatch.context() as m:
            # Without codecs the tables call the carriers and the
            # Grothendieck windows walk their monoid pairs.
            m.setattr(vector, "codec_for", lambda model: None)
            m.setattr(kernels, "codec_for", lambda model: None)
            codecs = record_codecs(m)
            assert _results(bound) == with_kernels, bound
        assert codecs and all(c is None for c in codecs)
    # The broken carriers are caught: Z^2's sup, BrokenInf's inf, and
    # SkewChang's oplus, in the reports and in the reconstruction.
    failures = [r["failures"] for r in with_kernels[:-2]]
    kinds = {f["kind"] for fs in failures for f in fs}
    assert kinds == {"sup", "inf", "oplus"}
    assert [v.ok for v in with_kernels[-2:]] == [True, False]


def _spy_on_forward(monkeypatch):
    """For each homomorphism check of a report or a reconstruction made
    while ``monkeypatch`` is active: its window and the elements its
    ``forward`` received, in order."""
    from mvtool import decompose

    checks = []

    def spy(src, target, window, image, forward, *rest):
        calls = []

        def counted(x):
            calls.append(x)
            return forward(x)

        checks.append((window, calls))
        return homomorphism_failures(src, target, window, image, counted, *rest)

    # The round-trip reports reach it through isomorphism_failures.
    for module in (homomorphism, decompose):
        monkeypatch.setattr(module, "homomorphism_failures", spy)
    return checks


def test_forward_maps_each_element_outside_the_window_once(monkeypatch):
    for bound in (2, 3):
        with monkeypatch.context() as m:
            with_kernels = _spy_on_forward(m)
            reports = len(_results(bound))
        with monkeypatch.context() as m:
            m.setattr(vector, "codec_for", lambda model: None)
            m.setattr(kernels, "codec_for", lambda model: None)
            without = _spy_on_forward(m)
            _results(bound)
        # One check per report and per reconstruction.
        assert len(with_kernels) == len(without) == reports
        for (window, calls), (_, other) in zip(with_kernels, without):
            assert not set(calls) & set(window)
            assert len(set(calls)) == len(calls)
            assert set(calls) == set(other)
        assert any(calls for _, calls in with_kernels)


def test_map_once_lists_each_collision_with_the_latest_earlier_element():
    image, collisions = map_once([0, 1, 2, 3, 4, 3], lambda x: x % 2)
    assert image == {0: 0, 1: 1, 2: 0, 3: 1, 4: 0}
    assert collisions == [(0, 2), (1, 3), (2, 4)]


def test_an_empty_window_has_no_failures():
    Z = mv.ZGroup()
    assert homomorphism_failures(Z, Z, [], [], lambda x: x, lambda x: x,
                                 ("negate",), ("add",)) == []


def _reversed_second_coordinate(window):
    """The failures of a homomorphism check of the map (a, b) -> (a, -b) on
    a Z^2 window, and the number of ``forward`` calls it makes.  The map
    keeps add and negate and breaks inf and sup."""
    Z2 = mv.ZnGroup(2)
    calls = []

    def forward(g):
        calls.append(g)
        return (g[0], -g[1])

    image = [forward(g) for g in window]
    del calls[:]
    return (homomorphism_failures(Z2, Z2, window, image, forward,
                                  lambda g: (g[0], -g[1]),
                                  ("negate",), ("add", "inf", "sup")),
            len(calls))


def _past_the_kernel_limit():
    """``_reversed_second_coordinate`` on a window whose sums reach 2^60,
    where the code rows stop."""
    return _reversed_second_coordinate(
        [(2 ** 59 + i, j) for i in range(3) for j in (-1, 0, 1)])


def _codec_off(monkeypatch, check):
    """``check()`` on the carriers' own operations."""
    with monkeypatch.context() as m:
        m.setattr(vector, "codec_for", lambda model: None)
        m.setattr(kernels, "codec_for", lambda model: None)
        return check()


def _reference_past_the_kernel_limit(monkeypatch):
    """``_past_the_kernel_limit`` on the carriers' own operations."""
    return _codec_off(monkeypatch, _past_the_kernel_limit)


def test_a_window_past_the_kernel_limit_gives_the_reference_failures(monkeypatch):
    with monkeypatch.context() as m:
        codecs = record_codecs(m)
        failures, calls = _past_the_kernel_limit()
    # Two code-row sides, then the two tables of the restart, with no
    # codec.
    assert len(codecs) == 4 and None not in codecs[:2] and codecs[2:] == [None, None]
    assert _reference_past_the_kernel_limit(monkeypatch) == (failures, calls)
    assert {kind for kind, _ in failures} == {"inf", "sup"}
    # One call per distinct element outside the window, over all
    # operations and the restart: the 9 negations (mapped before the
    # restart) and the 5 x 5 sums all lie outside the window, while every
    # infimum and supremum is a window element, whose image is given.
    assert calls == 9 + 25


def test_interned_sides_past_the_kernel_limit_start_over(monkeypatch):
    # Both sides on interned indices in code space: their tables meet the
    # limit as the code-row sides do, and the check starts over with no
    # codec, keeping forward's images.
    with monkeypatch.context() as m:
        m.setattr(homomorphism, "_side",
                  lambda model, ops: homomorphism._Interned(model, kernels.codec_for(model)))
        codecs = record_codecs(m)
        failures, calls = _past_the_kernel_limit()
    assert len(codecs) == 4 and None not in codecs[:2] and codecs[2:] == [None, None]
    assert (failures, calls) == _reference_past_the_kernel_limit(monkeypatch)
    assert calls == 9 + 25


def test_multi_block_windows_give_the_codec_off_results(monkeypatch):
    # With a block of one coordinate, each block is one row, so every
    # window of three elements or more spans three blocks or more; with
    # 500, the Z^2 and Lex(Z,Z) windows (49 elements of two coordinates)
    # take blocks of five rows, the last one shorter.
    reference = _codec_off(monkeypatch, lambda: _results(3))
    for block in (1, 500):
        with monkeypatch.context() as m:
            m.setattr(vector, "_KERNEL_BLOCK", block)
            assert _results(3) == reference, block


def _spy_on_block_columns(monkeypatch, side):
    """The number of columns of each block of pairs that sides of the type
    ``side`` compute, in order."""
    columns = []

    def spy(self, op, a, b, real=side.binary):
        columns.append(b.shape[1])
        return real(self, op, a, b)

    monkeypatch.setattr(side, "binary", spy)
    return columns


def test_symmetric_kernels_compute_the_upper_triangle(monkeypatch):
    # Z^2's window at bound 6 has 169 elements: in code space, 169 x 169
    # pairs of two coordinates are four blocks of 48 rows, each from the
    # diagonal on, for each of add, inf and sup; interned, they are two
    # blocks of 96 rows of the full square.  Each block is computed on the
    # source side, then on the target side.
    window = mv.ZnGroup(2).enumerate(6)
    with monkeypatch.context() as m:
        columns = _spy_on_block_columns(m, homomorphism._Rows)
        failures, calls = _reversed_second_coordinate(window)
    assert columns == [169, 169, 121, 121, 73, 73, 25, 25] * 3
    with monkeypatch.context() as m:
        columns = _spy_on_block_columns(m, homomorphism._Interned)
        assert _codec_off(m, lambda: _reversed_second_coordinate(window)) == \
            (failures, calls)
    assert columns == [169] * 4 * 3
    assert len(failures) == 52_728
    assert {kind for kind, _ in failures} == {"inf", "sup"}


def test_a_window_that_repeats_an_element_gives_the_failures_by_definition(monkeypatch):
    # The key index numbers a repeated element at its first appearance;
    # the image's keys must follow that numbering, on code rows and
    # interned, in one block and in one-row blocks.
    Z2 = mv.ZnGroup(2)
    window = [(0, 1), (0, 1), (1, 0), (2, 2), (1, 0)]

    def forward(g):
        return (g[0], -g[1])

    ops = ("add", "inf", "sup")
    expected = [(op, (x, y)) for x in window for y in window for op in ops
                if forward(getattr(Z2, op)(x, y)) != getattr(Z2, op)(forward(x),
                                                                      forward(y))]

    def check():
        return homomorphism_failures(Z2, Z2, window, [forward(x) for x in window],
                                     forward, forward, ("negate",), ops)

    for block in (vector._KERNEL_BLOCK, 1):
        with monkeypatch.context() as m:
            m.setattr(vector, "_KERNEL_BLOCK", block)
            assert check() == expected, block
            assert _codec_off(m, check) == expected, block
    assert len(expected) == 32
