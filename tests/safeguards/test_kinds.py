"""Safeguard kinds: spec parsing, mask semantics, and the repair engine."""

import numpy as np
import pytest

from repro.safeguards import (
    AbsErrorSafeguard,
    MonotoneSafeguard,
    NonFiniteSafeguard,
    RangeSafeguard,
    RelErrorSafeguard,
    SAFEGUARD_KINDS,
    SignSafeguard,
    UlpSafeguard,
    ZeroSafeguard,
    compute_patch_channel,
    parse_safeguard,
    parse_safeguards,
)


class TestParsing:
    @pytest.mark.parametrize("spec", [
        "abs:0.5", "rel:0.001", "ulp:3", "sign", "zero", "nonfinite",
        "monotone:axis=2", "range:-1.0,1.0", "range",
    ])
    def test_spec_round_trip(self, spec):
        sg = parse_safeguard(spec)
        again = parse_safeguard(sg.spec())
        assert again == sg
        assert type(again) is type(sg)

    def test_float_params_round_trip_exactly(self):
        # repr(float) survives the string trip bit-for-bit.
        value = 1.0 / 3.0
        sg = parse_safeguard(RelErrorSafeguard(value).spec())
        assert sg.value == value

    def test_semicolon_list(self):
        stack = parse_safeguards("rel:0.001; sign ;zero")
        assert [sg.kind for sg in stack] == ["rel", "sign", "zero"]
        assert parse_safeguards("") == ()

    @pytest.mark.parametrize("bad", [
        "frob", "rel", "rel:2.0", "rel:-0.1", "abs:nan", "abs:-1", "ulp:-1",
        "monotone:axis=-1", "monotone:frob=1", "range:3,1", "range:1",
        "sign:1", "ulp:1.5",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_safeguard(bad)

    def test_registry_covers_all_kinds(self):
        assert set(SAFEGUARD_KINDS) == {
            "abs", "rel", "ulp", "sign", "zero", "nonfinite", "monotone",
            "range",
        }


class TestMasks:
    def test_abs_flags_only_exceeding_points(self):
        x = np.array([0.0, 1.0, 2.0])
        xd = np.array([0.05, 1.2, 2.0])
        mask = AbsErrorSafeguard(0.1).violation_mask(x, xd)
        assert mask.tolist() == [False, True, False]

    def test_rel_zero_admits_no_error(self):
        x = np.array([0.0, 0.0, 10.0])
        xd = np.array([0.0, 1e-12, 10.001])
        mask = RelErrorSafeguard(1e-3).violation_mask(x, xd)
        assert mask.tolist() == [False, True, False]

    def test_rel_and_abs_flag_nonfinite_reconstructions_of_finite_points(self):
        # NaN error must flag, not slip through a `err > tol` comparison.
        x = np.array([1.0, 2.0, 3.0])
        xd = np.array([np.nan, np.inf, 3.0])
        assert RelErrorSafeguard(1e-3).violation_mask(x, xd).tolist() == [
            True, True, False,
        ]
        assert AbsErrorSafeguard(0.1).violation_mask(x, xd).tolist() == [
            True, True, False,
        ]

    def test_rel_and_abs_leave_nonfinite_originals_to_nonfinite(self):
        x = np.array([np.nan, np.inf, -np.inf])
        xd = np.array([0.0, 0.0, 0.0])
        assert not RelErrorSafeguard(1e-3).violation_mask(x, xd).any()
        assert not AbsErrorSafeguard(0.1).violation_mask(x, xd).any()

    def test_rel_f32_screen_matches_exact_float64_mask(self):
        # Above the size cutoff, float32 arrays take the screened two-stage
        # path; its result must be bit-identical to the float64 formula on
        # boundary-adversarial content.
        br = 1e-3
        rng = np.random.default_rng(3)
        n = 40_000
        x = rng.lognormal(sigma=4.0, size=n).astype(np.float32)
        x[::5] *= -1
        # exact-boundary pairs in both directions, built in float64
        xd64 = x.astype(np.float64) * (1.0 + rng.uniform(-2 * br, 2 * br, n))
        xd = xd64.astype(np.float32)
        for row, val in (
            (7, 0.0), (11, np.nan), (13, np.inf), (17, -0.0),
            (19, 1e-40), (23, 3e38), (29, 1e-37),
        ):
            x[row::97] = val
        xd[::31] = x[::31]  # bit-identical stretches
        xd[3::101] = np.nan
        xd[5::103] = np.inf
        # Zero-heavy input, as a sparse field decodes: mostly exact zeros,
        # a few zeros decoded nonzero (tiny, subnormal and large), +-0
        # pairs in both orders, NaN on either side, and exact matches of
        # tiny nonzero values.
        z = np.zeros(n, dtype=np.float32)
        zd = np.zeros(n, dtype=np.float32)
        z[::9] = x[::9]
        zd[::9] = xd[::9]
        zd[1::211] = np.float32(1e-40)
        zd[2::223] = np.float32(1e-30)
        zd[4::227] = np.float32(1.0)
        zd[6::229] = -0.0
        z[8::233] = -0.0
        z[10::239] = np.nan
        zd[12::241] = np.nan
        z[14::251] = zd[14::251] = np.float32(1e-38)
        z[16::257] = zd[16::257] = np.float32(-1e-44)
        sg = RelErrorSafeguard(br)
        for a, b in ((x, xd), (z, zd)):
            got = sg.violation_mask(a, b)
            with np.errstate(invalid="ignore"):
                a64 = a.astype(np.float64)
                err = np.abs(b.astype(np.float64) - a64)
                want = ~(err <= br * np.abs(a64)) & np.isfinite(a64)
            assert got.dtype == bool and got.shape == a.shape
            assert (got == want).all()
        assert want.any() and not want.all()

    def test_ulp_zero_signs_are_one_apart(self):
        x = np.array([0.0, 0.0])
        xd = np.array([-0.0, -0.0])
        assert UlpSafeguard(0).violation_mask(x, xd).all()
        assert not UlpSafeguard(1).violation_mask(x, xd).any()

    def test_ulp_counts_representable_steps(self):
        x = np.array([1.0], dtype=np.float32)
        two_up = np.nextafter(np.nextafter(x, np.inf), np.inf)
        assert UlpSafeguard(1).violation_mask(x, two_up).all()
        assert not UlpSafeguard(2).violation_mask(x, two_up).any()

    def test_sign_treats_zero_as_its_own_sign(self):
        x = np.array([-2.0, 0.0, 3.0])
        xd = np.array([-1.0, 1e-9, -3.0])
        mask = SignSafeguard().violation_mask(x, xd)
        assert mask.tolist() == [False, True, True]

    def test_zero_is_bit_exact_about_negative_zero(self):
        x = np.array([0.0, -0.0, 1.0])
        xd = np.array([-0.0, -0.0, 2.0])
        mask = ZeroSafeguard().violation_mask(x, xd)
        assert mask.tolist() == [True, False, False]

    def test_nonfinite_requires_identical_bits(self):
        x = np.array([np.nan, np.inf, -np.inf, 1.0])
        xd = np.array([np.nan, np.inf, np.inf, np.nan])
        mask = NonFiniteSafeguard().violation_mask(x, xd)
        assert mask.tolist() == [False, False, True, False]

    def test_monotone_flags_both_endpoints_and_ignores_ties(self):
        x = np.array([1.0, 2.0, 2.0, 3.0])
        xd = np.array([1.0, 2.0, 2.5, 2.4])  # 2.5 > 2.4 flips the 2->3 rise
        mask = MonotoneSafeguard(0).violation_mask(x, xd)
        assert mask.tolist() == [False, False, True, True]
        flat = np.array([5.0, 5.0])
        assert not MonotoneSafeguard(0).violation_mask(
            flat, np.array([9.0, 1.0])
        ).any()  # a tie imposes no ordering

    def test_monotone_axis_selects_direction(self):
        x = np.arange(6.0).reshape(2, 3)
        xd = x.copy()
        xd[0, 1], xd[0, 2] = x[0, 2], x[0, 1]  # flip within a row
        assert not MonotoneSafeguard(0).violation_mask(x, xd).any()
        assert MonotoneSafeguard(1).violation_mask(x, xd).any()

    def test_monotone_axis_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            MonotoneSafeguard(2).violation_mask(np.ones((3, 3)), np.ones((3, 3)))

    def test_range_bare_form_binds_to_data(self):
        data = np.array([-1.0, 4.0, np.nan])
        sg = RangeSafeguard().resolve(data)
        assert (sg.lo, sg.hi) == (-1.0, 4.0)
        assert "range:" in sg.spec()
        mask = sg.violation_mask(data, np.array([-1.5, 2.0, 0.0]))
        assert mask.tolist() == [True, False, False]

    def test_range_unresolved_refuses_to_evaluate(self):
        with pytest.raises(ValueError, match="resolved"):
            RangeSafeguard().violation_mask(np.ones(2), np.ones(2))

    def test_range_nan_reconstruction_is_not_a_range_violation(self):
        sg = RangeSafeguard(0.0, 1.0)
        assert not sg.violation_mask(
            np.array([0.5]), np.array([np.nan])
        ).any()


class TestEngine:
    def test_bit_identical_points_never_patch(self):
        x = np.array([np.nan, 1.0, 0.0])
        channel = compute_patch_channel(
            (NonFiniteSafeguard(), ZeroSafeguard()), x, x.copy()
        )
        assert channel.size == 0

    def test_patches_restore_original_bits(self):
        x = np.array([1.0, -2.0, 3.0], dtype=np.float32)
        xd = np.array([1.0, 2.0, 3.5], dtype=np.float32)
        channel = compute_patch_channel((SignSafeguard(),), x, xd)
        assert channel.patch_idx.tolist() == [1]
        assert channel.patch_val.dtype == np.float32
        assert channel.patch_val.view(np.int32).tolist() == \
            x[1:2].view(np.int32).tolist()

    def test_counts_are_per_spec(self):
        x = np.array([0.0, 5.0, -1.0])
        xd = np.array([1e-20, 5.0, 1.0])
        channel = compute_patch_channel((ZeroSafeguard(), SignSafeguard()), x, xd)
        assert channel.counts["zero"] == 1
        # index 0 is claimed by the zero safeguard first; sign still flags
        # the flipped point 2.
        assert channel.counts["sign"] == 1
        assert sorted(channel.patch_idx.tolist()) == [0, 2]

    def test_fixed_point_handles_patch_induced_violations(self):
        # Patching index 2 back to 3.0 creates a NEW monotone flip against
        # the (unpatched) reconstruction at index 3; the engine must iterate
        # until the property holds on the final reconstruction.
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        xd = np.array([1.0, 2.0, 9.0, 8.0, 5.0])
        channel = compute_patch_channel((MonotoneSafeguard(0),), x, xd)
        repaired = xd.copy()
        repaired[channel.patch_idx.astype(np.int64)] = channel.patch_val
        assert not MonotoneSafeguard(0).violation_mask(x, repaired).any()

    def test_idx_sorted_and_unique(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=257)
        xd = x * 1.5
        channel = compute_patch_channel(
            (RelErrorSafeguard(1e-2), SignSafeguard()), x, xd
        )
        idx = channel.patch_idx
        assert (np.diff(idx.astype(np.int64)) > 0).all()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_patch_channel((SignSafeguard(),), np.ones(3), np.ones(4))
