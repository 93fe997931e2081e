/// \file irradiance_avx512.cpp
/// Hand-written AVX-512 twins of the scalar batch kernels, compiled
/// with per-function target("avx512f,avx512vl") so the binary stays
/// portable; runtime dispatch (util/simd.hpp) only routes here after
/// cpu_supports_avx512() has confirmed both subsets.
///
/// Two wins over the AVX2 tier: 8 double lanes per iteration instead
/// of 4, and masked loads/stores on the final partial vector, so there
/// is *no scalar tail loop* — short spans (narrow footprint row runs)
/// run entirely in vector code.
///
/// Bitwise contract, as in irradiance_avx2.cpp: elementwise mul/add/sub
/// only — never FMA — in exactly the scalar kernels' association.  The
/// masked beam term uses _mm512_maskz_mul_pd (a +0.0 in dark lanes),
/// which matches the scalar `? : 0.0` because the base term is always
/// >= +0.0, so base + (+0.0) is a bitwise no-op.  Per-cell-normal cosi
/// stays in float lanes and widens after; uniform-plane cosi runs in
/// double lanes.  Masked-off load lanes read as 0.0 and their results
/// are never stored.

#include "pvfp/solar/irradiance_kernels.hpp"

#if (defined(__x86_64__) || defined(__amd64__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define PVFP_AVX512_KERNELS 1
#include <immintrin.h>
#else
#define PVFP_AVX512_KERNELS 0
#endif

namespace pvfp::solar::detail {

bool avx512_kernels_compiled() { return PVFP_AVX512_KERNELS != 0; }

#if PVFP_AVX512_KERNELS

#define PVFP_AVX512 __attribute__((target("avx512f,avx512vl")))

namespace {

/// All eight lanes.  Conversions and min/max below use the zero-source
/// maskz forms under this mask: same bits as the unmasked forms, whose
/// source GCC's headers leave undefined (-Wmaybe-uninitialized).
constexpr __mmask8 kAll = 0xFF;

/// Mask with the low min(rem, 8) bits set: all-on for full vectors,
/// the partial tail mask otherwise.
inline __mmask8 tail_mask(std::size_t rem) {
    return rem >= 8 ? kAll : static_cast<__mmask8>((1u << rem) - 1u);
}

/// Masked load of 8 floats widened to 8 doubles (masked lanes 0.0).
PVFP_AVX512 inline __m512d load8_ps_pd(__mmask8 m, const float* p) {
    return _mm512_maskz_cvtps_pd(kAll, _mm256_maskz_loadu_ps(m, p));
}

}  // namespace

PVFP_AVX512 void cell_row_avx512(const FieldView& f, int y, long s, int x0,
                                 int x1, double* out) {
    const std::size_t si = static_cast<std::size_t>(s);
    const std::size_t n = static_cast<std::size_t>(x1 - x0);
    const float elev_f = f.sun_elevation[si];
    const bool beam_on =
        f.beam_eq[si] > 0.0f && static_cast<double>(elev_f) > 0.0;

    const long ci0 = static_cast<long>(y) * f.width + x0;
    const float* svf = f.svf + ci0;
    const __m512d refl_v = _mm512_set1_pd(f.reflected[si]);
    const __m512d sky_v = _mm512_set1_pd(f.sky_diffuse[si]);

    const bool uniform = f.norm_e == nullptr;
    double cosi_u = 0.0;
    if (uniform) {
        cosi_u = f.plane_e * static_cast<double>(f.sun_e[si]) +
                 f.plane_n * static_cast<double>(f.sun_n[si]) +
                 f.plane_u * static_cast<double>(f.sun_u[si]);
    }

    if (!beam_on || (uniform && !(cosi_u > 0.0))) {
        // No beam contribution anywhere in the row: base term only.
        for (std::size_t i = 0; i < n; i += 8) {
            const __mmask8 m = tail_mask(n - i);
            const __m512d base = _mm512_add_pd(
                refl_v, _mm512_mul_pd(load8_ps_pd(m, svf + i), sky_v));
            _mm512_mask_storeu_pd(out + i, m, base);
        }
        return;
    }

    const __m512d beam_v = _mm512_set1_pd(f.beam_eq[si]);
    const __m512d elev_v = _mm512_set1_pd(elev_f);
    const __m512d frac_v = _mm512_set1_pd(f.hor_frac[si]);
    const __m512d zero = _mm512_setzero_pd();
    const float* a0p = f.angles + f.hor_sec0[si] * f.cells + ci0;
    const float* a1p = f.angles + f.hor_sec1[si] * f.cells + ci0;

    if (uniform) {
        const __m512d add_v = _mm512_mul_pd(beam_v, _mm512_set1_pd(cosi_u));
        for (std::size_t i = 0; i < n; i += 8) {
            const __mmask8 m = tail_mask(n - i);
            const __m512d base = _mm512_add_pd(
                refl_v, _mm512_mul_pd(load8_ps_pd(m, svf + i), sky_v));
            const __m512d a0 = load8_ps_pd(m, a0p + i);
            const __m512d a1 = load8_ps_pd(m, a1p + i);
            const __m512d h = _mm512_add_pd(
                a0, _mm512_mul_pd(_mm512_sub_pd(a1, a0), frac_v));
            const __mmask8 lit = _mm512_cmp_pd_mask(elev_v, h, _CMP_GE_OQ);
            const __m512d add = _mm512_maskz_mov_pd(lit, add_v);
            _mm512_mask_storeu_pd(out + i, m, _mm512_add_pd(base, add));
        }
        return;
    }

    const __m256 se_v = _mm256_set1_ps(f.sun_e[si]);
    const __m256 sn_v = _mm256_set1_ps(f.sun_n[si]);
    const __m256 su_v = _mm256_set1_ps(f.sun_u[si]);
    const float* ne = f.norm_e + ci0;
    const float* nn = f.norm_n + ci0;
    const float* nu = f.norm_u + ci0;
    for (std::size_t i = 0; i < n; i += 8) {
        const __mmask8 m = tail_mask(n - i);
        const __m512d base = _mm512_add_pd(
            refl_v, _mm512_mul_pd(load8_ps_pd(m, svf + i), sky_v));
        const __m512d a0 = load8_ps_pd(m, a0p + i);
        const __m512d a1 = load8_ps_pd(m, a1p + i);
        const __m512d h = _mm512_add_pd(
            a0, _mm512_mul_pd(_mm512_sub_pd(a1, a0), frac_v));
        // cosi in float lanes — the scalar path's float arithmetic —
        // widened only for the compare and the beam product.
        const __m256 cosi_ps = _mm256_add_ps(
            _mm256_add_ps(
                _mm256_mul_ps(_mm256_maskz_loadu_ps(m, ne + i), se_v),
                _mm256_mul_ps(_mm256_maskz_loadu_ps(m, nn + i), sn_v)),
            _mm256_mul_ps(_mm256_maskz_loadu_ps(m, nu + i), su_v));
        const __m512d cosi = _mm512_maskz_cvtps_pd(kAll, cosi_ps);
        const __mmask8 lit = static_cast<__mmask8>(
            _mm512_cmp_pd_mask(elev_v, h, _CMP_GE_OQ) &
            _mm512_cmp_pd_mask(cosi, zero, _CMP_GT_OQ));
        const __m512d add = _mm512_maskz_mul_pd(lit, beam_v, cosi);
        _mm512_mask_storeu_pd(out + i, m, _mm512_add_pd(base, add));
    }
}

PVFP_AVX512 void bin_series_avx512(const double* g, std::size_t n,
                                   const double* t_air, double k_th,
                                   const BinAxis& ga, const BinAxis& ta,
                                   std::int32_t* g_bins,
                                   std::int32_t* t_bins) {
    // Vector twin of bin_series_scalar: same clamp-then-truncate with
    // the same boundary overrides (division is IEEE-exact, truncation
    // matches the scalar int cast), so indices — integers — agree
    // exactly.
    const __m512d g_lo = _mm512_set1_pd(ga.lo);
    const __m512d g_hi = _mm512_set1_pd(ga.hi);
    const __m512d g_w = _mm512_set1_pd(ga.width);
    const __m512d g_top = _mm512_set1_pd(static_cast<double>(ga.bins - 1));
    const __m256i g_last = _mm256_set1_epi32(ga.bins - 1);
    const __m512d t_lo = _mm512_set1_pd(ta.lo);
    const __m512d t_hi = _mm512_set1_pd(ta.hi);
    const __m512d t_w = _mm512_set1_pd(ta.width);
    const __m512d t_top = _mm512_set1_pd(static_cast<double>(ta.bins - 1));
    const __m256i t_last = _mm256_set1_epi32(ta.bins - 1);
    const __m512d kth_v = _mm512_set1_pd(k_th);
    const __m512d zero = _mm512_setzero_pd();
    const __m256i zero_i = _mm256_setzero_si256();

    for (std::size_t k = 0; k < n; k += 8) {
        const __mmask8 m = tail_mask(n - k);
        const __m512d gv = _mm512_maskz_loadu_pd(m, g + k);

        __m512d v = _mm512_div_pd(_mm512_sub_pd(gv, g_lo), g_w);
        v = _mm512_maskz_max_pd(kAll, _mm512_maskz_min_pd(kAll, v, g_top),
                                zero);
        __m256i gi = _mm512_maskz_cvttpd_epi32(kAll, v);
        gi = _mm256_mask_mov_epi32(
            gi, _mm512_cmp_pd_mask(gv, g_lo, _CMP_LE_OQ), zero_i);
        gi = _mm256_mask_mov_epi32(
            gi, _mm512_cmp_pd_mask(gv, g_hi, _CMP_GE_OQ), g_last);
        _mm256_mask_storeu_epi32(g_bins + k, m, gi);

        const __m512d ta_v = _mm512_maskz_loadu_pd(m, t_air + k);
        const __m512d tv =
            _mm512_add_pd(ta_v, _mm512_mul_pd(kth_v, gv));
        v = _mm512_div_pd(_mm512_sub_pd(tv, t_lo), t_w);
        v = _mm512_maskz_max_pd(kAll, _mm512_maskz_min_pd(kAll, v, t_top),
                                zero);
        __m256i ti = _mm512_maskz_cvttpd_epi32(kAll, v);
        ti = _mm256_mask_mov_epi32(
            ti, _mm512_cmp_pd_mask(tv, t_lo, _CMP_LE_OQ), zero_i);
        ti = _mm256_mask_mov_epi32(
            ti, _mm512_cmp_pd_mask(tv, t_hi, _CMP_GE_OQ), t_last);
        _mm256_mask_storeu_epi32(t_bins + k, m, ti);
    }
}

#undef PVFP_AVX512

#else  // !PVFP_AVX512_KERNELS

void cell_row_avx512(const FieldView& f, int y, long s, int x0, int x1,
                     double* out) {
    cell_row_scalar(f, y, s, x0, x1, out);
}

void bin_series_avx512(const double* g, std::size_t n, const double* t_air,
                       double k_th, const BinAxis& ga, const BinAxis& ta,
                       std::int32_t* g_bins, std::int32_t* t_bins) {
    bin_series_scalar(g, n, t_air, k_th, ga, ta, g_bins, t_bins);
}

#endif  // PVFP_AVX512_KERNELS

}  // namespace pvfp::solar::detail
