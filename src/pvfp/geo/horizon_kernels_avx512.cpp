/// \file horizon_kernels_avx512.cpp
/// AVX-512 twin of the batched horizon row marcher: eight double lanes
/// with masked loads, so the window-row remainder runs masked instead of
/// falling back to a scalar tail loop.  Same bitwise contract and
/// dispatch rules as the AVX2 twin (see horizon_kernels_avx2.cpp).

#include "pvfp/geo/horizon_kernels.hpp"

#if (defined(__x86_64__) || defined(__amd64__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define PVFP_HORIZON_AVX512 1
#include <immintrin.h>

#include <cmath>
#include <cstdint>
#else
#define PVFP_HORIZON_AVX512 0
#endif

namespace pvfp::geo::detail {

bool horizon_avx512_compiled() { return PVFP_HORIZON_AVX512 != 0; }

#if PVFP_HORIZON_AVX512

__attribute__((target("avx512f,avx512vl"))) void march_row_avx512(
    const HorizonRowArgs& a) {
    // Intrinsics with an explicit all-lanes mask and zero source: the
    // unmasked forms leave their source undefined in GCC's headers.
    constexpr __mmask8 all = 0xff;
    const __m512d zero = _mm512_setzero_pd();
    const __m256i zero_i = _mm256_setzero_si256();
    const __m512d half = _mm512_set1_pd(0.5);
    const __m512d cs_v = _mm512_set1_pd(a.cs);
    const __m512d wm_v = _mm512_set1_pd(a.width_m);
    const __m512d wm1_v = _mm512_set1_pd(static_cast<double>(a.gw - 1));
    const __m512d band_v = _mm512_set1_pd(1.0 - 1e-9);
    const __m512d none = _mm512_set1_pd(-1.0);
    const __m256i wm1_i = _mm256_set1_epi32(a.gw - 1);
    const __m256i one_i = _mm256_set1_epi32(1);
    std::uint64_t calls = 0;

    for (int i = 0; i < a.n; i += 8) {
        const int rem = a.n - i;
        const __mmask8 lanes =
            rem >= 8 ? all : static_cast<__mmask8>((1u << rem) - 1u);
        // Masked loads: dead lanes read as 0.0 and never escape `lanes`.
        const __m512d lx0_v = _mm512_maskz_loadu_pd(lanes, a.lx0 + i);
        const __m512d h0_v = _mm512_maskz_loadu_pd(lanes, a.h0 + i);
        __m512d rmax_v = zero;
        __mmask8 active = lanes;
        // Pass 1: the march, recording the running-max candidates.
        int nc = 0;
        for (int k = 0; k < a.ksteps; ++k) {
            const __m512d lx =
                _mm512_add_pd(lx0_v, _mm512_set1_pd(a.xoff[k]));
            const __mmask8 inb =
                _mm512_cmp_pd_mask(lx, zero, _CMP_GE_OQ) &
                _mm512_cmp_pd_mask(lx, wm_v, _CMP_LT_OQ);
            active &= inb;
            if (active == 0) break;

            const __m512d cx =
                _mm512_sub_pd(_mm512_div_pd(lx, cs_v), half);
            const __m512d fx = _mm512_mask_min_pd(
                zero, all, _mm512_mask_max_pd(zero, all, cx, zero), wm1_v);
            __m256i x0 = _mm512_mask_cvttpd_epi32(zero_i, all, fx);
            x0 = _mm256_min_epi32(x0, wm1_i);
            const __m256i x1 =
                _mm256_min_epi32(_mm256_add_epi32(x0, one_i), wm1_i);
            const __m512d tx =
                _mm512_sub_pd(fx, _mm512_mask_cvtepi32_pd(zero, all, x0));
            const double* r0 = a.grid + a.row0[k];
            const double* r1 = a.grid + a.row1[k];
            const __m512d g00 = _mm512_mask_i32gather_pd(zero, all, x0, r0, 8);
            const __m512d g10 = _mm512_mask_i32gather_pd(zero, all, x1, r0, 8);
            const __m512d g01 = _mm512_mask_i32gather_pd(zero, all, x0, r1, 8);
            const __m512d g11 = _mm512_mask_i32gather_pd(zero, all, x1, r1, 8);
            const __m512d top = _mm512_add_pd(
                g00, _mm512_mul_pd(_mm512_sub_pd(g10, g00), tx));
            const __m512d bot = _mm512_add_pd(
                g01, _mm512_mul_pd(_mm512_sub_pd(g11, g01), tx));
            const __m512d h = _mm512_add_pd(
                top, _mm512_mul_pd(_mm512_sub_pd(bot, top),
                                   _mm512_set1_pd(a.ty[k])));

            const __m512d d = _mm512_sub_pd(h, h0_v);
            const __mmask8 pos =
                active & _mm512_cmp_pd_mask(d, zero, _CMP_GT_OQ);
            if (pos == 0) continue;
            const __m512d r =
                _mm512_div_pd(d, _mm512_set1_pd(a.t[k]));
            const __mmask8 guard =
                pos & _mm512_cmp_pd_mask(
                          r, _mm512_mul_pd(rmax_v, band_v), _CMP_GE_OQ);
            if (guard != 0) {
                // Record the step; lanes it is no candidate of store -1,
                // below any final band.
                const std::size_t o = static_cast<std::size_t>(nc) * 8;
                _mm512_storeu_pd(a.rbuf + o,
                                 _mm512_mask_mov_pd(none, guard, r));
                _mm512_storeu_pd(a.dbuf + o, d);
                a.kbuf[nc++] = k;
            }
            rmax_v = _mm512_mask_max_pd(rmax_v, pos, rmax_v, r);
        }

        // Pass 2: atan2 only on the candidates in the final band.
        const __m512d thr = _mm512_mul_pd(rmax_v, band_v);
        double best[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
        for (int j = 0; j < nc; ++j) {
            const std::size_t o = static_cast<std::size_t>(j) * 8;
            const __mmask8 gm = _mm512_cmp_pd_mask(
                _mm512_loadu_pd(a.rbuf + o), thr, _CMP_GE_OQ);
            for (int lane = 0; lane < 8; ++lane) {
                if ((gm & (1 << lane)) == 0) continue;
                const double ang =
                    std::atan2(a.dbuf[o + lane], a.t[a.kbuf[j]]);
                ++calls;
                if (ang > best[lane]) best[lane] = ang;
            }
        }
        const int nlanes = rem >= 8 ? 8 : rem;
        for (int lane = 0; lane < nlanes; ++lane)
            a.best[i + lane] = best[lane];
    }
    *a.atan2_calls += calls;
}

#else  // !PVFP_HORIZON_AVX512

void march_row_avx512(const HorizonRowArgs& a) { march_row_scalar(a); }

#endif  // PVFP_HORIZON_AVX512

}  // namespace pvfp::geo::detail
