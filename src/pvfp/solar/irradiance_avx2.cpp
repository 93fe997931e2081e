/// \file irradiance_avx2.cpp
/// Hand-written AVX2 twins of the scalar batch kernels.  Compiled with
/// per-function target("avx2") attributes so the library binary stays
/// portable; the functions are only ever called after runtime dispatch
/// (util/simd.hpp) has confirmed CPU support.
///
/// Bitwise contract: only _mm256 mul/add/sub/min-free elementwise ops —
/// never FMA — in exactly the association of the scalar kernels, and
/// the masked beam term is a bitwise AND against a full compare mask
/// (+0.0 where dark), which matches the scalar `? : 0.0`.  Per-cell
/// normal cosi stays in float lanes (the scalar path's float
/// arithmetic) and widens after, uniform-plane cosi runs in double
/// lanes, also matching.

#include "pvfp/solar/irradiance_kernels.hpp"

#if (defined(__x86_64__) || defined(__amd64__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define PVFP_AVX2_KERNELS 1
#include <immintrin.h>
#else
#define PVFP_AVX2_KERNELS 0
#endif

namespace pvfp::solar::detail {

bool avx2_kernels_compiled() { return PVFP_AVX2_KERNELS != 0; }

#if PVFP_AVX2_KERNELS

namespace {

__attribute__((target("avx2"))) inline __m256d load4_ps_pd(const float* p) {
    return _mm256_cvtps_pd(_mm_loadu_ps(p));
}

}  // namespace

__attribute__((target("avx2"))) void cell_row_avx2(const FieldView& f,
                                                   int y, long s, int x0,
                                                   int x1, double* out) {
    const std::size_t si = static_cast<std::size_t>(s);
    const int n = x1 - x0;
    const float elev_f = f.sun_elevation[si];
    const bool beam_on =
        f.beam_eq[si] > 0.0f && static_cast<double>(elev_f) > 0.0;

    const long ci0 = static_cast<long>(y) * f.width + x0;
    const float* svf = f.svf + ci0;
    const __m256d refl_v = _mm256_set1_pd(f.reflected[si]);
    const __m256d sky_v = _mm256_set1_pd(f.sky_diffuse[si]);

    const bool uniform = f.norm_e == nullptr;
    double cosi_u = 0.0;
    if (uniform) {
        cosi_u = f.plane_e * static_cast<double>(f.sun_e[si]) +
                 f.plane_n * static_cast<double>(f.sun_n[si]) +
                 f.plane_u * static_cast<double>(f.sun_u[si]);
    }

    int i = 0;
    if (!beam_on || (uniform && !(cosi_u > 0.0))) {
        // No beam contribution anywhere in the row: base term only.
        for (; i + 4 <= n; i += 4) {
            const __m256d base = _mm256_add_pd(
                refl_v, _mm256_mul_pd(load4_ps_pd(svf + i), sky_v));
            _mm256_storeu_pd(out + i, base);
        }
        for (; i < n; ++i)
            out[i] = static_cast<double>(f.reflected[si]) +
                     static_cast<double>(svf[i]) *
                         static_cast<double>(f.sky_diffuse[si]);
        return;
    }

    const __m256d beam_v = _mm256_set1_pd(f.beam_eq[si]);
    const __m256d elev_v = _mm256_set1_pd(elev_f);
    const __m256d frac_v = _mm256_set1_pd(f.hor_frac[si]);
    const float* a0p = f.angles + f.hor_sec0[si] * f.cells + ci0;
    const float* a1p = f.angles + f.hor_sec1[si] * f.cells + ci0;

    if (uniform) {
        const __m256d add_v = _mm256_mul_pd(beam_v, _mm256_set1_pd(cosi_u));
        for (; i + 4 <= n; i += 4) {
            const __m256d base = _mm256_add_pd(
                refl_v, _mm256_mul_pd(load4_ps_pd(svf + i), sky_v));
            const __m256d a0 = load4_ps_pd(a0p + i);
            const __m256d a1 = load4_ps_pd(a1p + i);
            const __m256d h = _mm256_add_pd(
                a0, _mm256_mul_pd(_mm256_sub_pd(a1, a0), frac_v));
            const __m256d lit = _mm256_cmp_pd(elev_v, h, _CMP_GE_OQ);
            _mm256_storeu_pd(
                out + i, _mm256_add_pd(base, _mm256_and_pd(lit, add_v)));
        }
    } else {
        const __m128 se_v = _mm_set1_ps(f.sun_e[si]);
        const __m128 sn_v = _mm_set1_ps(f.sun_n[si]);
        const __m128 su_v = _mm_set1_ps(f.sun_u[si]);
        const float* ne = f.norm_e + ci0;
        const float* nn = f.norm_n + ci0;
        const float* nu = f.norm_u + ci0;
        const __m256d zero = _mm256_setzero_pd();
        for (; i + 4 <= n; i += 4) {
            const __m256d base = _mm256_add_pd(
                refl_v, _mm256_mul_pd(load4_ps_pd(svf + i), sky_v));
            const __m256d a0 = load4_ps_pd(a0p + i);
            const __m256d a1 = load4_ps_pd(a1p + i);
            const __m256d h = _mm256_add_pd(
                a0, _mm256_mul_pd(_mm256_sub_pd(a1, a0), frac_v));
            // cosi in float lanes — the scalar path's float arithmetic —
            // widened only for the compare and the beam product.
            const __m128 cosi_ps = _mm_add_ps(
                _mm_add_ps(_mm_mul_ps(_mm_loadu_ps(ne + i), se_v),
                           _mm_mul_ps(_mm_loadu_ps(nn + i), sn_v)),
                _mm_mul_ps(_mm_loadu_ps(nu + i), su_v));
            const __m256d cosi = _mm256_cvtps_pd(cosi_ps);
            const __m256d lit = _mm256_and_pd(
                _mm256_cmp_pd(elev_v, h, _CMP_GE_OQ),
                _mm256_cmp_pd(cosi, zero, _CMP_GT_OQ));
            const __m256d add =
                _mm256_and_pd(lit, _mm256_mul_pd(beam_v, cosi));
            _mm256_storeu_pd(out + i, _mm256_add_pd(base, add));
        }
    }
    if (i < n) cell_row_scalar(f, y, s, x0 + i, x1, out + i);
}

#else  // !PVFP_AVX2_KERNELS

void cell_row_avx2(const FieldView& f, int y, long s, int x0, int x1,
                   double* out) {
    cell_row_scalar(f, y, s, x0, x1, out);
}

#endif  // PVFP_AVX2_KERNELS

}  // namespace pvfp::solar::detail
