#pragma once
/// \file irradiance_kernels.hpp
/// Internal batched irradiance kernels over a FieldView (SoA planes).
///
/// Two shapes:
///  - row kernel:    fixed step, contiguous span of cells in one row
///    (scalar, AVX2, AVX-512);
///  - series kernel: fixed cell, arbitrary span of steps (gathers;
///    scalar only — SIMD twins measured 1.03-1.09x, below the 1.5x a
///    twin must pay).
///
/// The scalar implementations are branch-free inner loops (horizon lerp
/// + compare instead of is_shaded branching, masked beam term) written
/// so GCC/Clang auto-vectorize them; the AVX2 and AVX-512 paths are
/// hand-written intrinsics selected at runtime (util/simd.hpp), the
/// AVX-512 ones using masked loads/stores so no scalar tail loop
/// remains.  All compute the *same IEEE operations in the same
/// association* as IrradianceField::cell_irradiance_unchecked — no FMA
/// (the build sets -ffp-contract=off), no reassociation — so every
/// implementation is bitwise-identical per cell.
/// tests/solar/test_batched_kernels pins this property across roofs,
/// sky models, normals on/off, and SIMD levels.
///
/// Preconditions (debug-asserted by the callers, validated at the
/// IrradianceField boundary): row/cell inside the window, steps in
/// range, out sized to the span.

#include <cstddef>
#include <cstdint>

#include "pvfp/solar/irradiance.hpp"

namespace pvfp::solar::detail {

/// out[i] = G(x0 + i, y, s) for i in [0, x1 - x0).
void cell_row_scalar(const FieldView& f, int y, long s, int x0, int x1,
                     double* out);

/// out[k] = G(x, y, steps[k]) for k in [0, n).
void cell_series_scalar(const FieldView& f, int x, int y, const long* steps,
                        std::size_t n, double* out);

/// True when this build carries the AVX2 kernels (x86-64 compilers);
/// callers must additionally check pvfp::cpu_supports_avx2() / the
/// dispatch level before calling them.
bool avx2_kernels_compiled();

/// Same gate for the AVX-512 kernels (needs avx512f + avx512vl at run
/// time, checked by pvfp::cpu_supports_avx512()).
bool avx512_kernels_compiled();

/// AVX2 twin of the scalar row kernel; falls back to the scalar kernel
/// on builds where avx2_kernels_compiled() is false.
void cell_row_avx2(const FieldView& f, int y, long s, int x0, int x1,
                   double* out);

/// AVX-512 twin (masked tails — no scalar remainder loop); falls back
/// to the scalar kernel on builds where avx512_kernels_compiled() is
/// false.
void cell_row_avx512(const FieldView& f, int y, long s, int x0, int x1,
                     double* out);

/// Signature shared by the row kernel tiers above.
using RowKernel = void (*)(const FieldView& f, int y, long s, int x0, int x1,
                           double* out);

/// The row kernel tier for the current simd_level() — the dispatch
/// IrradianceField::cell_irradiance_row runs.  Sweeps that call the row
/// kernel many times over one view (compute_suitability,
/// evaluate_floorplan) resolve it once instead of per call.
RowKernel row_kernel();

/// One histogram axis for the fused suitability binning: the fixed
/// bin grid of a pvfp::Histogram(lo, hi, bins).  width must equal
/// (hi - lo) / bins exactly as the Histogram constructor computes it.
struct BinAxis {
    double lo = 0.0;
    double hi = 1.0;
    double width = 0.0;
    int bins = 1;
};

/// Fused suitability binning: for each sample k, g_bins[k] is the
/// Histogram::bin_index of g[k] on \p ga and t_bins[k] the bin_index of
/// t_air[k] + k_th * g[k] on \p ta — a branch-free elementwise pass
/// (with an AVX-512 twin) over a row kernel's output.  Bin indices are
/// integers, so this is trivially deterministic; the expressions still
/// replicate Histogram::bin_index case for case.
void bin_series_scalar(const double* g, std::size_t n, const double* t_air,
                       double k_th, const BinAxis& ga, const BinAxis& ta,
                       std::int32_t* g_bins, std::int32_t* t_bins);
void bin_series_avx512(const double* g, std::size_t n, const double* t_air,
                       double k_th, const BinAxis& ga, const BinAxis& ta,
                       std::int32_t* g_bins, std::int32_t* t_bins);

/// Dispatch helper used by compute_suitability: bin_series at the
/// current simd_level().
void bin_series(const double* g, std::size_t n, const double* t_air,
                double k_th, const BinAxis& ga, const BinAxis& ta,
                std::int32_t* g_bins, std::int32_t* t_bins);

}  // namespace pvfp::solar::detail
