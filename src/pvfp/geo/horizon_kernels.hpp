#pragma once
/// \file horizon_kernels.hpp
/// Batched ray-march kernels behind HorizonMap: all cells of a window row
/// march one azimuth sector together.
///
/// The per-cell marcher recomputes, for every cell, the same step
/// schedule (the t_k sequence is cell-independent), the same direction
/// offsets (t_k * dir is cell-independent), and the same y-half of the
/// bilinear DSM sample (all cells of a window row share
/// ly = ly0 + t_k * diry, hence the same source rows and y-fraction), and
/// calls scalar atan2 at every step that sees terrain above the observer.
/// The batched engine hoists all of that:
///
///   * HorizonSchedule precomputes the t_k sequence and, per sector, the
///     rounded offsets fl(t_k * dirx) / fl(t_k * diry) once per build;
///   * horizon_row_batched precomputes the shared y-interpolation plan
///     (source row offsets + y-fraction) once per (sector, row);
///   * the row kernels run each lane's ray in two passes.  Pass 1 (the
///     march) runs the per-lane x-half of the bilinear sample, keeps the
///     running max rmax of the elevation *ratio* r_k = d_k / t_k
///     (d_k = h_k - h0 > 0) and records, in per-row scratch, each step
///     whose ratio reaches the running max's 1e-9 relative band — the
///     steps a single-pass filter would send to atan2.  Pass 2 (the
///     angles) calls atan2(d_k, t_k) only on the recorded steps whose
///     ratio reaches the band of the *final* rmax;
///   * AVX2/AVX-512 twins vectorize the per-lane work across window
///     cells (runtime dispatch via util/simd, same contract as the
///     irradiance kernels).
///
/// Why the filter is exact: atan2(d, t) is monotone in d / t, and the
/// 1e-9 relative guard band dwarfs the rounding of both the ratio and
/// libm's atan2, so a step whose ratio lies below the band of another
/// step's ratio cannot hold the maximum angle.  Every step outside
/// pass 1's record lies below the band of an earlier recorded step
/// (the one that set the running max), and every recorded step outside
/// pass 2's final band lies below the band of the step attaining rmax,
/// which is itself recorded and evaluated.  The per-cell marcher's
/// running max over every step therefore equals the max over pass 2's
/// evaluations.  Evaluating every recorded step (the single-pass filter)
/// is exact by the same argument but costs an atan2 per new record — on
/// a ray climbing a roof or a neighbour's wall, nearly every step.
/// Measured atan2 calls per (cell, sector), single-pass -> two-pass:
/// 6.35 -> 0.64 on the perfbench city (40 m windows, 72 sectors),
/// 1.70 -> 0.85 on the 80 m window of bench_micro_kernels; the counters
/// geo.horizon.cell_sectors / geo.horizon.atan2_calls report the ratio
/// of any build.
///
/// Bitwise contract: every level — scalar batched, AVX2, AVX-512 —
/// produces horizon angles bitwise-identical to the per-cell differential
/// oracle (tests/oracles/horizon_reference), because each step's
/// lx/ly/bilinear/atan2 arithmetic is the exact scalar operation sequence
/// (mul+add, never FMA; the build sets -ffp-contract=off) and the max
/// over the candidate atan2 evaluations provably equals the per-step
/// running max.  tests/geo/test_horizon_kernels pins this differentially.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pvfp/geo/horizon.hpp"
#include "pvfp/geo/raster.hpp"

namespace pvfp::geo {

/// Cell-independent part of the march for one (HorizonOptions, cell size)
/// pair: the step distances and the per-sector direction offsets, rounded
/// exactly as the per-cell marcher rounds them.
struct HorizonSchedule {
    int sectors = 0;
    int steps = 0;
    /// Step distances t_k [m], ascending; the exact accumulation sequence
    /// of the per-cell marcher (t += dt; dt = min(dt*growth, max_step)).
    std::vector<double> t;
    /// Per-sector sample offsets, sector-major: xoff[s*steps + k] is
    /// fl(t_k * sin(az_s)); yoff likewise with -cos(az_s).
    std::vector<double> xoff;
    std::vector<double> yoff;
};

/// Build the schedule for \p options over a raster with \p cell_size.
/// Preconditions mirror the HorizonMap ctor (validated there).
HorizonSchedule make_horizon_schedule(const HorizonOptions& options,
                                      double cell_size);

/// March one window row (cells (x0..x0+win_w-1, y) of \p dsm) through all
/// sectors of \p sched and write the results:
///   angles_row[s*plane_stride + i] = float horizon angle of cell i in
///   sector s; svf_row[i] = float sky-view factor.
/// Dispatches on pvfp::simd_level(); every level is bitwise-identical to
/// the per-cell oracle.  Returns the number of atan2 evaluations, the
/// same at every level (the candidate set is a function of the shared
/// arithmetic).
std::uint64_t horizon_row_batched(const Raster& dsm, int x0, int y, int win_w,
                         const HorizonSchedule& sched, double observer_offset,
                         float* angles_row, std::size_t plane_stride,
                         float* svf_row);

namespace detail {

/// One (sector, row) march, fully precomputed: the kernels only run the
/// per-lane x-half of the bilinear sample and the two-pass ratio-max /
/// atan2 logic.
struct HorizonRowArgs {
    const double* grid = nullptr;  ///< DSM heights, row-major.
    int gw = 0;                    ///< Raster width [cells].
    double cs = 0.0;               ///< Cell size [m].
    double width_m = 0.0;          ///< Raster width [m] (gw * cs).
    const double* lx0 = nullptr;   ///< Per-lane local x of cell centers [n].
    const double* h0 = nullptr;    ///< Per-lane observer heights [n].
    int n = 0;                     ///< Lanes (window row width).
    const double* t = nullptr;     ///< Step distances [ksteps].
    const double* xoff = nullptr;  ///< Per-step x offsets [ksteps].
    const std::size_t* row0 = nullptr;  ///< Bilinear top-row offsets [ksteps].
    const std::size_t* row1 = nullptr;  ///< Bilinear bottom-row offsets.
    const double* ty = nullptr;    ///< Bilinear y fractions [ksteps].
    int ksteps = 0;                ///< Steps before the shared ly exits.
    double* best = nullptr;        ///< Out: per-lane horizon angle [n].
    /// Scratch of pass 1, one entry per candidate step (at most ksteps):
    /// entry j of a lane group holds the step index kbuf[j] and, at
    /// [j * group + lane] (group = 1 scalar, 4 AVX2, 8 AVX-512), that
    /// step's d = h - h0 in dbuf and its ratio in rbuf (-1 for lanes the
    /// step is no candidate of).  dbuf/rbuf hold ksteps * 8 doubles.
    double* dbuf = nullptr;
    double* rbuf = nullptr;
    int* kbuf = nullptr;
    std::uint64_t* atan2_calls = nullptr;  ///< In/out: atan2 calls, added.
};

void march_row_scalar(const HorizonRowArgs& a);
void march_row_avx2(const HorizonRowArgs& a);
void march_row_avx512(const HorizonRowArgs& a);

/// True when the translation unit carrying the AVX2/AVX-512 twin was
/// compiled with real intrinsics (x86-64 + GCC/Clang); otherwise the twin
/// is a stub that delegates to the scalar kernel.
bool horizon_avx2_compiled();
bool horizon_avx512_compiled();

}  // namespace detail

}  // namespace pvfp::geo
