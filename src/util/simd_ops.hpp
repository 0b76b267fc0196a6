// Internal dispatch table for the SIMD microkernels.
//
// Each ISA target fills one immutable `Ops` table; `simd.cpp` owns the
// scalar table and the startup selection, `simd_<isa>.cpp` owns that
// ISA's table behind a compile-time gate (returning nullptr when the
// translation unit was built without the ISA).  Adding a new target —
// AVX-512, NEON — means one new source file implementing these entry
// points plus a line in the selection ladder; the public API in
// simd.hpp never changes.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/simd.hpp"

namespace xdmodml::simd::detail {

struct Ops {
  double (*dot)(const double*, const double*, std::size_t);
  void (*dot_rows)(const double*, const double*, std::size_t, std::size_t,
                   double*);
  double (*squared_norm)(const double*, std::size_t);
  void (*exp_inplace)(double*, std::size_t);
  void (*rbf_row_transform)(double*, const double*, std::size_t, double,
                            double);
  void (*poly_row_transform_powi)(double*, std::size_t, double, double,
                                  std::uint64_t);
  void (*kernel_row_panels)(const double*, double, std::size_t,
                            const double*, const double*, std::size_t,
                            const RowKernel&, double*);
  void (*kernel_tile)(const double*, const double*, std::size_t,
                      const double*, const double*, std::size_t,
                      const RowKernel&, double*);
  void (*ovo_reduce_tile)(const double*, const OvoMachine*, std::size_t,
                          double*);
};

/// Always present.
const Ops* scalar_ops();

/// AVX2+FMA table, or nullptr when the build lacks the AVX2 TU.
const Ops* avx2_ops();

// The AVX2 table's serving kernels live in simd_avx2_serve.cpp, a TU of
// their own because it compiles with -ffp-contract=off (see there).
// Defined only when XDMODML_HAVE_AVX2 is.
void kernel_row_panels_avx2(const double* x, double x_sq, std::size_t d,
                            const double* panels, const double* sq_norms,
                            std::size_t n_rows, const RowKernel& kernel,
                            double* out);
void kernel_tile_avx2(const double* queries_t, const double* x_sq,
                      std::size_t d, const double* panels,
                      const double* sq_norms, std::size_t n_rows,
                      const RowKernel& kernel, double* out);
void ovo_reduce_tile_avx2(const double* block, const OvoMachine* machines,
                          std::size_t count, double* f);

}  // namespace xdmodml::simd::detail
