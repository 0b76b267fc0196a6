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
  double (*squared_norm)(const double*, std::size_t);
  void (*exp_inplace)(double*, std::size_t);
  void (*kernel_row_panels)(const double*, double, std::size_t,
                            const double*, const double*, std::size_t,
                            const RowKernel&, double*);
  void (*kernel_tile)(const double*, const double*, std::size_t,
                      const double*, const double*, std::size_t,
                      const RowKernel&, double*);
  void (*ovo_reduce_tile)(const double*, const OvoMachine*, std::size_t,
                          double*);
  std::ptrdiff_t (*smo_update_argmax)(double*, const double*, const double*,
                                      const double*, double, double,
                                      const std::uint8_t*, std::size_t,
                                      double*);
  std::ptrdiff_t (*smo_wss2_argmin)(const double*, const double*,
                                    const std::uint8_t*, const double*,
                                    const double*, double, double, double,
                                    std::size_t, double*);
};

/// Always present.
const Ops* scalar_ops();

/// AVX2+FMA table, or nullptr when the build lacks the AVX2 TU.
const Ops* avx2_ops();

}  // namespace xdmodml::simd::detail
