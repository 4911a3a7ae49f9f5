//===- wcs/polybench/Polybench.h - PolyBench 4.2.1 workloads ----*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 30 PolyBench 4.2.1 kernels (the paper's benchmark suite, Sec. 6.1)
/// re-derived from the reference C sources and expressed in the wcs
/// frontend dialect, with problem-size tables scaled for laptop-sized
/// experiments (see "Reproducing the paper's figures" in README.md:
/// cache sizes and problem sizes are scaled together to preserve the
/// working-set/cache-size regime).
///
/// Deviations from the C sources are documented per kernel in
/// Kernels.cpp; they never change the array access pattern except where
/// noted (e.g. data-dependent ternaries become min/max calls with the
/// same reads).
///
//===----------------------------------------------------------------------===//

#ifndef WCS_POLYBENCH_POLYBENCH_H
#define WCS_POLYBENCH_POLYBENCH_H

#include "wcs/scop/Program.h"

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wcs {

/// PolyBench problem-size classes (scaled; paper uses L and XL).
enum class ProblemSize { Mini, Small, Medium, Large, ExtraLarge };
inline constexpr unsigned NumProblemSizes = 5;

const char *problemSizeName(ProblemSize S);

/// Inverse of problemSizeName, case-insensitive; also accepts the
/// command-line spelling "xlarge" for ExtraLarge. Returns false on an
/// unknown name, leaving \p Out untouched.
bool parseProblemSize(const std::string &Name, ProblemSize &Out);

/// Static description of one kernel.
struct KernelInfo {
  const char *Name;
  const char *Category; ///< blas, kernels, solvers, datamining, stencils,
                        ///< medley, dynprog.
  std::vector<std::string> ParamNames;
  /// Parameter values per problem size (same order as ParamNames).
  std::array<std::vector<int64_t>, NumProblemSizes> SizeValues;
  const char *Source; ///< Kernel in the wcs frontend dialect.
};

/// All 30 kernels, in the paper's Fig. 10 order.
const std::vector<KernelInfo> &polybenchKernels();

/// Finds a kernel by name; nullptr if unknown.
const KernelInfo *findKernel(const std::string &Name);

/// Parameter binding of \p K at \p S.
std::map<std::string, int64_t> paramBinding(const KernelInfo &K,
                                            ProblemSize S);

/// Parses and finalizes kernel \p K at problem size \p S. On failure
/// returns an empty program and sets \p Error.
ScopProgram buildKernel(const KernelInfo &K, ProblemSize S,
                        std::string *Error = nullptr);
ScopProgram buildKernel(const std::string &Name, ProblemSize S,
                        std::string *Error = nullptr);

} // namespace wcs

#endif // WCS_POLYBENCH_POLYBENCH_H
