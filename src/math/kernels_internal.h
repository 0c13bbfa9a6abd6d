#ifndef OPENEA_MATH_KERNELS_INTERNAL_H_
#define OPENEA_MATH_KERNELS_INTERNAL_H_

#include <cstddef>

#include "src/math/kernels.h"

// The bodies behind the AVX2 table's decision kernels (`rank_cosine`,
// `top1_cosine`), for the tests and the micro benchmark that check and time
// each of them. The library itself reaches a body only through the table,
// which picks it once from CPUID (DESIGN.md, "Kernel dispatch"); outside the
// kernel layer only tests and benches include this header.
namespace openea::math::kernels {

using RankCosineFn = void (*)(const RankTile& tile, ScanCounts* counts);
using Top1CosineFn = void (*)(const RankTile& tile, RankTop1* best);

/// The AVX2 table's `rank_cosine` body with `lanes` rows per register: 8
/// (AVX2; a group of kRankGroup rows runs as two halves) or 16 (AVX-512F).
/// nullptr when this build or CPU cannot run it: no AVX2 table, no
/// AVX2+FMA, or for 16 lanes no AVX-512F.
RankCosineFn RankCosineBodyForTesting(size_t lanes);

/// The same for the AVX2 table's `top1_cosine`.
Top1CosineFn Top1CosineBodyForTesting(size_t lanes);

}  // namespace openea::math::kernels

#endif  // OPENEA_MATH_KERNELS_INTERNAL_H_
