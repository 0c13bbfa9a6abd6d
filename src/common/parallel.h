#ifndef OPENEA_COMMON_PARALLEL_H_
#define OPENEA_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace openea {

/// The parallel compute core: a lazily-initialized global thread pool with a
/// fork-join ParallelFor and a deterministic ordered reduction. Design
/// contract (DESIGN.md, "Compute core"):
///
///  * Thread count is a process-global knob (SetThreads / --threads /
///    OPENEA_THREADS), default 1. It decides how many workers run, never
///    what they compute: the epoch trainers draw from the same per-shard
///    streams at every count, so a run's results do not depend on it.
///  * Loops whose iterations write disjoint outputs are bit-identical at any
///    thread count because chunking only changes *who* runs an iteration.
///  * Reductions are deterministic when the chunk grain is fixed by the
///    caller: partials are combined in chunk order, never in completion
///    order, so the floating-point result is independent of thread count.
///  * Nested ParallelFor calls from inside a worker run inline (serially);
///    the pool never deadlocks on re-entry.

/// Returns the number of hardware threads (>= 1).
int HardwareThreads();

/// Sets the global worker count. 0 selects HardwareThreads(); values are
/// clamped to >= 1. Takes effect on the next parallel call.
void SetThreads(int threads);

/// The currently configured thread count (>= 1). Initialized from the
/// OPENEA_THREADS environment variable when set, else 1.
int Threads();

/// True when the calling thread is a pool worker (used to run nested
/// parallel constructs inline).
bool InParallelWorker();

/// Splits [begin, end) into contiguous chunks of `grain` indices and runs
/// fn(chunk_begin, chunk_end) for every chunk across the pool, blocking
/// until all chunks finish. `grain == 0` picks an automatic chunk size from
/// the range and thread count (use an explicit grain when downstream
/// determinism depends on the chunk layout). Empty ranges return without
/// invoking fn; a grain larger than the range yields a single chunk. fn must
/// not throw.
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn);

/// Deterministic ordered reduction: splits [begin, end) into chunks of
/// exactly `grain` indices (the last chunk may be short), evaluates
/// partial = map(chunk_begin, chunk_end) for each chunk in parallel, and
/// folds the partials strictly in chunk order with
/// acc = combine(std::move(acc), std::move(partial)). Because the chunk
/// layout depends only on `grain`, the result is bit-identical for any
/// thread count, including 1. `grain == 0` is treated as the whole range.
template <typename T, typename MapFn, typename CombineFn>
T ParallelReduceOrdered(size_t begin, size_t end, size_t grain, T init,
                        MapFn map, CombineFn combine) {
  if (end <= begin) return init;
  const size_t range = end - begin;
  if (grain == 0 || grain > range) grain = range;
  const size_t num_chunks = (range + grain - 1) / grain;
  std::vector<T> partials(num_chunks, init);
  ParallelFor(0, num_chunks, 1, [&](size_t cb, size_t ce) {
    for (size_t c = cb; c < ce; ++c) {
      const size_t lo = begin + c * grain;
      const size_t hi = lo + grain < end ? lo + grain : end;
      partials[c] = map(lo, hi);
    }
  });
  T acc = std::move(init);
  for (size_t c = 0; c < num_chunks; ++c) {
    acc = combine(std::move(acc), std::move(partials[c]));
  }
  return acc;
}

}  // namespace openea

#endif  // OPENEA_COMMON_PARALLEL_H_
