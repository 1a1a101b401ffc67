// Process-wide heap allocation counters, fed by the global operator new
// replacement in alloc_hook.cc. Only the benchmark binary links it; the
// library itself is unchanged.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};

/// Allocations (and bytes requested) made by the calling thread so far.
AllocCounts AllocSnapshot();

}  // namespace perfbench
