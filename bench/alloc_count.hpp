// Process-wide heap-allocation counter for the allocation gates.
//
// alloc_count.cpp replaces the global operator new family (plain, array
// and nothrow) and its matching operator delete family with malloc/free
// wrappers; every new bumps one counter.  A measured region snapshots
// alloc_count() before and after, so allocations outside it (stdio, gauge
// output, test-framework bookkeeping) never pollute the number.
//
// Link the ibridge_alloc_count object library only into binaries that
// gate on allocation counts (bench_simcore, bench_cacheplane, bench_scale,
// test_alloc_zones); every other binary keeps the normal runtime.
#pragma once

#include <cstdint>

namespace ibridge::bench {

/// Global operator new calls (all variants) made so far in this process.
std::uint64_t alloc_count();

/// Dumps a raw backtrace to stderr for each of the next `n` allocations
/// (glibc only), so a gate failure names its call site without a heap
/// profiler.  Pass 0 to disarm.
void trace_next_allocs(int n);

}  // namespace ibridge::bench
