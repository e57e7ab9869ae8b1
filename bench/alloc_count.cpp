// The global operator new replacement behind the allocation gates; see
// alloc_count.hpp.
//
// Every variant the toolchain may call is replaced, nothrow new included:
// std::stable_sort takes its buffer from nothrow new and frees it through
// plain delete, so leaving nothrow new to the runtime (or to ASan's
// interceptor) would pair a foreign allocation with this file's free().
#include "bench/alloc_count.hpp"

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>

#if defined(__GLIBC__)
#include <execinfo.h>
#endif

namespace {

std::atomic<std::uint64_t> g_new_calls{0};
std::atomic<int> g_trace_budget{0};

void* counted_malloc(std::size_t n) noexcept {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
#if defined(__GLIBC__)
  if (g_trace_budget.load(std::memory_order_relaxed) > 0 &&
      g_trace_budget.fetch_sub(1, std::memory_order_relaxed) > 0) {
    void* frames[32];
    const int depth = backtrace(frames, 32);
    std::fprintf(stderr, "---- alloc of %zu bytes ----\n", n);
    backtrace_symbols_fd(frames, depth, 2);
  }
#endif
  return std::malloc(n != 0 ? n : 1);
}

}  // namespace

namespace ibridge::bench {

std::uint64_t alloc_count() {
  return g_new_calls.load(std::memory_order_relaxed);
}

void trace_next_allocs(int n) {
  g_trace_budget.store(n, std::memory_order_relaxed);
}

}  // namespace ibridge::bench

void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
