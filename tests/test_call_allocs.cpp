// Heap-allocation budget of a steady-state lock-step call over the fiber
// fabric (DESIGN.md §8, "hot-path rule"): only the argument/result values
// and one frame buffer per direction may allocate, so a call's cost stays
// the work it does rather than heap and string bookkeeping around it.
//
// This file is its own executable because it replaces the global
// operator new with a counting one. Sanitizer builds interpose the
// allocator themselves, and lockdep builds (Debug) record every lock
// acquisition on the heap, so in both the test is skipped.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench/testbed.hpp"
#include "npss/procedures.hpp"
#include "rpc/client.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define NPSS_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define NPSS_ALLOC_COUNTING 0
#endif
#endif
#ifndef NPSS_ALLOC_COUNTING
#define NPSS_ALLOC_COUNTING 1
#endif

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

#if NPSS_ALLOC_COUNTING
// Every plain and array form funnels here (the library's operator new[]
// and nothrow forms call this one). Aligned forms are not counted; nothing
// on the call path over-aligns.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace npss {
namespace {

using uts::Value;

/// Allocations per call, the bound this suite holds the call path to.
/// The loop below measures 19.2 per call. Most of that is values: the
/// caller's argument list, the host's export and reply lists and the
/// handler's vectors. The rest is the two frames, the strings and blobs
/// each side decodes, and the attempt record in the CallResult. Before
/// the call path stopped allocating its own bookkeeping, the same loop
/// measured 70.4.
constexpr double kMaxAllocationsPerCall = 22.0;

uts::ValueList shaft_args(int i) {
  const double load = 1.0e7 + 1.0e3 * i;
  return {Value::real_array({load, 100.0, 1.0e5, 0.85}),
          Value::integer(1),
          Value::real_array({1.15e7, 100.0, 1.08e5, 0.89}),
          Value::integer(1),
          Value::real(0.99),
          Value::real(10000.0),
          Value::real(40.0),
          Value::real(0.0)};
}

TEST(CallAllocations, LockStepSimCallStaysWithinItsHeapBudget) {
  if (!NPSS_ALLOC_COUNTING) {
    GTEST_SKIP() << "the sanitizer runtime owns operator new here";
  }
#ifdef SCHOONER_LOCKDEP
  GTEST_SKIP() << "lockdep allocates a record per lock acquisition";
#endif
  bench::Testbed bed;
  auto session = bed.schooner->make_session("sparc-ua");
  auto line = session->open_line(rpc::LineOptions{}.with_name("allocs"));
  // Sparc caller, Cray host: every float converts through Cray words on
  // the host, the T2 run's most expensive marshal path.
  line->contact_schx("cray-lerc", glue::kShaftPath);
  auto shaft = line->import_proc("shaft", glue::shaft_import_spec());
  const rpc::CallOptions legacy = rpc::CallOptions::legacy();

  auto call = [&](int i) {
    rpc::CallResult r = shaft->call(shaft_args(i), legacy);
    ASSERT_TRUE(r.ok()) << r.status.to_string();
    ASSERT_EQ(r.values.size(), 8u);
    EXPECT_GT(r.values[7].as_real(), 0.0);
  };
  // Warm-up: the bind, the host's prepared import, the marshal plans,
  // the registry handles and the mailboxes' first blocks.
  for (int i = 0; i < 50; ++i) call(i);

  constexpr int kCalls = 200;
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < kCalls; ++i) call(i);
  const std::uint64_t after = g_allocations.load();
  const double per_call = static_cast<double>(after - before) / kCalls;
  std::printf("allocations per lock-step call: %.2f\n", per_call);
  EXPECT_LE(per_call, kMaxAllocationsPerCall);
  line->quit();
}

}  // namespace
}  // namespace npss
