// Tests of the utility substrate: byte reader/writer framing, virtual
// clocks, error taxonomy, and the parallel_for helper's chunking.
#include <gtest/gtest.h>

#include <atomic>

#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/parallel.hpp"
#include "util/status.hpp"

namespace npss::util {
namespace {

TEST(Bytes, WriterReaderRoundTripAllTypes) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i32(-42);
  w.i64(-1ll << 40);
  w.f32(3.5f);
  w.f64(-2.25);
  w.str("schooner");
  w.blob({{1, 2, 3}});

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1ll << 40);
  EXPECT_EQ(r.f32(), 3.5f);
  EXPECT_EQ(r.f64(), -2.25);
  EXPECT_EQ(r.str(), "schooner");
  EXPECT_EQ(r.blob(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, BigEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  EXPECT_EQ(w.bytes(), (Bytes{1, 2, 3, 4}));
}

TEST(Bytes, UnderflowThrowsEncodingError) {
  Bytes two{1, 2};
  ByteReader r(two);
  EXPECT_THROW((void)r.u32(), EncodingError);
  ByteReader r2(two);
  r2.u16();
  EXPECT_THROW((void)r2.u8(), EncodingError);
}

TEST(Bytes, StringLengthValidatedBeforeRead) {
  ByteWriter w;
  w.u32(1000);  // claims 1000 bytes, provides none
  ByteReader r(w.bytes());
  EXPECT_THROW((void)r.str(), EncodingError);
}

TEST(Bytes, HexDump) {
  EXPECT_EQ(hex_dump(Bytes{0x00, 0xff, 0x3f}), "00 ff 3f");
  EXPECT_EQ(hex_dump(Bytes{}), "");
}

TEST(Clock, AdvanceAndJoinAreMonotone) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.advance(100);
  EXPECT_EQ(clock.now(), 100);
  clock.join(50);  // earlier stamp never rewinds
  EXPECT_EQ(clock.now(), 100);
  clock.join(250);
  EXPECT_EQ(clock.now(), 250);
  clock.reset();
  EXPECT_EQ(clock.now(), 0);
}

TEST(Clock, SimTimeConversions) {
  EXPECT_EQ(sim_ms(1.5), 1500);
  EXPECT_DOUBLE_EQ(sim_to_ms(2500), 2.5);
}

TEST(Status, ErrorsCarryCodeAndCategory) {
  RangeError e("too big");
  EXPECT_EQ(e.code(), ErrorCode::kRangeError);
  EXPECT_NE(std::string(e.what()).find("range-error"), std::string::npos);
  EXPECT_NE(std::string(e.what()).find("too big"), std::string::npos);
}

TEST(Parallel, CoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; }, 4);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Parallel, WorkerExceptionRethrownOnCaller) {
  // Regression: an exception escaping a worker used to unwind out of the
  // std::jthread body and std::terminate the process. It must instead be
  // rethrown on the joining thread.
  EXPECT_THROW(
      parallel_for(
          0, 64,
          [](std::size_t i) {
            if (i == 17) throw RangeError("boom at 17");
          },
          4),
      RangeError);
}

TEST(Parallel, ExceptionStopsRemainingWork) {
  std::atomic<int> ran{0};
  try {
    parallel_for(
        0, 100000,
        [&](std::size_t) {
          ++ran;
          throw ModelError("fail fast");
        },
        4);
    FAIL() << "expected ModelError";
  } catch (const ModelError&) {
  }
  // Each worker stops at its next iteration once a failure is flagged, so
  // only a small fraction of the range runs.
  EXPECT_LT(ran.load(), 100000);
}

TEST(Status, RaiseErrorRestoresConcreteType) {
  for (ErrorCode code :
       {ErrorCode::kTypeMismatch, ErrorCode::kLookupFailure,
        ErrorCode::kStaleBinding, ErrorCode::kConvergenceFailure}) {
    try {
      raise_error(code, "x");
      FAIL();
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), code);
    }
  }
  EXPECT_THROW(raise_error(ErrorCode::kShutdown, "x"), ShutdownError);
  EXPECT_THROW(raise_error(ErrorCode::kUnknown, "x"), Error);
}

}  // namespace
}  // namespace npss::util
