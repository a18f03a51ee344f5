// Property tests with deterministic pseudo-random generation: UTS type
// trees round-trip through the spec language; random canonical payloads
// round-trip across architectures; mutated wire frames never crash the
// message codec (they parse or throw EncodingError); and the Manager
// answers garbage with errors instead of dying.
#include <gtest/gtest.h>

#include <cstdint>

#include "meta/core.hpp"
#include "meta/record.hpp"
#include "meta/state.hpp"
#include "rpc/schooner.hpp"
#include "uts/canonical.hpp"
#include "uts/spec.hpp"

namespace npss {
namespace {

/// Deterministic splitmix64 for reproducible "random" cases.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  int below(int n) { return static_cast<int>(next() % n); }
  double real() {
    return static_cast<double>(next() >> 11) / (1ull << 53);
  }

 private:
  std::uint64_t state_;
};

uts::Type random_type(Rng& rng, int depth) {
  const int kind = rng.below(depth > 0 ? 7 : 5);
  switch (kind) {
    case 0: return uts::Type::floating();
    case 1: return uts::Type::real_double();
    case 2: return uts::Type::integer();
    case 3: return uts::Type::byte();
    case 4: return uts::Type::string();
    case 5:
      return uts::Type::array(1 + rng.below(6), random_type(rng, depth - 1));
    default: {
      std::vector<std::pair<std::string, uts::Type>> fields;
      const int n = 1 + rng.below(3);
      for (int i = 0; i < n; ++i) {
        fields.emplace_back("f" + std::to_string(i),
                            random_type(rng, depth - 1));
      }
      return uts::Type::record(std::move(fields));
    }
  }
}

uts::Value random_value(Rng& rng, const uts::Type& type) {
  switch (type.kind()) {
    case uts::TypeKind::kFloat:
      return uts::Value::real(
          static_cast<float>((rng.real() - 0.5) * 2e6));
    case uts::TypeKind::kDouble:
      return uts::Value::real((rng.real() - 0.5) * 2e12);
    case uts::TypeKind::kInteger:
      return uts::Value::integer(rng.below(2'000'000) - 1'000'000);
    case uts::TypeKind::kByte:
      return uts::Value::byte(static_cast<std::uint8_t>(rng.below(256)));
    case uts::TypeKind::kString: {
      std::string s;
      const int n = rng.below(20);
      for (int i = 0; i < n; ++i) {
        s.push_back(static_cast<char>('a' + rng.below(26)));
      }
      return uts::Value::str(std::move(s));
    }
    case uts::TypeKind::kArray: {
      uts::ValueList items;
      for (std::size_t i = 0; i < type.array_size(); ++i) {
        items.push_back(random_value(rng, type.element()));
      }
      return uts::Value::array(std::move(items));
    }
    case uts::TypeKind::kRecord: {
      uts::ValueList fields;
      for (const uts::Field& f : type.fields()) {
        fields.push_back(random_value(rng, *f.type));
      }
      return uts::Value::record(std::move(fields));
    }
  }
  return uts::Value::real(0);
}

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededProperty, RandomDeclRoundTripsThroughSpecLanguage) {
  Rng rng(GetParam());
  uts::Signature sig;
  const int params = 1 + rng.below(6);
  for (int i = 0; i < params; ++i) {
    sig.push_back(uts::Param{
        "p" + std::to_string(i),
        static_cast<uts::ParamMode>(rng.below(3)), random_type(rng, 3)});
  }
  uts::ProcDecl decl{uts::DeclKind::kExport, "proc", sig};
  std::string text = uts::decl_to_string(decl);
  uts::SpecFile reparsed = uts::parse_spec(text);
  ASSERT_EQ(reparsed.decls.size(), 1u);
  EXPECT_EQ(reparsed.decls[0].name, "proc");
  ASSERT_EQ(reparsed.decls[0].signature.size(), sig.size());
  for (std::size_t i = 0; i < sig.size(); ++i) {
    EXPECT_EQ(reparsed.decls[0].signature[i], sig[i]) << i;
  }
}

TEST_P(SeededProperty, RandomValueSurvivesCanonicalRoundTrip) {
  Rng rng(GetParam() ^ 0xabcdef);
  const uts::Type type = random_type(rng, 3);
  const uts::Value value = random_value(rng, type);
  const auto& sparc = arch::arch_catalog("sun-sparc10");
  const auto& rs6000 = arch::arch_catalog("ibm-rs6000");
  util::ByteWriter out;
  uts::encode_canonical(sparc, type, value, out);
  EXPECT_EQ(out.size(), uts::canonical_size(type, value));
  util::ByteReader in(out.bytes());
  uts::Value back = uts::decode_canonical(rs6000, type, in);
  EXPECT_TRUE(in.exhausted());
  // Both machines are IEEE; only `float` fields quantize, and the source
  // values were generated pre-quantized, so equality is exact.
  EXPECT_EQ(back, value);
}

TEST_P(SeededProperty, MutatedWireFramesNeverCrashTheCodec) {
  Rng rng(GetParam() ^ 0x5eed);
  rpc::Message msg;
  msg.kind = rpc::MessageKind::kCall;
  msg.seq = rng.next();
  msg.line = rng.below(100);
  msg.a = "shaft";
  msg.b = "import shaft prog(\"x\" val float)";
  msg.blob = {1, 2, 3, 4};
  msg.table = {{"k", "v"}};
  util::Bytes wire = rpc::encode_message(msg);
  for (int trial = 0; trial < 200; ++trial) {
    util::Bytes mutated = wire;
    const int mutations = 1 + rng.below(4);
    for (int m = 0; m < mutations; ++m) {
      switch (rng.below(3)) {
        case 0:
          mutated[rng.below(static_cast<int>(mutated.size()))] =
              static_cast<std::uint8_t>(rng.below(256));
          break;
        case 1:
          if (mutated.size() > 1) {
            mutated.resize(mutated.size() - 1 - rng.below(
                static_cast<int>(mutated.size() - 1)));
          }
          break;
        default:
          mutated.push_back(static_cast<std::uint8_t>(rng.below(256)));
      }
    }
    if (mutated.empty()) continue;
    try {
      rpc::Message decoded = rpc::decode_message(mutated);
      (void)decoded;  // structurally valid mutation — fine
    } catch (const util::EncodingError&) {
      // malformed — also fine; anything else would crash the Manager
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull,
                                           13ull, 21ull, 34ull, 55ull,
                                           89ull));

TEST(ManagerRobustness, GarbageAndWrongProtocolGetErrorsNotCrashes) {
  sim::Cluster cluster;
  cluster.add_machine("host", "sun-sparc10", "a");
  rpc::SchoonerSystem schooner(cluster, "host");
  auto probe = cluster.create_endpoint("host", "prober");
  rpc::MessageIo io(cluster, probe);

  // A reply-kind message the Manager never asked for.
  rpc::Message bogus;
  bogus.kind = rpc::MessageKind::kSpawnAck;
  bogus.seq = 7;
  io.send(schooner.manager_address(), bogus);

  // An operation on a line that does not exist.
  rpc::Message ghost;
  ghost.kind = rpc::MessageKind::kStartRequest;
  ghost.line = 424242;
  ghost.a = "host";
  ghost.b = "/bin/none";
  rpc::Message reply =
      io.call(schooner.manager_address(), ghost, /*raise_errors=*/false);
  EXPECT_TRUE(reply.is_error());

  // A lookup with an unparseable import signature.
  rpc::Message bad_sig;
  bad_sig.kind = rpc::MessageKind::kLookup;
  bad_sig.line = 1;
  bad_sig.a = "shaft";
  bad_sig.b = "this is not a specification";
  reply = io.call(schooner.manager_address(), bad_sig,
                  /*raise_errors=*/false);
  EXPECT_TRUE(reply.is_error());

  // The Manager is still alive and serving.
  rpc::Message ping;
  ping.kind = rpc::MessageKind::kPing;
  EXPECT_EQ(io.call(schooner.manager_address(), ping).kind,
            rpc::MessageKind::kPong);
}

meta::ChangeRecord random_record(Rng& rng) {
  meta::ChangeRecord rec;
  rec.kind = static_cast<meta::RecordKind>(1 + rng.below(5));
  rec.line = rng.below(2) ? -1 : rng.below(1000);
  rec.shared = rng.below(2) == 1;
  rec.quota = rng.below(2) ? 0 : rng.below(64);
  rec.term = rng.next() % 16;  // v3 field: per-entry election term
  auto random_text = [&rng]() {
    std::string s;
    const int len = rng.below(24);
    for (int i = 0; i < len; ++i) {
      // Arbitrary bytes, including NUL and high bit: the codec is
      // length-prefixed, not delimiter-based.
      s.push_back(static_cast<char>(rng.next() & 0xff));
    }
    return s;
  };
  rec.address = random_text();
  rec.machine = random_text();
  rec.path = random_text();
  rec.spec_hash = random_text();
  rec.note = random_text();
  const int procs = rng.below(4);
  for (int i = 0; i < procs; ++i) {
    rec.procs.emplace_back(random_text(), random_text());
  }
  return rec;
}

TEST(MetaRecordProperties, RandomRecordsRoundTripExactly) {
  Rng rng(0x5eedf00d);
  for (int i = 0; i < 200; ++i) {
    meta::ChangeRecord rec = random_record(rng);
    meta::ChangeRecord back = meta::decode_record(meta::encode_record(rec));
    EXPECT_EQ(back, rec) << "record " << i;
  }
  // Batch framing round-trips too, indices included.
  std::vector<std::pair<std::uint64_t, meta::ChangeRecord>> batch;
  for (int i = 0; i < 16; ++i) {
    batch.emplace_back(rng.next(), random_record(rng));
  }
  EXPECT_EQ(meta::decode_record_batch(meta::encode_record_batch(batch)),
            batch);
}

TEST(MetaRecordProperties, ReplayIsIdempotentByIndex) {
  // Applying a record sequence once, or with every record duplicated
  // (the overlapping snapshot + log-tail delivery a follower can see),
  // converges to the same state and digest.
  Rng rng(0xfadedcab);
  std::vector<meta::ChangeRecord> records;
  for (int i = 0; i < 64; ++i) records.push_back(random_record(rng));

  meta::ReplicatedState once;
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_TRUE(once.apply(records[i], i + 1));
  }
  meta::ReplicatedState twice;
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_TRUE(twice.apply(records[i], i + 1));
    EXPECT_FALSE(twice.apply(records[i], i + 1));  // duplicate is a no-op
  }
  EXPECT_EQ(once, twice);
  EXPECT_EQ(once.digest(), twice.digest());

  // And the state image itself round-trips through serialization.
  EXPECT_EQ(meta::ReplicatedState::deserialize(once.serialize()), once);
}

// --- Adversarial decoding: torn, bit-flipped, and length-lying frames -------
//
// The catch-up path feeds wire bytes straight into decode_record /
// decode_record_batch / ReplicatedState::deserialize. None of them may
// crash, over-read, or allocate unbounded memory on hostile input — they
// parse, or they throw EncodingError.

template <typename Decode>
void expect_parse_or_throw(const util::Bytes& frame, Decode&& decode,
                           const char* what) {
  try {
    decode(frame);
  } catch (const util::EncodingError&) {
    // rejected cleanly — the acceptable outcome for a damaged frame
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": unexpected exception type: " << e.what();
  }
}

TEST(MetaRecordAdversarial, MutatedRecordBytesParseOrThrowNeverCrash) {
  Rng rng(0xbadc0de5);
  const auto decode = [](const util::Bytes& b) {
    (void)meta::decode_record(b);
  };
  for (int i = 0; i < 150; ++i) {
    const util::Bytes frame = meta::encode_record(random_record(rng));
    // Single-byte corruption anywhere in the frame.
    util::Bytes flipped = frame;
    flipped[static_cast<std::size_t>(rng.below(
        static_cast<int>(frame.size())))] ^= 1u << rng.below(8);
    expect_parse_or_throw(flipped, decode, "bit flip");
    // Truncation at every prefix length would be O(n^2); a random cut
    // per frame covers the same decoder states across 150 frames.
    util::Bytes cut(frame.begin(),
                    frame.begin() + rng.below(static_cast<int>(frame.size())));
    expect_parse_or_throw(cut, decode, "truncation");
    // Appended garbage must be flagged, not silently ignored.
    util::Bytes padded = frame;
    padded.push_back(static_cast<std::uint8_t>(rng.next()));
    EXPECT_THROW((void)meta::decode_record(padded), util::EncodingError);
  }
}

TEST(MetaRecordAdversarial, MutatedBatchAndSnapshotFramesNeverCrash) {
  Rng rng(0x7e55e11a);
  std::vector<std::pair<std::uint64_t, meta::ChangeRecord>> batch;
  meta::ReplicatedState state;
  for (int i = 0; i < 12; ++i) {
    batch.emplace_back(static_cast<std::uint64_t>(i + 1), random_record(rng));
    meta::ChangeRecord rec = random_record(rng);
    state.apply(rec, static_cast<std::uint64_t>(i + 1));
  }
  const util::Bytes batch_frame = meta::encode_record_batch(batch);
  const util::Bytes image = state.serialize();
  const auto decode_batch = [](const util::Bytes& b) {
    (void)meta::decode_record_batch(b);
  };
  const auto decode_image = [](const util::Bytes& b) {
    (void)meta::ReplicatedState::deserialize(b);
  };
  for (int i = 0; i < 300; ++i) {
    const bool is_batch = rng.below(2) != 0;
    util::Bytes frame = is_batch ? batch_frame : image;
    switch (rng.below(3)) {
      case 0:
        frame[static_cast<std::size_t>(
            rng.below(static_cast<int>(frame.size())))] ^= 1u << rng.below(8);
        break;
      case 1:
        frame.resize(static_cast<std::size_t>(
            rng.below(static_cast<int>(frame.size()))));
        break;
      default:
        frame.push_back(static_cast<std::uint8_t>(rng.next()));
        break;
    }
    if (is_batch) {
      expect_parse_or_throw(frame, decode_batch, "mutated batch frame");
    } else {
      expect_parse_or_throw(frame, decode_image, "mutated snapshot image");
    }
  }
}

TEST(MetaRecordAdversarial, LengthLyingCountsAreRejectedNotAllocated) {
  // A frame that *claims* four billion procs/records/lines must be
  // rejected by the count-versus-remaining-bytes guard before any
  // allocation happens — not after an out-of-memory attempt.
  {
    util::ByteWriter out;  // record with procs count = 0xffffffff
    out.u8(meta::kRecordVersion);
    out.u8(1);   // kLineCreate
    out.i64(7);
    out.u8(0);
    for (int i = 0; i < 5; ++i) out.str("");
    out.u32(0xffffffffu);
    EXPECT_THROW((void)meta::decode_record(std::move(out).take()),
                 util::EncodingError);
  }
  {
    util::ByteWriter out;  // batch with record count = 0xffffffff
    out.u8(meta::kRecordVersion);
    out.u32(0xffffffffu);
    EXPECT_THROW((void)meta::decode_record_batch(std::move(out).take()),
                 util::EncodingError);
  }
  {
    util::ByteWriter out;  // snapshot image with line count = 0xffffffff
    out.u8(meta::kStateVersion);
    out.u64(3);   // last_applied
    out.i64(4);   // next_line
    out.u32(0xffffffffu);
    EXPECT_THROW(
        (void)meta::ReplicatedState::deserialize(std::move(out).take()),
        util::EncodingError);
  }
  {
    util::ByteWriter out;  // batch whose nested blob length lies
    out.u8(meta::kRecordVersion);
    out.u32(1);
    out.u64(1);           // index
    out.u32(0x7fffffffu); // blob claims 2 GiB follow; 2 bytes do
    out.u8(0);
    out.u8(0);
    EXPECT_THROW((void)meta::decode_record_batch(std::move(out).take()),
                 util::EncodingError);
  }
}

/// A replica message of `kind` with every field random; encode_msg keeps
/// only the ones the kind carries.
meta::Msg random_msg(Rng& rng, meta::MsgKind kind) {
  meta::Msg m;
  m.kind = kind;
  m.term = rng.next() % 64;
  m.index = rng.next();
  m.prev_term = rng.next();
  m.last_index = rng.next();
  m.last_term = rng.next();
  m.commit = rng.next();
  m.commit_term = rng.next();
  m.granted = rng.below(2) == 1;
  m.record = random_record(rng);
  m.snap_index = rng.next();
  m.snap_term = rng.next();
  m.snap_digest = std::string(static_cast<std::size_t>(rng.below(65)), 'd');
  meta::ReplicatedState state;
  const int applied = rng.below(4);
  for (int i = 0; i < applied; ++i) {
    state.apply(random_record(rng), static_cast<std::uint64_t>(i + 1));
  }
  m.snapshot = state.serialize();
  const int tail = rng.below(4);
  for (int i = 0; i < tail; ++i) {
    m.batch.emplace_back(rng.next(), random_record(rng));
  }
  return m;
}

TEST(MetaMsgAdversarial, MutatedFramesOfEveryKindParseOrThrowNeverCrash) {
  // The Manager hands every replica frame off the fabric to decode_msg;
  // a damaged one must parse or be refused, on every kind.
  Rng rng(0x3e9a1c0d);
  const auto decode = [](const util::Bytes& b) {
    (void)meta::decode_msg(b, 1);
  };
  for (int round = 0; round < 30; ++round) {
    for (auto kind = static_cast<std::uint8_t>(meta::MsgKind::kHeartbeat);
         kind <= static_cast<std::uint8_t>(meta::MsgKind::kFetchAck);
         ++kind) {
      const auto k = static_cast<meta::MsgKind>(kind);
      const util::Bytes frame = meta::encode_msg(random_msg(rng, k));
      util::Bytes flipped = frame;
      flipped[static_cast<std::size_t>(rng.below(
          static_cast<int>(frame.size())))] ^= 1u << rng.below(8);
      expect_parse_or_throw(flipped, decode, "bit flip");
      // Every field is fixed-width or length-prefixed, so every proper
      // prefix of a frame is short of a field it promised.
      for (std::size_t cut = 0; cut < frame.size(); ++cut) {
        EXPECT_THROW(
            (void)meta::decode_msg(
                util::Bytes(frame.begin(),
                            frame.begin() + static_cast<std::ptrdiff_t>(cut)),
                1),
            util::EncodingError)
            << meta::msg_kind_name(k) << " cut at " << cut;
      }
      util::Bytes padded = frame;
      padded.push_back(static_cast<std::uint8_t>(rng.next()));
      EXPECT_THROW((void)meta::decode_msg(padded, 1), util::EncodingError)
          << meta::msg_kind_name(k);
    }
  }
}

TEST(MetaMsgAdversarial, LyingBatchCountIsRejectedNotAllocated) {
  // A fetch-ack whose record batch claims four billion entries: reserving
  // them would throw bad_alloc or length_error, so EncodingError here
  // means the count guard ran before any allocation.
  util::ByteWriter batch;
  batch.u8(meta::kRecordVersion);
  batch.u32(0xffffffffu);
  util::ByteWriter out;
  out.u8(static_cast<std::uint8_t>(meta::MsgKind::kFetchAck));
  out.u64(3);   // term
  out.u64(0);   // snap_index
  out.u64(0);   // snap_term
  out.str("");  // snap_digest
  out.u64(0);   // commit
  out.blob(util::Bytes{});  // snapshot
  out.blob(std::move(batch).take());
  EXPECT_THROW((void)meta::decode_msg(std::move(out).take(), 0),
               util::EncodingError);
}

}  // namespace
}  // namespace npss
