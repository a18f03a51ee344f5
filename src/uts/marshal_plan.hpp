// Compiled marshal plans — the steady-state fast path of the UTS codec.
//
// The paper's stub compilers existed so data conversion could be
// specialized per architecture pair instead of interpreted per call (§4.1
// shows conversion dominating Schooner call cost). A MarshalPlan is that
// idea applied here: at bind/import time a Signature + Direction is
// compiled into a flat instruction list — contiguous scalar runs, string
// slots, record/array structure flattened with precomputed wire offsets —
// and steady-state calls execute the plan instead of recursing over Type.
//
// Two execution modes per scalar run:
//  * same-representation fast path — when the architecture's native float
//    formats ARE the canonical formats (IEEE binary32/binary64), the
//    quantize round trip through the float format words is the identity,
//    so runs reduce to bulk big-endian bit moves. binary32 keeps the
//    finite-overflow RangeError with text identical to
//    arch::encode_ieee32.
//  * fallback — Cray / IBM-hex architectures go through exactly the same
//    detail::quantize / float_encode_word calls as the interpreted codec
//    (words in registers, no per-element heap allocation), so wire bytes,
//    precision loss, flush-to-zero and RangeError text are bit-for-bit
//    unchanged (test_marshal_plan fuzzes this equivalence).
//
// Plans are architecture-independent: one plan serves every arch, choosing
// fast or fallback per marshal()/unmarshal() call.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "uts/canonical.hpp"

namespace npss::uts {

/// One step of a compiled plan. Scalar runs cover `count` contiguous
/// leaves that are direct children of the current composite frame (the
/// compiler never merges runs across a composite boundary, so decode can
/// rebuild structure without re-consulting the Type).
enum class PlanOp : std::uint8_t {
  kFloatRun = 0,  ///< `count` canonical binary32 scalars
  kDoubleRun,     ///< `count` canonical binary64 scalars
  kIntegerRun,    ///< `count` canonical 32-bit integers
  kByteRun,       ///< `count` canonical octets
  kStringRun,     ///< `count` length-prefixed strings
  kOpenArray,     ///< descend into an array of `count` elements
  kOpenRecord,    ///< descend into a record of `count` fields
};

std::string_view plan_op_name(PlanOp op);

struct PlanStep {
  PlanOp op;
  std::uint32_t count;
  std::uint32_t offset;  ///< wire offset within the parameter batch;
                         ///< meaningful only when the plan is fixed_size()
};

/// A Signature + Direction compiled for repeated marshal/unmarshal.
/// Immutable after construction; safe to share across threads.
class MarshalPlan {
 public:
  MarshalPlan(Signature signature, Direction direction);

  /// Drop-in replacements for uts::marshal / uts::unmarshal with the same
  /// signature/direction baked in: identical bytes, identical errors.
  util::Bytes marshal(const arch::ArchDescriptor& source,
                      const ValueList& values) const;
  /// Append the marshaled batch to `out` — identical bytes and errors,
  /// but no intermediate buffer: the RPC bus marshals call arguments
  /// directly into a connection's pending frame buffer. On error, bytes
  /// may have been appended; callers that need atomicity record
  /// out.size() first and truncate back.
  void marshal_into(const arch::ArchDescriptor& source,
                    const ValueList& values, util::ByteWriter& out) const;
  ValueList unmarshal(const arch::ArchDescriptor& target,
                      std::span<const std::uint8_t> bytes) const;
  /// Decode each travelling parameter i into values[slots[i]] (into
  /// values[i] when `slots` is empty) and leave every other slot as it
  /// is — identical errors. A client decodes its reply into its own
  /// argument list this way, so val slots keep the caller's values
  /// without a merge; a host decodes a request straight into the export's
  /// parameter list. On error, some slots may already hold decoded values.
  void unmarshal_into(const arch::ArchDescriptor& target,
                      std::span<const std::uint8_t> bytes, ValueList& values,
                      std::span<const std::size_t> slots = {}) const;

  /// True when `arch`'s native formats are already the canonical IEEE
  /// formats, so scalar runs take the bulk fast path.
  static bool same_representation(const arch::ArchDescriptor& arch);

  Direction direction() const { return direction_; }
  const Signature& signature() const { return signature_; }

  /// No strings anywhere in the travelling batch: the wire size is a
  /// compile-time constant (used to pre-size buffers).
  bool fixed_size() const { return fixed_; }
  std::size_t fixed_wire_bytes() const { return fixed_bytes_; }
  std::size_t step_count() const { return steps_.size(); }

  /// Human-readable instruction listing (stubgen embeds this in generated
  /// headers so a stub documents its own wire program).
  std::string describe() const;

 private:
  struct ParamProgram {
    std::uint32_t param;       ///< signature index
    std::uint32_t first_step;  ///< range into steps_
    std::uint32_t step_span;
    bool composite;            ///< needs check_value before encoding
    Value default_slot;        ///< fill for non-travelling unmarshal slots
  };

  void compile_param(std::uint32_t index);
  void compile_type(const Type& type, std::uint32_t repeat);
  void emit_leaf(PlanOp op, std::uint32_t repeat);

  void encode_param(const ParamProgram& p,
                    const arch::ArchDescriptor& source, const Value& value,
                    util::ByteWriter& out, bool fast) const;
  Value decode_param(const ParamProgram& p,
                     const arch::ArchDescriptor& target, util::ByteReader& in,
                     bool fast) const;

  Signature signature_;
  Direction direction_;
  std::vector<PlanStep> steps_;
  std::vector<ParamProgram> params_;  ///< travelling AND non-travelling
  bool fixed_ = true;
  std::size_t fixed_bytes_ = 0;
  // Compile-time state (dead after construction).
  long mergeable_ = -1;  ///< index of the run the next same-kind leaf may
                         ///< join, -1 across composite boundaries
  std::uint32_t wire_cursor_ = 0;
};

/// Compile (or copy a cached) plan for a signature/direction pair.
std::shared_ptr<const MarshalPlan> compile_plan(const Signature& signature,
                                                Direction direction);

}  // namespace npss::uts
