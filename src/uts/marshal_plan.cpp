#include "uts/marshal_plan.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include "util/mutex.hpp"

#include "obs/metrics.hpp"

namespace npss::uts {

using arch::ArchDescriptor;
using arch::FloatFormatKind;
using util::ByteReader;
using util::ByteWriter;
using util::Bytes;

std::string_view plan_op_name(PlanOp op) {
  switch (op) {
    case PlanOp::kFloatRun: return "float run";
    case PlanOp::kDoubleRun: return "double run";
    case PlanOp::kIntegerRun: return "integer run";
    case PlanOp::kByteRun: return "byte run";
    case PlanOp::kStringRun: return "string run";
    case PlanOp::kOpenArray: return "open array";
    case PlanOp::kOpenRecord: return "open record";
  }
  return "?";
}

namespace {

/// Fixed wire width of one scalar of a run op; 0 for variable (string).
std::uint32_t scalar_width(PlanOp op) {
  switch (op) {
    case PlanOp::kFloatRun: return 4;
    case PlanOp::kDoubleRun: return 8;
    case PlanOp::kIntegerRun: return 4;
    case PlanOp::kByteRun: return 1;
    default: return 0;
  }
}

void count_hit(bool fast) {
  if (!obs::enabled()) return;
  static obs::Counter& fast_hits =
      obs::Registry::global().counter("uts.marshal.fast_path_hits");
  static obs::Counter& fallback_hits =
      obs::Registry::global().counter("uts.marshal.fallback_hits");
  (fast ? fast_hits : fallback_hits).add();
}

// --- scalar leaf codecs ----------------------------------------------------
// The fast variants are only reached when the arch's native formats are the
// canonical IEEE formats, where the interpreted quantize round trip is the
// identity (binary64) or exactly the overflow-check + float cast that
// encode_ieee32 performs (binary32) — so bytes and error text match the
// interpreted codec bit for bit. The slow variants call the *same*
// detail::quantize / float_encode_word / float_decode_word the interpreted
// codec uses, which makes equivalence trivial for Cray / IBM-hex formats.

void encode_double_leaf(const ArchDescriptor& source, bool fast,
                        const Value& v, ByteWriter& out) {
  const double d = v.as_real();
  if (fast) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    out.u64(bits);
    return;
  }
  const double q = detail::quantize(source, source.float_double, d);
  out.u64(arch::float_encode_word(FloatFormatKind::kIeee64, q));
}

void encode_float_leaf(const ArchDescriptor& source, bool fast,
                       const Value& v, ByteWriter& out) {
  const double d = v.as_real();
  if (fast) {
    if (std::isfinite(d) &&
        std::abs(d) >
            static_cast<double>(std::numeric_limits<float>::max())) {
      // Same text as arch::encode_ieee32, which the interpreted path
      // throws from.
      throw util::RangeError("value " + std::to_string(d) +
                             " overflows IEEE binary32");
    }
    const float f = static_cast<float>(d);
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof bits);
    out.u32(bits);
    return;
  }
  const double q = detail::quantize(source, source.float_single, d);
  out.u32(static_cast<std::uint32_t>(
      arch::float_encode_word(FloatFormatKind::kIeee32, q)));
}

Value decode_double_leaf(const ArchDescriptor& target, bool fast,
                         ByteReader& in) {
  if (fast) return Value::real(in.f64());
  const double canon =
      arch::float_decode_word(FloatFormatKind::kIeee64, in.u64());
  return Value::real(detail::quantize(target, target.float_double, canon));
}

Value decode_float_leaf(const ArchDescriptor& target, bool fast,
                        ByteReader& in) {
  if (fast) return Value::real(static_cast<double>(in.f32()));
  const double canon =
      arch::float_decode_word(FloatFormatKind::kIeee32, in.u32());
  return Value::real(detail::quantize(target, target.float_single, canon));
}

/// Encode-side traversal frame: a cursor over one composite's children.
struct EncodeFrame {
  const ValueList* list;
  std::uint32_t next;
};

/// Decode-side reconstruction frame: a composite being filled.
struct BuildFrame {
  ValueList items;
  std::uint32_t want;
  bool is_array;
};

}  // namespace

bool MarshalPlan::same_representation(const ArchDescriptor& arch) {
  return arch.float_single == FloatFormatKind::kIeee32 &&
         arch.float_double == FloatFormatKind::kIeee64;
}

MarshalPlan::MarshalPlan(Signature signature, Direction direction)
    : signature_(std::move(signature)), direction_(direction) {
  params_.reserve(signature_.size());
  for (std::uint32_t i = 0; i < signature_.size(); ++i) compile_param(i);
  fixed_bytes_ = fixed_ ? wire_cursor_ : 0;
}

void MarshalPlan::compile_param(std::uint32_t index) {
  ParamProgram prog;
  prog.param = index;
  prog.first_step = static_cast<std::uint32_t>(steps_.size());
  prog.composite = !signature_[index].type.simple();
  if (param_travels(signature_[index].mode, direction_)) {
    mergeable_ = -1;  // runs never merge across parameters
    compile_type(signature_[index].type, 1);
  } else {
    prog.default_slot = default_value(signature_[index].type);
  }
  prog.step_span =
      static_cast<std::uint32_t>(steps_.size()) - prog.first_step;
  params_.push_back(std::move(prog));
}

void MarshalPlan::emit_leaf(PlanOp op, std::uint32_t repeat) {
  if (repeat == 0) return;
  if (mergeable_ >= 0 && steps_[static_cast<std::size_t>(mergeable_)].op == op) {
    steps_[static_cast<std::size_t>(mergeable_)].count += repeat;
  } else {
    steps_.push_back(PlanStep{op, repeat, wire_cursor_});
    mergeable_ = static_cast<long>(steps_.size()) - 1;
  }
  if (op == PlanOp::kStringRun) {
    fixed_ = false;  // length-prefixed payload: offsets end here
    wire_cursor_ += 4 * repeat;
  } else {
    wire_cursor_ += scalar_width(op) * repeat;
  }
}

void MarshalPlan::compile_type(const Type& type, std::uint32_t repeat) {
  for (std::uint32_t r = 0; r < repeat; ++r) {
    switch (type.kind()) {
      case TypeKind::kFloat: emit_leaf(PlanOp::kFloatRun, 1); break;
      case TypeKind::kDouble: emit_leaf(PlanOp::kDoubleRun, 1); break;
      case TypeKind::kInteger: emit_leaf(PlanOp::kIntegerRun, 1); break;
      case TypeKind::kByte: emit_leaf(PlanOp::kByteRun, 1); break;
      case TypeKind::kString: emit_leaf(PlanOp::kStringRun, 1); break;
      case TypeKind::kArray: {
        const auto n = static_cast<std::uint32_t>(type.array_size());
        steps_.push_back(PlanStep{PlanOp::kOpenArray, n, wire_cursor_});
        mergeable_ = -1;  // runs inside belong to the array's frame
        compile_type(type.element(), n);
        mergeable_ = -1;  // the frame closed; siblings cannot merge in
        break;
      }
      case TypeKind::kRecord: {
        const auto& fields = type.fields();
        steps_.push_back(PlanStep{
            PlanOp::kOpenRecord, static_cast<std::uint32_t>(fields.size()),
            wire_cursor_});
        mergeable_ = -1;
        for (const Field& f : fields) compile_type(*f.type, 1);
        mergeable_ = -1;
        break;
      }
    }
  }
}

void MarshalPlan::encode_param(const ParamProgram& p,
                               const ArchDescriptor& source,
                               const Value& value, ByteWriter& out,
                               bool fast) const {
  if (!p.composite) {
    // One run of one leaf, applied to the parameter value itself (the
    // accessor raises the interpreted codec's TypeMismatchError when the
    // value has the wrong shape).
    const PlanStep& step = steps_[p.first_step];
    switch (step.op) {
      case PlanOp::kFloatRun: encode_float_leaf(source, fast, value, out); break;
      case PlanOp::kDoubleRun: encode_double_leaf(source, fast, value, out); break;
      case PlanOp::kIntegerRun:
        out.i32(detail::to_canonical_integer(source, value.as_integer()));
        break;
      case PlanOp::kByteRun: out.u8(value.as_byte()); break;
      case PlanOp::kStringRun: out.str(value.as_string()); break;
      default: break;
    }
    return;
  }

  // Structural validation rides along with the flat run walk instead of a
  // separate check_value pass (whose per-node path strings dominate the
  // cost of a bulk-bit-move marshal): composite opens verify arity against
  // the compiled count, and the leaf accessors reject mis-typed nodes at
  // exactly the nodes check_value inspects. On any failure, re-run
  // check_value over the whole parameter — it walks the same
  // depth-first order, so a malformed shape reproduces the interpreted
  // codec's path-qualified message, and it also restores the interpreted
  // ordering in which a structural mismatch anywhere outranks an earlier
  // encode-range error. A structurally sound value rethrows the original
  // error, which is what the interpreted codec throws after its check
  // pass (out-of-byte-range, binary32 overflow, wide integer).
  try {
    // The traversal stack is kept per thread from call to call (nothing
    // below re-enters the codec), so a steady-state marshal allocates
    // nothing for it.
    thread_local std::vector<EncodeFrame> frames;
    frames.clear();
    auto settle = [] {
      while (!frames.empty() &&
             frames.back().next == frames.back().list->size()) {
        frames.pop_back();
      }
    };
    const std::uint32_t end = p.first_step + p.step_span;
    for (std::uint32_t s = p.first_step; s < end; ++s) {
      const PlanStep& step = steps_[s];
      switch (step.op) {
        case PlanOp::kOpenArray:
        case PlanOp::kOpenRecord: {
          const Value* child = &value;
          if (!frames.empty()) {
            settle();
            EncodeFrame& f = frames.back();
            child = &(*f.list)[f.next++];
          }
          const ValueList& kids = child->items();
          if (kids.size() != step.count) {
            // The handler below turns this into check_value's size message.
            throw util::TypeMismatchError("composite arity mismatch");
          }
          frames.push_back(EncodeFrame{&kids, 0});
          break;
        }
        default: {
          settle();
          EncodeFrame& f = frames.back();
          const ValueList& list = *f.list;
          const std::uint32_t base = f.next;
          switch (step.op) {
            case PlanOp::kDoubleRun:
              if (fast) {
                for (std::uint32_t i = 0; i < step.count; ++i) {
                  const double d = list[base + i].as_real();
                  std::uint64_t bits;
                  std::memcpy(&bits, &d, sizeof bits);
                  out.u64(bits);
                }
              } else {
                for (std::uint32_t i = 0; i < step.count; ++i) {
                  encode_double_leaf(source, false, list[base + i], out);
                }
              }
              break;
            case PlanOp::kFloatRun:
              for (std::uint32_t i = 0; i < step.count; ++i) {
                encode_float_leaf(source, fast, list[base + i], out);
              }
              break;
            case PlanOp::kIntegerRun:
              for (std::uint32_t i = 0; i < step.count; ++i) {
                out.i32(detail::to_canonical_integer(
                    source, list[base + i].as_integer()));
              }
              break;
            case PlanOp::kByteRun:
              for (std::uint32_t i = 0; i < step.count; ++i) {
                out.u8(list[base + i].as_byte());
              }
              break;
            case PlanOp::kStringRun:
              for (std::uint32_t i = 0; i < step.count; ++i) {
                out.str(list[base + i].as_string());
              }
              break;
            default: break;
          }
          f.next = base + step.count;
          break;
        }
      }
    }
  } catch (...) {
    check_value(signature_[p.param].type, value);
    throw;
  }
}

Value MarshalPlan::decode_param(const ParamProgram& p,
                                const ArchDescriptor& target, ByteReader& in,
                                bool fast) const {
  if (!p.composite) {
    const PlanStep& step = steps_[p.first_step];
    switch (step.op) {
      case PlanOp::kFloatRun: return decode_float_leaf(target, fast, in);
      case PlanOp::kDoubleRun: return decode_double_leaf(target, fast, in);
      case PlanOp::kIntegerRun: return Value::integer(in.i32());
      case PlanOp::kByteRun: return Value::byte(in.u8());
      case PlanOp::kStringRun: return Value::str(in.str());
      default: break;
    }
    throw util::EncodingError("unknown plan op");
  }

  // Kept per thread like the encode stack; each frame's items still move
  // out into the composite Value it builds.
  thread_local std::vector<BuildFrame> frames;
  frames.clear();
  Value result;
  // Append a finished value into the innermost open frame, cascading
  // closures: a frame that reaches its declared arity wraps into its
  // composite Value and is itself appended one level up.
  auto append = [&result](Value v) {
    while (true) {
      if (frames.empty()) {
        result = std::move(v);
        return;
      }
      BuildFrame& f = frames.back();
      f.items.push_back(std::move(v));
      if (f.items.size() < f.want) return;
      Value closed = f.is_array ? Value::array(std::move(f.items))
                                : Value::record(std::move(f.items));
      frames.pop_back();
      v = std::move(closed);
    }
  };
  const std::uint32_t end = p.first_step + p.step_span;
  for (std::uint32_t s = p.first_step; s < end; ++s) {
    const PlanStep& step = steps_[s];
    switch (step.op) {
      case PlanOp::kOpenArray:
      case PlanOp::kOpenRecord: {
        const bool is_array = step.op == PlanOp::kOpenArray;
        if (step.count == 0) {
          append(is_array ? Value::array({}) : Value::record({}));
        } else {
          BuildFrame f;
          f.items.reserve(step.count);
          f.want = step.count;
          f.is_array = is_array;
          frames.push_back(std::move(f));
        }
        break;
      }
      case PlanOp::kDoubleRun:
        for (std::uint32_t i = 0; i < step.count; ++i) {
          append(decode_double_leaf(target, fast, in));
        }
        break;
      case PlanOp::kFloatRun:
        for (std::uint32_t i = 0; i < step.count; ++i) {
          append(decode_float_leaf(target, fast, in));
        }
        break;
      case PlanOp::kIntegerRun:
        for (std::uint32_t i = 0; i < step.count; ++i) {
          append(Value::integer(in.i32()));
        }
        break;
      case PlanOp::kByteRun:
        for (std::uint32_t i = 0; i < step.count; ++i) {
          append(Value::byte(in.u8()));
        }
        break;
      case PlanOp::kStringRun:
        for (std::uint32_t i = 0; i < step.count; ++i) {
          append(Value::str(in.str()));
        }
        break;
    }
  }
  return result;
}

Bytes MarshalPlan::marshal(const ArchDescriptor& source,
                           const ValueList& values) const {
  ByteWriter out;
  if (fixed_) out.reserve(fixed_bytes_);
  marshal_into(source, values, out);
  return std::move(out).take();
}

void MarshalPlan::marshal_into(const ArchDescriptor& source,
                               const ValueList& values,
                               ByteWriter& out) const {
  if (values.size() != signature_.size()) {
    throw util::TypeMismatchError(
        "marshal: " + std::to_string(values.size()) + " values for " +
        std::to_string(signature_.size()) + " parameters");
  }
  const bool fast = same_representation(source);
  for (const ParamProgram& p : params_) {
    if (!param_travels(signature_[p.param].mode, direction_)) continue;
    try {
      encode_param(p, source, values[p.param], out, fast);
    } catch (const util::Error& e) {
      throw util::Error(e.code(), "parameter \"" + signature_[p.param].name +
                                      "\": " + e.what());
    }
  }
  count_hit(fast);
}

ValueList MarshalPlan::unmarshal(const ArchDescriptor& target,
                                 std::span<const std::uint8_t> bytes) const {
  ValueList values(signature_.size());
  for (const ParamProgram& p : params_) {
    if (!param_travels(signature_[p.param].mode, direction_)) {
      values[p.param] = p.default_slot;
    }
  }
  unmarshal_into(target, bytes, values);
  return values;
}

void MarshalPlan::unmarshal_into(const ArchDescriptor& target,
                                 std::span<const std::uint8_t> bytes,
                                 ValueList& values,
                                 std::span<const std::size_t> slots) const {
  const bool mapped = !slots.empty();
  const std::size_t given = mapped ? slots.size() : values.size();
  if (given != signature_.size()) {
    throw util::TypeMismatchError(
        "unmarshal: " + std::to_string(given) + " slots for " +
        std::to_string(signature_.size()) + " parameters");
  }
  const bool fast = same_representation(target);
  ByteReader in(bytes);
  for (const ParamProgram& p : params_) {
    if (!param_travels(signature_[p.param].mode, direction_)) continue;
    try {
      values[mapped ? slots[p.param] : p.param] =
          decode_param(p, target, in, fast);
    } catch (const util::Error& e) {
      throw util::Error(e.code(), "parameter \"" + signature_[p.param].name +
                                      "\": " + e.what());
    }
  }
  if (!in.exhausted()) {
    throw util::EncodingError("unmarshal: " + std::to_string(in.remaining()) +
                              " trailing bytes");
  }
  count_hit(fast);
}

std::string MarshalPlan::describe() const {
  std::string out = "plan(";
  out += direction_ == Direction::kRequest ? "request" : "reply";
  out += "): " + std::to_string(steps_.size()) + " step(s)";
  if (fixed_) {
    out += ", fixed " + std::to_string(fixed_bytes_) + " wire byte(s)";
  } else {
    out += ", variable size";
  }
  for (const ParamProgram& p : params_) {
    const Param& param = signature_[p.param];
    out += "\n  " + std::string(param_mode_name(param.mode)) + " \"" +
           param.name + "\": ";
    if (p.step_span == 0) {
      out += "does not travel";
      continue;
    }
    for (std::uint32_t s = 0; s < p.step_span; ++s) {
      const PlanStep& step = steps_[p.first_step + s];
      if (s) out += ", ";
      out += std::string(plan_op_name(step.op)) + " x" +
             std::to_string(step.count);
      if (fixed_) out += " @" + std::to_string(step.offset);
    }
  }
  return out;
}

std::shared_ptr<const MarshalPlan> compile_plan(const Signature& signature,
                                                Direction direction) {
  // Keyed on the signature's canonical text: imports of the same
  // declaration (every stub of a shared procedure, every host serving the
  // same import text) share one compiled plan.
  static util::Mutex mu{"uts.PlanCache"};
  static std::map<std::string, std::shared_ptr<const MarshalPlan>> cache;
  std::string key = signature_to_string(signature);
  key.push_back(direction == Direction::kRequest ? 'Q' : 'R');
  util::MutexLock lock(mu);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  auto plan = std::make_shared<const MarshalPlan>(signature, direction);
  cache.emplace(std::move(key), plan);
  return plan;
}

}  // namespace npss::uts
