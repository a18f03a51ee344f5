#include "uts/canonical.hpp"

#include <algorithm>
#include <limits>

namespace npss::uts {

using arch::ArchDescriptor;
using arch::FloatFormatKind;
using util::ByteReader;
using util::ByteWriter;
using util::RangeError;

namespace detail {

double quantize(const ArchDescriptor& arch, FloatFormatKind format,
                double value) {
  (void)arch;
  return arch::float_decode_word(format,
                                 arch::float_encode_word(format, value));
}

std::int32_t to_canonical_integer(const ArchDescriptor& arch,
                                  std::int64_t value) {
  // The UTS canonical integer is 32-bit; a Cray 64-bit INTEGER whose
  // magnitude exceeds it is an error (§4.1: larger magnitudes than the
  // standard used by UTS).
  if (value < std::numeric_limits<std::int32_t>::min() ||
      value > std::numeric_limits<std::int32_t>::max()) {
    throw RangeError("integer " + std::to_string(value) + " on " + arch.name +
                     " exceeds the UTS 32-bit canonical integer range");
  }
  return static_cast<std::int32_t>(value);
}

}  // namespace detail

namespace {

using detail::quantize;
using detail::to_canonical_integer;

double quantize_single(const ArchDescriptor& arch, double value) {
  return quantize(arch, arch.float_single, value);
}

double quantize_double(const ArchDescriptor& arch, double value) {
  return quantize(arch, arch.float_double, value);
}

}  // namespace

bool param_travels(ParamMode mode, Direction direction) {
  switch (mode) {
    case ParamMode::kVal: return direction == Direction::kRequest;
    case ParamMode::kRes: return direction == Direction::kReply;
    case ParamMode::kVar: return true;
  }
  return false;
}

void encode_canonical(const ArchDescriptor& source, const Type& type,
                      const Value& value, ByteWriter& out) {
  switch (type.kind()) {
    case TypeKind::kFloat: {
      double q = quantize_single(source, value.as_real());
      // Canonical binary32; a value whose magnitude fits the source format
      // (e.g. Cray) but not binary32 is rejected here.
      out.u32(static_cast<std::uint32_t>(
          arch::float_encode_word(FloatFormatKind::kIeee32, q)));
      return;
    }
    case TypeKind::kDouble: {
      double q = quantize_double(source, value.as_real());
      out.u64(arch::float_encode_word(FloatFormatKind::kIeee64, q));
      return;
    }
    case TypeKind::kInteger:
      out.i32(to_canonical_integer(source, value.as_integer()));
      return;
    case TypeKind::kByte:
      out.u8(value.as_byte());
      return;
    case TypeKind::kString:
      out.str(value.as_string());
      return;
    case TypeKind::kArray: {
      check_value(type, value);
      for (const Value& item : value.items()) {
        encode_canonical(source, type.element(), item, out);
      }
      return;
    }
    case TypeKind::kRecord: {
      check_value(type, value);
      const auto& fields = type.fields();
      for (std::size_t i = 0; i < fields.size(); ++i) {
        encode_canonical(source, *fields[i].type, value.items()[i], out);
      }
      return;
    }
  }
}

Value decode_canonical(const ArchDescriptor& target, const Type& type,
                       ByteReader& in) {
  switch (type.kind()) {
    case TypeKind::kFloat: {
      double canon = arch::float_decode_word(FloatFormatKind::kIeee32, in.u32());
      return Value::real(quantize_single(target, canon));
    }
    case TypeKind::kDouble: {
      double canon = arch::float_decode_word(FloatFormatKind::kIeee64, in.u64());
      return Value::real(quantize_double(target, canon));
    }
    case TypeKind::kInteger: {
      std::int32_t v = in.i32();
      // Every catalog architecture's INTEGER is at least 32 bits, so the
      // canonical value always fits on the target.
      return Value::integer(v);
    }
    case TypeKind::kByte:
      return Value::byte(in.u8());
    case TypeKind::kString:
      return Value::str(in.str());
    case TypeKind::kArray: {
      ValueList items;
      items.reserve(type.array_size());
      for (std::size_t i = 0; i < type.array_size(); ++i) {
        items.push_back(decode_canonical(target, type.element(), in));
      }
      return Value::array(std::move(items));
    }
    case TypeKind::kRecord: {
      ValueList fields;
      fields.reserve(type.fields().size());
      for (const Field& f : type.fields()) {
        fields.push_back(decode_canonical(target, *f.type, in));
      }
      return Value::record(std::move(fields));
    }
  }
  throw util::EncodingError("unknown type kind");
}

util::Bytes marshal(const ArchDescriptor& source, const Signature& signature,
                    const ValueList& values, Direction direction) {
  if (values.size() != signature.size()) {
    throw util::TypeMismatchError(
        "marshal: " + std::to_string(values.size()) + " values for " +
        std::to_string(signature.size()) + " parameters");
  }
  ByteWriter out;
  for (std::size_t i = 0; i < signature.size(); ++i) {
    if (!param_travels(signature[i].mode, direction)) continue;
    try {
      encode_canonical(source, signature[i].type, values[i], out);
    } catch (const util::Error& e) {
      throw util::Error(e.code(), "parameter \"" + signature[i].name +
                                      "\": " + e.what());
    }
  }
  return std::move(out).take();
}

ValueList unmarshal(const ArchDescriptor& target, const Signature& signature,
                    std::span<const std::uint8_t> bytes, Direction direction) {
  ByteReader in(bytes);
  ValueList values;
  values.reserve(signature.size());
  for (const Param& p : signature) {
    if (param_travels(p.mode, direction)) {
      try {
        values.push_back(decode_canonical(target, p.type, in));
      } catch (const util::Error& e) {
        throw util::Error(e.code(),
                          "parameter \"" + p.name + "\": " + e.what());
      }
    } else {
      values.push_back(default_value(p.type));
    }
  }
  if (!in.exhausted()) {
    throw util::EncodingError("unmarshal: " + std::to_string(in.remaining()) +
                              " trailing bytes");
  }
  return values;
}

std::size_t canonical_size(const Type& type, const Value& value) {
  switch (type.kind()) {
    case TypeKind::kFloat: return 4;
    case TypeKind::kDouble: return 8;
    case TypeKind::kInteger: return 4;
    case TypeKind::kByte: return 1;
    case TypeKind::kString: return 4 + value.as_string().size();
    case TypeKind::kArray: {
      std::size_t fixed = 0;
      if (type.element().fixed_wire_size(fixed)) {
        return fixed * type.array_size();
      }
      std::size_t total = 0;
      for (const Value& item : value.items()) {
        total += canonical_size(type.element(), item);
      }
      return total;
    }
    case TypeKind::kRecord: {
      std::size_t total = 0;
      const auto& fields = type.fields();
      for (std::size_t i = 0; i < fields.size(); ++i) {
        total += canonical_size(*fields[i].type, value.items()[i]);
      }
      return total;
    }
  }
  return 0;
}

std::size_t batch_size(const Signature& signature, const ValueList& values,
                       Direction direction) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < signature.size(); ++i) {
    if (param_travels(signature[i].mode, direction)) {
      total += canonical_size(signature[i].type, values[i]);
    }
  }
  return total;
}

double conversion_epsilon(const ArchDescriptor& source,
                          const ArchDescriptor& target, const Type& type) {
  switch (type.kind()) {
    case TypeKind::kFloat:
      return arch::float_format_epsilon(source.float_single) +
             arch::float_format_epsilon(FloatFormatKind::kIeee32) +
             arch::float_format_epsilon(target.float_single);
    case TypeKind::kDouble:
      return arch::float_format_epsilon(source.float_double) +
             arch::float_format_epsilon(FloatFormatKind::kIeee64) +
             arch::float_format_epsilon(target.float_double);
    case TypeKind::kInteger:
    case TypeKind::kByte:
    case TypeKind::kString:
      return 0.0;
    case TypeKind::kArray:
      return conversion_epsilon(source, target, type.element());
    case TypeKind::kRecord: {
      double worst = 0.0;
      for (const Field& f : type.fields()) {
        worst = std::max(worst, conversion_epsilon(source, target, *f.type));
      }
      return worst;
    }
  }
  return 0.0;
}

}  // namespace npss::uts
