#include "arch/float_format.hpp"

#include <cmath>
#include <cstring>
#include <limits>

namespace npss::arch {

namespace {

using util::Bytes;
using util::EncodingError;
using util::RangeError;

constexpr int kCrayBias = 16384;
constexpr int kCrayMantissaBits = 48;
constexpr int kIbmBias = 64;

void check_width(std::span<const std::uint8_t> word, std::size_t expected,
                 std::string_view what) {
  if (word.size() != expected) {
    throw EncodingError(std::string(what) + ": expected " +
                        std::to_string(expected) + " bytes, got " +
                        std::to_string(word.size()));
  }
}

Bytes be_bytes(std::uint64_t word, std::size_t width) {
  Bytes out(width);
  for (std::size_t i = 0; i < width; ++i) {
    out[i] = static_cast<std::uint8_t>(word >> (8 * (width - 1 - i)));
  }
  return out;
}

std::uint64_t be_word(std::span<const std::uint8_t> bytes) {
  std::uint64_t word = 0;
  for (std::uint8_t b : bytes) word = (word << 8) | b;
  return word;
}

std::uint64_t encode_ieee64(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

double decode_ieee64(std::uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

std::uint64_t encode_ieee32(double value) {
  if (std::isfinite(value) &&
      std::abs(value) > static_cast<double>(std::numeric_limits<float>::max())) {
    throw RangeError("value " + std::to_string(value) +
                     " overflows IEEE binary32");
  }
  float f = static_cast<float>(value);
  std::uint32_t bits;
  std::memcpy(&bits, &f, sizeof bits);
  return bits;
}

double decode_ieee32(std::uint64_t word) {
  const auto bits = static_cast<std::uint32_t>(word);
  float value;
  std::memcpy(&value, &bits, sizeof value);
  return static_cast<double>(value);
}

std::uint64_t encode_cray64(double value) {
  if (!std::isfinite(value)) {
    throw RangeError("Cray format has no representation for inf/nan");
  }
  if (value == 0.0) return 0;
  bool negative = std::signbit(value);
  int exp2 = 0;
  double mant = std::frexp(std::abs(value), &exp2);  // mant in [0.5, 1)
  // Cray value = 0.m * 2^(e - bias) with the mantissa's top bit explicit,
  // so m in [0.5, 1) maps directly: mantissa = round(mant * 2^48).
  std::uint64_t mantissa = static_cast<std::uint64_t>(
      std::llround(std::ldexp(mant, kCrayMantissaBits)));
  if (mantissa >= (1ull << kCrayMantissaBits)) {
    mantissa >>= 1;
    ++exp2;
  }
  long biased = exp2 + kCrayBias;
  if (biased < 0) return 0;  // underflow flushes to zero
  if (biased > 0x7fff) {
    throw RangeError("value overflows Cray 64-bit float");
  }
  return (static_cast<std::uint64_t>(negative) << 63) |
         (static_cast<std::uint64_t>(biased) << 48) | mantissa;
}

double decode_cray64(std::uint64_t word) {
  bool negative = (word >> 63) != 0;
  int biased = static_cast<int>((word >> 48) & 0x7fff);
  std::uint64_t mantissa = word & ((1ull << kCrayMantissaBits) - 1);
  if (mantissa == 0) return negative ? -0.0 : 0.0;
  // value = mantissa * 2^(biased - bias - 48); the 48-bit mantissa converts
  // to binary64 exactly (48 <= 53 significand bits).
  double value =
      std::ldexp(static_cast<double>(mantissa),
                 biased - kCrayBias - kCrayMantissaBits);
  if (std::isinf(value)) {
    // The magnitude fits Cray's 15-bit exponent but not binary64's 11-bit
    // one. Per the paper's policy this is an error, never a quiet infinity.
    throw RangeError(
        "Cray value magnitude exceeds IEEE binary64 range (biased exponent " +
        std::to_string(biased) + ")");
  }
  return negative ? -value : value;
}

std::uint64_t encode_ibm_hex(double value, int frac_bits) {
  const std::size_t width = static_cast<std::size_t>(frac_bits) / 8 + 1;
  if (!std::isfinite(value)) {
    throw RangeError("IBM hexadecimal format has no representation for "
                     "inf/nan");
  }
  if (value == 0.0) return 0;
  bool negative = std::signbit(value);
  int exp2 = 0;
  std::frexp(std::abs(value), &exp2);
  // Choose E with |v| = f * 16^E, f in [1/16, 1): E = ceil(exp2 / 4).
  int exp16 = (exp2 >= 0) ? (exp2 + 3) / 4 : -((-exp2) / 4);
  double fraction = std::abs(value) / std::ldexp(1.0, 4 * exp16);
  std::uint64_t frac_int = static_cast<std::uint64_t>(
      std::llround(std::ldexp(fraction, frac_bits)));
  if (frac_int >= (1ull << frac_bits)) {
    frac_int >>= 4;
    ++exp16;
  }
  int biased = exp16 + kIbmBias;
  if (biased < 0) return 0;  // underflow flushes to zero
  if (biased > 0x7f) {
    throw RangeError("value overflows IBM hexadecimal float (16^" +
                     std::to_string(exp16) + ")");
  }
  return (static_cast<std::uint64_t>(negative) << (width * 8 - 1)) |
         (static_cast<std::uint64_t>(biased) << frac_bits) | frac_int;
}

double decode_ibm_hex(std::uint64_t word, int frac_bits) {
  const std::size_t width = static_cast<std::size_t>(frac_bits) / 8 + 1;
  bool negative = (word >> (width * 8 - 1)) != 0;
  int biased = static_cast<int>((word >> frac_bits) & 0x7f);
  std::uint64_t frac_int = word & ((1ull << frac_bits) - 1);
  if (frac_int == 0) return 0.0;
  // 56-bit long fractions exceed binary64's 53 significand bits; the
  // conversion rounds, which float_format_epsilon accounts for.
  double value = std::ldexp(static_cast<double>(frac_int),
                            4 * (biased - kIbmBias) - frac_bits);
  return negative ? -value : value;
}

/// Largest finite binary2 exponent of a format (2^N bound on magnitude).
int max_exp2(FloatFormatKind kind) {
  switch (kind) {
    case FloatFormatKind::kIeee32: return 128;
    case FloatFormatKind::kIeee64: return 1024;
    case FloatFormatKind::kCray64: return 8191;
    case FloatFormatKind::kIbmHex32:
    case FloatFormatKind::kIbmHex64: return 4 * 63;
  }
  return 0;
}

}  // namespace

std::string_view float_format_name(FloatFormatKind kind) {
  switch (kind) {
    case FloatFormatKind::kIeee32: return "ieee32";
    case FloatFormatKind::kIeee64: return "ieee64";
    case FloatFormatKind::kCray64: return "cray64";
    case FloatFormatKind::kIbmHex32: return "ibm-hex32";
    case FloatFormatKind::kIbmHex64: return "ibm-hex64";
  }
  return "?";
}

std::size_t float_format_width(FloatFormatKind kind) {
  switch (kind) {
    case FloatFormatKind::kIeee32: return 4;
    case FloatFormatKind::kIeee64: return 8;
    case FloatFormatKind::kCray64: return 8;
    case FloatFormatKind::kIbmHex32: return 4;
    case FloatFormatKind::kIbmHex64: return 8;
  }
  return 0;
}

std::uint64_t float_encode_word(FloatFormatKind kind, double value) {
  switch (kind) {
    case FloatFormatKind::kIeee32: return encode_ieee32(value);
    case FloatFormatKind::kIeee64: return encode_ieee64(value);
    case FloatFormatKind::kCray64: return encode_cray64(value);
    case FloatFormatKind::kIbmHex32: return encode_ibm_hex(value, 24);
    case FloatFormatKind::kIbmHex64: return encode_ibm_hex(value, 56);
  }
  throw EncodingError("unknown float format");
}

double float_decode_word(FloatFormatKind kind, std::uint64_t word) {
  switch (kind) {
    case FloatFormatKind::kIeee32: return decode_ieee32(word);
    case FloatFormatKind::kIeee64: return decode_ieee64(word);
    case FloatFormatKind::kCray64: return decode_cray64(word);
    case FloatFormatKind::kIbmHex32: return decode_ibm_hex(word, 24);
    case FloatFormatKind::kIbmHex64: return decode_ibm_hex(word, 56);
  }
  throw EncodingError("unknown float format");
}

util::Bytes float_encode(FloatFormatKind kind, double value) {
  return be_bytes(float_encode_word(kind, value), float_format_width(kind));
}

double float_decode(FloatFormatKind kind,
                    std::span<const std::uint8_t> word) {
  check_width(word, float_format_width(kind), float_format_name(kind));
  return float_decode_word(kind, be_word(word));
}

bool float_range_subsumes(FloatFormatKind to, FloatFormatKind from) {
  return max_exp2(to) >= max_exp2(from);
}

double float_format_epsilon(FloatFormatKind kind) {
  switch (kind) {
    case FloatFormatKind::kIeee32: return std::ldexp(1.0, -23);
    case FloatFormatKind::kIeee64: return std::ldexp(1.0, -52);
    case FloatFormatKind::kCray64: return std::ldexp(1.0, -47);
    // Hex normalization can leave up to three leading zero bits.
    case FloatFormatKind::kIbmHex32: return std::ldexp(1.0, -20);
    case FloatFormatKind::kIbmHex64: return std::ldexp(1.0, -51);
  }
  return 1.0;
}

util::Bytes cray_word_from_parts(bool negative, std::uint32_t exponent,
                                 std::uint64_t mantissa) {
  std::uint64_t word = (static_cast<std::uint64_t>(negative) << 63) |
                       (static_cast<std::uint64_t>(exponent & 0x7fff) << 48) |
                       (mantissa & ((1ull << kCrayMantissaBits) - 1));
  return be_bytes(word, 8);
}

util::Bytes cray_out_of_range_word() {
  // Biased exponent 16384 + 2000 => magnitude ~2^2000, representable on the
  // Cray, far outside binary64.
  return cray_word_from_parts(false, kCrayBias + 2000,
                              1ull << (kCrayMantissaBits - 1));
}

}  // namespace npss::arch
