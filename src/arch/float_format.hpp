// Byte-accurate floating point formats of the machines in the paper's
// testbed (Table 1/2). These are real encodings, not tags: values round-trip
// through the actual bit layouts, so the heterogeneity problems the paper
// reports — notably Cray magnitudes exceeding the IEEE range used by UTS —
// arise here for the same structural reasons they arose at NASA Lewis.
//
// Formats:
//   IEEE-754 binary32 / binary64       (Sun, SGI, IBM RS6000, Convex native
//                                       IEEE mode, Intel i860)
//   Cray-1/YMP 64-bit single           1 sign, 15-bit exponent biased
//                                      040000(8)=16384, 48-bit mantissa with
//                                      explicit leading bit; value =
//                                      (-1)^s * 0.m * 2^(e-16384). Exponent
//                                      range ±8192 vastly exceeds binary64.
//   IBM System/370 hexadecimal (HFP)   1 sign, 7-bit exponent biased 64,
//                                      base-16; 24-bit (short) or 56-bit
//                                      (long) fraction; value =
//                                      (-1)^s * 0.f * 16^(e-64). Max ≈
//                                      7.2e75, far below binary64 max.
//
// Encoding a double that does not fit the target format, or decoding a
// stored value that does not fit binary64, throws util::RangeError — the
// policy the paper chose over silently mapping to IEEE infinity (§4.1).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "util/bytes.hpp"
#include "util/status.hpp"

namespace npss::arch {

enum class FloatFormatKind : std::uint8_t {
  kIeee32 = 0,
  kIeee64,
  kCray64,
  kIbmHex32,
  kIbmHex64,
};

std::string_view float_format_name(FloatFormatKind kind);

/// Storage width in bytes of a format.
std::size_t float_format_width(FloatFormatKind kind);

/// Encode a binary64 host value into the format's word, right-aligned in
/// the returned integer (its float_format_width() low bytes, written
/// big-endian, are the stored bytes). Throws util::RangeError if |value|
/// overflows the target format; values below the target's smallest
/// normal magnitude flush to zero (the behaviour of the original hardware
/// for Cray, and of the UTS conversion library).
std::uint64_t float_encode_word(FloatFormatKind kind, double value);

/// Decode a right-aligned word in the given format back to binary64.
/// Throws util::RangeError if the stored magnitude exceeds binary64 range
/// (possible for Cray64).
double float_decode_word(FloatFormatKind kind, std::uint64_t word);

/// float_encode_word as the format's big-endian bytes.
util::Bytes float_encode(FloatFormatKind kind, double value);

/// float_decode_word over big-endian bytes; also throws
/// util::EncodingError on malformed input size.
double float_decode(FloatFormatKind kind, std::span<const std::uint8_t> word);

/// True if every finite value of `from` is representable (to within
/// rounding) as a finite value of `to`.
bool float_range_subsumes(FloatFormatKind to, FloatFormatKind from);

/// Relative rounding error bound (units in the last place expressed as an
/// absolute relative epsilon) when a binary64 value passes through `kind`.
double float_format_epsilon(FloatFormatKind kind);

// --- Cray-specific helpers used by tests and the Table A1 ablation -------

/// Assemble a raw Cray64 word from parts. `exponent` is the biased 15-bit
/// exponent, `mantissa` the 48-bit mantissa (normalized iff bit 47 set).
util::Bytes cray_word_from_parts(bool negative, std::uint32_t exponent,
                                 std::uint64_t mantissa);

/// A Cray word whose magnitude exceeds binary64 range; decoding it must
/// throw util::RangeError per the paper's chosen policy.
util::Bytes cray_out_of_range_word();

}  // namespace npss::arch
