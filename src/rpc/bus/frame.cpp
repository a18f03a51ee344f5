#include "rpc/bus/frame.hpp"

namespace npss::rpc::bus {

using util::ByteWriter;

void append_frame(ByteWriter& out, const Message& msg,
                  std::size_t max_frame_bytes) {
  const std::size_t mark = out.size();
  out.u32(0);  // length prefix, patched once the body is written
  encode_message_into(out, msg);
  const std::size_t body = out.size() - mark - 4;
  if (body > max_frame_bytes) {
    throw util::EncodingError("frame length " + std::to_string(body) +
                              " exceeds the " +
                              std::to_string(max_frame_bytes) + " byte cap");
  }
  out.patch_u32(mark, static_cast<std::uint32_t>(body));
}

void FrameDecoder::feed(std::span<const std::uint8_t> data) {
  // Compact before growing: consumed frames at the front are dead weight
  // and the realloc below would copy them along.
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ >= (64u << 10))) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::optional<std::span<const std::uint8_t>> FrameDecoder::next() {
  const std::size_t have = buf_.size() - pos_;
  if (have < 4) return std::nullopt;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len = (len << 8) | buf_[pos_ + static_cast<std::size_t>(i)];
  if (len > max_frame_bytes_) {
    throw util::EncodingError("frame length " + std::to_string(len) +
                              " exceeds the " +
                              std::to_string(max_frame_bytes_) +
                              " byte cap");
  }
  if (have < 4 + static_cast<std::size_t>(len)) return std::nullopt;
  std::span<const std::uint8_t> frame(buf_.data() + pos_ + 4, len);
  pos_ += 4 + static_cast<std::size_t>(len);
  return frame;
}

}  // namespace npss::rpc::bus
