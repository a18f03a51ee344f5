#include "rpc/bus/frame.hpp"

namespace npss::rpc::bus {

using util::ByteWriter;

std::size_t begin_frame(ByteWriter& out) {
  const std::size_t mark = out.size();
  out.u32(0);  // placeholder, patched by end_frame
  return mark;
}

void end_frame(ByteWriter& out, std::size_t mark,
               std::size_t max_frame_bytes) {
  const std::size_t body = out.size() - mark - 4;
  if (body > max_frame_bytes) {
    throw util::EncodingError("frame length " + std::to_string(body) +
                              " exceeds the " +
                              std::to_string(max_frame_bytes) + " byte cap");
  }
  out.patch_u32(mark, static_cast<std::uint32_t>(body));
}

void append_frame(ByteWriter& out, const Message& msg,
                  std::size_t max_frame_bytes) {
  const std::size_t mark = begin_frame(out);
  encode_message_into(out, msg);
  end_frame(out, mark, max_frame_bytes);
}

void append_reply_frame(ByteWriter& out, std::uint64_t seq,
                        const uts::MarshalPlan& plan,
                        const arch::ArchDescriptor& arch,
                        const uts::ValueList& values,
                        const obs::TraceContext& trace,
                        std::size_t max_frame_bytes) {
  // The fixed Message fields, then the blob encoded in place through the
  // compiled plan (a nested length placeholder patched once the batch is
  // written), then an empty table and the optional trace extension.
  // Byte-identical to encode_message over a kReply Message whose blob is
  // plan.marshal(...).
  const std::size_t mark = begin_frame(out);
  out.u8(static_cast<std::uint8_t>(MessageKind::kReply));
  out.u64(seq);
  out.i64(kNoLine);
  out.str(std::string_view{});  // a
  out.str(std::string_view{});  // b
  out.str(std::string_view{});  // c
  out.i64(0);                   // n
  const std::size_t blob_mark = out.size();
  out.u32(0);  // blob length placeholder
  plan.marshal_into(arch, values, out);
  out.patch_u32(blob_mark,
                static_cast<std::uint32_t>(out.size() - blob_mark - 4));
  out.u32(0);  // empty table
  if (trace.active()) {
    out.u8(kTraceExtensionMarker);
    out.u64(trace.trace_id);
    out.u64(trace.span_id);
    out.u64(trace.parent_span_id);
  }
  end_frame(out, mark, max_frame_bytes);
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
