#include "dns/axfr.h"

#include <algorithm>

#include "util/strings.h"

namespace rootsim::dns {

std::vector<uint8_t> encode_axfr_stream(const std::vector<ResourceRecord>& records,
                                        const Question& question,
                                        const AxfrStreamOptions& options) {
  std::vector<uint8_t> stream;
  WireWriter writer;
  // Message ids count up from here, one per framed message.
  constexpr uint16_t kFirstMessageId = 1;
  uint16_t message_id = kFirstMessageId;
  size_t index = 0;
  bool first_message = true;
  // The 2-octet frame prefix caps a message at 65535 bytes no matter what
  // budget the caller asked for; exceeding it would silently truncate the
  // length and desynchronize the stream.
  const size_t budget = std::min<size_t>(options.max_message_bytes, 0xFFFF);
  while (index < records.size()) {
    writer.clear();
    writer.put_u16(message_id++);
    writer.put_u16(0x8400);  // QR + AA, opcode Query, rcode NoError
    writer.put_u16(first_message ? 1 : 0);
    size_t ancount_offset = writer.size();
    writer.put_u16(0);  // ANCOUNT, patched below
    writer.put_u16(0);  // NSCOUNT
    writer.put_u16(0);  // ARCOUNT
    // Only the first message carries the question (RFC 5936 §2.2.1).
    if (first_message) {
      writer.put_name(question.qname);
      writer.put_u16(static_cast<uint16_t>(question.qtype));
      writer.put_u16(static_cast<uint16_t>(question.qclass));
    }
    first_message = false;
    // Greedily pack answers until the size budget is reached, rolling back
    // the record that overflowed — one incremental encode per record instead
    // of a full message re-encode per candidate count.
    size_t count = 0;
    while (index + count < records.size()) {
      size_t checkpoint = writer.size();
      encode_record(writer, records[index + count]);
      if (writer.size() > budget && count > 0) {
        writer.truncate(checkpoint);
        break;
      }
      ++count;
      if (writer.size() > budget) break;  // single huge RR
    }
    // A single record can exceed even the 64 KiB frame limit (a ~64 KiB RDATA
    // plus owner/shell overhead). There is no valid framing for it, so fail
    // the whole encode rather than emit a stream that desynchronizes at the
    // wrapped length prefix; an empty stream never decodes as a valid
    // transfer (no SOA delimiters).
    if (writer.size() > 0xFFFF) return {};
    writer.patch_u16(ancount_offset, static_cast<uint16_t>(count));
    index += count;
    stream.push_back(static_cast<uint8_t>(writer.size() >> 8));
    stream.push_back(static_cast<uint8_t>(writer.size()));
    stream.insert(stream.end(), writer.data().begin(), writer.data().end());
  }
  return stream;
}

AxfrParseResult decode_axfr_stream(std::span<const uint8_t> stream) {
  AxfrParseResult result;
  size_t offset = 0;
  while (offset < stream.size()) {
    if (offset + 2 > stream.size()) {
      result.error = "truncated length prefix";
      return result;
    }
    size_t length = static_cast<size_t>(stream[offset]) << 8 | stream[offset + 1];
    offset += 2;
    if (offset + length > stream.size()) {
      result.error = util::format("message %zu truncated (want %zu bytes)",
                                  result.message_count, length);
      return result;
    }
    auto message = Message::decode(stream.subspan(offset, length));
    offset += length;
    if (!message) {
      result.error = util::format("message %zu failed to parse",
                                  result.message_count);
      return result;
    }
    if (message->rcode != Rcode::NoError) {
      result.error = util::format("server returned %s",
                                  rcode_to_string(message->rcode).c_str());
      return result;
    }
    ++result.message_count;
    for (auto& rr : message->answers) result.records.push_back(std::move(rr));
  }
  if (result.records.size() < 2 ||
      result.records.front().type != RRType::SOA ||
      result.records.back().type != RRType::SOA) {
    result.error = "stream not SOA-delimited";
    return result;
  }
  return result;
}

}  // namespace rootsim::dns
