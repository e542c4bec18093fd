#include "inet/framing.hpp"

#include <time.h>

#include <cstring>
#include <stdexcept>

namespace dmp::inet {

namespace {

void put_u64(unsigned char* out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<unsigned char>(value >> (8 * i));
  }
}

std::uint64_t get_u64(const unsigned char* in) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return value;
}

}  // namespace

std::uint64_t monotonic_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void encode_frame_header(const Frame& frame, unsigned char* buffer) {
  put_u64(buffer, frame.packet_number);
  put_u64(buffer + 8, frame.generated_ns);
}

void encode_hello(const Hello& hello, unsigned char* buffer) {
  put_u64(buffer, kHelloMagic);
  put_u64(buffer + 8, hello.path_id);
  put_u64(buffer + 16, hello.last_seq);
}

bool decode_hello(const unsigned char* buffer, Hello* out) {
  if (get_u64(buffer) != kHelloMagic) return false;
  out->path_id = get_u64(buffer + 8);
  out->last_seq = get_u64(buffer + 16);
  return true;
}

FrameParser::FrameParser(std::size_t frame_bytes) : frame_bytes_(frame_bytes) {
  if (frame_bytes < kFrameHeaderBytes) {
    throw std::invalid_argument{"frame size below header size"};
  }
}

void FrameParser::feed(const unsigned char* data, std::size_t len,
                       const std::function<void(const Frame&)>& on_frame) {
  buffer_.insert(buffer_.end(), data, data + len);
  std::size_t offset = 0;
  while (buffer_.size() - offset >= frame_bytes_) {
    Frame frame;
    frame.packet_number = get_u64(buffer_.data() + offset);
    frame.generated_ns = get_u64(buffer_.data() + offset + 8);
    on_frame(frame);
    offset += frame_bytes_;
  }
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(offset));
}

}  // namespace dmp::inet
