// Wire format of DMP stream packets and the incremental byte-stream parser.
//
// Each video packet travels as a fixed-size frame (the paper streams
// 1448-byte packets — one MSS after TCP/IP headers):
//
//   [0..7]   packet number (little-endian uint64)
//   [8..15]  generation timestamp, ns on the server's monotonic clock
//   [16..]   payload padding up to frame_bytes
//
// TCP delivers a byte stream, so the receiver reassembles frames
// incrementally across read() boundaries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace dmp::inet {

inline constexpr std::size_t kFrameHeaderBytes = 16;
inline constexpr std::size_t kDefaultFrameBytes = 1448;

// A frame whose packet number is the sentinel marks a clean end of stream:
// the server sends one per path before closing, so the client can tell a
// finished stream (EOF after sentinel) from a dead connection (EOF without
// it) and only the latter triggers reconnection.
inline constexpr std::uint64_t kEndOfStream = ~0ull;

struct Frame {
  std::uint64_t packet_number = 0;
  std::uint64_t generated_ns = 0;
};

// CLOCK_MONOTONIC in ns: the clock of `generated_ns` and of arrivals.
std::uint64_t monotonic_ns();

// Connection hello, sent by the client immediately after connect():
//
//   [0..7]   magic (little-endian uint64; rejects stray connections)
//   [8..15]  path id the client assigns this connection
//   [16..23] last packet number received on that path, or kFreshHello
//
// A resume hello (last_seq != kFreshHello) asks the server to re-queue the
// frames it sent on that path after `last_seq` — they may have died in the
// kernel buffers of the broken connection.
inline constexpr std::size_t kHelloBytes = 24;
inline constexpr std::uint64_t kHelloMagic = 0x4F4C4C4548504D44ull;  // "DMPHELLO"
inline constexpr std::uint64_t kFreshHello = ~0ull;

struct Hello {
  std::uint64_t path_id = 0;
  std::uint64_t last_seq = kFreshHello;
};

// Writes the hello into `buffer` (at least kHelloBytes long).
void encode_hello(const Hello& hello, unsigned char* buffer);

// Parses a hello from `buffer` (at least kHelloBytes long).  Returns false
// (and leaves `*out` untouched) if the magic does not match.
bool decode_hello(const unsigned char* buffer, Hello* out);

// Writes the frame header into `buffer` (at least kFrameHeaderBytes long);
// the rest of the frame is payload padding.
void encode_frame_header(const Frame& frame, unsigned char* buffer);

// Incremental frame extractor.
class FrameParser {
 public:
  explicit FrameParser(std::size_t frame_bytes = kDefaultFrameBytes);

  // Consumes `len` bytes and invokes `on_frame` for each completed frame.
  void feed(const unsigned char* data, std::size_t len,
            const std::function<void(const Frame&)>& on_frame);

  std::size_t frame_bytes() const { return frame_bytes_; }
  std::size_t pending_bytes() const { return buffer_.size(); }

 private:
  std::size_t frame_bytes_;
  std::vector<unsigned char> buffer_;
};

}  // namespace dmp::inet
