// Abstract bidirectional path: the wiring contract between TCP endpoints
// and a network substrate.  Implemented by DumbbellPath (Table-1 bottleneck
// with background traffic) and emul::WanPath (stochastic Internet-path
// emulation for the Section-6 experiments).
#pragma once

#include "net/packet.hpp"

namespace dmp {

class Link;

class NetworkPath {
 public:
  virtual ~NetworkPath() = default;

  // Forward direction (data): returns the injection handler for this flow
  // and registers who receives its packets at the far end.
  virtual PacketHandler attach_source(FlowId flow) = 0;
  virtual void register_sink(FlowId flow, PacketHandler handler) = 0;
  // The link attach_source(flow) returned the handler of, when the path
  // gives each source a private one (nullptr otherwise): a sender may then
  // hand it delayed arrivals directly (Link::send_at).
  virtual Link* source_link(FlowId) { return nullptr; }

  // Reverse direction (ACKs).
  virtual PacketHandler attach_reverse_source(FlowId flow) = 0;
  virtual void register_reverse_sink(FlowId flow, PacketHandler handler) = 0;
};

}  // namespace dmp
