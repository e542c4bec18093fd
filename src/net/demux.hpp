// Per-flow demultiplexer: routes packets leaving a shared pipeline stage to
// the endpoint (TCP sender or sink) registered for their flow id.
//
// A bottleneck's exit serves 25-60 background flows besides the video
// ones, so flows are found through an open-addressed index (flow ->
// position + 1, 0 = empty; a power of two, at most half full), as a link
// finds its per-flow counters.  Registration replaces an existing entry;
// packets for unregistered flows are silently discarded (e.g. traffic
// arriving after an endpoint was torn down).
//
// An endpoint may also register as an AheadReceiver: a lazy link that
// delivers into the demux then hands it each delivery when it admits the
// packet, ahead of the clock, once the receiver agrees
// (docs/DES_ENGINE.md, "Lazy sinks").
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace dmp {

// An endpoint whose deliveries only its own state reads: its one output
// goes into a link nothing else feeds, so it can take each delivery when
// the link before it admits the packet.
class AheadReceiver {
 public:
  // Asked once, before the first delivery: true when it takes its
  // deliveries ahead of the clock from now on.
  virtual bool takes_ahead() = 0;
  // The delivery of `p` at virtual event `event`, at `when`, in key order;
  // `chain_start` is when its fused chain started.  Returns the time of the
  // deadline it now waits on, keyed by `event`'s claim 0, or SimTime::max().
  virtual SimTime take(const Packet& p, SimTime when, std::uint64_t event,
                       SimTime chain_start) = 0;
  // True while it waits on the deadline it armed at `event`.
  virtual bool waits(std::uint64_t event) const = 0;
  // The clock is about to reach that deadline, and every delivery keyed
  // before it has been taken.
  virtual void expire() = 0;

 protected:
  ~AheadReceiver() = default;
};

class FlowDemux {
 public:
  void register_flow(FlowId flow, PacketHandler handler,
                     AheadReceiver* ahead = nullptr) {
    const std::size_t at = probe(flow);
    if (index_[at] != 0) {
      entries_[index_[at] - 1] = Entry{flow, std::move(handler), ahead, false};
      return;
    }
    entries_.push_back(Entry{flow, std::move(handler), ahead, false});
    if (entries_.size() * 2 > index_.size()) {
      index_.assign(index_.size() * 2, 0);
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        index_[probe(entries_[i].flow)] = static_cast<std::uint32_t>(i + 1);
      }
    } else {
      index_[at] = static_cast<std::uint32_t>(entries_.size());
    }
  }

  void deliver(const Packet& p) const {
    if (const std::uint32_t slot = index_[probe(p.flow)]; slot != 0) {
      entries_[slot - 1].handler(p);
    }
  }

  // The receiver that takes `flow`'s deliveries ahead of the clock, or
  // nullptr when they are delivered at the clock; asked at the first call.
  AheadReceiver* ahead(FlowId flow) {
    const std::uint32_t slot = index_[probe(flow)];
    if (slot == 0) return nullptr;
    Entry& e = entries_[slot - 1];
    if (!e.asked) {
      e.asked = true;
      if (e.ahead != nullptr && !e.ahead->takes_ahead()) e.ahead = nullptr;
    }
    return e.ahead;
  }

  PacketHandler as_handler() {
    return [this](const Packet& p) { deliver(p); };
  }

 private:
  struct Entry {
    FlowId flow;
    PacketHandler handler;
    AheadReceiver* ahead;
    bool asked;  // ahead() has decided the receiver's mode
  };

  // The index slot holding `flow`, or the empty slot it would take
  // (Fibonacci hashing: flow ids are small and often consecutive).
  std::size_t probe(FlowId flow) const {
    const std::size_t mask = index_.size() - 1;
    std::size_t at = ((std::size_t{flow} * 0x9E3779B97F4A7C15ULL) >> 40) & mask;
    while (index_[at] != 0 && entries_[index_[at] - 1].flow != flow) {
      at = (at + 1) & mask;
    }
    return at;
  }

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> index_ = std::vector<std::uint32_t>(8);
};

}  // namespace dmp
