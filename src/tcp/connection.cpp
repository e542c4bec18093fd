#include "tcp/connection.hpp"

namespace dmp {

TcpConnection make_connection(Scheduler& sched, FlowId flow,
                              NetworkPath& path, const TcpConfig& config) {
  TcpConnection conn;
  PacketHandler out = path.attach_source(flow);  // makes source_link(flow)
  conn.sender = std::make_unique<RenoSender>(sched, flow, config,
                                             std::move(out),
                                             path.source_link(flow));
  conn.sink = std::make_unique<TcpSink>(sched, flow, config,
                                        path.attach_reverse_source(flow));

  TcpSink* sink = conn.sink.get();
  path.register_sink(flow, [sink](const Packet& p) { sink->on_data(p); });
  RenoSender* sender = conn.sender.get();
  path.register_reverse_sink(flow,
                             [sender](const Packet& p) { sender->on_ack(p); });
  return conn;
}

}  // namespace dmp
