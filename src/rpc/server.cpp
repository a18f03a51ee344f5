#include "rpc/server.hpp"

#include "rpc/io.hpp"
#include "util/log.hpp"

namespace npss::rpc {

void server_main(sim::ProcessContext& ctx) {
  MessageIo io(ctx.cluster(), ctx.self_ptr());
  const std::string machine = ctx.self().machine().name;
  NPSS_LOG_INFO("server", "up on ", machine, " at ", io.address());
  while (auto in = io.receive()) {
    const Message& msg = in->msg;
    switch (msg.kind) {
      case MessageKind::kSpawn: {
        try {
          std::vector<std::string> args;
          args.reserve(msg.table.size() * 2);
          for (const auto& [key, value] : msg.table) {
            args.push_back(key);
            args.push_back(value);
          }
          sim::EndpointPtr ep =
              ctx.cluster().spawn_image(machine, msg.a, msg.b, args);
          // Process startup costs real time on the target machine
          // (fork/exec in the original); bill it to the new process.
          ep->clock().join(ctx.self().clock().now() + util::sim_ms(30));
          Message ack;
          ack.kind = MessageKind::kSpawnAck;
          ack.seq = msg.seq;
          ack.a = ep->address();
          io.send(in->from(), std::move(ack));
          NPSS_LOG_DEBUG("server", machine, ": spawned ", msg.a, " as ",
                         ep->address());
        } catch (const util::Error& e) {
          io.send(in->from(),
                  Message::error_reply(msg, util::ErrorCode::kStartupFailure,
                                       e.what()));
        }
        break;
      }
      case MessageKind::kPing:
        io.send(in->from(),
                Message{.kind = MessageKind::kPong, .seq = msg.seq});
        break;
      case MessageKind::kShutdownProc:
        NPSS_LOG_INFO("server", machine, ": stopping");
        return;
      default:
        io.send(in->from(),
                Message::error_reply(msg, util::ErrorCode::kProtocolError,
                                     "server: unexpected message"));
    }
  }
}

}  // namespace npss::rpc
