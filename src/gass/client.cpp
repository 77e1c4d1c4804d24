#include "condorg/gass/client.h"

namespace condorg::gass {

FileClient::FileClient(sim::Host& host, sim::Network& network,
                       const std::string& reply_service)
    : rpc_(host, network, reply_service) {}

sim::Payload FileClient::base_payload(const std::string& path) const {
  sim::Payload payload;
  payload.set("path", path);
  if (!credential_.empty()) payload.set("credential", credential_);
  return payload;
}

void FileClient::get(const sim::Address& server, const std::string& path,
                     GetCallback callback, double timeout) {
  rpc_.call(server, "file.get", base_payload(path), timeout,
            [callback = std::move(callback)](sim::RpcOutcome outcome,
                                             const sim::Payload& reply) {
              if (outcome != sim::RpcOutcome::kAnswered) {
                callback(std::nullopt);
                return;
              }
              FileInfo info;
              info.content = reply.get("content");
              info.size = reply.get_uint("size");
              info.checksum = reply.get_uint("checksum");
              callback(std::move(info));
            });
}

void FileClient::put(const sim::Address& server, const std::string& path,
                     std::string content, std::uint64_t declared_size,
                     AckCallback callback, double timeout) {
  sim::Payload payload = base_payload(path);
  payload.set("content", std::move(content));
  payload.set_uint("size", declared_size);
  rpc_.call(server, "file.put", std::move(payload), timeout,
            sim::rpc_answered(std::move(callback)));
}

void FileClient::append(const sim::Address& server, const std::string& path,
                        std::string chunk, std::uint64_t chunk_size,
                        AckCallback callback, double timeout,
                        const std::string& writer, std::uint64_t chunk_seq) {
  sim::Payload payload = base_payload(path);
  payload.set("content", std::move(chunk));
  payload.set_uint("size", chunk_size);
  if (!writer.empty()) {
    payload.set("writer", writer);
    payload.set_uint("chunk_seq", chunk_seq);
  }
  rpc_.call(server, "file.append", std::move(payload), timeout,
            sim::rpc_answered(std::move(callback)));
}

void FileClient::stat(const sim::Address& server, const std::string& path,
                      GetCallback callback, double timeout) {
  rpc_.call(server, "file.stat", base_payload(path), timeout,
            [callback = std::move(callback)](sim::RpcOutcome outcome,
                                             const sim::Payload& reply) {
              if (outcome != sim::RpcOutcome::kAnswered) {
                callback(std::nullopt);
                return;
              }
              FileInfo info;
              info.size = reply.get_uint("size");
              info.checksum = reply.get_uint("checksum");
              callback(std::move(info));
            });
}

void FileClient::pull(const sim::Address& server, const std::string& path,
                      const sim::Address& source,
                      const std::string& remote_path, AckCallback callback,
                      double timeout) {
  sim::Payload payload = base_payload(path);
  payload.set("source", source.str());
  payload.set("remote_path", remote_path);
  rpc_.call(server, "file.pull", std::move(payload), timeout,
            sim::rpc_answered(std::move(callback)));
}

}  // namespace condorg::gass
