#include "condorg/gass/file_service.h"

#include <utility>

namespace condorg::gass {
namespace {
constexpr double kPullTimeout = 600.0;
}

FileService::FileService(sim::Host& host, sim::Network& network,
                         std::string service, gsi::AuthConfig auth)
    : host_(host),
      network_(network),
      service_(std::move(service)),
      auth_(std::move(auth)),
      store_(host, "gass.store"),
      applied_chunks_(host, "gass.applied_chunks"),
      bytes_counter_(host.metrics().counter("gass.bytes_served",
                                            {{"service", service_}})),
      auth_failures_counter_(host.metrics().counter(
          "gass.auth_failures", {{"service", service_}})),
      gets_counter_(
          host.metrics().counter("gass.gets", {{"service", service_}})),
      puts_counter_(
          host.metrics().counter("gass.puts", {{"service", service_}})),
      appends_counter_(
          host.metrics().counter("gass.appends", {{"service", service_}})) {
  install();
  pull_rpc_ = std::make_unique<sim::RpcClient>(host_, network_,
                                               service_ + ".pull");
  boot_id_ = host_.add_boot([this] {
    if (survives_crash_) install();
  });
  crash_listener_ = host_.add_crash_listener([this] {
    if (!survives_crash_) store_ = FileStore{};
  });
}

FileService::~FileService() {
  host_.remove_boot(boot_id_);
  host_.remove_crash_listener(crash_listener_);
  if (host_.alive()) host_.unregister_service(service_);
}

void FileService::install() {
  host_.register_service(service_,
                         [this](const sim::Message& m) { on_message(m); });
}

void FileService::reply_after_transfer(const sim::Message& request,
                                       sim::Payload reply,
                                       std::uint64_t bytes) {
  const double delay =
      network_.transfer_seconds(host_.name(), request.from.host, bytes);
  bytes_served_ += bytes;
  bytes_counter_.inc(bytes);
  host_.post(delay, [this, request, reply = std::move(reply)]() mutable {
    sim::rpc_reply(network_, request, address(), std::move(reply));
  });
}

void FileService::on_message(const sim::Message& message) {
  const gsi::AuthResult auth =
      gsi::authenticate(auth_, message.body, host_.now());
  if (!auth.ok) {
    ++auth_failures_;
    auth_failures_counter_.inc();
    sim::rpc_refuse(network_, message, address(), auth.why);
    return;
  }

  const std::string path = message.body.get("path");
  sim::Payload reply;

  if (message.type == "file.get") {
    // Borrowed view: serving a get must not copy the (possibly large)
    // content an extra time, and the stored entry memoizes its checksum.
    const FileData* file = store_->find(path);
    if (!file) {
      sim::rpc_refuse(network_, message, address(), "no such file: " + path);
      return;
    }
    ++gets_;
    gets_counter_.inc();
    reply.set("content", file->content);
    reply.set_uint("size", file->size());
    reply.set_uint("checksum", file->checksum());
    reply_after_transfer(message, std::move(reply), file->size());
    return;
  }

  if (message.type == "file.put") {
    const std::uint64_t size = message.body.get_uint("size");
    store_->put(path, message.body.get("content"), size);
    puts_counter_.inc();
    reply_after_transfer(message, std::move(reply),
                         size ? size : message.body.get("content").size());
    return;
  }

  if (message.type == "file.append") {
    const std::uint64_t size = message.body.get_uint("size");
    // Idempotency: appends may be retried after a lost ack; a (writer,
    // chunk_seq) pair is applied at most once.
    bool duplicate = false;
    if (message.body.has("writer")) {
      const std::string key = path + "\x1f" + message.body.get("writer");
      const std::uint64_t seq = message.body.get_uint("chunk_seq");
      duplicate = !(*applied_chunks_)[key].insert(seq).second;
    }
    if (!duplicate) {
      store_->append(path, message.body.get("content"), size);
      ++appends_;
      appends_counter_.inc();
    }
    const auto stat = store_->stat(path);
    reply.set_uint("new_size", stat ? stat->size : 0);
    reply_after_transfer(message, std::move(reply),
                         size ? size : message.body.get("content").size());
    return;
  }

  if (message.type == "file.stat") {
    // Fast path: size + memoized checksum, no FileData copy.
    const auto stat = store_->stat(path);
    if (!stat) {
      sim::rpc_refuse(network_, message, address(), "no such file: " + path);
      return;
    }
    reply.set_uint("size", stat->size);
    reply.set_uint("checksum", stat->checksum);
    sim::rpc_reply(network_, message, address(), std::move(reply));
    return;
  }

  if (message.type == "file.pull") {
    // Third-party transfer: fetch `remote_path` from `source` into this
    // store as `path` (GridFTP-style server-to-server movement).
    const auto source = sim::Address::parse(message.body.get("source"));
    const std::string remote_path = message.body.get("remote_path");
    sim::Payload get_request;
    get_request.set("path", remote_path);
    if (message.body.has("credential")) {
      get_request.set("credential", message.body.get("credential"));
    }
    // Capture the original request so the final ack goes to the initiator.
    pull_rpc_->call(
        source, "file.get", std::move(get_request), kPullTimeout,
        [this, message, path](sim::RpcOutcome outcome,
                              const sim::Payload& got) {
          if (outcome != sim::RpcOutcome::kAnswered) {
            sim::rpc_refuse(network_, message, address(),
                            outcome == sim::RpcOutcome::kRefused
                                ? got.get("why")
                                : "source unreachable");
            return;
          }
          FileData data;
          data.content = got.get("content");
          data.declared_size = got.get_uint("size");
          store_->put(path, std::move(data));
          sim::Payload ack;
          ack.set_uint("size", got.get_uint("size"));
          ack.set_uint("checksum", got.get_uint("checksum"));
          sim::rpc_reply(network_, message, address(), std::move(ack));
        });
    return;
  }

  sim::rpc_unknown(host_, network_, message, address(), "file_service");
}

}  // namespace condorg::gass
