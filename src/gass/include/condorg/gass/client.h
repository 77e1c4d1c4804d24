// Client helper for FileService endpoints.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "condorg/gass/file_store.h"
#include "condorg/gsi/credential.h"
#include "condorg/sim/rpc.h"

namespace condorg::gass {

/// Result of a get/stat.
struct FileInfo {
  std::string content;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
};

class FileClient {
 public:
  FileClient(sim::Host& host, sim::Network& network,
             const std::string& reply_service);

  /// Credential attached to every request (for authenticated services).
  void set_credential(const gsi::Credential& credential) {
    credential_ = credential.serialize();
  }
  void set_credential_text(std::string serialized) {
    credential_ = std::move(serialized);
  }

  using GetCallback = std::function<void(std::optional<FileInfo>)>;
  using AckCallback = std::function<void(bool ok)>;

  void get(const sim::Address& server, const std::string& path,
           GetCallback callback, double timeout = 600.0);
  void put(const sim::Address& server, const std::string& path,
           std::string content, std::uint64_t declared_size,
           AckCallback callback, double timeout = 600.0);
  /// `writer` + `chunk_seq` (when writer is non-empty) make the append
  /// idempotent across retries: the server applies each (writer, seq) at
  /// most once.
  void append(const sim::Address& server, const std::string& path,
              std::string chunk, std::uint64_t chunk_size,
              AckCallback callback, double timeout = 600.0,
              const std::string& writer = "", std::uint64_t chunk_seq = 0);
  void stat(const sim::Address& server, const std::string& path,
            GetCallback callback, double timeout = 60.0);
  /// Ask `server` to fetch `remote_path` from `source` and store it as
  /// `path` (third-party transfer).
  void pull(const sim::Address& server, const std::string& path,
            const sim::Address& source, const std::string& remote_path,
            AckCallback callback, double timeout = 1200.0);

 private:
  sim::Payload base_payload(const std::string& path) const;

  sim::RpcClient rpc_;
  std::string credential_;
};

}  // namespace condorg::gass
