// GASS / GridFTP file service (§3.4 of the paper).
//
// One service class covers the three data movers in the paper's deployment:
//   * the GASS server embedded in the GridManager (staging executables and
//     stdin to the site, streaming stdout/stderr back),
//   * GSI-authenticated GridFTP (shipping CMS event data to the NCSA
//     repository, fetching GlideIn binaries from a central repository), and
//   * the NCSA Mass Storage System used by the GridGaussian portal.
//
// Operations: get / put / append / stat, plus "pull" — a third-party
// transfer where this server fetches a file from another server (GridFTP
// style). Replies are delayed by the modelled transfer time of the file's
// declared size over the link, so benches observe realistic bandwidth
// behaviour. Optional GSI authentication rejects requests whose credential
// chain fails verification or whose identity is not in the gridmap.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <optional>
#include <string>

#include "condorg/gass/file_store.h"
#include "condorg/gsi/auth.h"
#include "condorg/sim/det.h"
#include "condorg/sim/host.h"
#include "condorg/sim/network.h"
#include "condorg/util/metrics.h"
#include "condorg/sim/rpc.h"

namespace condorg::gass {

class FileService {
 public:
  /// `service` is the endpoint name, e.g. "gass", "gridftp", "mss".
  FileService(sim::Host& host, sim::Network& network, std::string service,
              gsi::AuthConfig auth = {});
  ~FileService();

  FileService(const FileService&) = delete;
  FileService& operator=(const FileService&) = delete;

  sim::Address address() const { return {host_.name(), service_}; }
  FileStore& store() { return *store_; }
  const FileStore& store() const { return *store_; }

  /// When true (default), the service handler is re-registered on host
  /// restart and files survive (they are journalled to stable storage would
  /// be overkill; the store itself is a member of this object, which models
  /// a disk-backed spool). Set false to model scratch storage wiped by
  /// crashes.
  void set_survives_crash(bool survives) { survives_crash_ = survives; }

  // --- statistics ---
  std::uint64_t gets_served() const { return gets_; }
  std::uint64_t appends_served() const { return appends_; }
  std::uint64_t auth_failures() const { return auth_failures_; }
  std::uint64_t bytes_served() const { return bytes_served_; }

 private:
  void install();
  void on_message(const sim::Message& message);
  void reply_after_transfer(const sim::Message& request, sim::Payload reply,
                            std::uint64_t bytes);

  sim::Host& host_;
  sim::Network& network_;
  std::string service_;
  gsi::AuthConfig auth_;
  // FileService instances live on whichever host runs the endpoint (the
  // GridManager's embedded GASS server, a central GridFTP repository, the
  // NCSA MSS), so the store is host-owned without a fixed partition tag.
  det::HostLocal<FileStore> store_;
  /// Applied chunk_seq values per (path, writer) for idempotent appends.
  /// A set (not a high-water mark): retried and resent chunks may arrive
  /// out of order over the jittered network.
  det::HostLocal<std::map<std::string, std::set<std::uint64_t>>>
      applied_chunks_;
  bool survives_crash_ = true;
  int boot_id_ = 0;
  int crash_listener_ = 0;
  // Cached registry references (stable for the registry's lifetime) so the
  // per-transfer path does not rebuild label strings.
  util::Counter& bytes_counter_;
  util::Counter& auth_failures_counter_;
  util::Counter& gets_counter_;
  util::Counter& puts_counter_;
  util::Counter& appends_counter_;
  std::uint64_t gets_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t auth_failures_ = 0;
  std::uint64_t bytes_served_ = 0;
  // Third-party pulls need a private RPC client.
  std::unique_ptr<sim::RpcClient> pull_rpc_;
};

}  // namespace condorg::gass
