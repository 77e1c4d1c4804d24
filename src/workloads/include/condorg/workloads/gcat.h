// G-Cat: streaming partial output to mass storage (§6, third experience).
//
// "G-Cat hides network performance variations from Gaussian by using local
// scratch storage as a buffer for Gaussian's output, rather than sending
// the output directly over the network. Users can view the output as it is
// received at MSS."
//
// Two writers are provided for the ablation:
//   * GCat       — the paper's design: the producing job appends to a local
//     scratch buffer and never blocks; a background flusher ships buffered
//     chunks to the MSS sequentially, riding out slow or broken links.
//   * DirectWriter — the baseline: each output record is written through to
//     the MSS synchronously; while the network is slow the *job* stalls.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "condorg/gass/client.h"
#include "condorg/sim/host.h"

namespace condorg::workloads {

struct GCatOptions {
  std::uint64_t chunk_bytes = 4 << 20;  // flush threshold
  double flush_interval = 60.0;         // also flush on a timer
  double retry_delay = 30.0;
};

class GCat {
 public:
  GCat(sim::Host& host, sim::Network& network, sim::Address mss,
       std::string remote_path, GCatOptions options = {});

  /// The job produced `bytes` of output (content appended to the local
  /// scratch buffer). NEVER blocks the caller.
  void on_output(const std::string& content, std::uint64_t bytes);

  /// The job finished; flush everything remaining. `done` fires when the
  /// MSS holds the complete file.
  void finish(std::function<void()> done);

  // --- observability for the E3 bench ---
  std::uint64_t bytes_produced() const { return produced_; }
  std::uint64_t bytes_acked() const { return acked_; }
  /// Output visible at the MSS lags production by this many bytes.
  std::uint64_t staleness_bytes() const { return produced_ - acked_; }
  std::uint64_t chunks_sent() const { return chunks_; }
  std::uint64_t peak_buffer_bytes() const { return peak_buffer_; }

 private:
  void maybe_flush();
  void send_chunk();

  sim::Host& host_;
  gass::FileClient client_;
  sim::Address mss_;
  std::string remote_path_;
  GCatOptions options_;
  std::string buffer_;
  std::uint64_t buffer_bytes_ = 0;
  bool inflight_ = false;
  bool finished_ = false;
  std::function<void()> done_;
  std::uint64_t produced_ = 0;
  std::uint64_t acked_ = 0;
  std::uint64_t chunks_ = 0;
  std::uint64_t peak_buffer_ = 0;
};

/// Synchronous baseline: on_output delivers the record to the MSS and
/// reports, via the callback, how long the producing job was blocked.
class DirectWriter {
 public:
  DirectWriter(sim::Host& host, sim::Network& network, sim::Address mss,
               std::string remote_path, double rpc_timeout = 120.0,
               double retry_delay = 30.0);

  /// Write a record; `unblocked` fires when the write is durable at the
  /// MSS — until then the producing job is stalled.
  void write(const std::string& content, std::uint64_t bytes,
             std::function<void()> unblocked);

  std::uint64_t bytes_acked() const { return acked_; }
  double total_stall_seconds() const { return stall_; }

 private:
  sim::Host& host_;
  gass::FileClient client_;
  sim::Address mss_;
  std::string remote_path_;
  double rpc_timeout_;
  double retry_delay_;
  std::uint64_t acked_ = 0;
  std::uint64_t seq_ = 0;
  double stall_ = 0;
};

}  // namespace condorg::workloads
