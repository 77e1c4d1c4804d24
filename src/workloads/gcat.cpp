#include "condorg/workloads/gcat.h"

#include <memory>

namespace condorg::workloads {
namespace {
constexpr double kRpcTimeout = 120.0;
}  // namespace

GCat::GCat(sim::Host& host, sim::Network& network, sim::Address mss,
           std::string remote_path, GCatOptions options)
    : host_(host),
      client_(host, network, "gcat." + remote_path),
      mss_(std::move(mss)),
      remote_path_(std::move(remote_path)),
      options_(options) {
  // Timer-driven flush so a slow trickle of output still becomes visible.
  auto timer = std::make_shared<std::function<void()>>();
  *timer = [this, weak = std::weak_ptr<std::function<void()>>(timer)] {
    if (finished_ && buffer_bytes_ == 0) return;
    const auto self = weak.lock();
    if (!self) return;
    maybe_flush();
    host_.post(options_.flush_interval, [self] { (*self)(); });
  };
  host_.post(options_.flush_interval, [timer] { (*timer)(); });
}

void GCat::on_output(const std::string& content, std::uint64_t bytes) {
  buffer_ += content;
  buffer_bytes_ += bytes;
  produced_ += bytes;
  peak_buffer_ = std::max(peak_buffer_, buffer_bytes_);
  if (buffer_bytes_ >= options_.chunk_bytes) maybe_flush();
}

void GCat::finish(std::function<void()> done) {
  finished_ = true;
  done_ = std::move(done);
  if (buffer_bytes_ == 0 && !inflight_) {
    if (done_) done_();
    return;
  }
  maybe_flush();
}

void GCat::maybe_flush() {
  if (inflight_ || buffer_bytes_ == 0) return;
  send_chunk();
}

void GCat::send_chunk() {
  inflight_ = true;
  const std::string chunk_content = std::move(buffer_);
  const std::uint64_t chunk_bytes = buffer_bytes_;
  buffer_.clear();
  buffer_bytes_ = 0;
  ++chunks_;

  auto attempt = std::make_shared<std::function<void()>>();
  *attempt = [this, chunk_content, chunk_bytes,
              weak = std::weak_ptr<std::function<void()>>(attempt)] {
    const auto self = weak.lock();
    if (!self) return;
    client_.append(
        mss_, remote_path_, chunk_content, chunk_bytes,
        [this, chunk_bytes, self](bool ok) {
          if (!ok) {
            // Network down: keep the chunk and retry; the job continues
            // producing into the (growing) local buffer meanwhile.
            host_.post(options_.retry_delay, [self] { (*self)(); });
            return;
          }
          acked_ += chunk_bytes;
          inflight_ = false;
          if (buffer_bytes_ > 0) {
            send_chunk();
          } else if (finished_ && done_) {
            done_();
          }
        },
        kRpcTimeout, remote_path_ + ".gcat", chunks_);
  };
  (*attempt)();
}

DirectWriter::DirectWriter(sim::Host& host, sim::Network& network,
                           sim::Address mss, std::string remote_path,
                           double rpc_timeout, double retry_delay)
    : host_(host),
      client_(host, network, "direct." + remote_path),
      mss_(std::move(mss)),
      remote_path_(std::move(remote_path)),
      rpc_timeout_(rpc_timeout),
      retry_delay_(retry_delay) {}

void DirectWriter::write(const std::string& content, std::uint64_t bytes,
                         std::function<void()> unblocked) {
  const double started = host_.now();
  const std::uint64_t seq = ++seq_;
  auto attempt = std::make_shared<std::function<void()>>();
  *attempt = [this, content, bytes, started, seq,
              unblocked = std::move(unblocked),
              weak = std::weak_ptr<std::function<void()>>(attempt)] {
    const auto self = weak.lock();
    if (!self) return;
    client_.append(mss_, remote_path_, content, bytes,
                   [this, bytes, started, unblocked, self](bool ok) {
                     if (!ok) {
                       host_.post(retry_delay_, [self] { (*self)(); });
                       return;
                     }
                     acked_ += bytes;
                     stall_ += host_.now() - started;
                     unblocked();
                   },
                   rpc_timeout_, remote_path_ + ".direct", seq);
  };
  (*attempt)();
}

}  // namespace condorg::workloads
