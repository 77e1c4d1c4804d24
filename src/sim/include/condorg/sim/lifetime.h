// Object-lifetime guard for deferred callbacks.
//
// Host::post fences callbacks against host crashes (epoch change), but a
// daemon object can also be *destroyed* within an epoch — a glide-in Startd
// released by its node's starter once it exits, a JobManager replaced after
// a process kill. Any timer capturing `this` would then dangle. A Lifetime
// member makes that safe: wrap(fn) runs fn only while the Lifetime (and
// hence its owner) is still alive. The owner is always destroyed from its
// own host's context (or the control context), so cancelling its pending
// events instead is legal too; RpcClient does that.
#pragma once

#include <functional>
#include <memory>
#include <utility>

namespace condorg::sim {

class Lifetime {
 public:
  Lifetime() : token_(std::make_shared<char>(0)) {}

  Lifetime(const Lifetime&) = delete;
  Lifetime& operator=(const Lifetime&) = delete;

  /// Invalidate early (before destruction), e.g. on a simulated process
  /// kill while the C++ object lingers.
  void revoke() { token_.reset(); }
  bool alive() const { return token_ != nullptr; }

  /// A copyable probe reporting whether this Lifetime is still alive; safe
  /// to invoke after the owner is destroyed. For callbacks with arguments,
  /// where wrap() does not fit: capture the observer and bail when false.
  std::function<bool()> observer() const {
    return [weak = std::weak_ptr<char>(token_)] { return !weak.expired(); };
  }

  /// Wrap a callback so it is a no-op once this Lifetime is gone.
  std::function<void()> wrap(std::function<void()> fn) const {
    return [weak = std::weak_ptr<char>(token_), fn = std::move(fn)] {
      if (weak.lock()) fn();
    };
  }

 private:
  std::shared_ptr<char> token_;
};

}  // namespace condorg::sim
