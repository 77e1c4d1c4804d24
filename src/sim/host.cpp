#include "condorg/sim/host.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "condorg/sim/det.h"
#include "condorg/sim/schedule_controller.h"

namespace condorg::sim {

Host::Host(Simulation& sim, std::string name, std::uint32_t queue)
    : sim_(sim), name_(std::move(name)), queue_(queue) {}

EventId Host::post_at(Time when, std::function<void()> fn) {
  const Epoch expected = epoch_;
  return sim_.schedule_on_queue(
      queue_, when, [this, expected, fn = std::move(fn)] {
        if (alive_ && epoch_ == expected) {
          // DetSan: this event executes on this host.
          det::ScopedHost scope(this);
          run_profiled(fn);
        }
      });
}

EventId Host::post(Time delay, std::function<void()> fn) {
  return post_at(sim_.now() + delay, std::move(fn));
}

EventId Host::post_any_epoch(Time delay, std::function<void()> fn) {
  return sim_.schedule_on_queue(
      queue_, sim_.now() + delay, [this, fn = std::move(fn)] {
        if (alive_) {
          det::ScopedHost scope(this);
          run_profiled(fn);
        }
      });
}

void Host::run_profiled(const std::function<void()>& fn) {
  Profiler& profiler = sim_.profiler();
  if (profiler.enabled()) {
    const std::uint64_t start = Profiler::clock_ns();
    fn();
    profiler.record_timer(name_, Profiler::clock_ns() - start);
  } else {
    fn();
  }
}

namespace {
/// Invoke each registered callback in id (= registration) order,
/// re-checking before every call that it is still registered: a callback
/// may destroy objects that deregister *other* callbacks (e.g. a
/// gatekeeper's crash listener tears down JobManagers whose RPC clients
/// hold their own listeners). Invoking a stale copy would be use-after-free.
void invoke_live(std::map<int, std::function<void()>>& callbacks) {
  std::vector<int> ids;
  ids.reserve(callbacks.size());
  for (const auto& [id, fn] : callbacks) ids.push_back(id);
  for (const int id : ids) {
    const auto it = callbacks.find(id);
    if (it == callbacks.end()) continue;  // deregistered by an earlier one
    const auto fn = it->second;  // copy: the callback may deregister itself
    fn();
  }
}
}  // namespace

void Host::crash() {
  if (!alive_) return;
  alive_ = false;
  ++epoch_;
  ++crash_count_;
  services_.clear();
  // Crash listeners run in this host's context (they tear down this
  // host's daemons), whatever context initiated the crash.
  det::ScopedHost scope(this);
  invoke_live(crash_listeners_);
}

void Host::restart() {
  if (alive_) return;
  alive_ = true;
  det::ScopedHost scope(this);
  invoke_live(boots_);
}

void Host::crash_for(Time downtime) {
  crash();
  // The restart runs on this host's own queue whatever context crashed it
  // (fault injection is control-queue code).
  sim_.schedule_on_queue(queue_, sim_.now() + downtime, [this] { restart(); });
}

bool Host::crash_point(const char* point) {
  if (!alive_) return false;
  ScheduleController* controller = sim_.controller();
  if (controller == nullptr) return false;
  double downtime = 30.0;
  if (!controller->inject_crash(name_, point, &downtime)) return false;
  sim_.schedule_in(0.0, [this, downtime] { crash_for(downtime); });
  return true;
}

int Host::add_boot(std::function<void()> fn) {
  const int id = next_listener_id_++;
  boots_.emplace(id, std::move(fn));
  return id;
}

void Host::remove_boot(int id) { boots_.erase(id); }

int Host::add_crash_listener(std::function<void()> fn) {
  const int id = next_listener_id_++;
  crash_listeners_.emplace(id, std::move(fn));
  return id;
}

void Host::remove_crash_listener(int id) { crash_listeners_.erase(id); }

void Host::register_service(const std::string& service, Handler handler) {
  // Two live daemons behind one service name would silently steal each
  // other's traffic; a crash clears services_ and destructors unregister,
  // so a collision is always a wiring bug, never a recovery race.
  if (services_.count(service) != 0) {
    throw std::logic_error("host " + name_ + ": service '" + service +
                           "' is already registered");
  }
  services_[service] = std::move(handler);
}

void Host::unregister_service(const std::string& service) {
  services_.erase(service);
}

const Host::Handler* Host::find_service(const std::string& service) const {
  const auto it = services_.find(service);
  return it == services_.end() ? nullptr : &it->second;
}

}  // namespace condorg::sim
