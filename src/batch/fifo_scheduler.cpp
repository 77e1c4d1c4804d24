#include "condorg/batch/fifo_scheduler.h"

namespace condorg::batch {

std::size_t FifoScheduler::pick_next(int free) const {
  const auto& q = queue();
  if (q.empty()) return static_cast<std::size_t>(-1);
  if (record(q.front()).request.cpus <= free) return 0;
  // Backfill: a job further back may start, but when even the smallest
  // request is too big none can, and the walk would find nothing.
  if (!backfill_ || min_queued_cpus() > free) {
    return static_cast<std::size_t>(-1);
  }
  for (std::size_t i = 1; i < q.size(); ++i) {
    if (record(q[i]).request.cpus <= free) return i;
  }
  return static_cast<std::size_t>(-1);
}

}  // namespace condorg::batch
