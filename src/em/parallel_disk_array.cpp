#include "em/parallel_disk_array.hpp"

#include <algorithm>

namespace embsp::em {

ParallelDiskArray::ParallelDiskArray(
    std::size_t num_disks, std::size_t block_size,
    std::function<std::unique_ptr<Backend>(std::size_t)> make_backend,
    std::uint64_t capacity_tracks_per_disk, DiskArrayOptions options)
    : DiskArray(num_disks, block_size, std::move(make_backend),
                capacity_tracks_per_disk, options) {
  workers_.reserve(num_disks);
  for (std::size_t d = 0; d < num_disks; ++d) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Threads started only after every Worker exists (no vector relocation
  // races) — each thread owns drive d for the array's whole lifetime.
  for (std::size_t d = 0; d < num_disks; ++d) {
    workers_[d]->thread = std::thread([this, d] { worker_loop(d); });
  }
}

ParallelDiskArray::~ParallelDiskArray() {
  // Settle every outstanding token before stopping the workers: tasks hold
  // shared_ptrs to their ops, but the staging buffers the transfers target
  // belong to callers, so nothing may still be in flight when we return.
  drain();
  for (auto& w : workers_) {
    {
      std::lock_guard<std::mutex> lock(w->m);
      w->stop = true;
    }
    w->cv.notify_one();
  }
  for (auto& w : workers_) w->thread.join();
}

namespace {

/// Whether tracks [a, a + n) and [b, b + m) share a track.
bool overlap(std::uint64_t a, std::size_t n, std::uint64_t b, std::size_t m) {
  return a < b + m && b < a + n;
}

}  // namespace

void ParallelDiskArray::worker_loop(std::size_t disk) {
  Worker& w = *workers_[disk];
  // Tracks one wave may carry; 1 (no native batching) makes every wave a
  // single transfer.
  const std::size_t capacity = this->disk(disk).backend().batch_capacity();
  std::vector<Task> wave;
  for (;;) {
    wave.clear();
    {
      std::unique_lock<std::mutex> lock(w.m);
      w.cv.wait(lock, [&] { return w.stop || !w.queue.empty(); });
      if (w.queue.empty()) return;  // stop requested, nothing pending
      std::size_t tracks = 0;
      while (!w.queue.empty()) {
        const Task& next = w.queue.front();
        const Transfer& t = next.op->transfers[next.index];
        if (!wave.empty()) {
          if (next.op->is_read != wave.front().op->is_read ||
              tracks + t.tracks > capacity) {
            break;
          }
          const bool clash =
              std::any_of(wave.begin(), wave.end(), [&](const Task& in) {
                const Transfer& u = in.op->transfers[in.index];
                return overlap(t.track, t.tracks, u.track, u.tracks);
              });
          if (clash) break;
        }
        tracks += t.tracks;
        wave.push_back(std::move(w.queue.front()));
        w.queue.pop_front();
      }
    }
    run_wave(wave);
  }
}

void ParallelDiskArray::start(const std::shared_ptr<PendingOp>& op) {
  // An operation lists each drive's transfers contiguously (submit: one
  // per drive; submit_batch: grouped by drive), so each drive's share goes
  // onto its queue in one critical section and its worker can take it as
  // one wave.
  const auto& transfers = op->transfers;
  for (std::size_t i = 0; i < transfers.size();) {
    const std::uint32_t d = transfers[i].disk;
    Worker& w = *workers_[d];
    {
      std::lock_guard<std::mutex> lock(w.m);
      for (; i < transfers.size() && transfers[i].disk == d; ++i) {
        w.queue.push_back(Task{op, i});
      }
    }
    w.cv.notify_one();
  }
}

}  // namespace embsp::em
