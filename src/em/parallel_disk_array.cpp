#include "em/parallel_disk_array.hpp"

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

void ParallelDiskArray::worker_loop(std::size_t disk) {
  Worker& w = *workers_[disk];
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(w.m);
      w.cv.wait(lock, [&] { return w.stop || !w.queue.empty(); });
      if (w.queue.empty()) return;  // stop requested, nothing pending
      task = std::move(w.queue.front());
      w.queue.pop_front();
    }
    std::exception_ptr error;
    try {
      run_transfer(*task.op, task.index);
    } catch (...) {
      error = std::current_exception();
    }
    // complete() publishes the transfer's effects (and the error slot) to
    // whichever thread eventually waits the token.
    task.op->complete(task.index, std::move(error));
  }
}

void ParallelDiskArray::start(const std::shared_ptr<PendingOp>& op) {
  for (std::size_t i = 0; i < op->transfers.size(); ++i) {
    Worker& w = *workers_[op->transfers[i].disk];
    {
      std::lock_guard<std::mutex> lock(w.m);
      w.queue.push_back(Task{op, i});
    }
    w.cv.notify_one();
  }
}

}  // namespace embsp::em
