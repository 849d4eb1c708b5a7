#include "em/disk_array.hpp"

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>

#include "em/parallel_disk_array.hpp"
#include "em/uring_backend.hpp"

namespace embsp::em {

namespace {
std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

DiskArray::DiskArray(
    std::size_t num_disks, std::size_t block_size,
    std::function<std::unique_ptr<Backend>(std::size_t)> make_backend,
    std::uint64_t capacity_tracks_per_disk, DiskArrayOptions options)
    : block_size_(block_size), options_(options), seen_(num_disks, 0) {
  if (num_disks == 0) {
    throw std::invalid_argument("DiskArray: need at least one disk");
  }
  disks_.reserve(num_disks);
  jitter_.reserve(num_disks);
  for (std::size_t d = 0; d < num_disks; ++d) {
    auto backend =
        make_backend ? make_backend(d) : make_memory_backend();
    disks_.push_back(std::make_unique<Disk>(block_size, std::move(backend),
                                            capacity_tracks_per_disk,
                                            options_.verify_checksums));
    // Backoff jitter only shapes sleep durations, never data, so a fixed
    // per-disk seed keeps arrays reproducible without configuration.
    jitter_.emplace_back(0xB0FF'0000ULL + d);
  }
  engine_.per_disk.resize(num_disks);
}

DiskArray::~DiskArray() {
  // Tokens never settled by the owner are settled here so their successful
  // I/O is not silently forgotten.  ParallelDiskArray drains before joining
  // its workers, making this a no-op for the concurrent engine.
  drain();
}

void DiskArray::check_distinct(std::span<const std::uint32_t> disks) const {
  if (disks.empty()) {
    throw std::invalid_argument("DiskArray: empty parallel I/O operation");
  }
  if (disks.size() > disks_.size()) {
    throw std::invalid_argument(
        "DiskArray: more ops than disks in one parallel I/O");
  }
  for (auto d : disks) {
    if (d >= disks_.size()) {
      throw std::out_of_range("DiskArray: disk index " + std::to_string(d));
    }
    if (seen_[d] != 0) {
      // Clean up before throwing so the array stays usable.
      for (auto e : disks) seen_[e] = 0;
      throw std::invalid_argument(
          "DiskArray: disk " + std::to_string(d) +
          " accessed twice in one parallel I/O (model violation)");
    }
    seen_[d] = 1;
  }
  for (auto d : disks) seen_[d] = 0;
}

void DiskArray::run_transfer(const PendingOp& op, std::size_t index) {
  const Transfer& t = op.transfers[index];
  auto& ds = engine_.per_disk[t.disk];
  Disk& disk = *disks_[t.disk];
  const RetryPolicy& policy = options_.retry;
  // A retry replays the whole run, which is why the simulators disable
  // coalescing when deterministic fault schedules are active.
  for (std::uint32_t attempt = 1;; ++attempt) {
    const std::uint64_t t0 = now_ns();
    try {
      if (op.is_read) {
        const auto run = std::span(op.dst).subspan(t.first, t.tracks);
        if (t.tracks == 1) {
          disk.read_track(t.track, run[0]);
        } else {
          disk.read_tracks(t.track, run);
        }
      } else {
        const auto run = std::span(op.src).subspan(t.first, t.tracks);
        if (t.tracks == 1) {
          disk.write_track(t.track, run[0]);
        } else {
          disk.write_tracks(t.track, run);
        }
      }
      const std::uint64_t dt = now_ns() - t0;
      ds.busy_ns += dt;
      ds.service_ns.record(dt);
      break;
    } catch (const IoError& e) {
      const std::uint64_t dt = now_ns() - t0;
      ds.busy_ns += dt;
      ds.service_ns.record(dt);
      if (!e.retryable() || attempt >= policy.max_attempts) {
        ds.giveups += 1;
        throw;
      }
      ds.retries += 1;
      const std::uint64_t delay = policy.backoff_ns(attempt, jitter_[t.disk]);
      ds.retry_delay_ns.record(delay);
      if (delay > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(delay));
      }
    }
  }
  account(ds, op, t);
}

void DiskArray::account(DiskIoStats& ds, const PendingOp& op,
                        const Transfer& t) {
  // Every track of a run has the first one's length (submit_batch extends
  // runs only over equal lengths).
  const std::size_t len =
      op.is_read ? op.dst[t.first].size() : op.src[t.first].size();
  ds.ops += t.tracks;
  ds.bytes += len * t.tracks;
  if (t.tracks > 1) ds.coalesced_tracks += t.tracks - 1;
}

void DiskArray::run_wave(std::span<const Task> wave) {
  const auto run_alone = [this](const Task& task) {
    std::exception_ptr error;
    try {
      run_transfer(*task.op, task.index);
    } catch (...) {
      error = std::current_exception();
    }
    // complete() publishes the transfer's effects (and the error slot) to
    // whichever thread eventually waits the token.
    task.op->complete(task.index, std::move(error));
  };
  if (wave.size() == 1) {
    run_alone(wave.front());
    return;
  }
  const std::uint32_t d = wave.front().op->transfers[wave.front().index].disk;
  Disk& disk = *disks_[d];
  const bool is_read = wave.front().op->is_read;
  std::vector<BatchIo> ios;
  std::vector<const Task*> batched;
  ios.reserve(wave.size());
  batched.reserve(wave.size());
  for (const Task& task : wave) {
    const PendingOp& op = *task.op;
    const Transfer& t = op.transfers[task.index];
    BatchIo io{t.track * block_size_, {}, {}};
    if (is_read) {
      io.dsts = std::span(op.dst).subspan(t.first, t.tracks);
    } else {
      io.srcs = std::span(op.src).subspan(t.first, t.tracks);
    }
    try {
      for (std::size_t k = 0; k < t.tracks; ++k) {
        disk.check(t.track + k,
                   is_read ? io.dsts[k].size() : io.srcs[k].size());
      }
    } catch (...) {
      task.op->complete(task.index, std::current_exception());
      continue;
    }
    ios.push_back(io);
    batched.push_back(&task);
  }
  if (ios.empty()) return;
  auto& ds = engine_.per_disk[d];
  const std::uint64_t t0 = now_ns();
  bool landed = true;
  try {
    disk.transfer_batch(is_read, ios);
  } catch (...) {
    landed = false;
  }
  const std::uint64_t dt = now_ns() - t0;
  ds.busy_ns += dt;
  ds.service_ns.record(dt);
  for (const Task* task : batched) {
    if (!landed) {
      run_alone(*task);
      continue;
    }
    account(ds, *task->op, task->op->transfers[task->index]);
    task->op->complete(task->index, nullptr);
  }
}

void DiskArray::PendingOp::complete(std::size_t index,
                                    std::exception_ptr error) {
  std::lock_guard<std::mutex> lock(m);
  if (error != nullptr) errors[index] = std::move(error);
  if (--remaining == 0) {
    done = true;
    // Notify under the lock: the waiter re-checks `done` holding m, so it
    // cannot destroy the op while we still touch it.
    cv.notify_all();
  }
}

void DiskArray::start(const std::shared_ptr<PendingOp>& op) {
  // Serial engine: the issuing thread performs the transfers back-to-back
  // and STOPS at the first failure (the historical serial semantics —
  // later transfers of a failed operation never reach the disk, so
  // deterministic fault schedules keyed on per-disk call counts are
  // preserved).  The whole inline execution is issuing-thread stall.
  const std::uint64_t t0 = now_ns();
  std::size_t i = 0;
  std::exception_ptr err;
  for (; i < op->transfers.size(); ++i) {
    try {
      run_transfer(*op, i);
    } catch (...) {
      err = std::current_exception();
      break;
    }
  }
  engine_.stall_ns += now_ns() - t0;
  std::lock_guard<std::mutex> lock(op->m);
  if (err != nullptr) op->errors[i] = std::move(err);
  op->remaining = 0;
  op->done = true;
}

DiskArray::IoToken DiskArray::launch(std::shared_ptr<PendingOp> op,
                                     std::size_t width) {
  op->remaining = op->transfers.size();
  op->errors.resize(op->transfers.size());
  engine_.max_queue_depth =
      std::max<std::uint64_t>(engine_.max_queue_depth, width);
  engine_.queue_depth.record(width);
  const IoToken token = next_token_++;
  pending_.emplace(token, op);
  start(op);
  return token;
}

namespace {
std::span<std::byte> buffer_of(const ReadOp& o) { return o.dst; }
std::span<const std::byte> buffer_of(const WriteOp& o) { return o.src; }

/// The span table of `op` that ops of type Op fill.
template <class Op, class PendingOp>
auto& table_of(PendingOp& op) {
  if constexpr (std::is_same_v<Op, ReadOp>) {
    return op.dst;
  } else {
    return op.src;
  }
}
}  // namespace

template <class Op>
DiskArray::IoToken DiskArray::submit(std::span<const Op> ops, bool is_read) {
  std::vector<std::uint32_t> ids;
  ids.reserve(ops.size());
  for (const auto& op : ops) ids.push_back(op.disk);
  check_distinct(ids);
  auto op = std::make_shared<PendingOp>();
  op->is_read = is_read;
  op->transfers.reserve(ops.size());
  auto& table = table_of<Op>(*op);
  table.reserve(ops.size());
  for (const auto& o : ops) {
    op->transfers.push_back({o.disk, o.track, table.size(), 1});
    table.push_back(buffer_of(o));
    op->bytes += table.back().size();
  }
  op->blocks = ops.size();
  return launch(std::move(op), ops.size());
}

template <class Op>
DiskArray::IoToken DiskArray::submit_batch(std::span<const Op> ops,
                                           std::uint64_t cycles,
                                           bool is_read) {
  if (ops.empty()) {
    throw std::invalid_argument("DiskArray: empty batched I/O");
  }
  // Counting sort of op indices by disk, preserving op order within each
  // disk — the per-disk execution order (and therefore any per-disk
  // deterministic fault schedule) is exactly the order the caller listed
  // the ops in.  disk_fill_[d + 1] first counts disk d's ops, then the
  // prefix sums turn disk_fill_[d] into disk d's first slot.
  const std::size_t num_disks = disks_.size();
  disk_fill_.assign(num_disks + 1, 0);
  for (const Op& o : ops) {
    if (o.disk >= num_disks) {
      throw std::out_of_range("DiskArray: disk index " +
                              std::to_string(o.disk));
    }
    ++disk_fill_[o.disk + 1];
  }
  std::size_t deepest = 0;
  std::size_t width = 0;
  for (std::size_t d = 0; d < num_disks; ++d) {
    deepest = std::max(deepest, disk_fill_[d + 1]);
    if (disk_fill_[d + 1] != 0) ++width;
    disk_fill_[d + 1] += disk_fill_[d];
  }
  if (cycles < deepest) {
    throw std::invalid_argument(
        "DiskArray: batch declares " + std::to_string(cycles) +
        " cycles but some disk needs " + std::to_string(deepest) +
        " (one track per disk per parallel I/O)");
  }
  by_disk_.resize(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    by_disk_[disk_fill_[ops[i].disk]++] = i;
  }
  auto op = std::make_shared<PendingOp>();
  op->is_read = is_read;
  op->cycles = cycles;
  op->blocks = ops.size();
  auto& table = table_of<Op>(*op);
  table.reserve(ops.size());
  const Op* prev = nullptr;
  for (const std::size_t i : by_disk_) {
    const Op& o = ops[i];
    const auto buf = buffer_of(o);
    op->bytes += buf.size();
    // Extend the run while the next op on this disk targets the very next
    // track (physical adjacency is what preadv/pwritev require) with the
    // same length.
    if (options_.coalesce && prev != nullptr && prev->disk == o.disk &&
        o.track == prev->track + 1 &&
        buf.size() == table[op->transfers.back().first].size()) {
      ++op->transfers.back().tracks;
    } else {
      op->transfers.push_back({o.disk, o.track, table.size(), 1});
    }
    table.push_back(buf);
    prev = &o;
  }
  return launch(std::move(op), width);
}

void DiskArray::settle(PendingOp& op, bool swallow) {
  {
    std::unique_lock<std::mutex> lock(op.m);
    if (!op.done) {
      const std::uint64_t t0 = now_ns();
      op.cv.wait(lock, [&] { return op.done; });
      engine_.stall_ns += now_ns() - t0;
    }
  }
  std::exception_ptr first;
  for (auto& e : op.errors) {
    if (e != nullptr) {
      first = e;
      break;
    }
  }
  if (first != nullptr) {
    // Model accounting only on success: a failed operation must charge
    // nothing, or recovery paths double-count bytes for I/O that never
    // completed.
    if (!swallow) std::rethrow_exception(first);
    // Swallowed ≠ invisible: quiescence points (drain) discard the error to
    // keep rollback noexcept, but the obs snapshot must still show that a
    // recovery-path I/O failed — record every swallow and keep the first
    // error's classification.
    engine_.drain_errors += 1;
    if (engine_.last_drain_error_kind < 0) {
      try {
        std::rethrow_exception(first);
      } catch (const IoError& e) {
        engine_.last_drain_error_kind = static_cast<int>(e.kind());
        engine_.last_drain_error = e.what();
      } catch (const std::exception& e) {
        engine_.last_drain_error_kind = static_cast<int>(IoError::Kind::persistent);
        engine_.last_drain_error = e.what();
      } catch (...) {
        engine_.last_drain_error_kind = static_cast<int>(IoError::Kind::persistent);
        engine_.last_drain_error = "unknown error";
      }
    }
    return;
  }
  stats_.parallel_ios += op.cycles;
  if (op.is_read) {
    stats_.blocks_read += op.blocks;
    stats_.bytes_read += op.bytes;
  } else {
    stats_.blocks_written += op.blocks;
    stats_.bytes_written += op.bytes;
  }
}

DiskArray::IoToken DiskArray::submit_read(std::span<const ReadOp> ops) {
  return submit(ops, /*is_read=*/true);
}

DiskArray::IoToken DiskArray::submit_write(std::span<const WriteOp> ops) {
  return submit(ops, /*is_read=*/false);
}

DiskArray::IoToken DiskArray::submit_read_batch(std::span<const ReadOp> ops,
                                                std::uint64_t cycles) {
  return submit_batch(ops, cycles, /*is_read=*/true);
}

DiskArray::IoToken DiskArray::submit_write_batch(std::span<const WriteOp> ops,
                                                 std::uint64_t cycles) {
  return submit_batch(ops, cycles, /*is_read=*/false);
}

void DiskArray::parallel_read_batch(std::span<const ReadOp> ops,
                                    std::uint64_t cycles) {
  wait(submit_read_batch(ops, cycles));
}

void DiskArray::parallel_write_batch(std::span<const WriteOp> ops,
                                     std::uint64_t cycles) {
  wait(submit_write_batch(ops, cycles));
}

void DiskArray::wait(IoToken token) {
  auto it = pending_.find(token);
  if (it == pending_.end()) return;  // already settled
  auto op = std::move(it->second);
  pending_.erase(it);
  settle(*op, /*swallow=*/false);
}

void DiskArray::wait_all() {
  std::exception_ptr first;
  for (auto& [token, op] : pending_) {
    try {
      settle(*op, /*swallow=*/false);
    } catch (...) {
      if (first == nullptr) first = std::current_exception();
    }
  }
  pending_.clear();
  if (first != nullptr) std::rethrow_exception(first);
}

void DiskArray::drain() noexcept {
  for (auto& [token, op] : pending_) settle(*op, /*swallow=*/true);
  pending_.clear();
}

void DiskArray::parallel_read(std::span<const ReadOp> ops) {
  wait(submit_read(ops));
}

void DiskArray::parallel_write(std::span<const WriteOp> ops) {
  wait(submit_write(ops));
}

void DiskArray::sync() {
  wait_all();
  for (auto& d : disks_) d->flush();
}

std::uint64_t DiskArray::max_tracks_used() const {
  std::uint64_t used = 0;
  for (const auto& d : disks_) used = std::max(used, d->tracks_used());
  return used;
}

std::size_t DiskArray::register_io_buffers(
    std::span<const std::span<std::byte>> regions) {
  std::size_t accepted = 0;
  for (auto& d : disks_) {
    if (d->backend().register_buffers(regions)) ++accepted;
  }
  return accepted;
}

void DiskArray::harvest_backend_stats() {
  // Re-snapshot (assign, not accumulate) so calling at every superstep
  // boundary never double-counts.  When a decorator (FaultInjectingBackend)
  // wraps the UringBackend the dynamic_cast misses and the ring counters
  // stay zero — fault runs care about schedules, not hardware telemetry.
  UringEngineStats u{};
  for (auto& d : disks_) {
    const auto* ub = dynamic_cast<const UringBackend*>(&d->backend());
    if (ub == nullptr) continue;
    const UringBackendStats& s = ub->uring_stats();
    u.rings += 1;
    if (ub->direct_io()) u.direct_rings += 1;
    u.sqes += s.sqes;
    u.enters += s.enters;
    u.fixed_ops += s.fixed_ops;
    u.bounced_bytes += s.bounced_bytes;
    u.ring_depth.merge(s.ring_depth);
    u.completion_ns.merge(s.completion_ns);
  }
  engine_.uring = std::move(u);
}

std::unique_ptr<DiskArray> make_disk_array(
    IoEngine engine, std::size_t num_disks, std::size_t block_size,
    std::function<std::unique_ptr<Backend>(std::size_t)> make_backend,
    std::uint64_t capacity_tracks_per_disk, DiskArrayOptions options) {
  if (engine == IoEngine::parallel || engine == IoEngine::uring) {
    // The uring engine reuses the per-drive worker scheduling; what changes
    // is the backend each drive talks to (UringBackend — the simulators
    // default make_backend to make_uring_scratch_factory when the caller
    // supplied none).  Keeping one scheduler preserves per-disk FIFO order
    // and therefore byte/cost/fault parity across engines.
    return std::make_unique<ParallelDiskArray>(
        num_disks, block_size, std::move(make_backend),
        capacity_tracks_per_disk, options);
  }
  return std::make_unique<DiskArray>(num_disks, block_size,
                                     std::move(make_backend),
                                     capacity_tracks_per_disk, options);
}

}  // namespace embsp::em
