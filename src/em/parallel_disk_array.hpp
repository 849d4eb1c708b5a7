// Concurrent I/O engine: a DiskArray whose parallel I/O operations really
// overlap on the hardware.
//
// The EM-BSP cost model (§3) charges one G for a parallel I/O that moves up
// to D blocks, one track per disk — the whole point being that D transfers
// take the time of one.  The serial DiskArray meters that cost exactly but
// executes the D transfers back-to-back on the issuing thread, so on a file
// backend the simulator never sees real disk parallelism.  This engine
// keeps one persistent worker thread per drive, each with a FIFO task
// queue: submit_read/submit_write enqueue one task per transfer — all of an
// operation's transfers for one drive in one critical section — and return
// immediately; wait() joins the operation.  The blocking calls therefore
// complete in ~max (not sum) of the per-disk transfer times, and the
// pipelined simulator can keep several operations in flight while it
// computes.
//
// Queue depth: a worker whose backend batches natively
// (Backend::batch_capacity() > 1, i.e. UringBackend) takes a *wave* off the
// front of its queue — every queued transfer up to the first one that
// changes direction, overlaps the track range of a transfer already in the
// wave, or would take the wave past the capacity — and hands it to the
// drive as one call (DiskArray::run_wave), so the transfers the simulator
// already has in flight reach the device together.  Any other backend
// (memory, file, fault-injecting) gets one call per transfer.
//
// Threading model / ordering guarantees (see DESIGN.md §"I/O engine"):
//  * one worker per drive — a drive executes its tasks in submission order
//    (FIFO): a wave holds only same-direction transfers with pairwise
//    disjoint track ranges, so completing them in any order is
//    indistinguishable from completing them one by one, and two transfers
//    to the same track (a single parallel I/O touches each drive at most
//    once — model invariant — but distinct in-flight operations may) land
//    in separate waves, in submission order;
//  * higher layers only submit overlapping-range operations when the
//    earlier one must land first (e.g. a context write of group g before a
//    later superstep's read of the same slot), which the per-drive FIFO
//    honors — and the simulators additionally quiesce at superstep
//    boundaries;
//  * the per-drive FIFO also fixes the per-disk *call sequence*: a
//    deterministic fault schedule keyed on (seed, disk, per-disk call
//    count) fires on the same transfers whether operations were submitted
//    eagerly (pipelined) or one at a time (serial schedule) — the
//    FaultInjectingBackend does not batch, so waves never form under it;
//  * wait() blocks until every transfer of the operation has settled;
//    PendingOp::complete publishes the workers' effects (data, per-disk
//    stats, Disk counters) to the issuing thread, so reading stats after a
//    wait_all()/drain() is race-free;
//  * a transfer that throws (capacity violation, backend error) is captured
//    per transfer index and the lowest-index error is rethrown at wait(),
//    after the whole operation has settled, leaving the array usable;
//  * sync() waits out every token and flushes every backend to its medium.
//
// IoEngine::uring reuses this scheduler: each drive's worker is the single
// issuer of its UringBackend's ring (uring_backend.hpp), so the
// kernel-native engine inherits every ordering and parity guarantee above —
// what changes is how transfers reach the device (one SQE wave per queued
// wave instead of one blocking p{read,write}v each).
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "em/disk_array.hpp"

namespace embsp::em {

class ParallelDiskArray final : public DiskArray {
 public:
  ParallelDiskArray(std::size_t num_disks, std::size_t block_size,
                    std::function<std::unique_ptr<Backend>(std::size_t)>
                        make_backend = nullptr,
                    std::uint64_t capacity_tracks_per_disk = 0,
                    DiskArrayOptions options = {});
  ~ParallelDiskArray() override;

 protected:
  void start(const std::shared_ptr<PendingOp>& op) override;

 private:
  struct Worker {
    std::mutex m;
    std::condition_variable cv;
    std::deque<Task> queue;  ///< guarded by m; FIFO per drive
    bool stop = false;       ///< guarded by m
    std::thread thread;
  };

  void worker_loop(std::size_t disk);

  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace embsp::em
