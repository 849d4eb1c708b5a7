// Algorithm 3 — ParCompoundSuperstep: simulation of a v-processor BSP* on a
// p-processor EM-BSP* machine (§5.2).
//
// Real processor i (one thread, owning a private D-disk array) simulates
// virtual processors [i*v/p, (i+1)*v/p).  A compound superstep runs in
// v/(p*k) rounds; in round j processor i simulates its j-th group of k
// virtual processors.  Batch j is the set of messages destined to the
// virtual processors simulated in round j (across all real processors).
//
//   1(a) Fetching: each processor reads its locally stored blocks of batch
//        j from its disks and forwards each block to the real processor
//        that simulates the block's destination.
//   1(b) Computing: the k virtual supersteps run in memory.
//   1(c) Writing: generated messages are packed into size-B blocks (the
//        packet granularity; the model requires b >= B) and each block is
//        sent to a *uniformly random* real processor — the two-phase
//        randomized routing that balances communication (Lemma 10); the
//        receiver writes it to its local buckets with random disk
//        placement.
//   (2)  Each processor reorganizes its received blocks with
//        SimulateRouting so every batch lies in standard consecutive
//        format on its local disks.
//
// Inter-processor "communication" is mailbox passing between threads; its
// volume is metered per superstep (h-relation accounting), which is the
// quantity Theorem 1 bounds.
#pragma once

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "bsp/direct_runtime.hpp"
#include "bsp/program.hpp"
#include "em/disk_array.hpp"
#include "sim/checkpoint.hpp"
#include "sim/context_store.hpp"
#include "sim/message_store.hpp"
#include "sim/obs_hooks.hpp"
#include "sim/seq_simulator.hpp"
#include "sim/sim_config.hpp"
#include "util/thread_pool.hpp"

namespace embsp::sim {

class ParSimulator {
 public:
  explicit ParSimulator(
      SimConfig cfg,
      std::function<std::unique_ptr<em::Backend>(std::size_t)> backend =
          nullptr);

  template <bsp::Program P>
  SimResult run(
      const P& prog,
      const std::function<typename P::State(std::uint32_t)>& make_state,
      const std::function<void(std::uint32_t, typename P::State&)>& collect);

  [[nodiscard]] const em::DiskArray& disks(std::size_t i) const {
    return *disk_arrays_[i];
  }
  [[nodiscard]] const SimConfig& config() const { return cfg_; }

 private:
  SimConfig cfg_;
  std::vector<std::unique_ptr<em::DiskArray>> disk_arrays_;
  /// Shared tally of injected faults (null when injection is disabled).
  std::shared_ptr<em::FaultCounters> fault_counters_;
};

// ---------------------------------------------------------------------------
// implementation
// ---------------------------------------------------------------------------

template <bsp::Program P>
SimResult ParSimulator::run(
    const P& prog,
    const std::function<typename P::State(std::uint32_t)>& make_state,
    const std::function<void(std::uint32_t, typename P::State&)>& collect) {
  using State = typename P::State;
  cfg_.machine.validate();
  const std::uint32_t p = cfg_.machine.p;
  const std::uint32_t v = cfg_.machine.bsp.v;
  const std::uint32_t local_v = v / p;

  // The parallel simulator consumes the plan at leaf granularity: its
  // forwarding step inspects every block's owner per round, which already
  // makes rounds leaf-sized — the legality win of a hierarchical plan —
  // while routing stays per leaf batch (super-packed blocks would mix
  // batches across owners).  The leaf equals the old flat SimLayout
  // whenever a flat schedule is feasible.
  SimLayout layout = LayoutPlanner::plan(cfg_, local_v).leaf;
  // Extra receive capacity per batch: random scattering is balanced only in
  // expectation, and per-(source, destination-owner) tail blocks add
  // fragmentation.  Overflow is detected at runtime with a clear error.
  layout.group_capacity = layout.group_capacity * 2 + 4 * p + 4;
  const auto k = static_cast<std::uint32_t>(layout.k);
  const std::uint32_t rounds = layout.num_groups;

  struct Proc {
    std::unique_ptr<em::TrackAllocators> alloc;
    std::unique_ptr<ContextStore> contexts;
    std::unique_ptr<MessageStore> messages;
    util::Rng rng{0};
    std::uint64_t rr_scatter = 0;  ///< deterministic-mode scatter cursor
    PhaseIo phase_io;
    RoutingStats routing;
    std::uint64_t comm_bytes_this_step = 0;
    std::uint64_t max_comm_bytes_step = 0;
    std::uint64_t outbox_copied = 0;  ///< take() traffic (legacy path only)
    std::uint64_t arena_peak = 0;     ///< peak arena residency
    bool want_continue = false;
  };
  std::vector<Proc> procs(p);
  {
    util::Rng master(cfg_.seed);
    for (std::uint32_t i = 0; i < p; ++i) {
      procs[i].alloc =
          std::make_unique<em::TrackAllocators>(disk_arrays_[i]->num_disks());
      procs[i].contexts = std::make_unique<ContextStore>(
          *disk_arrays_[i], *procs[i].alloc, local_v, cfg_.mu,
          /*journaled=*/cfg_.superstep_recovery);
      MessageStoreConfig mcfg;
      mcfg.num_groups = rounds;
      mcfg.group_capacity_blocks = layout.group_capacity;
      mcfg.mode = cfg_.routing;
      mcfg.max_message_bytes = cfg_.gamma;
      mcfg.memory_budget_bytes = layout.routing_mem_budget;
      procs[i].messages = std::make_unique<MessageStore>(
          *disk_arrays_[i], *procs[i].alloc, mcfg);
      procs[i].rng = master.fork(i + 1);
    }
  }

  // Mailboxes: cell (src, dst) is written only by thread src between two
  // barriers and read only by thread dst after the barrier.
  using BlockVec = std::vector<std::vector<std::byte>>;
  std::vector<std::vector<BlockVec>> forward_mail(p, std::vector<BlockVec>(p));
  std::vector<std::vector<BlockVec>> scatter_mail(p, std::vector<BlockVec>(p));

  std::barrier<> bar(static_cast<std::ptrdiff_t>(p));
  std::mutex cost_mutex;
  bsp::SuperstepCost step_cost;
  std::vector<std::uint8_t> continue_flags(p, 0);
  std::atomic<bool> failed{false};
  std::vector<std::exception_ptr> errors(p);
  SimResult result;
  result.group_size = layout.k;
  std::vector<State> final_states(v);

  // --- Coordinated recovery state (cfg_.superstep_recovery) ---------------
  // A worker that exhausts its retry budget (or fails a checksum) no longer
  // aborts the run: it raises its unit's failure flag, fast-forwards the
  // remaining barrier arrivals of the current recovery unit, and at the
  // unit's verdict barrier *all* processors roll back to the last committed
  // epoch and re-execute, bounded by cfg_.max_superstep_retries.  The
  // barrier is the commit point: context epochs commit only on a unanimous
  // verdict.  Each unit kind has its own flag: no barrier separates the
  // body's verdict from the reorganize that follows it, so a fast worker
  // may already raise the reorganize flag while a slow one still reads the
  // body verdict.
  const bool coordinated = cfg_.superstep_recovery;
  std::atomic<bool> body_failed{false};
  std::atomic<bool> reorganize_failed{false};
  std::atomic<std::uint64_t> superstep_rollbacks{0};
  std::atomic<std::uint64_t> reorganize_rollbacks{0};

  // --- Durable checkpoint/restart (see sim/checkpoint.hpp) ----------------
  const std::uint64_t config_fp = config_fingerprint(cfg_);
  std::optional<CheckpointDir> ckpt;
  bool ckpt_write = false;
  std::optional<CheckpointDir::Loaded> loaded;
  if (cfg_.checkpoint.enabled()) {
    ckpt.emplace(cfg_.checkpoint.dir);
    ckpt_write = true;
    if (cfg_.checkpoint.resume) {
      const auto m = ckpt->manifest();
      if (m.has_value() && m->run_index > cfg_.checkpoint.run_index) {
        ckpt_write = false;  // this run finished before the crash
      } else {
        loaded = ckpt->load(cfg_.checkpoint.run_index, config_fp);
      }
    }
  }
  const bool ckpt_active = ckpt.has_value() && ckpt_write;
  std::atomic<std::uint64_t> checkpoints_published{0};
  // Per-processor capture staging: each worker serializes its own record
  // (its disks are its own), proc 0 concatenates and publishes.
  std::vector<std::vector<std::byte>> ckpt_records(p);
  bool cancel_seen = false;  ///< written by proc 0 between two barriers
  std::size_t start_step = 0;
  std::uint64_t base_io_retries = 0;
  std::uint64_t base_io_giveups = 0;
  em::FaultCounts base_faults;
  if (loaded.has_value()) {
    // Resume on the main thread, before the workers exist: reinstate the
    // global bookkeeping and every processor's substrate record.
    util::Reader r(loaded->payload);
    start_step = static_cast<std::size_t>(r.read<std::uint64_t>());
    result.costs.supersteps = r.read_vector<bsp::SuperstepCost>();
    superstep_rollbacks.store(r.read<std::uint64_t>());
    reorganize_rollbacks.store(r.read<std::uint64_t>());
    base_io_retries = r.read<std::uint64_t>();
    base_io_giveups = r.read<std::uint64_t>();
    base_faults = r.read<em::FaultCounts>();
    if (r.read<std::uint32_t>() != p) {
      throw std::runtime_error("checkpoint: processor count mismatch");
    }
    for (std::uint32_t i = 0; i < p; ++i) {
      const auto rec_bytes = r.read_vector<std::byte>();
      util::Reader pr(rec_bytes);
      procs[i].rr_scatter = pr.read<std::uint64_t>();
      procs[i].max_comm_bytes_step = pr.read<std::uint64_t>();
      procs[i].outbox_copied = pr.read<std::uint64_t>();
      procs[i].arena_peak = pr.read<std::uint64_t>();
      procs[i].phase_io = pr.read<PhaseIo>();
      procs[i].routing = pr.read<RoutingStats>();
      load_proc_state(pr, *disk_arrays_[i], *procs[i].alloc,
                      *procs[i].contexts, *procs[i].messages, procs[i].rng);
      if (!pr.exhausted()) {
        throw std::runtime_error(
            "checkpoint: trailing bytes in processor record");
      }
    }
    if (!r.exhausted()) {
      throw std::runtime_error("checkpoint: trailing bytes in payload");
    }
    result.recovery.resume_epoch = loaded->epoch;
  }
  const bool resumed = loaded.has_value();

  const auto owner_of = [local_v](std::uint32_t vp) { return vp / local_v; };
  // Destination batch of a virtual processor: its round index on its owner.
  const auto batch_of = [local_v, k](std::uint32_t vp) {
    return (vp % local_v) / k;
  };

  // Cooperative abort: a thread that throws records its error, raises
  // `failed`, and drops from the barrier (which still counts as an arrival
  // for the current phase, unblocking peers).  Peers observe `failed` after
  // their next barrier and unwind the same way, so no thread is left
  // waiting on a barrier that can never complete.
  struct Aborted {};

  auto worker = [&](std::uint32_t me) {
    auto sync = [&]() {
      bar.arrive_and_wait();
      if (failed.load()) throw Aborted{};
    };
    // Pipelined double-buffered context staging.  Declared OUTSIDE the try:
    // stack unwinding must not destroy buffers that in-flight transfers
    // still reference — the catch blocks below drain the disk array first.
    ContextStore::PendingIo ctx_read[2];
    ContextStore::PendingIo ctx_write[2];
    // Unregisters kernel fixed buffers on any exit; declared after the
    // slots so it runs before their destruction (the catch blocks have
    // drained by then).
    struct RegGuard {
      em::DiskArray* d = nullptr;
      ~RegGuard() {
        if (d != nullptr) d->register_io_buffers({});
      }
    } reg_guard;
    std::unique_ptr<util::ComputePool> pool;
    try {
      auto& self = procs[me];
      auto& disks = *disk_arrays_[me];
      obs::Recorder* const rec = cfg_.recorder;
      const bool pipelined = cfg_.pipeline;
      if (pipelined) {
        self.messages->enable_write_behind(4);
        if (cfg_.compute_threads > 1) {
          pool = std::make_unique<util::ComputePool>(cfg_.compute_threads - 1);
        }
        // Kernel fixed buffers (uring engine): pre-size this worker's
        // double-buffered context staging and register it with its private
        // disk array (see SeqSimulator::run for the contract).
        const std::size_t ctx_bytes = layout.k * layout.context_slot_bytes;
        std::vector<std::span<std::byte>> regions;
        for (int s = 0; s < 2; ++s) {
          ctx_read[s].buf.resize(ctx_bytes);
          ctx_write[s].buf.resize(ctx_bytes);
          regions.push_back({ctx_read[s].buf.data(), ctx_read[s].buf.size()});
          regions.push_back(
              {ctx_write[s].buf.data(), ctx_write[s].buf.size()});
        }
        if (disks.register_io_buffers(regions) > 0) reg_guard.d = &disks;
      }

      // Settles every in-flight token of this worker's private array and
      // resets the double-buffered staging slots; required before any
      // snapshot restore (a late-landing write would corrupt the restored
      // state) and cheap when nothing is in flight.
      auto worker_quiesce = [&] {
        disks.drain();
        self.messages->abandon_inflight();
        for (int s = 0; s < 2; ++s) {
          ctx_read[s].active = false;
          ctx_read[s].tokens.clear();
          ctx_write[s].active = false;
          ctx_write[s].tokens.clear();
        }
      };

      // Initial contexts (local virtual processors i*local_v .. ).  Skipped
      // on resume: the restored context banks already hold the state of the
      // checkpointed boundary.
      if (!resumed) {
        {
          ObsPhase phase(rec, "init", disks, &self.phase_io.init, me);
          for (std::uint32_t r = 0; r < rounds; ++r) {
            const std::uint32_t first = r * k;
            const std::uint32_t count = std::min(k, local_v - first);
            // Serialize straight into the store's block-aligned staging.
            self.contexts->write(
                first, count, [&](std::uint32_t ctx, util::Writer& w) {
                  make_state(me * local_v + ctx).serialize(w);
                });
          }
        }
        // The initial contexts are the first committed epoch.
        if (self.contexts->journaled()) self.contexts->commit_epoch();
      }
      sync();

      // Buffers reused across rounds and supersteps (no per-round churn).
      std::vector<std::vector<std::byte>> payloads;
      std::vector<std::vector<bsp::Message>> inboxes;
      std::vector<bsp::Message> outgoing;
      std::vector<State> states;
      // Zero-copy path: reassembled payloads live in this arena (reset per
      // round — the previous round's compute has consumed its refs).
      const bool zero_copy = cfg_.zero_copy;
      util::Arena inbox_arena;
      std::vector<std::vector<bsp::MessageRef>> inbox_refs;
      std::vector<bsp::MessageRef> outgoing_refs;
      struct VpStats {
        bool cont = false;
        std::uint64_t work = 0;
        std::uint64_t sent_packets = 0;
        std::uint64_t sent_wire = 0;
        std::uint64_t bytes_sent = 0;
        std::uint64_t num_messages = 0;
        std::uint64_t recv_packets = 0;
        std::uint64_t recv_bytes = 0;
      };
      std::vector<VpStats> vp;
      std::vector<bsp::Outbox> outboxes;
      auto submit_ctx_read = [&](std::uint32_t r) {
        const std::uint32_t rf = r * k;
        const std::uint32_t rc = std::min(k, local_v - rf);
        self.contexts->read_submit(rf, rc, ctx_read[r & 1]);
      };
      // Barrier arrivals inside one superstep body: 3 per round (fetch,
      // scatter, receive).  A worker that fails mid-body fast-forwards the
      // arrivals it has not made yet, so every worker reaches the verdict
      // barrier with the same arrival count and nobody deadlocks.
      const std::size_t body_sync_total = 3 * static_cast<std::size_t>(rounds);
      std::size_t body_syncs = 0;
      auto body_sync = [&] {
        ++body_syncs;
        sync();
      };
      for (std::size_t step = start_step;; ++step) {
        if (step >= cfg_.max_supersteps) {
          throw std::runtime_error("ParSimulator: superstep limit exceeded");
        }

        // One superstep body: all rounds' fetch / compute / write.  Reads
        // touch only committed state (the arena written by the previous
        // reorganize, the committed context bank), so re-execution after a
        // coordinated rollback sees exactly the original inputs.
        auto run_rounds = [&] {
        body_syncs = 0;
        self.want_continue = false;
        self.comm_bytes_this_step = 0;
        if (pipelined) submit_ctx_read(0);

        for (std::uint32_t round = 0; round < rounds; ++round) {
          // --- Fetch: read local blocks of this batch, forward to owners.
          {
            ObsPhase phase(rec, "fetch_msg", disks, &self.phase_io.fetch_msg,
                           me);
            self.messages->fetch_group_blocks(
                round, [&](std::span<const std::byte> block) {
                  if (is_dummy_block(block)) return;
                  // All chunks in a block share one destination virtual
                  // processor group (they were packed per owner) — peek at
                  // the first chunk's dst to find the owner.
                  util::Reader r(block.subspan(kBlockHeaderBytes));
                  r.read<std::uint32_t>();  // src
                  const auto dst = r.read<std::uint32_t>();
                  const auto owner = owner_of(dst);
                  forward_mail[me][owner].emplace_back(block.begin(),
                                                       block.end());
                  if (owner != me) {
                    self.comm_bytes_this_step += block.size();
                  }
                });
          }
          body_sync();

          // --- Compute: reassemble inboxes, run the k virtual supersteps.
          const std::uint32_t first = round * k;
          const std::uint32_t count = std::min(k, local_v - first);
          if (zero_copy) inbox_arena.reset();
          Reassembler reasm(cfg_.gamma,
                            zero_copy ? &inbox_arena : nullptr);
          for (std::uint32_t src = 0; src < p; ++src) {
            for (auto& block : forward_mail[src][me]) {
              reasm.absorb(block, round);
            }
          }
          if (zero_copy) {
            if (inbox_refs.size() < count) inbox_refs.resize(count);
            for (std::uint32_t i = 0; i < count; ++i) inbox_refs[i].clear();
            for (const auto& m : reasm.take_refs()) {
              const std::uint32_t local = m.dst - me * local_v;
              if (owner_of(m.dst) != me || local < first ||
                  local >= first + count) {
                throw std::runtime_error(
                    "ParSimulator: block forwarded to the wrong processor");
              }
              inbox_refs[local - first].push_back(m);
            }
          } else {
            auto incoming = reasm.take();
            if (inboxes.size() < count) inboxes.resize(count);
            for (std::uint32_t i = 0; i < count; ++i) inboxes[i].clear();
            for (auto& m : incoming) {
              const std::uint32_t local = m.dst - me * local_v;
              if (owner_of(m.dst) != me || local < first ||
                  local >= first + count) {
                throw std::runtime_error(
                    "ParSimulator: block forwarded to the wrong processor");
              }
              inboxes[local - first].push_back(std::move(m));
            }
          }

          {
            ObsPhase phase(rec, pipelined ? "prefetch_ctx" : "fetch_ctx",
                           disks, &self.phase_io.fetch_ctx, me);
            if (pipelined) {
              self.contexts->read_wait(ctx_read[round & 1], payloads);
              // Read-ahead: the next round's contexts stream in while this
              // round computes.
              if (round + 1 < rounds) submit_ctx_read(round + 1);
            } else {
              self.contexts->read_into(first, count, payloads);
            }
          }

          states.clear();
          states.resize(count);
          vp.assign(count, VpStats{});
          outboxes.clear();
          for (std::uint32_t i = 0; i < count; ++i) {
            outboxes.emplace_back(me * local_v + first + i, v);
          }
          outgoing.clear();
          outgoing_refs.clear();
          bsp::SuperstepCost local_cost;
          {
            ObsPhase compute_phase(rec, "compute", disks, nullptr, me);
            // Each task touches only index-i data; costs are reduced below
            // in vproc order, so the totals match the sequential loop.
            auto task = [&](std::size_t i) {
              util::Reader r(payloads[i]);
              states[i].deserialize(r);
              bsp::Inbox in = zero_copy
                                  ? bsp::Inbox(std::move(inbox_refs[i]))
                                  : bsp::Inbox(std::move(inboxes[i]));
              bsp::WorkMeter m;
              bsp::ProcEnv env{
                  me * local_v + first + static_cast<std::uint32_t>(i), v, &m};
              VpStats& s = vp[i];
              s.cont = prog.superstep(step, env, states[i], in, outboxes[i]);
              s.work = m.total();
              for (const auto& msg : outboxes[i].messages()) {
                s.sent_packets +=
                    bsp::packets_for(msg.size_bytes(), cfg_.machine.bsp.b);
                s.sent_wire += bsp::wire_bytes(msg.size_bytes());
              }
              s.bytes_sent = outboxes[i].total_bytes();
              s.num_messages = outboxes[i].messages().size();
              for (const auto& msg : in.all()) {
                s.recv_packets +=
                    bsp::packets_for(msg.size_bytes(), cfg_.machine.bsp.b);
                s.recv_bytes += msg.size_bytes();
              }
            };
            if (pool != nullptr) {
              pool->run(count, task);
            } else {
              for (std::uint32_t i = 0; i < count; ++i) task(i);
            }
          }  // end compute span
          for (std::uint32_t i = 0; i < count; ++i) {
            const VpStats& s = vp[i];
            self.want_continue = self.want_continue || s.cont;
            local_cost.max_work = std::max(local_cost.max_work, s.work);
            local_cost.total_work += s.work;
            if (s.sent_wire > cfg_.gamma) {
              throw std::runtime_error(
                  "ParSimulator: processor exceeded the declared gamma");
            }
            local_cost.max_bytes_sent =
                std::max(local_cost.max_bytes_sent, s.bytes_sent);
            local_cost.max_packets_sent =
                std::max(local_cost.max_packets_sent, s.sent_packets);
            local_cost.max_wire_sent =
                std::max(local_cost.max_wire_sent, s.sent_wire);
            local_cost.max_bytes_received =
                std::max(local_cost.max_bytes_received, s.recv_bytes);
            local_cost.max_packets_received =
                std::max(local_cost.max_packets_received, s.recv_packets);
            local_cost.total_bytes += s.bytes_sent;
            local_cost.num_messages += s.num_messages;
            if (zero_copy) {
              // Refs stay valid through the scatter packing below: the
              // outboxes (and their arenas) outlive this round's writing.
              for (const auto& m : outboxes[i].messages()) {
                outgoing_refs.push_back(m);
              }
              self.arena_peak = std::max<std::uint64_t>(
                  self.arena_peak, outboxes[i].arena_high_water());
            } else {
              for (auto& m : outboxes[i].take()) {
                outgoing.push_back(std::move(m));
              }
              self.outbox_copied += outboxes[i].bytes_copied();
            }
          }
          self.arena_peak = std::max<std::uint64_t>(
              self.arena_peak, inbox_arena.high_water());
          {
            std::lock_guard<std::mutex> lock(cost_mutex);
            step_cost.max_work = std::max(step_cost.max_work,
                                          local_cost.max_work);
            step_cost.total_work += local_cost.total_work;
            step_cost.max_bytes_sent =
                std::max(step_cost.max_bytes_sent, local_cost.max_bytes_sent);
            step_cost.max_bytes_received = std::max(
                step_cost.max_bytes_received, local_cost.max_bytes_received);
            step_cost.max_packets_sent = std::max(
                step_cost.max_packets_sent, local_cost.max_packets_sent);
            step_cost.max_packets_received =
                std::max(step_cost.max_packets_received,
                         local_cost.max_packets_received);
            step_cost.total_bytes += local_cost.total_bytes;
            step_cost.num_messages += local_cost.num_messages;
          }

          // Write contexts back.
          {
            ObsPhase phase(rec, pipelined ? "writeback_ctx" : "write_ctx",
                           disks, &self.phase_io.write_ctx, me);
            auto emit = [&](std::uint32_t ctx, util::Writer& w) {
              states[ctx - first].serialize(w);
            };
            if (pipelined) {
              // Retire round r-2's write-backs, then submit round r's; the
              // writes overlap the following rounds' compute.
              self.contexts->write_wait(ctx_write[round & 1]);
              self.contexts->write_submit(first, count, emit,
                                          ctx_write[round & 1]);
            } else {
              self.contexts->write(first, count, emit);
            }
          }

          // --- Writing: pack per (owner, batch) and scatter randomly.
          {
            // Group messages by (owner, batch) pairs; small per round.
            std::vector<std::uint64_t> dest_keys;
            std::vector<std::pair<std::uint64_t, std::size_t>> index;
            const auto slot_of = [&](std::uint32_t dst) {
              const std::uint64_t key =
                  (static_cast<std::uint64_t>(owner_of(dst)) << 32) |
                  batch_of(dst);
              for (const auto& [kk, s] : index) {
                if (kk == key) return s;
              }
              const std::size_t slot = index.size();
              index.emplace_back(key, slot);
              dest_keys.push_back(key);
              return slot;
            };
            // Random intermediate (Lemma 10) — or round robin when the
            // routing is deterministic.
            const auto scatter_block = [&](std::span<const std::byte> block) {
              const auto target = static_cast<std::uint32_t>(
                  cfg_.routing == RoutingMode::deterministic
                      ? (me + self.rr_scatter++) % p
                      : self.rng.below(p));
              scatter_mail[me][target].emplace_back(block.begin(),
                                                    block.end());
              if (target != me) {
                self.comm_bytes_this_step += block.size();
              }
            };
            if (zero_copy) {
              std::vector<std::vector<bsp::MessageRef>> by_dest;
              for (const auto& m : outgoing_refs) {
                const std::size_t slot = slot_of(m.dst);
                if (by_dest.size() <= slot) by_dest.resize(slot + 1);
                by_dest[slot].push_back(m);
              }
              for (std::size_t s = 0; s < by_dest.size(); ++s) {
                const auto batch =
                    static_cast<std::uint32_t>(dest_keys[s] & 0xFFFFFFFFu);
                pack_blocks(std::span<const bsp::MessageRef>(by_dest[s]),
                            batch, disks.block_size(), scatter_block);
              }
            } else {
              std::vector<std::vector<const bsp::Message*>> by_dest;
              for (const auto& m : outgoing) {
                const std::size_t slot = slot_of(m.dst);
                if (by_dest.size() <= slot) by_dest.resize(slot + 1);
                by_dest[slot].push_back(&m);
              }
              for (std::size_t s = 0; s < by_dest.size(); ++s) {
                const auto batch =
                    static_cast<std::uint32_t>(dest_keys[s] & 0xFFFFFFFFu);
                pack_blocks(by_dest[s], batch, disks.block_size(),
                            scatter_block);
              }
            }
          }
          body_sync();

          // --- Receive scattered blocks, write them to local buckets.
          {
            ObsPhase phase(rec, "write_msg", disks, &self.phase_io.write_msg,
                           me);
            for (std::uint32_t src = 0; src < p; ++src) {
              for (auto& block : scatter_mail[src][me]) {
                if (zero_copy) {
                  // Adopt the mailbox buffer instead of copying it.
                  self.messages->write_block(std::move(block), self.rng);
                } else {
                  self.messages->write_block(block, self.rng);
                }
              }
              scatter_mail[src][me].clear();
              forward_mail[src][me].clear();
            }
          }
          body_sync();
        }

        if (pipelined) {
          // Drain the pipeline before reorganizing: the last two rounds'
          // context write-backs and every in-flight message write cycle.
          {
            ObsPhase phase(rec, "writeback_ctx", disks,
                           &self.phase_io.write_ctx, me);
            self.contexts->write_wait(ctx_write[rounds & 1]);
            self.contexts->write_wait(ctx_write[(rounds + 1) & 1]);
          }
          ObsPhase phase(rec, "writeback_msg", disks,
                         &self.phase_io.write_msg, me);
          self.messages->quiesce();
        }
        };  // end run_rounds

        if (!coordinated) {
          run_rounds();
        } else {
          // Coordinated recovery unit: superstep body.  Every worker takes
          // its local snapshots at the (barrier-aligned) unit entry; the
          // verdict barrier after the body is the commit point.
          for (std::size_t attempt = 0;; ++attempt) {
            const util::Rng rng_ckpt = self.rng;
            const std::uint64_t rr_ckpt = self.rr_scatter;
            const auto alloc_ckpt = self.alloc->snapshot();
            const auto msg_ckpt = self.messages->snapshot();
            std::exception_ptr unit_error;
            try {
              run_rounds();
            } catch (const Aborted&) {
              throw;
            } catch (const em::IoError&) {
              // Primary failure: a transfer exhausted its retry budget (or
              // a checksum failed).  Flag the step, quiesce, and make the
              // remaining barrier arrivals of the body without doing work.
              unit_error = std::current_exception();
              body_failed.store(true);
              worker_quiesce();
              for (; body_syncs < body_sync_total; ++body_syncs) sync();
            } catch (...) {
              // Secondary failure: another worker's flagged failure starved
              // this one of mail mid-body (e.g. an incomplete reassembly).
              // Only tolerable when the step is already marked failed.
              if (!body_failed.load()) throw;
              worker_quiesce();
              for (; body_syncs < body_sync_total; ++body_syncs) sync();
            }
            sync();  // verdict barrier — the elected commit point
            if (!body_failed.load()) {
              if (self.contexts->journaled()) self.contexts->commit_epoch();
              break;
            }
            // Unanimous rollback to the last committed epoch: quiesce
            // in-flight tokens, drop this attempt's mail, restore the
            // unit-entry snapshots, abandon uncommitted context writes.
            worker_quiesce();
            for (std::uint32_t j = 0; j < p; ++j) {
              forward_mail[me][j].clear();
              scatter_mail[me][j].clear();
            }
            self.rng = rng_ckpt;
            self.rr_scatter = rr_ckpt;
            self.alloc->restore(alloc_ckpt);
            self.messages->restore(msg_ckpt);
            self.contexts->discard_epoch();
            if (attempt >= cfg_.max_superstep_retries) {
              // Budget exhausted (every worker sees the same attempt count):
              // the primary failer propagates its original error through the
              // cooperative abort path, peers fold quietly.
              if (unit_error != nullptr) std::rethrow_exception(unit_error);
              throw Aborted{};
            }
            sync();
            if (me == 0) {
              body_failed.store(false);
              {
                std::lock_guard<std::mutex> lock(cost_mutex);
                step_cost = bsp::SuperstepCost{};
              }
              superstep_rollbacks.fetch_add(1);
              record_rollback(rec, "superstep", me);
            }
            sync();  // retry starts only after the flags are reset
          }
        }

        // --- Step 2: local SimulateRouting.  Its own recovery unit: it
        // drains the bucket chains destructively and overwrites the arena
        // (this superstep's input), so its rollback snapshot is taken at
        // its entry — after the body committed.
        RoutingStats attempt_routing;
        auto reorganize_once = [&] {
          attempt_routing = RoutingStats{};
          ObsPhase phase(rec, "reorganize", disks, &self.phase_io.reorganize,
                         me);
          self.messages->flush(self.rng);
          attempt_routing += self.messages->reorganize(self.rng);
        };
        if (!coordinated) {
          reorganize_once();
        } else {
          for (std::size_t attempt = 0;; ++attempt) {
            const util::Rng rng_ckpt = self.rng;
            const auto alloc_ckpt = self.alloc->snapshot();
            const auto msg_ckpt = self.messages->snapshot();
            std::exception_ptr unit_error;
            try {
              reorganize_once();
            } catch (const Aborted&) {
              throw;
            } catch (const em::IoError&) {
              unit_error = std::current_exception();
              reorganize_failed.store(true);
              worker_quiesce();
            } catch (...) {
              if (!reorganize_failed.load()) throw;
              worker_quiesce();
            }
            sync();  // verdict barrier
            if (!reorganize_failed.load()) break;
            worker_quiesce();
            self.rng = rng_ckpt;
            self.alloc->restore(alloc_ckpt);
            self.messages->restore(msg_ckpt);
            if (attempt >= cfg_.max_superstep_retries) {
              if (unit_error != nullptr) std::rethrow_exception(unit_error);
              throw Aborted{};
            }
            sync();
            if (me == 0) {
              reorganize_failed.store(false);
              reorganize_rollbacks.fetch_add(1);
              record_rollback(rec, "reorganize", me);
            }
            sync();
          }
        }
        self.routing += attempt_routing;
        self.max_comm_bytes_step =
            std::max(self.max_comm_bytes_step, self.comm_bytes_this_step);
        continue_flags[me] = self.want_continue ? 1 : 0;
        sync();

        bool any = false;
        for (std::uint32_t i = 0; i < p; ++i) any = any || continue_flags[i];
        if (me == 0) {
          {
            std::lock_guard<std::mutex> lock(cost_mutex);
            result.costs.supersteps.push_back(step_cost);
            step_cost = bsp::SuperstepCost{};
          }
          // One worker samples the cancel flag so every worker takes the
          // same branch below (a per-worker read could disagree mid-flip
          // and desynchronize the barrier schedule).
          cancel_seen = cfg_.cancel != nullptr &&
                        cfg_.cancel->load(std::memory_order_relaxed);
        }
        sync();

        // --- Superstep boundary: durability point (§5.1). ---------------
        const bool do_ckpt =
            ckpt_active && any &&
            (cancel_seen || (step + 1) % cfg_.checkpoint.every == 0);
        if (do_ckpt) {
          // Capture is parallel — each worker serializes its own disks into
          // its staging record (off-model: no IoStats, no fault draws) —
          // publication is proc 0's.
          util::Writer w;
          w.write<std::uint64_t>(self.rr_scatter);
          w.write<std::uint64_t>(self.max_comm_bytes_step);
          w.write<std::uint64_t>(self.outbox_copied);
          w.write<std::uint64_t>(self.arena_peak);
          w.write<PhaseIo>(self.phase_io);
          w.write<RoutingStats>(self.routing);
          save_proc_state(w, disks, *self.alloc, *self.contexts,
                          *self.messages, self.rng);
          ckpt_records[me] = w.take();
          sync();
          if (me == 0) {
            const auto t0 = std::chrono::steady_clock::now();
            util::Writer g;
            g.write<std::uint64_t>(step + 1);
            g.write_vector(result.costs.supersteps);
            g.write<std::uint64_t>(superstep_rollbacks.load());
            g.write<std::uint64_t>(reorganize_rollbacks.load());
            std::uint64_t retries = base_io_retries;
            std::uint64_t giveups = base_io_giveups;
            for (std::uint32_t i = 0; i < p; ++i) {
              retries += disk_arrays_[i]->engine_stats().total_retries();
              giveups += disk_arrays_[i]->engine_stats().total_giveups();
            }
            g.write<std::uint64_t>(retries);
            g.write<std::uint64_t>(giveups);
            em::FaultCounts fc = base_faults;
            if (fault_counters_ != nullptr) {
              fc += em::snapshot(*fault_counters_);
            }
            g.write<em::FaultCounts>(fc);
            g.write<std::uint32_t>(p);
            for (std::uint32_t i = 0; i < p; ++i) {
              g.write_vector(ckpt_records[i]);
            }
            const auto payload = g.take();
            ckpt->publish(cfg_.checkpoint.run_index, step + 1, payload,
                          config_fp);
            record_checkpoint(
                rec, checkpoints_published.fetch_add(1) + 1, payload.size(),
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count()));
          }
          sync();
        }
        if (cancel_seen && any) {
          throw CanceledError(
              "ParSimulator: canceled at superstep boundary " +
              std::to_string(step + 1));
        }
        if (!any) break;
      }

      // Collect local results.
      {
        ObsPhase phase(rec, "collect", disks, &self.phase_io.collect, me);
        for (std::uint32_t r = 0; r < rounds; ++r) {
          const std::uint32_t first = r * k;
          const std::uint32_t count = std::min(k, local_v - first);
          self.contexts->read_into(first, count, payloads);
          for (std::uint32_t i = 0; i < count; ++i) {
            util::Reader rd(payloads[i]);
            final_states[me * local_v + first + i].deserialize(rd);
          }
        }
      }
      // Flush barrier for this processor's private disk array (see
      // SeqSimulator::run).
      disks.sync();
    } catch (const Aborted&) {
      // Quiesce unconditionally (not just under cfg_.pipeline): tokens can
      // be in flight whenever the throw unwinds past a submitted-but-not-
      // settled operation, and a drained array is a no-op to drain.  The
      // staging buffers the tokens target live in this frame — unwinding
      // with transfers in flight would be a use-after-free.
      disk_arrays_[me]->drain();
      procs[me].messages->abandon_inflight();
      bar.arrive_and_drop();
    } catch (...) {
      errors[me] = std::current_exception();
      failed.store(true);
      disk_arrays_[me]->drain();
      procs[me].messages->abandon_inflight();
      bar.arrive_and_drop();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(p);
  for (std::uint32_t i = 0; i < p; ++i) threads.emplace_back(worker, i);
  for (auto& t : threads) t.join();

  // Aggregate and export BEFORE checking for errors: when a worker aborted
  // (retry giveup past the recovery budget, cancellation, a model-violation
  // throw), the registry still receives everything the run accumulated, so
  // the caller's metrics/trace flush makes the failed run diagnosable.
  // Aggregate: total_io is the max over processors (the model's t_IO is a
  // max), per_proc_io keeps the full picture.
  result.recovery.io_retries = base_io_retries;
  result.recovery.io_giveups = base_io_giveups;
  for (std::uint32_t i = 0; i < p; ++i) {
    disk_arrays_[i]->harvest_backend_stats();  // ring counters → engine stats
    result.per_proc_io.push_back(disk_arrays_[i]->stats());
    if (disk_arrays_[i]->stats().parallel_ios >= result.total_io.parallel_ios) {
      result.total_io = disk_arrays_[i]->stats();
    }
    // Compute/I/O overlap, worst (least overlapped) processor.
    const auto& eng = disk_arrays_[i]->engine_stats();
    if (const std::uint64_t busy = eng.max_busy_ns(); busy > 0) {
      const double r =
          1.0 - static_cast<double>(eng.stall_ns) / static_cast<double>(busy);
      const double clamped = std::clamp(r, 0.0, 1.0);
      result.overlap_ratio =
          i == 0 ? clamped : std::min(result.overlap_ratio, clamped);
    }
    result.routing_stats += procs[i].routing;
    result.real_comm_bytes =
        std::max(result.real_comm_bytes, procs[i].max_comm_bytes_step);
    result.max_tracks_per_disk = std::max(
        result.max_tracks_per_disk, disk_arrays_[i]->max_tracks_used());
    result.recovery.io_retries +=
        disk_arrays_[i]->engine_stats().total_retries();
    result.recovery.io_giveups +=
        disk_arrays_[i]->engine_stats().total_giveups();
  }
  result.recovery.superstep_rollbacks = superstep_rollbacks.load();
  result.recovery.reorganize_rollbacks = reorganize_rollbacks.load();
  result.recovery.checkpoints = checkpoints_published.load();
  result.recovery.faults = base_faults;
  if (fault_counters_ != nullptr) {
    result.recovery.faults += em::snapshot(*fault_counters_);
  }
  result.phase_io = procs[0].phase_io;
  if (cfg_.recorder != nullptr) {
    auto& reg = cfg_.recorder->registry;
    for (std::uint32_t i = 0; i < p; ++i) {
      em::export_metrics(disk_arrays_[i]->engine_stats(), reg,
                         "proc." + std::to_string(i) + ".engine.");
    }
    export_routing_stats(reg, result.routing_stats);
    export_recovery_stats(reg, result.recovery);
    reg.add("sim.supersteps", result.costs.num_supersteps());
    reg.set_gauge("sim.group_size", static_cast<double>(result.group_size));
    reg.set_gauge("sim.max_tracks_per_disk",
                  static_cast<double>(result.max_tracks_per_disk));
    reg.set_gauge("sim.real_comm_bytes",
                  static_cast<double>(result.real_comm_bytes));
    reg.set_gauge("sim.overlap_ratio", result.overlap_ratio);
    // Copy discipline: staging/mailbox bytes that crossed a memcpy and the
    // worst per-processor peak arena residency.
    std::uint64_t copied = 0;
    std::uint64_t arena_peak = 0;
    bool mem_routing = true;
    for (std::uint32_t i = 0; i < p; ++i) {
      copied += procs[i].messages->bytes_copied() + procs[i].outbox_copied;
      arena_peak = std::max(arena_peak, procs[i].arena_peak);
      mem_routing = mem_routing && procs[i].messages->in_memory_routing();
    }
    reg.add("sim.bytes_copied", copied);
    reg.set_gauge("sim.arena_bytes", static_cast<double>(arena_peak));
    reg.set_gauge("sim.in_memory_routing", mem_routing ? 1.0 : 0.0);
  }

  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (std::uint32_t vp = 0; vp < v; ++vp) collect(vp, final_states[vp]);
  return result;
}

}  // namespace embsp::sim
