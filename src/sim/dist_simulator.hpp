// Algorithm 3 — ParCompoundSuperstep (§5.2): one rank of the p-processor
// EM-BSP* simulation of a v-processor BSP* program.
//
// This is the repo's only Algorithm 3 loop.  Each rank owns a private
// D-disk array and shares nothing with its peers but the messages it
// exchanges through a net::Transport — separate processes over sockets
// (`--transport socket`), or threads of one process over the loopback group
// (ParSimulator, `--transport loopback`).  Rank i simulates virtual
// processors [i*v/p, (i+1)*v/p); a compound superstep runs in v/(p*k)
// rounds, and batch j is the set of messages destined to the virtual
// processors simulated in round j (across all ranks):
//
//   round j:  1(a) fetch the local blocks of batch j   → exchange #1
//                  forwards each to the rank owning its destination,
//             1(b) compute the k virtual supersteps in memory,
//             1(c) pack the generated messages per (owner, batch) into
//                  size-B blocks (the packet granularity; the model
//                  requires b >= B) and scatter each to a uniformly random
//                  rank — the two-phase randomized routing of Lemma 10 →
//                  exchange #2; the receiver writes them to its local
//                  buckets with random disk placement.
//   step 2:   local SimulateRouting (Algorithm 2) reorganizes the received
//             blocks so every batch lies in standard consecutive format.
//   boundary: exchange #3 — an all-to-all control record (per-rank cost
//             contribution, continue flag, rank 0's cancel sample, the
//             reorganize status); every rank applies the same commutative
//             reduction, so all ranks append the same SuperstepCost and
//             take the same branch.
//
// Determinism: final states, SuperstepCosts, IoStats and fault-schedule
// call indices are identical over every transport (tests/test_net.cpp),
// because
//   * the per-rank RNG replays the master fork loop (fork advances the
//     master, so all p forks are drawn in rank order),
//   * blocks are absorbed and written in source-rank order 0..p-1,
//   * disk arrays use machine-wide drive indices (rank*D + d), keying the
//     deterministic fault schedule,
//   * cost reduction uses max/+ merges, which are commutative.
//
// Pipelined execution (cfg.pipeline): each rank runs the double-buffered
// group schedule against its private disks — context prefetch for round
// r+1 and write-behind for round r-1 ride under round r's compute, message
// writes ride a bounded write-behind window — and the transport is driven
// incrementally: blocks are post()ed as they materialize and
// Transport::progress() is pumped from the fetch, compute and scatter
// phases, so wire traffic drains while the rank is still computing or
// waiting on its disks.  Overlap changes only timing, never content.
//
// Coordinated rollback (cfg.superstep_recovery): the superstep body and the
// reorganize are recovery units.  A rank whose unit fails (a transfer gave
// up, or a peer's failure starved it of mail) quiesces and keeps making
// the unit's remaining exchanges, posting nothing, so every rank reaches
// the verdict in step: a one-byte verdict record after the body, and a
// status field of the boundary control record for the reorganize.  The
// verdict is unanimous — commit, roll every rank back to the unit-entry
// snapshots and the last committed context epoch, or (past
// cfg.max_superstep_retries, or without an I/O failure to blame) fail the
// run with the root cause.  A net::NetError is never a unit failure: the
// transport itself is gone, and the run aborts.
//
// Durable checkpoints (cfg.checkpoint): only rank 0 touches the checkpoint
// directory.  At a due boundary every rank posts its record (tallies plus
// substrate, sim/checkpoint.hpp) to rank 0, which publishes the epoch; on
// resume rank 0 loads it and hands every rank the run-wide header and that
// rank's own record.
//
// Failures that cannot be recovered abort the run with a typed error,
// broadcast to peers via Transport::abort.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>

#include "bsp/direct_runtime.hpp"
#include "bsp/program.hpp"
#include "em/disk_array.hpp"
#include "net/transport.hpp"
#include "sim/checkpoint.hpp"
#include "sim/context_store.hpp"
#include "sim/message_store.hpp"
#include "sim/obs_hooks.hpp"
#include "sim/seq_simulator.hpp"
#include "sim/sim_config.hpp"
#include "util/thread_pool.hpp"

namespace embsp::sim {

class DistSimulator {
 public:
  /// `transport` must outlive the simulator; its size() must equal
  /// cfg.machine.p and its rank() selects which processor this instance
  /// simulates.
  DistSimulator(SimConfig cfg, net::Transport& transport,
                std::function<std::unique_ptr<em::Backend>(std::size_t)>
                    backend = nullptr);

  template <bsp::Program P>
  SimResult run(
      const P& prog,
      const std::function<typename P::State(std::uint32_t)>& make_state,
      const std::function<void(std::uint32_t, typename P::State&)>& collect);

  [[nodiscard]] const em::DiskArray& disks() const { return *disks_; }
  [[nodiscard]] const SimConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint32_t rank() const { return tp_->rank(); }

 private:
  friend class ParSimulator;

  /// The field set of the cross-rank cost reduction.  max_wire_* stay zero
  /// in the reduced record; folding them in would move every p > 1 digest.
  static void merge_cost(bsp::SuperstepCost& into,
                         const bsp::SuperstepCost& c) {
    into.max_work = std::max(into.max_work, c.max_work);
    into.total_work += c.total_work;
    into.max_bytes_sent = std::max(into.max_bytes_sent, c.max_bytes_sent);
    into.max_bytes_received =
        std::max(into.max_bytes_received, c.max_bytes_received);
    into.max_packets_sent =
        std::max(into.max_packets_sent, c.max_packets_sent);
    into.max_packets_received =
        std::max(into.max_packets_received, c.max_packets_received);
    into.total_bytes += c.total_bytes;
    into.num_messages += c.num_messages;
  }

  /// How one attempt of a recovery unit ended on one rank.
  enum class UnitStatus : std::uint8_t {
    ok,
    io_failed,  ///< an em::IoError: a transfer exhausted its retry budget
    failed,     ///< anything else, e.g. mail starved by a peer's failure
  };

  SimConfig cfg_;
  net::Transport* tp_;
  std::unique_ptr<em::DiskArray> disks_;
  std::shared_ptr<em::FaultCounters> fault_counters_;
  /// Set by ParSimulator, whose ranks share one process and one caller:
  /// final states gather to rank 0 alone, and the loopback transport's
  /// counters stay out of the shared registry.
  bool in_process_ = false;
};

// ---------------------------------------------------------------------------
// implementation
// ---------------------------------------------------------------------------

template <bsp::Program P>
SimResult DistSimulator::run(
    const P& prog,
    const std::function<typename P::State(std::uint32_t)>& make_state,
    const std::function<void(std::uint32_t, typename P::State&)>& collect) {
  using State = typename P::State;
  cfg_.machine.validate();
  const std::uint32_t p = cfg_.machine.p;
  const std::uint32_t v = cfg_.machine.bsp.v;
  const std::uint32_t local_v = v / p;
  const std::uint32_t me = tp_->rank();
  const bool coordinated = cfg_.superstep_recovery;

  // Leaf-granular plan consumption: forwarding inspects every block's owner
  // per round, which already makes rounds leaf-sized — the legality win of
  // a hierarchical plan — while routing stays per leaf batch (super-packed
  // blocks would mix batches across owners).  The leaf equals the flat
  // SimLayout whenever a flat schedule is feasible.
  SimLayout layout = LayoutPlanner::plan(cfg_, local_v).leaf;
  // Extra receive capacity per batch: random scattering is balanced only in
  // expectation, and per-(source, destination-owner) tail blocks add
  // fragmentation.  Overflow is detected at runtime with a clear error.
  layout.group_capacity = layout.group_capacity * 2 + 4 * p + 4;
  const auto k = static_cast<std::uint32_t>(layout.k);
  const std::uint32_t rounds = layout.num_groups;

  em::TrackAllocators alloc(disks_->num_disks());
  ContextStore contexts(*disks_, alloc, local_v, cfg_.mu,
                        /*journaled=*/coordinated);
  MessageStoreConfig mcfg;
  mcfg.num_groups = rounds;
  mcfg.group_capacity_blocks = layout.group_capacity;
  mcfg.mode = cfg_.routing;
  mcfg.max_message_bytes = cfg_.gamma;
  mcfg.memory_budget_bytes = layout.routing_mem_budget;
  MessageStore messages(*disks_, alloc, mcfg);
  // Per-rank RNG: fork() advances the master, so every rank draws all p
  // forks in order and keeps its own.
  util::Rng rng(0);
  {
    util::Rng master(cfg_.seed);
    for (std::uint32_t i = 0; i < p; ++i) {
      util::Rng f = master.fork(i + 1);
      if (i == me) rng = f;
    }
  }
  // This rank's running tallies: a checkpoint record carries them next to
  // the substrate, and the end-of-run allgather merges them.  The retry,
  // giveup and fault counts are those a resumed run inherited; the live
  // engine and fault counters add on top (see live_tally).
  struct Tally {
    std::uint64_t rr_scatter = 0;  ///< deterministic-mode scatter cursor
    std::uint64_t max_comm_bytes_step = 0;
    std::uint64_t outbox_copied = 0;  ///< take() traffic (legacy path only)
    std::uint64_t arena_peak = 0;     ///< peak arena residency
    PhaseIo phase_io;
    RoutingStats routing;
    std::uint64_t io_retries = 0;
    std::uint64_t io_giveups = 0;
    em::FaultCounts faults;
  } tally;
  const auto live_tally = [&] {
    Tally t = tally;
    t.io_retries += disks_->engine_stats().total_retries();
    t.io_giveups += disks_->engine_stats().total_giveups();
    if (fault_counters_ != nullptr) t.faults += em::snapshot(*fault_counters_);
    return t;
  };

  SimResult result;
  result.group_size = layout.k;
  // Every rank's serialized final states (ParSimulator's ranks > 0 get
  // none).
  std::vector<std::vector<net::Blob>> gathered;

  const auto owner_of = [local_v](std::uint32_t vp) { return vp / local_v; };
  // Destination batch of a virtual processor: its round index on its owner.
  const auto batch_of = [local_v, k](std::uint32_t vp) {
    return (vp % local_v) / k;
  };

  obs::Recorder* const rec = cfg_.recorder;
  auto& disks = *disks_;
  // Pipelined double-buffered context staging.  Declared OUTSIDE the try:
  // stack unwinding must not destroy buffers that in-flight transfers
  // still reference — the catch blocks below drain the disk array first.
  ContextStore::PendingIo ctx_read[2];
  ContextStore::PendingIo ctx_write[2];
  // Unregisters kernel fixed buffers on any exit; declared after the slots
  // so it runs before their destruction (the catch blocks have drained by
  // then).
  struct RegGuard {
    em::DiskArray* d = nullptr;
    ~RegGuard() {
      if (d != nullptr) d->register_io_buffers({});
    }
  } reg_guard;
  // Settles every in-flight token and resets the staging slots: required
  // before unwinding past the slots and before any rollback restore (a
  // late-landing write would corrupt the restored state); cheap when
  // nothing is in flight.
  const auto quiesce = [&] {
    disks.drain();
    messages.abandon_inflight();
    for (int s = 0; s < 2; ++s) {
      ctx_read[s].active = false;
      ctx_read[s].tokens.clear();
      ctx_write[s].active = false;
      ctx_write[s].tokens.clear();
    }
  };
  // The failure path: quiesce before unwinding past the staging buffers,
  // then poison the mesh so peers fail fast instead of timing out.  A
  // failed run never reaches the end-of-run allgather, so each rank
  // flushes what it alone knows — its engine counters and its additive
  // share of the recovery counters, which a registry shared by in-process
  // ranks sums to the run-wide totals.
  const auto fail = [&](const char* reason) {
    quiesce();
    tp_->abort(reason);
    if (rec == nullptr) return;
    disks.harvest_backend_stats();
    em::export_metrics(disks.engine_stats(), rec->registry,
                       "proc." + std::to_string(me) + ".engine.");
    const Tally t = live_tally();
    RecoveryStats share;
    share.io_retries = t.io_retries;
    share.io_giveups = t.io_giveups;
    share.faults = t.faults;
    export_io_recovery_stats(rec->registry, share);
  };
  std::unique_ptr<util::ComputePool> pool;
  const bool pipelined = cfg_.pipeline;
  try {
    if (pipelined) {
      messages.enable_write_behind(4);
      if (cfg_.compute_threads > 1) {
        pool = std::make_unique<util::ComputePool>(cfg_.compute_threads - 1);
      }
      // Kernel fixed buffers (uring engine): pre-size the double-buffered
      // context staging and register it with this rank's private disk
      // array (see SeqSimulator::run for the contract).
      const std::size_t ctx_bytes = layout.k * layout.context_slot_bytes;
      std::vector<std::span<std::byte>> regions;
      for (int s = 0; s < 2; ++s) {
        ctx_read[s].buf.resize(ctx_bytes);
        ctx_write[s].buf.resize(ctx_bytes);
        regions.push_back({ctx_read[s].buf.data(), ctx_read[s].buf.size()});
        regions.push_back({ctx_write[s].buf.data(), ctx_write[s].buf.size()});
      }
      if (disks.register_io_buffers(regions) > 0) reg_guard.d = &disks;
    }

    // --- Checkpoint handoff.  Rank 0 decides whether this run publishes (a
    // run that finished before the crash re-executes without touching the
    // later run's checkpoint), loads the resumable state, and hands every
    // rank the run-wide header plus that rank's own record.
    const std::uint64_t config_fp = config_fingerprint(cfg_);
    std::optional<CheckpointDir> ckpt;  // rank 0's
    bool ckpt_active = false;
    bool resumed = false;
    std::size_t start_step = 0;
    if (cfg_.checkpoint.enabled()) {
      if (me == 0) {
        ckpt.emplace(cfg_.checkpoint.dir);
        bool publishes = true;
        std::optional<CheckpointDir::Loaded> loaded;
        if (cfg_.checkpoint.resume) {
          const auto m = ckpt->manifest();
          if (m.has_value() && m->run_index > cfg_.checkpoint.run_index) {
            publishes = false;
          } else {
            loaded = ckpt->load(cfg_.checkpoint.run_index, config_fp);
          }
        }
        util::Writer head;
        head.write<std::uint8_t>(publishes ? 1 : 0);
        head.write<std::uint8_t>(loaded.has_value() ? 1 : 0);
        if (!loaded.has_value()) {
          for (std::uint32_t q = 0; q < p; ++q) tp_->post(q, head.bytes());
        } else {
          util::Reader r(loaded->payload);
          head.write<std::uint64_t>(loaded->epoch);
          const auto header = r.read_bytes(r.read<std::uint64_t>());
          head.write<std::uint64_t>(header.size());
          head.write_bytes(header);
          if (r.read<std::uint32_t>() != p) {
            throw std::runtime_error("checkpoint: processor count mismatch");
          }
          for (std::uint32_t q = 0; q < p; ++q) {
            const std::span<const std::byte> frags[2] = {
                head.bytes(), r.read_bytes(r.read<std::uint64_t>())};
            tp_->post(q, frags);
          }
          if (!r.exhausted()) {
            throw std::runtime_error("checkpoint: trailing bytes in payload");
          }
        }
      }
      const auto handoff = tp_->exchange();
      if (handoff[0].size() != 1) {
        throw net::PeerFailedError(
            "DistSimulator: malformed checkpoint handoff from rank 0");
      }
      util::Reader r(handoff[0][0]);
      ckpt_active = r.read<std::uint8_t>() != 0;
      resumed = r.read<std::uint8_t>() != 0;
      if (resumed) {
        result.recovery.resume_epoch = r.read<std::uint64_t>();
        util::Reader h(r.read_bytes(r.read<std::uint64_t>()));
        start_step = static_cast<std::size_t>(h.read<std::uint64_t>());
        result.costs.supersteps = h.read_vector<bsp::SuperstepCost>();
        result.recovery.superstep_rollbacks = h.read<std::uint64_t>();
        result.recovery.reorganize_rollbacks = h.read<std::uint64_t>();
        tally = r.read<Tally>();
        load_proc_state(r, disks, alloc, contexts, messages, rng);
        if (!h.exhausted() || !r.exhausted()) {
          throw std::runtime_error(
              "checkpoint: trailing bytes in processor record");
        }
      }
    }
    // At a due boundary: every rank serializes its own disks (off-model:
    // no IoStats, no fault draws) and posts the record to rank 0, which
    // publishes the epoch.
    const auto publish_checkpoint = [&](std::uint64_t next_step) {
      {
        util::Writer w;
        w.write<Tally>(live_tally());
        save_proc_state(w, disks, alloc, contexts, messages, rng);
        tp_->post(0, w.bytes());
      }
      const auto records = tp_->exchange();
      ++result.recovery.checkpoints;
      if (me != 0) return;
      const auto t0 = std::chrono::steady_clock::now();
      util::Writer header;
      header.write<std::uint64_t>(next_step);
      header.write_vector(result.costs.supersteps);
      header.write<std::uint64_t>(result.recovery.superstep_rollbacks);
      header.write<std::uint64_t>(result.recovery.reorganize_rollbacks);
      util::Writer g;
      g.write_vector(header.bytes());
      g.write<std::uint32_t>(p);
      for (std::uint32_t src = 0; src < p; ++src) {
        if (records[src].size() != 1) {
          throw net::PeerFailedError(
              "DistSimulator: malformed checkpoint record from rank " +
              std::to_string(src));
        }
        g.write_vector(records[src][0]);
      }
      ckpt->publish(cfg_.checkpoint.run_index, next_step, g.bytes(),
                    config_fp);
      record_checkpoint(
          rec, result.recovery.checkpoints, g.size(),
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count()));
    };

    // Initial contexts for this rank's virtual processors.  Skipped on
    // resume: the restored context banks already hold the checkpointed
    // boundary's state.
    if (!resumed) {
      {
        ObsPhase phase(rec, "init", disks, &tally.phase_io.init, me);
        for (std::uint32_t r = 0; r < rounds; ++r) {
          const std::uint32_t first = r * k;
          const std::uint32_t count = std::min(k, local_v - first);
          contexts.write(first, count, [&](std::uint32_t ctx, util::Writer& w) {
            make_state(me * local_v + ctx).serialize(w);
          });
        }
      }
      // The initial contexts are the first committed epoch.
      if (contexts.journaled()) contexts.commit_epoch();
    }
    // Startup alignment: validates the mesh before the first superstep and
    // keeps slow-starting peers from eating into round deadlines.
    (void)tp_->exchange();

    // --- Coordinated recovery units ------------------------------------
    struct Attempt {
      UnitStatus status = UnitStatus::ok;
      std::exception_ptr error;
    };
    // Runs one attempt of a unit.  Without coordinated recovery a failure
    // propagates at once (and aborts the group); with it, the failure
    // becomes this rank's status and the caller keeps its exchange
    // schedule until the verdict.
    const auto attempt_unit = [&](auto&& body) {
      Attempt a;
      if (!coordinated) {
        body();
        return a;
      }
      try {
        body();
      } catch (const net::NetError&) {
        throw;
      } catch (const em::IoError&) {
        a = {UnitStatus::io_failed, std::current_exception()};
      } catch (...) {
        a = {UnitStatus::failed, std::current_exception()};
      }
      if (a.status != UnitStatus::ok) quiesce();
      return a;
    };
    // The unanimous verdict on one attempt, from every rank's status:
    // false = commit, true = roll back and re-execute.  A unit that fails
    // for good throws on every rank — the root cause where it happened, an
    // echo elsewhere.  An I/O failure is the root cause whenever one
    // happened: it can starve peers into secondary failures, never the
    // reverse.
    const auto roll_back = [&](const std::vector<UnitStatus>& votes,
                               const Attempt& a, std::size_t attempt) {
      const auto first = [&](UnitStatus s) {
        return static_cast<std::uint32_t>(
            std::find(votes.begin(), votes.end(), s) - votes.begin());
      };
      const bool io = first(UnitStatus::io_failed) < p;
      if (!io && first(UnitStatus::failed) == p) return false;
      if (io && attempt < cfg_.max_superstep_retries) return true;
      const UnitStatus root = io ? UnitStatus::io_failed : UnitStatus::failed;
      if (a.status == root) std::rethrow_exception(a.error);
      throw net::PeerFailedError(
          "DistSimulator: rank " + std::to_string(first(root)) +
          " failed a recovery unit for good");
    };
    // Unit-entry snapshot of the in-memory metadata a unit mutates; the
    // journaled context bank rolls back separately (discard_epoch).
    struct Snapshot {
      util::Rng rng;
      std::uint64_t rr_scatter;
      std::vector<em::TrackAllocator::Snapshot> tracks;
      MessageStore::Snapshot chains;
    };
    const auto snapshot = [&]() -> std::optional<Snapshot> {
      if (!coordinated) return std::nullopt;
      return Snapshot{rng, tally.rr_scatter, alloc.snapshot(),
                      messages.snapshot()};
    };
    const auto restore = [&](const Snapshot& s) {
      rng = s.rng;
      tally.rr_scatter = s.rr_scatter;
      alloc.restore(s.tracks);
      messages.restore(s.chains);
    };

    // Buffers reused across rounds and supersteps.  ctx_views[i] views
    // context i's payload in its read slot's staging (valid until that
    // slot's next submit — after the round's compute).
    ContextStore::Views ctx_views;
    std::vector<std::vector<bsp::Message>> inboxes;
    std::vector<bsp::Message> outgoing;
    std::vector<State> states;
    // Zero-copy path: reassembled payloads live in this arena (reset per
    // round — the previous round's compute has consumed its refs).
    const bool zero_copy = cfg_.zero_copy;
    util::Arena inbox_arena;
    std::vector<std::vector<bsp::MessageRef>> inbox_refs;
    std::vector<bsp::MessageRef> outgoing_refs;
    std::vector<bsp::Outbox> outboxes;

    // Per-vproc compute results, reduced sequentially in vproc order below
    // so cost totals are identical whether compute fans out or not.
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
    auto submit_ctx_read = [&](std::uint32_t r) {
      const std::uint32_t rf = r * k;
      const std::uint32_t rc = std::min(k, local_v - rf);
      contexts.read_submit(rf, rc, ctx_read[r & 1]);
    };

    // One superstep body's contribution, reset by every attempt.
    bsp::SuperstepCost local_step_cost;
    bool want_continue = false;
    std::uint64_t comm_bytes_this_step = 0;
    // Exchanges one body makes (forward + scatter per round) and how many
    // the current attempt has made so far.
    const std::size_t body_exchanges = 2 * static_cast<std::size_t>(rounds);
    std::size_t exchanges_made = 0;

    // Step 1: all rounds' fetch / compute / write.  Reads touch only
    // committed state (the arena written by the previous reorganize, the
    // committed context bank), so re-execution after a rollback sees
    // exactly the original inputs.
    const auto run_rounds = [&](std::size_t step) {
      local_step_cost = {};
      want_continue = false;
      comm_bytes_this_step = 0;
      exchanges_made = 0;
      if (pipelined) submit_ctx_read(0);

      for (std::uint32_t round = 0; round < rounds; ++round) {
        // --- Fetch: read local blocks of this batch, forward to owners.
        // Each block is handed to the transport the moment the disks
        // surface it and progress() pushes it toward the wire while the
        // remaining blocks of the batch are still being read.  post()
        // copies before returning, so transient spans — this callback's,
        // pack_blocks scratch, serialized records — are posted directly.
        {
          ObsPhase phase(rec, "fetch_msg", disks, &tally.phase_io.fetch_msg,
                         me);
          messages.fetch_group_blocks(
              round, [&](std::span<const std::byte> block) {
                if (is_dummy_block(block)) return;
                // All chunks in a block share one destination group (they
                // were packed per owner): the first chunk's dst names it.
                util::Reader r(block.subspan(kBlockHeaderBytes));
                r.read<std::uint32_t>();  // src
                const auto dst = r.read<std::uint32_t>();
                const auto owner = owner_of(dst);
                tp_->post(owner, block);
                if (owner != me) comm_bytes_this_step += block.size();
                tp_->progress();
              });
        }
        ++exchanges_made;
        auto forward = tp_->exchange();

        // --- Compute: reassemble inboxes, run the k virtual supersteps.
        const std::uint32_t first = round * k;
        const std::uint32_t count = std::min(k, local_v - first);
        if (zero_copy) inbox_arena.reset();
        Reassembler reasm(cfg_.gamma, zero_copy ? &inbox_arena : nullptr);
        for (std::uint32_t src = 0; src < p; ++src) {
          for (auto& block : forward[src]) {
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
                  "DistSimulator: block forwarded to the wrong processor");
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
                  "DistSimulator: block forwarded to the wrong processor");
            }
            inboxes[local - first].push_back(std::move(m));
          }
        }

        {
          ObsPhase phase(rec, pipelined ? "prefetch_ctx" : "fetch_ctx",
                         disks, &tally.phase_io.fetch_ctx, me);
          if (pipelined) {
            contexts.read_wait(ctx_read[round & 1], ctx_views);
            // Read-ahead: the next round's contexts stream in while this
            // round computes.
            if (round + 1 < rounds) submit_ctx_read(round + 1);
          } else {
            contexts.read_into(first, count, ctx_views);
          }
        }
        // A fast peer may already be scattering this round's blocks at us;
        // buffering them now shortens the exchange after the pack below.
        tp_->progress();

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
            util::Reader r(ctx_views[i]);
            states[i].deserialize(r);
            bsp::Inbox in = zero_copy ? bsp::Inbox(std::move(inbox_refs[i]))
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
        }
        for (std::uint32_t i = 0; i < count; ++i) {
          const VpStats& s = vp[i];
          want_continue = want_continue || s.cont;
          local_cost.max_work = std::max(local_cost.max_work, s.work);
          local_cost.total_work += s.work;
          if (s.sent_wire > cfg_.gamma) {
            throw std::runtime_error(
                "DistSimulator: processor exceeded the declared gamma");
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
            for (const auto& msg : outboxes[i].messages()) {
              outgoing_refs.push_back(msg);
            }
            tally.arena_peak = std::max<std::uint64_t>(
                tally.arena_peak, outboxes[i].arena_high_water());
          } else {
            for (auto& msg : outboxes[i].take()) {
              outgoing.push_back(std::move(msg));
            }
            tally.outbox_copied += outboxes[i].bytes_copied();
          }
        }
        tally.arena_peak =
            std::max<std::uint64_t>(tally.arena_peak, inbox_arena.high_water());
        merge_cost(local_step_cost, local_cost);

        // Write contexts back.
        {
          ObsPhase phase(rec, pipelined ? "writeback_ctx" : "write_ctx",
                         disks, &tally.phase_io.write_ctx, me);
          auto emit = [&](std::uint32_t ctx, util::Writer& w) {
            states[ctx - first].serialize(w);
          };
          if (pipelined) {
            // Retire round r-2's write-backs, then submit round r's; the
            // writes overlap the following rounds' compute.
            contexts.write_wait(ctx_write[round & 1]);
            contexts.write_submit(first, count, emit, ctx_write[round & 1]);
          } else {
            contexts.write(first, count, emit);
          }
        }

        // --- Writing: pack per (owner, batch) and scatter randomly.
        {
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
                    ? (me + tally.rr_scatter++) % p
                    : rng.below(p));
            tp_->post(target, block);
            if (target != me) comm_bytes_this_step += block.size();
            // Sealed blocks go to the wire while the pack continues.
            tp_->progress();
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
        ++exchanges_made;
        auto scattered = tp_->exchange();

        // --- Receive scattered blocks, write them to local buckets in
        // source-rank order (the write_block RNG draws must land on the
        // same call indices on every transport).
        {
          ObsPhase phase(rec, "write_msg", disks, &tally.phase_io.write_msg,
                         me);
          for (std::uint32_t src = 0; src < p; ++src) {
            for (auto& block : scattered[src]) {
              if (zero_copy) {
                // Adopt the delivered buffer instead of copying it.
                messages.write_block(std::move(block), rng);
              } else {
                messages.write_block(block, rng);
              }
            }
          }
        }
      }

      if (pipelined) {
        // Drain the pipeline before reorganizing: the last two rounds'
        // context write-backs and every in-flight message write cycle.
        {
          ObsPhase phase(rec, "writeback_ctx", disks,
                         &tally.phase_io.write_ctx, me);
          contexts.write_wait(ctx_write[rounds & 1]);
          contexts.write_wait(ctx_write[(rounds + 1) & 1]);
        }
        ObsPhase phase(rec, "writeback_msg", disks, &tally.phase_io.write_msg,
                       me);
        messages.quiesce();
      }
    };

    for (std::size_t step = start_step;; ++step) {
      if (step >= cfg_.max_supersteps) {
        throw std::runtime_error("DistSimulator: superstep limit exceeded");
      }

      // --- Step 1: the superstep body, one recovery unit.  Its verdict
      // record follows the body's last exchange.
      for (std::size_t attempt = 0;; ++attempt) {
        const auto snap = snapshot();
        const Attempt a = attempt_unit([&] { run_rounds(step); });
        if (!coordinated) break;
        // A failed rank keeps the schedule: its remaining exchanges post
        // nothing, and what they deliver belongs to a doomed attempt.
        for (; exchanges_made < body_exchanges; ++exchanges_made) {
          (void)tp_->exchange();
        }
        const auto status = static_cast<std::byte>(a.status);
        for (std::uint32_t q = 0; q < p; ++q) {
          tp_->post(q, std::span<const std::byte>(&status, 1));
        }
        const auto verdicts = tp_->exchange();
        std::vector<UnitStatus> votes(p);
        for (std::uint32_t src = 0; src < p; ++src) {
          if (verdicts[src].size() != 1 || verdicts[src][0].size() != 1) {
            throw net::PeerFailedError(
                "DistSimulator: malformed verdict record from rank " +
                std::to_string(src));
          }
          votes[src] = static_cast<UnitStatus>(verdicts[src][0][0]);
        }
        if (!roll_back(votes, a, attempt)) {
          contexts.commit_epoch();
          break;
        }
        // Unanimous rollback to the last committed epoch.
        restore(*snap);
        contexts.discard_epoch();
        ++result.recovery.superstep_rollbacks;
        if (me == 0) record_rollback(rec, "superstep", me);
      }
      tally.max_comm_bytes_step =
          std::max(tally.max_comm_bytes_step, comm_bytes_this_step);

      // --- Step 2: local SimulateRouting, its own recovery unit: it drains
      // the bucket chains destructively and overwrites the arena (this
      // superstep's input), so its snapshot is taken at its entry — after
      // the body committed.  Its verdict rides on the control record.
      bsp::SuperstepCost step_cost;
      bool any = false;
      bool cancel_seen = false;
      for (std::size_t attempt = 0;; ++attempt) {
        const auto snap = snapshot();
        RoutingStats attempt_routing;
        const Attempt a = attempt_unit([&] {
          ObsPhase phase(rec, "reorganize", disks,
                         &tally.phase_io.reorganize, me);
          messages.flush(rng);
          attempt_routing = messages.reorganize(rng);
        });
        {
          util::Writer w;
          w.write<bsp::SuperstepCost>(local_step_cost);
          w.write<std::uint8_t>(want_continue ? 1 : 0);
          const bool cancel_sample =
              me == 0 && cfg_.cancel != nullptr &&
              cfg_.cancel->load(std::memory_order_relaxed);
          w.write<std::uint8_t>(cancel_sample ? 1 : 0);
          w.write<UnitStatus>(a.status);
          for (std::uint32_t q = 0; q < p; ++q) tp_->post(q, w.bytes());
        }
        const auto controls = tp_->exchange();
        step_cost = {};
        any = false;
        std::vector<UnitStatus> votes(p);
        for (std::uint32_t src = 0; src < p; ++src) {
          if (controls[src].size() != 1) {
            throw net::PeerFailedError(
                "DistSimulator: malformed control record from rank " +
                std::to_string(src));
          }
          util::Reader r(controls[src][0]);
          merge_cost(step_cost, r.read<bsp::SuperstepCost>());
          any = any || r.read<std::uint8_t>() != 0;
          const bool cancel = r.read<std::uint8_t>() != 0;
          if (src == 0) cancel_seen = cancel;
          votes[src] = r.read<UnitStatus>();
        }
        if (!roll_back(votes, a, attempt)) {
          tally.routing += attempt_routing;
          break;
        }
        restore(*snap);
        ++result.recovery.reorganize_rollbacks;
        if (me == 0) record_rollback(rec, "reorganize", me);
      }
      result.costs.supersteps.push_back(step_cost);

      // --- Superstep boundary: durability point (§5.1).
      if (ckpt_active && any &&
          (cancel_seen || (step + 1) % cfg_.checkpoint.every == 0)) {
        publish_checkpoint(step + 1);
      }
      if (cancel_seen && any) {
        throw CanceledError("DistSimulator: canceled at superstep boundary " +
                            std::to_string(step + 1));
      }
      if (!any) break;
    }

    // Collect this rank's final states and gather them.  Every rank of a
    // distributed run hands its workload driver the complete output
    // (drivers feed collected results into the next phase's input, and all
    // ranks must stay in lockstep), so the states are allgathered;
    // ParSimulator's ranks share one caller and gather to rank 0 alone.
    {
      util::Writer local_out;
      {
        ObsPhase phase(rec, "collect", disks, &tally.phase_io.collect, me);
        for (std::uint32_t r = 0; r < rounds; ++r) {
          const std::uint32_t first = r * k;
          const std::uint32_t count = std::min(k, local_v - first);
          contexts.read_into(first, count, ctx_views);
          // write_vector's framing: u64 length, then the bytes.
          for (const auto view : ctx_views) {
            local_out.write<std::uint64_t>(view.size());
            local_out.write_bytes(view);
          }
        }
      }
      disks.sync();
      const std::uint32_t receivers = in_process_ ? 1 : p;
      for (std::uint32_t q = 0; q < receivers; ++q) {
        tp_->post(q, local_out.bytes());
      }
    }
    gathered = tp_->exchange();

    // --- End-of-run record allgather: every rank assembles the SAME
    // SimResult (max-over-processors I/O, summed routing stats, reduced
    // overlap), so digests agree on every rank and every transport.
    disks.harvest_backend_stats();
    {
      util::Writer w;
      w.write<Tally>(live_tally());
      w.write<em::IoStats>(disks.stats());
      const auto& eng = disks.engine_stats();
      const std::uint64_t busy = eng.max_busy_ns();
      double clamped = 0.0;
      if (busy > 0) {
        clamped = std::clamp(1.0 - static_cast<double>(eng.stall_ns) /
                                       static_cast<double>(busy),
                             0.0, 1.0);
      }
      w.write<std::uint8_t>(busy > 0 ? 1 : 0);
      w.write<double>(clamped);
      w.write<std::uint64_t>(disks.max_tracks_used());
      w.write<std::uint64_t>(messages.bytes_copied());
      w.write<std::uint8_t>(messages.in_memory_routing() ? 1 : 0);
      for (std::uint32_t q = 0; q < p; ++q) tp_->post(q, w.bytes());
    }
    const auto records = tp_->exchange();
    std::uint64_t copied_total = 0;
    std::uint64_t arena_peak_all = 0;
    bool mem_routing = true;
    for (std::uint32_t src = 0; src < p; ++src) {
      if (records[src].size() != 1) {
        throw net::PeerFailedError(
            "DistSimulator: malformed end-of-run record from rank " +
            std::to_string(src));
      }
      util::Reader r(records[src][0]);
      const auto t = r.read<Tally>();
      const auto io = r.read<em::IoStats>();
      result.per_proc_io.push_back(io);
      if (io.parallel_ios >= result.total_io.parallel_ios) {
        result.total_io = io;
      }
      const bool has_busy = r.read<std::uint8_t>() != 0;
      const double clamped = r.read<double>();
      if (has_busy) {
        result.overlap_ratio =
            src == 0 ? clamped : std::min(result.overlap_ratio, clamped);
      }
      result.max_tracks_per_disk =
          std::max(result.max_tracks_per_disk, r.read<std::uint64_t>());
      copied_total += r.read<std::uint64_t>() + t.outbox_copied;
      mem_routing = mem_routing && r.read<std::uint8_t>() != 0;
      result.recovery.io_retries += t.io_retries;
      result.recovery.io_giveups += t.io_giveups;
      result.recovery.faults += t.faults;
      result.routing_stats += t.routing;
      result.real_comm_bytes =
          std::max(result.real_comm_bytes, t.max_comm_bytes_step);
      if (src == 0) result.phase_io = t.phase_io;
      arena_peak_all = std::max(arena_peak_all, t.arena_peak);
    }

    // Registry: per-rank entries (proc.<r>.engine.*, phase spans, net.*)
    // come from every rank, the run-wide ones from rank 0 alone — once,
    // even when all ranks share one registry.
    if (rec != nullptr) {
      auto& reg = rec->registry;
      em::export_metrics(disks.engine_stats(), reg,
                         "proc." + std::to_string(me) + ".engine.");
      if (!in_process_) tp_->export_metrics(reg);
      if (me == 0) {
        export_routing_stats(reg, result.routing_stats);
        export_recovery_stats(reg, result.recovery);
        reg.add("sim.supersteps", result.costs.num_supersteps());
        reg.set_gauge("sim.group_size",
                      static_cast<double>(result.group_size));
        reg.set_gauge("sim.max_tracks_per_disk",
                      static_cast<double>(result.max_tracks_per_disk));
        reg.set_gauge("sim.real_comm_bytes",
                      static_cast<double>(result.real_comm_bytes));
        reg.set_gauge("sim.overlap_ratio", result.overlap_ratio);
        reg.add("sim.bytes_copied", copied_total);
        reg.set_gauge("sim.arena_bytes", static_cast<double>(arena_peak_all));
        reg.set_gauge("sim.in_memory_routing", mem_routing ? 1.0 : 0.0);
      }
    }
  } catch (const std::exception& e) {
    fail(e.what());
    throw;
  } catch (...) {
    fail("unknown error");
    throw;
  }

  // Hand the driver the final states, in virtual-processor order.
  if (in_process_ && me != 0) return result;
  for (std::uint32_t src = 0; src < p; ++src) {
    if (gathered[src].size() != 1) {
      throw net::PeerFailedError(
          "DistSimulator: malformed state record from rank " +
          std::to_string(src));
    }
    util::Reader r(gathered[src][0]);
    for (std::uint32_t j = 0; j < local_v; ++j) {
      util::Reader sr(r.read_bytes(r.read<std::uint64_t>()));
      State s;
      s.deserialize(sr);
      collect(src * local_v + j, s);
    }
  }
  return result;
}

}  // namespace embsp::sim
