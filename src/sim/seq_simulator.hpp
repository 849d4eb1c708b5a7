// Algorithm 1 — SeqCompoundSuperstep: simulation of a v-processor BSP* on a
// single-processor EM-BSP* machine with D disks (§5.1).
//
// Each compound superstep is simulated in v/k rounds of k virtual
// processors (one *group*):
//   1(a) read the k contexts            — ContextStore, striped, parallel
//   1(b) read the group's messages      — MessageStore arena, parallel
//   1(c) run the k supersteps in memory
//   1(d) cut generated messages into blocks, write them to the D buckets
//        with a random disk permutation per write cycle
//   1(e) write the k contexts back
//   (2)  SimulateRouting — reorganize buckets into standard consecutive
//        format per destination group
//
// The simulator validates the model's resource discipline at runtime:
// contexts must fit the declared mu, per-processor communication must fit
// the declared gamma, and k*mu must fit the machine's memory M.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bsp/direct_runtime.hpp"
#include "bsp/program.hpp"
#include "em/disk_array.hpp"
#include "sim/checkpoint.hpp"
#include "sim/context_store.hpp"
#include "sim/layout_planner.hpp"
#include "sim/message_store.hpp"
#include "sim/obs_hooks.hpp"
#include "sim/sim_config.hpp"
#include "util/thread_pool.hpp"

namespace embsp::sim {

class SeqSimulator {
 public:
  explicit SeqSimulator(
      SimConfig cfg,
      std::function<std::unique_ptr<em::Backend>(std::size_t)> backend =
          nullptr);

  template <bsp::Program P>
  SimResult run(
      const P& prog,
      const std::function<typename P::State(std::uint32_t)>& make_state,
      const std::function<void(std::uint32_t, typename P::State&)>& collect);

  [[nodiscard]] const em::DiskArray& disks() const { return *disks_; }
  [[nodiscard]] const SimConfig& config() const { return cfg_; }

 private:
  SimConfig cfg_;
  std::unique_ptr<em::DiskArray> disks_;
  /// Shared tally of injected faults (null when injection is disabled).
  std::shared_ptr<em::FaultCounters> fault_counters_;
};

/// Convenience: measure mu/gamma with a direct dry run (small v is fine as
/// long as it has the same per-processor footprint), then simulate.
template <bsp::Program P>
SimResult simulate_measured(
    const P& prog, SimConfig cfg,
    const std::function<typename P::State(std::uint32_t)>& make_state,
    const std::function<void(std::uint32_t, typename P::State&)>& collect) {
  const auto req =
      bsp::measure_requirements(prog, cfg.machine.bsp.v, make_state);
  cfg.mu = req.mu + req.mu / 8 + 64;  // headroom: serialized sizes may drift
  cfg.gamma = req.gamma + 64;         // req.gamma is already in wire bytes
  SeqSimulator sim(cfg);
  return sim.run(prog, make_state, collect);
}

// ---------------------------------------------------------------------------
// implementation
// ---------------------------------------------------------------------------

template <bsp::Program P>
SimResult SeqSimulator::run(
    const P& prog,
    const std::function<typename P::State(std::uint32_t)>& make_state,
    const std::function<void(std::uint32_t, typename P::State&)>& collect) {
  using State = typename P::State;
  cfg_.machine.validate();
  if (cfg_.machine.p != 1) {
    throw std::invalid_argument(
        "SeqSimulator: p must be 1 (use ParSimulator for p > 1)");
  }
  const std::uint32_t v = cfg_.machine.bsp.v;
  // The planner emits a flat single-level layout whenever the (requested or
  // auto-picked) k fits the memory bound, and a two-level group tree when
  // it does not: contexts are walked in leaf groups sized to fit M, while
  // messages route at super-group granularity and are re-cut into leaf
  // blocks through scratch on fetch.  plan.leaf is exactly the old
  // SimLayout in the flat case.
  const LayoutPlan plan = LayoutPlanner::plan(cfg_, v);
  const SimLayout layout = plan.leaf;
  const auto k = static_cast<std::uint32_t>(layout.k);
  const std::uint32_t num_groups = layout.num_groups;
  const bool hier = plan.hierarchical();
  if (hier && (cfg_.superstep_recovery || cfg_.checkpoint.enabled())) {
    throw LayoutError(
        "SeqSimulator: superstep recovery / checkpointing do not compose "
        "with the multi-level group schedule yet (the distribution scratch "
        "is not part of the recovery records); lower k or raise M");
  }
  // Virtual processors per *routing* destination group: the super-group
  // size in a hierarchical plan, k itself in a flat one.
  const auto route_k = static_cast<std::uint32_t>(plan.levels.back().k);

  em::TrackAllocators alloc(disks_->num_disks());
  ContextStore contexts(*disks_, alloc, v, cfg_.mu,
                        /*journaled=*/cfg_.superstep_recovery);
  MessageStoreConfig mcfg;
  mcfg.num_groups = plan.levels.back().num_groups;
  mcfg.group_capacity_blocks =
      hier ? plan.super_capacity_blocks : layout.group_capacity;
  mcfg.mode = cfg_.routing;
  mcfg.max_message_bytes = cfg_.gamma;
  mcfg.memory_budget_bytes = layout.routing_mem_budget;
  if (hier) {
    mcfg.leaf_fanout = plan.fanout();
    mcfg.num_leaf_groups = num_groups;
    mcfg.leaf_capacity_blocks = plan.leaf_capacity_blocks;
    mcfg.leaf_of = [k](std::uint32_t dst) { return dst / k; };
  }
  MessageStore messages(*disks_, alloc, mcfg);
  util::Rng rng(cfg_.seed);

  SimResult result;
  result.group_size = layout.k;
  obs::Recorder* const rec = cfg_.recorder;
  auto snapshot = [&]() { return disks_->stats(); };

  // Superstep-granular recovery (§5.1: the on-disk state at a superstep
  // boundary is a consistent checkpoint).  Each recovery *unit* — init,
  // one superstep body, one reorganization, collect — runs under this
  // wrapper: on an unrecoverable IoError (a transfer that exhausted its
  // retry budget) the in-memory metadata (RNG, track allocators, message
  // chains, journaled context epoch) is rolled back to the unit's entry
  // and the unit re-executes.  Re-execution replays the exact same RNG
  // draws and track placements, so its writes overwrite whatever the
  // abandoned attempt left behind — torn blocks included — and a recovered
  // run's disk image is byte-identical to an undisturbed one.
  // --- Pipelined execution state (tentpole; inert when cfg_.pipeline is
  // off).  Two groups are resident at once: while group g computes, group
  // g+1's contexts and message arena blocks stream in and group g-1's
  // write-backs retire, all through the disk array's async token API.
  const bool pipelined = cfg_.pipeline;
  std::unique_ptr<util::ComputePool> pool;
  if (pipelined && cfg_.compute_threads > 1) {
    pool = std::make_unique<util::ComputePool>(cfg_.compute_threads - 1);
  }
  // Self-tuning: re-plan the compute-pool width at superstep boundaries
  // from the engine's stall/busy deltas.  Width is the one knob that is
  // safe to change mid-run — the on-disk layout and the call-indexed fault
  // schedule never depend on it, and costs are reduced in vproc order, so
  // results are identical at any width.
  std::optional<GroupTuner> tuner;
  if (cfg_.auto_tune && pipelined) {
    tuner.emplace(/*min_width=*/1,
                  /*max_width=*/std::max<std::size_t>(cfg_.compute_threads,
                                                      8));
  }
  if (pipelined) {
    // Bounded write-behind: at most 4 message write cycles (<= 4*D blocks)
    // ride behind the computing group before write_messages throttles.
    messages.enable_write_behind(4);
  }
  // Double-buffered staging slots, indexed by group parity.  The staging
  // buffers inside live for the whole run, so in-flight transfers never
  // reference memory owned by a dead stack frame.
  ContextStore::PendingIo ctx_read[2];
  ContextStore::PendingIo ctx_write[2];
  MessageStore::PendingFetch msg_fetch[2];
  // Kernel fixed buffers (uring engine): the slots above are the run's
  // long-lived I/O staging — size them to their steady-state maximum up
  // front and offer them to the backends, so context and message transfers
  // go out as READ_FIXED/WRITE_FIXED SQEs.  Non-uring backends decline the
  // hint (free); a buffer that later outgrows its registration silently
  // falls back to plain SQEs.  The guard unregisters before the slots are
  // destroyed — a stale registration could otherwise alias a future run's
  // allocations at the same addresses.
  struct RegGuard {
    em::DiskArray* d = nullptr;
    ~RegGuard() {
      if (d != nullptr) d->register_io_buffers({});
    }
  } reg_guard;
  if (pipelined) {
    const std::size_t ctx_bytes = layout.k * layout.context_slot_bytes;
    // Hierarchical plans fetch leaf slabs out of scratch, so the staging
    // slot is sized by the leaf scratch capacity, not the (much larger)
    // routing-group capacity.
    const std::size_t msg_bytes =
        static_cast<std::size_t>(hier ? plan.leaf_capacity_blocks
                                      : layout.group_capacity) *
        cfg_.machine.em.B;
    std::vector<std::span<std::byte>> regions;
    for (int s = 0; s < 2; ++s) {
      ctx_read[s].buf.resize(ctx_bytes);
      ctx_write[s].buf.resize(ctx_bytes);
      msg_fetch[s].buf.resize(msg_bytes);
      regions.push_back({ctx_read[s].buf.data(), ctx_read[s].buf.size()});
      regions.push_back({ctx_write[s].buf.data(), ctx_write[s].buf.size()});
      regions.push_back({msg_fetch[s].buf.data(), msg_fetch[s].buf.size()});
    }
    if (disks_->register_io_buffers(regions) > 0) reg_guard.d = disks_.get();
  }

  // Buffers reused across groups and supersteps (no per-group churn).
  // ctx_views[i] views group member i's payload in its read slot's staging
  // (valid until that slot's next submit — after the group's compute).
  ContextStore::Views ctx_views;
  std::vector<std::vector<bsp::Message>> inboxes;
  std::vector<bsp::Message> outgoing;
  std::vector<State> states;
  states.reserve(layout.k);
  inboxes.reserve(layout.k);

  // Zero-copy path state: fetched payloads live in this arena (reset per
  // group — the previous group's compute has consumed its refs by then),
  // and outgoing refs point into the per-vproc outbox arenas, which stay
  // alive until the write phase has packed them.
  const bool zero_copy = cfg_.zero_copy;
  util::Arena inbox_arena;
  std::vector<bsp::MessageRef> incoming_refs;
  std::vector<std::vector<bsp::MessageRef>> inbox_refs;
  std::vector<bsp::MessageRef> outgoing_refs;
  std::uint64_t outbox_copied = 0;  // take() traffic (legacy path only)
  std::uint64_t arena_peak = 0;     // peak arena residency, all arenas

  // Per-virtual-processor compute results, filled by (possibly concurrent)
  // superstep() calls and reduced sequentially in vproc order so the cost
  // totals are independent of thread interleaving.
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

  // Settles every in-flight token and abandons staged message cycles.
  // Must run before any exception leaves this frame (the transfers point
  // into the staging buffers above) and before recovery restores snapshots
  // (a late-landing write would corrupt the restored state).
  auto pipeline_quiesce = [&] {
    if (!pipelined) return;
    disks_->drain();
    messages.abandon_inflight();
    for (int s = 0; s < 2; ++s) {
      ctx_read[s].active = false;
      ctx_read[s].tokens.clear();
      ctx_write[s].active = false;
      ctx_write[s].tokens.clear();
      msg_fetch[s].active = false;
      msg_fetch[s].tokens.clear();
    }
  };

  std::uint64_t superstep_rollbacks = 0;
  std::uint64_t reorganize_rollbacks = 0;
  auto run_protected = [&](std::uint64_t& rollbacks, auto&& body) {
    if (!cfg_.superstep_recovery) {
      if (!pipelined) {
        body();
        return;
      }
      try {
        body();
      } catch (...) {
        pipeline_quiesce();
        throw;
      }
      return;
    }
    for (std::size_t attempt = 0;; ++attempt) {
      const util::Rng rng_ckpt = rng;
      const auto alloc_ckpt = alloc.snapshot();
      const auto msg_ckpt = messages.snapshot();
      try {
        body();
        contexts.commit_epoch();
        return;
      } catch (const em::IoError&) {
        pipeline_quiesce();
        if (attempt >= cfg_.max_superstep_retries) throw;
        rng = rng_ckpt;
        alloc.restore(alloc_ckpt);
        messages.restore(msg_ckpt);
        contexts.discard_epoch();
        ++rollbacks;
        record_rollback(rec, &rollbacks == &superstep_rollbacks
                                 ? "superstep"
                                 : "reorganize");
      } catch (...) {
        pipeline_quiesce();
        throw;
      }
    }
  };

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
        // The checkpointed process crashed in a *later* run of this
        // workload, so this run completed before the crash.  Re-execute it
        // deterministically and leave the later run's checkpoint alone.
        ckpt_write = false;
      } else {
        loaded = ckpt->load(cfg_.checkpoint.run_index, config_fp);
      }
    }
  }
  // Resumed bookkeeping baselines: counters the fresh engine/fault state
  // restarts at zero, carried over from the checkpointed run so final
  // totals match an uninterrupted run.
  std::uint64_t base_io_retries = 0;
  std::uint64_t base_io_giveups = 0;
  em::FaultCounts base_faults;
  std::uint64_t checkpoints_published = 0;
  // The complete resumable state at the current superstep boundary: replay
  // header (bookkeeping accumulated so far) + the substrate record.
  auto save_run_state = [&](std::uint64_t next_step) {
    util::Writer w;
    w.write<std::uint64_t>(next_step);
    w.write_vector(result.costs.supersteps);
    w.write_vector(result.per_superstep_io);
    w.write<RoutingStats>(result.routing_stats);
    w.write<PhaseIo>(result.phase_io);
    w.write<std::uint64_t>(superstep_rollbacks);
    w.write<std::uint64_t>(reorganize_rollbacks);
    w.write<std::uint64_t>(base_io_retries +
                           disks_->engine_stats().total_retries());
    w.write<std::uint64_t>(base_io_giveups +
                           disks_->engine_stats().total_giveups());
    em::FaultCounts fc = base_faults;
    if (fault_counters_ != nullptr) fc += em::snapshot(*fault_counters_);
    w.write<em::FaultCounts>(fc);
    w.write<std::uint64_t>(outbox_copied);
    w.write<std::uint64_t>(arena_peak);
    save_proc_state(w, *disks_, alloc, contexts, messages, rng);
    return w.take();
  };
  auto publish_checkpoint = [&](std::uint64_t next_step) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto payload = save_run_state(next_step);
    ckpt->publish(cfg_.checkpoint.run_index, next_step, payload, config_fp);
    ++checkpoints_published;
    record_checkpoint(
        rec, checkpoints_published, payload.size(),
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
  };

  std::size_t start_step = 0;
  if (loaded.has_value()) {
    // Resume: reinstate the bookkeeping and substrate exactly as the
    // checkpointed run left them at the boundary, then continue the
    // superstep loop from there (init already happened in the first life).
    util::Reader r(loaded->payload);
    start_step = static_cast<std::size_t>(r.read<std::uint64_t>());
    result.costs.supersteps = r.read_vector<bsp::SuperstepCost>();
    result.per_superstep_io = r.read_vector<em::IoStats>();
    result.routing_stats = r.read<RoutingStats>();
    result.phase_io = r.read<PhaseIo>();
    superstep_rollbacks = r.read<std::uint64_t>();
    reorganize_rollbacks = r.read<std::uint64_t>();
    base_io_retries = r.read<std::uint64_t>();
    base_io_giveups = r.read<std::uint64_t>();
    base_faults = r.read<em::FaultCounts>();
    outbox_copied = r.read<std::uint64_t>();
    arena_peak = r.read<std::uint64_t>();
    load_proc_state(r, *disks_, alloc, contexts, messages, rng);
    if (!r.exhausted()) {
      throw std::runtime_error("checkpoint: trailing bytes in payload");
    }
    result.recovery.resume_epoch = loaded->epoch;
  } else {
    // Write initial contexts, one group at a time (never more than k
    // contexts in memory — the EM discipline applies to setup too).
    run_protected(superstep_rollbacks, [&] {
      ObsPhase phase(rec, "init", *disks_, &result.phase_io.init);
      for (std::uint32_t gidx = 0; gidx < num_groups; ++gidx) {
        const std::uint32_t first = gidx * k;
        const std::uint32_t count = std::min(k, v - first);
        // Serialize straight into the store's block-aligned staging buffer.
        contexts.write(first, count, [&](std::uint32_t ctx, util::Writer& w) {
          make_state(ctx).serialize(w);
        });
      }
    });
  }

  const auto group_of = [route_k](std::uint32_t dst) {
    return dst / route_k;
  };
  // Submit group g's context reads and arena fetches into its parity slot.
  auto submit_prefetch = [&](std::uint32_t g) {
    const int slot = static_cast<int>(g & 1);
    const std::uint32_t pf = g * k;
    const std::uint32_t pc = std::min(k, v - pf);
    contexts.read_submit(pf, pc, ctx_read[slot]);
    messages.fetch_group_submit(g, msg_fetch[slot]);
  };
  bool all_done = false;

  for (std::size_t step = start_step; !all_done; ++step) {
    if (step >= cfg_.max_supersteps) {
      throw std::runtime_error(
          "SeqSimulator: superstep limit exceeded (runaway program?)");
    }
    const auto superstep_before = snapshot();
    bsp::SuperstepCost cost;
    bool any_continue = false;

    // One recovery unit: the whole superstep body (all groups' fetch /
    // compute / write).  Its reads touch only committed state — the arena
    // written by the previous reorganize and the committed context bank —
    // so re-execution after a rollback sees exactly the original inputs.
    run_protected(superstep_rollbacks, [&] {
    cost = bsp::SuperstepCost{};
    any_continue = false;

    if (pipelined) submit_prefetch(0);

    for (std::uint32_t gidx = 0; gidx < num_groups; ++gidx) {
      const std::uint32_t first = gidx * k;
      const std::uint32_t count = std::min(k, v - first);
      const int cur = static_cast<int>(gidx & 1);

      // --- Fetching Phase: steps 1(a) and 1(b) ---
      // Zero-copy: the previous group's compute has consumed its refs, so
      // the inbox arena can recycle before this group's fetch fills it.
      if (zero_copy) inbox_arena.reset();
      std::vector<bsp::Message> incoming;
      if (pipelined) {
        {
          ObsPhase phase(rec, "prefetch_ctx", *disks_,
                         &result.phase_io.fetch_ctx);
          contexts.read_wait(ctx_read[cur], ctx_views);
        }
        {
          ObsPhase phase(rec, "prefetch_msg", *disks_,
                         &result.phase_io.fetch_msg);
          if (zero_copy) {
            incoming_refs =
                messages.fetch_group_wait_refs(msg_fetch[cur], inbox_arena);
          } else {
            incoming = messages.fetch_group_wait(msg_fetch[cur]);
          }
        }
        // Read-ahead: group g+1's transfers overlap group g's compute.
        if (gidx + 1 < num_groups) submit_prefetch(gidx + 1);
      } else {
        {
          ObsPhase phase(rec, "fetch_ctx", *disks_,
                         &result.phase_io.fetch_ctx);
          contexts.read_into(first, count, ctx_views);
        }
        ObsPhase phase(rec, "fetch_msg", *disks_, &result.phase_io.fetch_msg);
        if (zero_copy) {
          incoming_refs = messages.fetch_group_refs(gidx, inbox_arena);
        } else {
          incoming = messages.fetch_group(gidx);
        }
      }

      if (zero_copy) {
        if (inbox_refs.size() < count) inbox_refs.resize(count);
        for (std::uint32_t i = 0; i < count; ++i) inbox_refs[i].clear();
        for (const auto& m : incoming_refs) {
          if (m.dst < first || m.dst >= first + count) {
            throw std::runtime_error(
                "SeqSimulator: message routed to the wrong group");
          }
          inbox_refs[m.dst - first].push_back(m);
        }
      } else {
        if (inboxes.size() < count) inboxes.resize(count);
        for (std::uint32_t i = 0; i < count; ++i) inboxes[i].clear();
        for (auto& m : incoming) {
          if (m.dst < first || m.dst >= first + count) {
            throw std::runtime_error(
                "SeqSimulator: message routed to the wrong group");
          }
          inboxes[m.dst - first].push_back(std::move(m));
        }
      }

      // --- Computation Phase: step 1(c) ---
      states.clear();
      states.resize(count);
      vp.assign(count, VpStats{});
      outboxes.clear();
      for (std::uint32_t i = 0; i < count; ++i) {
        outboxes.emplace_back(first + i, v);
      }
      outgoing.clear();
      outgoing_refs.clear();
      {
        // Wall-clock-only span: compute does no I/O, so there is no PhaseIo
        // slot for it.
        ObsPhase compute_phase(rec, "compute", *disks_, nullptr);
        // Each task touches only index-i data; costs are reduced below in
        // vproc order, so the totals are identical inline or pooled.
        auto task = [&](std::size_t i) {
          util::Reader r(ctx_views[i]);
          states[i].deserialize(r);
          bsp::Inbox in = zero_copy ? bsp::Inbox(std::move(inbox_refs[i]))
                                    : bsp::Inbox(std::move(inboxes[i]));
          bsp::WorkMeter m;
          bsp::ProcEnv env{first + static_cast<std::uint32_t>(i), v, &m};
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

      // Sequential reduction in vproc order — cost accounting identical to
      // DirectRuntime (and independent of the compute interleaving).
      for (std::uint32_t i = 0; i < count; ++i) {
        const VpStats& s = vp[i];
        any_continue = any_continue || s.cont;
        cost.max_work = std::max(cost.max_work, s.work);
        cost.total_work += s.work;
        if (s.sent_wire > cfg_.gamma) {
          throw std::runtime_error(
              "SeqSimulator: processor " + std::to_string(first + i) +
              " sent " + std::to_string(s.sent_wire) +
              " bytes in one superstep, exceeding the declared gamma = " +
              std::to_string(cfg_.gamma));
        }
        cost.max_bytes_sent = std::max(cost.max_bytes_sent, s.bytes_sent);
        cost.max_packets_sent =
            std::max(cost.max_packets_sent, s.sent_packets);
        cost.max_wire_sent = std::max(cost.max_wire_sent, s.sent_wire);
        cost.max_bytes_received =
            std::max(cost.max_bytes_received, s.recv_bytes);
        cost.max_packets_received =
            std::max(cost.max_packets_received, s.recv_packets);
        cost.total_bytes += s.bytes_sent;
        cost.num_messages += s.num_messages;
        if (zero_copy) {
          // Refs stay valid through the write phase below: the outboxes
          // (and their arenas) outlive this group's write_message_refs.
          for (const auto& m : outboxes[i].messages()) {
            outgoing_refs.push_back(m);
          }
          arena_peak = std::max<std::uint64_t>(
              arena_peak, outboxes[i].arena_high_water());
        } else {
          for (auto& m : outboxes[i].take()) outgoing.push_back(std::move(m));
          outbox_copied += outboxes[i].bytes_copied();
        }
      }
      arena_peak = std::max<std::uint64_t>(arena_peak,
                                           inbox_arena.high_water());

      // --- Writing Phase: steps 1(d) and 1(e) ---
      {
        ObsPhase phase(rec, pipelined ? "writeback_msg" : "write_msg",
                       *disks_, &result.phase_io.write_msg);
        if (zero_copy) {
          messages.write_message_refs(outgoing_refs, group_of, rng);
        } else {
          messages.write_messages(outgoing, group_of, rng);
        }
      }

      {
        ObsPhase phase(rec, pipelined ? "writeback_ctx" : "write_ctx",
                       *disks_, &result.phase_io.write_ctx);
        auto emit = [&](std::uint32_t ctx, util::Writer& w) {
          states[ctx - first].serialize(w);
        };
        if (pipelined) {
          // Retire group g-2's context write-backs, then submit group g's;
          // the writes overlap the following groups' compute.
          contexts.write_wait(ctx_write[cur]);
          contexts.write_submit(first, count, emit, ctx_write[cur]);
        } else {
          contexts.write(first, count, emit);
        }
      }
    }

    if (pipelined) {
      // Drain the pipeline: the last two groups' context write-backs and
      // every in-flight message write cycle.
      {
        ObsPhase phase(rec, "writeback_ctx", *disks_,
                       &result.phase_io.write_ctx);
        contexts.write_wait(ctx_write[num_groups & 1]);
        contexts.write_wait(ctx_write[(num_groups + 1) & 1]);
      }
      ObsPhase phase(rec, "writeback_msg", *disks_,
                     &result.phase_io.write_msg);
      messages.quiesce();
    }
    });  // end superstep-body recovery unit

    // --- Step 2: SimulateRouting ---
    // Its own recovery unit: reorganize drains the bucket chains
    // destructively and overwrites the arena (this superstep's *input*), so
    // rolling it back needs the chains snapshot taken at its entry — not
    // the superstep's.  Consolidation and arena writes go to fixed
    // locations, hence replaying them is idempotent.
    run_protected(reorganize_rollbacks, [&] {
      ObsPhase phase(rec, "reorganize", *disks_,
                     &result.phase_io.reorganize);
      result.routing_stats += messages.reorganize(rng);
    });

    result.costs.supersteps.push_back(cost);
    result.per_superstep_io.push_back(
        disks_->stats().since(superstep_before));
    if (!any_continue) {
      // Messages sent in the final superstep have no receiver.  (The store
      // counts at routing-group granularity, valid in flat and hierarchical
      // mode alike — nothing has been fetched from this reorganize yet.)
      if (messages.undelivered_real_blocks() != 0) {
        throw std::runtime_error(
            "SeqSimulator: messages sent in the final superstep were "
            "never received");
      }
      all_done = true;
    }

    // --- Superstep boundary: the only re-planning point ------------------
    // Adapting between supersteps keeps the call-indexed fault schedule
    // aligned within each superstep run; recreating the pool is the
    // adaptation mechanism (its threads hold no simulation state).
    if (tuner.has_value() && !all_done) {
      const std::size_t cur = pool != nullptr ? pool->width() : 1;
      const std::size_t next = tuner->recommend(disks_->engine_stats(), cur);
      if (next != cur) {
        pool.reset();
        if (next > 1) pool = std::make_unique<util::ComputePool>(next - 1);
      }
    }

    // --- Superstep boundary: durability point (§5.1) ---------------------
    // The reorganize above committed this superstep's state, so the disks
    // hold a consistent snapshot.  Publish a checkpoint when one is due (or
    // when we are stopping early), then honor cooperative cancellation.
    const bool canceled = cfg_.cancel != nullptr &&
                          cfg_.cancel->load(std::memory_order_relaxed);
    if (ckpt.has_value() && ckpt_write && !all_done &&
        (canceled || (step + 1) % cfg_.checkpoint.every == 0)) {
      publish_checkpoint(step + 1);
    }
    if (canceled && !all_done) {
      throw CanceledError("SeqSimulator: canceled at superstep boundary " +
                          std::to_string(step + 1));
    }
  }

  // Collect results, group by group.  Read-only, but reads can still
  // exhaust the retry budget; `collect` callbacks may run again after a
  // rollback (same first..first+count prefix, same states).
  {
    ObsPhase phase(rec, "collect", *disks_, &result.phase_io.collect);
    run_protected(superstep_rollbacks, [&] {
      for (std::uint32_t gidx = 0; gidx < num_groups; ++gidx) {
        const std::uint32_t first = gidx * k;
        const std::uint32_t count = std::min(k, v - first);
        contexts.read_into(first, count, ctx_views);
        for (std::uint32_t i = 0; i < count; ++i) {
          State s;
          util::Reader r(ctx_views[i]);
          s.deserialize(r);
          collect(first + i, s);
        }
      }
    });
  }

  // Flush barrier: every issued transfer has completed (the engine joins
  // per operation); this pushes file-backend buffers to the medium so the
  // backing files are externally consistent when run() returns.
  disks_->sync();
  disks_->harvest_backend_stats();  // fold ring counters into engine stats
  result.routing_stats.distribute_cycles += messages.distribute_cycles();
  result.total_io = disks_->stats();
  result.max_tracks_per_disk = disks_->max_tracks_used();
  {
    // Compute/I/O overlap achieved by the engine: the fraction of the
    // busiest disk's transfer time NOT spent blocking the simulator thread.
    // (The serial engine executes inline, so its stall equals its busy time
    // and the ratio reads ~0.)
    const auto& eng = disks_->engine_stats();
    const std::uint64_t busy = eng.max_busy_ns();
    if (busy > 0) {
      const double r =
          1.0 - static_cast<double>(eng.stall_ns) / static_cast<double>(busy);
      result.overlap_ratio = std::clamp(r, 0.0, 1.0);
    }
  }
  result.recovery.io_retries =
      base_io_retries + disks_->engine_stats().total_retries();
  result.recovery.io_giveups =
      base_io_giveups + disks_->engine_stats().total_giveups();
  result.recovery.superstep_rollbacks = superstep_rollbacks;
  result.recovery.reorganize_rollbacks = reorganize_rollbacks;
  result.recovery.checkpoints = checkpoints_published;
  result.recovery.faults = base_faults;
  if (fault_counters_ != nullptr) {
    result.recovery.faults += em::snapshot(*fault_counters_);
  }
  if (rec != nullptr) {
    auto& reg = rec->registry;
    em::export_metrics(disks_->engine_stats(), reg, "engine.");
    export_routing_stats(reg, result.routing_stats);
    export_recovery_stats(reg, result.recovery);
    reg.add("sim.supersteps", result.costs.num_supersteps());
    reg.set_gauge("sim.group_size", static_cast<double>(result.group_size));
    reg.set_gauge("sim.max_tracks_per_disk",
                  static_cast<double>(result.max_tracks_per_disk));
    reg.set_gauge("sim.overlap_ratio", result.overlap_ratio);
    // Copy discipline: staging bytes that crossed a memcpy (block staging
    // plus legacy outbox materialization) and peak arena residency.
    reg.add("sim.bytes_copied", messages.bytes_copied() + outbox_copied);
    reg.set_gauge("sim.arena_bytes", static_cast<double>(arena_peak));
    reg.set_gauge("sim.in_memory_routing",
                  messages.in_memory_routing() ? 1.0 : 0.0);
    LayoutPlanner::export_plan(reg, plan, cfg_);
    if (tuner.has_value()) {
      reg.set_gauge("sim.layout.replans",
                    static_cast<double>(tuner->replans()));
      reg.set_gauge("sim.layout.compute_width",
                    static_cast<double>(pool != nullptr ? pool->width()
                                                        : 1));
    }
  }
  return result;
}

}  // namespace embsp::sim
