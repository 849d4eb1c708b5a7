// Algorithm 3 over a real interconnect: one rank of the p-processor EM-BSP*
// simulation per DistSimulator instance, communicating through a
// net::Transport instead of shared-memory mailboxes.
//
// This is the threaded ParSimulator's worker loop, factored onto message
// passing.  Each rank owns a private D-disk array and simulates virtual
// processors [rank*v/p, (rank+1)*v/p); a compound superstep runs the same
// v/(p*k) rounds with the same two-phase randomized routing:
//
//   round j:  fetch local blocks of batch j   → exchange #1 (forward to the
//             destination's owner over the wire),
//             compute the k virtual supersteps,
//             pack per (owner, batch), scatter → exchange #2 (to a uniformly
//             random intermediate rank, Lemma 10),
//             write received blocks to local buckets.
//   step 2:   local SimulateRouting reorganize.
//   boundary: exchange #3 — an all-to-all control record (per-rank cost
//             contribution, continue flag, rank 0's cancel sample); every
//             rank applies the same commutative reduction, so all ranks
//             append the same SuperstepCost and take the same branch.
//
// Parity contract (tested byte for byte in tests/test_net.cpp): on the
// loopback transport, results, SuperstepCosts, IoStats and fault-schedule
// call indices are identical to the threaded ParSimulator.  The invariants
// that make this hold:
//   * identical SimLayout (including the group-capacity inflation),
//   * the per-rank RNG replays the master fork loop (fork advances the
//     master, so all p forks are drawn in rank order),
//   * blocks are absorbed in source-rank order 0..p-1, the order the
//     ParSimulator's mailbox sweep uses,
//   * disk arrays use machine-wide drive indices (rank*D + d), keying the
//     deterministic fault schedule identically,
//   * cost reduction uses the same max/+ merges, which are commutative, so
//     cross-rank reduction order cannot change the result.
//
// Pipelined execution (cfg.pipeline): each rank runs the ParSimulator's
// double-buffered group schedule against its private disks — context
// prefetch for round r+1 and write-behind for round r-1 ride under round
// r's compute, message writes ride a bounded write-behind window — and the
// transport is driven incrementally: forward/scatter blocks are post()ed
// as they materialize and Transport::progress() is pumped from the fetch,
// compute and scatter phases, so phase t's wire traffic drains while the
// rank is still computing or waiting on its disks instead of serializing
// behind the complete() barrier.  Overlap changes only timing, never
// content: disk submissions, RNG draws and post ordering are untouched, so
// the byte-parity contract above holds with the pipeline on (asserted in
// tests/test_net.cpp), and the won overlap shows up in the obs Registry as
// net.exchange_overlap_ratio / net.link.<peer>.max_inflight_bytes.
//
// Not supported over a transport (throws up front): durable checkpoints
// and coordinated superstep recovery.  Transient injected faults are still
// absorbed rank-locally by the retry machinery; what cannot be absorbed
// aborts the run with a typed error, broadcast to peers via
// Transport::abort.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>

#include "bsp/direct_runtime.hpp"
#include "bsp/program.hpp"
#include "em/disk_array.hpp"
#include "net/transport.hpp"
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
  /// The exact field set the ParSimulator's per-round cost merge touches
  /// (max_wire_* stay zero in the reduced record there too).
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

  SimConfig cfg_;
  net::Transport* tp_;
  std::unique_ptr<em::DiskArray> disks_;
  std::shared_ptr<em::FaultCounters> fault_counters_;
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

  // Leaf-granular plan consumption, same rationale as the ParSimulator:
  // forwarding peeks per-block owners, so rounds are leaf-sized already.
  SimLayout layout = LayoutPlanner::plan(cfg_, local_v).leaf;
  // Same receive-capacity inflation as the ParSimulator (see the comment
  // there): scattering is balanced only in expectation.
  layout.group_capacity = layout.group_capacity * 2 + 4 * p + 4;
  const auto k = static_cast<std::uint32_t>(layout.k);
  const std::uint32_t rounds = layout.num_groups;

  em::TrackAllocators alloc(disks_->num_disks());
  ContextStore contexts(*disks_, alloc, local_v, cfg_.mu,
                        /*journaled=*/false);
  MessageStoreConfig mcfg;
  mcfg.num_groups = rounds;
  mcfg.group_capacity_blocks = layout.group_capacity;
  mcfg.mode = cfg_.routing;
  mcfg.max_message_bytes = cfg_.gamma;
  mcfg.memory_budget_bytes = layout.routing_mem_budget;
  MessageStore messages(*disks_, alloc, mcfg);
  // Per-rank RNG: replay the ParSimulator's fork loop — fork() advances the
  // master, so every rank must draw all p forks in order and keep its own.
  util::Rng rng(0);
  {
    util::Rng master(cfg_.seed);
    for (std::uint32_t i = 0; i < p; ++i) {
      util::Rng f = master.fork(i + 1);
      if (i == me) rng = f;
    }
  }
  std::uint64_t rr_scatter = 0;
  PhaseIo phase_io;
  RoutingStats routing;
  std::uint64_t comm_bytes_this_step = 0;
  std::uint64_t max_comm_bytes_step = 0;
  std::uint64_t outbox_copied = 0;
  std::uint64_t arena_peak = 0;
  bool want_continue = false;

  SimResult result;
  result.group_size = layout.k;
  std::vector<State> final_states(v);

  const auto owner_of = [local_v](std::uint32_t vp) { return vp / local_v; };
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
    // Initial contexts for this rank's virtual processors.
    {
      ObsPhase phase(rec, "init", disks, &phase_io.init, me);
      for (std::uint32_t r = 0; r < rounds; ++r) {
        const std::uint32_t first = r * k;
        const std::uint32_t count = std::min(k, local_v - first);
        contexts.write(first, count, [&](std::uint32_t ctx, util::Writer& w) {
          make_state(me * local_v + ctx).serialize(w);
        });
      }
    }
    // Startup alignment: validates the mesh before the first superstep and
    // keeps slow-starting peers from eating into round deadlines.
    (void)tp_->exchange();

    // Buffers reused across rounds and supersteps.
    std::vector<std::vector<std::byte>> payloads;
    std::vector<std::vector<bsp::Message>> inboxes;
    std::vector<bsp::Message> outgoing;
    std::vector<State> states;
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

    for (std::size_t step = 0;; ++step) {
      if (step >= cfg_.max_supersteps) {
        throw std::runtime_error("DistSimulator: superstep limit exceeded");
      }
      want_continue = false;
      comm_bytes_this_step = 0;
      bsp::SuperstepCost local_step_cost;
      if (pipelined) submit_ctx_read(0);

      for (std::uint32_t round = 0; round < rounds; ++round) {
        // --- Fetch: read local blocks of this batch, forward to owners.
        // Each block is handed to the transport the moment the disks
        // surface it and progress() pushes it toward the wire while the
        // remaining blocks of the batch are still being read.  post()
        // copies before returning, so transient spans — this callback's,
        // pack_blocks scratch, serialized records — are posted directly.
        {
          ObsPhase phase(rec, "fetch_msg", disks, &phase_io.fetch_msg, me);
          messages.fetch_group_blocks(
              round, [&](std::span<const std::byte> block) {
                if (is_dummy_block(block)) return;
                util::Reader r(block.subspan(kBlockHeaderBytes));
                r.read<std::uint32_t>();  // src
                const auto dst = r.read<std::uint32_t>();
                const auto owner = owner_of(dst);
                tp_->post(owner, block);
                if (owner != me) comm_bytes_this_step += block.size();
                tp_->progress();
              });
        }
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
                         disks, &phase_io.fetch_ctx, me);
          if (pipelined) {
            contexts.read_wait(ctx_read[round & 1], payloads);
            // Read-ahead: the next round's contexts stream in while this
            // round computes.
            if (round + 1 < rounds) submit_ctx_read(round + 1);
          } else {
            contexts.read_into(first, count, payloads);
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
            util::Reader r(payloads[i]);
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
            for (const auto& msg : outboxes[i].messages()) {
              outgoing_refs.push_back(msg);
            }
            arena_peak = std::max<std::uint64_t>(
                arena_peak, outboxes[i].arena_high_water());
          } else {
            for (auto& msg : outboxes[i].take()) {
              outgoing.push_back(std::move(msg));
            }
            outbox_copied += outboxes[i].bytes_copied();
          }
        }
        arena_peak =
            std::max<std::uint64_t>(arena_peak, inbox_arena.high_water());
        merge_cost(local_step_cost, local_cost);

        // Write contexts back.
        {
          ObsPhase phase(rec, pipelined ? "writeback_ctx" : "write_ctx",
                         disks, &phase_io.write_ctx, me);
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
          const auto scatter_block = [&](std::span<const std::byte> block) {
            const auto target = static_cast<std::uint32_t>(
                cfg_.routing == RoutingMode::deterministic
                    ? (me + rr_scatter++) % p
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
              pack_blocks(std::span<const bsp::MessageRef>(by_dest[s]), batch,
                          disks.block_size(), scatter_block);
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
        auto scattered = tp_->exchange();

        // --- Receive scattered blocks, write them to local buckets in
        // source-rank order (the ParSimulator's mailbox sweep order — the
        // write_block RNG draws must land on the same call indices).
        {
          ObsPhase phase(rec, "write_msg", disks, &phase_io.write_msg, me);
          for (std::uint32_t src = 0; src < p; ++src) {
            for (auto& block : scattered[src]) {
              if (zero_copy) {
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
          ObsPhase phase(rec, "writeback_ctx", disks, &phase_io.write_ctx,
                         me);
          contexts.write_wait(ctx_write[rounds & 1]);
          contexts.write_wait(ctx_write[(rounds + 1) & 1]);
        }
        ObsPhase phase(rec, "writeback_msg", disks, &phase_io.write_msg, me);
        messages.quiesce();
      }

      // --- Step 2: local SimulateRouting.
      {
        ObsPhase phase(rec, "reorganize", disks, &phase_io.reorganize, me);
        messages.flush(rng);
        routing += messages.reorganize(rng);
      }
      max_comm_bytes_step =
          std::max(max_comm_bytes_step, comm_bytes_this_step);

      // --- Superstep boundary: all-to-all control record.  Every rank
      // computes the same reduction, so the cost log, the continue branch
      // and the cancel branch stay in lockstep without a coordinator.
      {
        util::Writer w;
        w.write<bsp::SuperstepCost>(local_step_cost);
        w.write<std::uint8_t>(want_continue ? 1 : 0);
        const bool cancel_sample =
            me == 0 && cfg_.cancel != nullptr &&
            cfg_.cancel->load(std::memory_order_relaxed);
        w.write<std::uint8_t>(cancel_sample ? 1 : 0);
        const auto record = w.take();
        for (std::uint32_t q = 0; q < p; ++q) tp_->post(q, record);
      }
      auto controls = tp_->exchange();
      bsp::SuperstepCost step_cost;
      bool any = false;
      bool cancel_seen = false;
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
      }
      result.costs.supersteps.push_back(step_cost);
      if (cancel_seen && any) {
        throw CanceledError("DistSimulator: canceled at superstep boundary " +
                            std::to_string(step + 1));
      }
      if (!any) break;
    }

    // Collect this rank's final states, then allgather so every rank can
    // hand the workload driver the complete output (drivers feed collected
    // results into the next phase's input, and all ranks must stay in
    // lockstep).
    util::Writer local_out;
    {
      ObsPhase phase(rec, "collect", disks, &phase_io.collect, me);
      for (std::uint32_t r = 0; r < rounds; ++r) {
        const std::uint32_t first = r * k;
        const std::uint32_t count = std::min(k, local_v - first);
        contexts.read_into(first, count, payloads);
        for (std::uint32_t i = 0; i < count; ++i) {
          local_out.write_vector(payloads[i]);
        }
      }
    }
    disks.sync();

    {
      const auto blob = local_out.take();
      for (std::uint32_t q = 0; q < p; ++q) tp_->post(q, blob);
    }
    auto gathered = tp_->exchange();
    for (std::uint32_t src = 0; src < p; ++src) {
      if (gathered[src].size() != 1) {
        throw net::PeerFailedError(
            "DistSimulator: malformed state record from rank " +
            std::to_string(src));
      }
      util::Reader r(gathered[src][0]);
      for (std::uint32_t j = 0; j < local_v; ++j) {
        const auto bytes = r.read_vector<std::byte>();
        util::Reader sr(bytes);
        final_states[src * local_v + j].deserialize(sr);
      }
    }

    // --- End-of-run record allgather: every rank assembles the SAME
    // SimResult the threaded ParSimulator would have produced (max-over-
    // processors I/O, summed routing stats, reduced overlap), so digests
    // agree on every rank and with the single-process run.
    disks.harvest_backend_stats();
    {
      util::Writer w;
      w.write<em::IoStats>(disks.stats());
      w.write<std::uint64_t>(disks.engine_stats().total_retries());
      w.write<std::uint64_t>(disks.engine_stats().total_giveups());
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
      w.write<RoutingStats>(routing);
      w.write<std::uint64_t>(max_comm_bytes_step);
      w.write<std::uint64_t>(disks.max_tracks_used());
      em::FaultCounts fc;
      if (fault_counters_ != nullptr) fc = em::snapshot(*fault_counters_);
      w.write<em::FaultCounts>(fc);
      w.write<PhaseIo>(phase_io);
      w.write<std::uint64_t>(messages.bytes_copied() + outbox_copied);
      w.write<std::uint64_t>(arena_peak);
      w.write<std::uint8_t>(messages.in_memory_routing() ? 1 : 0);
      const auto record = w.take();
      for (std::uint32_t q = 0; q < p; ++q) tp_->post(q, record);
    }
    auto records = tp_->exchange();
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
      const auto io = r.read<em::IoStats>();
      result.per_proc_io.push_back(io);
      if (io.parallel_ios >= result.total_io.parallel_ios) {
        result.total_io = io;
      }
      result.recovery.io_retries += r.read<std::uint64_t>();
      result.recovery.io_giveups += r.read<std::uint64_t>();
      const bool has_busy = r.read<std::uint8_t>() != 0;
      const double clamped = r.read<double>();
      if (has_busy) {
        result.overlap_ratio =
            src == 0 ? clamped : std::min(result.overlap_ratio, clamped);
      }
      result.routing_stats += r.read<RoutingStats>();
      result.real_comm_bytes =
          std::max(result.real_comm_bytes, r.read<std::uint64_t>());
      result.max_tracks_per_disk =
          std::max(result.max_tracks_per_disk, r.read<std::uint64_t>());
      result.recovery.faults += r.read<em::FaultCounts>();
      const auto pio = r.read<PhaseIo>();
      if (src == 0) result.phase_io = pio;
      copied_total += r.read<std::uint64_t>();
      arena_peak_all = std::max(arena_peak_all, r.read<std::uint64_t>());
      mem_routing = mem_routing && r.read<std::uint8_t>() != 0;
    }

    if (rec != nullptr) {
      auto& reg = rec->registry;
      em::export_metrics(disks.engine_stats(), reg,
                         "proc." + std::to_string(me) + ".engine.");
      export_routing_stats(reg, result.routing_stats);
      export_recovery_stats(reg, result.recovery);
      reg.add("sim.supersteps", result.costs.num_supersteps());
      reg.set_gauge("sim.group_size", static_cast<double>(result.group_size));
      reg.set_gauge("sim.max_tracks_per_disk",
                    static_cast<double>(result.max_tracks_per_disk));
      reg.set_gauge("sim.real_comm_bytes",
                    static_cast<double>(result.real_comm_bytes));
      reg.set_gauge("sim.overlap_ratio", result.overlap_ratio);
      reg.add("sim.bytes_copied", copied_total);
      reg.set_gauge("sim.arena_bytes", static_cast<double>(arena_peak_all));
      reg.set_gauge("sim.in_memory_routing", mem_routing ? 1.0 : 0.0);
      tp_->export_metrics(reg);
    }
  } catch (const std::exception& e) {
    // Settle in-flight tokens before unwinding past their staging buffers,
    // then poison the mesh so peers fail fast instead of timing out.
    disks.drain();
    messages.abandon_inflight();
    tp_->abort(e.what());
    throw;
  } catch (...) {
    disks.drain();
    messages.abandon_inflight();
    tp_->abort("unknown error");
    throw;
  }

  for (std::uint32_t vp = 0; vp < v; ++vp) collect(vp, final_states[vp]);
  return result;
}

}  // namespace embsp::sim
