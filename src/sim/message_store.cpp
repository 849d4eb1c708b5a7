#include "sim/message_store.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "em/fault_backend.hpp"

namespace embsp::sim {

namespace {

/// Order a batch by (disk, track): DiskArray runs each disk's ops in list
/// order, so ascending tracks let its coalescer merge adjacent ones.
template <class Op>
void sort_by_track(std::vector<Op>& ops) {
  std::sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
    return a.disk != b.disk ? a.disk < b.disk : a.track < b.track;
  });
}

}  // namespace

MessageStore::MessageStore(em::DiskArray& disks, em::TrackAllocators& alloc,
                           MessageStoreConfig cfg)
    : disks_(&disks),
      alloc_(&alloc),
      cfg_(cfg),
      block_size_(disks.block_size()),
      num_disks_(static_cast<std::uint32_t>(disks.num_disks())),
      gpb_((cfg.num_groups + num_disks_ - 1) / num_disks_),
      bucket_cap_(static_cast<std::uint64_t>(gpb_) *
                  cfg.group_capacity_blocks),
      cap_rows_((bucket_cap_ + num_disks_ - 1) / num_disks_),
      buckets_(disks, alloc, num_disks_),
      rr_next_(num_disks_, 0),
      staged_count_(cfg.num_groups, 0),
      staged_real_(cfg.num_groups, 0),
      ready_count_(cfg.num_groups, 0),
      ready_real_(cfg.num_groups, 0),
      ready_base_(cfg.num_groups, 0) {
  if (cfg.num_groups == 0) {
    throw std::invalid_argument("MessageStore: need at least one group");
  }
  if (block_size_ < kMinBlockSize) {
    throw std::invalid_argument("MessageStore: block size below minimum (" +
                                std::to_string(kMinBlockSize) + " bytes)");
  }
  if (cfg_.leaf_fanout > 1) {
    if (!cfg_.leaf_of || cfg_.num_leaf_groups == 0 ||
        cfg_.leaf_capacity_blocks == 0) {
      throw std::invalid_argument(
          "MessageStore: hierarchical mode needs leaf_of, num_leaf_groups "
          "and leaf_capacity_blocks");
    }
  }
  // RoutingMode::automatic: when every group's worst-case receive volume
  // provably fits in the staging budget, routing never needs the disk at
  // all — Algorithm 2 exists only because buckets exceed M (Fig. 2).
  // Insufficient budget degrades to compact behavior (the default branches
  // below), so requesting automatic is always safe.  A super-group existing
  // at all means the exchange exceeds M, so the hierarchical schedule never
  // takes the in-memory path.
  if (cfg_.mode == RoutingMode::automatic && cfg_.leaf_fanout <= 1) {
    const std::uint64_t worst_case =
        static_cast<std::uint64_t>(cfg_.num_groups) *
        cfg_.group_capacity_blocks * block_size_;
    mem_mode_ = cfg_.memory_budget_bytes >= worst_case;
  }
  if (mem_mode_) {
    // No disk regions needed: staging and delivery both live in memory.
    mem_staged_.resize(cfg_.num_groups);
    mem_ready_.resize(cfg_.num_groups);
    consolidation_start_.assign(num_disks_, 0);
    arena_start_.assign(num_disks_, 0);
    return;
  }
  // Consolidation region: bucket d gathers on disk d (step 1 of Alg. 2).
  consolidation_start_.resize(num_disks_);
  for (std::uint32_t d = 0; d < num_disks_; ++d) {
    consolidation_start_[d] = (*alloc_)[d].reserve_region(bucket_cap_);
  }
  // Arena: one slab of cap_rows tracks per bucket on every disk.
  const std::uint64_t arena_tracks =
      static_cast<std::uint64_t>(num_disks_) * cap_rows_;
  arena_start_.resize(num_disks_);
  for (std::uint32_t d = 0; d < num_disks_; ++d) {
    arena_start_[d] = (*alloc_)[d].reserve_region(arena_tracks);
  }
  // Scratch for the multi-level distribution pass: one slab of leaf_rows
  // tracks per local leaf on every disk, striped like the arena so a leaf
  // fetch reads fully disk-parallel.
  if (cfg_.leaf_fanout > 1) {
    leaf_rows_ = (cfg_.leaf_capacity_blocks + num_disks_ - 1) / num_disks_;
    const std::uint64_t scratch_tracks =
        static_cast<std::uint64_t>(cfg_.leaf_fanout) * leaf_rows_;
    scratch_start_.resize(num_disks_);
    for (std::uint32_t d = 0; d < num_disks_; ++d) {
      scratch_start_[d] = (*alloc_)[d].reserve_region(scratch_tracks);
    }
    leaf_ready_.assign(cfg_.leaf_fanout, 0);
  }
}

std::uint32_t MessageStore::bucket_of_group(std::uint32_t g) const {
  return g / gpb_;
}

std::pair<std::uint32_t, std::uint64_t> MessageStore::arena_location(
    std::uint32_t bucket, std::uint64_t t) const {
  const auto disk = static_cast<std::uint32_t>((bucket + t) % num_disks_);
  const std::uint64_t track = arena_start_[disk] +
                              static_cast<std::uint64_t>(bucket) * cap_rows_ +
                              t / num_disks_;
  return {disk, track};
}

std::pair<std::uint32_t, std::uint64_t> MessageStore::scratch_location(
    std::uint32_t li, std::uint64_t t) const {
  const auto disk = static_cast<std::uint32_t>((li + t) % num_disks_);
  const std::uint64_t track = scratch_start_[disk] +
                              static_cast<std::uint64_t>(li) * leaf_rows_ +
                              t / num_disks_;
  return {disk, track};
}

void MessageStore::stage_account(std::uint32_t group, bool dummy) {
  if (group >= cfg_.num_groups) {
    throw std::out_of_range("MessageStore: destination group " +
                            std::to_string(group));
  }
  if (staged_count_[group] >= cfg_.group_capacity_blocks) {
    throw std::runtime_error(
        "MessageStore: group " + std::to_string(group) +
        " exceeded its receive capacity of " +
        std::to_string(cfg_.group_capacity_blocks) +
        " blocks — the program communicates more than the declared gamma");
  }
  ++staged_count_[group];
  if (!dummy) ++staged_real_[group];
}

void MessageStore::stage(std::uint32_t group, std::span<const std::byte> block,
                         util::Rng& rng) {
  stage_account(group, is_dummy_block(block));
  bytes_copied_ += block.size();
  if (mem_mode_) {
    mem_staged_[group].emplace_back(block.begin(), block.end());
    return;
  }
  pending_.push_back(
      {bucket_of_group(group),
       std::vector<std::byte>(block.begin(), block.end())});
  if (pending_.size() == num_disks_) flush(rng);
}

std::span<std::byte> MessageStore::stage_alloc(std::uint32_t group,
                                               util::Rng& rng) {
  // Completing the previous block may have filled the write cycle; flush
  // BEFORE accounting the next block so the RNG-draw order matches the
  // copying path (which flushes inside stage(), right after its push).
  if (!mem_mode_ && pending_.size() == num_disks_) flush(rng);
  stage_account(group, /*dummy=*/false);
  if (mem_mode_) {
    mem_staged_[group].emplace_back(block_size_);
    return {mem_staged_[group].back().data(), block_size_};
  }
  pending_.push_back(
      {bucket_of_group(group), std::vector<std::byte>(block_size_)});
  return {pending_.back().data.data(), block_size_};
}

void MessageStore::write_messages(
    std::span<const bsp::Message> messages,
    const std::function<std::uint32_t(std::uint32_t)>& group_of,
    util::Rng& rng) {
  // Partition messages by destination group, then pack each group's
  // messages into blocks ("each block inherits the destination address").
  std::vector<std::vector<const bsp::Message*>> per_group;
  for (const auto& m : messages) {
    const std::uint32_t g = group_of(m.dst);
    if (g >= cfg_.num_groups) {
      throw std::out_of_range("MessageStore: message to unknown group " +
                              std::to_string(g));
    }
    if (per_group.size() <= g) per_group.resize(g + 1);
    per_group[g].push_back(&m);
  }
  for (std::uint32_t g = 0; g < per_group.size(); ++g) {
    if (per_group[g].empty()) continue;
    pack_blocks(per_group[g], g, block_size_,
                [&](std::span<const std::byte> block) {
                  stage(g, block, rng);
                });
  }
}

void MessageStore::write_message_refs(
    std::span<const bsp::MessageRef> messages,
    const std::function<std::uint32_t(std::uint32_t)>& group_of,
    util::Rng& rng) {
  std::vector<std::vector<bsp::MessageRef>> per_group;
  for (const auto& m : messages) {
    const std::uint32_t g = group_of(m.dst);
    if (g >= cfg_.num_groups) {
      throw std::out_of_range("MessageStore: message to unknown group " +
                              std::to_string(g));
    }
    if (per_group.size() <= g) per_group.resize(g + 1);
    per_group[g].push_back(m);
  }
  for (std::uint32_t g = 0; g < per_group.size(); ++g) {
    if (per_group[g].empty()) continue;
    pack_blocks_into(per_group[g], g, block_size_,
                     [&]() { return stage_alloc(g, rng); });
    // The copying path flushes inside stage() the moment a cycle fills;
    // mirror that here in case this group's last block completed one.
    if (!mem_mode_ && pending_.size() == num_disks_) flush(rng);
  }
}

void MessageStore::write_block(std::span<const std::byte> block,
                               util::Rng& rng) {
  const BlockHeader h = parse_header(block);
  stage(h.dst_group, block, rng);
}

void MessageStore::write_block(std::vector<std::byte>&& block,
                               util::Rng& rng) {
  const BlockHeader h = parse_header(block);
  stage_account(h.dst_group, is_dummy_block(block));
  if (mem_mode_) {
    mem_staged_[h.dst_group].push_back(std::move(block));
    return;
  }
  pending_.push_back({bucket_of_group(h.dst_group), std::move(block)});
  if (pending_.size() == num_disks_) flush(rng);
}

void MessageStore::flush(util::Rng& rng) {
  if (pending_.empty()) return;
  // In write-behind mode the cycles of this flush are submitted, not
  // waited: the block payloads migrate into an InFlightCycle record that
  // keeps them alive until their tokens settle.  Placement (permutation
  // draws, round-robin cursors, track allocation) happens at submission in
  // call order either way, so both modes produce the same disk image.
  std::vector<em::DiskArray::IoToken> tokens;
  if (cfg_.mode == RoutingMode::deterministic) {
    // Round-robin per bucket: each bucket's blocks are spread over the
    // disks exactly evenly, no randomness.  Blocks whose assigned disks
    // collide within this flush go out in separate parallel I/Os.
    std::vector<std::pair<std::uint32_t, const PendingBlock*>> assigned;
    assigned.reserve(pending_.size());
    for (const auto& p : pending_) {
      const auto disk =
          static_cast<std::uint32_t>(rr_next_[p.bucket]++ % num_disks_);
      assigned.emplace_back(disk, &p);
    }
    std::vector<std::uint8_t> done(assigned.size(), 0);
    std::size_t remaining = assigned.size();
    while (remaining > 0) {
      std::vector<em::LinkedBuckets::OutBlock> cycle;
      std::vector<std::uint32_t> cycle_disks;
      std::vector<std::size_t> cycle_idx;
      std::vector<std::uint8_t> disk_used(num_disks_, 0);
      for (std::size_t i = 0; i < assigned.size(); ++i) {
        if (done[i] || disk_used[assigned[i].first]) continue;
        disk_used[assigned[i].first] = 1;
        cycle.push_back({assigned[i].second->bucket,
                         assigned[i].second->data});
        cycle_disks.push_back(assigned[i].first);
        cycle_idx.push_back(i);
      }
      if (write_behind_ > 0) {
        tokens.push_back(
            buckets_.submit_write_cycle_assigned(cycle, cycle_disks));
      } else {
        buckets_.write_cycle_assigned(cycle, cycle_disks);
      }
      for (auto i : cycle_idx) {
        done[i] = 1;
        --remaining;
      }
    }
  } else {
    std::vector<em::LinkedBuckets::OutBlock> out;
    out.reserve(pending_.size());
    for (const auto& p : pending_) {
      out.push_back({p.bucket, p.data});
    }
    if (write_behind_ > 0) {
      tokens.push_back(buckets_.submit_write_cycle(out, rng));
    } else {
      buckets_.write_cycle(out, rng);
    }
  }
  if (write_behind_ == 0) {
    pending_.clear();
    return;
  }
  InFlightCycle cycle;
  cycle.tokens = std::move(tokens);
  cycle.blocks = std::move(pending_);
  inflight_.push_back(std::move(cycle));
  if (!cycle_pool_.empty()) {
    pending_ = std::move(cycle_pool_.back());
    cycle_pool_.pop_back();
  } else {
    pending_ = {};
  }
  pending_.clear();
  while (inflight_.size() > write_behind_) retire_oldest_inflight();
}

void MessageStore::enable_write_behind(std::size_t max_inflight) {
  if (max_inflight == 0 && !inflight_.empty()) quiesce();
  write_behind_ = max_inflight;
}

void MessageStore::retire_oldest_inflight() {
  InFlightCycle cycle = std::move(inflight_.front());
  inflight_.pop_front();
  // Settle EVERY token before letting the payload buffers die, even when
  // one throws — a sibling token of the same cycle still references the
  // blocks until it settles.
  std::exception_ptr first;
  for (const auto t : cycle.tokens) {
    try {
      disks_->wait(t);
    } catch (...) {
      if (first == nullptr) first = std::current_exception();
    }
  }
  cycle.blocks.clear();
  cycle_pool_.push_back(std::move(cycle.blocks));
  if (first != nullptr) std::rethrow_exception(first);
}

void MessageStore::quiesce() {
  while (!inflight_.empty()) retire_oldest_inflight();
}

void MessageStore::abandon_inflight() {
  for (auto& cycle : inflight_) {
    cycle.blocks.clear();
    cycle_pool_.push_back(std::move(cycle.blocks));
  }
  inflight_.clear();
}

RoutingStats MessageStore::reorganize(util::Rng& rng) {
  RoutingStats stats;

  // In-memory fast path: the staged blocks already sit in memory, grouped
  // by destination, so "reorganization" is a pointer handoff — Algorithm
  // 2's two passes (and their I/O) vanish, which is exactly the win the
  // automatic mode is after.
  if (mem_mode_) {
    for (std::uint32_t g = 0; g < cfg_.num_groups; ++g) {
      stats.blocks_total += staged_count_[g];
    }
    std::swap(mem_ready_, mem_staged_);
    for (auto& blocks : mem_staged_) blocks.clear();
    ready_count_ = staged_count_;
    ready_real_ = staged_real_;
    std::fill(staged_count_.begin(), staged_count_.end(), 0);
    std::fill(staged_real_.begin(), staged_real_.end(), 0);
    return stats;
  }

  // Padded mode realizes the paper's "introduce dummy blocks" device: every
  // group is filled to capacity so each superstep's routing cost is the
  // fixed worst case that Lemma 3 analyzes.
  if (cfg_.mode == RoutingMode::padded) {
    std::vector<std::byte> dummy;
    for (std::uint32_t g = 0; g < cfg_.num_groups; ++g) {
      while (staged_count_[g] < cfg_.group_capacity_blocks) {
        make_dummy_block(g, block_size_, dummy);
        stats.dummy_blocks += 1;
        stage(g, dummy, rng);
      }
    }
  }
  flush(rng);
  // With write-behind on, flush() may only have SUBMITTED the last cycles;
  // step 1 below reads those very tracks, so settle them first.
  if (write_behind_ > 0) quiesce();

  for (std::uint32_t g = 0; g < cfg_.num_groups; ++g) {
    stats.blocks_total += staged_count_[g];
  }
  for (std::uint32_t d = 0; d < num_disks_; ++d) {
    for (std::uint32_t q = 0; q < num_disks_; ++q) {
      stats.max_chain = std::max<std::uint64_t>(
          stats.max_chain, buckets_.blocks_on_disk(q, d));
    }
  }

  // Consolidated placement: within its bucket, group g's blocks occupy
  // t in [base[g], base[g] + staged[g]); base is the running prefix sum of
  // group sizes inside the bucket (fixed offsets in padded mode, where all
  // sizes equal the capacity).
  std::vector<std::uint64_t> base(cfg_.num_groups, 0);
  {
    std::uint64_t run = 0;
    std::uint32_t cur_bucket = 0;
    for (std::uint32_t g = 0; g < cfg_.num_groups; ++g) {
      if (bucket_of_group(g) != cur_bucket) {
        cur_bucket = bucket_of_group(g);
        run = 0;
      }
      base[g] = run;
      run += staged_count_[g];
      if (run > bucket_cap_) {
        throw std::runtime_error("MessageStore: bucket overflow (gamma bound "
                                 "violated)");
      }
    }
  }

  // Both passes run in windows of W consecutive D-block cycles: one batched
  // read and one batched write per window, each declared at the cycles the
  // window spans, so IoStats and RoutingStats equal the per-cycle
  // schedule's.  W is what the routing budget holds of D-block cycles, so a
  // window's staging never exceeds the memory M leaves beside the contexts.
  const std::uint64_t window = std::max<std::uint64_t>(
      1, cfg_.memory_budget_bytes /
             (static_cast<std::uint64_t>(num_disks_) * block_size_));
  std::vector<std::byte> buf;
  std::vector<em::ReadOp> reads;
  std::vector<em::WriteOp> writes;
  auto block_at = [&](std::size_t i) {
    return std::span<std::byte>(buf).subspan(i * block_size_, block_size_);
  };

  // ---- Step 1: copy bucket d onto disk d, staggered reads --------------
  //   "Read block b_d belonging to bucket d from disk ((d+j) mod D).
  //    Write block b_d to disk d on the next available track."
  // A window pops its cycles' chain tracks in the stagger order and assigns
  // consolidated slots in that same (j, d) order, so slots and the released
  // tracks' free-list order match the per-cycle schedule exactly.
  std::vector<std::uint64_t> next_in_group = base;  // next consolidated slot
  struct Popped {
    std::uint32_t bucket;
    std::uint32_t disk;
    std::uint64_t track;
  };
  std::vector<Popped> popped;
  bool drained = false;
  for (std::uint64_t j = 0; !drained;) {
    popped.clear();
    std::uint64_t cycles = 0;
    while (cycles < window) {
      const std::size_t before = popped.size();
      for (std::uint32_t d = 0; d < num_disks_; ++d) {
        const auto src_disk =
            static_cast<std::uint32_t>((d + j) % num_disks_);
        if (auto track = buckets_.pop_track(d, src_disk)) {
          popped.push_back({d, src_disk, *track});
        }
      }
      ++j;
      if (popped.size() > before) {
        ++cycles;
        continue;
      }
      // All chains a full stagger cycle can see are empty only when every
      // chain is empty; confirm before stopping.  Otherwise this stagger
      // offset found nothing and costs no I/O.
      drained = true;
      for (std::uint32_t q = 0; q < num_disks_ && drained; ++q) {
        for (std::uint32_t d = 0; d < num_disks_ && drained; ++d) {
          if (buckets_.blocks_on_disk(q, d) != 0) drained = false;
        }
      }
      if (drained) break;
    }
    if (cycles == 0) break;
    buf.resize(popped.size() * block_size_);
    reads.clear();
    for (std::size_t i = 0; i < popped.size(); ++i) {
      reads.push_back({popped[i].disk, popped[i].track, block_at(i)});
    }
    sort_by_track(reads);
    disks_->parallel_read_batch(reads, cycles);
    stats.step1_cycles += cycles;
    writes.clear();
    for (std::size_t i = 0; i < popped.size(); ++i) {
      const std::uint32_t d = popped[i].bucket;
      const BlockHeader h = parse_header(block_at(i));
      const std::uint64_t t = next_in_group[h.dst_group]++;
      writes.push_back({d, consolidation_start_[d] + t, block_at(i)});
      buckets_.release_track(popped[i].disk, popped[i].track);
    }
    sort_by_track(writes);
    disks_->parallel_write_batch(writes, cycles);
  }

  // ---- Step 2: re-stripe each bucket across the disks -------------------
  //   "read the j-th block from disk d and write it to disk (d+j) mod D on
  //    track d*ceil(cap/D) + floor(j/D)."
  // Every cycle j < max_t reads at least the longest bucket, so a window
  // [j0, j1) costs j1 - j0 cycles; its reads are consecutive tracks per
  // bucket and its writes consecutive arena tracks per (bucket, disk).
  std::vector<std::uint64_t> bucket_total(num_disks_, 0);
  for (std::uint32_t g = 0; g < cfg_.num_groups; ++g) {
    bucket_total[bucket_of_group(g)] += staged_count_[g];
  }
  const std::uint64_t max_t =
      *std::max_element(bucket_total.begin(), bucket_total.end());
  for (std::uint64_t j0 = 0; j0 < max_t; j0 += window) {
    const std::uint64_t j1 = std::min(max_t, j0 + window);
    std::size_t held = 0;
    for (std::uint32_t d = 0; d < num_disks_; ++d) {
      held += std::min(j1, std::max(j0, bucket_total[d])) - j0;
    }
    buf.resize(held * block_size_);
    reads.clear();
    writes.clear();
    for (std::uint32_t d = 0; d < num_disks_; ++d) {
      for (std::uint64_t j = j0; j < std::min(j1, bucket_total[d]); ++j) {
        const auto slot = block_at(reads.size());
        reads.push_back({d, consolidation_start_[d] + j, slot});
        const auto [disk, track] = arena_location(d, j);
        writes.push_back({disk, track, slot});
      }
    }
    sort_by_track(writes);
    disks_->parallel_read_batch(reads, j1 - j0);
    disks_->parallel_write_batch(writes, j1 - j0);
    stats.step2_cycles += j1 - j0;
  }

  // Hand the reorganized layout to the fetch side and reset staging.  The
  // distribution scratch (a pure cache over the arena) is invalidated: the
  // next leaf fetch re-cuts its super-group from the fresh layout.
  ready_count_ = staged_count_;
  ready_real_ = staged_real_;
  ready_base_ = base;
  dist_super_ = kNoSuper;
  std::fill(staged_count_.begin(), staged_count_.end(), 0);
  std::fill(staged_real_.begin(), staged_real_.end(), 0);
  return stats;
}

std::uint64_t MessageStore::group_blocks(std::uint32_t g) const {
  return ready_count_[g];
}

std::uint64_t MessageStore::group_real_blocks(std::uint32_t g) const {
  return ready_real_[g];
}

void MessageStore::submit_group_reads(
    std::uint32_t g, std::vector<std::byte>& buf,
    std::vector<em::DiskArray::IoToken>& tokens) {
  const std::uint32_t bucket = bucket_of_group(g);
  const std::uint64_t base = ready_base_[g];
  const std::uint64_t count = ready_count_[g];
  if (count == 0) return;
  const auto want = static_cast<std::size_t>(count) * block_size_;
  if (buf.size() < want) buf.resize(want);
  // One batched submission for the whole group, pre-declared at the model
  // cost the old <=D-batch loop charged: ceil(count/D) parallel I/Os (each
  // cycle reads one track per disk).  arena_location makes consecutive t on
  // one disk consecutive tracks, so the per-disk t-ascending op order below
  // coalesces into a single vectored backend transfer per drive.
  std::vector<em::ReadOp> reads;
  reads.reserve(count);
  for (std::uint64_t t = 0; t < count; ++t) {
    const auto [disk, track] = arena_location(bucket, base + t);
    reads.push_back({disk, track,
                     std::span<std::byte>(buf).subspan(t * block_size_,
                                                       block_size_)});
  }
  const std::uint64_t cycles = (count + num_disks_ - 1) / num_disks_;
  tokens.push_back(disks_->submit_read_batch(reads, cycles));
}

void MessageStore::distribute(std::uint32_t super) {
  if (!hierarchical()) {
    throw std::logic_error("MessageStore::distribute: flat schedule");
  }
  if (super >= cfg_.num_groups) {
    throw std::out_of_range("MessageStore: super-group " +
                            std::to_string(super));
  }
  if (dist_super_ == super) return;
  const std::uint32_t f = cfg_.leaf_fanout;
  std::fill(leaf_ready_.begin(), leaf_ready_.end(), 0);
  dist_super_ = super;

  // One block builder per local leaf plus one pending write per disk: the
  // resident working set of the whole pass is (2*D + f) blocks, bounded by
  // the plan regardless of the super-group's volume.
  std::vector<BlockBuilder> builders;
  builders.reserve(f);
  for (std::uint32_t li = 0; li < f; ++li) builders.emplace_back(block_size_);

  std::vector<PendingBlock> wpend;  // .bucket reused as the target disk
  std::vector<std::uint64_t> wtracks;
  std::vector<std::uint8_t> disk_used(num_disks_, 0);
  auto flush_writes = [&]() {
    if (wpend.empty()) return;
    std::vector<em::WriteOp> ops;
    ops.reserve(wpend.size());
    for (std::size_t i = 0; i < wpend.size(); ++i) {
      ops.push_back({wpend[i].bucket, wtracks[i], wpend[i].data});
    }
    disks_->parallel_write(ops);
    dist_cycles_ += 1;
    wpend.clear();
    wtracks.clear();
    std::fill(disk_used.begin(), disk_used.end(), 0);
  };
  auto emit_leaf_block = [&](std::uint32_t li) {
    const std::uint64_t t = leaf_ready_[li];
    if (t >= cfg_.leaf_capacity_blocks) {
      throw std::runtime_error(
          "MessageStore: leaf group scratch slab overflow — traffic exceeds "
          "the planned leaf capacity of " +
          std::to_string(cfg_.leaf_capacity_blocks) + " blocks");
    }
    const auto [disk, track] = scratch_location(li, t);
    if (disk_used[disk]) flush_writes();
    std::vector<std::byte> out;
    builders[li].take(super * f + li, out);
    wpend.push_back({disk, std::move(out)});
    wtracks.push_back(track);
    disk_used[disk] = 1;
    ++leaf_ready_[li];
  };

  // Stream the super-group's reorganized blocks through in <=D-block read
  // cycles, re-cutting each chunk record into its leaf's builder.
  const std::uint32_t bucket = bucket_of_group(super);
  const std::uint64_t base = ready_base_[super];
  const std::uint64_t count = ready_count_[super];
  std::vector<std::byte> buf(static_cast<std::size_t>(num_disks_) *
                             block_size_);
  for (std::uint64_t t0 = 0; t0 < count; t0 += num_disks_) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(num_disks_, count - t0));
    std::vector<em::ReadOp> reads;
    reads.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto [disk, track] = arena_location(bucket, base + t0 + i);
      reads.push_back({disk, track,
                       std::span<std::byte>(buf).subspan(i * block_size_,
                                                         block_size_)});
    }
    disks_->parallel_read(reads);
    dist_cycles_ += 1;
    for (std::size_t i = 0; i < n; ++i) {
      const auto block = std::span<const std::byte>(buf).subspan(
          i * block_size_, block_size_);
      for_each_chunk(block, [&](std::span<const std::byte> record,
                                std::uint32_t dst) {
        const std::uint32_t leaf = cfg_.leaf_of(dst);
        if (leaf >= cfg_.num_leaf_groups || leaf / f != super) {
          throw em::CorruptBlockError(
              "MessageStore: chunk for leaf group " + std::to_string(leaf) +
              " found in super-group " + std::to_string(super));
        }
        const std::uint32_t li = leaf % f;
        if (!builders[li].fits(record.size())) {
          if (builders[li].empty()) {
            throw em::CorruptBlockError(
                "MessageStore: chunk record larger than a block");
          }
          emit_leaf_block(li);
        }
        builders[li].append(record);
      });
    }
  }
  for (std::uint32_t li = 0; li < f; ++li) {
    if (!builders[li].empty()) emit_leaf_block(li);
  }
  flush_writes();
}

void MessageStore::submit_leaf_reads(
    std::uint32_t li, std::vector<std::byte>& buf,
    std::vector<em::DiskArray::IoToken>& tokens) {
  const std::uint64_t count = leaf_ready_[li];
  if (count == 0) return;
  const auto want = static_cast<std::size_t>(count) * block_size_;
  if (buf.size() < want) buf.resize(want);
  std::vector<em::ReadOp> reads;
  reads.reserve(count);
  for (std::uint64_t t = 0; t < count; ++t) {
    const auto [disk, track] = scratch_location(li, t);
    reads.push_back({disk, track,
                     std::span<std::byte>(buf).subspan(t * block_size_,
                                                       block_size_)});
  }
  const std::uint64_t cycles = (count + num_disks_ - 1) / num_disks_;
  tokens.push_back(disks_->submit_read_batch(reads, cycles));
}

std::uint64_t MessageStore::undelivered_real_blocks() const {
  std::uint64_t n = 0;
  for (const auto c : ready_real_) n += c;
  return n;
}

void MessageStore::fetch_group_blocks(
    std::uint32_t g,
    const std::function<void(std::span<const std::byte>)>& consume) {
  if (mem_mode_) {
    for (const auto& block : mem_ready_[g]) consume(block);
    return;
  }
  std::uint64_t count;
  std::vector<em::DiskArray::IoToken> tokens;
  if (hierarchical()) {
    // g is a global leaf index: materialize its super-group in scratch
    // (no-op when already there), then read the leaf's slab.
    distribute(g / cfg_.leaf_fanout);
    const std::uint32_t li = g % cfg_.leaf_fanout;
    count = leaf_ready_[li];
    submit_leaf_reads(li, fetch_buf_, tokens);
  } else {
    count = ready_count_[g];
    submit_group_reads(g, fetch_buf_, tokens);
  }
  for (const auto t : tokens) disks_->wait(t);
  for (std::uint64_t t = 0; t < count; ++t) {
    consume(std::span<const std::byte>(fetch_buf_)
                .subspan(t * block_size_, block_size_));
  }
}

void MessageStore::fetch_group_submit(std::uint32_t g, PendingFetch& pf) {
  pf.tokens.clear();
  pf.group = g;
  pf.active = true;
  if (hierarchical()) {
    // Crossing into a new super-group re-cuts it through scratch here (a
    // blocking pass; the pipeline simply loses overlap at super-group
    // boundaries).  The previous leaf's fetch was already waited by the
    // pipelined schedule, so clobbering the scratch slabs is safe.
    distribute(g / cfg_.leaf_fanout);
    const std::uint32_t li = g % cfg_.leaf_fanout;
    pf.count = leaf_ready_[li];
    submit_leaf_reads(li, pf.buf, pf.tokens);
    return;
  }
  pf.count = ready_count_[g];
  // In-memory routing: the blocks are already resident; nothing to submit.
  if (mem_mode_) return;
  submit_group_reads(g, pf.buf, pf.tokens);
}

void MessageStore::absorb_fetch(PendingFetch& pf, Reassembler& r) {
  if (!pf.active) {
    throw std::logic_error(
        "MessageStore::fetch_group_wait: no fetch in flight");
  }
  for (const auto t : pf.tokens) disks_->wait(t);
  pf.tokens.clear();
  pf.active = false;
  if (mem_mode_) {
    for (const auto& block : mem_ready_[pf.group]) r.absorb(block, pf.group);
    return;
  }
  for (std::uint64_t t = 0; t < pf.count; ++t) {
    r.absorb(std::span<const std::byte>(pf.buf).subspan(t * block_size_,
                                                        block_size_),
             pf.group);
  }
}

std::vector<bsp::Message> MessageStore::fetch_group_wait(PendingFetch& pf) {
  Reassembler r(cfg_.max_message_bytes);
  absorb_fetch(pf, r);
  return r.take();
}

std::vector<bsp::MessageRef> MessageStore::fetch_group_wait_refs(
    PendingFetch& pf, util::Arena& arena) {
  Reassembler r(cfg_.max_message_bytes, &arena);
  absorb_fetch(pf, r);
  return r.take_refs();
}

std::vector<bsp::Message> MessageStore::fetch_group(std::uint32_t g) {
  Reassembler r(cfg_.max_message_bytes);
  fetch_group_blocks(
      g, [&](std::span<const std::byte> block) { r.absorb(block, g); });
  return r.take();
}

std::vector<bsp::MessageRef> MessageStore::fetch_group_refs(
    std::uint32_t g, util::Arena& arena) {
  Reassembler r(cfg_.max_message_bytes, &arena);
  fetch_group_blocks(
      g, [&](std::span<const std::byte> block) { r.absorb(block, g); });
  return r.take_refs();
}

MessageStore::Snapshot MessageStore::snapshot() const {
  Snapshot s;
  s.pending = pending_;
  s.rr_next = rr_next_;
  s.staged_count = staged_count_;
  s.staged_real = staged_real_;
  s.ready_count = ready_count_;
  s.ready_real = ready_real_;
  s.ready_base = ready_base_;
  s.chains = buckets_.snapshot_chains();
  if (mem_mode_) {
    s.mem_staged = mem_staged_;
    s.mem_ready = mem_ready_;
  }
  return s;
}

void MessageStore::export_state(util::Writer& w) {
  if (hierarchical()) {
    // The simulators reject checkpointing under the multi-level schedule;
    // this backstop keeps a future caller from silently dropping the
    // distribution scratch from the record.
    throw std::logic_error(
        "MessageStore::export_state: hierarchical schedule not supported");
  }
  if (!pending_.empty() || !inflight_.empty()) {
    throw std::logic_error(
        "MessageStore::export_state: staging side not quiesced");
  }
  for (const auto c : staged_count_) {
    if (c != 0) {
      throw std::logic_error(
          "MessageStore::export_state: staged blocks present — not at a "
          "superstep boundary");
    }
  }
  w.write<std::uint8_t>(mem_mode_ ? 1 : 0);
  w.write_vector(rr_next_);
  w.write_vector(ready_count_);
  w.write_vector(ready_real_);
  w.write_vector(ready_base_);
  w.write<std::uint64_t>(bytes_copied_);
  if (mem_mode_) {
    for (std::uint32_t g = 0; g < cfg_.num_groups; ++g) {
      for (const auto& block : mem_ready_[g]) {
        if (block.size() != block_size_) {
          throw std::logic_error(
              "MessageStore::export_state: off-size resident block");
        }
        w.write_bytes(block);
      }
    }
    return;
  }
  std::vector<std::byte> block(block_size_);
  for (std::uint32_t g = 0; g < cfg_.num_groups; ++g) {
    const std::uint32_t bucket = bucket_of_group(g);
    for (std::uint64_t t = 0; t < ready_count_[g]; ++t) {
      const auto [disk, track] = arena_location(bucket, ready_base_[g] + t);
      em::Disk& d = disks_->disk(disk);
      d.peek_track(track, block, em::unwrap_faults(d.backend()));
      w.write_bytes(block);
    }
  }
}

void MessageStore::restore_state(util::Reader& r) {
  const auto mem = r.read<std::uint8_t>();
  if ((mem != 0) != mem_mode_) {
    throw std::runtime_error(
        "MessageStore::restore_state: in-memory routing mode mismatch "
        "(checkpoint taken under a different config)");
  }
  rr_next_ = r.read_vector<std::uint64_t>();
  ready_count_ = r.read_vector<std::uint64_t>();
  ready_real_ = r.read_vector<std::uint64_t>();
  ready_base_ = r.read_vector<std::uint64_t>();
  bytes_copied_ = r.read<std::uint64_t>();
  if (rr_next_.size() != num_disks_ ||
      ready_count_.size() != cfg_.num_groups ||
      ready_real_.size() != cfg_.num_groups ||
      ready_base_.size() != cfg_.num_groups) {
    throw std::runtime_error(
        "MessageStore::restore_state: corrupt record (vector shapes)");
  }
  if (mem_mode_) {
    for (std::uint32_t g = 0; g < cfg_.num_groups; ++g) {
      mem_ready_[g].clear();
      for (std::uint64_t t = 0; t < ready_count_[g]; ++t) {
        const auto bytes = r.read_bytes(block_size_);
        mem_ready_[g].emplace_back(bytes.begin(), bytes.end());
      }
    }
    return;
  }
  for (std::uint32_t g = 0; g < cfg_.num_groups; ++g) {
    const std::uint32_t bucket = bucket_of_group(g);
    for (std::uint64_t t = 0; t < ready_count_[g]; ++t) {
      const auto bytes = r.read_bytes(block_size_);
      const auto [disk, track] = arena_location(bucket, ready_base_[g] + t);
      em::Disk& d = disks_->disk(disk);
      d.restore_track(track, bytes, em::unwrap_faults(d.backend()));
    }
  }
}

void MessageStore::restore(const Snapshot& s) {
  // The distribution scratch is a cache over the arena; a restored state
  // must re-cut its super-group from the (replayed) arena contents.
  dist_super_ = kNoSuper;
  pending_ = s.pending;
  rr_next_ = s.rr_next;
  staged_count_ = s.staged_count;
  staged_real_ = s.staged_real;
  ready_count_ = s.ready_count;
  ready_real_ = s.ready_real;
  ready_base_ = s.ready_base;
  buckets_.restore_chains(s.chains);
  if (mem_mode_) {
    mem_staged_ = s.mem_staged;
    mem_ready_ = s.mem_ready;
  }
}

}  // namespace embsp::sim
